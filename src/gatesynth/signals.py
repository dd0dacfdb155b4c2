"""Sampled, piecewise-linear concentration traces."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Signal", "ConstantStimulus", "read_trace_csv", "write_trace_csv"]


class UnknownVariableError(KeyError):
    """Requested variable is not present in the signal."""


class OutOfRangeError(ValueError):
    """Requested time lies outside the sampled interval."""


@dataclass(frozen=True)
class ConstantStimulus:
    """A constant input level held for a fixed duration."""

    level: float
    hold_duration: float

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("stimulus level must be >= 0")
        if self.hold_duration <= 0:
            raise ValueError("hold_duration must be > 0")


@dataclass(frozen=True)
class Signal:
    """A multi-variable trace sampled on a strictly increasing time grid.

    Values between samples are linearly interpolated; outside [t0, t_end]
    the signal is undefined and querying it is an error.
    """

    times: np.ndarray
    values: dict[str, np.ndarray] = field(compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a nonempty 1-d array")
        if abs(times[0]) > 1e-12:
            raise ValueError("first time point must be 0")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if not self.values:
            raise ValueError("signal needs at least one variable")
        vals = {}
        for name, samples in self.values.items():
            samples = np.asarray(samples, dtype=float)
            if samples.shape != times.shape:
                raise ValueError(
                    f"variable {name!r} has {samples.size} samples, "
                    f"expected {times.size}"
                )
            vals[name] = samples
        object.__setattr__(self, "values", vals)

    @property
    def variables(self) -> list[str]:
        return list(self.values)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def samples(self, var: str) -> np.ndarray:
        if var not in self.values:
            raise UnknownVariableError(
                f"unknown variable {var!r}; trace has {self.variables}"
            )
        return self.values[var]

    def sample_at(self, var: str, t: float) -> float:
        """Linear interpolation of ``var`` at time ``t``."""
        samples = self.samples(var)
        if t < self.times[0] - 1e-12 or t > self.t_end + 1e-12:
            raise OutOfRangeError(
                f"t={t} outside sampled range [0, {self.t_end}]"
            )
        return float(np.interp(t, self.times, samples))

    def is_uniform(self, rtol: float = 1e-9) -> bool:
        if self.times.size < 2:
            return True
        steps = np.diff(self.times)
        h = steps[0]
        return bool(np.all(np.abs(steps - h) <= rtol * max(h, 1.0)))

    @property
    def step(self) -> float:
        """Grid step of a uniform signal."""
        if self.times.size < 2:
            raise ValueError("single-sample signal has no step")
        if not self.is_uniform():
            raise ValueError("signal is not uniformly sampled")
        return float(self.times[1] - self.times[0])

    def index_of(self, t: float, tol: float = 1e-9) -> int:
        """Index of the grid point at time ``t`` (must hit a sample)."""
        i = int(np.searchsorted(self.times, t - tol))
        if i >= self.times.size or abs(self.times[i] - t) > tol:
            raise OutOfRangeError(f"t={t} is not a sample point of the trace")
        return i


def write_trace_csv(signal: Signal, path_or_file) -> None:
    """Write a trace as CSV with header ``t,var1,var2,...``."""
    names = signal.variables

    def _write(fh):
        w = csv.writer(fh)
        w.writerow(["t"] + names)
        for i, t in enumerate(signal.times):
            w.writerow([repr(float(t))] + [repr(float(signal.values[v][i])) for v in names])

    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w", newline="") as fh:
            _write(fh)
    else:
        _write(path_or_file)


def read_trace_csv(path_or_file) -> Signal:
    """Read a trace written by :func:`write_trace_csv`."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, newline="") as fh:
            return read_trace_csv(io.StringIO(fh.read()))
    rows = list(csv.reader(path_or_file))
    if not rows or rows[0][:1] != ["t"]:
        raise ValueError("trace CSV must start with header 't,var1,...'")
    names = rows[0][1:]
    data = np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)
    if data.ndim != 2 or data.shape[1] != len(names) + 1:
        raise ValueError("malformed trace CSV")
    return Signal(
        times=data[:, 0],
        values={name: data[:, 1 + j] for j, name in enumerate(names)},
    )
