"""Sampled, piecewise-linear concentration traces."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Signal", "UnknownVariableError", "OutOfRangeError", "read_trace_csv",
           "write_trace_csv"]


class UnknownVariableError(KeyError):
    """Requested variable is not present in the signal."""

    def __str__(self):
        # the message itself: a KeyError's str() is its repr, in quotes
        return self.args[0]


class OutOfRangeError(ValueError):
    """Requested time lies outside the sampled interval."""


@dataclass(frozen=True)
class Signal:
    """A multi-variable trace sampled on a strictly increasing time grid.

    Values between samples are linearly interpolated; outside [t0, t_end]
    the signal is undefined and querying it is an error.
    """

    times: np.ndarray
    values: dict[str, np.ndarray] = field(compare=False)
    # grid step and uniformity, from the one np.diff of the times
    _step: float | None = field(init=False, repr=False, compare=False)
    _uniform: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a nonempty 1-d array")
        if abs(times[0]) > 1e-12:
            raise ValueError("first time point must be 0")
        steps = np.diff(times)
        if not np.all(steps > 0):
            raise ValueError("times must be strictly increasing")
        step, uniform = None, True
        if steps.size:
            step = float(steps[0])
            # |steps - step| in place: no second trace-sized array
            dev = np.abs(np.subtract(steps, step, out=steps), out=steps)
            uniform = bool(np.all(dev <= 1e-9 * max(step, 1.0)))
        object.__setattr__(self, "_step", step)
        object.__setattr__(self, "_uniform", uniform)
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

    def is_uniform(self) -> bool:
        """Every step within a relative 1e-9 of the first one."""
        return self._uniform

    @property
    def step(self) -> float:
        """Grid step of a uniform signal."""
        if self._step is None:
            raise ValueError("single-sample signal has no step")
        if not self._uniform:
            raise ValueError("signal is not uniformly sampled")
        return self._step

    def index_of(self, t: float) -> int:
        """Index of the grid point within 1e-9 of time ``t``."""
        i = int(self.times.searchsorted(t - 1e-9))
        if i >= self.times.size or abs(self.times[i] - t) > 1e-9:
            raise OutOfRangeError(f"t={t} is not a sample point of the trace")
        return i


# rows formatted per chunk: one string for the whole trace would hold
# every row's text at once
_CHUNK_ROWS = 1024


def write_trace_csv(signal: Signal, path) -> None:
    """Write a trace to the file ``path`` as CSV with header ``t,var1,var2,...``.

    The header is written by :mod:`csv`, so a name is quoted under its
    rules.  Each value is the shortest round-trip ``repr`` of its float
    (``inf``, ``-inf`` and ``nan`` included) and every line ends in
    ``\\r\\n``, the :mod:`csv` default.  Rows are formatted
    :data:`_CHUNK_ROWS` at a time.  An empty variable name raises
    ``ValueError`` before the file is opened.
    """
    names = signal.variables
    if not all(names):
        raise ValueError(f"trace has an empty variable name: {names}")
    columns = [signal.times] + [signal.values[v] for v in names]
    # %r of a Python float is its repr
    line = ",".join(["%r"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["t"] + names)
        for start in range(0, signal.times.size, _CHUNK_ROWS):
            chunk = [c[start:start + _CHUNK_ROWS].tolist() for c in columns]
            fh.write("".join(map(line.__mod__, zip(*chunk))))


def read_trace_csv(path) -> Signal:
    """Read a trace that :func:`write_trace_csv` wrote to the file ``path``.

    Raises ``ValueError`` for a missing ``t`` column, an empty or repeated
    variable name, no samples, a ragged row or a non-numeric cell.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        if header[:1] != ["t"]:
            raise ValueError("trace CSV must start with header 't,var1,...'")
        names = header[1:]
        if not all(names) or len(set(names)) != len(names):
            raise ValueError(f"trace CSV header has an empty or repeated variable name: {names}")
        # checked here because np.loadtxt only warns on an empty body
        first = next(fh, "")
        if not first.strip():
            raise ValueError("trace CSV has no samples after the header")
        data = np.loadtxt(
            itertools.chain([first], fh), delimiter=",", ndmin=2, comments=None,
        )
        if data.shape[1] != len(names) + 1:
            raise ValueError(
                f"trace CSV rows have {data.shape[1]} columns, header has {len(names) + 1}"
            )
    return Signal(
        times=data[:, 0],
        values={name: data[:, 1 + j] for j, name in enumerate(names)},
    )
