"""Sampled, piecewise-linear concentration traces."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Signal", "UnknownVariableError", "OutOfRangeError", "read_trace_csv",
           "write_trace_csv", "TIME_TOL"]

TIME_TOL = 1e-9  # two times within it name the same sample, in every module


class UnknownVariableError(KeyError):
    """Requested variable is not present in the signal."""

    def __str__(self):
        # the message itself: a KeyError's str() is its repr, in quotes
        return self.args[0]


class OutOfRangeError(ValueError):
    """Requested time lies outside the sampled interval."""


@dataclass(frozen=True, eq=False)  # compared by identity: its fields are arrays
class Signal:
    """A multi-variable trace sampled on a finite, strictly increasing time grid.

    Values between samples are linearly interpolated; outside [t0, t_end]
    the signal is undefined and querying it is an error.
    """

    times: np.ndarray
    values: dict[str, np.ndarray]
    # grid step and uniformity, from the sample positions
    _step: float | None = field(init=False, repr=False)
    _uniform: bool = field(init=False, repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a nonempty 1-d array")
        # the ends only: the order check below refuses a non-finite time
        # between two finite ones
        if not (math.isfinite(times[0]) and math.isfinite(times[-1])):
            raise ValueError(f"times must be finite, got {times[0]} to {times[-1]}")
        if abs(times[0]) > TIME_TOL:
            raise ValueError("first time point must be 0")
        if not np.all(times[1:] > times[:-1]):
            raise ValueError("times must be strictly increasing")
        step, uniform = None, True
        if times.size > 1:
            step = float(times[-1] - times[0]) / (times.size - 1)
            # t_0 + k*step - t_k in place: no second trace-sized array
            dev = np.arange(times.size, dtype=float)
            dev *= step
            dev += times[0]
            dev -= times
            uniform = step > 2 * TIME_TOL and bool(dev.max() - dev.min() <= TIME_TOL)
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
        """Linear interpolation of ``var`` at ``t``, within :data:`TIME_TOL` of [0, t_end]."""
        samples = self.samples(var)
        if t < self.times[0] - TIME_TOL or t > self.t_end + TIME_TOL:
            raise OutOfRangeError(
                f"t={t} outside sampled range [0, {self.t_end}]"
            )
        return float(np.interp(t, self.times, samples))

    def is_uniform(self) -> bool:
        """A step over 2*TIME_TOL, and offsets t_0 + k*:attr:`step` - t_k
        that spread by at most :data:`TIME_TOL` (max minus min): two
        samples' offsets from that grid then differ by at most TIME_TOL, a
        window's slack, and no slack reaches a neighbour."""
        return self._uniform

    @property
    def step(self) -> float:
        """Grid step of a uniform signal: (t_end - t_0)/(T - 1), the fitted
        step, so an error in one sample's time is not carried down the trace."""
        if self._step is None:
            raise ValueError("single-sample signal has no step")
        if not self._uniform:
            raise ValueError("signal is not uniformly sampled")
        return self._step

    def index_of(self, t: float) -> int:
        """Index of the sample that ``t`` names: the first within :data:`TIME_TOL`."""
        i = int(self.times.searchsorted(t - TIME_TOL))
        if i >= self.times.size or abs(self.times[i] - t) > TIME_TOL:
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


# the suffixes numpy's file opener decompresses by
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_trace_csv(path) -> Signal:
    """Read a trace that :func:`write_trace_csv` wrote to the file ``path``.

    ``path`` is a ``str``, ``bytes`` or ``os.PathLike``.  The header is
    read with :mod:`csv`, under its quoting rules, so a quoted name may
    span lines.  The body goes to ``np.loadtxt`` as the file's absolute
    path, skipping the header's lines: numpy reads a path in chunks, where
    it iterates any other object line by line, and an absolute path is
    never taken for a URL.  numpy's opener decompresses by suffix, so a
    path ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma`` (as spelt,
    case sensitive) is refused before the file is opened.

    Raises ``ValueError`` for such a suffix, a missing ``t`` column, an
    empty or repeated variable name, no samples, a ragged row, a
    non-numeric cell, or times that :class:`Signal` refuses.
    """
    path = os.path.abspath(os.fsdecode(path))
    if path.endswith(_COMPRESSED_SUFFIXES):
        raise ValueError(
            f"trace CSV path ends in a compressed-file suffix {_COMPRESSED_SUFFIXES}: {path}"
        )
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        # physical lines, since a quoted name may hold a newline
        header_lines = reader.line_num
        if header[:1] != ["t"]:
            raise ValueError("trace CSV must start with header 't,var1,...'")
        names = header[1:]
        if not all(names) or len(set(names)) != len(names):
            raise ValueError(f"trace CSV header has an empty or repeated variable name: {names}")
        # checked here because np.loadtxt only warns on an empty body
        if not next(fh, "").strip():
            raise ValueError("trace CSV has no samples after the header")
    data = np.loadtxt(
        path, delimiter=",", ndmin=2, comments=None, skiprows=header_lines,
    )
    if data.shape[1] != len(names) + 1:
        raise ValueError(
            f"trace CSV rows have {data.shape[1]} columns, header has {len(names) + 1}"
        )
    return Signal(
        times=data[:, 0],
        values={name: data[:, 1 + j] for j, name in enumerate(names)},
    )
