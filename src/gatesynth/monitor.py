"""Quantitative STL monitoring over sampled signals.

Robustness follows the standard quantitative semantics: atoms measure the
signed margin to their threshold, boolean connectives map to min/max, and
bounded temporal operators take sup/inf over the signal's sample grid
restricted to their window.  Two monitors are provided:

* :func:`robustness` — array-based monitor; the temporal windows become
  fixed index ranges on a uniform grid whose step is over the formula's
  floor, (temporal depth + 2)*TIME_TOL, where :func:`_defined_until` proves
  they reach every sample the naive monitor admits.  Any other trace goes
  whole to the naive monitor; :func:`robustness_signal` refuses it.  F/G
  windows use a sparse table (Bender & Farach-Colton, LATIN 2000), or a
  single reduction when only one window fits, and Until doubles a two-part
  segment summary by associative composition (the offline counterpart of
  Donzé, Ferrère & Maler, CAV 2013).  Both take O(log w) passes of binary
  ``np.minimum``/``np.maximum`` over the whole trace, along axis 0 of a (T,)
  or (T, N) array.  They are exact: min and max round nothing, so every
  result is one of the window's own values.  (Where 0.0 and -0.0, or NaNs of
  both signs, meet in a window, which of the equal values comes out follows
  numpy's loops and is not specified.)
* :func:`robustness_naive` — direct recursive evaluation, O(n*w) per
  temporal operator, supporting arbitrary (non-uniform) grids.  Kept as an
  independent reference for differential testing.

The naive monitor takes its windows from :func:`_window`; the fast
monitor keeps its own rule, so the differential tests compare two
independent rules.  (The tests' boolean oracle, ``eval_boolean`` in
``tests/conftest.py``, shares the naive rule.)  Both monitors evaluate at
the sample a time names within ``signals.TIME_TOL``, use closed windows
widened by it, and raise ``HorizonError`` on a window that holds no
sample or a sample past :func:`_defined_until`.  The index windows pick
the samples the time windows do for every bound on the grid or more than
2*TIME_TOL off it.  Both give NaN wherever a connective's operand or a
window's sample is NaN: ``np.min``/``np.max`` and ``np.minimum``/
``np.maximum`` propagate it, where Python's ``min`` and ``max`` would
drop all but a leading NaN.
"""

from __future__ import annotations

import math

import numpy as np

from .formulas import (
    And, Atom, Eventually, Formula, Globally, Implies, Not, Or,
    TrueFormula, Until, horizon_and_depth, required_horizon,
)
from .signals import TIME_TOL, Signal

__all__ = [
    "robustness", "robustness_naive", "robustness_signal", "HorizonError",
]


class HorizonError(ValueError):
    """Signal too short for the formula's temporal windows."""


def _window_offsets(lo: float, hi: float, h: float) -> tuple[int, int]:
    """Grid-index offsets covered by a time window [lo, hi] on step h,
    widened by ``TIME_TOL`` in time, as :func:`_window` widens it."""
    ia = math.ceil((lo - TIME_TOL) / h)
    ib = math.floor((hi + TIME_TOL) / h)
    if ib < ia:
        raise HorizonError(
            f"window [{lo},{hi}] contains no grid point at step {h}"
        )
    return ia, ib


def _sliding(arr: np.ndarray, ia: int, ib: int, pick: np.ufunc) -> np.ndarray:
    """pick.reduce(arr[i+ia : i+ib+1]) for every i with a full window.

    ``pick`` is ``np.minimum`` or ``np.maximum``; windows run along axis 0,
    so ``arr`` may be (T,) or (T, N).  A sparse table: after the pass for
    p, ``cur[i]`` is the extremum of the p samples from ``arr[ia+i]``, and
    one more binary pick doubles p.  With p the largest power of two <= w
    (w = ib-ia+1), a window of w samples is covered by the run of p at its
    start and the run of p at its end.  The two runs overlap, which is
    harmless because min and max are idempotent, and the result is exact
    because min and max round nothing: every entry is one of the window's
    samples, found in ceil(log2 w) whole-array passes.  When exactly one
    window fits (an outermost F or G spanning the rest of the trace) the
    result is one reduction over it.
    """
    if len(arr) < ib + 1:
        raise HorizonError("trace shorter than temporal window")
    x = arr[ia:]
    w = ib - ia + 1
    n = len(x) - w + 1
    if n == 1:
        return pick.reduce(x, axis=0, keepdims=True)
    cur, p = x, 1
    while 2 * p <= w:
        cur = pick(cur[:-p], cur[p:])
        p *= 2
    if p == w:
        return x.copy() if cur is x else cur  # n samples either way
    return pick(cur[:n], cur[w - p : w - p + n])


def _until(r1: np.ndarray, r2: np.ndarray, ia: int, ib: int) -> np.ndarray:
    """max over d in [ia, ib] of min(r2[i+d], min r1[i..i+d]), for every i.

    Windows run along axis 0 of (T,) or (T, N) arrays.  By monoid
    doubling: a segment of p samples starting at j carries
    m_p[j] = min r1[j..j+p-1] and
    U_p[j] = max over d < p of min(r2[j+d], min r1[j..j+d]),
    and a segment of p followed by one of q composes as
    m = min(m_p[j], m_q[j+p]), U = max(U_p[j], min(m_p[j], U_q[j+p])).
    Starting from single samples at offset ia, U_w with w = ib-ia+1 is
    built from the binary digits of w in O(log w) whole-array passes.  The
    offsets below ia only cap the result with min r1[i..i+ia-1], taken
    from :func:`_sliding`.  Exact, because min and max round nothing and
    distribute over each other.
    """
    m = min(len(r1), len(r2))
    n = m - ib
    if n < 1:
        raise HorizonError("trace shorter than until window")
    w = ib - ia + 1
    seg_m = r1[ia:m]  # segments of p = 1 sample, from offset ia on
    seg_u = np.minimum(r2[ia:m], seg_m)
    a, p = 0, 1  # acc_m, acc_u: the segment of w's low digits, a samples
    while True:
        if w & p:
            if a:
                k = len(seg_u) - a
                acc_u = np.maximum(acc_u[:k], np.minimum(acc_m[:k], seg_u[a:]))
                acc_m = np.minimum(acc_m[:k], seg_m[a:])
            else:
                acc_m, acc_u = seg_m, seg_u
            a += p
        if a == w:
            break
        seg_u = np.maximum(seg_u[:-p], np.minimum(seg_m[:-p], seg_u[p:]))
        seg_m = np.minimum(seg_m[:-p], seg_m[p:])
        p *= 2
    if ia == 0:
        return acc_u
    return np.minimum(_sliding(r1[:m], 0, ia - 1, np.minimum)[:n], acc_u)


def robustness_signal(f: Formula, s: Signal) -> np.ndarray:
    """Robustness of ``f`` at every grid point where it is defined.

    Entry ``i`` is the robustness at ``s.times[i]``, for each sample
    :func:`_defined_until` admits, and ``HorizonError`` where there is none.
    A trace not uniform at a step over the formula's floor: ``ValueError``.
    """
    last, fast = _defined_until(f, s)
    n = int(s.times.searchsorted(last, side="right"))
    if not n:
        raise HorizonError(f"formula needs horizon {required_horizon(f)} (trace ends at {s.t_end})")
    if not fast:
        raise ValueError("signal is not uniformly sampled at a step over the formula's floor")
    return _ev_grid(f, s)[:n]


def _ev_grid(f: Formula, s: Signal) -> np.ndarray:
    """:func:`_ev_signal` at the step of ``s``, a uniform signal, untrimmed."""
    # a single sample has no step; it admits only horizons within TIME_TOL: offsets 0 at step 1
    return _ev_signal(f, s, s.step if s.times.size >= 2 else 1.0)


def _ev_signal(node: Formula, s: Signal, h: float) -> np.ndarray:
    """Robustness of ``node`` at every sample its index windows reach, on
    step ``h``, by the evaluator :data:`_EV_SIGNAL` holds for its type."""
    # module-level functions, not closures over ``s``: a nested recursive
    # function is a reference cycle that would keep ``s`` alive until the next GC
    ev = _EV_SIGNAL.get(type(node))
    if ev is None:
        raise TypeError(f"not a formula node: {node!r}")
    return ev(node, s, h)


def _ev_atom(node: Atom, s: Signal, h: float) -> np.ndarray:
    x = s.samples(node.var)
    return x - node.threshold if node.op == ">=" else node.threshold - x


def _ev_connective(pick: np.ufunc, negate_left: bool):
    def ev(node, s: Signal, h: float) -> np.ndarray:
        a, b = _ev_signal(node.left, s, h), _ev_signal(node.right, s, h)
        if negate_left:
            a = -a
        n = min(len(a), len(b))
        return pick(a[:n], b[:n])
    return ev


def _ev_window(pick: np.ufunc):
    def ev(node, s: Signal, h: float) -> np.ndarray:
        ia, ib = _window_offsets(node.lo, node.hi, h)
        return _sliding(_ev_signal(node.child, s, h), ia, ib, pick)
    return ev


def _ev_until(node: Until, s: Signal, h: float) -> np.ndarray:
    ia, ib = _window_offsets(node.lo, node.hi, h)
    return _until(_ev_signal(node.left, s, h), _ev_signal(node.right, s, h), ia, ib)


# the fast evaluator of each node type
_EV_SIGNAL = {
    TrueFormula: lambda node, s, h: np.full(s.times.size, np.inf),
    Atom: _ev_atom,
    Not: lambda node, s, h: -_ev_signal(node.child, s, h),
    And: _ev_connective(np.minimum, negate_left=False),
    Or: _ev_connective(np.maximum, negate_left=False),
    Implies: _ev_connective(np.maximum, negate_left=True),
    Globally: _ev_window(np.minimum),
    Eventually: _ev_window(np.maximum),
    Until: _ev_until,
}


def _defined_until(f: Formula, s: Signal) -> tuple[float, bool]:
    """The last time at which every monitor evaluates ``f`` on ``s`` (a
    sample t_i qualifies when t_i + required_horizon(f) <= t_end +
    TIME_TOL), and whether the index windows reach every such sample: so
    when ``s`` is one sample, or uniform with a step h over the floor
    (depth + 2)*TIME_TOL, depth the temporal depth of ``f`` from the same
    walk.  At depth 0 the floor is ``Signal.is_uniform``'s own step rule.

    Proof, in exact arithmetic, with e = TIME_TOL and H the horizon.  Write
    the T samples as t_i = t_0 + i*h - d_i: the fitted step makes d_0 =
    d_{T-1} = 0, and the d_i spread by at most e, so d_i <= e.  A window
    [lo, hi] ends floor((hi + e)/h) samples on, so the kernels give the
    first T - B samples, B the largest sum of these on one path, at most
    (H + depth*e)/h.  An admitted t_i has t_i + H <= t_end + e, so the
    j = T-1-i samples after it span j*h = t_end - t_i - d_i >= H - 2e.  Were
    B > j, the integers j < B would lie in [(H - 2e)/h, (H + depth*e)/h],
    shorter than 1.  So i < T - B, and no kernel's input is empty.
    """
    horizon, depth = horizon_and_depth(f)
    fast = s.is_uniform() and (s.times.size < 2 or s.step > (depth + 2) * TIME_TOL)
    return s.t_end + TIME_TOL - horizon, fast


def _start(f: Formula, s: Signal, t: float) -> tuple[int, bool]:
    """The sample every monitor evaluates ``f`` at for time ``t``
    (``OutOfRangeError`` if ``t`` names none), once checked that
    :func:`_defined_until` admits it (``HorizonError``), and whether the
    index windows reach it."""
    i = s.index_of(t)
    last, fast = _defined_until(f, s)
    if s.times[i] > last:
        raise HorizonError(
            f"formula needs horizon {required_horizon(f)} past t={s.times[i]} "
            f"(trace ends at {s.t_end})"
        )
    return i, fast


def robustness(f: Formula, s: Signal, t: float = 0.0) -> float:
    """Quantitative satisfaction degree of ``f`` on ``s`` at time ``t``.

    ``t`` must be a sample point of the trace, else ``OutOfRangeError``.
    Evaluates as :func:`robustness_signal` does, and by the naive
    evaluator on a trace that it refuses.
    """
    i, fast = _start(f, s, t)
    if not fast:
        return robustness_naive(f, s, t)
    return float(_ev_grid(f, s)[i])


def _window(times: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The sample times in [lo, hi], the reference monitors' window rule;
    ``HorizonError`` when there are none."""
    i = np.searchsorted(times, lo - TIME_TOL, side="left")
    j = np.searchsorted(times, hi + TIME_TOL, side="right")
    if i >= j:
        raise HorizonError(f"window [{lo},{hi}] contains no grid point")
    return times[i:j]


def robustness_naive(f: Formula, s: Signal, t: float = 0.0) -> float:
    """Reference monitor: direct recursion over grid-restricted windows, at
    the sample that ``t`` names within ``TIME_TOL`` (else ``OutOfRangeError``)."""
    times = s.times

    def ev(node: Formula, at: float) -> float:
        if isinstance(node, TrueFormula):
            return np.inf
        if isinstance(node, Atom):
            x = s.sample_at(node.var, at)
            return x - node.threshold if node.op == ">=" else node.threshold - x
        if isinstance(node, Not):
            return -ev(node.child, at)
        if isinstance(node, And):
            return np.min([ev(node.left, at), ev(node.right, at)])
        if isinstance(node, Or):
            return np.max([ev(node.left, at), ev(node.right, at)])
        if isinstance(node, Implies):
            return np.max([-ev(node.left, at), ev(node.right, at)])
        if isinstance(node, (Globally, Eventually)):
            pick = np.min if isinstance(node, Globally) else np.max
            return pick([ev(node.child, u) for u in _window(times, at + node.lo, at + node.hi)])
        if isinstance(node, Until):
            return np.max([
                np.min([ev(node.right, u)] + [ev(node.left, v) for v in _window(times, at, u)])
                for u in _window(times, at + node.lo, at + node.hi)
            ])
        raise TypeError(f"not a formula node: {node!r}")

    return float(ev(f, times[_start(f, s, t)[0]]))
