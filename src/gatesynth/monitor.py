"""Quantitative and boolean STL monitoring over sampled signals.

Robustness follows the standard quantitative semantics: atoms measure the
signed margin to their threshold, boolean connectives map to min/max, and
bounded temporal operators take sup/inf over the signal's sample grid
restricted to their window.  Two monitors are provided:

* :func:`robustness` — array-based monitor; on uniform grids the temporal
  windows become fixed index ranges.  F/G windows use a sparse table
  (Bender & Farach-Colton, LATIN 2000), or a single reduction when only
  one window fits, and Until doubles a two-part segment summary by
  associative composition (the offline counterpart of Donzé, Ferrère &
  Maler, CAV 2013).  Both take O(log w) passes of binary ``np.minimum``/
  ``np.maximum`` over the whole trace, along axis 0 of a (T,) or (T, N)
  array.  They are exact: min and max round nothing, so every result is
  one of the window's own values.  (Where 0.0 and -0.0, or NaNs of both
  signs, meet in a window, which of the equal values comes out follows
  numpy's loops and is not specified.)
* :func:`robustness_naive` — direct recursive evaluation, O(n*w) per
  temporal operator, supporting arbitrary (non-uniform) grids.  Kept as an
  independent reference for differential testing.

Both use closed windows throughout, and both give NaN wherever a
connective's operand or a window's sample is NaN: ``np.min``/``np.max``
and ``np.minimum``/``np.maximum`` propagate it, where Python's ``min``
and ``max`` would drop all but a leading NaN.
"""

from __future__ import annotations

import math

import numpy as np

from .formulas import (
    And, Atom, Eventually, Formula, Globally, Implies, Not, Or,
    TrueFormula, Until, required_horizon,
)
from .signals import Signal

__all__ = [
    "robustness", "robustness_naive", "robustness_signal", "eval_boolean",
    "HorizonError",
]

_TOL = 1e-9


class HorizonError(ValueError):
    """Signal too short for the formula's temporal windows."""


def _window_offsets(lo: float, hi: float, h: float) -> tuple[int, int]:
    """Grid-index offsets covered by a time window [lo, hi] on step h."""
    ia = math.ceil(lo / h - _TOL)
    ib = math.floor(hi / h + _TOL)
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

    Requires a uniformly sampled signal.  Entry ``i`` of the result is the
    robustness at ``s.times[i]``.  The result covers exactly the times t
    that :func:`robustness` and :func:`robustness_naive` accept: those
    with t + ``required_horizon(f)`` <= t_end.
    """
    if s.times.size < 2:
        h = 1.0  # temporal operators will fail the window check anyway
    else:
        h = s.step
    out = _ev_signal(f, s, h)
    # A window whose upper bound is off the grid reaches less than a step
    # past its last sample, so the grid-offset arithmetic above can leave
    # up to one entry per window that needs trace beyond t_end.  Drop them.
    n, need, end = len(out), required_horizon(f), s.t_end + _TOL
    while n and s.times[n - 1] + need > end:
        n -= 1
    return out[:n]


def _ev_signal(node: Formula, s: Signal, h: float) -> np.ndarray:
    # a module-level recursion, not a closure: a nested recursive function
    # is a reference cycle that would keep ``s`` alive until the next GC
    if isinstance(node, TrueFormula):
        return np.full(s.times.size, np.inf)
    if isinstance(node, Atom):
        x = s.samples(node.var)
        return x - node.threshold if node.op == ">=" else node.threshold - x
    if isinstance(node, Not):
        return -_ev_signal(node.child, s, h)
    if isinstance(node, (And, Or, Implies)):
        a, b = _ev_signal(node.left, s, h), _ev_signal(node.right, s, h)
        if isinstance(node, Implies):
            a = -a
        n = min(len(a), len(b))
        pick = np.minimum if isinstance(node, And) else np.maximum
        return pick(a[:n], b[:n])
    if isinstance(node, Globally):
        ia, ib = _window_offsets(node.lo, node.hi, h)
        return _sliding(_ev_signal(node.child, s, h), ia, ib, np.minimum)
    if isinstance(node, Eventually):
        ia, ib = _window_offsets(node.lo, node.hi, h)
        return _sliding(_ev_signal(node.child, s, h), ia, ib, np.maximum)
    if isinstance(node, Until):
        ia, ib = _window_offsets(node.lo, node.hi, h)
        r1, r2 = _ev_signal(node.left, s, h), _ev_signal(node.right, s, h)
        return _until(r1, r2, ia, ib)
    raise TypeError(f"not a formula node: {node!r}")


def _check_horizon(f: Formula, s: Signal, t: float) -> None:
    need = t + required_horizon(f)
    if need > s.t_end + _TOL:
        raise HorizonError(
            f"formula needs horizon {required_horizon(f)} past t={t} "
            f"(trace ends at {s.t_end}, {need} required)"
        )


def robustness(f: Formula, s: Signal, t: float = 0.0) -> float:
    """Quantitative satisfaction degree of ``f`` on ``s`` at time ``t``.

    ``t`` must be a sample point of the trace.  Falls back to the naive
    evaluator on non-uniform grids.
    """
    _check_horizon(f, s, t)
    if not s.is_uniform():
        return robustness_naive(f, s, t)
    i = s.index_of(t)
    arr = robustness_signal(f, s)
    if i >= len(arr):
        raise HorizonError(f"robustness of {f} undefined at t={t}")
    return float(arr[i])


def robustness_naive(f: Formula, s: Signal, t: float = 0.0) -> float:
    """Reference monitor: direct recursion over grid-restricted windows."""
    _check_horizon(f, s, t)
    times = s.times

    def window(lo: float, hi: float) -> np.ndarray:
        i = np.searchsorted(times, lo - _TOL, side="left")
        j = np.searchsorted(times, hi + _TOL, side="right")
        if i >= j:
            raise HorizonError(f"window [{lo},{hi}] contains no grid point")
        return times[i:j]

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
            return pick([ev(node.child, u) for u in window(at + node.lo, at + node.hi)])
        if isinstance(node, Until):
            return np.max([
                np.min([ev(node.right, u)] + [ev(node.left, v) for v in window(at, u)])
                for u in window(at + node.lo, at + node.hi)
            ])
        raise TypeError(f"not a formula node: {node!r}")

    return float(ev(f, t))


def eval_boolean(f: Formula, s: Signal, t: float = 0.0) -> bool:
    """Independent boolean semantics (brute force over the grid).

    Deliberately implemented without reference to the robustness
    computation; used to cross-check the sign of the quantitative monitor.
    """
    _check_horizon(f, s, t)
    times = s.times

    def window(lo: float, hi: float) -> np.ndarray:
        i = np.searchsorted(times, lo - _TOL, side="left")
        j = np.searchsorted(times, hi + _TOL, side="right")
        return times[i:j]

    def ev(node: Formula, at: float) -> bool:
        if isinstance(node, TrueFormula):
            return True
        if isinstance(node, Atom):
            x = s.sample_at(node.var, at)
            return x >= node.threshold if node.op == ">=" else x <= node.threshold
        if isinstance(node, Not):
            return not ev(node.child, at)
        if isinstance(node, And):
            return ev(node.left, at) and ev(node.right, at)
        if isinstance(node, Or):
            return ev(node.left, at) or ev(node.right, at)
        if isinstance(node, Implies):
            return (not ev(node.left, at)) or ev(node.right, at)
        if isinstance(node, Globally):
            return all(ev(node.child, u) for u in window(at + node.lo, at + node.hi))
        if isinstance(node, Eventually):
            return any(ev(node.child, u) for u in window(at + node.lo, at + node.hi))
        if isinstance(node, Until):
            for u in window(at + node.lo, at + node.hi):
                if ev(node.right, u) and all(
                    ev(node.left, v) for v in window(at, u)
                ):
                    return True
            return False
        raise TypeError(f"not a formula node: {node!r}")

    return ev(f, t)
