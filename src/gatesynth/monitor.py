"""Quantitative and boolean STL monitoring over sampled signals.

Robustness follows the standard quantitative semantics: atoms measure the
signed margin to their threshold, boolean connectives map to min/max, and
bounded temporal operators take sup/inf over the signal's sample grid
restricted to their window.  Two monitors are provided:

* :func:`robustness` — array-based monitor; on uniform grids the temporal
  windows become fixed index ranges.  F/G windows use an O(T) block
  prefix/suffix scan (van Herk; Gil & Werman) and Until an O(w) loop over
  window offsets, each step one numpy operation over the whole trace.
* :func:`robustness_naive` — direct recursive evaluation, O(n*w) per
  temporal operator, supporting arbitrary (non-uniform) grids.  Kept as an
  independent reference for differential testing.

Both use closed windows throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulas import (
    And, Atom, Eventually, Formula, Globally, Implies, Not, Or,
    TrueFormula, Until, required_horizon,
)
from .signals import Signal

__all__ = [
    "robustness", "robustness_naive", "robustness_signal", "satisfies",
    "eval_boolean", "SatVerdict", "HorizonError",
]

_TOL = 1e-9


class HorizonError(ValueError):
    """Signal too short for the formula's temporal windows."""


@dataclass(frozen=True)
class SatVerdict:
    """Boolean verdict derived from the sign of the robustness."""

    satisfied: bool
    marginal: bool
    value: float

    def __bool__(self):
        return self.satisfied


def _window_offsets(lo: float, hi: float, h: float) -> tuple[int, int]:
    """Grid-index offsets covered by a time window [lo, hi] on step h."""
    ia = int(np.ceil(lo / h - _TOL))
    ib = int(np.floor(hi / h + _TOL))
    if ib < ia:
        raise HorizonError(
            f"window [{lo},{hi}] contains no grid point at step {h}"
        )
    return ia, ib


def _sliding(arr: np.ndarray, ia: int, ib: int, pick: np.ufunc) -> np.ndarray:
    """pick.reduce(arr[i+ia : i+ib+1]) for every i with a full window.

    ``pick`` is ``np.minimum`` or ``np.maximum``.  ``arr[ia:]`` is cut into
    blocks of w = ib-ia+1 samples; a window starting at i covers the tail
    of its own block and the head of the next, so its extremum is
    pick(suffix[i], prefix[i+w-1]) of the per-block running extrema.
    """
    if len(arr) < ib + 1:
        raise HorizonError("trace shorter than temporal window")
    x = arr[ia:]
    w = ib - ia + 1
    if w == 1:
        return x.copy()
    m = len(x)
    n = m - w + 1
    # pad to whole blocks; no full window reaches the padding
    blocks = np.empty(m + (-m % w))
    blocks[:m] = x
    blocks[m:] = x[-1]
    blocks = blocks.reshape(-1, w)
    prefix = pick.accumulate(blocks, axis=1).ravel()
    suffix = pick.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return pick(suffix[:n], prefix[w - 1 : w - 1 + n])


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
        n = min(len(r1), len(r2)) - ib
        if n < 1:
            raise HorizonError("trace shorter than until window")
        # offset d: run[i] = min r1[i..i+d]; out[i] = max over d >= ia of
        # min(r2[i+d], run[i])
        run = r1[:n].copy()
        out = np.full(n, -np.inf)
        for d in range(ib + 1):
            if d:
                np.minimum(run, r1[d : d + n], out=run)
            if d >= ia:
                np.maximum(out, np.minimum(r2[d : d + n], run), out=out)
        return out
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
            return min(ev(node.left, at), ev(node.right, at))
        if isinstance(node, Or):
            return max(ev(node.left, at), ev(node.right, at))
        if isinstance(node, Implies):
            return max(-ev(node.left, at), ev(node.right, at))
        if isinstance(node, Globally):
            return min(ev(node.child, u) for u in window(at + node.lo, at + node.hi))
        if isinstance(node, Eventually):
            return max(ev(node.child, u) for u in window(at + node.lo, at + node.hi))
        if isinstance(node, Until):
            best = -np.inf
            for u in window(at + node.lo, at + node.hi):
                left_min = min(ev(node.left, v) for v in window(at, u))
                best = max(best, min(ev(node.right, u), left_min))
            return best
        raise TypeError(f"not a formula node: {node!r}")

    return float(ev(f, t))


def satisfies(f: Formula, s: Signal, t: float = 0.0) -> SatVerdict:
    """Boolean verdict from the robustness sign; zero is marked marginal."""
    rho = robustness(f, s, t)
    return SatVerdict(satisfied=rho >= 0.0, marginal=rho == 0.0, value=rho)


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
