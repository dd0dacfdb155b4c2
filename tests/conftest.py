"""Shared random generators and the boolean oracle for monitor
differential tests, and the hypothesis strategy for gate thresholds."""

import numpy as np
import pytest
from hypothesis import strategies as st

from gatesynth.formulas import (
    And, Atom, Eventually, Globally, Implies, Not, Or, TrueFormula, Until,
)
from gatesynth.gates import Thresholds
from gatesynth.monitor import _start, _window
from gatesynth.signals import Signal

VARS = ("x", "y")


def random_signal(rng, n=60, h=0.1):
    """Random-walk trace on a uniform grid, values roughly in [0, 1]."""
    times = np.arange(n) * h
    values = {}
    for v in VARS:
        steps = rng.normal(0.0, 0.15, size=n)
        w = np.clip(np.cumsum(steps) + rng.uniform(0.2, 0.8), -0.2, 1.2)
        values[v] = w
    return Signal(times=times, values=values)


def random_formula(rng, depth=3, max_hi=2.0):
    """Random STL formula whose horizon stays within depth * max_hi."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return TrueFormula()
        return Atom(
            rng.choice(VARS),
            rng.choice([">=", "<="]),
            float(rng.uniform(0.0, 1.0)),
        )
    kind = rng.choice(["not", "and", "or", "implies", "F", "G", "U"])
    if kind == "not":
        return Not(random_formula(rng, depth - 1, max_hi))
    if kind in ("and", "or", "implies"):
        a = random_formula(rng, depth - 1, max_hi)
        b = random_formula(rng, depth - 1, max_hi)
        return {"and": And, "or": Or, "implies": Implies}[kind](a, b)
    lo = float(rng.uniform(0.0, max_hi / 2))
    hi = lo + float(rng.uniform(0.1, max_hi / 2))
    if kind == "U":
        return Until(lo, hi, random_formula(rng, depth - 1, max_hi),
                     random_formula(rng, depth - 1, max_hi))
    op = Eventually if kind == "F" else Globally
    return op(lo, hi, random_formula(rng, depth - 1, max_hi))


def eval_boolean(f, s, t=0.0) -> bool:
    """Independent boolean semantics (brute force over the grid).

    Deliberately implemented without reference to the robustness
    computation; used to cross-check the sign of the quantitative monitor.
    It evaluates every operand and every window, with no short cut, at the
    times ``robustness_naive`` does, so it raises ``HorizonError`` on the
    same formulas, and at the same sample: the one ``t`` names, within
    ``TIME_TOL``.
    """
    times = s.times

    def ev(node, at: float) -> bool:
        if isinstance(node, TrueFormula):
            return True
        if isinstance(node, Atom):
            x = s.sample_at(node.var, at)
            return x >= node.threshold if node.op == ">=" else x <= node.threshold
        if isinstance(node, Not):
            return not ev(node.child, at)
        if isinstance(node, And):
            return all([ev(node.left, at), ev(node.right, at)])
        if isinstance(node, Or):
            return any([ev(node.left, at), ev(node.right, at)])
        if isinstance(node, Implies):
            return any([not ev(node.left, at), ev(node.right, at)])
        if isinstance(node, (Globally, Eventually)):
            pick = all if isinstance(node, Globally) else any
            return pick([ev(node.child, u) for u in _window(times, at + node.lo, at + node.hi)])
        if isinstance(node, Until):
            return any([
                all([ev(node.right, u)] + [ev(node.left, v) for v in _window(times, at, u)])
                for u in _window(times, at + node.lo, at + node.hi)
            ])
        raise TypeError(f"not a formula node: {node!r}")

    return ev(f, times[_start(f, s, t)[0]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@st.composite
def thresholds(draw):
    """Valid thresholds with plus at least 1.25 times minus."""
    minus = draw(st.floats(0.05, 0.45))
    p = draw(st.floats(0.01, 0.25))
    plus = draw(st.floats(1.25 * minus, 0.95 / (1 + p)))
    return Thresholds(plus=plus, minus=minus, p=p)
