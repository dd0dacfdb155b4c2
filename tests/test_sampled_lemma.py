"""The worst-case-input lemma of :mod:`gatesynth.worstcase` in the sampled
(RK4) model, for one gate.

The lemma: if a truth-table row holds under its worst-case constant
inputs and the pessimistic initial output, it holds under every input
trace that meets the row's antecedent.  For the ODE this is the
comparison principle of a monotone system.  The simulator takes fixed
RK4 steps, and there it needs a bound on z = alpha*h.

One RK4 step of dx/dt = alpha*(d(t) - x) from x, with stage drives
d1..d4 read at t, t + h/2, t + h/2 and t + h, is

    k1 = alpha*(d1 - x)
    k2 = alpha*(d2 - x - (h/2)*k1)
    k3 = alpha*(d3 - x - (h/2)*k2)
    k4 = alpha*(d4 - x - h*k3)
    x' = x + (h/6)*(k1 + 2*k2 + 2*k3 + k4)
       = A*x + w1*d1 + w2*d2 + w3*d3 + w4*d4.

d1 enters k1 with weight alpha, k2 with -alpha*z/2, k3 with alpha*z^2/4
and k4 with -alpha*z^3/4, so

    w1 = (z/6)*(1 - z + z^2/2 - z^3/4),
    w2 = (z/6)*(2 - z + z^2/2),  w3 = (z/6)*(2 - z),  w4 = z/6,
    A  = 1 - z + z^2/2 - z^3/6 + z^4/24.

A, w2 and w4 are positive for every z > 0, and w3 below z = 2.  w1 is
zero where 1 - z + z^2/2 - z^3/4 = 0, that is, times -4, at the real root
of z^3 - 2z^2 + 4z - 4, z* = 1.2955977425220846 (the other two roots are
complex); it is positive below z* and negative above.  So for
0 < z <= z* one step is nondecreasing in x and in each stage drive.  A
gate's drive is monotone in each input and does not read the gate's own
output.  By induction over the steps, inputs that stay on the favourable
side of the worst-case constants, started from an initial output on the
favourable side of the pessimistic one, give a trace that stays on the
row's side of the worst-case trace at every sample: at or above it on a
high row, at or below it on a low one.  Above z* a higher input at a
step's start can leave the output further from its level, and the lemma
fails in the sampled model.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.gates import HIGH, GateKind, GateParams, Thresholds
from gatesynth.odesim import RK4_MONOTONE_LIMIT, SimConfig, _rk4_step, simulate_gate
from gatesynth.worstcase import worst_case

from conftest import thresholds

STEPS = (0.01, 0.1, 0.5)
# The exact RK4 traces are ordered; the computed ones may cross by rounding
# where the exact gain is within an ulp or two of 0 (at z = z*, where
# w1 = 0, or where a drive saturates).  The largest crossing in 50,000
# random cases, 25,000 of them at z = z*, was 2.2e-16, two ulps of a level in [0.5, 1).
ROUNDING = 4 * np.finfo(float).eps


def test_z_star_is_the_real_root():
    roots = np.roots([1.0, -2.0, 4.0, -4.0])
    (real,) = roots[np.abs(roots.imag) < 1e-12].real
    assert real == pytest.approx(RK4_MONOTONE_LIMIT, rel=1e-15)


@pytest.mark.parametrize("h", STEPS)
def test_w1_changes_sign_at_z_star(h):
    def w1(z):
        # the step from x = 0 under a unit drive at the first stage only
        return _rk4_step(0.0, (1.0, 0.0, 0.0, 0.0), z / h, h)[0]

    for z in (0.5, 1.0, 1.29, 1.3, 2.0):
        assert w1(z) == pytest.approx((z / 6) * (1 - z + z**2 / 2 - z**3 / 4), abs=1e-15)
    assert w1(RK4_MONOTONE_LIMIT * (1 - 1e-6)) > 0 > w1(RK4_MONOTONE_LIMIT * (1 + 1e-6))


@st.composite
def program(draw, level: str, th: Thresholds, h: float, steps: int):
    """A breakpoint program of 1-5 pieces with levels in the band of
    ``level``; its breakpoints fall on the half-step grid or off it."""
    horizon = steps * h
    on_grid = st.integers(1, 2 * steps - 1).map(lambda j: j * h / 2)
    off_grid = st.floats(0.0, horizon, exclude_min=True, exclude_max=True)
    starts = draw(st.lists(st.one_of(on_grid, off_grid), max_size=4, unique=True))
    lo, hi = (th.plus, 1.0) if level == HIGH else (0.0, th.minus)
    return [(t, draw(st.floats(lo, hi))) for t in [0.0, *sorted(starts)]]


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(list(GateKind)))
    row = draw(st.sampled_from(kind.rows(1.0, 1.0)))
    ths = tuple(draw(thresholds()) for _ in range(kind.arity))
    ks = tuple(draw(st.floats(0.05, 1.0, exclude_min=True)) for _ in range(kind.arity))
    h = draw(st.sampled_from(STEPS))
    z = draw(st.floats(0.0, RK4_MONOTONE_LIMIT, exclude_min=True))
    steps = draw(st.integers(1, 40))
    g = GateParams(kind, n=draw(st.floats(1.0, 8.0)), alpha=z / h, hill_k=ks)
    programs = [draw(program(lvl, th, h, steps)) for lvl, th in zip(row.input_levels, ths)]
    return g, row, ths, h, steps, programs, draw(st.floats(0.0, 1.0))


def check_lemma(case):
    g, row, ths, h, steps, programs, x0 = case
    names = ("u1", "u2")[: g.kind.arity]
    levels, x0_worst = worst_case(g.kind, row, ths)

    def run(inputs, x0):
        cfg = SimConfig(horizon=steps * h, step=h, initial={"x": x0},
                        inputs=dict(zip(names, inputs)))
        return simulate_gate(g, cfg).values["x"]

    x, x_worst = run(programs, x0), run(levels, x0_worst)
    gain = x - x_worst if row.output_level == HIGH else x_worst - x
    assert gain.min() >= -ROUNDING


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_program_inputs_never_beat_the_worst_case(case):
    check_lemma(case)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(case=cases())
def test_program_inputs_never_beat_the_worst_case_sweep(case):
    check_lemma(case)


@pytest.mark.parametrize("z,gain", [(1.29, -3.08e-4), (1.30, 2.45e-4)])
def test_lemma_fails_just_above_z_star(z, gain):
    # NOT, input high with band [0.6, 1]: held at 1 for the first quarter
    # step, then at 0.6, against the constant 0.6, over one step.  Only the
    # first stage drive differs, so the output moves by w1 times the drive
    # difference: lower below z*, higher above it, on a low row.
    h, th = 0.5, Thresholds(plus=0.6, minus=0.3)
    g = GateParams(GateKind.NOT, n=4, alpha=z / h, hill_k=(0.5,))
    (row,) = [r for r in GateKind.NOT.rows(1.0, 1.0) if r.input_levels == (HIGH,)]
    (level,), x0 = worst_case(GateKind.NOT, row, (th,))
    assert (level, x0) == (0.6, 1.0)

    def end(program):
        cfg = SimConfig(horizon=h, step=h, initial={"x": x0}, inputs={"u": program})
        return simulate_gate(g, cfg).values["x"][-1]

    assert end([(0.0, 1.0), (h / 4, level)]) - end(level) == pytest.approx(gain, rel=0.01)
