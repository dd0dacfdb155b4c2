"""The worst-case-input lemma of :mod:`gatesynth.worstcase` in the sampled
(RK4) model, for one gate, and for the gates of a circuit as far as the
same argument carries (see "Circuits" below).

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

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.circuit import Circuit
from gatesynth.gates import HIGH, LOW, GateKind, GateParams, Thresholds
from gatesynth.odesim import (
    RK4_MONOTONE_LIMIT, SimConfig, _network_levels, _rk4_step, simulate_circuit, simulate_gate,
)
from gatesynth.worstcase import worst_case

from conftest import thresholds
from test_composition import box_above_one, edge_design, random_circuit

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
def program(draw, level: str, th: Thresholds, h: float, steps: int, anywhere: bool = True):
    """A breakpoint program of 1-5 pieces with levels in the band of
    ``level``; its breakpoints fall on the half-step grid or off it, or,
    if not ``anywhere``, on the step grid only."""
    horizon = steps * h
    if anywhere:
        on_grid = st.integers(1, 2 * steps - 1).map(lambda j: j * h / 2)
        off_grid = st.floats(0.0, horizon, exclude_min=True, exclude_max=True)
        at = st.one_of(on_grid, off_grid)
    else:
        at = st.integers(1, steps).map(lambda j: j * h)
    starts = draw(st.lists(at, max_size=4, unique=True))
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


# Circuits.  A gate reads an upstream gate's RK4 stage values, and with
# z = alpha*h of the upstream gate those are
#
#     s1 = x,  s2 = (1 - z/2)*x + (z/2)*d1,
#     s3 = (1 - z/2 + z^2/4)*x - (z^2/4)*d1 + (z/2)*d2,
#     s4 = (1 - z + z^2/2 - z^3/4)*x + (z^3/4)*d1 - (z^2/2)*d2 + z*d3,
#
# not monotone in the stage drives d1, d2 at any z > 0.  They are monotone
# in x and in a common rise of d1 = d2 = d3 for z <= z*: the coefficients
# become z/2, z/2 - z^2/4 and z - z^2/2 + z^3/4.  A gate that reads only
# external inputs (depth 1) is the one-gate case above.  Where every
# program's breakpoints lie on the step grid, a depth-1 gate's first three
# stage drives read one level, so its stage values are monotone in it, and
# a gate of depth 2 obeys the lemma too.  Deeper gates, and depth 2 with a
# breakpoint inside a step, are outside the argument, and
# test_circuit_lemma_fails_outside_the_argument pins a failure of each.
#
# The comparison is per gate output.  An external input reaches it along
# paths through NOT gates; where all of them pass an even number, a higher
# input never lowers the output in the ODE, where all pass an odd number
# it never raises it.  The worst case holds each such input at the end of
# its band that pushes the output away from its level, as worst_case does
# for one gate; an output that some input reaches with both parities has
# no worst-case constants and is left out.  Both runs start every gate at
# the extreme opposite its expected level.


def parities(c: Circuit, var: str) -> dict[str, set]:
    """Each external input's path parities to ``var``: +1 for an even
    number of NOT gates on a path, -1 for odd; empty without a path."""
    signs = {}
    for u in c.external_inputs:
        parity = {u: {1}}
        for gid in c.topo_order():
            g = c.gates[gid]
            reach = set().union(*(parity.get(v, set()) for v in g.inputs))
            parity[g.output] = reach if g.kind.activating else {-p for p in reach}
        signs[u] = parity.get(var, set())
    return signs


def depth(c: Circuit, var: str) -> int:
    """The most gates on a path from an external input to ``var``."""
    depths = dict.fromkeys(c.external_inputs, 0)
    for gid in c.topo_order():
        g = c.gates[gid]
        depths[g.output] = 1 + max(depths[v] for v in g.inputs)
    return depths[var]


@functools.lru_cache(maxsize=None)
def circuit_and_design(seed: int):
    """A random circuit of test_composition.py and its edge design (None
    when synthesis refuses it)."""
    c = random_circuit(seed)
    return c, (None if box_above_one(c) else edge_design(c, seed))


def band_ends(c: Circuit, combo: dict, var: str) -> dict[str, tuple[float, float]]:
    """Each external input's (worst, favourable) end of its band for
    ``var``'s level in ``combo``."""
    high = _network_levels(c, combo)[var] == HIGH
    ends = {}
    for v, signs in parities(c, var).items():
        th = c.thresholds[v]
        lo, hi = (th.plus, 1.0) if combo[v] == HIGH else (0.0, th.minus)
        ends[v] = (hi, lo) if signs and high != (max(signs) > 0) else (lo, hi)
    return ends


def circuit_gain(c: Circuit, params, combo: dict, var: str, h: float, steps: int,
                 programs: dict):
    """How far ``var`` stays on its level's side of its worst-case trace
    under ``programs``, at every sample: the lemma says >= 0."""
    levels = _network_levels(c, combo)
    high = levels[var] == HIGH
    worst = {v: w for v, (w, _) in band_ends(c, combo, var).items()}
    initial = {g.output: 0.0 if levels[g.output] == HIGH else 1.0 for g in c.gates.values()}

    def run(inputs):
        cfg = SimConfig(horizon=steps * h, step=h, initial=initial, inputs=inputs)
        return simulate_circuit(c, params, cfg).values[var]

    x, x_worst = run(programs), run(worst)
    return x - x_worst if high else x_worst - x


@functools.lru_cache(maxsize=None)
def covered_outputs() -> list[tuple[int, str]]:
    """Every (seed, gate output) of depth <= 2 with one parity per input,
    over the designed random circuits."""
    found = []
    for seed in range(300):
        c, params = circuit_and_design(seed)
        if params is None:
            continue
        for g in c.gates.values():
            if depth(c, g.output) <= 2 and all(len(p) <= 1 for p in parities(c, g.output).values()):
                found.append((seed, g.output))
    return found


@st.composite
def circuit_cases(draw):
    """A gate output that the argument covers, an input combination, a step
    at which every gate has alpha*h <= z*, and a program per input, its
    breakpoints on the step grid unless the output has depth 1."""
    seed, var = draw(st.sampled_from(covered_outputs()))
    c, params = circuit_and_design(seed)
    combo = {v: draw(st.sampled_from((LOW, HIGH))) for v in c.external_inputs}
    z = draw(st.floats(1e-3, RK4_MONOTONE_LIMIT))
    h = z / max(g.alpha for g in params.values())
    steps = draw(st.integers(1, 40))
    anywhere = depth(c, var) == 1
    programs = {v: draw(program(lvl, c.thresholds[v], h, steps, anywhere))
                for v, lvl in combo.items()}
    return c, params, combo, var, h, steps, programs


@settings(max_examples=100, deadline=None)
@given(case=circuit_cases())
def test_circuit_program_inputs_never_beat_the_worst_case(case):
    assert circuit_gain(*case).min() >= -ROUNDING


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(case=circuit_cases())
def test_circuit_program_inputs_never_beat_the_worst_case_sweep(case):
    assert circuit_gain(*case).min() >= -ROUNDING


@pytest.mark.parametrize("seed,var,var_depth,bits,z,steps,mid_step,want", [
    # depth 2, a breakpoint inside each step
    (6, "x1", 2, (HIGH, LOW), 1.0, 2, True, -0.0417),
    # depth 3, constant inputs
    (80, "x5", 3, (LOW, HIGH, LOW), 0.7, 20, False, -8.42e-4),
    # z far below z*: the failure shrinks fast with z but does not vanish
    (238, "x4", 3, (LOW, HIGH, LOW), 0.1, 10, True, -3.69e-10),
])
def test_circuit_lemma_fails_outside_the_argument(seed, var, var_depth, bits, z, steps,
                                                  mid_step, want):
    # each input at the favourable end of its band; with mid_step, back at
    # its worst end from the middle of every step
    c, params = circuit_and_design(seed)
    combo = dict(zip(c.external_inputs, bits))
    h = z / max(g.alpha for g in params.values())
    programs = {
        v: [pt for k in range(steps) for pt in ((k * h, best), (k * h + h / 2, worst))]
        if mid_step else best
        for v, (worst, best) in band_ends(c, combo, var).items()
    }
    assert depth(c, var) == var_depth
    got = circuit_gain(c, params, combo, var, h, steps, programs).min()
    assert got == pytest.approx(want, rel=0.01)
