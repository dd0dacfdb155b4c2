"""The worst-case-input lemma of :mod:`gatesynth.worstcase` in the sampled
(RK4) model, for one gate and for every gate output of a circuit that each
external input reaches along paths of one parity (see "Circuits" below).

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
from hypothesis import example, given, settings, strategies as st

from gatesynth.circuit import Circuit
from gatesynth.gates import HIGH, LOW, GateKind, GateParams, Thresholds, gate_drive
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
        return _rk4_step(0.0, (1.0, 0.0, 0.0, 0.0), z / h, h)

    for z in (0.5, 1.0, 1.29, 1.3, 2.0):
        assert w1(z) == pytest.approx((z / 6) * (1 - z + z**2 / 2 - z**3 / 4), abs=1e-15)
    assert w1(RK4_MONOTONE_LIMIT * (1 - 1e-6)) > 0 > w1(RK4_MONOTONE_LIMIT * (1 + 1e-6))


@st.composite
def program(draw, level: str, th: Thresholds, h: float, steps: int):
    """A breakpoint program of 1-5 pieces with levels in the band of
    ``level``; its breakpoints fall on the half-step grid or off it."""
    on_grid = st.integers(1, 2 * steps - 1).map(lambda j: j * h / 2)
    off_grid = st.floats(0.0, steps * h, exclude_min=True, exclude_max=True)
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
    # step, then at 0.6, against the constant 0.6, over one RK4 step.  Only
    # the first stage drive differs, so the output moves by w1 times the
    # drive difference: lower below z*, higher above it, on a low row.  So
    # the simulator refuses the step above z*.
    h, th = 0.5, Thresholds(plus=0.6, minus=0.3)
    g = GateParams(GateKind.NOT, n=4, alpha=z / h, hill_k=(0.5,))
    (row,) = [r for r in GateKind.NOT.rows(1.0, 1.0) if r.input_levels == (HIGH,)]
    (level,), x0 = worst_case(GateKind.NOT, row, (th,))
    assert (level, x0) == (0.6, 1.0)

    def step(first):
        drives = [gate_drive(g, (u,)) for u in (first, level, level, level)]
        return _rk4_step(x0, drives, g.alpha, h)

    assert step(1.0) - step(level) == pytest.approx(gain, rel=0.01)

    def end(program):
        cfg = SimConfig(horizon=h, step=h, initial={"x": x0}, inputs={"u": program})
        return simulate_gate(g, cfg).values["x"][-1]

    if z > RK4_MONOTONE_LIMIT:
        with pytest.raises(ValueError, match="exceeds the RK4 monotone limit"):
            end(level)
    else:
        assert end([(0.0, 1.0), (h / 4, level)]) - end(level) == pytest.approx(gain, rel=0.01)


# Circuits.  A gate reads an upstream gate at step k at its samples and
# one half-step value (see the odesim module docstring): x_k at stage 1,
# m_k = (3/4 - z/4)*x_k + x_{k+1}/4 + (z/4)*d1 at stages 2 and 3, with z
# and d1 the upstream gate's, and x_{k+1} at stage 4.  Every weight is >= 0
# for z <= z*, so, by induction over the gates in topological order, the
# lemma's argument carries to every gate output that each external input
# reaches along paths of one parity, at any depth, with breakpoints
# anywhere.  The former coupling read the upstream RK4 stage values, and
# s3 = ... - (z^2/4)*d1 + (z/2)*d2 falls when d1 rises; the @examples of
# the property below are the failures it gave.
#
# The comparison is per gate output.  An external input reaches it along
# paths through NOT gates; where all of them pass an even number, a higher
# input never lowers the output, where all pass an odd number it never
# raises it.  The worst case holds each such input at the end of its band
# that pushes the output away from its level, as worst_case does for one
# gate; an output that some input reaches with both parities has no
# worst-case constants and is left out.  Both runs start every gate at the
# extreme opposite its expected level.


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
    """Every (seed, gate output) with one parity per input, over the
    designed random circuits."""
    found = []
    for seed in range(300):
        c, params = circuit_and_design(seed)
        if params is None:
            continue
        for g in c.gates.values():
            if all(len(p) <= 1 for p in parities(c, g.output).values()):
                found.append((seed, g.output))
    return found


def step_at(z: float, params) -> float:
    """The step at which the fastest gate has alpha*h = z, brought down an
    ulp at a time while the product as rounded exceeds z*: z/alpha*alpha
    can round above z, and at z = z* the simulator refused such a step."""
    alpha = max(g.alpha for g in params.values())
    h = z / alpha
    while alpha * h > RK4_MONOTONE_LIMIT:
        h = np.nextafter(h, 0.0)
    return h


def case_of(seed: int, var: str, bits: tuple, z: float, steps: int, programs):
    """The circuit, design, combination, output, step, step count and input
    programs of a case of the circuit property: ``programs`` maps each
    external input to its program, or is a function of an input's (worst,
    favourable) band ends and the step h that gives it."""
    c, params = circuit_and_design(seed)
    combo = dict(zip(c.external_inputs, bits))
    h = step_at(z, params)
    if callable(programs):
        programs = {v: programs(*ends, h) for v, ends in band_ends(c, combo, var).items()}
    return c, params, combo, var, h, steps, programs


@st.composite
def circuit_cases(draw):
    """The arguments of :func:`case_of` for a gate output that the argument
    covers, an input combination, a step at which every gate has
    alpha*h <= z*, and a program per input with its breakpoints anywhere."""
    seed, var = draw(st.sampled_from(covered_outputs()))
    c, params = circuit_and_design(seed)
    bits = tuple(draw(st.sampled_from((LOW, HIGH))) for _ in c.external_inputs)
    z = draw(st.floats(1e-3, RK4_MONOTONE_LIMIT))
    steps = draw(st.integers(1, 40))
    h = step_at(z, params)
    programs = {v: draw(program(lvl, c.thresholds[v], h, steps))
                for v, lvl in zip(c.external_inputs, bits)}
    return seed, var, bits, z, steps, programs


def mid_step(steps: int):
    """Each input at the favourable end of its band, back at its worst end
    from the middle of every step."""
    return lambda worst, best, h: [pt for k in range(steps)
                                   for pt in ((k * h, best), (k * h + h / 2, worst))]


# the former coupling's failures, with the gain it gave: depth 2 with a
# breakpoint inside each step (-0.0417); depth 3 under constant inputs
# (-8.42e-4); depth 3 at z far below z* (-3.69e-10)
@example(args=(6, "x1", (HIGH, LOW), 1.0, 2, mid_step(2)))
@example(args=(80, "x5", (LOW, HIGH, LOW), 0.7, 20, lambda worst, best, h: best))
@example(args=(238, "x4", (LOW, HIGH, LOW), 0.1, 10, mid_step(10)))
# z* itself, where z/alpha*alpha rounded above z* and the simulator refused
@example(args=(223, "x0", (LOW, LOW), RK4_MONOTONE_LIMIT, 1,
               {"u0": [(0.0, 0.0)], "u1": [(0.0, 0.0)]}))
@settings(max_examples=100, deadline=None)
@given(args=circuit_cases())
def test_circuit_program_inputs_never_beat_the_worst_case(args):
    assert circuit_gain(*case_of(*args)).min() >= -ROUNDING


@settings(max_examples=50, deadline=None)
@given(args=circuit_cases(), data=st.data())
def test_circuit_samples_stay_within_their_bounds(args, data):
    # every sample is a non-negative combination of initial values and
    # drives in [0, 1], so it stays in [0, max(1, x0)], up to rounding
    c, params, _, _, h, steps, programs = case_of(*args)
    initial = {g.output: data.draw(st.floats(0.0, 2.0)) for g in c.gates.values()}
    cfg = SimConfig(horizon=steps * h, step=h, initial=initial, inputs=programs)
    trace = simulate_circuit(c, params, cfg)
    for g in c.gates.values():
        x = trace.values[g.output]
        assert x.min() >= -ROUNDING and x.max() <= max(1.0, initial[g.output]) + ROUNDING


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(args=circuit_cases())
def test_circuit_program_inputs_never_beat_the_worst_case_sweep(args):
    assert circuit_gain(*case_of(*args)).min() >= -ROUNDING
