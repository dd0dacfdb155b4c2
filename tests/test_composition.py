"""The compositional claim on random circuits, under pessimistic inputs.

Every gate is synthesized at the edge of its Method 1 result: n just
above the Hill bound, alpha just above alpha_min, each K at a corner of
its box (cut at K = 1).  Module contracts plus wiring should then give
the network contract: with every external input held at its threshold
plus or minus and every gate output starting at the extreme opposite its
expected level, each network output still reaches and keeps its level.
The consequent is asserted, not the implication: at threshold inputs the
antecedent's robustness is exactly 0, so the row formula would be >= 0
whatever the output did.
"""

import itertools

import numpy as np
import pytest

from gatesynth.circuit import Circuit, Gate, propagate_timing
from gatesynth.gates import (
    HIGH, LOW, ExtendedTruthRow, GateKind, GateParams, Thresholds, row_formula,
)
from gatesynth.monitor import robustness
from gatesynth.odesim import SimConfig, _network_levels, simulate_circuit
from gatesynth.synth import EmptyRegionError, GateContract, gate_regions, n_bound

EDGE = 1 + 1e-6  # n and alpha this factor above their bounds
INSET = 1e-9  # each K this fraction of its box's width inside a corner
# seeds whose circuit has a gate whose Method 1 box lies wholly above
# K = 1 at that n: synthesis refuses them, so they have no design
NO_DESIGN = {7}


def random_thresholds(rng) -> Thresholds:
    minus = rng.uniform(0.05, 0.45)
    plus = rng.uniform(minus + 0.1, 0.85)
    # (1 + p)*plus < 1 holds for every p below 1/plus - 1 > 0.176
    return Thresholds(plus=plus, minus=minus, p=rng.uniform(0.02, min(0.3, 0.999 / plus - 1)))


def random_circuit(seed: int) -> Circuit:
    """2-3 external inputs and 3-7 AND/OR/NOT gates, each reading earlier
    variables; every gate that no gate reads is a network output."""
    rng = np.random.default_rng(seed)
    variables = [f"u{i}" for i in range(int(rng.integers(2, 4)))]
    external = tuple(variables)
    gates = {}
    for j in range(int(rng.integers(3, 8))):
        kind = (GateKind.AND, GateKind.OR, GateKind.NOT)[rng.integers(3)]
        inputs = rng.choice(variables, size=kind.arity, replace=False)
        gates[f"G{j}"] = Gate(f"G{j}", kind, tuple(inputs.tolist()), f"x{j}")
        variables.append(f"x{j}")
    read = {v for g in gates.values() for v in g.inputs}
    return Circuit(
        gates=gates,
        external_inputs=external,
        outputs=tuple((gid, g.output) for gid, g in gates.items() if g.output not in read),
        thresholds={v: random_thresholds(rng) for v in variables},
        delta=float(rng.uniform(4, 20)),
        lam=float(rng.uniform(1, 8)),
    )


def edge_design(c: Circuit, seed: int) -> dict[str, GateParams]:
    """Each gate at n and alpha just above their bounds, K at a random
    corner of its Method 1 box."""
    rng = np.random.default_rng(seed)
    tb = propagate_timing(c)
    params = {}
    for gid in c.topo_order():
        gc = GateContract.of(c, tb, gid)
        n = n_bound(gc.kind, gc.thresholds, "m1") * EDGE
        _, box, _ = gate_regions(gc.kind, gc.thresholds, n, "m1", gid)
        k = []
        for lo, hi in box.intervals.values():
            inset = INSET * (hi - lo)
            k.append(lo + inset if rng.random() < 0.5 else hi - inset)
        params[gid] = GateParams(gc.kind, n=n, alpha=gc.alpha_min * EDGE, hill_k=tuple(k))
    return params


def consequent_margins(c: Circuit, params, program):
    """The consequent robustness of every network output and input
    combination.  ``program(v, level)`` is external input v's program for
    its boolean level; each gate output starts at the extreme opposite
    its expected level."""
    tb = propagate_timing(c)
    delta, lam = tb.network_delta, tb.network_lambda
    margins = {}
    for combo_bits in itertools.product((LOW, HIGH), repeat=len(c.external_inputs)):
        combo = dict(zip(c.external_inputs, combo_bits))
        levels = _network_levels(c, combo)
        cfg = SimConfig(
            horizon=lam + delta,
            initial={g.output: 0.0 if levels[g.output] == HIGH else 1.0
                     for g in c.gates.values()},
            inputs={v: program(v, lvl) for v, lvl in combo.items()},
        )
        trace = simulate_circuit(c, params, cfg)
        for gid, name in c.outputs:
            out = c.gates[gid].output
            row = ExtendedTruthRow(combo_bits, levels[out], delta, lam)
            consequent = row_formula(row, c.external_inputs, out, c.thresholds).right
            margins[",".join(combo_bits), name] = robustness(consequent, trace)
    return margins


def at_threshold(c: Circuit):
    def program(v, level):
        th = c.thresholds[v]
        return th.plus if level == HIGH else th.minus
    return program


@pytest.mark.parametrize("seed", range(50))
def test_network_contract_holds_at_threshold_inputs(seed):
    c = random_circuit(seed)
    if seed in NO_DESIGN:
        with pytest.raises(EmptyRegionError, match="K box lies above K = 1"):
            edge_design(c, seed)
        return
    margins = consequent_margins(c, edge_design(c, seed), at_threshold(c))
    assert min(margins.values()) >= 0.0, {k: m for k, m in margins.items() if m < 0}


def test_network_contract_holds_under_breakpoint_inputs():
    # each input moves within its admissible side on and off the step
    # grid: between plus and 1 when high, between minus and 0 when low
    c = random_circuit(0)
    hold = propagate_timing(c).input_hold

    def program(v, level):
        th = c.thresholds[v]
        near, far = (th.plus, 1.0) if level == HIGH else (th.minus, 0.0)
        return [(0.0, near), (0.2 * hold, far), (0.5 * hold + 0.003, near),
                (0.7 * hold, far), (0.9 * hold + 0.0071, near)]

    margins = consequent_margins(c, edge_design(c, 0), program)
    assert min(margins.values()) >= 0.0, {k: m for k, m in margins.items() if m < 0}
