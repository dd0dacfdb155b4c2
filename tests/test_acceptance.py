"""Acceptance suite: one test per criterion, printing a pass/fail line.

Tolerances: golden values 5e-4; region soundness robustness floor -1e-3;
monitor differential max difference exactly 0; integrator fidelity 1e-6.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from gatesynth.circuit import Circuit, propagate_timing
from gatesynth.gates import (
    ExtendedTruthRow, GateKind, GateParams, Thresholds, closed_form,
    gate_drive,
)
from gatesynth.monitor import (
    HorizonError, eval_boolean, robustness, robustness_naive,
)
from gatesynth.odesim import SimConfig, simulate_constant_drive, simulate_gate, verify
from gatesynth.formulas import parse
from gatesynth.synth import (
    CurvedRegion, alpha_bound, k_box, n_bound, synthesize_circuit,
    worst_case_output_robustness,
)

from conftest import random_formula, random_signal

TH_23 = Thresholds(plus=2 / 3, minus=1 / 3, p=0.1)
TH_34 = Thresholds(plus=3 / 4, minus=1 / 4, p=0.1)
GOLDEN_TOL = 5e-4


@contextmanager
def criterion(num, title):
    try:
        yield
    except Exception:
        print(f"CRITERION {num} ({title}): FAIL")
        raise
    print(f"CRITERION {num} ({title}): PASS")


def test_criterion_1_golden_numbers():
    with criterion(1, "golden number suite"):
        AND, NOT, OR = GateKind.AND, GateKind.NOT, GateKind.OR
        assert n_bound(AND, (TH_23,) * 3, "m1") == pytest.approx(3.798, abs=GOLDEN_TOL)
        assert n_bound(AND, (TH_34,) * 3, "m1") == pytest.approx(3.2129, abs=GOLDEN_TOL)
        assert n_bound(AND, (TH_23,) * 3, "m2") == pytest.approx(2.6818, abs=GOLDEN_TOL)

        box = k_box(AND, (TH_23,) * 3, 4)
        assert box.intervals["K1"] == pytest.approx((0.4120, 0.4267), abs=GOLDEN_TOL)
        box = k_box(AND, (TH_34,) * 3, 4)
        assert box.intervals["K1"] == pytest.approx((0.3406, 0.4228), abs=GOLDEN_TOL)

        nb, box = n_bound(NOT, (TH_34,) * 2, "m1"), k_box(NOT, (TH_34,) * 2, 3)
        assert nb == pytest.approx(2.5372, abs=GOLDEN_TOL)
        assert box.intervals["K1"] == pytest.approx((0.4192, 0.4966), abs=GOLDEN_TOL)

        nb, box = n_bound(OR, (TH_34,) * 3, "m1"), k_box(OR, (TH_34,) * 3, 4)
        assert nb == pytest.approx(3.1681, abs=GOLDEN_TOL)
        assert box.intervals["K1"] == pytest.approx((0.4050, 0.5090), abs=GOLDEN_TOL)

        assert alpha_bound(TH_34, 12.0) == pytest.approx(0.3074, abs=GOLDEN_TOL)
        assert alpha_bound(TH_34, 4.0) == pytest.approx(0.9222, abs=GOLDEN_TOL)


def test_criterion_2_timing_propagation():
    with criterion(2, "timing propagation"):
        c = Circuit.from_json("circuits/half_adder.json")
        tb = propagate_timing(c)
        for gid in ("D", "F", "E", "G", "S"):
            assert tb.delta[gid] == pytest.approx(4.0)
        assert tb.delta["C"] == pytest.approx(12.0)

        # XOR sub-network analysis with symbolic delta/lambda ratios
        xor = Circuit(
            gates={gid: g for gid, g in c.gates.items() if gid != "C"},
            external_inputs=c.external_inputs,
            outputs=(("S", "out"),),
            thresholds=c.thresholds,
            delta=c.delta,
            lam=c.lam,
        )
        xtb = propagate_timing(xor)
        delta, lam = c.delta, c.lam
        for gid in ("E", "G"):
            assert xtb.delta[gid] == pytest.approx(delta / 3)
            assert xtb.lam[gid] == pytest.approx(lam + delta / 3)
        for gid in ("D", "F"):
            assert xtb.lam[gid] == pytest.approx(lam + 2 * delta / 3)
        assert xtb.input_hold == pytest.approx(lam + delta)


def test_criterion_3_end_to_end_half_adder():
    with criterion(3, "end-to-end half-adder verification"):
        start = time.time()
        c = Circuit.from_json("circuits/half_adder.json")
        tb = propagate_timing(c)
        res = synthesize_circuit(c, tb, method="m1")
        params = {
            gid: GateParams(
                kind=s.kind, n=s.n, alpha=1.05 * s.alpha_min,
                hill_k=tuple((lo + hi) / 2 for lo, hi in s.box.intervals.values()),
            )
            for gid, s in res.gates.items()
        }
        report = verify(c, params, tb, step=0.01)
        assert len(report.entries) == 8
        for e in report.entries:
            assert e.robustness >= 0.0, (e.combo, e.output, e.robustness)
        assert time.time() - start < 30.0


def test_criterion_4_region_soundness():
    with criterion(4, "region soundness and containment"):
        delta, lam = 4.0, 4.0
        for th in (TH_23, TH_34):
            alpha = alpha_bound(th, delta)
            for kind in (GateKind.AND, GateKind.OR):
                region = CurvedRegion(kind, (th, th, th), 4)
                box = k_box(kind, (th, th, th), 4)
                # one 50x50 grid over the whole K domain and one zoomed
                # around the Method 1 box, for dense interior coverage
                lo = min(v[0] for v in box.intervals.values())
                hi = max(v[1] for v in box.intervals.values())
                grids = [
                    np.linspace(0.02, 1.0, 50),
                    np.linspace(max(lo - 0.06, 0.02), hi + 0.06, 50),
                ]
                inside = []
                for grid in grids:
                    for k1 in grid:
                        for k2 in grid:
                            in_region = region.contains((k1, k2))
                            if in_region:
                                inside.append((k1, k2))
                            # Method 1 box inside Method 2 region, always
                            if box.contains({"K1": k1, "K2": k2}):
                                assert in_region, (kind, th.plus, k1, k2)
                assert len(inside) > 50, "too few interior grid points"
                pts = np.array(inside)
                for levels in ((("high", "high")), ("high", "low"),
                               ("low", "high"), ("low", "low")):
                    row = ExtendedTruthRow(
                        levels, kind.output_level(levels), delta, lam)
                    rhos = worst_case_output_robustness(
                        kind, row, (th, th), th, pts, 4, alpha, step=0.01)
                    worst = float(rhos.min())
                    assert worst >= -1e-3, (kind, th.plus, levels, worst)


def test_criterion_5_monitor_correctness(rng):
    with criterion(5, "STL monitor correctness"):
        checked = 0
        max_diff = 0.0
        while checked < 500:
            s = random_signal(rng)
            f = random_formula(rng, depth=3, max_hi=1.2)
            try:
                fast = robustness(f, s)
                naive = robustness_naive(f, s)
            except HorizonError:
                continue
            max_diff = max(max_diff, abs(fast - naive))
            if fast != 0.0 and np.isfinite(fast):
                assert (fast > 0) == eval_boolean(f, s)
            checked += 1
        assert max_diff == 0.0

        # wiring-compatibility formula is a tautology on the grid
        lam, delta = 1.2, 0.4
        f = parse(
            f"F[0,{delta}] G[0,{lam + delta}] (x >= 0.6) "
            f"-> G[{delta},{delta + lam}] (x >= 0.6)"
        )
        for _ in range(1000):
            s = random_signal(rng, n=30, h=0.1)
            assert robustness(f, s) >= 0.0


def test_criterion_6_integrator_fidelity():
    with criterion(6, "integrator fidelity"):
        g = GateParams(GateKind.AND, n=4, alpha=0.9222, hill_k=(0.40, 0.40))
        cfg = SimConfig(horizon=16.0, step=0.01)
        s = simulate_gate(g, (0.75, 0.75), x0=0.0, cfg=cfg)
        drive = gate_drive(g, (0.75, 0.75))
        exact = closed_form(drive, g.alpha, 0.0, s.times)
        assert np.max(np.abs(s.values["x"] - exact)) < 1e-6

        full = simulate_constant_drive(np.array([drive]), g.alpha,
                                       np.array([0.0]), 0.01, 1600)
        half = simulate_constant_drive(np.array([drive]), g.alpha,
                                       np.array([0.0]), 0.005, 3200)
        assert np.max(np.abs(full[:, 0] - half[::2, 0])) < 1e-6
