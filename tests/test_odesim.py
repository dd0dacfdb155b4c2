import numpy as np
import pytest

from gatesynth.circuit import Circuit, Gate, propagate_timing
from gatesynth.gates import (
    GateKind, GateParams, Thresholds, closed_form, gate_drive,
)
from gatesynth.monitor import robustness
from gatesynth.odesim import (
    SimConfig, schedule_value, simulate_circuit, simulate_constant_drive,
    simulate_gate, verify,
)
from gatesynth.synth import alpha_bound, synthesize_circuit

TH = Thresholds(plus=0.75, minus=0.25, p=0.1)


def and_gate(alpha=0.9222, k=(0.40, 0.40), n=4):
    return GateParams(GateKind.AND, n=n, alpha=alpha, hill_k=k)


class TestScheduleValue:
    def test_constant(self):
        assert schedule_value(0.7, 3.0) == 0.7

    def test_piecewise(self):
        sched = [(0.0, 0.1), (2.0, 0.9)]
        assert schedule_value(sched, 1.99) == 0.1
        assert schedule_value(sched, 2.0) == 0.9
        assert schedule_value(sched, 5.0) == 0.9


class TestSimulateGate:
    def test_matches_closed_form(self):
        g = and_gate()
        cfg = SimConfig(horizon=16.0, step=0.01)
        s = simulate_gate(g, (0.75, 0.75), x0=0.0, cfg=cfg)
        drive = gate_drive(g, (0.75, 0.75))
        exact = closed_form(drive, g.alpha, 0.0, s.times)
        assert np.max(np.abs(s.values["x"] - exact)) < 1e-6

    def test_crosses_threshold_before_delta(self):
        cfg = SimConfig(horizon=16.0, step=0.01)
        s = simulate_gate(and_gate(), (0.75, 0.75), x0=0.0, cfg=cfg)
        assert s.sample_at("x", 4.0) >= 0.75

    def test_equilibrium_is_constant(self):
        g = and_gate()
        drive = gate_drive(g, (0.75, 0.75))
        cfg = SimConfig(horizon=5.0, step=0.01)
        s = simulate_gate(g, (0.75, 0.75), x0=drive, cfg=cfg)
        assert np.max(np.abs(s.values["x"] - drive)) < 1e-9

    def test_fast_relaxation(self):
        g = and_gate(alpha=100.0)
        drive = gate_drive(g, (0.75, 0.75))
        cfg = SimConfig(horizon=0.5, step=0.001)
        s = simulate_gate(g, (0.75, 0.75), x0=0.0, cfg=cfg)
        assert abs(s.sample_at("x", 0.1) - drive) < 1e-3

    def test_inputs_in_trace(self):
        cfg = SimConfig(horizon=1.0, step=0.1)
        s = simulate_gate(and_gate(), (0.6, 0.7), x0=0.0, cfg=cfg)
        assert np.all(s.values["u1"] == 0.6) and np.all(s.values["u2"] == 0.7)


class TestIntegrator:
    def test_step_halving(self):
        g = and_gate(alpha=0.9222)
        drive = gate_drive(g, (0.75, 0.75))
        n = 1600
        full = simulate_constant_drive(np.array([drive]), g.alpha,
                                       np.array([0.0]), 0.01, n)
        half = simulate_constant_drive(np.array([drive]), g.alpha,
                                       np.array([0.0]), 0.005, 2 * n)
        assert np.max(np.abs(full[:, 0] - half[::2, 0])) < 1e-6

    def test_vectorised_batch(self):
        drives = np.array([0.2, 0.5, 0.9])
        out = simulate_constant_drive(drives, 1.0, np.zeros(3), 0.01, 100)
        assert out.shape == (101, 3)
        for j, d in enumerate(drives):
            exact = closed_form(d, 1.0, 0.0, np.arange(101) * 0.01)
            assert np.max(np.abs(out[:, j] - exact)) < 1e-9

    def test_stages_bitwise(self):
        # the classic RK4 stage order with f(y) = alpha * (drive - y)
        drive, alpha, h = np.array([0.1, 0.55, 0.97]), 1.7, 0.01
        f = lambda y: alpha * (drive - y)
        x = np.array([1.0, 0.0, 0.3])
        want = [x]
        for _ in range(250):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            want.append(x)
        out = simulate_constant_drive(drive, alpha, want[0], h, 250)
        assert np.array_equal(out, np.array(want))

    def test_determinism(self):
        g = and_gate()
        cfg = SimConfig(horizon=8.0, step=0.01)
        a = simulate_gate(g, (0.7, 0.7), 0.1, cfg)
        b = simulate_gate(g, (0.7, 0.7), 0.1, cfg)
        assert np.array_equal(a.values["x"], b.values["x"])


@pytest.fixture(scope="module")
def half_adder():
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
    return c, tb, params


class TestSimulateCircuit:
    def test_both_high_gives_carry(self, half_adder):
        c, tb, params = half_adder
        cfg = SimConfig(horizon=16.0, step=0.01, inputs={"A": 1.0, "B": 1.0})
        s = simulate_circuit(c, params, cfg)
        assert s.sample_at("xC", 16.0) >= 0.75  # carry high
        assert s.sample_at("xS", 16.0) <= 0.25  # sum low

    def test_both_low_all_quiet(self, half_adder):
        c, tb, params = half_adder
        cfg = SimConfig(horizon=16.0, step=0.01, inputs={"A": 0.0, "B": 0.0})
        s = simulate_circuit(c, params, cfg)
        assert s.sample_at("xS", 16.0) <= 0.25
        assert s.sample_at("xC", 16.0) <= 0.25

    def test_bounded_trajectories(self, half_adder):
        c, tb, params = half_adder
        cfg = SimConfig(horizon=16.0, step=0.01, inputs={"A": 1.0, "B": 0.0},
                        initial={"xD": 1.0, "xF": 1.0})
        s = simulate_circuit(c, params, cfg)
        for v in ("xD", "xE", "xF", "xG", "xS", "xC"):
            assert np.all(s.values[v] >= -1e-9)
            assert np.all(s.values[v] <= 1 + 1e-9)

    def test_monotone_dominance(self):
        th = {"u1": TH, "u2": TH, "x": TH}
        c = Circuit(
            gates={"M": Gate("M", GateKind.AND, ("u1", "u2"), "x")},
            external_inputs=("u1", "u2"),
            outputs=(("M", "out"),),
            thresholds=th, delta=4.0, lam=4.0,
        )
        params = {"M": and_gate()}
        hi = {"u1": [(0.0, 0.9), (3.0, 0.8)], "u2": 0.9}
        lo = {"u1": [(0.0, 0.5), (3.0, 0.4)], "u2": 0.6}
        cfg_hi = SimConfig(horizon=8.0, step=0.01, inputs=hi)
        cfg_lo = SimConfig(horizon=8.0, step=0.01, inputs=lo)
        a = simulate_circuit(c, params, cfg_hi).values["x"]
        b = simulate_circuit(c, params, cfg_lo).values["x"]
        assert np.all(a >= b - 1e-9)

    def test_missing_params_rejected(self, half_adder):
        c, tb, params = half_adder
        partial = {k: v for k, v in params.items() if k != "S"}
        cfg = SimConfig(horizon=4.0, step=0.01, inputs={"A": 0.0, "B": 0.0})
        with pytest.raises(ValueError, match="S"):
            simulate_circuit(c, partial, cfg)


class TestVerify:
    def test_half_adder_all_pass(self, half_adder):
        c, tb, params = half_adder
        report = verify(c, params, tb)
        assert len(report.entries) == 8
        assert report.all_pass
        assert all(e.robustness >= 0 for e in report.entries)

    def test_broken_carry_alpha_fails(self, half_adder):
        c, tb, params = half_adder
        broken = dict(params)
        broken["C"] = GateParams(GateKind.AND, n=4, alpha=0.06,
                                 hill_k=params["C"].hill_k)
        report = verify(c, broken, tb)
        fails = report.failures()
        assert fails, "slow carry gate must violate its timing contract"
        assert any(e.output == "carry" and e.expected == "high" for e in fails)

    def test_single_gate_consistent_with_simulate_gate(self):
        th = {"u1": TH, "u2": TH, "x": TH}
        c = Circuit(
            gates={"M": Gate("M", GateKind.AND, ("u1", "u2"), "x")},
            external_inputs=("u1", "u2"),
            outputs=(("M", "out"),),
            thresholds=th, delta=4.0, lam=4.0,
        )
        params = {"M": and_gate()}
        tb = propagate_timing(c)
        report = verify(c, params, tb)
        # cross-check the (high, high) row against a direct single-gate run
        entry = [e for e in report.entries
                 if e.combo == {"u1": "high", "u2": "high"}][0]
        cfg = SimConfig(horizon=8.0, step=0.01)
        s = simulate_gate(params["M"], (1.0, 1.0), 0.0, cfg,
                          input_vars=("u1", "u2"), output_var="x")
        assert entry.robustness == pytest.approx(
            robustness(entry.formula, s), abs=1e-9
        )
