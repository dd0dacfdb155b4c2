import dataclasses
import decimal
import itertools
import weakref
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gatesynth import odesim
from gatesynth.circuit import Circuit, Gate, propagate_timing
from gatesynth.gates import (
    GateKind, GateParams, Thresholds, closed_form, gate_drive, gate_drives,
)
from gatesynth.formulas import parse
from gatesynth.monitor import robustness, robustness_naive
from gatesynth.odesim import (
    RK4_MONOTONE_LIMIT, SimConfig, simulate_circuit,
    simulate_constant_drive, simulate_gate, time_grid, verify, verify_combos,
)
from gatesynth.signals import TIME_TOL
from gatesynth.synth import alpha_bound, synthesize_circuit

TH = Thresholds(plus=0.75, minus=0.25, p=0.1)
BENCH = Path(__file__).resolve().parent.parent / "bench"
# the simulators' contract with the classic stage-by-stage RK4 loop, whose
# rounding their affine closed form and scan do not reproduce bit for bit
TOL = 1e-12


def and_gate(alpha=0.9222, k=(0.40, 0.40), n=4):
    return GateParams(GateKind.AND, n=n, alpha=alpha, hill_k=k)


def _scan_level(schedule, t):
    """A linear scan over an input program, kept as an oracle independent
    of the simulator's ``searchsorted`` lookup: a level holds from t0 - TIME_TOL."""
    if isinstance(schedule, (int, float)):
        return float(schedule)
    value = None
    for t0, lvl in schedule:
        if t >= t0 - TIME_TOL:
            value = lvl
        else:
            break
    return float(value)


# slow enough that alpha*step stays below the RK4 monotone limit at every step used here
SLOW_NOT = GateParams(GateKind.NOT, n=2, alpha=1e-3, hill_k=(0.5,))


def level_at(program, t):
    """The level ``simulate_gate`` reads from ``program`` at time t >= 0: a
    one-step run of horizon and step t samples it at t, and t = 0 is the
    first sample of any run."""
    s = simulate_gate(SLOW_NOT, SimConfig(horizon=t or 1.0, step=t or 1.0, inputs={"u": program}))
    return s.values["u"][1 if t else 0]


class TestScheduleValue:
    """Levels of an input program as the simulator reads them."""

    def test_constant(self):
        s = simulate_gate(SLOW_NOT, SimConfig(horizon=3.0, step=0.5, inputs={"u": 0.7}))
        assert s.values["u"].tolist() == [0.7] * 7
        assert level_at(np.int64(2), 0.3) == 2.0

    def test_piecewise(self):
        sched = [(0.0, 0.1), (2.0, 0.9)]
        assert level_at(sched, 1.99) == 0.1
        assert level_at(sched, 2.0) == 0.9
        assert level_at(sched, 5.0) == 0.9

    def test_breakpoint_tolerance(self):
        sched = [(0.0, 0.1), (0.3, 0.9)]
        assert level_at(sched, 0.1 + 0.2) == 0.9  # 0.30000000000000004
        assert level_at(sched, 0.3 - TIME_TOL) == 0.9  # the rule is t >= t0 - TIME_TOL
        assert level_at(sched, 0.3 - 1e-12) == 0.9
        assert level_at(sched, 0.3 - 2e-9) == 0.1
        # on a step grid: 3 * 0.1 misses the breakpoint 0.3 by rounding
        s = simulate_gate(SLOW_NOT, SimConfig(horizon=0.5, step=0.1, inputs={"u": sched}))
        assert s.values["u"].tolist() == [0.1, 0.1, 0.1, 0.9, 0.9, 0.9]

    def test_breakpoint_within_time_tol_of_a_sample(self):
        # 0.5 + 5e-10 names sample 50, so the input holds 1 there, as the
        # monitor's window [0.5000000005, 0.9] reads it; under a slack below
        # TIME_TOL it would hold 0 there and the formula read -0.5
        g = GateParams(GateKind.NOT, n=3, alpha=1, hill_k=(0.5,))
        cfg = SimConfig(horizon=1.0, step=0.01, inputs={"A": [(0, 0.0), (0.5 + 5e-10, 1.0)]})
        trace = simulate_gate(g, cfg)
        assert trace.values["A"][49:51].tolist() == [0.0, 1.0]
        f = parse("G[0.5000000005,0.9] (A >= 0.5)")
        assert robustness(f, trace) == robustness_naive(f, trace) == 0.5

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="strictly increase"):
            SimConfig(horizon=1.0, inputs={"u": [(0, .1), (5, .9), (2, .5)]})

    @given(
        gaps=st.lists(st.floats(1e-12, 10.0), max_size=6),
        levels=st.lists(st.floats(0.0, 1e3), min_size=7, max_size=7),
        t=st.floats(0.0, 70.0),
    )
    def test_matches_linear_scan(self, gaps, levels, t):
        starts = [0.0, *itertools.accumulate(gaps)]
        program = list(zip(starts, levels))
        assert level_at(levels[0], t) == _scan_level(levels[0], t)
        # a level holds from t0 - TIME_TOL: probe both sides of that edge
        probes = [t] + [t0 + dt for t0 in starts for dt in (0.0, 1e-10, -1e-10, 1e-8, -1e-8)]
        for when in probes:
            if when >= 0:  # the simulator reads no level before t = 0
                assert level_at(program, when) == _scan_level(program, when), when


class TestTimeGrid:
    @pytest.mark.parametrize("horizon,step", [
        (20 + 5e-9, 10.0), (20 + 5e-10, 10.0), (2.004, 0.01), (1.0, 0.3), (1.0, 0.1),
    ])
    def test_last_sample_reaches_the_horizon_within_time_tol(self, horizon, step):
        # the tolerance is in time: at 1e-9 of a step, time_grid(20 + 5e-9,
        # 10.0) stopped at 20
        grid = time_grid(horizon, step)
        assert grid[-2] < horizon - TIME_TOL <= grid[-1]


class TestSimConfigInputs:
    @pytest.mark.parametrize("program,match", [
        ([(0.5, 1.0)], "start at t=0"),
        ([], "empty"),
        ([(0.0, 0.1), (2.0, 0.9), (1.0, 0.5)], "strictly increase"),
        ([(0.0, 0.1), (2.0, 0.9), (2.0, 0.5)], "strictly increase"),
        ([(0.0, 0.1), (float("nan"), 0.9)], "strictly increase"),
        ([(0.0, 0.1), (float("inf"), 0.9)], "finite"),
        ([(0.0, 0.1), (1.0, float("nan"))], "finite"),
        ([(0.0, float("inf"))], "finite"),
        (float("nan"), "finite"),
        (float("-inf"), "finite"),
    ])
    def test_invalid_program_rejected(self, program, match):
        with pytest.raises(ValueError, match=match):
            SimConfig(horizon=1.0, inputs={"A": program})

    @pytest.mark.parametrize("program", [
        -0.5, -1e-12, [(0.0, 0.2), (1.0, -0.1)],
    ])
    def test_negative_level_rejected(self, program):
        with pytest.raises(ValueError, match="'A' must be finite and >= 0"):
            SimConfig(horizon=1.0, inputs={"A": program})

    @pytest.mark.parametrize("program", [
        0.0, 1, 0.5, np.float64(0.7), [(0.0, 0.2)],
        [(0, 0.2), (0.5, 1.0), (0.75, 0)], ((0.0, 1.0), (1e-6, 0.0)),
        np.int64(1), np.float32(0.5),
    ])
    def test_valid_program_accepted(self, program):
        SimConfig(horizon=1.0, inputs={"A": program})

    @pytest.mark.parametrize("x0", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_initial_value_rejected(self, x0):
        with pytest.raises(ValueError, match="initial value of 'xD' must be finite"):
            SimConfig(horizon=1.0, initial={"xD": x0})


def gate_config(horizon, step, **inputs):
    """A ``SimConfig`` whose ``inputs`` are the keyword programs, in order."""
    return SimConfig(horizon=horizon, step=step, inputs=inputs)


class TestSimulateGate:
    def test_matches_closed_form(self):
        g = and_gate()
        cfg = gate_config(16.0, 0.01, u1=0.75, u2=0.75)
        s = simulate_gate(g, cfg)
        drive = gate_drive(g, (0.75, 0.75))
        exact = closed_form(drive, g.alpha, 0.0, s.times)
        assert np.max(np.abs(s.values["x"] - exact)) < 1e-6

    def test_crosses_threshold_before_delta(self):
        s = simulate_gate(and_gate(), gate_config(16.0, 0.01, u1=0.75, u2=0.75))
        assert s.sample_at("x", 4.0) >= 0.75

    def test_equilibrium_is_constant(self):
        g = and_gate()
        drive = gate_drive(g, (0.75, 0.75))
        cfg = SimConfig(horizon=5.0, step=0.01, initial={"x": drive},
                        inputs={"u1": 0.75, "u2": 0.75})
        s = simulate_gate(g, cfg)
        assert np.max(np.abs(s.values["x"] - drive)) < 1e-9

    def test_fast_relaxation(self):
        g = and_gate(alpha=100.0)
        drive = gate_drive(g, (0.75, 0.75))
        s = simulate_gate(g, gate_config(0.5, 0.001, u1=0.75, u2=0.75))
        assert abs(s.sample_at("x", 0.1) - drive) < 1e-3

    def test_inputs_in_trace(self):
        s = simulate_gate(and_gate(), gate_config(1.0, 0.1, u1=0.6, u2=0.7))
        assert np.all(s.values["u1"] == 0.6) and np.all(s.values["u2"] == 0.7)

    @pytest.mark.parametrize("input_vars,match", [
        (("a",), "input name"),
        (("a", "b", "c"), "input name"),
        (("x", "u2"), "output name 'x' is also an input"),
    ])
    def test_bad_names_rejected(self, input_vars, match):
        cfg = gate_config(1.0, 0.1, **dict.fromkeys(input_vars, 0.6))
        with pytest.raises(ValueError, match=match):
            simulate_gate(and_gate(), cfg)

    def test_named_not_gate(self):
        g = GateParams(GateKind.NOT, n=3, alpha=1.0, hill_k=(0.4,))
        s = simulate_gate(g, gate_config(1.0, 0.1, B=0.2))
        assert set(s.values) == {"B", "x"}

    @pytest.mark.parametrize("levels", [(0.6,), (0.6, 0.7, 0.8)])
    def test_wrong_number_of_levels_rejected(self, levels):
        cfg = gate_config(1.0, 0.1, **{f"u{i}": lvl for i, lvl in enumerate(levels)})
        with pytest.raises(ValueError, match=rf"AND gate takes 2 input\(s\), got {len(levels)}$"):
            simulate_gate(and_gate(), cfg)

    @pytest.mark.parametrize("level", [-0.5, float("nan"), float("inf")])
    def test_bad_input_level_rejected(self, level):
        # a negative level to a non-integer n makes a complex drive; the
        # config refuses it before any gate reads it
        g = GateParams(GateKind.NOT, n=2.5, alpha=1.0, hill_k=(0.4,))
        with pytest.raises(ValueError, match="input levels of 'u'"):
            simulate_gate(g, gate_config(1.0, 0.1, u=level))
        with pytest.raises(ValueError, match="input levels of 'u2'"):
            simulate_gate(and_gate(), gate_config(1.0, 0.1, u1=0.5, u2=level))

    @pytest.mark.parametrize("x0", [-0.3, float("nan"), float("inf")])
    def test_bad_initial_value_rejected(self, x0):
        # x0 = -0.3 would start the trajectory below 0
        with pytest.raises(ValueError, match="initial value of 'x'"):
            simulate_gate(and_gate(), SimConfig(horizon=1.0, step=0.1, initial={"x": x0},
                                                inputs={"u1": 0.6, "u2": 0.7}))

    def test_initial_value_of_another_variable_rejected(self):
        cfg = SimConfig(horizon=1.0, step=0.1, initial={"y": 0.9}, inputs={"u": 1.0})
        g = GateParams(GateKind.NOT, n=3, alpha=1.0, hill_k=(0.45,))
        with pytest.raises(ValueError, match=r"may name only 'x', not \['y'\]"):
            simulate_gate(g, cfg)

    def test_initial_value_and_breakpoint_program(self):
        # a NOT gate from x = 0.9 whose input falls from 1 to 0 at t = 1
        g = GateParams(GateKind.NOT, n=3, alpha=1.0, hill_k=(0.45,))
        cfg = SimConfig(horizon=2.0, step=0.5, initial={"x": 0.9},
                        inputs={"u": [(0.0, 1.0), (1.0, 0.0)]})
        s = simulate_gate(g, cfg)
        assert s.values["u"].tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]
        x = s.values["x"]
        assert x[0] == 0.9 and x[0] > x[1] > x[2] < x[3] < x[4]

    @pytest.mark.parametrize("kind,programs", [
        (GateKind.AND, {"u1": 0.75, "u2": 1.0}),
        (GateKind.OR, {"u1": [(0.0, 0.0), (0.73, 0.9), (1.5, 0.2)], "u2": 0.1}),
        (GateKind.NOT, {"u": [(0.0, 1.0), (0.5, 0.0), (0.925, 0.6)]}),
    ])
    @pytest.mark.parametrize("x0", [0.0, 0.8])
    def test_equals_one_gate_circuit(self, kind, programs, x0):
        # one integrator: the trace of a one-gate circuit, bit for bit
        th = {v: TH for v in (*programs, "x")}
        c = Circuit(gates={"M": Gate("M", kind, tuple(programs), "x")},
                    external_inputs=tuple(programs), outputs=(("M", "out"),),
                    thresholds=th, delta=1.0, lam=1.0)
        g = GateParams(kind, n=3.5, alpha=2.0, hill_k=(0.4,) * kind.arity)
        cfg = SimConfig(horizon=2.0, step=0.01, initial={"x": x0}, inputs=programs)
        want = simulate_circuit(c, {"M": g}, cfg)
        got = simulate_gate(g, cfg)
        assert np.array_equal(got.times, want.times)
        assert list(got.values) == list(want.values)
        for v, values in want.values.items():
            assert np.array_equal(got.values[v], values), v


def _stage_loop(drive, alpha, x, h, n_steps):
    """The classic RK4 stage order with f(y) = alpha * (drive - y), step by
    step, as a reference for the closed form."""
    want = [x]
    for _ in range(n_steps):
        k1 = alpha * (drive - x)
        k2 = alpha * (drive - (x + 0.5 * h * k1))
        k3 = alpha * (drive - (x + 0.5 * h * k2))
        k4 = alpha * (drive - (x + h * k3))
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        want.append(x)
    return np.array(want)


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

    def test_matches_stage_loop(self):
        # mixed drives and initial values, up to alpha*h = 1.29
        rng = np.random.default_rng(3)
        for n_traj, alpha, h in ((1, 1.7, 0.01), (3, 1.7, 0.01), (900, 1.7, 0.01),
                                 (900, 0.05, 0.1), (900, 129.0, 0.01)):
            drive, x = rng.uniform(0.0, 1.0, (2, n_traj))
            x[::2] = rng.choice([0.0, 1.0], x[::2].shape)
            out = simulate_constant_drive(drive, alpha, x, h, 250)
            assert out.shape == (251, n_traj)
            assert np.max(np.abs(out - _stage_loop(drive, alpha, x, h, 250))) <= TOL

    @given(z=st.floats(0.0, RK4_MONOTONE_LIMIT, exclude_min=True),
           h=st.sampled_from([0.001, 0.01, 0.5]),
           x0=st.floats(0.0, 1.0), drive=st.floats(0.0, 1.0))
    def test_matches_stage_loop_up_to_the_monotone_limit(self, z, h, x0, drive):
        # x0 and drive at 0, 1 and in between, every pairing
        x0s, drives = np.meshgrid([0.0, 1.0, x0], [0.0, 1.0, drive])
        x0s, drives = x0s.ravel(), drives.ravel()
        out = simulate_constant_drive(drives, z / h, x0s, h, 600)
        assert np.max(np.abs(out - _stage_loop(drives, z / h, x0s, h, 600))) <= TOL

    # just past z*, inside and past the old stability limit 2.7853 where A reaches 1
    @pytest.mark.parametrize("alpha,h", [(1.2956, 1.0), (130.0, 0.01), (2.785293563405282, 1.0),
                                         (279.0, 0.01), (1e3, 0.1)])
    def test_step_past_the_monotone_limit_rejected(self, alpha, h):
        with pytest.raises(ValueError, match="exceeds the RK4 monotone limit 1.2956"):
            simulate_constant_drive(np.array([0.5]), alpha, np.zeros(1), h, 10)

    def test_scalar_initial_value_and_no_steps(self):
        drive = np.array([0.2, 0.9])
        out = simulate_constant_drive(drive, 1.0, 0.5, 0.01, 10)
        assert np.array_equal(out, simulate_constant_drive(drive, 1.0, np.full(2, 0.5), 0.01, 10))
        assert simulate_constant_drive(drive, 1.0, 0.5, 0.01, 0).tolist() == [[0.5, 0.5]]

    @staticmethod
    def outer_product_form(drive, alpha, x0, h, n_steps):
        # the (T, N) outer-product expression the closed form was first
        # written as, kept as the reference for its values
        k_log_a = np.arange(n_steps + 1.0) * odesim._log_step_factor(alpha, h)
        out = np.multiply.outer(-np.expm1(k_log_a), drive)
        out += np.exp(k_log_a)[:, None] * x0
        out[0] = x0
        return out

    @pytest.mark.parametrize("per_trajectory", [False, True])
    def test_columns_contiguous_and_bitwise_equal_to_the_outer_product(self, per_trajectory):
        rng = np.random.default_rng(11)
        drive = rng.uniform(0.0, 1.0, 37)
        x0 = rng.uniform(0.0, 1.0, 37) if per_trajectory else 0.3
        out = simulate_constant_drive(drive, 2.7, x0, 0.01, 450)
        want = self.outer_product_form(drive, 2.7, x0, 0.01, 450)
        assert out.shape == want.shape == (451, 37)
        assert np.ascontiguousarray(out).tobytes() == want.tobytes()
        assert all(out[:, j].flags.c_contiguous for j in (0, 36))

    def test_determinism(self):
        g = and_gate()
        cfg = SimConfig(horizon=8.0, step=0.01, initial={"x": 0.1},
                        inputs={"u1": 0.7, "u2": 0.7})
        a = simulate_gate(g, cfg)
        b = simulate_gate(g, cfg)
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

    def test_params_of_another_kind_rejected(self, half_adder):
        # AND parameters for the OR gate S were simulated as an AND gate, and
        # verify reported two failing rows instead of an error
        c, tb, params = half_adder
        wrong = dict(params, S=params["E"])
        cfg = SimConfig(horizon=4.0, step=0.01, inputs={"A": 0.0, "B": 0.0})
        match = "gate 'S' is OR, but its parameters are for AND"
        with pytest.raises(ValueError, match=match):
            simulate_circuit(c, wrong, cfg)
        with pytest.raises(ValueError, match=match):
            verify(c, wrong, tb)

    def test_missing_input_program_rejected(self, half_adder):
        c, tb, params = half_adder
        cfg = SimConfig(horizon=4.0, step=0.01, inputs={"A": 0.0})
        with pytest.raises(ValueError, match=r"no input program for external inputs: \['B'\]"):
            simulate_circuit(c, params, cfg)


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
        cfg = SimConfig(horizon=8.0, step=0.01, inputs={"u1": 1.0, "u2": 1.0})
        s = simulate_gate(params["M"], cfg)
        assert entry.robustness == robustness(entry.formula, s)


def _combo_config(c, tb, key, step=0.01):
    """The ``SimConfig`` that ``verify_combos`` simulates for ``key``."""
    combo = dict(item.split("=") for item in key.split(","))
    return combo, SimConfig(
        horizon=tb.network_lambda + tb.network_delta, step=step,
        inputs={v: 1.0 if combo[v] == "high" else 0.0 for v in c.external_inputs},
    )


class TestVerifyCombos:
    def test_entries_equal_verify(self, half_adder):
        c, tb, params = half_adder
        streamed = [e for _, _, entries in verify_combos(c, params, tb) for e in entries]
        assert tuple(streamed) == verify(c, params, tb).entries

    def test_keys_in_product_order(self, half_adder):
        c, tb, params = half_adder
        keys = [key for key, _, _ in verify_combos(c, params, tb)]
        assert keys == ["A=low,B=low", "A=low,B=high", "A=high,B=low", "A=high,B=high"]

    @pytest.mark.parametrize("step", [None, 0.05])
    def test_trace_is_simulate_circuit_bit_for_bit(self, half_adder, step):
        c, tb, params = half_adder
        for key, trace, entries in verify_combos(c, params, tb, step):
            combo, cfg = _combo_config(c, tb, key, step or c.sim["h"])
            assert [e.combo for e in entries] == [combo] * len(c.outputs)
            want = simulate_circuit(c, params, cfg)
            assert trace.times.tobytes() == want.times.tobytes()
            assert list(trace.values) == list(want.values)
            for v, x in want.values.items():
                assert trace.values[v].tobytes() == x.tobytes(), (key, v)

    def test_no_trace_outlives_its_consumer(self, half_adder):
        c, tb, params = half_adder
        combos = verify_combos(c, params, tb)
        refs = []
        for _ in range(2 ** len(c.external_inputs)):
            _, trace, _ = next(combos)
            refs.append(weakref.ref(trace))
            del trace
            # the generator holds no reference to a trace it has yielded
            assert refs[-1]() is None
        assert next(combos, None) is None
        assert all(ref() is None for ref in refs)

    def test_verify_holds_one_trace_at_a_time(self, half_adder, monkeypatch):
        c, tb, params = half_adder
        signals, alive = [], []
        real = odesim.simulate_circuit

        def recorded(*args):
            alive.append(sum(ref() is not None for ref in signals))
            s = real(*args)
            signals.append(weakref.ref(s))
            return s

        # through the module global, as the benchmark's hooks see it
        monkeypatch.setattr(odesim, "simulate_circuit", recorded)
        report = verify(c, params, tb)
        assert report.all_pass
        # no earlier trace is alive when the next combination is simulated
        assert alive == [0, 0, 0, 0]
        assert all(ref() is None for ref in signals)
        assert [f.name for f in dataclasses.fields(report)] == ["entries"]

    def test_formulas_of_readable_names_parse_back(self):
        # U is a variable the parser reads, though U[a,b] is an operator
        c = Circuit(
            gates={"M": Gate("M", GateKind.AND, ("U", "b"), "x")},
            external_inputs=("U", "b"),
            outputs=(("M", "out"),),
            thresholds={v: TH for v in ("U", "b", "x")}, delta=4.0, lam=4.0,
        )
        report = verify(c, {"M": and_gate()})
        assert report.all_pass
        for e in report.entries:
            assert parse(str(e.formula)) == e.formula


def _numpy_coupled_rk4(c, params, cfg):
    """A step-major RK4 loop over every gate, kept as an independent oracle
    for the gate-major scan of ``simulate_circuit``.  Each step takes the
    gates in topological order, each by the classic stage-by-stage RK4
    against its reads: an upstream gate's x_k at stage 1,
    m_k = y2/2 + (x_k + x_{k+1})/4 at stages 2 and 3 (y2 its own stage-2
    state) and x_{k+1} at stage 4, an external input's level at t, t + h/2,
    t + h/2 and t + h.  A gate reads a level below 0 as 0.  Also returns
    the lowest level any gate read, before that rule."""
    h = cfg.step
    times = time_grid(cfg.horizon, h)
    traj = {c.gates[gid].output: [float(cfg.initial.get(c.gates[gid].output, 0.0))]
            for gid in c.topo_order()}
    lowest = np.inf
    for t in times[:-1]:
        reads = {v: [_scan_level(cfg.inputs[v], t + dt) for dt in (0.0, h / 2, h / 2, h)]
                 for v in c.external_inputs}
        for gid in c.topo_order():
            g, gate = params[gid], c.gates[gid]
            levels = [[reads[v][i] for v in gate.inputs] for i in range(4)]
            lowest = min(lowest, *itertools.chain(*levels))
            d = [gate_drive(g, [max(u, 0.0) for u in stage]) for stage in levels]
            x = traj[gate.output][-1]
            k1 = g.alpha * (d[0] - x)
            y2 = x + 0.5 * h * k1
            k2 = g.alpha * (d[1] - y2)
            k3 = g.alpha * (d[2] - (x + 0.5 * h * k2))
            k4 = g.alpha * (d[3] - (x + h * k3))
            x_next = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            traj[gate.output].append(x_next)
            m = 0.5 * y2 + 0.25 * (x + x_next)
            reads[gate.output] = [x, m, m, x_next]
    values = {v: np.array([_scan_level(cfg.inputs[v], t) for t in times])
              for v in c.external_inputs}
    values.update((v, np.array(x)) for v, x in traj.items())
    return times, values, lowest


def _assert_matches_array_loop(c, params, cfg):
    """Assert that ``simulate_circuit`` matches the coupled loop; return
    the lowest level a gate read in that loop, before reading it."""
    s = simulate_circuit(c, params, cfg)
    times, values, lowest = _numpy_coupled_rk4(c, params, cfg)
    assert np.array_equal(s.times, times)
    assert list(s.values) == list(values)
    for v, want in values.items():
        if v in c.external_inputs:
            assert np.array_equal(s.values[v], want), v
        else:
            assert np.max(np.abs(s.values[v] - want)) <= TOL, v
    return lowest


def _not_chain(stages):
    th = Thresholds(plus=0.75, minus=0.25, p=0.1)
    names = ["u"] + [f"x{i}" for i in range(stages)]
    gates = {
        f"g{i}": Gate(f"g{i}", GateKind.NOT, (names[i],), names[i + 1])
        for i in range(stages)
    }
    c = Circuit(gates=gates, external_inputs=("u",),
                outputs=((f"g{stages - 1}", "out"),),
                thresholds={v: th for v in names}, delta=12.0, lam=4.0)
    params = {gid: GateParams(GateKind.NOT, n=3, alpha=5.2, hill_k=(0.45,))
              for gid in gates}
    return c, params


class TestCircuitMatchesArrayLoop:
    def test_half_adder_every_combo(self, half_adder):
        c, tb, params = half_adder
        for a, b in itertools.product((0.0, 1.0), repeat=2):
            cfg = SimConfig(horizon=16.0, step=0.01, inputs={"A": a, "B": b})
            _assert_matches_array_loop(c, params, cfg)

    def test_not_chain(self):
        c, params = _not_chain(16)
        for u in (0.0, 1.0):
            cfg = SimConfig(horizon=16.0, step=0.01, inputs={"u": u},
                            initial={"x3": 0.8, "x10": 0.4})
            _assert_matches_array_loop(c, params, cfg)

    @pytest.mark.parametrize("program", [
        [(0.0, 0.0), (2.0, 1.0)],  # breakpoint on a grid time
        [(0.0, 1.0), (0.005, 0.2), (3.0, 0.9)],  # at t + h/2 of step 0
        [(0.0, 0.9), (2.015, 0.1)],  # at t + h/2 of a later step
        [(0.0, 0.3), (1.2345, 0.8), (7.00001, 0.1)],  # off the grid
        [(0.0, 0.3), (0.1 + 0.2, 0.6)],  # a rounding hair past a grid time
    ])
    def test_piecewise_programs(self, half_adder, program):
        c, tb, params = half_adder
        cfg = SimConfig(horizon=8.0, step=0.01,
                        inputs={"A": program, "B": [(0.0, 1.0), (4.0, 0.0)]},
                        initial={"xD": 0.7, "xS": 0.2})
        _assert_matches_array_loop(c, params, cfg)


@pytest.fixture
def ripple2(monkeypatch):
    """The benchmark's 2-bit ripple-carry adder, its gate list shuffled,
    with a different alpha per gate."""
    monkeypatch.syspath_prepend(str(BENCH))
    import gencircuits

    data = gencircuits.shuffled(gencircuits.ripple_carry_adder(2),
                                np.random.default_rng(4))
    c = Circuit.from_dict(data)
    kinetics = {GateKind.AND: (4, (0.40, 0.45)), GateKind.OR: (3.5, (0.35, 0.4)),
                GateKind.NOT: (3, (0.45,))}
    params = {}
    for i, (gid, gate) in enumerate(sorted(c.gates.items())):
        n, k = kinetics[gate.kind]
        params[gid] = GateParams(gate.kind, n=n, alpha=0.7 + 0.3 * i, hill_k=k)
    return c, params


class TestRippleCarryAdderMatchesArrayLoop:
    """Gate-major integration of a 19-gate circuit with fan-out, within
    1e-12 of the coupled array loop."""

    INITIAL = {"xg0": 0.9, "xg5": 0.3, "xg11": 0.6, "xg18": 0.05}

    def test_every_combo(self, ripple2):
        c, params = ripple2
        assert list(c.gates) != sorted(c.gates, key=lambda gid: int(gid[1:]))
        for levels in itertools.product((0.0, 1.0), repeat=len(c.external_inputs)):
            cfg = SimConfig(horizon=3.0, step=0.01,
                            inputs=dict(zip(c.external_inputs, levels)),
                            initial=self.INITIAL)
            _assert_matches_array_loop(c, params, cfg)

    def test_piecewise_program(self, ripple2):
        c, params = ripple2
        inputs = {"a0": [(0.0, 0.0), (0.805, 1.0), (2.0, 0.3)], "b0": 1.0,
                  "a1": [(0.0, 1.0), (1.2345, 0.0)], "b1": 0.6}
        cfg = SimConfig(horizon=3.0, step=0.01, inputs=inputs, initial=self.INITIAL)
        _assert_matches_array_loop(c, params, cfg)


def _fan_out():
    """Four gates where N feeds P and Q, and Q reads N and P."""
    th = {v: TH for v in ("a", "b", "xN", "xP", "xQ", "xR")}
    c = Circuit(
        gates={
            "N": Gate("N", GateKind.NOT, ("a",), "xN"),
            "P": Gate("P", GateKind.AND, ("xN", "b"), "xP"),
            "Q": Gate("Q", GateKind.OR, ("xN", "xP"), "xQ"),
            "R": Gate("R", GateKind.NOT, ("xQ",), "xR"),
        },
        external_inputs=("a", "b"),
        outputs=(("R", "out"),),
        thresholds=th, delta=4.0, lam=4.0,
    )
    params = {
        "N": GateParams(GateKind.NOT, n=3, alpha=2.0, hill_k=(0.45,)),
        "P": and_gate(),
        "Q": GateParams(GateKind.OR, n=3, alpha=1.3, hill_k=(0.4, 0.5)),
        "R": GateParams(GateKind.NOT, n=2, alpha=0.8, hill_k=(0.5,)),
    }
    return c, params


# alpha*h of _fan_out's gates up to 1.0 and up to z*; N has the largest alpha, 2
LONG_STEPS = (0.5, RK4_MONOTONE_LIMIT / 2.0)


def _long_step_config(step):
    return SimConfig(horizon=60.0, step=step, initial={"xQ": 0.5, "xR": 1.0},
                     inputs={"a": [(0.0, 0.0), (20.0, 1.0)], "b": 1.0})


class TestLongSteps:
    """Steps up to the RK4 monotone limit, where A^s of the scan falls
    fastest, and past it."""

    @pytest.mark.parametrize("step", LONG_STEPS)
    def test_matches_array_loop(self, step):
        _assert_matches_array_loop(*_fan_out(), _long_step_config(step))

    def test_gate_past_the_limit_named(self):
        # N at alpha*h = 1.4; the gates after it in topological order are within
        c, params = _fan_out()
        cfg = SimConfig(horizon=10.0, step=0.7, inputs={"a": 0.0, "b": 1.0})
        with pytest.raises(ValueError, match=r"^gate 'N': alpha\*step = 1.4 exceeds the RK4 "
                                             r"monotone limit 1.2956"):
            simulate_circuit(c, params, cfg)

    # just past z*, and inside and at the old stability limit 2.7853
    @pytest.mark.parametrize("z", [RK4_MONOTONE_LIMIT * (1 + 1e-12), 2.0, 2.785293563405282])
    def test_every_simulator_refuses_past_the_limit(self, z):
        # a NOT gate of alpha = 1, so alpha*h = h = z
        g = GateParams(GateKind.NOT, n=3, alpha=1.0, hill_k=(0.45,))
        c, params = _not_pair(1.0, 3)
        match = "exceeds the RK4 monotone limit 1.2956"
        with pytest.raises(ValueError, match=match):
            simulate_gate(g, gate_config(5.0, z, u=1.0))
        with pytest.raises(ValueError, match=match):
            simulate_circuit(c, params, SimConfig(horizon=5.0, step=z, inputs={"a": 1.0}))
        with pytest.raises(ValueError, match=match):
            simulate_constant_drive(np.array([0.5]), 1.0, 0.0, z, 5)
        # at the limit itself each takes the step
        simulate_gate(g, gate_config(5.0, RK4_MONOTONE_LIMIT, u=1.0))
        simulate_circuit(c, params, SimConfig(horizon=5.0, step=RK4_MONOTONE_LIMIT,
                                              inputs={"a": 1.0}))
        simulate_constant_drive(np.array([0.5]), 1.0, 0.0, RK4_MONOTONE_LIMIT, 5)


class TestInitialValues:
    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="'xN' must be finite and >= 0, got -0.2"):
            SimConfig(horizon=1.0, step=0.1, initial={"xN": -0.2}, inputs={"a": 0.0, "b": 1.0})

    def test_nan_rejected(self):
        # a NaN initial value would turn every downstream trajectory into NaN
        with pytest.raises(ValueError, match="'xN' must be finite"):
            SimConfig(horizon=1.0, step=0.1, initial={"xZZ": 0.9, "xN": float("nan")},
                      inputs={"a": 0.0, "b": 1.0})

    @pytest.mark.parametrize("var", ["xZZ", "a"])  # unknown, an external input
    def test_name_of_no_gate_output_rejected(self, var):
        c, params = _fan_out()
        cfg = SimConfig(horizon=1.0, step=0.1, initial={var: 0.9, "xN": 0.5},
                        inputs={"a": 0.0, "b": 1.0})
        with pytest.raises(ValueError, match=rf"no gate output: \['{var}'\]"):
            simulate_circuit(c, params, cfg)


def _not_pair(alpha_n, n_p):
    """NOT gate N, reading input a, feeding NOT gate P with Hill coefficient n_p."""
    th = {v: TH for v in ("a", "xN", "xP")}
    c = Circuit(
        gates={"N": Gate("N", GateKind.NOT, ("a",), "xN"),
               "P": Gate("P", GateKind.NOT, ("xN",), "xP")},
        external_inputs=("a",), outputs=(("P", "out"),),
        thresholds=th, delta=4.0, lam=4.0,
    )
    params = {"N": GateParams(GateKind.NOT, n=3, alpha=alpha_n, hill_k=(0.45,)),
              "P": GateParams(GateKind.NOT, n=n_p, alpha=1.0, hill_k=(0.45,))}
    return c, params


# an input breakpoint inside a step: under the former coupling, which
# handed P N's RK4 stage values, N's fell below 0 at alpha*h = 0.2
BREAKPOINT = (20.0, SimConfig(horizon=1.0, step=0.01,
                              inputs={"a": [(0.0, 0.0), (0.005, 1.0)]}))
# a non-integer, an odd and an even n: with a read below 0, a complex
# drive, a drive outside [0, 1] and the drive at -u read as at +u
N_AT_NEGATIVE_READS = (2.5, 3, 4)


def _rounding_at_z_star(n_p=2.5):
    """AND gate A at alpha*h = z* exactly, feeding NOT gate P: input a is 1
    at stage 1 only, so A's first step from 0 is w1*d1 with w1 = 0 in exact
    arithmetic, and rounds to -1.3e-17."""
    h = 0.17401278467086911
    th = {v: TH for v in ("a", "b", "xA", "xP")}
    c = Circuit(
        gates={"A": Gate("A", GateKind.AND, ("a", "b"), "xA"),
               "P": Gate("P", GateKind.NOT, ("xA",), "xP")},
        external_inputs=("a", "b"), outputs=(("P", "out"),),
        thresholds=th, delta=4.0, lam=4.0,
    )
    params = {"A": GateParams(GateKind.AND, n=2.5, alpha=RK4_MONOTONE_LIMIT / h,
                              hill_k=(0.7833587651058748,) * 2),
              "P": GateParams(GateKind.NOT, n=n_p, alpha=1.0, hill_k=(0.45,))}
    assert params["A"].alpha * h == RK4_MONOTONE_LIMIT
    cfg = SimConfig(horizon=10 * h, step=h, inputs={"a": [(0.0, 1.0), (h / 2, 0.0)], "b": 1.0})
    return c, params, cfg


class TestVerdictStep:
    """A verdict, like every simulator, needs alpha*h <= RK4_MONOTONE_LIMIT
    for every gate."""

    def test_verify_up_to_the_monotone_limit(self):
        c, params = _not_pair(1.0, 3)
        assert 1.29 < RK4_MONOTONE_LIMIT < 1.3
        assert len(verify(c, params, step=1.29).entries) == 2
        with pytest.raises(ValueError, match=r"^gate 'N': alpha\*step = 1.3 exceeds the RK4 "
                                             r"monotone limit 1.2956"):
            verify(c, params, step=1.3)
        with pytest.raises(ValueError, match=r"^gate 'N': alpha\*step = 2 exceeds"):
            simulate_circuit(c, params, SimConfig(horizon=8.0, step=2.0, inputs={"a": 1.0}))

    def test_first_gate_past_the_limit_named(self):
        # N and P both past the limit: the first combination names N, the
        # first in topological order, before any entry is yielded
        c, params = _not_pair(2.0, 3)
        params["P"] = dataclasses.replace(params["P"], alpha=3.0)
        with pytest.raises(ValueError, match=r"^gate 'N': alpha\*step = 2 exceeds the RK4 "
                                             r"monotone limit"):
            next(verify_combos(c, params, step=1.0))


def _simulate_reproducer(name):
    if name == "breakpoint":
        alpha_n, cfg = BREAKPOINT
        for n in N_AT_NEGATIVE_READS:
            simulate_circuit(*_not_pair(alpha_n, n), cfg)
    else:
        for n in N_AT_NEGATIVE_READS:
            c, params, cfg = _rounding_at_z_star(n)
            simulate_circuit(c, params, cfg)


class TestNegativeReads:
    """A read is a non-negative combination of levels and drives (module
    docstring of odesim); rounding at alpha*h = z* can still leave a sample
    just below 0, which a gate reads as 0, at any n."""

    def test_breakpoint_inside_a_step_reads_no_level_below_0(self):
        alpha_n, cfg = BREAKPOINT
        for n in N_AT_NEGATIVE_READS:
            assert _assert_matches_array_loop(*_not_pair(alpha_n, n), cfg) >= 0, n

    @pytest.mark.parametrize("reproducer", ["breakpoint", "rounding"])
    def test_every_drive_in_the_unit_interval(self, reproducer, monkeypatch):
        # without the rule, the rounding reproducer gave P a complex drive at n = 2.5
        calls = _record_drives(monkeypatch)
        _simulate_reproducer(reproducer)
        assert min(u for _, levels, _ in calls for u in levels) == 0.0
        drives = [d for _, _, d in calls]
        assert all(isinstance(d, float) for d in drives)
        assert 0.0 <= min(drives) and max(drives) <= 1.0

    def test_trace_keeps_rk4_values_below_0(self):
        c, params, cfg = _rounding_at_z_star()
        assert _assert_matches_array_loop(c, params, cfg) < 0
        assert -1e-16 < simulate_circuit(c, params, cfg).values["xA"][1] < 0


def _record_drives(monkeypatch) -> list:
    """Wrap odesim's gate_drive; the list gets each call's (params, levels, drive)."""
    calls = []
    real = odesim.gate_drive

    def recorded(g, inputs):
        d = real(g, inputs)
        calls.append((g, inputs, d))
        return d

    monkeypatch.setattr(odesim, "gate_drive", recorded)
    return calls


def _level_types(calls) -> set:
    return {type(u) for _, levels, _ in calls for u in levels}


class TestGateDriveCalls:
    """One scalar ``gate_drive`` call per gate per RK4 stage, made through
    this module's global, so a wrapper installed on it sees every call."""

    def test_calls_per_stage(self, half_adder, monkeypatch):
        c, tb, params = half_adder
        calls = _record_drives(monkeypatch)
        cfg = SimConfig(horizon=3.0, step=0.01, inputs={"A": 1.0, "B": 0.0})
        s = simulate_circuit(c, params, cfg)
        steps = s.times.size - 1
        assert len(calls) == steps * 4 * len(c.gates) == 300 * 4 * 6
        assert _level_types(calls) == {float}  # not np.float64

    def test_calls_with_fan_out(self, monkeypatch):
        # N feeds P and Q; Q reads two gates and R one, so a stage sequence
        # one step too long would add calls
        c, params = _fan_out()
        calls = _record_drives(monkeypatch)
        cfg = SimConfig(horizon=2.0, step=0.01, initial={"xQ": 0.5},
                        inputs={"a": 0.0, "b": [(0.0, 1.0), (1.0, 0.2)]})
        steps = simulate_circuit(c, params, cfg).times.size - 1
        assert len(calls) == steps * 4 * len(c.gates) == 200 * 4 * 4
        assert _level_types(calls) == {float}
        monkeypatch.undo()
        _assert_matches_array_loop(c, params, cfg)

    def test_verify_calls(self, monkeypatch):
        c, params = _not_chain(3)
        calls = _record_drives(monkeypatch)
        tb = propagate_timing(c)
        verify(c, params, tb, step=0.05)
        steps = int(round((tb.network_lambda + tb.network_delta) / 0.05))
        assert len(calls) == 2 * steps * 4 * 3


@pytest.mark.parametrize("run", ["breakpoint", "rounding", "long-steps", "half-adder-verify"])
def test_gate_drives_matches_gate_drive_on_every_simulated_level(run, half_adder, monkeypatch):
    # the log-space kernel is a drive-for-drive replacement for the scalar
    # one in the simulator; it gives NaN at a level below 0, which the
    # simulator never hands a gate
    calls = _record_drives(monkeypatch)
    if run in ("breakpoint", "rounding"):
        _simulate_reproducer(run)
    elif run == "long-steps":
        for step in LONG_STEPS:
            simulate_circuit(*_fan_out(), _long_step_config(step))
    else:
        c, tb, params = half_adder
        verify(c, params, tb)
    by_gate = {}
    for g, levels, d in calls:
        by_gate.setdefault(g, []).append((*levels, d))
    for g, rows in by_gate.items():
        rows = np.array(rows)
        levels = rows[:, :-1]
        got = gate_drives(g.kind, g.n, levels, np.broadcast_to(g.hill_k, levels.shape))
        assert np.max(np.abs(got - rows[:, -1])) <= 1e-13, g
