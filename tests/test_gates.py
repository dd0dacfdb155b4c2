import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gatesynth.formulas import parse
from gatesynth.gates import (
    HIGH, LOW, ExtendedTruthRow, GateKind, GateParams, Thresholds,
    check_kinetics, closed_form, gate_drive, gate_drives, hill_act, hill_rep,
    row_formula, truth_table,
)

TH = Thresholds(plus=0.75, minus=0.25, p=0.1)


class TestHill:
    def test_half_saturation(self):
        assert hill_act(0.4, 0.4, 3) == pytest.approx(0.5)
        assert hill_rep(0.4, 0.4, 3) == pytest.approx(0.5)

    def test_zero_input(self):
        assert hill_act(0.0, 0.4, 3) == 0.0
        assert hill_rep(0.0, 0.4, 3) == 1.0

    def test_values(self):
        assert hill_act(0.75, 0.41, 4) == pytest.approx(0.918, abs=5e-4)
        assert hill_rep(0.75, 0.45, 3) == pytest.approx(0.178, abs=5e-4)

    def test_complementarity(self):
        for x in np.linspace(0.01, 1.0, 25):
            total = hill_act(x, 0.37, 2.5) + hill_rep(x, 0.37, 2.5)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        xs = np.linspace(0, 1, 40)
        act = [hill_act(x, 0.4, 4) for x in xs]
        rep = [hill_rep(x, 0.4, 4) for x in xs]
        assert all(a < b for a, b in zip(act, act[1:]))
        assert all(a > b for a, b in zip(rep, rep[1:]))

    def test_bad_params(self):
        with pytest.raises(ValueError):
            hill_act(0.5, 0.0, 2)
        with pytest.raises(ValueError):
            hill_rep(0.5, 0.4, -1)

    @given(
        x=st.floats(0.0, 1.0),
        K=st.floats(0.05, 1.0),
        n=st.floats(0.5, 8.0),
    )
    def test_complement_identity(self, x, K, n):
        assert hill_act(x, K, n) + hill_rep(x, K, n) == pytest.approx(1.0, abs=1e-12)

    @given(
        K=st.floats(0.0, 1.0),
        alpha=st.floats(0.05, 5.0),
        x0=st.floats(0.0, 1.0),
        t=st.floats(0.0, 50.0),
    )
    def test_closed_form_stays_between_x0_and_K(self, K, alpha, x0, t):
        x = float(closed_form(K, alpha, x0, t))
        lo, hi = min(x0, K), max(x0, K)
        assert lo - 1e-12 <= x <= hi + 1e-12


class TestGateDrive:
    def test_and_at_half_saturation(self):
        g = GateParams(GateKind.AND, n=4, alpha=1.0, hill_k=(0.3, 0.6))
        assert gate_drive(g, (0.3, 0.6)) == pytest.approx(0.25)

    def test_or_zero(self):
        g = GateParams(GateKind.OR, n=4, alpha=1.0, hill_k=(0.4, 0.4))
        assert gate_drive(g, (0.0, 0.0)) == 0.0

    def test_not_zero(self):
        g = GateParams(GateKind.NOT, n=3, alpha=1.0, hill_k=(0.4,))
        assert gate_drive(g, (0.0,)) == 1.0

    def test_in_unit_interval_and_monotone(self):
        gand = GateParams(GateKind.AND, n=4, alpha=1.0, hill_k=(0.4, 0.4))
        gor = GateParams(GateKind.OR, n=4, alpha=1.0, hill_k=(0.4, 0.4))
        gnot = GateParams(GateKind.NOT, n=3, alpha=1.0, hill_k=(0.4,))
        prev_and = prev_or = -1.0
        prev_not = 2.0
        for x in np.linspace(0, 1, 30):
            a = gate_drive(gand, (x, x))
            o = gate_drive(gor, (x, x))
            r = gate_drive(gnot, (x,))
            assert 0 <= a <= 1 and 0 <= o <= 1 and 0 <= r <= 1
            assert a >= prev_and and o >= prev_or and r <= prev_not
            prev_and, prev_or, prev_not = a, o, r

    def test_arity_mismatch(self):
        g = GateParams(GateKind.AND, n=4, alpha=1.0, hill_k=(0.4, 0.4))
        with pytest.raises(ValueError, match=r"^AND gate takes 2 input\(s\), got 1$"):
            gate_drive(g, (0.5,))
        g = GateParams(GateKind.NOT, n=3, alpha=1.0, hill_k=(0.4,))
        with pytest.raises(ValueError, match=r"^NOT gate takes 1 input\(s\), got 2$"):
            gate_drive(g, (0.5, 0.5))

    @given(u=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
           k=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
           n=st.floats(0.5, 8.0))
    def test_hill_term_forms_bitwise(self, u, k, n):
        gand = GateParams(GateKind.AND, n=n, alpha=1.0, hill_k=k)
        gor = GateParams(GateKind.OR, n=n, alpha=1.0, hill_k=k)
        gnot = GateParams(GateKind.NOT, n=n, alpha=1.0, hill_k=k[:1])
        assert gate_drive(gand, u) == hill_act(u[0], k[0], n) * hill_act(u[1], k[1], n)
        assert gate_drive(gnot, u[:1]) == hill_rep(u[0], k[0], n)
        r0, r1 = (u[0] / k[0]) ** n, (u[1] / k[1]) ** n
        assert gate_drive(gor, u) == (r0 + r1) / (1.0 + r0 + r1)
        assert hill_act(u[0], k[0], n) == r0 / (1.0 + r0)
        assert hill_rep(u[0], k[0], n) == 1.0 / (1.0 + r0)


# gate_drives' contract with the scalar gate_drive: the log-space kernel
# rounds differently from the float power of the ratio
DRIVES_TOL = 1e-13


def _assert_matches_gate_drive(kind, n, levels, ks):
    got = gate_drives(kind, n, levels, ks)
    want = [gate_drive(GateParams(kind, n, 1.0, tuple(k)), levels) for k in ks]
    assert got.shape == (len(ks),)
    assert np.max(np.abs(got - want), initial=0.0) <= DRIVES_TOL


class TestGateDrives:
    """The K-batched drive agrees with the scalar one within DRIVES_TOL."""

    @pytest.mark.parametrize("kind", list(GateKind))
    @pytest.mark.parametrize("n", [2.5, 3, 4.0, 6.37])
    def test_bitwise_equal_to_gate_drive(self, kind, n):
        rng = np.random.default_rng(7)
        ks = rng.uniform(0.002, 1.0, (400, kind.arity))
        ks[:3] = 1.0
        for levels in ([0.0, 0.75], [0.25, 1.0], [0.83, 0.11]):
            _assert_matches_gate_drive(kind, n, levels[: kind.arity], ks)

    @given(kind=st.sampled_from(list(GateKind)), n=st.floats(1.0, 1000.0),
           levels=st.lists(st.sampled_from([0.0, 1.0, TH.plus, TH.minus,
                                            TH.tilde_plus, TH.tilde_minus])
                           | st.floats(0.0, 1.0), min_size=2, max_size=2),
           ks=st.lists(st.tuples(*[st.floats(0.0, 1.0, exclude_min=True)] * 2),
                       min_size=1, max_size=4))
    def test_matches_gate_drive_up_to_large_n(self, kind, n, levels, ks):
        ks = np.array(ks)[:, : kind.arity]
        _assert_matches_gate_drive(kind, n, levels[: kind.arity], ks)

    def test_empty_batch(self):
        assert gate_drives(GateKind.AND, 4, (0.5, 0.5), np.empty((0, 2))).shape == (0,)


class TestHillRatioOverflow:
    """A ratio (u/K)^n beyond the float range gives the drive's limit.

    At n = 994 (the n of test_synth.py::TestLargeHillCoefficient) the
    ratio (1/0.3)^n overflows, while (1/0.5)^n = 2^994 is finite and puts
    the drive within 2^-994 of its limit.
    """

    N = 994

    @pytest.mark.parametrize("kind,limit", [
        (GateKind.AND, 1.0), (GateKind.OR, 1.0), (GateKind.NOT, 0.0),
    ])
    def test_limit_matches_saturated_neighbour(self, kind, limit):
        u = (1.0,) * kind.arity
        over = GateParams(kind, n=self.N, alpha=1.0, hill_k=(0.3,) * kind.arity)
        finite = GateParams(kind, n=self.N, alpha=1.0, hill_k=(0.5,) * kind.arity)
        assert gate_drive(over, u) == limit
        assert gate_drive(finite, u) == pytest.approx(limit, abs=2.0**-994)

    def test_and_keeps_the_finite_input_term(self):
        g = GateParams(GateKind.AND, n=self.N, alpha=1.0, hill_k=(0.3, 0.9999))
        assert gate_drive(g, (1.0, 1.0)) == hill_act(1.0, 0.9999, self.N)
        assert gate_drive(g, (1.0, 0.0)) == 0.0

    def test_or_with_one_ratio_overflowing(self):
        g = GateParams(GateKind.OR, n=self.N, alpha=1.0, hill_k=(0.3, 0.9999))
        assert gate_drive(g, (1.0, 0.2)) == 1.0

    def test_hill_terms_at_their_limits(self):
        assert hill_act(1.0, 0.3, self.N) == 1.0
        assert hill_rep(1.0, 0.3, self.N) == 0.0
        assert hill_act(1.0, 0.5, self.N) == pytest.approx(1.0, abs=2.0**-994)
        assert hill_rep(1.0, 0.5, self.N) == pytest.approx(0.0, abs=2.0**-994)

    def test_or_sum_overflowing(self):
        # each ratio is about 1.1e308, finite, but their sum is inf
        k = math.exp(-709.3 / self.N)
        g = GateParams(GateKind.OR, n=self.N, alpha=1.0, hill_k=(k, k))
        assert math.isfinite((1.0 / k) ** self.N)
        assert gate_drive(g, (1.0, 1.0)) == 1.0
        assert gate_drives(GateKind.OR, self.N, (1.0, 1.0), [[k, k], [0.5, 0.5]]).tolist() == [
            1.0, gate_drive(GateParams(GateKind.OR, self.N, 1.0, (0.5, 0.5)), (1.0, 1.0))]

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_nan_input_gives_nan(self, kind):
        g = GateParams(kind, n=4, alpha=1.0, hill_k=(0.4, 0.4)[:kind.arity])
        levels = (math.nan, 0.5)[:kind.arity]
        assert math.isnan(gate_drive(g, levels))
        assert np.isnan(gate_drives(kind, 4, levels, [g.hill_k])).all()

    @pytest.mark.parametrize("kind,levels,want", [
        (GateKind.AND, (math.inf, 0.5), hill_act(0.5, 0.4, 4)),
        (GateKind.AND, (0.5, math.inf), hill_act(0.5, 0.4, 4)),
        (GateKind.AND, (math.inf, math.inf), 1.0),
        (GateKind.AND, (math.inf, 0.0), 0.0),
        (GateKind.OR, (math.inf, 0.5), 1.0),
        (GateKind.OR, (0.0, math.inf), 1.0),
        (GateKind.NOT, (math.inf,), 0.0),
    ])
    def test_infinite_input_gives_limit(self, kind, levels, want):
        # (inf/K)^n is inf with no OverflowError raised
        g = GateParams(kind, n=4, alpha=1.0, hill_k=(0.4, 0.4)[:kind.arity])
        assert gate_drive(g, levels) == want
        assert gate_drives(kind, 4, levels, [g.hill_k]).tolist() == [want]

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_batched_matches_scalar(self, kind):
        rng = np.random.default_rng(11)
        ks = rng.uniform(0.002, 1.0, (300, kind.arity))
        ks[:3] = [0.3, 0.9999][:kind.arity]
        ks[3:6] = math.exp(-709.3 / self.N)  # only an OR gate's sum overflows
        for levels in ((1.0, 1.0), (1.0, 0.3), (0.3, 0.0)):
            _assert_matches_gate_drive(kind, self.N, levels[:kind.arity], ks)


class TestCheckKinetics:
    def test_scalars_and_arrays(self):
        check_kinetics(GateKind.AND, 4, 1.0, (0.4, 1.0))
        check_kinetics(GateKind.AND, 4, 1.0, np.full((2, 5), 0.5))

    @pytest.mark.parametrize("n,alpha,hill_k,match", [
        (0, 1.0, (0.4, 0.4), "Hill coefficient"),
        (4, 0.0, (0.4, 0.4), "degradation rate"),
        (4, 1.0, (0.4,), "needs 2 K"),
        (4, 1.0, (0.4, 0.0), r"\(0, 1\]"),
        (4, 1.0, np.array([[0.4, 0.5], [0.4, 1.01]]), r"\(0, 1\]"),
        (4, 1.0, np.array([[0.4, np.nan], [0.4, 0.2]]), r"\(0, 1\]"),
    ])
    def test_rejects(self, n, alpha, hill_k, match):
        with pytest.raises(ValueError, match=match):
            check_kinetics(GateKind.AND, n, alpha, hill_k)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_n_and_alpha(self, bad):
        # NaN passes a bare n <= 0 or alpha <= 0 test
        with pytest.raises(ValueError, match="Hill coefficient n must be finite and > 0"):
            check_kinetics(GateKind.AND, bad, 1.0, (0.4, 0.4))
        with pytest.raises(ValueError, match="degradation rate alpha must be finite and > 0"):
            check_kinetics(GateKind.AND, 4, bad, (0.4, 0.4))
        with pytest.raises(ValueError, match="Hill coefficient n"):
            GateParams(GateKind.NOT, n=bad, alpha=1.0, hill_k=(0.4,))
        with pytest.raises(ValueError, match="degradation rate alpha"):
            GateParams(GateKind.NOT, n=3, alpha=bad, hill_k=(0.4,))


class TestClosedForm:
    def test_half_life(self):
        assert closed_form(1.0, math.log(2), 0.0, 1.0) == pytest.approx(0.5)

    def test_initial_condition(self):
        assert closed_form(0.3, 2.0, 0.9, 0.0) == pytest.approx(0.9)

    def test_crossing_value(self):
        assert closed_form(0.918, 0.9222, 0.0, 4.0) == pytest.approx(0.895, abs=5e-4)

    def test_vectorized(self):
        t = np.linspace(0, 10, 11)
        x = closed_form(0.8, 0.5, 0.1, t)
        assert x.shape == t.shape
        assert np.all(np.diff(x) > 0)  # monotone toward K


class TestTruthTable:
    def test_and_rows(self):
        th = {"u1": TH, "u2": TH, "x": TH}
        rows = truth_table(GateKind.AND, ("u1", "u2"), "x", 4.0, 12.0, th)
        assert len(rows) == 4
        levels = {r.input_levels: r.output_level for r, _ in rows}
        assert levels[(HIGH, HIGH)] == HIGH
        assert levels[(LOW, LOW)] == LOW
        assert levels[(LOW, HIGH)] == LOW

    def test_not_rows(self):
        th = {"u": TH, "x": TH}
        rows = truth_table(GateKind.NOT, ("u",), "x", 4.0, 12.0, th)
        assert len(rows) == 2
        levels = {r.input_levels: r.output_level for r, _ in rows}
        assert levels[(HIGH,)] == LOW and levels[(LOW,)] == HIGH

    def test_or_rows(self):
        th = {"u1": TH, "u2": TH, "x": TH}
        rows = truth_table(GateKind.OR, ("u1", "u2"), "x", 4.0, 12.0, th)
        levels = {r.input_levels: r.output_level for r, _ in rows}
        assert levels[(LOW, HIGH)] == HIGH and levels[(LOW, LOW)] == LOW

    def test_all_high_formula_round_trips(self):
        th = {"xA": TH, "xB": TH, "xC": TH}
        rows = truth_table(GateKind.AND, ("xA", "xB"), "xC", 4.0, 12.0, th)
        row, formula = [rf for rf in rows if rf[0].input_levels == (HIGH, HIGH)][0]
        text = str(formula)
        assert parse(text) == formula
        assert "G[0,16]" in text and "F[0,4]" in text and "G[0,12]" in text
        assert "xC >= 0.75" in text

    def test_rows_in_binary_order(self):
        th = {"u1": TH, "u2": TH, "x": TH}
        rows = truth_table(GateKind.OR, ("u1", "u2"), "x", 4.0, 12.0, th)
        assert [r.input_levels for r, _ in rows] == [
            (LOW, LOW), (LOW, HIGH), (HIGH, LOW), (HIGH, HIGH)]
        rows = truth_table(GateKind.NOT, ("u",), "x", 4.0, 12.0, {"u": TH, "x": TH})
        assert [r.input_levels for r, _ in rows] == [(LOW,), (HIGH,)]

    def test_low_row_uses_deactivation_threshold(self):
        th = {"xA": TH, "xB": TH, "xC": TH}
        rows = truth_table(GateKind.AND, ("xA", "xB"), "xC", 4.0, 12.0, th)
        _, formula = [rf for rf in rows if rf[0].input_levels == (LOW, LOW)][0]
        assert "xA <= 0.25" in str(formula) and "xC <= 0.25" in str(formula)


class TestValidation:
    def test_thresholds(self):
        with pytest.raises(ValueError):
            Thresholds(plus=0.3, minus=0.5)
        with pytest.raises(ValueError):
            Thresholds(plus=0.95, minus=0.2, p=0.1)  # (1+p) plus >= 1
        with pytest.raises(ValueError):
            Thresholds(plus=0.75, minus=0.25, p=0.0)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_margin_below_one(self, p):
        # (1+p)*plus < 1 holds, but (1-p)*minus <= 0 would leave no low target
        with pytest.raises(ValueError, match=r"p must lie in \(0, 1\)"):
            Thresholds(plus=0.3, minus=0.1, p=p)

    def test_only_not_represses(self):
        assert [k for k in GateKind if not k.activating] == [GateKind.NOT]

    def test_tilded(self):
        assert TH.tilde_plus == pytest.approx(0.825)
        assert TH.tilde_minus == pytest.approx(0.225)

    def test_gate_params(self):
        with pytest.raises(ValueError):
            GateParams(GateKind.AND, n=4, alpha=1.0, hill_k=(0.4,))
        with pytest.raises(ValueError):
            GateParams(GateKind.NOT, n=0, alpha=1.0, hill_k=(0.4,))
        with pytest.raises(ValueError):
            GateParams(GateKind.NOT, n=2, alpha=1.0, hill_k=(1.4,))

    def test_row_validation(self):
        with pytest.raises(ValueError):
            ExtendedTruthRow((HIGH,), "mid", 4.0, 12.0)
        with pytest.raises(ValueError):
            ExtendedTruthRow((HIGH,), LOW, -1.0, 12.0)
