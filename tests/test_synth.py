import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.circuit import Circuit, Gate, propagate_timing
from gatesynth.gates import GateKind, GateParams, Thresholds, gate_drive
from gatesynth.synth import (
    GATE_RULES, CurvedRegion, EmptyRegionError, NumericGrid, ParamBox,
    alpha_bound, and_box_m1, and_n_bound_m1, and_n_bound_m2, and_region_m2,
    check_n_bound, export_region_csv, intersect, not_bounds, or_bounds_m1,
    or_n_bound_m2, or_region_m2, sample_region, synthesize_circuit,
    synthesize_numeric, worst_case_output_robustness,
)
from gatesynth.gates import ExtendedTruthRow, truth_table
from gatesynth.worstcase import worst_case

TH_23 = Thresholds(plus=2 / 3, minus=1 / 3, p=0.1)
TH_34 = Thresholds(plus=3 / 4, minus=1 / 4, p=0.1)


class TestAlphaBound:
    def test_published_values(self):
        assert alpha_bound(TH_34, 12.0) == pytest.approx(0.3074, abs=5e-4)
        assert alpha_bound(TH_34, 4.0) == pytest.approx(0.9222, abs=5e-4)

    def test_log_of_forty(self):
        assert alpha_bound(TH_34, 1.0) == pytest.approx(np.log(40), abs=1e-12)

    def test_monotone_in_delta_and_theta(self):
        assert alpha_bound(TH_34, 12.0) < alpha_bound(TH_34, 4.0)
        assert alpha_bound(TH_23, 1.0) < alpha_bound(TH_34, 1.0)


class TestAndBounds:
    def test_m1_n_bounds(self):
        assert and_n_bound_m1(TH_23, TH_23, TH_23) == pytest.approx(3.798, abs=5e-4)
        assert and_n_bound_m1(TH_34, TH_34, TH_34) == pytest.approx(3.2129, abs=5e-4)

    def test_m2_n_bound(self):
        assert and_n_bound_m2(TH_23, TH_23, TH_23) == pytest.approx(2.6818, abs=5e-4)
        assert and_n_bound_m2(TH_34, TH_34, TH_34) < 3.2129

    def test_m2_never_above_m1(self):
        for th in (TH_23, TH_34, Thresholds(0.7, 0.2, 0.05)):
            assert and_n_bound_m2(th, th, th) <= and_n_bound_m1(th, th, th)

    def test_m1_bound_decreases_with_p(self):
        vals = [
            and_n_bound_m1(*(Thresholds(2 / 3, 1 / 3, p),) * 3)
            for p in (0.1, 0.05, 0.01)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_m1_boxes(self):
        box = and_box_m1(TH_23, TH_23, TH_23, 4)
        lo, hi = box.intervals["K1"]
        assert lo == pytest.approx(0.4120, abs=5e-4)
        assert hi == pytest.approx(0.4267, abs=5e-4)
        box = and_box_m1(TH_34, TH_34, TH_34, 4)
        lo, hi = box.intervals["K2"]
        assert lo == pytest.approx(0.3406, abs=5e-4)
        assert hi == pytest.approx(0.4228, abs=5e-4)

    def test_low_n_gives_empty_box(self):
        assert and_box_m1(TH_23, TH_23, TH_23, 3).empty
        assert not and_box_m1(TH_23, TH_23, TH_23, 4).empty


class TestNotBounds:
    def test_published(self):
        nb, box = not_bounds(TH_34, TH_34, 3)
        assert nb == pytest.approx(2.5372, abs=5e-4)
        lo, hi = box.intervals["K1"]
        assert lo == pytest.approx(0.4192, abs=5e-4)
        assert hi == pytest.approx(0.4966, abs=5e-4)

    def test_low_n_empty(self):
        _, box = not_bounds(TH_34, TH_34, 2)
        assert box.empty


class TestOrBounds:
    def test_published_m1(self):
        nb, box = or_bounds_m1(TH_34, TH_34, TH_34, 4)
        assert nb == pytest.approx(3.1681, abs=5e-4)
        lo, hi = box.intervals["K1"]
        assert lo == pytest.approx(0.4050, abs=5e-4)
        assert hi == pytest.approx(0.5090, abs=5e-4)

    def test_low_n_empty(self):
        _, box = or_bounds_m1(TH_34, TH_34, TH_34, 3)
        assert box.empty

    def test_m2_bound_below_m1(self):
        assert or_n_bound_m2(TH_34, TH_34, TH_34) < 3.1681


class TestRegionM2:
    def test_and_inside_outside(self):
        reg = and_region_m2(TH_23, TH_23, TH_23, 4)
        assert reg.contains((0.42, 0.42))
        inside, binding = reg.membership((0.9, 0.9))
        assert not inside

    def test_and_box_contained(self):
        for th in (TH_23, TH_34):
            reg = and_region_m2(th, th, th, 4)
            box = and_box_m1(th, th, th, 4)
            (l1, h1), (l2, h2) = box.intervals["K1"], box.intervals["K2"]
            for k1 in np.linspace(l1, h1, 15):
                for k2 in np.linspace(l2, h2, 15):
                    assert reg.contains((k1, k2)), (th.plus, k1, k2)

    def test_and_region_strictly_larger(self):
        reg = and_region_m2(TH_23, TH_23, TH_23, 4)
        box = and_box_m1(TH_23, TH_23, TH_23, 4)
        grid = np.linspace(0.01, 1.0, 60)
        extra = sum(
            1
            for k1 in grid for k2 in grid
            if reg.contains((k1, k2))
            and not box.contains({"K1": k1, "K2": k2})
        )
        assert extra > 0

    def test_and_requires_n_above_bound(self):
        with pytest.raises(ValueError):
            and_region_m2(TH_23, TH_23, TH_23, 2.0)

    def test_or_box_contained(self):
        reg = or_region_m2(TH_34, TH_34, TH_34, 4)
        _, box = or_bounds_m1(TH_34, TH_34, TH_34, 4)
        (l1, h1), (l2, h2) = box.intervals["K1"], box.intervals["K2"]
        for k1 in np.linspace(l1, h1, 15):
            for k2 in np.linspace(l2, h2, 15):
                assert reg.contains((k1, k2)), (k1, k2)

    def test_or_rectangle_violation(self):
        reg = or_region_m2(TH_34, TH_34, TH_34, 3)
        hi = TH_34.plus * ((1 - TH_34.tilde_plus) / TH_34.tilde_plus) ** (1 / 3)
        inside, binding = reg.membership((hi + 0.05, hi + 0.05))
        assert not inside and "rect" in binding

    def test_or_undefined_curve_points_outside(self):
        # tiny K2 makes the lower-curve denominator nonpositive; the
        # rectangle side must already exclude such points
        reg = or_region_m2(TH_34, TH_34, TH_34, 4)
        inside, binding = reg.membership((0.45, 0.05))
        assert not inside and binding == "K2_rect"

    def test_or_strict_n_bound(self):
        nb = or_n_bound_m2(TH_34, TH_34, TH_34)
        with pytest.raises(ValueError):
            or_region_m2(TH_34, TH_34, TH_34, nb)


@st.composite
def thresholds(draw):
    """Valid thresholds with plus at least 1.25 times minus."""
    minus = draw(st.floats(0.05, 0.45))
    p = draw(st.floats(0.01, 0.25))
    plus = draw(st.floats(1.25 * minus, 0.95 / (1 + p)))
    return Thresholds(plus=plus, minus=minus, p=p)


def steady_state_margins(kind, ths, n, pts):
    """Per point, the smallest margin over the truth-table rows of the
    worst-case steady-state drive: drive - t~+ on rows with a high
    output, t~- - drive on rows with a low one."""
    *ins, out = ths
    rows = [(worst_case(kind, row, ins).levels, row.output_level == "high")
            for row, _ in truth_table(kind, ("a", "b"), "x", 1.0, 1.0,
                                      {"a": ins[0], "b": ins[1], "x": out})]
    margins = []
    for ks in pts.tolist():
        g = GateParams(kind, n=n, alpha=1.0, hill_k=ks)
        drives = [(gate_drive(g, levels), high) for levels, high in rows]
        margins.append(min(d - out.tilde_plus if high else out.tilde_minus - d
                           for d, high in drives))
    return np.array(margins)


class TestMethod2Oracle:
    """Method 2 membership against an independent steady-state check:
    a point is inside exactly when every row's worst-case constant drive
    meets the margined output threshold."""

    @settings(max_examples=50, deadline=None)
    @given(kind=st.sampled_from([GateKind.AND, GateKind.OR]),
           ths=st.tuples(thresholds(), thresholds(), thresholds()),
           dn=st.floats(0.01, 4.0), seed=st.integers(0, 2**32 - 1))
    def test_inside_iff_every_row_holds(self, kind, ths, dn, seed):
        rule = GATE_RULES[kind]
        n = max(rule.n_bound["m2"](*ths), 0.5) + dn
        rng = np.random.default_rng(seed)
        # uniform points, plus points around the Method 1 box where the
        # region boundary is
        box = rule.box(*ths, n)
        near = [
            rng.uniform(*np.clip([min(lo, hi) - 0.1, max(lo, hi) + 0.1], 1e-3, 1.0), 250)
            for lo, hi in box.intervals.values()
        ]
        pts = np.vstack([rng.uniform(1e-3, 1.0, (250, 2)), np.column_stack(near)])
        inside, _ = rule.membership(ths, n, pts[:, 0], pts[:, 1])
        margin = steady_state_margins(kind, ths, n, pts)
        clear = np.abs(margin) >= 1e-7
        assert clear.sum() > 400
        assert np.array_equal(inside[clear], margin[clear] > 0)
        # the Method 1 box lies inside the Method 2 region
        in_box = box.contains_points(pts, ("K1", "K2"))
        assert not (in_box & ~inside).any()


class TestArrayMembership:
    def test_grid_matches_single_points(self):
        for reg in (and_region_m2(TH_34, TH_34, TH_34, 4),
                    or_region_m2(TH_23, TH_34, TH_23, 5)):
            grid = NumericGrid(axes={"K1": (-0.1, 1.0, 23), "K2": (-0.1, 1.0, 29)})
            pts, inside, binding = sample_region(reg, grid)
            assert isinstance(binding, list) and len(binding) == len(pts)
            assert {b for b, ok in zip(binding, inside) if not ok} >= {"positivity"}
            for pt, ok, why in zip(pts, inside, binding):
                assert reg.membership(pt) == (ok, why)

    def test_binding_tie_goes_to_first_constraint(self):
        # the Method 1 box's lower corner is the corner of the AND region's
        # rectangle piece, where the K1 and K2 lower-side slacks are both 0
        reg = and_region_m2(TH_34, TH_34, TH_34, 4)
        (lo1, _), (lo2, _) = and_box_m1(TH_34, TH_34, TH_34, 4).intervals.values()
        assert reg.membership((lo1, lo2)) == (True, "K1_low_rect")
        assert reg.membership((lo1 + 1e-3, lo2)) == (True, "K2_low_rect")


class TestBoxSampling:
    def test_closed_bounds_and_missing_axes(self):
        box = ParamBox({"K1": (0.25, 0.5), "n": (3.0, np.inf)})
        grid = NumericGrid(axes={"K1": (0.0, 1.0, 5), "K2": (0.0, 1.0, 3)})
        pts, inside, binding = sample_region(box, grid)
        assert inside.tolist() == [(0.25 <= k1 <= 0.5) for k1, _ in pts]
        assert binding == ["" if ok else "box" for ok in inside]
        for pt, ok in zip(pts, inside):
            assert box.contains({"K1": pt[0], "K2": pt[1]}) == ok

    def test_empty_box_contains_nothing(self):
        box = ParamBox({"K1": (0.6, 0.4)})
        grid = NumericGrid(axes={"K1": (0.0, 1.0, 11), "K2": (0.0, 1.0, 2)})
        _, inside, binding = sample_region(box, grid)
        assert not inside.any() and set(binding) == {"box"}
        assert not box.contains({"K2": 0.5})


class TestIntersect:
    def test_overlap(self):
        a = ParamBox({"K": (0.0, 1.0)})
        b = ParamBox({"K": (0.5, 2.0)})
        assert intersect([a, b]).intervals["K"] == (0.5, 1.0)

    def test_disjoint_flagged(self):
        a = ParamBox({"K": (0.0, 0.4)})
        b = ParamBox({"K": (0.5, 1.0)})
        assert intersect([a, b]).empty

    def test_absent_axis_is_whole_domain(self):
        a = ParamBox({"K": (0.2, 0.8)})
        b = ParamBox({"n": (3.0, np.inf)})
        out = intersect([a, b])
        assert out.intervals["n"] == (3.0, np.inf)
        assert out.intervals["K"] == (0.2, 0.8)


class TestSynthesizeCircuit:
    def test_half_adder_reproduces_published_bounds(self):
        c = Circuit.from_json("circuits/half_adder.json")
        tb = propagate_timing(c)
        res = synthesize_circuit(c, tb, method="m1")
        for gid in ("C", "E", "G"):
            s = res.gates[gid]
            assert s.n_bound == pytest.approx(3.2129, abs=5e-4)
            lo, hi = s.box.intervals["K1"]
            assert (lo, hi) == pytest.approx((0.3406, 0.4228), abs=5e-4)
        for gid in ("D", "F"):
            s = res.gates[gid]
            assert s.n_bound == pytest.approx(2.5372, abs=5e-4)
            lo, hi = s.box.intervals["K1"]
            assert (lo, hi) == pytest.approx((0.4192, 0.4966), abs=5e-4)
        s = res.gates["S"]
        assert s.n_bound == pytest.approx(3.1681, abs=5e-4)
        assert s.box.intervals["K1"] == pytest.approx((0.4050, 0.5090), abs=5e-4)
        assert res.gates["C"].alpha_min == pytest.approx(0.3074, abs=5e-4)
        for gid in ("D", "E", "F", "G", "S"):
            assert res.gates[gid].alpha_min == pytest.approx(0.9222, abs=5e-4)

    def test_same_kind_gates_get_identical_bounds(self):
        c = Circuit.from_json("circuits/half_adder.json")
        res = synthesize_circuit(c, method="m1")
        assert res.gates["E"].box == res.gates["G"].box

    def test_low_n_names_gate(self):
        c = Circuit.from_json("circuits/half_adder.json")
        with pytest.raises(EmptyRegionError, match="S"):
            synthesize_circuit(c, method="m1", n={"S": 2.0})

    def test_single_and_gate_composition(self):
        th = {"a": TH_34, "b": TH_34, "x": TH_34}
        c = Circuit(
            gates={"M": Gate("M", GateKind.AND, ("a", "b"), "x")},
            external_inputs=("a", "b"),
            outputs=(("M", "out"),),
            thresholds=th, delta=1.0, lam=1.0,
        )
        res = synthesize_circuit(c, method="m1")
        s = res.gates["M"]
        assert s.alpha_min == pytest.approx(np.log(1 / (0.1 * 0.25)), abs=1e-9)
        assert s.box == and_box_m1(TH_34, TH_34, TH_34, 4)


class TestSynthesizeNumeric:
    def _single_and(self):
        th = {"a": TH_34, "b": TH_34, "x": TH_34}
        return Circuit(
            gates={"M": Gate("M", GateKind.AND, ("a", "b"), "x")},
            external_inputs=("a", "b"),
            outputs=(("M", "out"),),
            thresholds=th, delta=4.0, lam=4.0,
        )

    def test_admissible_superset_of_box_interior(self):
        c = self._single_and()
        tb = propagate_timing(c)
        alpha = 2 * alpha_bound(TH_34, tb.delta["M"])
        grid = {"M": NumericGrid(axes={"K1": (0.3, 0.45, 7), "K2": (0.3, 0.45, 7)})}
        params = {"M": GateParams(GateKind.AND, n=4, alpha=alpha, hill_k=(0.4, 0.4))}
        res = synthesize_numeric(c, tb, grid, params, step=0.01)["M"]
        box = and_box_m1(TH_34, TH_34, TH_34, 4)
        for pt, ok in zip(res.points, res.admissible):
            if box.contains({"K1": pt[0], "K2": pt[1]}):
                assert ok

    def test_empty_grid_rejected(self):
        c = self._single_and()
        with pytest.raises(ValueError, match="grid"):
            synthesize_numeric(c, grid={})

    def test_no_admissible_point_distinct_error(self):
        c = self._single_and()
        grid = {"M": NumericGrid(axes={"K1": (0.9, 1.0, 2), "K2": (0.9, 1.0, 2)})}
        with pytest.raises(EmptyRegionError, match="grid"):
            synthesize_numeric(c, grid=grid)

    def test_point_outside_m2_fails_some_row(self):
        # with a negligible safety margin the region boundary coincides
        # with the raw steady-state condition, so stepping outside must
        # push some row's worst-case robustness negative
        th = Thresholds(plus=0.75, minus=0.25, p=1e-6)
        reg = and_region_m2(th, th, th, 4)
        k2 = 0.40
        k1 = 0.40
        while reg.contains((k1, k2)):
            k1 += 0.01
        k1 += 0.05
        alpha = 2 * alpha_bound(th, 4.0)
        rhos = []
        for levels in (("high", "high"), ("high", "low"),
                       ("low", "high"), ("low", "low")):
            row = ExtendedTruthRow(
                levels, GateKind.AND.output_level(levels), 4.0, 4.0)
            rho = worst_case_output_robustness(
                GateKind.AND, row, (th, th), th,
                np.array([[k1, k2]]), 4, alpha, step=0.01)
            rhos.append(rho[0])
        assert min(rhos) < 0

    @pytest.mark.parametrize("ks", [[[0.3, 0.3], [0.3, 0.0]], [[0.3, 1.2]], [[0.3, np.nan]]])
    def test_k_outside_unit_interval_rejected(self, ks):
        row = ExtendedTruthRow(("high", "high"), "high", delta=1.0, lam=1.0)
        with pytest.raises(ValueError, match=r"each Hill K must lie in \(0, 1\]"):
            worst_case_output_robustness(
                GateKind.AND, row, (TH_34, TH_34), TH_34, np.array(ks), 4, 5.0)

    def test_horizon_off_the_step_grid(self):
        # lam + delta = 2.004 is not a multiple of the step; the trace must
        # reach past it, as the simulators' grid does
        row = ExtendedTruthRow(("high", "high"), "high", delta=1.0, lam=1.004)
        rho = worst_case_output_robustness(
            GateKind.AND, row, (TH_34, TH_34), TH_34,
            np.array([[0.3, 0.3]]), 4, 5.0, step=0.01)
        assert rho.shape == (1,) and np.isfinite(rho[0])


class TestRegionExport:
    def test_csv_format(self, tmp_path):
        reg = and_region_m2(TH_34, TH_34, TH_34, 4)
        grid = NumericGrid(axes={"K1": (0.1, 0.9, 5), "K2": (0.1, 0.9, 5)})
        pts, inside, binding = sample_region(reg, grid)
        path = tmp_path / "region.csv"
        export_region_csv(path, pts, inside, binding)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["K1", "K2", "inside", "binding_constraint",
                           "min_robustness"]
        assert len(rows) == 26
        assert {r[2] for r in rows[1:]} <= {"0", "1"}

    def test_gate_box_dispatch(self):
        box = GATE_RULES[GateKind.NOT].box(TH_34, TH_34, 3)
        assert list(box.intervals) == ["K1"]
        assert box == not_bounds(TH_34, TH_34, 3)[1]


class TestRuleTable:
    def test_every_kind_has_a_rule(self):
        assert set(GATE_RULES) == set(GateKind)

    def test_exact_bound_shared_by_m2_and_not(self):
        nb = not_bounds(TH_34, TH_34, 3)[0]
        assert nb == pytest.approx(2.5372, abs=5e-4)
        assert and_n_bound_m2(TH_34, TH_34, TH_34) == nb
        assert or_n_bound_m2(TH_34, TH_34, TH_34) == nb

    def test_only_or_method2_bound_is_strict(self):
        ths = (TH_34, TH_34, TH_34)
        nb = or_n_bound_m2(*ths)
        assert check_n_bound(GateKind.AND, ths, nb, "m2") == nb
        with pytest.raises(EmptyRegionError, match="OR"):
            check_n_bound(GateKind.OR, ths, nb, "m2")
        m1 = GATE_RULES[GateKind.OR].n_bound["m1"](*ths)
        assert check_n_bound(GateKind.OR, ths, m1, "m1") == m1

    def test_not_has_no_method2_region(self):
        with pytest.raises(ValueError, match="NOT"):
            CurvedRegion(kind=GateKind.NOT, thresholds=(TH_34, TH_34), n=3.0)

    def test_default_n_used_by_synthesis(self):
        c = Circuit.from_json("circuits/half_adder.json")
        res = synthesize_circuit(c, method="m1")
        for gid, gs in res.gates.items():
            assert gs.n == GATE_RULES[gs.kind].default_n
