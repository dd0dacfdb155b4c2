import csv
import dataclasses
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gatesynth import synth
from gatesynth.circuit import Circuit, Gate, propagate_timing
from gatesynth.formulas import Atom, Eventually, Globally
from gatesynth.gates import (
    HIGH, GateKind, GateParams, Thresholds, closed_form, gate_drive, gate_drives,
)
from gatesynth.monitor import robustness
from gatesynth.odesim import RK4_MONOTONE_LIMIT, simulate_constant_drive, time_grid
from gatesynth.signals import TIME_TOL, Signal
from gatesynth.synth import (
    CurvedRegion, EmptyRegionError, GateContract, NumericGateResult, NumericGrid, ParamBox,
    alpha_bound, check_n_bound, export_region_csv, k_box, n_bound,
    sample_region, synthesize_circuit, synthesize_numeric,
    worst_case_output_robustness,
)
from gatesynth.synth import _and_share
from gatesynth.gates import ExtendedTruthRow, truth_table
from gatesynth.worstcase import worst_case

from conftest import thresholds

TH_23 = Thresholds(plus=2 / 3, minus=1 / 3, p=0.1)
TH_34 = Thresholds(plus=3 / 4, minus=1 / 4, p=0.1)
AND, NOT, OR = GateKind.AND, GateKind.NOT, GateKind.OR


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
        assert n_bound(AND, (TH_23,) * 3, "m1") == pytest.approx(3.798, abs=5e-4)
        assert n_bound(AND, (TH_34,) * 3, "m1") == pytest.approx(3.2129, abs=5e-4)

    def test_m2_n_bound(self):
        assert n_bound(AND, (TH_23,) * 3, "m2") == pytest.approx(2.6818, abs=5e-4)
        assert n_bound(AND, (TH_34,) * 3, "m2") < 3.2129

    def test_m2_never_above_m1(self):
        for th in (TH_23, TH_34, Thresholds(0.7, 0.2, 0.05)):
            assert n_bound(AND, (th,) * 3, "m2") <= n_bound(AND, (th,) * 3, "m1")

    def test_m1_bound_decreases_with_p(self):
        vals = [
            n_bound(AND, (Thresholds(2 / 3, 1 / 3, p),) * 3, "m1")
            for p in (0.1, 0.05, 0.01)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_m1_boxes(self):
        box = k_box(AND, (TH_23,) * 3, 4)
        lo, hi = box.intervals["K1"]
        assert lo == pytest.approx(0.4120, abs=5e-4)
        assert hi == pytest.approx(0.4267, abs=5e-4)
        box = k_box(AND, (TH_34,) * 3, 4)
        lo, hi = box.intervals["K2"]
        assert lo == pytest.approx(0.3406, abs=5e-4)
        assert hi == pytest.approx(0.4228, abs=5e-4)

    def test_low_n_gives_empty_box(self):
        assert k_box(AND, (TH_23,) * 3, 3).empty
        assert not k_box(AND, (TH_23,) * 3, 4).empty


class TestNotBounds:
    def test_published(self):
        nb, box = n_bound(NOT, (TH_34,) * 2, "m1"), k_box(NOT, (TH_34,) * 2, 3)
        assert nb == pytest.approx(2.5372, abs=5e-4)
        lo, hi = box.intervals["K1"]
        assert lo == pytest.approx(0.4192, abs=5e-4)
        assert hi == pytest.approx(0.4966, abs=5e-4)

    def test_low_n_empty(self):
        box = k_box(NOT, (TH_34,) * 2, 2)
        assert box.empty


class TestOrBounds:
    def test_published_m1(self):
        nb, box = n_bound(OR, (TH_34,) * 3, "m1"), k_box(OR, (TH_34,) * 3, 4)
        assert nb == pytest.approx(3.1681, abs=5e-4)
        lo, hi = box.intervals["K1"]
        assert lo == pytest.approx(0.4050, abs=5e-4)
        assert hi == pytest.approx(0.5090, abs=5e-4)

    def test_low_n_empty(self):
        box = k_box(OR, (TH_34,) * 3, 3)
        assert box.empty

    def test_m2_bound_below_m1(self):
        assert n_bound(OR, (TH_34,) * 3, "m2") < 3.1681


class TestRegionM2:
    def test_and_inside_outside(self):
        reg = CurvedRegion(AND, (TH_23,) * 3, 4)
        assert reg.contains((0.42, 0.42))
        inside, binding = reg.membership((0.9, 0.9))
        assert not inside

    def test_and_box_contained(self):
        for th in (TH_23, TH_34):
            reg = CurvedRegion(AND, (th,) * 3, 4)
            box = k_box(AND, (th,) * 3, 4)
            (l1, h1), (l2, h2) = box.intervals["K1"], box.intervals["K2"]
            for k1 in np.linspace(l1, h1, 15):
                for k2 in np.linspace(l2, h2, 15):
                    assert reg.contains((k1, k2)), (th.plus, k1, k2)

    def test_and_region_strictly_larger(self):
        reg = CurvedRegion(AND, (TH_23,) * 3, 4)
        box = k_box(AND, (TH_23,) * 3, 4)
        grid = np.linspace(0.01, 1.0, 60)
        extra = sum(
            1
            for k1 in grid for k2 in grid
            if reg.contains((k1, k2))
            and not box.contains((k1, k2))
        )
        assert extra > 0

    def test_and_requires_n_above_bound(self):
        with pytest.raises(ValueError):
            CurvedRegion(AND, (TH_23,) * 3, 2.0)

    def test_or_box_contained(self):
        reg = CurvedRegion(OR, (TH_34,) * 3, 4)
        box = k_box(OR, (TH_34,) * 3, 4)
        (l1, h1), (l2, h2) = box.intervals["K1"], box.intervals["K2"]
        for k1 in np.linspace(l1, h1, 15):
            for k2 in np.linspace(l2, h2, 15):
                assert reg.contains((k1, k2)), (k1, k2)

    def test_or_rectangle_violation(self):
        reg = CurvedRegion(OR, (TH_34,) * 3, 3)
        hi = TH_34.plus * ((1 - TH_34.tilde_plus) / TH_34.tilde_plus) ** (1 / 3)
        inside, binding = reg.membership((hi + 0.05, hi + 0.05))
        assert not inside and "rect" in binding

    def test_or_undefined_curve_points_outside(self):
        # tiny K2 makes the lower-curve denominator nonpositive; the
        # rectangle side must already exclude such points
        reg = CurvedRegion(OR, (TH_34,) * 3, 4)
        inside, binding = reg.membership((0.45, 0.05))
        assert not inside and binding == "K2_rect"

    @pytest.mark.parametrize("n", [16.75, 29.75])
    def test_or_next_to_the_low_curve_pole(self, n):
        # one float above g_lo the low curve's denominator rounds to 0
        # (n = 16.75) or below it (29.75), which raised ZeroDivisionError and
        # TypeError; the curve is infinite there
        ths = (TH_23,) * 3
        (e_lo, e_hi), (g_lo, _) = k_box(OR, ths, n, "m2").intervals.values()
        k2 = float(np.nextafter(g_lo, 1.0))
        assert CurvedRegion(OR, ths, n).membership(((e_lo + e_hi) / 2, k2)) == (False, "low_curve")

    def test_or_strict_n_bound(self):
        nb = n_bound(OR, (TH_34,) * 3, "m2")
        with pytest.raises(ValueError):
            CurvedRegion(OR, (TH_34,) * 3, nb)


def steady_state_margins(kind, ths, n, pts):
    """Per point, the smallest margin over the truth-table rows of the
    worst-case steady-state drive: drive - t~+ on rows with a high
    output, t~- - drive on rows with a low one."""
    *ins, out = ths
    rows = [(worst_case(kind, row, ins)[0], row.output_level == "high")
            for row in kind.rows(1.0, 1.0)]
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
        n = max(n_bound(kind, ths, "m2"), 0.5) + dn
        rng = np.random.default_rng(seed)
        # uniform points, plus points around the Method 1 box where the
        # region boundary is
        box = k_box(kind, ths, n)
        near = [
            rng.uniform(*np.clip([min(lo, hi) - 0.1, max(lo, hi) + 0.1], 1e-3, 1.0), 250)
            for lo, hi in box.intervals.values()
        ]
        pts = np.vstack([rng.uniform(1e-3, 1.0, (250, 2)), np.column_stack(near)])
        inside, _ = CurvedRegion(kind, ths, n).judge(pts)
        margin = steady_state_margins(kind, ths, n, pts)
        clear = np.abs(margin) >= 1e-7
        assert clear.sum() > 400
        assert np.array_equal(inside[clear], margin[clear] > 0)
        # the Method 1 box lies inside the Method 2 region
        in_box, _ = box.judge(pts)
        assert not (in_box & ~inside).any()


# per kind, the labels of K1's lower and upper bounds, which name inside
# points (K_max, the cut at K = 1, also names every point of a K2 > 1
# column); an outside point may also be named positivity, or K2_rect (OR)
K1_BOUNDS = {
    AND: ({"low_curve_gamma_a", "low_curve_gamma_b"}, {"high_curve", "K_max"}),
    OR: ({"low_curve"}, {"K1_high_rect", "K_max"}),
}
OUTSIDE_ONLY = {AND: {"positivity"}, OR: {"positivity", "K2_rect"}}


class TestK1Interval:
    """For fixed n and K2 the Method 2 region holds one interval of K1, and
    each label names a bound the region really stops at.  n lies between
    the paper's Method 2 bound and twice the Method 1 bound, so most
    regions hold points."""

    SIDE = 140

    @classmethod
    def columns(cls, kind, ths, u):
        nb = max(n_bound(kind, ths, "m2"), 0.5)
        n = nb + u * (2 * n_bound(kind, ths, "m1") - nb)
        axis = (1e-3, 1.5, cls.SIDE)
        _, inside, binding = sample_region(CurvedRegion(kind, ths, n),
                                           NumericGrid(axes={"K1": axis, "K2": axis}))
        # rows run along K1, columns along K2
        return (inside.reshape(cls.SIDE, cls.SIDE),
                np.array(binding, dtype=object).reshape(cls.SIDE, cls.SIDE))

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from([AND, OR]),
           ths=st.tuples(thresholds(), thresholds(), thresholds()), u=st.floats(1e-3, 1.0))
    def test_one_run_of_inside_points_per_k2_column(self, kind, ths, u):
        inside, _ = self.columns(kind, ths, u)
        starts = inside[1:] & ~inside[:-1]
        assert (starts.sum(axis=0) + inside[0] <= 1).all()

    @settings(max_examples=100, deadline=None)
    @example(kind=AND, ths=(TH_34,) * 3, u=0.2)
    @example(kind=OR, ths=(TH_34,) * 3, u=0.2)
    @given(kind=st.sampled_from([AND, OR]),
           ths=st.tuples(thresholds(), thresholds(), thresholds()), u=st.floats(1e-3, 1.0))
    def test_labels_are_truthful(self, kind, ths, u):
        # an inside point names the nearer bound, and the first outside point
        # on that side carries the same label
        inside, labels = self.columns(kind, ths, u)
        lower, upper = K1_BOUNDS[kind]
        assert set(labels[inside]) <= lower | upper
        assert set(labels[~inside]) <= lower | upper | OUTSIDE_ONLY[kind]
        for col_in, col_labels in zip(inside.T, labels.T):
            outside = np.flatnonzero(~col_in)
            for i in np.flatnonzero(col_in):
                label = col_labels[i]
                j = np.searchsorted(outside, i)
                below, above = outside[j - 1:j], outside[j:j + 1]
                nxt = below if label in lower else above
                assert col_labels[nxt].tolist() in ([], [label]), (i, label)
                if below.size and above.size:
                    # each bound lies less than one grid step inside its
                    # first outside point
                    near_lower, near_upper = i - below[0], above[0] - i
                    if near_lower < near_upper - 1:
                        assert label in lower, (i, label)
                    if near_upper < near_lower - 1:
                        assert label in upper, (i, label)


class TestArrayMembership:
    def test_grid_matches_single_points(self):
        # judge on the whole grid, its blocks in sample_region and the
        # one-point views contains and membership agree at every point
        grid = NumericGrid(axes={"K1": (-0.1, 1.0, 23), "K2": (-0.1, 1.0, 29)})
        box = k_box(AND, (TH_34,) * 3, 4)
        for region in (box, CurvedRegion(AND, (TH_34,) * 3, 4),
                       CurvedRegion(OR, (TH_23, TH_34, TH_23), 5)):
            pts, inside, binding = sample_region(region, grid)
            judged, labels = region.judge(pts)
            assert judged.tobytes() == inside.tobytes() and labels == binding
            assert isinstance(binding, list) and len(binding) == len(pts)
            assert inside.any() and not inside.all()
            if region is box:
                for pt, ok, why in zip(pts, inside, binding):
                    assert box.contains(pt) == ok
                    assert why == ("" if ok else "box")
                continue
            assert {b for b, ok in zip(binding, inside) if not ok} >= {"positivity"}
            for pt, ok, why in zip(pts, inside, binding):
                assert region.membership(pt) == (ok, why)
                assert region.contains(pt) == ok

    def test_label_names_a_bound_the_region_stops_at(self):
        # the AND region continues past its rectangle's lower K1 side a_lo,
        # which was the label here
        reg = CurvedRegion(AND, (TH_34,) * 3, 4)
        (a_lo, _), (b_lo, b_hi) = k_box(AND, (TH_34,) * 3, 4, "m2").intervals.values()
        k2 = (b_lo + b_hi) / 2
        assert reg.contains((a_lo - 1e-3, k2))
        assert reg.membership((a_lo + 1e-3, k2)) == (True, "low_curve_gamma_b")

    def test_curved_region_needs_two_axes(self):
        # one axis gave an IndexError from pts[block, 1] before
        reg = CurvedRegion(AND, (TH_34,) * 3, 4)
        with pytest.raises(ValueError, match="needs two K axes"):
            sample_region(reg, NumericGrid({"K1": (0.1, 1.0, 5)}))

    @pytest.mark.parametrize("shape", [(4, 1), (4, 3), (4,), (2, 2, 2)])
    def test_judge_needs_one_column_per_k(self, shape):
        points = np.full(shape, 0.4)
        with pytest.raises(ValueError, match="a Method 2 region needs two K axes"):
            CurvedRegion(OR, (TH_34,) * 3, 4).judge(points)
        with pytest.raises(ValueError, match="a K box needs one K column per axis"):
            k_box(OR, (TH_34,) * 3, 4).judge(points)
        with pytest.raises(ValueError, match=r"per axis, got points of shape \(4, 2\)"):
            k_box(NOT, (TH_34,) * 2, 3).judge(np.full((4, 2), 0.4))


class TestLargeHillCoefficient:
    # plus and minus nearly coincide, so the Method 2 n bound is about 993,
    # and at n = 994 the powers k^n and theta^n underflow
    TH_IN = Thresholds(0.3, 0.2995)
    TH_OUT = Thresholds(0.6, 0.3)
    N = 994

    @staticmethod
    def exact_share(level, ttC, n, k):
        F = Fraction
        return float(F(level) ** n / (F(ttC) * (F(k) ** n + F(level) ** n)) - 1)

    def test_sample_region_does_not_divide_by_zero(self):
        ths = (self.TH_IN, self.TH_IN, self.TH_OUT)
        nb = n_bound(AND, ths, "m2")
        assert nb < self.N < nb + 1
        reg = CurvedRegion(AND, ths, self.N)
        grid = NumericGrid(axes={"K1": (0.01, 1.0, 50), "K2": (0.01, 1.0, 50)})
        pts, inside, binding = sample_region(reg, grid)
        assert len(pts) == len(binding) == 2500
        for pt, ok, why in zip(pts[::97], inside[::97], binding[::97]):
            assert reg.membership(pt) == (ok, why)

    def test_curve_radicand_matches_exact_arithmetic(self):
        ttp, ttm = self.TH_OUT.tilde_plus, self.TH_OUT.tilde_minus
        for level, ttC in ((0.3, ttp), (1.0, ttm), (0.2995, ttm)):
            for k in np.linspace(0.01, 1.0, 50).tolist():
                want = self.exact_share(level, ttC, self.N, k)
                got = _and_share(level, ttC, self.N, k)
                assert got == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_normal_range_keeps_direct_form(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            level, k = rng.uniform(0.01, 1.0, 2).tolist()
            ttC, n = float(rng.uniform(0.05, 0.95)), float(rng.uniform(1.0, 40.0))
            direct = level**n / (ttC * (k**n + level**n)) - 1.0
            assert _and_share(level, ttC, n, k) == direct

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_worst_case_robustness_past_float_range(self, kind):
        # at K = 0.01 every nonzero input level's ratio overflows; at K = 0.2
        # a threshold level's ratio is finite, about e^400, which puts the
        # drive within e^-400 of its limit
        gc = GateContract(kind, (self.TH_IN,) * kind.arity + (self.TH_OUT,), 1.0, 1.0)
        ks = np.array([[0.01] * kind.arity, [0.2] * kind.arity])
        for row in kind.rows(1.0, 1.0):
            over, finite = worst_case_output_robustness(gc, row, self.N, 5.0, ks)
            assert over == pytest.approx(finite, abs=1e-15)

    def test_box_corners_inside_at_n_26(self):
        # gamma_a's radicand is 0 at K2 = b_lo, the box's lower K2 side, but
        # computed there it rounds to a hair above 0, whose 26th root put the
        # curve at 0.268, above the lower K1 side 0.262
        ths = (TH_34,) * 3
        reg = CurvedRegion(AND, ths, 26.0)
        (a_lo, a_hi), (b_lo, b_hi) = k_box(AND, ths, 26.0).intervals.values()
        for corner in ((a_lo, b_lo), (a_lo, b_hi), (a_hi, b_lo), (a_hi, b_hi)):
            assert reg.contains(corner), corner

    def test_k_above_one_does_not_overflow(self):
        # 3.0**700 overflowed as a float power in the AND curves; a K2 above
        # 1 now leaves its column empty before any curve is evaluated
        th = Thresholds(0.75, 0.25, 0.1)
        and_reg, or_reg = CurvedRegion(AND, (th,) * 3, 700), CurvedRegion(OR, (th,) * 3, 700)
        assert or_reg.membership((0.5, 3.0)) == (False, "K_max")
        assert and_reg.membership((0.5, 3.0)) == (False, "K_max")
        grid = NumericGrid(axes={"K1": (0.05, 3.0, 40), "K2": (0.05, 3.0, 40)})
        for reg in (and_reg, or_reg):
            pts, inside, binding = sample_region(reg, grid)
            assert inside.any() and not inside[(pts > 1).any(axis=1)].any()
            for pt, ok, why in zip(pts, inside, binding):
                assert reg.membership(pt) == (ok, why)


class TestBoxSampling:
    def test_closed_bounds_and_missing_axes(self):
        box = ParamBox({"K1": (0.25, 0.5), "K2": (0.5, 1.0)})
        grid = NumericGrid(axes={"K1": (0.0, 1.0, 5), "K2": (0.0, 1.0, 3)})
        pts, inside, binding = sample_region(box, grid)
        assert inside.tolist() == [(0.25 <= k1 <= 0.5) and k2 >= 0.5 for k1, k2 in pts]
        assert binding == ["" if ok else "box" for ok in inside]
        for pt, ok in zip(pts, inside):
            assert box.contains(pt) == ok
        # a missing axis was taken as unconstrained
        with pytest.raises(ValueError, match="one K column per axis"):
            box.contains((0.3,))

    def test_empty_box_contains_nothing(self):
        box = ParamBox({"K1": (0.6, 0.4)})
        _, inside, binding = sample_region(box, NumericGrid(axes={"K1": (0.0, 1.0, 11)}))
        assert not inside.any() and set(binding) == {"box"}
        assert not box.contains((0.5,))


class TestNumericGridAxes:
    @pytest.mark.parametrize("axes", [
        {"K2": (0.1, 1.0, 3), "K1": (0.1, 1.0, 3)}, {"a": (0.1, 1.0, 3)},
        {"K1": (0.1, 1.0, 3), "K3": (0.1, 1.0, 3)},
    ])
    def test_axes_other_than_k1_to_km_in_order_rejected(self, axes):
        with pytest.raises(ValueError, match=r"grid axes must be \['K1'"):
            NumericGrid(axes)

    @pytest.mark.parametrize("axis,match", [
        ((0.1, 1.0, 2.5), "count must be an integer >= 1, got 2.5"),
        ((0.1, 1.0, 0), "count must be an integer >= 1, got 0"),
        ((0.1, 1.0, True), "count must be an integer >= 1, got True"),
        ((np.nan, 1.0, 5), "bounds must be finite, got nan, 1.0"),
        ((0.1, np.inf, 5), "bounds must be finite, got 0.1, inf"),
    ])
    def test_bad_axis_rejected(self, axis, match):
        # a fractional count made points() raise numpy's TypeError, and a
        # count of 0 or a NaN bound an EmptyRegionError (exit 3)
        with pytest.raises(ValueError, match=f"^grid axis K2: {re.escape(match)}$"):
            NumericGrid({"K1": (0.1, 1.0, 3), "K2": axis})

    def test_negative_reversed_and_numpy_axes_accepted(self):
        grid = NumericGrid({"K1": (1.0, -0.5, np.int64(4)), "K2": (0.5, 0.5, 1)})
        assert grid.points()[:, 0].tolist() == [1.0, 0.5, 0.0, -0.5]

    def test_points_columns_in_k_order(self):
        pts = NumericGrid({"K1": (0.1, 0.2, 2), "K2": (0.5, 0.7, 3)}).points()
        assert pts.tolist() == [[0.1, 0.5], [0.1, 0.6], [0.1, 0.7],
                                [0.2, 0.5], [0.2, 0.6], [0.2, 0.7]]


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

    def test_m2_between_the_two_bounds_has_no_box(self):
        # E's Method 2 bound is 2.537, its Method 1 bound 3.213
        c = Circuit.from_json("circuits/half_adder.json")
        e = synthesize_circuit(c, method="m2", n={"E": 2.9}).gates["E"]
        assert e.box is None and e.region.n == 2.9
        assert e.n_bound == pytest.approx(2.5372, abs=5e-4)
        assert "k_box" not in e.to_dict()
        with pytest.raises(EmptyRegionError, match="'E'"):
            synthesize_circuit(c, method="m1", n={"E": 2.9})

    def test_low_n_names_gate(self):
        c = Circuit.from_json("circuits/half_adder.json")
        with pytest.raises(EmptyRegionError, match="S"):
            synthesize_circuit(c, method="m1", n={"S": 2.0})

    def test_unknown_gate_in_n_rejected(self):
        # a mistyped gate id was ignored and every gate kept its default n
        c = Circuit.from_json("circuits/half_adder.json")
        with pytest.raises(ValueError, match=r"not in the circuit: \['Y', 'ZZ'\]"):
            synthesize_circuit(c, n={"ZZ": 4.0, "S": 4.0, "Y": 4.0})

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
        assert s.box == k_box(AND, (TH_34,) * 3, 4)


class TestGateRegions:
    """:func:`gate_regions` is the one rule for a gate's bound, box and
    region, which ``synthesize_circuit`` and the CLI ``region`` share."""

    @pytest.mark.parametrize("method", ["m1", "m2"])
    def test_synthesis_takes_each_gate_from_it(self, method):
        c = Circuit.from_json("circuits/half_adder.json")
        tb = propagate_timing(c)
        res = synthesize_circuit(c, tb, method=method, n={"E": 2.9} if method == "m2" else None)
        for gid, gs in res.gates.items():
            gc = GateContract.of(c, tb, gid)
            got = synth.gate_regions(gc.kind, gc.thresholds, gs.n, method, gid)
            assert got == (gs.n_bound, gs.box, gs.region)

    @pytest.mark.parametrize("kind,method,th", [
        (OR, "m1", TH_34), (AND, "m1", Thresholds(0.6, 0.2)), (NOT, "m1", Thresholds(0.6, 0.1)),
        (NOT, "m2", Thresholds(0.6, 0.1)),
    ])
    def test_box_empty_at_the_exact_bound_raises(self, kind, method, th):
        # n equal to the bound passes check_n_bound, but rounding leaves
        # the box empty; the region command sampled it, 0 points inside
        ths = (th,) * (kind.arity + 1)
        nb = n_bound(kind, ths, method)
        assert check_n_bound(kind, ths, nb, method) == nb and k_box(kind, ths, nb).empty
        with pytest.raises(EmptyRegionError, match=f"'{kind.value}': Method 1 K intervals cross"):
            synth.gate_regions(kind, ths, nb, method)
        with pytest.raises(EmptyRegionError, match="'Z': Method 1"):
            synth.gate_regions(kind, ths, nb, method, "Z")

    def test_m2_keeps_the_region_where_the_box_is_empty(self):
        ths = (Thresholds(0.6, 0.2),) * 3
        n = n_bound(AND, ths, "m1")
        nb, box, region = synth.gate_regions(AND, ths, n, "m2")
        assert (nb, box, region) == (n_bound(AND, ths, "m2"), None, CurvedRegion(AND, ths, n))

    # one OR gate's thresholds (inputs, inputs, output) whose Method 1 box
    # lies wholly above K = 1 at n = 1.5 and reaches past it at n = 3
    TH_HIGH_K = (Thresholds(0.7, 0.1), Thresholds(0.7, 0.1), Thresholds(0.2, 0.05))

    def test_box_above_k_one_raises(self):
        ths = self.TH_HIGH_K
        assert k_box(OR, ths, 1.5).intervals["K1"] == pytest.approx((1.2168, 1.6276), abs=5e-5)
        with pytest.raises(EmptyRegionError, match="'S': Method 1 K box lies above K = 1"):
            synth.gate_regions(OR, ths, 1.5, "m1", "S")
        # under m2 the region stays, beside no box
        assert synth.gate_regions(OR, ths, 1.5, "m2") == (
            n_bound(OR, ths, "m2"), None, CurvedRegion(OR, ths, 1.5))

    def test_box_cut_at_k_one(self):
        ths = self.TH_HIGH_K
        (lo, hi), _ = k_box(OR, ths, 3.0).intervals.values()
        assert lo < 1 < hi
        _, box, _ = synth.gate_regions(OR, ths, 3.0, "m1")
        assert box == ParamBox({"K1": (lo, 1.0), "K2": (lo, 1.0)})
        # a box inside (0, 1] is kept as it is
        assert synth.gate_regions(OR, (TH_34,) * 3, 4.0, "m1")[1] == k_box(OR, (TH_34,) * 3, 4.0)

    def test_region_cut_at_k_one(self):
        # the Method 2 region held 23,941 points of this grid at n = 2,
        # 16,557 of them with a K above 1, and at n = 1.5 its 11,142 points
        # all had one
        grid = NumericGrid({"K1": (0.005, 3.0, 600), "K2": (0.005, 3.0, 600)})
        region = CurvedRegion(OR, self.TH_HIGH_K, 2.0)
        pts, inside, binding = sample_region(region, grid)
        assert inside.sum() == 7384 and (pts[inside] <= 1).all()
        assert set(np.array(binding, dtype=object)[(pts[:, 1] > 1)]) == {"K_max"}
        # the cut takes no edge tolerance: K1 one float above 1 is outside
        k2 = pts[inside & (pts[:, 0] == 1.0)][0, 1]
        assert region.membership((1.0, k2)) == (True, "K_max")
        assert region.membership((np.nextafter(1.0, 2.0), k2)) == (False, "K_max")
        _, inside, binding = sample_region(CurvedRegion(OR, self.TH_HIGH_K, 1.5), grid)
        assert not inside.any() and "K_max" in binding

    def test_not_under_m2_names_m2(self):
        with pytest.raises(EmptyRegionError, match="'NOT': m2 needs n >= 2.5372"):
            synth.gate_regions(NOT, (TH_34,) * 2, 1.0, "m2")


class TestGateContract:
    # the half-adder's gates with their variables, inputs first
    VARS = {"D": ("B", "xD"), "F": ("A", "xF"), "E": ("A", "xD", "xE"),
            "G": ("xF", "B", "xG"), "S": ("xE", "xG", "xS"), "C": ("A", "B", "xC")}

    @staticmethod
    def half_adder(distinct=False):
        """The half-adder, each variable given its own thresholds if
        ``distinct``, so that their order shows."""
        data = json.loads(Path("circuits/half_adder.json").read_text())
        if distinct:
            for i, var in enumerate(sorted(data["thresholds"])):
                data["thresholds"][var] = {"plus": 0.6 + 0.02 * i, "minus": 0.1 + 0.02 * i}
        return Circuit.from_dict(data)

    def test_of_half_adder(self):
        c = self.half_adder(distinct=True)
        tb = propagate_timing(c)
        assert set(self.VARS) == set(c.gates)
        for gid, names in self.VARS.items():
            gc = GateContract.of(c, tb, gid)
            assert gc.kind is c.gates[gid].kind
            assert gc.thresholds == tuple(c.thresholds[v] for v in names)
            assert (gc.delta, gc.lam) == (tb.delta[gid], tb.lam[gid])
            assert gc.alpha_min == alpha_bound(c.thresholds[names[-1]], tb.delta[gid])

    def test_kind_given_by_name(self):
        gc = GateContract("AND", (TH_34,) * 3, 4.0, 4.0)
        assert gc.kind is AND
        assert gc.margins([[0.4, 0.4]], 4.0, gc.alpha_min).shape == (4, 1)
        with pytest.raises(ValueError, match="'and' is not a valid GateKind"):
            GateContract("and", (TH_34,) * 3, 4.0, 4.0)

    @pytest.mark.parametrize("gid", ["E", "S", "D"])
    def test_margins_are_the_kernel_per_truth_table_row(self, gid):
        c = self.half_adder(distinct=True)
        tb = propagate_timing(c)
        gc, g = GateContract.of(c, tb, gid), c.gates[gid]
        ks = np.random.default_rng(7).uniform(0.05, 1.0, (40, g.kind.arity))
        alpha = 1.5 * gc.alpha_min
        got = gc.margins(ks, 4.0, alpha)
        table = truth_table(g.kind, g.inputs, g.output, gc.delta, gc.lam, c.thresholds)
        assert got.shape == (len(table), 40)
        for margin, (row, _) in zip(got, table):
            want = worst_case_output_robustness(gc, row, 4.0, alpha, ks)
            assert margin.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gid,axes", [
        ("E", {"K1": (-0.1, 0.6, 15), "K2": (0.1, 1.2, 12)}),
        ("S", {"K1": (0.1, 1.2, 12), "K2": (-0.1, 0.6, 15)}),
        ("D", {"K1": (-0.5, 1.5, 41)}),
    ])
    def test_numeric_min_robustness_is_the_margins_minimum(self, gid, axes):
        c = self.half_adder()
        tb = propagate_timing(c)
        res = synthesize_numeric(c, tb, {gid: NumericGrid(axes)})[gid]
        gc = GateContract.of(c, tb, gid)
        valid = ((res.points > 0) & (res.points <= 1)).all(axis=1)
        assert valid.any() and not valid.all()
        want = np.full(len(res.points), -np.inf)
        want[valid] = gc.margins(res.points[valid], gc.kind.default_n,
                                 gc.alpha_min).min(axis=0)
        assert res.min_robustness.tobytes() == want.tobytes()
        assert np.array_equal(res.admissible, want >= 0.0) and res.admissible.any()


class TestMarginsMonotoneInK:
    """Each row's worst-case margin is monotone in each K, exactly.

    An activating kind's drive falls as one of its K rises and a NOT
    gate's rises; each x_k is monotone in the drive, and the monitor's
    min and max keep that order.  So a high row's margin moves with the
    drive and a low row's against it, with no rounding slack.
    """

    # an AND contract whose (low, high) row lost its order at the last
    # ulp when x_k was computed as d + A^k*(x0 - d)
    FOUND = dict(
        kind=AND,
        ths=(Thresholds(0.5, 0.01171875, 0.5), Thresholds(0.5, 0.25, 0.5),
             Thresholds(0.5, 0.0625, 0.5)),
        n_scale=7.6875 / 4.0, delta=1.375, lam=1.0, alpha_scale=1.0,
        k=(0.4375, 0.0078125), k_other=0.125, axis=1,
    )

    @settings(max_examples=200, deadline=None)
    @example(**FOUND)
    @given(kind=st.sampled_from(list(GateKind)),
           ths=st.tuples(thresholds(), thresholds(), thresholds()),
           n_scale=st.floats(0.5, 2.0), delta=st.floats(0.5, 20.0), lam=st.floats(0.5, 20.0),
           alpha_scale=st.floats(1.0, 3.0),
           k=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
           k_other=st.floats(1e-3, 1.0), axis=st.integers(0, 1))
    def test_each_row_moves_the_predicted_way(self, kind, ths, n_scale, delta, lam,
                                              alpha_scale, k, k_other, axis):
        gc = GateContract(kind, ths[:kind.arity] + ths[-1:], delta, lam)
        axis %= kind.arity
        pts = np.array([k[:kind.arity]] * 2)
        pts[:, axis] = sorted((k[axis], k_other))
        n = n_scale * kind.default_n
        margins = gc.margins(pts, n, alpha_scale * gc.alpha_min)
        for row, (at_lo, at_hi) in zip(kind.rows(delta, lam), margins):
            if (row.output_level == HIGH) != kind.activating:
                assert at_lo <= at_hi, row
            else:
                assert at_lo >= at_hi, row


def test_numeric_results_compared_by_identity():
    # a field-by-field == would compare arrays, whose truth is ambiguous
    a, b = (NumericGateResult(np.zeros((2, 2)), np.ones(2, bool), np.zeros(2)) for _ in "ab")
    assert a == a and a != b


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
        pts = NumericGrid(axes={"K1": (0.3, 0.45, 7), "K2": (0.3, 0.45, 7)}).points()
        admissible = GateContract.of(c, tb, "M").margins(pts, 4, alpha, 0.01).min(axis=0) >= 0
        box = k_box(AND, (TH_34,) * 3, 4)
        for pt, ok in zip(pts, admissible):
            if box.contains(pt):
                assert ok

    def test_empty_grid_rejected(self):
        c = self._single_and()
        with pytest.raises(ValueError, match="grid"):
            synthesize_numeric(c, grid={})

    def test_unknown_gate_in_grid_rejected_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking the gate ids")

        monkeypatch.setattr(synth, "simulate_constant_drive", no_simulation)
        axes = NumericGrid(axes={"K1": (0.3, 0.45, 3), "K2": (0.3, 0.45, 3)})
        grid = {"M": axes, "ZZ": axes, "Y": axes}
        with pytest.raises(ValueError, match=r"not in the circuit: \['Y', 'ZZ'\]"):
            synthesize_numeric(self._single_and(), None, grid)

    def test_step_defaults_to_the_circuit_h(self):
        # as in verify: the circuit's sim.h, else 0.01
        grid = NumericGrid(axes={"K1": (0.3, 0.45, 4), "K2": (0.3, 0.45, 4)})
        plain = self._single_and()
        gc = GateContract.of(plain, propagate_timing(plain), "M")

        def rho(c):
            return synthesize_numeric(c, grid={"M": grid})["M"].min_robustness.tolist()

        def margins(step):
            n = AND.default_n
            return gc.margins(grid.points(), n, gc.alpha_min, step).min(axis=0).tolist()

        assert rho(plain) == margins(0.01)
        assert rho(dataclasses.replace(plain, sim={"h": 0.25})) == margins(0.25) != margins(0.01)

    def test_step_above_the_monotone_limit_refused(self):
        # alpha_min * sim.h = 1.3: no grid point gets a verdict
        plain = self._single_and()
        gc = GateContract.of(plain, propagate_timing(plain), "M")
        c = dataclasses.replace(plain, sim={"h": 1.3 / gc.alpha_min})
        grid = NumericGrid(axes={"K1": (0.3, 0.45, 2), "K2": (0.3, 0.45, 2)})
        with pytest.raises(ValueError, match=r"^AND row \w+/\w+ -> \w+: alpha\*step = 1.3 "
                                             r"exceeds the RK4 monotone limit 1.2956"):
            synthesize_numeric(c, grid={"M": grid})

    @pytest.mark.parametrize("axes", [{"K1": (0.3, 0.45, 3)},
                                      {f"K{i}": (0.3, 0.45, 3) for i in (1, 2, 3)}])
    def test_wrong_number_of_axes_rejected(self, axes):
        with pytest.raises(ValueError, match=r"gate 'M': AND gate takes 2 grid axis\(es\), got"):
            synthesize_numeric(self._single_and(), grid={"M": NumericGrid(axes=axes)})

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
        reg = CurvedRegion(AND, (th,) * 3, 4)
        k2 = 0.40
        k1 = 0.40
        while reg.contains((k1, k2)):
            k1 += 0.01
        k1 += 0.05
        alpha = 2 * alpha_bound(th, 4.0)
        rhos = GateContract(AND, (th,) * 3, 4.0, 4.0).margins(
            np.array([[k1, k2]]), 4, alpha, step=0.01)
        assert rhos.shape == (4, 1) and rhos.min() < 0

    @pytest.mark.parametrize("ks", [[[0.3, 0.3], [0.3, 0.0]], [[0.3, 1.2]], [[0.3, np.nan]]])
    def test_k_outside_unit_interval_rejected(self, ks):
        row = ExtendedTruthRow(("high", "high"), "high", delta=1.0, lam=1.0)
        with pytest.raises(ValueError, match=r"each Hill K must lie in \(0, 1\]"):
            worst_case_output_robustness(
                GateContract(AND, (TH_34,) * 3, 1.0, 1.0), row, 4, 5.0, np.array(ks))

    def test_horizon_off_the_step_grid(self):
        # lam + delta = 2.004 is not a multiple of the step; the trace must
        # reach past it, as the simulators' grid does
        row = ExtendedTruthRow(("high", "high"), "high", delta=1.0, lam=1.004)
        rho = worst_case_output_robustness(
            GateContract(AND, (TH_34,) * 3, 1.0, 1.004), row, 4, 5.0,
            np.array([[0.3, 0.3]]), step=0.01)
        assert rho.shape == (1,) and np.isfinite(rho[0])


def per_point_robustness(contract, row, n, alpha, k_values, step=0.01,
                         output_var="x"):
    """worst_case_output_robustness as a loop with one Signal per K point,
    kept as the reference for the one-Signal-per-row form."""
    kind, (*input_ths, output_th) = contract.kind, contract.thresholds
    levels, x0 = worst_case(kind, row, input_ths)
    k_values = np.atleast_2d(np.asarray(k_values, dtype=float))
    drives = gate_drives(kind, n, levels, k_values)
    times = time_grid(row.lam + row.delta, step)
    traj = simulate_constant_drive(
        drives, alpha, np.full(len(drives), x0), step, times.size - 1
    )
    high = row.output_level == HIGH
    f = Eventually(0.0, row.delta, Globally(0.0, row.lam, Atom(
        output_var, ">=" if high else "<=", output_th.plus if high else output_th.minus,
    )))
    rhos = np.empty(len(drives))
    for i in range(len(drives)):
        sig = Signal(times=times, values={output_var: traj[:, i]})
        rhos[i] = robustness(f, sig, 0.0)
    return rhos


class TestWorstCaseRobustness:
    TH_IN = Thresholds(plus=0.7, minus=0.2, p=0.1)
    TH_OUT = Thresholds(plus=0.6, minus=0.35, p=0.1)

    @pytest.mark.parametrize("kind", list(GateKind))
    @pytest.mark.parametrize("n_points", [1, 900])
    def test_bitwise_equal_to_per_point_signals(self, kind, n_points):
        # lam + delta = 2.004 is off the step grid
        rng = np.random.default_rng(n_points)
        ks = rng.uniform(0.05, 1.0, (n_points, kind.arity))
        gc = GateContract(kind, (self.TH_IN,) * kind.arity + (self.TH_OUT,), 1.0, 1.004)
        for row in kind.rows(1.0, 1.004):
            args = (gc, row, 4.0, 3.0, ks)
            got = worst_case_output_robustness(*args)
            assert got.tobytes() == per_point_robustness(*args).tobytes()

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_each_row_refused_above_the_monotone_limit(self, kind):
        gc = GateContract(kind, (self.TH_IN,) * kind.arity + (self.TH_OUT,), 1.0, 1.004)
        ks = np.full((1, kind.arity), 0.5)
        rows = kind.rows(1.0, 1.004)
        assert gc.margins(ks, 4.0, 1.29 / 0.1, 0.1).shape == (len(rows), 1)
        for row in rows:
            name = f"{kind.value} row {'/'.join(row.input_levels)} -> {row.output_level}"
            with pytest.raises(ValueError) as info:
                worst_case_output_robustness(gc, row, 4.0, 1.3 / 0.1, ks, 0.1)
            assert str(info.value).startswith(
                f"{name}: alpha*step = 1.3 exceeds the RK4 monotone limit 1.2956")

    def test_a_row_of_another_contract_refused(self):
        # the half-adder's NOT gate D: its row low -> high gives 0.11667 at
        # K = 0.5; the same row with ten times D's delta gave 0.13889
        c = Circuit.from_json("circuits/half_adder.json")
        gc = GateContract.of(c, propagate_timing(c), "D")
        row, = (r for r in gc.kind.rows(gc.delta, gc.lam) if r.output_level == HIGH)
        ks = np.array([[0.5]])
        rho = worst_case_output_robustness(gc, row, 3.0, gc.alpha_min, ks)
        assert rho == pytest.approx([0.11667], abs=5e-6)
        foreign = dataclasses.replace(row, delta=10 * row.delta)
        with pytest.raises(ValueError, match="^NOT row low -> high: not a row of the contract"):
            worst_case_output_robustness(gc, foreign, 3.0, gc.alpha_min, ks)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(list(GateKind)), row_index=st.integers(0, 3),
           th_in=thresholds(), th_out=thresholds(), n=st.floats(1.0, 12.0),
           alpha_h=st.floats(0.001, 0.1) | st.floats(0.1, RK4_MONOTONE_LIMIT)
           | st.floats(RK4_MONOTONE_LIMIT, 2.78, exclude_min=True),
           step=st.sampled_from([0.01, 0.05, 0.1]),
           delta=st.floats(0.05, 3.0), lam=st.floats(0.05, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_sampled_endpoint_oracle(self, kind, row_index, th_in, th_out, n,
                                     alpha_h, step, delta, lam, seed):
        """The worst-case robustness is the trajectory's sample at delta.

        Above the RK4 monotone limit the row is refused.  Below it RK4
        moves monotonically toward a constant drive, so F[0,delta]
        G[0,lam] picks the last sample in [0, delta].
        RK4 lags the exact solution, so the continuous-time robustness is
        never below the sampled one (up to rounding in the closed form,
        seen at 1e-16).  Where alpha*h <= 0.1 the RK4 error
        stays below 1e-6 and the exact solution converges at rate at most
        alpha, so the gap is at most alpha times the part of delta past
        that sample, plus 1e-6.
        """
        alpha = alpha_h / step
        gc = GateContract(kind, (th_in,) * kind.arity + (th_out,), delta, lam)
        rows = kind.rows(delta, lam)
        row = rows[row_index % len(rows)]
        ks = np.random.default_rng(seed).uniform(0.01, 1.0, (8, kind.arity))
        if alpha * step > RK4_MONOTONE_LIMIT:
            with pytest.raises(ValueError, match="exceeds the RK4 monotone limit 1.2956"):
                worst_case_output_robustness(gc, row, n, alpha, ks, step)
            return
        rho = worst_case_output_robustness(gc, row, n, alpha, ks, step)

        levels, x0 = worst_case(kind, row, (th_in,) * kind.arity)
        drives = gate_drives(kind, n, levels, ks)
        times = time_grid(lam + delta, step)
        traj = simulate_constant_drive(drives, alpha, np.full(8, x0), step, times.size - 1)
        j = math.floor((delta + TIME_TOL) / step)  # the monitor's window rule
        x_cont = closed_form(drives, alpha, x0, delta)
        if row.output_level == HIGH:
            want, rho_cont = traj[j] - th_out.plus, x_cont - th_out.plus
        else:
            want, rho_cont = th_out.minus - traj[j], th_out.minus - x_cont
        assert rho.tobytes() == want.tobytes()
        gap = rho_cont - rho
        assert np.all(gap >= -1e-12)
        if alpha_h <= 0.1:
            assert np.all(gap <= alpha * max(delta - j * step, 0.0) + 1e-6)


class TestRegionExport:
    def test_csv_format(self, tmp_path):
        reg = CurvedRegion(AND, (TH_34,) * 3, 4)
        grid = NumericGrid(axes={"K1": (0.1, 0.9, 5), "K2": (0.1, 0.9, 5)})
        pts, inside, binding = sample_region(reg, grid)
        path = tmp_path / "region.csv"
        export_region_csv(path, pts, inside, binding)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["K1", "K2", "inside", "binding_constraint"]
        assert len(rows) == 26
        assert {r[2] for r in rows[1:]} <= {"0", "1"}

    @staticmethod
    def per_row_export(path, points, inside, binding):
        """The row-at-a-time region writer the column-wise one replaced,
        kept as the oracle for its bytes."""
        points = np.atleast_2d(points)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["K1", "K2", "inside", "binding_constraint"])
            for i, pt in enumerate(points):
                k2 = f"{pt[1]:.10g}" if pt.size > 1 else ""
                w.writerow([f"{pt[0]:.10g}", k2, int(bool(inside[i])), binding[i]])

    @pytest.mark.parametrize("rows", [1, 1025])
    @pytest.mark.parametrize("axes", [1, 2])
    @pytest.mark.parametrize("labelled", [True, False])
    def test_bytes_match_per_row_writer(self, tmp_path, rows, axes, labelled):
        rng = np.random.default_rng([rows, axes])
        pts = rng.normal(0.0, 1.0, (rows, axes)) * 10.0 ** rng.integers(-300, 300, (rows, axes))
        special = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 2.5e-310, 1e16]
        pts.flat[:len(special)] = special[:pts.size]
        inside = rng.random(rows) < 0.5
        # unlabelled: every row blank, as where no constraint binds
        labels = ["", "box", "a,b", 'q"x', "row 1"] if labelled else [""]
        binding = [labels[i % len(labels)] for i in range(rows)]
        oracle = tmp_path / "oracle.csv"
        self.per_row_export(oracle, pts, inside, binding)
        for dest in (str(tmp_path / "str.csv"), tmp_path / "path.csv"):
            export_region_csv(dest, pts, inside, binding)
            assert Path(dest).read_bytes() == oracle.read_bytes()

    def test_sampled_regions_match_per_row_writer(self, tmp_path):
        grid = NumericGrid(axes={"K1": (0.02, 1.0, 40), "K2": (0.02, 1.0, 40)})
        cases = [
            (CurvedRegion(AND, (TH_34,) * 3, 4), grid),
            (k_box(NOT, (TH_34,) * 2, 3), NumericGrid(axes={"K1": (0.02, 1.0, 40)})),
        ]
        for region, g in cases:
            pts, inside, binding = sample_region(region, g)
            self.per_row_export(tmp_path / "want.csv", pts, inside, binding)
            export_region_csv(tmp_path / "got.csv", pts, inside, binding)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("short", ["inside", "binding"])
    def test_short_column_rejected_before_writing(self, tmp_path, short):
        cols = {"inside": np.ones(3, bool), "binding": ["a", "b", "c"]}
        cols[short] = cols[short][:2]
        path = tmp_path / "region.csv"
        with pytest.raises(ValueError, match="an entry per point"):
            export_region_csv(path, np.zeros((3, 2)), **cols)
        assert not path.exists()

    @pytest.mark.parametrize("long", ["inside", "binding"])
    def test_long_column_rejected_before_writing(self, tmp_path, long):
        cols = {"inside": np.ones(3, bool), "binding": ["a", "b", "c"]}
        cols[long] = np.concatenate([cols[long], cols[long][:1]])
        path = tmp_path / "region.csv"
        with pytest.raises(ValueError, match="an entry per point"):
            export_region_csv(path, np.zeros((3, 2)), **cols)
        assert not path.exists()

    def test_flat_points_rejected_before_writing(self, tmp_path):
        # read as one 1x3 point before, which wrote the single row 0.1,0.2,1,,
        path = tmp_path / "region.csv"
        with pytest.raises(ValueError, match="points must be"):
            export_region_csv(path, np.array([0.1, 0.2, 0.3]), np.array([True, False, True]),
                              ["", "box", ""])
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(), (3, 3), (3, 0), (3, 2, 1)])
    def test_points_of_other_shapes_rejected_before_writing(self, tmp_path, shape):
        path = tmp_path / "region.csv"
        with pytest.raises(ValueError, match="points must be"):
            export_region_csv(path, np.zeros(shape), np.ones(3, bool), ["box"] * 3)
        assert not path.exists()

    def test_gate_box_dispatch(self):
        box = k_box(GateKind.NOT, (TH_34, TH_34), 3)
        assert list(box.intervals) == ["K1"]
        assert box == k_box(NOT, (TH_34,) * 2, 3)


class TestOneBoundFormula:
    """:func:`n_bound` is exactly where :func:`k_box` becomes nonempty, for
    every kind and method."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(list(GateKind)), method=st.sampled_from(["m1", "m2"]),
           ths=st.tuples(thresholds(), thresholds(), thresholds()))
    def test_box_nonempty_from_the_bound(self, kind, method, ths):
        ths = ths[: kind.arity] + ths[-1:]
        nb = n_bound(kind, ths, method)
        if nb <= 0:
            return
        assert not k_box(kind, ths, nb * (1 + 1e-9), method).empty
        assert k_box(kind, ths, nb * (1 - 1e-9), method).empty

    def test_repressor_bases_are_reciprocals(self):
        # the NOT interval is the activator's of the exact target, mirrored
        n = 3.0
        act_lo, act_hi = k_box(GateKind.AND, (TH_34, TH_34, TH_34), n, "m2").intervals["K1"]
        rep_lo, rep_hi = k_box(GateKind.NOT, (TH_34, TH_34), n).intervals["K1"]
        assert rep_lo / TH_34.minus == pytest.approx(TH_34.plus / act_hi)
        assert rep_hi / TH_34.plus == pytest.approx(TH_34.minus / act_lo)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            n_bound(GateKind.AND, (TH_34, TH_34, TH_34), "m3")


class TestThresholdCount:
    """Every entry point that takes a thresholds tuple (inputs..., output)
    refuses one with another count of input thresholds than the kind has
    inputs, naming the kind, its arity and the count."""

    ENTRY_POINTS = {
        "n_bound": lambda kind, ths: n_bound(kind, ths, "m1"),
        "k_box": lambda kind, ths: k_box(kind, ths, 4.0),
        "check_n_bound": lambda kind, ths: check_n_bound(kind, ths, 4.0, "m2"),
        "gate_regions": lambda kind, ths: synth.gate_regions(kind, ths, 4.0, "m1"),
        "CurvedRegion": lambda kind, ths: CurvedRegion(kind, ths, 4.0),
        "GateContract": lambda kind, ths: GateContract(kind, ths, 4.0, 12.0),
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("kind,count", [(AND, 1), (AND, 3), (OR, 1)])
    def test_mis_sized_thresholds_rejected(self, entry, kind, count):
        msg = rf"^{kind.value} gate takes 2 input threshold\(s\), got {count}$"
        with pytest.raises(ValueError, match=msg):
            self.ENTRY_POINTS[entry](kind, (TH_34,) * (count + 1))


class TestRuleTable:
    def test_each_kind_carries_its_truth_table(self):
        tables = {
            AND: {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
            OR: {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
            NOT: {(0,): 1, (1,): 0},
        }
        assert set(tables) == set(GateKind)
        for kind, table in tables.items():
            got = {bits: int(kind.truth(tuple(map(bool, bits))))
                   for bits in itertools.product((0, 1), repeat=kind.arity)}
            assert got == table, kind
            assert len(kind.rows(1.0, 2.0)) == 2 ** kind.arity

    def test_exact_bound_shared_by_m2_and_not(self):
        nb = n_bound(NOT, (TH_34,) * 2, "m1")
        assert nb == pytest.approx(2.5372, abs=5e-4)
        assert n_bound(AND, (TH_34,) * 3, "m2") == nb
        assert n_bound(OR, (TH_34,) * 3, "m2") == nb

    @pytest.mark.parametrize("n", [float("nan"), float("inf"), 0.0, -1.0])
    def test_n_bound_check_rejects_non_finite_or_non_positive_n(self, n):
        # NaN passes an n < bound test, and inf reaches every bound
        for method in ("m1", "m2"):
            with pytest.raises(ValueError, match="Hill coefficient n must be finite"):
                check_n_bound(GateKind.AND, (TH_34, TH_34, TH_34), n, method)
        with pytest.raises(ValueError, match="Hill coefficient n must be finite"):
            CurvedRegion(AND, (TH_34,) * 3, n)
        c = Circuit.from_json("circuits/half_adder.json")
        with pytest.raises(ValueError, match="Hill coefficient n must be finite"):
            synthesize_circuit(c, n={"E": n})

    def test_only_or_method2_bound_is_strict(self):
        ths = (TH_34, TH_34, TH_34)
        nb = n_bound(OR, ths, "m2")
        assert check_n_bound(GateKind.AND, ths, nb, "m2") == nb
        with pytest.raises(EmptyRegionError, match="OR"):
            check_n_bound(GateKind.OR, ths, nb, "m2")
        m1 = n_bound(GateKind.OR, ths, "m1")
        assert check_n_bound(GateKind.OR, ths, m1, "m1") == m1

    def test_not_has_no_method2_region(self):
        with pytest.raises(ValueError, match="NOT"):
            CurvedRegion(kind=GateKind.NOT, thresholds=(TH_34, TH_34), n=3.0)

    def test_region_kind_given_by_name(self):
        assert CurvedRegion("AND", (TH_34,) * 3, 4.0).kind is AND
        with pytest.raises(ValueError, match="NOT gates have no Method 2 region"):
            CurvedRegion("NOT", (TH_34, TH_34), 4.0)

    def test_bounds_take_the_kind_by_name(self):
        ths = (TH_34,) * 3
        assert n_bound("OR", ths, "m1") == n_bound(OR, ths, "m1")
        assert check_n_bound("OR", ths, 5.0, "m2") == n_bound(OR, ths, "m2")
        with pytest.raises(EmptyRegionError, match="'OR'"):
            check_n_bound("OR", ths, 1.0, "m1")

    def test_region_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="'and' is not a valid GateKind"):
            CurvedRegion("and", (TH_34,) * 3, 4.0)

    def test_default_n_used_by_synthesis(self):
        c = Circuit.from_json("circuits/half_adder.json")
        res = synthesize_circuit(c, method="m1")
        for gid, gs in res.gates.items():
            assert gs.n == gs.kind.default_n


class TestBlockedEvaluation:
    """Numeric synthesis and region sampling evaluate K points in blocks of
    about ``_BLOCK_BYTES``; the block size never changes a result."""

    HALF_ADDER = Circuit.from_json(
        Path(__file__).resolve().parent.parent / "circuits" / "half_adder.json")
    NUMERIC = {
        "E": NumericGrid(axes={"K1": (0.1, 0.6, 6), "K2": (0.1, 0.6, 5)}),
        "S": NumericGrid(axes={"K1": (0.1, 0.6, 5), "K2": (0.1, 0.6, 6)}),
        "D": NumericGrid(axes={"K1": (0.002, 1.0, 31)}),
    }
    REGION_GRID = NumericGrid(axes={"K1": (0.01, 1.0, 23), "K2": (0.01, 1.0, 19)})

    @staticmethod
    def numeric(gid):
        res = synthesize_numeric(TestBlockedEvaluation.HALF_ADDER,
                                 grid={gid: TestBlockedEvaluation.NUMERIC[gid]})[gid]
        return res.admissible.tobytes(), res.min_robustness.tobytes()

    @pytest.mark.parametrize("gid", ["E", "S", "D"])
    @pytest.mark.parametrize("per_block", [1, 7, 10**9])
    def test_numeric_block_size_changes_nothing(self, monkeypatch, gid, per_block):
        want = self.numeric(gid)
        tb = propagate_timing(self.HALF_ADDER)
        samples = time_grid(tb.lam[gid] + tb.delta[gid], 0.01).size
        sizes = []

        def recording(drive, *args):
            sizes.append(len(drive))
            return simulate_constant_drive(drive, *args)

        monkeypatch.setattr(synth, "simulate_constant_drive", recording)
        monkeypatch.setattr(synth, "_BLOCK_BYTES", per_block * 8 * samples)
        assert self.numeric(gid) == want
        points = len(self.NUMERIC[gid].points())
        assert max(sizes) == min(per_block, points)

    @pytest.mark.parametrize("region", [
        CurvedRegion(AND, (TH_34,) * 3, 4), CurvedRegion(OR, (TH_23, TH_34, TH_23), 5),
        k_box(AND, (TH_34,) * 3, 4),
    ], ids=["and", "or", "box"])
    @pytest.mark.parametrize("per_block", [1, 7, 10**9])
    def test_region_block_size_changes_nothing(self, monkeypatch, region, per_block):
        _, want_inside, want_binding = sample_region(region, self.REGION_GRID)
        monkeypatch.setattr(synth, "_BLOCK_BYTES", per_block * 64)
        _, inside, binding = sample_region(region, self.REGION_GRID)
        assert inside.tobytes() == want_inside.tobytes()
        assert binding == want_binding

    def test_region_blocks_joined_in_grid_order(self, monkeypatch):
        region = CurvedRegion(AND, (TH_34,) * 3, 4)
        membership = synth._interval_membership
        sizes = []

        def recording(bounds, k1, rows):
            sizes.append(len(k1))
            return membership(bounds, k1, rows)

        monkeypatch.setattr(synth, "_interval_membership", recording)
        monkeypatch.setattr(synth, "_BLOCK_BYTES", 7 * 64)
        pts, inside, binding = sample_region(region, self.REGION_GRID)
        assert sizes == [7] * 62 + [3]
        for pt, ok, why in zip(pts, inside, binding):
            assert region.membership(pt) == (ok, why)

    @pytest.mark.parametrize("region", [
        CurvedRegion(AND, (TH_34,) * 3, 4), CurvedRegion(OR, (TH_23, TH_34, TH_23), 5),
    ], ids=["and", "or"])
    @pytest.mark.parametrize("axes", [
        {"K1": (1.2, -0.1, 14), "K2": (1.3, -0.2, 11)},
        {"K1": (-0.1, 1.2, 14), "K2": (0.0, 1.5, 16)},
        {"K1": (-0.1, 1.2, 40), "K2": (0.4, 0.4, 1)},
        {"K1": (-0.1, 1.2, 40), "K2": (0.0, 0.0, 1)},
        {"K1": (-0.1, 1.2, 40), "K2": (1.5, 1.5, 1)},
        {"K1": (1.2, -0.1, 14), "K2": (0.3, 0.3, 3)},
    ], ids=["descending", "from-zero", "one-k2", "k2-zero", "k2-above-k-max", "repeated-k2"])
    def test_grid_bounds_match_single_points(self, monkeypatch, region, axes):
        # sample_region evaluates the K1 interval once per distinct value
        # of the grid's K2 axis and gathers it block by block; membership
        # evaluates it for its one point
        monkeypatch.setattr(synth, "_BLOCK_BYTES", 9 * 64)
        pts, inside, binding = sample_region(region, NumericGrid(axes))
        assert len(pts) >= 4 * 9
        for pt, ok, why in zip(pts, inside, binding):
            assert region.membership(pt) == (ok, why)
        judged, labels = region.judge(pts[::-1])
        assert judged.tobytes() == inside[::-1].tobytes() and labels == binding[::-1]

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_numeric_memory_does_not_grow_with_the_grid(self):
        # a (T, N) trajectory array for all N points would be 34 MiB at 60x60
        def run(side):
            axis = (0.1, 0.6, side)
            grid = {"E": NumericGrid(axes={"K1": axis, "K2": axis})}
            return self.traced_peak(lambda: synthesize_numeric(self.HALF_ADDER, grid=grid))

        small, large = run(30), run(60)
        assert large <= 8 * 2**20
        assert large - small <= 2**20

    def test_region_sampling_memory_at_300x300(self):
        grid = NumericGrid(axes={"K1": (1 / 300, 1.0, 300), "K2": (1 / 300, 1.0, 300)})
        syn = synthesize_circuit(self.HALF_ADDER, method="m2")
        for region in (syn.gates["E"].region, syn.gates["E"].box):
            assert self.traced_peak(lambda: sample_region(region, grid)) <= 5 * 2**20
