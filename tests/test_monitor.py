import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from gatesynth import monitor
from gatesynth.formulas import (
    Atom, Eventually, Globally, Implies, Not, TrueFormula, Until, parse,
)
from gatesynth.monitor import (
    HorizonError, _sliding, _until, robustness, robustness_naive, robustness_signal,
)
from gatesynth.signals import TIME_TOL, OutOfRangeError, Signal

from conftest import eval_boolean, random_formula, random_signal


def const(level, t_end=3.0, h=0.1, var="x"):
    times = np.arange(0, t_end + h / 2, h)
    return Signal(times=times, values={var: np.full(times.size, level)})


def ramp(t_end=3.0, h=0.1, var="x"):
    times = np.arange(0, t_end + h / 2, h)
    return Signal(times=times, values={var: times.copy()})


class TestRobustnessExamples:
    def test_atom_margin(self):
        assert robustness(parse("x >= 0.5"), const(0.8)) == pytest.approx(0.3)

    def test_globally_on_ramp(self):
        rho = robustness(parse("G[0,2](x >= 0.5)"), ramp())
        assert rho == pytest.approx(-0.5)

    def test_nested_eventually_globally(self):
        rho = robustness(parse("F[0,1] G[0,1](x >= 0.5)"), ramp())
        assert rho == pytest.approx(0.5)

    def test_le_atom(self):
        assert robustness(parse("x <= 0.5"), const(0.8)) == pytest.approx(-0.3)

    def test_until(self):
        # x ramps up; y >= 0.5 becomes true at t=2 where the running
        # min of x - 0.1 is 0 - 0.1... evaluate by hand on the grid
        times = np.arange(0, 2.1, 0.5)
        s = Signal(times=times, values={
            "x": np.array([0.6, 0.6, 0.6, 0.2, 0.2]),
            "y": np.array([0.0, 0.0, 1.0, 1.0, 1.0]),
        })
        rho = robustness(parse("x >= 0.5 U[0,2] y >= 0.5"), s)
        # best t' = 1.0: min(y-0.5, min x-0.5 over [0,1]) = min(0.5, 0.1)
        assert rho == pytest.approx(0.1)

    @pytest.mark.parametrize("text,rho", [("x >= 0.5", 0.3), ("(x >= 0.5) & !(x >= 0.9)", 0.1)])
    def test_single_sample_trace(self, text, rho):
        # a trace of one sample has no step; a formula of horizon 0 still
        # has a value at it
        s = Signal(times=np.zeros(1), values={"x": np.array([0.8])})
        f = parse(text)
        assert robustness(f, s) == pytest.approx(rho) == robustness_naive(f, s)
        assert robustness_signal(f, s).tolist() == [robustness(f, s)]

    def test_evaluation_at_later_time(self):
        rho = robustness(parse("G[0,1](x >= 0.5)"), ramp(), t=2.0)
        assert rho == pytest.approx(1.5)


class TestProperties:
    def test_negation_antisymmetry(self, rng):
        for _ in range(30):
            s = random_signal(rng)
            f = random_formula(rng, depth=2, max_hi=1.5)
            if s.t_end < 3.1:
                continue
            a = robustness(f, s)
            b = robustness(Not(f), s)
            assert a == -b

    def test_threshold_monotonicity(self):
        s = const(0.8)
        rhos = [robustness(Atom("x", ">=", th), s) for th in (0.1, 0.5, 0.9)]
        assert rhos[0] > rhos[1] > rhos[2]

    def test_shift_property(self, rng):
        s = random_signal(rng, n=80)
        f = Globally(0.3, 1.1, Atom("x", ">=", 0.5))
        direct = robustness(f, s, 1.0)
        grid = [t for t in s.times if 1.3 - 1e-9 <= t <= 2.1 + 1e-9]
        manual = min(robustness(Atom("x", ">=", 0.5), s, t) for t in grid)
        assert direct == pytest.approx(manual, abs=0)

    def test_signal_array_alignment(self):
        s = ramp()
        arr = robustness_signal(parse("G[0,1](x >= 0.5)"), s)
        for i in (0, 5, 10):
            assert arr[i] == robustness(parse("G[0,1](x >= 0.5)"), s, s.times[i])


class TestDifferential:
    def test_fast_vs_naive(self, rng):
        checked = 0
        while checked < 100:
            s = random_signal(rng)
            f = random_formula(rng, depth=3, max_hi=1.2)
            try:
                fast = robustness(f, s)
                naive = robustness_naive(f, s)
            except HorizonError:
                continue
            assert fast == naive
            checked += 1

    def test_sign_agreement_with_boolean(self, rng):
        checked = 0
        while checked < 100:
            s = random_signal(rng)
            f = random_formula(rng, depth=3, max_hi=1.2)
            try:
                rho = robustness(f, s)
            except HorizonError:
                continue
            if rho == 0.0:
                continue  # boundary: sign not determined by Def. 2
            assert (rho > 0) == eval_boolean(f, s)
            checked += 1

    def test_non_uniform_grid_falls_back(self):
        times = np.array([0.0, 0.3, 1.0, 1.4, 2.5])
        s = Signal(times=times, values={"x": np.array([0.1, 0.6, 0.7, 0.2, 0.9])})
        f = parse("F[0,2](x >= 0.5)")
        assert robustness(f, s) == robustness_naive(f, s)

    @pytest.mark.parametrize("t3", [0.3, 0.31], ids=["uniform", "non-uniform"])
    def test_time_off_the_samples_rejected(self, t3):
        # the non-uniform trace answered -0.45, interpolated by the fallback
        times = np.arange(21) * 0.1
        times[3] = t3
        s = Signal(times=times, values={"x": times.copy()})
        with pytest.raises(OutOfRangeError, match="not a sample point"):
            robustness(parse("x >= 0.5"), s, 0.05)


class TestNaNSamples:
    """A NaN operand or window sample gives NaN from both monitors."""

    def test_window_holding_nan(self):
        s = Signal(times=np.arange(5) * 0.1,
                   values={"x": np.array([0.9, np.nan, 0.1, 0.9, 0.9])})
        f = parse("G[0,0.2](x >= 0.5)")
        assert np.isnan(robustness(f, s))
        assert np.isnan(robustness_naive(f, s))

    @pytest.mark.parametrize("text", [
        "G[0,0.2](x >= 0.5)", "F[0.1,0.3](x >= 0.5)", "x >= 0.5 & y <= 0.5",
        "x >= 0.5 | y <= 0.5", "y <= 0.5 -> x >= 0.5", "x >= 0.5 U[0,0.3] y <= 0.5",
        "y <= 0.5 U[0.1,0.2] x >= 0.5", "F[0,0.2] G[0,0.1] (x >= 0.5)",
    ])
    def test_every_index_matches(self, text):
        x = np.array([0.9, np.nan, 0.1, 0.9, 0.9, 0.3, 0.8, 0.7, np.nan, 0.2])
        y = np.array([0.2, 0.6, 0.4, np.nan, 0.1, 0.9, 0.0, 0.5, 0.4, 0.3])
        s = Signal(times=np.arange(10) * 0.1, values={"x": x, "y": y})
        f = parse(text)
        fast = robustness_signal(f, s)
        naive = [robustness_naive(f, s, float(t)) for t in s.times[: len(fast)]]
        assert np.isnan(fast).any()
        assert np.array_equal(fast, naive, equal_nan=True)


def spiked(n, x_at=(), y_at=(), x_base=0.0, level=1.0):
    """x constant at ``x_base`` and y at 0 on n samples of step 0.1, both
    set to ``level`` at the given indices."""
    x, y = np.full(n, x_base), np.zeros(n)
    x[list(x_at)] = level
    y[list(y_at)] = level
    return Signal(times=np.arange(n) * 0.1, values={"x": x, "y": y})


def assert_fast_is_naive(f, s):
    """robustness_signal equals robustness_naive exactly at every index it
    returns, and returns every index the naive monitor accepts."""
    fast = robustness_signal(f, s)
    assert len(fast) > 0
    naive = [robustness_naive(f, s, float(t)) for t in s.times[: len(fast)]]
    assert fast.tolist() == naive
    if len(fast) < s.times.size:
        with pytest.raises(HorizonError):
            robustness_naive(f, s, float(s.times[len(fast)]))
    return fast


class TestWindowEndpoints:
    """Off-by-one checks at window edges: a single extreme sample on the
    first or last sample of a window must be seen by exactly the windows
    that contain it."""

    I = 10  # evaluation index the spike is placed relative to
    # (lo, hi) on step 0.1 and the sample offsets [ia, ib] it covers: w > 1
    # with ia > 0 and ia = 0, then w = 1 (ia = ib) with ia > 0 and ia = 0
    WINDOWS = [(0.3, 0.7, 3, 7), (0.0, 0.4, 0, 4), (0.35, 0.44, 4, 4), (0.0, 0.05, 0, 0)]

    @pytest.mark.parametrize("lo,hi,ia,ib", WINDOWS)
    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_eventually_spike(self, lo, hi, ia, ib, edge):
        j = self.I + (ia if edge == "first" else ib)
        fast = assert_fast_is_naive(Eventually(lo, hi, Atom("x", ">=", 0.5)),
                                    spiked(37, x_at=[j]))
        assert fast[self.I] == 0.5
        assert fast[j - ia + 1] == -0.5 and fast[j - ib - 1] == -0.5

    @pytest.mark.parametrize("lo,hi,ia,ib", WINDOWS)
    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_globally_dip(self, lo, hi, ia, ib, edge):
        j = self.I + (ia if edge == "first" else ib)
        fast = assert_fast_is_naive(Globally(lo, hi, Atom("x", ">=", 0.5)),
                                    spiked(37, x_at=[j], x_base=1.0, level=0.0))
        assert fast[self.I] == -0.5
        assert fast[j - ia + 1] == 0.5 and fast[j - ib - 1] == 0.5

    @pytest.mark.parametrize("lo,hi,ia,ib", WINDOWS)
    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_until_right_spike(self, lo, hi, ia, ib, edge):
        j = self.I + (ia if edge == "first" else ib)
        f = Until(lo, hi, Atom("x", ">=", 0.5), Atom("y", ">=", 0.5))
        fast = assert_fast_is_naive(f, spiked(37, y_at=[j], x_base=1.0))
        assert fast[self.I] == 0.5
        assert fast[j - ia + 1] == -0.5 and fast[j - ib - 1] == -0.5

    @pytest.mark.parametrize("at", [0, 3, 7])
    def test_until_left_dip(self, at):
        # y holds only at the window's last sample, so a dip in x anywhere
        # from the evaluation point up to and including it breaks the until
        f = Until(0.3, 0.7, Atom("x", ">=", 0.5), Atom("y", ">=", 0.5))
        x, y = np.ones(37), np.zeros(37)
        x[self.I + at], y[self.I + 7] = 0.0, 1.0
        s = Signal(times=np.arange(37) * 0.1, values={"x": x, "y": y})
        fast = assert_fast_is_naive(f, s)
        assert fast[self.I] == -0.5

    @pytest.mark.parametrize("n", [23, 24, 25, 26, 27])
    @pytest.mark.parametrize("op", [Eventually, Globally])
    def test_length_not_a_multiple_of_width(self, rng, n, op):
        s = random_signal(rng, n=n)
        assert_fast_is_naive(op(0.2, 0.6, Atom("x", ">=", 0.5)), s)
        assert_fast_is_naive(Until(0.2, 0.6, Atom("x", ">=", 0.4), Atom("y", ">=", 0.5)), s)

    @pytest.mark.parametrize("lo", [0.0, 0.5])
    def test_window_covers_whole_trace(self, rng, lo):
        s = random_signal(rng, n=30)
        hi = float(s.t_end)
        for f in (Eventually(lo, hi, Atom("x", ">=", 0.5)),
                  Globally(lo, hi, Atom("x", ">=", 0.5)),
                  Until(lo, hi, Atom("x", ">=", 0.2), Atom("y", ">=", 0.5))):
            assert len(assert_fast_is_naive(f, s)) == 1

    def test_true_operands(self, rng):
        s = random_signal(rng, n=30)
        atom = Atom("x", ">=", 0.5)
        for f in (Eventually(0.2, 0.6, TrueFormula()),
                  Globally(0.0, 0.05, Not(TrueFormula())),
                  Until(0.2, 0.6, TrueFormula(), atom),
                  Until(0.2, 0.6, atom, TrueFormula()),
                  Until(0.0, 0.6, Not(TrueFormula()), atom),
                  Globally(0.1, 0.5, Eventually(0.0, 0.3, TrueFormula()))):
            assert_fast_is_naive(f, s)


class TestOffGridBounds:
    """A window's upper bound between two samples: robustness_signal is
    defined exactly where robustness and robustness_naive are, at the t
    with t + required_horizon(f) <= t_end."""

    def test_eventually_reproduction(self):
        # 11 samples at step 0.1: t + 0.44 <= 1.0 holds up to t = 0.5
        s = spiked(11, x_at=[9])
        f = parse("F[0.35,0.44] (x >= 0.5)")
        fast = robustness_signal(f, s)
        assert len(fast) == 6
        assert fast[5] == robustness(f, s, 0.5) == 0.5
        with pytest.raises(HorizonError):
            robustness(f, s, 0.6)

    @pytest.mark.parametrize("text", [
        "F[0.35,0.44] (x >= 0.5)",
        "G[0.1,0.46] (x >= 0.5)",
        "F[0,0.25] G[0.12,0.33] (x >= 0.5)",
        "G[0.05,0.15] F[0.2,0.29] (x >= 0.5)",
        "(x >= 0.2) U[0.1,0.37] (y >= 0.5)",
        "F[0,0.13] ((x >= 0.2) U[0.1,0.37] (y >= 0.5))",
        "F[0,0.44] (x >= 0.5) & G[0,0.3] (y <= 0.5)",
    ])
    @pytest.mark.parametrize("n", [11, 12, 30])
    def test_domain_matches_naive(self, rng, text, n):
        assert_fast_is_naive(parse(text), random_signal(rng, n=n))

    @pytest.mark.parametrize("text", [
        "F[0.35,0.44] (x >= 0.5)",
        "F[0,0.25] G[0.12,0.33] (x >= 0.5)",
        "(x >= 0.2) U[0.1,0.37] (y >= 0.5)",
    ])
    def test_domain_matches_fast_point_monitor(self, rng, text):
        s = random_signal(rng, n=20)
        f = parse(text)
        fast = robustness_signal(f, s)
        for i, t in enumerate(s.times):
            if i < len(fast):
                assert robustness(f, s, float(t)) == fast[i]
            else:
                with pytest.raises(HorizonError):
                    robustness(f, s, float(t))



class TestWindowBoundsNearTheGrid:
    """A window bound within 1e-9 of a sample, in time, covers that sample
    in all three monitors, whatever the step: the fast monitor widens its
    index offsets by the same 1e-9 in time that the reference monitors'
    window rule does, not by 1e-9 of a step."""

    OFFSETS = (0.0, 1e-12, -1e-12, 1e-10, -1e-10, 5e-10, -5e-10, 2e-9, -2e-9)

    def monitors_agree(self, f, s, t):
        try:
            fast = robustness(f, s, t)
        except (HorizonError, OutOfRangeError) as exc:
            with pytest.raises(type(exc)):
                robustness_naive(f, s, t)
            with pytest.raises(type(exc)):
                eval_boolean(f, s, t)
            return
        assert robustness_naive(f, s, t) == fast
        assert eval_boolean(f, s, t) is (fast >= 0.0)  # rho is never 0 here

    def test_reproduction(self):
        # x = 0 only at t = 0.35 and 0.5, each within 1e-10 of a bound
        x = np.ones(101)
        x[[35, 50]] = 0.0
        s = Signal(times=np.arange(101) * 0.01, values={"x": x})
        for text in ("G[0.4,0.4999999999](x >= 0.5)", "G[0.3500000001,0.45](x >= 0.5)"):
            f = parse(text)
            assert robustness(f, s) == robustness_naive(f, s) == -0.5
            assert not eval_boolean(f, s)

    def test_seeded_sweep(self):
        # 6,000 windows with bounds on a sample or up to 2e-9 off it, on
        # four steps, for F, G and Until, at t = 0 and at a later sample
        rng = np.random.default_rng(28)
        atom_x, atom_y = Atom("x", ">=", 0.5), Atom("y", ">=", 0.5)
        ops = (lambda lo, hi: Globally(lo, hi, atom_x),
               lambda lo, hi: Eventually(lo, hi, atom_x),
               lambda lo, hi: Until(lo, hi, atom_x, atom_y))
        for h in (0.01, 0.05, 0.1, 0.25):
            s = Signal(times=np.arange(40) * h,
                       values={v: rng.choice([0.0, 1.0], 40) for v in ("x", "y")})
            for _ in range(250):
                a = int(rng.integers(0, 10))
                b = a + int(rng.integers(1, 10))
                lo = max(a * h + float(rng.choice(self.OFFSETS)), 0.0)
                hi = b * h + float(rng.choice(self.OFFSETS))
                for op in ops:
                    for t in (0.0, float(s.times[rng.integers(1, 20)])):
                        self.monitors_agree(op(lo, hi), s, t)

    @pytest.mark.parametrize("f,t,rho", [
        (Atom("x", ">=", 0.5), 5e-10, -0.5),
        (Atom("x", ">=", 0.5), 1.0 + 5e-10, 0.5),
        # the horizon is checked from the sample t names, 0.5: from t itself
        # it fit, and the reference monitors gave 0.3 where robustness raised
        (Globally(0.0, 0.5 + 1.4e-9, Atom("x", ">=", 0.2)), 0.5 - 5e-10, HorizonError),
    ], ids=["5e-10--0.5", "1.0000000005-0.5", "horizon-from-the-sample"])
    def test_evaluation_time_names_its_sample(self, f, t, rho):
        # the reference monitors interpolated at the raw t: -0.4999999995 at
        # 5e-10, and OutOfRangeError past t_end
        s = ramp(t_end=1.0)
        if rho is HorizonError:
            with pytest.raises(HorizonError):
                robustness(f, s, t)
            self.monitors_agree(f, s, t)
            return
        assert robustness(f, s, t) == robustness_naive(f, s, t) == rho
        assert eval_boolean(f, s, t) is (rho > 0)

    def test_seeded_sweep_of_evaluation_times(self):
        # 300 formulas, each at its first, an interior and its last defined
        # sample, shifted by every offset: a shift within TIME_TOL names that
        # sample in all three monitors, a larger one names none
        rng = np.random.default_rng(5)
        s = random_signal(rng, n=40, h=0.1)
        for _ in range(300):
            f = random_formula(rng, depth=2, max_hi=1.0)
            last = len(robustness_signal(f, s)) - 1
            for i in {0, last // 2, max(last, 0)}:
                for offset in self.OFFSETS:
                    self.monitors_agree(f, s, float(s.times[i]) + offset)


def sliding_window_oracle(arr, ia, ib, reduce):
    """The O(T*w) reduction over every full window, as a reference."""
    return reduce(sliding_window_view(arr, ib - ia + 1), axis=1)[ia:]


@st.composite
def trace_and_window(draw):
    values = st.floats(allow_nan=True) | st.sampled_from([np.inf, -np.inf, 0.0, -0.0])
    arr = draw(arrays(np.float64, st.integers(1, 80), elements=values))
    ib = draw(st.integers(0, len(arr) - 1))
    ia = draw(st.integers(0, ib))
    return arr, ia, ib


@st.composite
def single_window(draw):
    """A trace with room for exactly one window, [ia, ib] = [ia, len - 1]."""
    values = st.floats(allow_nan=True) | st.sampled_from([np.inf, -np.inf, 0.0, -0.0])
    ia = draw(st.integers(0, 5))
    arr = draw(arrays(np.float64, st.integers(ia + 1, ia + 60), elements=values))
    return arr, ia, len(arr) - 1


class TestSlidingKernel:
    @given(trace_and_window() | single_window())
    def test_matches_window_view(self, case):
        arr, ia, ib = case
        for pick, reduce in ((np.minimum, np.min), (np.maximum, np.max)):
            got = _sliding(arr, ia, ib, pick)
            want = sliding_window_oracle(arr, ia, ib, reduce)
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)

    @given(single_window())
    def test_single_window_matches_naive(self, case):
        arr, ia, ib = case
        assume(ib > 0)  # a window [lo, hi] needs lo < hi
        s = Signal(times=np.arange(len(arr)) * 0.1, values={"x": arr})
        # an off-grid lower bound, rounded up to ia
        lo = max(ia * 0.1 - 0.05, 0.0)
        for op in (Eventually, Globally):
            f = op(lo, ib * 0.1, Atom("x", ">=", 0.0))
            assert np.array_equal(robustness(f, s), robustness_naive(f, s),
                                  equal_nan=True)

    def test_short_trace_raises(self):
        with pytest.raises(HorizonError):
            _sliding(np.zeros(4), 2, 4, np.minimum)


def until_oracle(r1, r2, ia, ib):
    """The O(T*w) Until over every full window, as a reference: the running
    min of r1 over each window, min with r2, then the max over offsets
    from ia on."""
    m = min(len(r1), len(r2))
    run = np.minimum.accumulate(sliding_window_view(r1[:m], ib + 1), axis=1)
    both = np.minimum(sliding_window_view(r2[:m], ib + 1), run)
    return np.max(both[:, ia:], axis=1)


def special_floats(nan=True):
    return st.floats(allow_nan=nan) | st.sampled_from(
        [np.inf, -np.inf, 0.0, -0.0] + [np.nan] * nan)


@st.composite
def until_case(draw, nan=True):
    # without NaN too: one NaN in a window hides every other sample of it
    values = special_floats(nan)
    r1 = draw(arrays(np.float64, st.integers(1, 60), elements=values))
    r2 = draw(arrays(np.float64, st.integers(1, 60), elements=values))
    ib = draw(st.integers(0, min(len(r1), len(r2)) - 1))
    ia = draw(st.integers(0, ib))
    return r1, r2, ia, ib


class TestUntilKernel:
    @given(until_case() | until_case(nan=False))
    def test_matches_window_view(self, case):
        r1, r2, ia, ib = case
        got, want = _until(r1, r2, ia, ib), until_oracle(r1, r2, ia, ib)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("len1,len2", [(1, 1), (17, 17), (17, 20), (20, 17)])
    @pytest.mark.parametrize("special", [True, False])
    def test_every_window_on_short_traces(self, len1, len2, special):
        # every [ia, ib] that fits: w = 1, ia = 0, ia = ib and the single
        # window (n = 1) all occur, on operands of equal and unequal length,
        # with special values or with distinct finite ones
        rng = np.random.default_rng([len1, len2, special])
        if special:
            pool = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.0])
            r1, r2 = rng.choice(pool, len1), rng.choice(pool, len2)
        else:
            r1, r2 = np.split(rng.permutation(len1 + len2) - 10.0, [len1])
        for ib in range(min(len1, len2)):
            for ia in range(ib + 1):
                got, want = _until(r1, r2, ia, ib), until_oracle(r1, r2, ia, ib)
                assert got.shape == want.shape == (min(len1, len2) - ib,)
                assert np.array_equal(got, want, equal_nan=True)

    def test_short_trace_raises(self):
        with pytest.raises(HorizonError):
            _until(np.zeros(4), np.zeros(6), 2, 4)


@st.composite
def block_case(draw, one_window=False):
    """A (T, N) block, its window [ia, ib] and a second block for Until."""
    cols = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 40))
    values = special_floats()
    block = draw(arrays(np.float64, (rows, cols), elements=values))
    other = draw(arrays(np.float64, (draw(st.integers(rows, rows + 3)), cols), elements=values))
    ib = rows - 1 if one_window else draw(st.integers(0, rows - 1))
    ia = draw(st.integers(0, ib))
    return block, other, ia, ib


class TestBlockKernels:
    """Both kernels run along axis 0: a (T, N) block gives the 1-D result
    of each column, side by side, also on the one-window path."""

    @staticmethod
    def by_column(kernel, *blocks):
        return np.stack([kernel(*(b[:, j] for b in blocks)) for j in range(blocks[0].shape[1])],
                        axis=1)

    @given(block_case() | block_case(one_window=True))
    def test_columns_match_1d(self, case):
        block, other, ia, ib = case
        n, cols = len(block) - ib, block.shape[1]
        for pick in (np.minimum, np.maximum):
            got = _sliding(block, ia, ib, pick)
            want = self.by_column(lambda x: _sliding(x, ia, ib, pick), block)
            assert got.shape == want.shape == (n, cols)
            assert np.array_equal(got, want, equal_nan=True)
        for r1, r2 in ((block, other), (other, block)):
            got = _until(r1, r2, ia, ib)
            want = self.by_column(lambda a, b: _until(a, b, ia, ib), r1, r2)
            assert got.shape == want.shape == (n, cols)
            assert np.array_equal(got, want, equal_nan=True)


# the formula shapes of the benchmark's monitor-traces workload, copied so
# the tests do not depend on bench/
MONITOR_TRACES_FORMULAS = (
    "F[0,10] (x >= 0.7)",
    "G[0,100] (y <= 0.9)",
    "G[0,50] (x >= 0.1 | y >= 0.1)",
    "F[0,1] G[0,1] (x >= 0.5)",
    "G[0,1] F[0,1] (y <= 0.5)",
    "G[0,2] (x >= 0.6 & y <= 0.4) -> F[0,1] G[0,1] (x >= 0.6)",
    "(x >= 0.2) U[0,2] (y >= 0.6)",
    "F[0,100] (x <= 0.1 & y >= 0.8)",
)


class TestMonitorTracesShapes:
    """Fast = naive at every index for the benchmark's formula shapes.  At
    step 0.5 their windows span 3 to 201 samples."""

    @staticmethod
    def random_walk(rng, n):
        z = (0.5 + np.cumsum(rng.normal(0.0, 0.15, n))) % 2.0
        return np.where(z > 1.0, 2.0 - z, z)

    @pytest.mark.parametrize("text", MONITOR_TRACES_FORMULAS)
    def test_fast_is_naive_everywhere(self, text):
        rng = np.random.default_rng(MONITOR_TRACES_FORMULAS.index(text))
        n = 500
        s = Signal(times=np.arange(n) * 0.5,
                   values={"x": self.random_walk(rng, n), "y": self.random_walk(rng, n)})
        assert_fast_is_naive(parse(text), s)


@st.composite
def jittered_case(draw, within=True):
    """A 0/1 trace whose sample k lies up to 0.45*TIME_TOL off k*h, with
    h in {0.005, 0.01, 0.02} and t_0, t_end on the grid, or, if not
    ``within``, one interior sample 0.55 to 2 TIME_TOL off it; and one of
    F, G, Until, a nested window or an implication, with bounds on the
    grid or off it by 0.1 to 0.9 of a step."""
    h = draw(st.sampled_from((0.005, 0.01, 0.02)))
    n = draw(st.integers(24, 48))
    err = st.floats(-0.45, 0.45).map(lambda e: e * TIME_TOL)
    times = np.arange(n) * h + np.array([0.0, *draw(st.lists(err, min_size=n - 2,
                                                              max_size=n - 2)), 0.0])
    if not within:
        off = draw(st.floats(0.55, 2.0)) * draw(st.sampled_from((-1, 1)))
        j = draw(st.integers(1, n - 2))
        times[j] = j * h + off * TIME_TOL
    bits = st.lists(st.sampled_from((0.0, 1.0)), min_size=n, max_size=n)
    s = Signal(times=times, values={"x": draw(bits), "y": draw(bits)})

    def window():
        lo = draw(st.integers(0, 4)) + draw(st.just(0.0) | st.floats(0.1, 0.9))
        return lo * h, (lo + draw(st.integers(1, 5))) * h

    x, y = Atom("x", ">=", 0.5), Atom("y", "<=", 0.5)
    kind = draw(st.sampled_from(("F", "G", "U", "nested", "implies")))
    if kind == "F":
        f = Eventually(*window(), x)
    elif kind == "G":
        f = Globally(*window(), x)
    elif kind == "U":
        f = Until(*window(), x, y)
    elif kind == "nested":
        f = Eventually(*window(), Globally(*window(), x))
    else:
        f = Implies(x, Eventually(*window(), y))
    return f, s


def check_jittered_fast_is_naive(case):
    f, s = case
    assert s.is_uniform()
    fast = robustness_signal(f, s)
    for i, t in enumerate(s.times[: len(fast)].tolist()):
        assert robustness(f, s, t) == fast[i] == robustness_naive(f, s, t)
    if len(fast) < s.times.size:
        with pytest.raises(HorizonError):
            robustness_naive(f, s, float(s.times[len(fast)]))


class TestPositionJitter:
    """A trace whose samples lie within TIME_TOL/2 of t_0 + k*step is
    uniform, and there the fast monitor equals the naive one at every
    defined sample; a sample further off makes the trace non-uniform, so
    robustness falls back to the naive monitor and robustness_signal
    refuses the trace."""

    @settings(max_examples=100, deadline=None)
    @given(case=jittered_case())
    def test_fast_is_naive_within_the_bound(self, case):
        check_jittered_fast_is_naive(case)

    @pytest.mark.slow
    @settings(max_examples=2000, deadline=None)
    @given(case=jittered_case())
    def test_fast_is_naive_within_the_bound_sweep(self, case):
        check_jittered_fast_is_naive(case)

    @settings(max_examples=50, deadline=None)
    @given(case=jittered_case(within=False))
    def test_beyond_the_bound_is_not_uniform(self, case):
        f, s = case
        assert not s.is_uniform()
        with pytest.raises(ValueError, match="not uniformly sampled"):
            robustness_signal(f, s)
        with mock.patch.object(monitor, "_ev_grid", side_effect=AssertionError("fast path")):
            for t in s.times.tolist():
                try:
                    naive = robustness_naive(f, s, t)
                except HorizonError:
                    break
                assert robustness(f, s, t) == naive

    def test_step_within_two_time_tol_is_not_uniform(self):
        # a window widened by TIME_TOL reaches a neighbour's slot: by index
        # the fast monitor raised HorizonError where the naive one reads 0.5
        x = np.zeros(10)
        x[0] = 1.0
        s = Signal(times=np.arange(10) * 5e-10, values={"x": x})
        assert not s.is_uniform()
        f = parse("F[0,1.5e-9] (x >= 0.5)")
        assert robustness(f, s) == robustness_naive(f, s) == 0.5

    def test_grid_arrays_short_of_an_admitted_sample(self):
        # step 2.2e-9 with t_1 0.45*TIME_TOL early: F[0,3.5e-9] is defined
        # at t_1, but its index window, widened by TIME_TOL, ends past t_2
        s = Signal(times=[0, 1.75e-9, 4.4e-9], values={"x": [0.0, 0.0, 1.0]})
        assert s.is_uniform()
        f = parse("F[0,3.5e-9] (x >= 0.5)")
        assert robustness(f, s, 1.75e-9) == robustness_naive(f, s, 1.75e-9) == 0.5

    def test_wide_step_sample_off_by_5e_9(self):
        # F[0,30] picks sample 3 by index, but t_3 lies 5e-9 past 30; a
        # per-step test scaled by the step called this trace uniform, and
        # robustness gave +0.5
        s = Signal(times=[0, 10, 20, 30.000000005, 40, 50], values={"x": [0, 0, 0, 1, 0, 0]})
        f = parse("F[0,30] (x >= 0.5)")
        assert robustness(f, s) == robustness_naive(f, s) == -0.5


class TestWiringValidity:
    def test_instances_valid_on_random_signals(self, rng):
        lam, delta = 1.2, 0.4
        f = parse(
            f"F[0,{delta}] G[0,{lam + delta}] (x >= 0.6) "
            f"-> G[{delta},{delta + lam}] (x >= 0.6)"
        )
        for _ in range(200):
            s = random_signal(rng, n=30, h=0.1)
            assert robustness(f, s) >= 0.0


class TestMemory:
    def test_signal_freed_without_gc(self):
        # the evaluator must not leave a reference cycle holding the trace
        s = ramp()
        ref = weakref.ref(s)
        gc.disable()
        try:
            robustness_signal(parse("F[0,1](G[0,0.5](x >= 0.5))"), s)
            del s
            assert ref() is None
        finally:
            gc.enable()


class TestErrors:
    def test_horizon_error(self):
        with pytest.raises(HorizonError):
            robustness(parse("G[0,10](x >= 0.5)"), const(0.8, t_end=3.0))

    def test_horizon_error_reports_requirement(self):
        with pytest.raises(HorizonError, match="10"):
            robustness(parse("G[0,10](x >= 0.5)"), const(0.8, t_end=3.0))

    @pytest.mark.parametrize("monitor", [robustness, robustness_signal])
    @pytest.mark.parametrize("text", ["F[0.003,0.006](x >= 0.5)",
                                      "(x >= 0.5) U[0.003,0.006] (x >= 0.9)"])
    def test_window_between_grid_points(self, monitor, text):
        with pytest.raises(HorizonError, match=r"\[0.003,0.006\] contains no grid point"):
            monitor(parse(text), const(0.8, t_end=1.0, h=0.01))

    @pytest.mark.parametrize("monitor", [robustness, robustness_naive, eval_boolean,
                                         robustness_signal])
    @pytest.mark.parametrize("text", [
        "F[0.003,0.006] (x >= 0.5)",
        "G[0.003,0.006] (x >= 0.5)",
        "(x >= 0.5) U[0.003,0.006] (x >= 0.9)",
        # an operand that settles the boolean value does not hide the window
        "(x >= 0.9) & F[0.003,0.006] (x >= 0.5)",
        "(x >= 0.5) | G[0.003,0.006] (x >= 0.5)",
        "G[0,2] (x >= 0.5)",  # horizon past the end of the trace
        # a horizon past the end by less than a step: the windows' grid
        # offsets fit the trace, and the horizon trim leaves no sample
        "G[0,1.005] (x >= 0.5)",
        "F[0,0.5] G[0,0.505] (x >= 0.5)",
        "(x >= 0.5) U[0,1.005] (x >= 0.9)",
    ])
    def test_monitors_refuse_the_same_formulas(self, monitor, text):
        with pytest.raises(HorizonError):
            monitor(parse(text), const(0.8, t_end=1.0, h=0.01))

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            robustness(parse("zz >= 0.5"), const(0.8))
