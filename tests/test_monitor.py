import gc
import weakref

import numpy as np
import pytest

from gatesynth.formulas import Atom, Eventually, Globally, Implies, Not, parse
from gatesynth.monitor import (
    HorizonError, eval_boolean, robustness, robustness_naive,
    robustness_signal, satisfies,
)
from gatesynth.signals import Signal

from conftest import random_formula, random_signal


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

    def test_evaluation_at_later_time(self):
        rho = robustness(parse("G[0,1](x >= 0.5)"), ramp(), t=2.0)
        assert rho == pytest.approx(1.5)


class TestSatisfies:
    def test_true_verdict(self):
        v = satisfies(parse("x >= 0.5"), const(0.8))
        assert v.satisfied and not v.marginal

    def test_marginal(self):
        v = satisfies(parse("x >= 0.75"), const(0.75))
        assert v.satisfied and v.marginal and v.value == 0.0

    def test_false(self):
        assert not satisfies(parse("G[0,2](x >= 0.5)"), ramp()).satisfied


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

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            robustness(parse("zz >= 0.5"), const(0.8))
