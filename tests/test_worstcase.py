import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatesynth.circuit import Circuit, Gate, propagate_timing
from gatesynth.gates import (
    HIGH, LOW, ExtendedTruthRow, GateKind, GateParams, Thresholds, gate_drive,
    row_formula, truth_table,
)
from gatesynth.monitor import robustness
from gatesynth.odesim import SimConfig, simulate_circuit
from gatesynth.worstcase import worst_case

from conftest import thresholds

THA = Thresholds(plus=0.75, minus=0.25, p=0.1)
THB = Thresholds(plus=0.7, minus=0.3, p=0.1)


def row(kind, levels, delta=4.0, lam=12.0):
    return ExtendedTruthRow(levels, GateKind(kind).output_level(levels), delta, lam)


class TestWorstCaseLevels:
    """Exhaustive check of the pessimistic constants for every row."""

    def test_and_rows(self):
        cases = {
            (HIGH, HIGH): ((THA.plus, THB.plus), 0.0),
            (HIGH, LOW): ((1.0, THB.minus), 1.0),
            (LOW, HIGH): ((THA.minus, 1.0), 1.0),
            (LOW, LOW): ((THA.minus, THB.minus), 1.0),
        }
        for levels, (want, x0) in cases.items():
            got, got_x0 = worst_case(GateKind.AND, row(GateKind.AND, levels), (THA, THB))
            assert got == pytest.approx(want)
            assert got_x0 == x0

    def test_or_rows(self):
        cases = {
            (HIGH, HIGH): ((THA.plus, THB.plus), 0.0),
            (HIGH, LOW): ((THA.plus, 0.0), 0.0),
            (LOW, HIGH): ((0.0, THB.plus), 0.0),
            (LOW, LOW): ((THA.minus, THB.minus), 1.0),
        }
        for levels, (want, x0) in cases.items():
            got, got_x0 = worst_case(GateKind.OR, row(GateKind.OR, levels), (THA, THB))
            assert got == pytest.approx(want)
            assert got_x0 == x0

    def test_not_rows(self):
        assert worst_case(GateKind.NOT, row(GateKind.NOT, (LOW,)), (THA,)) == ((THA.minus,), 0.0)
        assert worst_case(GateKind.NOT, row(GateKind.NOT, (HIGH,)), (THA,)) == ((THA.plus,), 1.0)

    def test_levels_are_propositions_constants(self):
        # every emitted level is one of the four admissible constants
        for kind in GateKind:
            combos = [(LOW,), (HIGH,)] if kind.arity == 1 else [
                (LOW, LOW), (LOW, HIGH), (HIGH, LOW), (HIGH, HIGH)]
            for levels in combos:
                got, _ = worst_case(kind, row(kind, levels), (THA, THB)[: kind.arity])
                for lvl, th in zip(got, (THA, THB)):
                    assert lvl in (0.0, th.minus, th.plus, 1.0)


class TestLeastFavourableEnd:
    """Each worst-case level is the end of the input's admissible range,
    [0, minus] or [plus, 1.0], at which the drive is least
    favourable to the row's output, the other inputs held at theirs."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(list(GateKind)), ths=st.tuples(thresholds(), thresholds()),
           n=st.floats(1.0, 10.0), ks=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)))
    def test_chosen_end_least_favourable(self, kind, ths, n, ks):
        ths, g = ths[: kind.arity], GateParams(kind, n=n, alpha=1.0, hill_k=ks[: kind.arity])
        names = ("u1", "u2")[: kind.arity]
        table = dict(zip(names, ths), x=THA)
        for r, _ in truth_table(kind, names, "x", 4.0, 12.0, table):
            levels, _ = worst_case(kind, r, ths)
            for i, (lvl, th) in enumerate(zip(r.input_levels, ths)):
                ends = (th.plus, 1.0) if lvl == HIGH else (0.0, th.minus)
                assert levels[i] in ends
                other = ends[1] if levels[i] == ends[0] else ends[0]
                moved = list(levels)
                moved[i] = other
                chosen, alt = gate_drive(g, levels), gate_drive(g, moved)
                if chosen == alt:
                    continue  # a tie, e.g. an AND whose other input is at 0
                assert (chosen < alt) == (r.output_level == HIGH)


class TestErrors:
    def test_inconsistent_row(self):
        bad = ExtendedTruthRow((HIGH, HIGH), LOW, 4.0, 12.0)
        with pytest.raises(ValueError, match="inconsistent"):
            worst_case(GateKind.AND, bad, (THA, THB))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            worst_case(GateKind.NOT, row(GateKind.NOT, (LOW,)), (THA, THB))


class TestDomination:
    """Random inputs meeting a row's antecedent never do worse than the
    worst-case constants (the monotonicity argument behind the
    construction)."""

    def _one_gate_circuit(self):
        th = {"u1": THA, "u2": THA, "x": THA}
        c = Circuit(
            gates={"M": Gate("M", GateKind.AND, ("u1", "u2"), "x")},
            external_inputs=("u1", "u2"),
            outputs=(("M", "out"),),
            thresholds=th,
            delta=4.0,
            lam=12.0,
        )
        return c

    def test_random_inputs_dominate_worst_case(self, rng):
        c = self._one_gate_circuit()
        tb = propagate_timing(c)
        params = {"M": GateParams(GateKind.AND, n=4, alpha=1.0, hill_k=(0.38, 0.38))}
        r = row(GateKind.AND, (HIGH, HIGH), tb.delta["M"], tb.lam["M"])
        formula = row_formula(r, ("u1", "u2"), "x", c.thresholds)
        levels, x0 = worst_case(GateKind.AND, r, (THA, THA))
        horizon = r.lam + r.delta

        def run(inputs, x0):
            cfg = SimConfig(horizon=horizon, step=0.02,
                            initial={"x": x0}, inputs=inputs)
            return robustness(formula, simulate_circuit(c, params, cfg))

        base = run({"u1": levels[0], "u2": levels[1]}, x0)
        for _ in range(60):
            # piecewise-constant inputs that stay at or above theta+
            sched = {}
            for v in ("u1", "u2"):
                ts = np.sort(rng.uniform(0, horizon, size=3))
                sched[v] = [(0.0, float(rng.uniform(THA.plus, 1.0)))] + [
                    (float(t), float(rng.uniform(THA.plus, 1.0))) for t in ts
                ]
            rho = run(sched, float(rng.uniform(0.0, 1.0)))
            assert rho >= base - 1e-3
