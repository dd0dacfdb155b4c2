import json

import pytest

from gatesynth.circuit import (
    Circuit, CycleError, Gate, GraphError, WiringCheck, longest_paths,
    propagate_timing, wiring_formulas,
)
from gatesynth.gates import GateKind, Thresholds
from gatesynth.monitor import robustness

from conftest import random_signal

TH = Thresholds(plus=0.75, minus=0.25, p=0.1)


def thresholds(*names):
    return {v: TH for v in names}


def single_gate(delta=10.0, lam=5.0):
    return Circuit(
        gates={"M": Gate("M", GateKind.AND, ("a", "b"), "x")},
        external_inputs=("a", "b"),
        outputs=(("M", "out"),),
        thresholds=thresholds("a", "b", "x"),
        delta=delta,
        lam=lam,
    )


def xor_circuit(delta=12.0, lam=4.0):
    """NOT/AND/OR exclusive-or wiring (two inverters, two conjunctions)."""
    return Circuit(
        gates={
            "D": Gate("D", GateKind.NOT, ("B",), "xD"),
            "F": Gate("F", GateKind.NOT, ("A",), "xF"),
            "E": Gate("E", GateKind.AND, ("A", "xD"), "xE"),
            "G": Gate("G", GateKind.AND, ("xF", "B"), "xG"),
            "S": Gate("S", GateKind.OR, ("xE", "xG"), "xS"),
        },
        external_inputs=("A", "B"),
        outputs=(("S", "out"),),
        thresholds=thresholds("A", "B", "xD", "xF", "xE", "xG", "xS"),
        delta=delta,
        lam=lam,
    )


def chain3():
    return Circuit(
        gates={
            "a": Gate("a", GateKind.NOT, ("u",), "x1"),
            "b": Gate("b", GateKind.NOT, ("x1",), "x2"),
            "c": Gate("c", GateKind.NOT, ("x2",), "x3"),
        },
        external_inputs=("u",),
        outputs=(("c", "out"),),
        thresholds=thresholds("u", "x1", "x2", "x3"),
        delta=9.0,
        lam=3.0,
    )


class TestLongestPaths:
    def test_single_gate(self):
        lf, lb = longest_paths(single_gate())
        assert lf == {"M": 0} and lb == {"M": 0}

    def test_xor_not_gate(self):
        lf, lb = longest_paths(xor_circuit())
        assert lf["D"] == 2 and lb["D"] == 0
        # E touches an external input but its longest backward path goes
        # through the inverter, keeping lf+lb+1 = 3 on every gate
        assert lf["E"] == 1 and lb["E"] == 1
        assert lf["S"] == 0 and lb["S"] == 2

    def test_chain_middle(self):
        lf, lb = longest_paths(chain3())
        assert lf["b"] == 1 and lb["b"] == 1


class TestTiming:
    def test_xor_budgets(self):
        delta, lam = 12.0, 4.0
        tb = propagate_timing(xor_circuit(delta, lam))
        for gid in ("D", "F", "E", "G", "S"):
            assert tb.delta[gid] == pytest.approx(delta / 3)
        assert tb.lam["E"] == pytest.approx(lam + delta / 3)
        assert tb.lam["G"] == pytest.approx(lam + delta / 3)
        assert tb.lam["D"] == pytest.approx(lam + 2 * delta / 3)
        assert tb.lam["F"] == pytest.approx(lam + 2 * delta / 3)
        assert tb.input_hold == pytest.approx(lam + delta)

    def test_half_adder_deltas(self):
        c = Circuit.from_json("circuits/half_adder.json")
        tb = propagate_timing(c)
        for gid in ("D", "F", "E", "G", "S"):
            assert tb.delta[gid] == pytest.approx(4.0)
        assert tb.delta["C"] == pytest.approx(12.0)

    def test_single_gate_hold(self):
        tb = propagate_timing(single_gate(delta=10.0, lam=5.0))
        assert tb.delta["M"] == pytest.approx(10.0)
        assert tb.input_hold == pytest.approx(15.0)

    def test_path_sum_rule(self):
        c = xor_circuit()
        tb = propagate_timing(c)
        # every input-to-output path: delta(M) sum <= network delta
        paths = [("E", "S"), ("G", "S"), ("D", "E", "S"), ("F", "G", "S")]
        for path in paths:
            assert sum(tb.delta[g] for g in path) <= c.delta + 1e-9

    def test_lambda_edge_monotonicity(self):
        c = xor_circuit()
        tb = propagate_timing(c)
        for a, b in c.edges():
            assert tb.lam[a] >= tb.delta[a] + tb.lam[b] - 1e-9

    def test_deterministic(self):
        c = xor_circuit()
        t1, t2 = propagate_timing(c), propagate_timing(c)
        assert t1.delta == t2.delta and t1.lam == t2.lam

    def test_override_network_values(self):
        tb = propagate_timing(single_gate(delta=6.0, lam=2.0))
        assert (tb.network_delta, tb.network_lambda) == (6.0, 2.0)
        assert tb.delta["M"] == 6.0 and tb.input_hold == 8.0


class TestWiring:
    def test_instance_text(self):
        w = WiringCheck(nu1=0.0, gamma1=4.0, mu1=16.0, nu2=4.0, mu2=12.0,
                        threshold=0.75, var="x")
        assert str(w.formula()) == (
            "(F[0,4] (G[0,16] (x >= 0.75)) -> G[4,16] (x >= 0.75))"
        )

    def test_one_formula_per_internal_edge(self):
        c = xor_circuit()
        tb = propagate_timing(c)
        checks = wiring_formulas(c, tb)
        assert len(checks) == len(c.edges()) == 4
        for (a, b), w in checks:
            assert w.mu1 == pytest.approx(tb.lam[a] + tb.delta[a])
            assert w.mu2 == pytest.approx(tb.lam[b])
            assert w.nu2 == pytest.approx(w.nu1 + tb.delta[a])

    def test_emitted_instances_valid(self, rng):
        c = xor_circuit(delta=1.2, lam=0.6)
        tb = propagate_timing(c)
        from gatesynth.signals import Signal
        for (a, b), w in wiring_formulas(c, tb):
            f = w.formula()
            for _ in range(100):
                s = random_signal(rng, n=40, h=0.1)
                sig = Signal(times=s.times, values={w.var: s.values["x"]})
                assert robustness(f, sig) >= 0.0

    def test_tiny_delta_still_valid(self, rng):
        w = WiringCheck(nu1=0.0, gamma1=0.001, mu1=1.001, nu2=0.001, mu2=1.0,
                        threshold=0.5, var="x")
        f = w.formula()
        for _ in range(50):
            s = random_signal(rng, n=25, h=0.1)
            assert robustness(f, s) >= 0.0


class TestValidation:
    def test_cycle_detected_and_listed(self):
        with pytest.raises(CycleError) as exc:
            Circuit(
                gates={
                    "a": Gate("a", GateKind.NOT, ("x2",), "x1"),
                    "b": Gate("b", GateKind.NOT, ("x1",), "x2"),
                },
                external_inputs=(),
                outputs=(("b", "out"),),
                thresholds=thresholds("x1", "x2"),
                delta=4.0,
                lam=4.0,
            )
        assert set(exc.value.cycle) >= {"a", "b"}

    def test_gate_off_every_path_is_a_graph_error(self):
        c = Circuit(
            gates={
                "M": Gate("M", GateKind.NOT, ("u",), "x"),
                "Z": Gate("Z", GateKind.NOT, ("u",), "z"),
            },
            external_inputs=("u",),
            outputs=(("M", "out"),),
            thresholds=thresholds("u", "x", "z"),
            delta=4.0,
            lam=4.0,
        )
        with pytest.raises(GraphError, match="'Z' is not on any"):
            propagate_timing(c)

    def test_undefined_input_rejected(self):
        with pytest.raises(GraphError, match="undefined"):
            Circuit(
                gates={"M": Gate("M", GateKind.NOT, ("ghost",), "x")},
                external_inputs=("u",),
                outputs=(("M", "out"),),
                thresholds=thresholds("u", "x", "ghost"),
                delta=4.0,
                lam=4.0,
            )

    def test_variable_written_by_two_gates_rejected(self):
        # both gates are network outputs, so no wire would reveal the clash
        with pytest.raises(GraphError, match="'x' is written by gates 'M' and 'N'"):
            Circuit(
                gates={"M": Gate("M", GateKind.NOT, ("u",), "x"),
                       "N": Gate("N", GateKind.NOT, ("u",), "x")},
                external_inputs=("u",),
                outputs=(("M", "out1"), ("N", "out2")),
                thresholds=thresholds("u", "x"),
                delta=4.0,
                lam=4.0,
            )

    def test_repeated_external_input_rejected(self):
        with pytest.raises(GraphError, match="repeated external input"):
            Circuit(
                gates={"M": Gate("M", GateKind.AND, ("a", "a"), "x")},
                external_inputs=("a", "a"),
                outputs=(("M", "out"),),
                thresholds=thresholds("a", "x"),
                delta=4.0,
                lam=4.0,
            )

    def test_output_shadowing_external_input_rejected(self):
        with pytest.raises(GraphError, match=r"shadow external inputs: \['u'\]"):
            Circuit(
                gates={"M": Gate("M", GateKind.NOT, ("u",), "u")},
                external_inputs=("u",),
                outputs=(("M", "out"),),
                thresholds=thresholds("u"),
                delta=4.0,
                lam=4.0,
            )

    def test_missing_threshold_rejected(self):
        with pytest.raises(ValueError, match="thresholds"):
            Circuit(
                gates={"M": Gate("M", GateKind.NOT, ("u",), "x")},
                external_inputs=("u",),
                outputs=(("M", "out"),),
                thresholds=thresholds("u"),
                delta=4.0,
                lam=4.0,
            )

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            Gate("M", GateKind.NOT, ("a", "b"), "x")


class TestSerialization:
    def test_round_trip(self, tmp_path):
        c = Circuit.from_json("circuits/half_adder.json")
        path = tmp_path / "ha.json"
        path.write_text(json.dumps(c.to_dict()))
        back = Circuit.from_json(path)
        assert back.to_dict() == c.to_dict()
        assert back.topo_order() == c.topo_order()

    def test_topo_order_respects_edges(self):
        c = Circuit.from_json("circuits/half_adder.json")
        order = c.topo_order()
        pos = {g: i for i, g in enumerate(order)}
        for a, b in c.edges():
            assert pos[a] < pos[b]
