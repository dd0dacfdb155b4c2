import json
import math
import re
from pathlib import Path

import pytest

from gatesynth.circuit import (
    Circuit, CycleError, Gate, GraphError, WiringCheck, longest_paths,
    propagate_timing, wiring_formulas,
)
from gatesynth.formulas import Atom, parse
from gatesynth.gates import GateKind, Thresholds
from gatesynth.monitor import robustness

from conftest import random_signal

BENCH = Path(__file__).resolve().parent.parent / "bench"
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

    @pytest.mark.parametrize("name", ["half_adder", "ripple2", "ripple3", "not16"])
    def test_input_hold_is_the_largest_entry_need(self, monkeypatch, name):
        # the hold is lambda + delta, but an entry gate off every longest
        # path needs less: 12 of 16 for one half-adder gate
        monkeypatch.syspath_prepend(str(BENCH))
        import gencircuits

        if name == "half_adder":
            c = Circuit.from_json("circuits/half_adder.json")
        elif name == "not16":
            c = Circuit.from_dict(gencircuits.not_chain(16))
        else:
            c = Circuit.from_dict(gencircuits.ripple_carry_adder(int(name[-1])))
        tb = propagate_timing(c)
        assert tb.input_hold == pytest.approx(c.lam + c.delta, abs=1e-9)
        for gid in c.entry_gate_ids():
            assert tb.lam[gid] + tb.delta[gid] <= c.lam + c.delta + 1e-9


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
        assert exc.value.cycle == ["a", "b", "a"]

    def test_cycle_with_a_gate_downstream(self):
        # A only reads the B/C cycle, so it has no leftover successor: the
        # walk over successors raised StopIteration
        with pytest.raises(CycleError) as exc:
            Circuit(
                gates={
                    "A": Gate("A", GateKind.NOT, ("xc",), "xa"),
                    "B": Gate("B", GateKind.AND, ("u", "xc"), "xb"),
                    "C": Gate("C", GateKind.NOT, ("xb",), "xc"),
                },
                external_inputs=("u",),
                outputs=(("A", "out"),),
                thresholds=thresholds("u", "xa", "xb", "xc"),
                delta=4.0,
                lam=4.0,
            )
        assert exc.value.cycle == ["B", "C", "B"]
        assert str(exc.value) == "circuit contains a cycle: B -> C -> B"

    @pytest.mark.parametrize("outputs,match", [
        ((("Z", "out"),), "network output references unknown gate 'Z'"),
        ((), "needs at least one network output"),
        # a repeated pair doubled verify's entries for that output
        ((("M", "out"), ("M", "out")), r"repeated network output name: \['out', 'out'\]"),
    ])
    def test_bad_outputs_rejected(self, outputs, match):
        with pytest.raises(ValueError, match=match) as info:
            Circuit(
                gates={"M": Gate("M", GateKind.NOT, ("u",), "x")},
                external_inputs=("u",),
                outputs=outputs,
                thresholds=thresholds("u", "x"),
                delta=4.0,
                lam=4.0,
            )
        assert not isinstance(info.value, GraphError)

    @pytest.mark.parametrize("sim,match", [
        ({"h": None}, "sim step h must be a number, got None"),
        ({"h": [0.01]}, r"sim step h must be a number, got \[0.01\]"),
        ({"h": "0.01"}, "sim step h must be a number"),
        ({"h": 0}, "sim step h must be finite and > 0, got 0"),
        ({"initial": [1, 2]}, "sim initial must be an object of numbers"),
        ({"initial": {"x": None}}, "sim initial must be an object of numbers"),
        ({"initial": {"x": -0.2}}, "initial value of 'x' must be finite and >= 0, got -0.2"),
        ({"initial": {"x": math.nan}}, "initial value of 'x' must be finite and >= 0"),
        # JSON's true loads as a bool, which Python counts as a number
        ({"h": True}, "sim step h must be a number, got True"),
        ({"initial": {"x": False}}, "sim initial must be an object of numbers"),
        ({"initial": {"nope": 0.5}}, r"initial values for no gate output: \['nope'\]"),
        ({"initial": {"u": 0.5}}, r"initial values for no gate output: \['u'\]"),
        ({"H": 1.0, "h": 0.01}, r"unknown sim keys \['H'\]"),
    ], ids=["h-null", "h-list", "h-string", "h-zero", "initial-list", "initial-null",
            "initial-negative", "initial-nan", "h-bool", "initial-bool",
            "initial-unknown", "initial-external-input", "unknown-key"])
    def test_bad_sim_section_rejected(self, sim, match):
        with pytest.raises(ValueError, match=match) as info:
            Circuit(
                gates={"M": Gate("M", GateKind.NOT, ("u",), "x")},
                external_inputs=("u",),
                outputs=(("M", "out"),),
                thresholds=thresholds("u", "x"),
                delta=4.0,
                lam=4.0,
                sim=sim,
            )
        assert not isinstance(info.value, GraphError)

    def test_good_sim_section_accepted(self):
        sim = {"h": 0.05, "initial": {"x": 0}}
        assert Circuit.from_dict({**single_gate().to_dict(), "sim": sim}).sim == sim

    @pytest.mark.parametrize("edit,match", [
        # float() took each of these: true as 1.0, "12" as 12.0
        ({"timing": {"delta": True, "lambda": 4.0}}, "timing delta must be a number, got True"),
        ({"timing": {"delta": "12", "lambda": 4.0}}, "timing delta must be a number, got '12'"),
        ({"timing": {"delta": 4.0, "lambda": None}}, "timing lambda must be a number, got None"),
        # dict() took a list of pairs as {"h": 0.05}
        ({"sim": [["h", 0.05]]}, r"sim must be an object, got \[\['h', 0.05\]\]"),
    ], ids=["delta-bool", "delta-string", "lambda-null", "sim-pairs"])
    def test_bad_timing_or_sim_value_rejected_by_from_dict(self, edit, match):
        with pytest.raises(ValueError, match=match) as info:
            Circuit.from_dict({**single_gate().to_dict(), **edit})
        assert not isinstance(info.value, GraphError)

    def test_integer_timing_loads_as_float(self):
        c = Circuit.from_dict({**single_gate().to_dict(), "timing": {"delta": 4, "lambda": 12}})
        assert (c.delta, c.lam) == (4.0, 12.0)
        assert isinstance(c.delta, float) and isinstance(c.lam, float)

    def test_gate_off_every_path_is_a_graph_error(self):
        with pytest.raises(GraphError, match="'Z' is not on any"):
            Circuit(
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

    def test_repeated_gate_id_in_a_file_rejected(self):
        # the last gate of an id replaced the first: 6 of 7 gates, C an OR
        data = json.loads(Path("circuits/half_adder.json").read_text())
        data["gates"].append({"id": "C", "kind": "OR", "inputs": ["A", "B"], "output": "xC"})
        with pytest.raises(GraphError, match="repeated gate id: 'C'"):
            Circuit.from_dict(data)

    def test_gate_under_another_id_rejected(self):
        # to_dict writes the gate's own id, so a round trip renamed it
        with pytest.raises(ValueError, match="gate 'M' holds a gate with id 'N'"):
            Circuit(gates={"M": Gate("N", GateKind.NOT, ("u",), "x")},
                    external_inputs=("u",), outputs=(("M", "out"),),
                    thresholds=thresholds("u", "x"), delta=4.0, lam=4.0)

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

    @pytest.mark.parametrize("role", ["input", "output"])
    @pytest.mark.parametrize("name", ["../A", "G", "F", "true", "x y", " u", "5", "a-b", ""])
    def test_variable_the_parser_cannot_read_rejected(self, name, role):
        # a trace file name or a formula written from such a name could not
        # be read back: "../A" escapes the output directory, "G" parses as
        # the operator
        u, x = (name, "x") if role == "input" else ("u", name)
        with pytest.raises(ValueError, match=re.escape(repr(name))) as info:
            Circuit(
                gates={"M": Gate("M", GateKind.NOT, (u,), x)},
                external_inputs=(u,),
                outputs=(("M", "out"),),
                thresholds=thresholds(u, x),
                delta=4.0,
                lam=4.0,
            )
        assert not isinstance(info.value, GraphError)

    @pytest.mark.parametrize("gid", ["../E", "a/b", "a=b", ""])
    def test_gate_id_not_an_identifier_rejected(self, gid):
        # a gate id names region_{id}.csv and is a `synth --n ID=VALUE` key
        with pytest.raises(ValueError, match=re.escape(f"gate id {gid!r}")) as info:
            Circuit(
                gates={gid: Gate(gid, GateKind.NOT, ("u",), "x")},
                external_inputs=("u",),
                outputs=((gid, "out"),),
                thresholds=thresholds("u", "x"),
                delta=4.0,
                lam=4.0,
            )
        assert not isinstance(info.value, GraphError)

    def test_keyword_gate_ids_and_readable_variables_accepted(self):
        # gate ids are not variables, so F and G stay valid ids
        c = Circuit(
            gates={
                "F": Gate("F", GateKind.NOT, ("U",), "Gx"),
                "G": Gate("G", GateKind.AND, ("Gx", "_b"), "true_1"),
            },
            external_inputs=("U", "_b"),
            outputs=(("G", "out"),),
            thresholds=thresholds("U", "_b", "Gx", "true_1"),
            delta=4.0,
            lam=4.0,
        )
        for var in c.variables():
            assert parse(f"{var} >= 0.5") == Atom(var, ">=", 0.5)


class TestIndex:
    """The order and longest paths a circuit builds once, at construction."""

    def test_built_once(self, monkeypatch):
        calls = []
        build = Circuit._index
        monkeypatch.setattr(Circuit, "_index", lambda c: calls.append(c) or build(c))
        c = xor_circuit()
        for _ in range(2):
            c.topo_order(), longest_paths(c), wiring_formulas(c, propagate_timing(c))
        assert calls == [c]

    def test_cannot_be_changed_from_outside(self):
        c = xor_circuit()
        order, paths, tb = c.topo_order(), longest_paths(c), propagate_timing(c)
        c.topo_order().reverse()
        for lengths in longest_paths(c):
            for gid in lengths:
                lengths[gid] += 5
        assert c.topo_order() == order
        assert longest_paths(c) == paths
        assert propagate_timing(c) == tb


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
