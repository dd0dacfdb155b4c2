import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gatesynth
from gatesynth.circuit import Circuit, propagate_timing
from gatesynth.cli import _load_params, main
from gatesynth.odesim import SimConfig, simulate_circuit
from gatesynth.signals import write_trace_csv

HALF_ADDER = "circuits/half_adder.json"


def write_cycle_circuit(tmp_path):
    data = {
        "gates": [
            {"id": "a", "kind": "NOT", "inputs": ["x2"], "output": "x1"},
            {"id": "b", "kind": "NOT", "inputs": ["x1"], "output": "x2"},
        ],
        "external_inputs": [],
        "outputs": [{"gate": "b", "name": "out"}],
        "thresholds": {
            "x1": {"plus": 0.75, "minus": 0.25},
            "x2": {"plus": 0.75, "minus": 0.25},
        },
        "timing": {"delta": 4, "lambda": 4},
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(data))
    return str(path)


def write_dangling_circuit(tmp_path):
    """The half-adder plus a gate Z whose output feeds nothing."""
    with open(HALF_ADDER) as fh:
        data = json.load(fh)
    data["gates"].append({"id": "Z", "kind": "NOT", "inputs": ["A"], "output": "z"})
    data["thresholds"]["z"] = {"plus": 0.75, "minus": 0.25}
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(data))
    return str(path)


def edited_half_adder(edit):
    """A writer of the half-adder file after ``edit`` of its JSON data."""
    def write(tmp_path):
        data = json.loads(Path(HALF_ADDER).read_text())
        edit(data)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data))
        return str(path)
    return write


def good_params(tmp_path):
    rc = main(["synth", HALF_ADDER, "--out", str(tmp_path)])
    assert rc == 0
    res = json.loads((tmp_path / "synthesis.json").read_text())
    params = {}
    for gid, g in res["gates"].items():
        ks = [(lo + hi) / 2 for lo, hi in g["k_box"].values()]
        params[gid] = {"n": g["n"], "alpha": 1.05 * g["alpha_min"], "k": ks}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    return str(path)


class TestTiming:
    def test_half_adder(self, tmp_path, capsys):
        rc = main(["timing", HALF_ADDER, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "input hold=16" in out
        data = json.loads((tmp_path / "timing.json").read_text())
        assert data["gates"]["C"]["delta"] == pytest.approx(12.0)
        assert data["gates"]["S"]["delta"] == pytest.approx(4.0)
        assert (tmp_path / "manifest.json").exists()

    def test_cyclic_file_exits_2(self, tmp_path, capsys):
        rc = main(["timing", write_cycle_circuit(tmp_path),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "cycle" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["timing", "nope.json", "--out", str(tmp_path)]) == 1

    def test_gate_downstream_of_a_cycle_exits_2(self, tmp_path, capsys):
        # A reads the B/C cycle and feeds no gate: a StopIteration traceback
        # and exit 1 before
        data = {
            "gates": [
                {"id": "A", "kind": "NOT", "inputs": ["xc"], "output": "xa"},
                {"id": "B", "kind": "AND", "inputs": ["u", "xc"], "output": "xb"},
                {"id": "C", "kind": "NOT", "inputs": ["xb"], "output": "xc"},
            ],
            "external_inputs": ["u"],
            "outputs": [{"gate": "A", "name": "out"}],
            "thresholds": {v: {"plus": 0.75, "minus": 0.25} for v in ("u", "xa", "xb", "xc")},
            "timing": {"delta": 4, "lambda": 4},
        }
        path = tmp_path / "downstream.json"
        path.write_text(json.dumps(data))
        rc = main(["timing", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "error: circuit contains a cycle: B -> C -> B\n"


class TestSynth:
    def test_m1_bounds(self, tmp_path):
        rc = main(["synth", HALF_ADDER, "--out", str(tmp_path)])
        assert rc == 0
        res = json.loads((tmp_path / "synthesis.json").read_text())
        assert res["gates"]["C"]["alpha_min"] == pytest.approx(0.3074, abs=5e-4)
        assert res["gates"]["S"]["n_bound"] == pytest.approx(3.1681, abs=5e-4)

    def test_m2_writes_region_grids(self, tmp_path):
        rc = main(["synth", HALF_ADDER, "--method", "m2", "--grid", "20",
                   "--out", str(tmp_path)])
        assert rc == 0
        res = json.loads((tmp_path / "synthesis.json").read_text())
        assert "region_grids" in res
        assert (tmp_path / "region_C.csv").exists()

    def test_m2_between_the_two_bounds(self, tmp_path, capsys):
        # E's Method 2 bound is 2.537, its Method 1 bound 3.213
        rc = main(["synth", HALF_ADDER, "--method", "m2", "--n", "E=2.9",
                   "--grid", "20", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "region_E.csv").exists()
        line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("E "))
        assert line.endswith("alpha>=0.9222") and "K1=" not in line
        res = json.loads((tmp_path / "synthesis.json").read_text())
        assert "k_box" not in res["gates"]["E"] and "k_box" in res["gates"]["S"]

    def test_low_n_exits_3(self, tmp_path, capsys):
        rc = main(["synth", HALF_ADDER, "--n", "S=2", "--out", str(tmp_path)])
        assert rc == 3
        assert "S" in capsys.readouterr().err

    def test_box_above_k_one_exits_3(self, tmp_path, capsys):
        # one OR gate whose K box at n = 1.5 is [1.2168, 1.6276] on both
        # axes, and a gate takes K <= 1 only: this exited 0
        data = {
            "gates": [{"id": "S", "kind": "OR", "inputs": ["a", "b"], "output": "y"}],
            "external_inputs": ["a", "b"],
            "outputs": [{"gate": "S", "name": "out"}],
            "thresholds": {
                "a": {"plus": 0.7, "minus": 0.1, "p": 0.1},
                "b": {"plus": 0.7, "minus": 0.1, "p": 0.1},
                "y": {"plus": 0.2, "minus": 0.05, "p": 0.1},
            },
            "timing": {"delta": 10, "lambda": 4},
        }
        path = tmp_path / "or1.json"
        path.write_text(json.dumps(data))
        rc = main(["synth", str(path), "--n", "S=1.5", "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: empty parameter region for gate 'S': Method 1 K box lies above K = 1\n")
        assert not (tmp_path / "out").exists()

    def test_bad_n_flag_exits_1(self, tmp_path):
        assert main(["synth", HALF_ADDER, "--n", "S=abc",
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("flag,value,match", [
        ("--n", "E3", "expected GATE=VALUE, got 'E3'"),
        ("--grid", "abc", "not an integer: 'abc'"),
    ])
    def test_malformed_flag_exits_1(self, tmp_path, capsys, flag, value, match):
        rc = main(["synth", HALF_ADDER, flag, value, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert match in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_non_finite_or_non_positive_n_exits_1(self, tmp_path, capsys, value):
        # nan would print K1=[nan,nan], inf write the invalid JSON "n": Infinity
        rc = main(["synth", HALF_ADDER, "--n", f"E={value}", "--out", str(tmp_path)])
        assert rc == 1
        assert "Hill coefficient n must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "synthesis.json").exists()

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one_exits_1(self, tmp_path, capsys, grid):
        rc = main(["synth", HALF_ADDER, "--method", "m2", "--grid", grid,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "grid resolution must be >= 1" in capsys.readouterr().err

    def test_unknown_gate_in_n_exits_1(self, tmp_path, capsys):
        # exited 0 with every gate at its default n before
        rc = main(["synth", HALF_ADDER, "--n", "ZZ=4", "--out", str(tmp_path)])
        assert rc == 1
        assert "not in the circuit: ['ZZ']" in capsys.readouterr().err
        assert not (tmp_path / "synthesis.json").exists()

    def test_repeated_gate_in_n_exits_1(self, tmp_path, capsys):
        # exited 0 with the last value, n = 5, and a manifest holding both
        out = tmp_path / "out"
        rc = main(["synth", HALF_ADDER, "--n", "E=4", "--n", "S=4", "--n", "E=5",
                   "--out", str(out)])
        err = assert_one_error_line(rc, capsys)
        assert "--n gives a gate id more than once: ['E', 'S', 'E']" in err
        assert not out.exists()


class TestRegion:
    def test_and_grid(self, tmp_path, capsys):
        rc = main(["region", "--kind", "AND", "--plus", "0.75",
                   "--minus", "0.25", "--n", "4", "--grid", "20",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "region.csv").read_text().splitlines()
        assert len(lines) == 401  # header + 20*20

    def test_not_interval(self, tmp_path):
        rc = main(["region", "--kind", "NOT", "--plus", "0.75",
                   "--minus", "0.25", "--n", "3", "--grid", "10",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "region.csv").read_text().splitlines()
        assert len(lines) == 11

    def test_single_point_probe(self, tmp_path):
        rc = main(["region", "--kind", "AND", "--plus", "0.75",
                   "--minus", "0.25", "--n", "4", "--grid", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "region.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_low_n_exits_3(self, tmp_path):
        rc = main(["region", "--kind", "AND", "--plus", "0.75",
                   "--minus", "0.25", "--n", "2", "--out", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_non_finite_or_non_positive_n_exits_1(self, tmp_path, capsys, value):
        # nan would judge every point outside
        rc = main(["region", "--kind", "and", "--plus", "0.6", "--minus", "0.3",
                   "--n", value, "--out", str(tmp_path)])
        assert rc == 1
        assert "Hill coefficient n must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "region.csv").exists()

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one_exits_1(self, tmp_path, capsys, grid):
        rc = main(["region", "--kind", "AND", "--plus", "0.75", "--minus", "0.25",
                   "--n", "4", "--grid", grid, "--out", str(tmp_path)])
        assert rc == 1
        assert "grid resolution must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["1.0", "1.5"])
    def test_margin_of_one_or_more_exits_1(self, tmp_path, capsys, p):
        # (1-p)*minus <= 0: a traceback from the n bound before
        rc = main(["region", "--kind", "AND", "--plus", "0.3", "--minus", "0.1",
                   "--p", p, "--n", "4", "--out", str(tmp_path)])
        assert rc == 1
        assert "p must lie in (0, 1)" in capsys.readouterr().err

    def test_bad_thresholds_exit_1(self, tmp_path):
        rc = main(["region", "--kind", "AND", "--plus", "0.2",
                   "--minus", "0.5", "--n", "4", "--out", str(tmp_path)])
        assert rc == 1


# the OR Method 1 bound at plus 0.75, minus 0.25, where rounding leaves
# the box empty
EXACT_OR_M1 = "3.168094200311188"


class TestEmptyRegion:
    """``synth`` and ``region`` share one rule for a gate's region: no
    region exits 3 with one error line and leaves no ``--out``."""

    @pytest.mark.parametrize("argv,match", [
        (["synth", HALF_ADDER, "--n", "E=2"], "'E': m1 needs n >= 3.2129"),
        (["synth", HALF_ADDER, "--n", f"S={EXACT_OR_M1}"], "'S': Method 1 K intervals cross"),
        (["region", "--kind", "and", "--plus", "0.75", "--minus", "0.25", "--n", "2"],
         "'AND': m2 needs n >= 2.5372"),
        (["region", "--kind", "or", "--plus", "0.75", "--minus", "0.25",
          "--n", EXACT_OR_M1, "--method", "m1"], "'OR': Method 1 K intervals cross"),
        (["region", "--kind", "not", "--plus", "0.75", "--minus", "0.25", "--n", "1"],
         "'NOT': m2 needs n >= 2.5372"),
    ], ids=["synth-low", "synth-exact", "region-low", "region-exact", "region-not-m2"])
    def test_exit_3_and_no_out_directory(self, tmp_path, capsys, argv, match):
        out = tmp_path / "out"
        rc = main(argv + ["--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: empty parameter region for gate ")
        assert err.count("\n") == 1 and match in err
        assert not out.exists()


class TestVerify:
    def test_good_params_pass(self, tmp_path, capsys):
        params = good_params(tmp_path)
        rc = main(["verify", HALF_ADDER, params, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_pass"] and len(report["entries"]) == 8
        assert (tmp_path / "trace_A-high_B-high.csv").exists()

    def test_one_trace_per_combination_bit_for_bit(self, tmp_path):
        params = good_params(tmp_path)
        out = tmp_path / "out"
        assert main(["verify", HALF_ADDER, params, "--out", str(out)]) == 0
        written = sorted(p.name for p in out.glob("trace_*.csv"))
        want = {}
        c = Circuit.from_json(HALF_ADDER)
        tb = propagate_timing(c)
        gate_params = _load_params(params, c)
        for a, b in itertools.product(("low", "high"), repeat=2):
            cfg = SimConfig(horizon=tb.network_lambda + tb.network_delta, step=0.01,
                            inputs={"A": float(a == "high"), "B": float(b == "high")})
            path = tmp_path / f"want_{a}_{b}.csv"
            write_trace_csv(simulate_circuit(c, gate_params, cfg), path)
            want[f"trace_A-{a}_B-{b}.csv"] = path.read_bytes()
        assert written == sorted(want)  # 2^inputs files, no more
        for name, data in want.items():
            assert (out / name).read_bytes() == data, name

    def test_broken_alpha_exits_4(self, tmp_path, capsys):
        params_path = good_params(tmp_path)
        params = json.loads(Path(params_path).read_text())
        params["C"]["alpha"] = 0.06
        (tmp_path / "broken.json").write_text(json.dumps(params))
        out = tmp_path / "out"
        rc = main(["verify", HALF_ADDER, str(tmp_path / "broken.json"),
                   "--out", str(out)])
        assert rc == 4
        assert "FAIL" in capsys.readouterr().out
        assert len(list(out.glob("trace_*.csv"))) == 4
        assert not json.loads((out / "verify.json").read_text())["all_pass"]

    def test_missing_param_exits_1(self, tmp_path):
        params_path = good_params(tmp_path)
        params = json.loads(Path(params_path).read_text())
        del params["S"]
        (tmp_path / "partial.json").write_text(json.dumps(params))
        rc = main(["verify", HALF_ADDER, str(tmp_path / "partial.json"),
                   "--out", str(tmp_path)])
        assert rc == 1

    def test_nan_initial_value_exits_1(self, tmp_path, capsys):
        with open(HALF_ADDER) as fh:
            data = json.load(fh)
        data["sim"]["initial"] = {"xS": float("nan")}
        circuit = tmp_path / "nan_initial.json"
        circuit.write_text(json.dumps(data))
        params = good_params(tmp_path)
        capsys.readouterr()
        rc = main(["verify", str(circuit), params, "--out", str(tmp_path)])
        assert rc == 1
        assert "initial value of 'xS' must be finite" in capsys.readouterr().err

    def test_negative_initial_value_exits_1(self, tmp_path, capsys):
        with open(HALF_ADDER) as fh:
            data = json.load(fh)
        data["sim"]["initial"] = {"xS": -0.2}
        circuit = tmp_path / "negative_initial.json"
        circuit.write_text(json.dumps(data))
        params = good_params(tmp_path)
        capsys.readouterr()
        rc = main(["verify", str(circuit), params, "--out", str(tmp_path)])
        assert rc == 1
        assert "initial value of 'xS' must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("sim", [
        {"initial": [1, 2]}, {"h": None}, {"h": [0.01]}, {"h": 0},
    ], ids=["initial-list", "h-null", "h-list", "h-zero"])
    def test_malformed_sim_section_exits_1(self, tmp_path, capsys, sim):
        # refused when the circuit is read: the first three were tracebacks
        # from the middle of verify before
        data = json.loads(Path(HALF_ADDER).read_text())
        data["sim"] = sim
        circuit = tmp_path / "bad_sim.json"
        circuit.write_text(json.dumps(data))
        params = good_params(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main(["verify", str(circuit), params, "--out", str(out)])
        assert assert_one_error_line(rc, capsys).startswith(f"error: bad circuit file {circuit}")
        assert not out.exists()

    def test_negative_stage_at_non_integer_n_exits_0(self, tmp_path):
        # D at alpha*h = 2.5 overshoots below 0 on its way up from 0, and E
        # reads it with n = 4.5, where a Hill term below 0 would be complex:
        # E reads those stage values as 0
        params = json.loads(Path(good_params(tmp_path)).read_text())
        params["D"]["alpha"] = 2.5
        params["E"]["n"] = 4.5
        path = tmp_path / "long_step.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "out"
        rc = main(["verify", HALF_ADDER, str(path), "--out", str(out), "--step", "1.0"])
        assert rc == 0
        traces = sorted(p.name for p in out.iterdir() if p.name.startswith("trace_"))
        assert traces == [f"trace_A-{a}_B-{b}.csv" for a in ("high", "low")
                          for b in ("high", "low")]

    @pytest.mark.parametrize("step,match", [
        ("5", "stability limit"), ("0", "step must be finite and > 0"),
        ("-0.1", "step must be finite and > 0"),
    ])
    def test_bad_step_exits_1(self, tmp_path, capsys, step, match):
        params = good_params(tmp_path)
        capsys.readouterr()
        rc = main(["verify", HALF_ADDER, params, "--out", str(tmp_path),
                   "--step", step])
        assert rc == 1
        assert match in capsys.readouterr().err


class TestMonitor:
    def test_constant_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        rows = ["t,x"] + [f"{0.1 * i:.1f},0.8" for i in range(11)]
        trace.write_text("\n".join(rows) + "\n")
        rc = main(["monitor", str(trace), "x >= 0.5"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.3"

    def test_short_trace_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x\n0.0,0.8\n1.0,0.8\n")
        rc = main(["monitor", str(trace), "G[0,5](x >= 0.5)"])
        assert rc == 1
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["t,x\n", "t,x\n0.0,0.8\n0.1,0.8,0.8\n",
                                      "t,x\n0.0,high\n", "t,x,x\n0.0,0.8,0.8\n"])
    def test_bad_trace_exits_1(self, tmp_path, capsys, body):
        trace = tmp_path / "trace.csv"
        trace.write_text(body)
        assert main(["monitor", str(trace), "x >= 0.5"]) == 1
        err = capsys.readouterr().err
        assert "bad trace file" in err and "Traceback" not in err

    def test_window_between_grid_points_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        rows = ["t,x"] + [f"{0.01 * i:.2f},0.8" for i in range(11)]
        trace.write_text("\n".join(rows) + "\n")
        rc = main(["monitor", str(trace), "F[0.003,0.006](x >= 0.5)"])
        assert "contains no grid point at step 0.01" in assert_one_error_line(rc, capsys)

    def test_unknown_variable_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x\n0.0,0.8\n")
        assert main(["monitor", str(trace), "y >= 0.5"]) == 1
        assert capsys.readouterr().err == "error: unknown variable 'y'; trace has ['x']\n"

    def test_bad_formula_exits_1(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x\n0.0,0.8\n")
        assert main(["monitor", str(trace), "x >= "]) == 1

    @pytest.mark.parametrize("formula", ["x >= 1e400", "F[0,1e400] x >= 0.5"])
    def test_non_finite_number_exits_1(self, tmp_path, capsys, formula):
        trace = tmp_path / "trace.csv"
        rows = ["t,x"] + [f"{0.1 * i:.1f},0.8" for i in range(11)]
        trace.write_text("\n".join(rows) + "\n")
        rc = main(["monitor", str(trace), formula])
        assert "'1e400' is not finite" in assert_one_error_line(rc, capsys)


class TestGraphErrors:
    @pytest.mark.parametrize("command", ["timing", "synth"])
    def test_dangling_gate_exits_2(self, tmp_path, capsys, command):
        rc = main([command, write_dangling_circuit(tmp_path),
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'Z' is not on any input-to-output path" in err
        assert "Traceback" not in err

    def test_verify_dangling_gate_exits_2(self, tmp_path, capsys):
        params = json.loads(Path(good_params(tmp_path)).read_text())
        params["Z"] = dict(params["D"])
        (tmp_path / "params_z.json").write_text(json.dumps(params))
        rc = main(["verify", write_dangling_circuit(tmp_path),
                   str(tmp_path / "params_z.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "'Z' is not on any" in capsys.readouterr().err

    def test_undefined_variable_exits_2(self, tmp_path):
        with open(HALF_ADDER) as fh:
            data = json.load(fh)
        data["gates"][0]["inputs"] = ["ghost"]
        path = tmp_path / "ghost.json"
        path.write_text(json.dumps(data))
        assert main(["synth", str(path), "--out", str(tmp_path)]) == 2

    def test_variable_written_twice_exits_2(self, tmp_path, capsys):
        with open(HALF_ADDER) as fh:
            data = json.load(fh)
        data["gates"][5]["output"] = "xS"  # C writes S's output
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(data))
        assert main(["timing", str(path), "--out", str(tmp_path)]) == 2
        assert "'xS' is written by gates 'S' and 'C'" in capsys.readouterr().err

    def test_output_shadowing_external_input_exits_2(self, tmp_path, capsys):
        with open(HALF_ADDER) as fh:
            data = json.load(fh)
        data["gates"][5]["output"] = "B"  # C writes the external input B
        path = tmp_path / "shadow.json"
        path.write_text(json.dumps(data))
        assert main(["timing", str(path), "--out", str(tmp_path)]) == 2
        assert "shadow external inputs: ['B']" in capsys.readouterr().err


# case -> (circuit file writer, exit code, the error line's message)
BAD_CIRCUITS = {
    "cycle": (write_cycle_circuit, 2, "circuit contains a cycle: a -> b -> a"),
    "undefined-variable": (
        edited_half_adder(lambda d: d["gates"][0].update(inputs=["ghost"])),
        2, "gate 'D' reads undefined variable 'ghost'"),
    "dangling-gate": (write_dangling_circuit, 2, "gate 'Z' is not on any input-to-output path"),
    "h-true": (edited_half_adder(lambda d: d["sim"].update(h=True)),
               1, "sim step h must be a number, got True"),
    "initial-no-gate-output": (
        edited_half_adder(lambda d: d["sim"].update(initial={"nope": 0.5})),
        1, "initial values for no gate output: ['nope']"),
    "unknown-sim-key": (edited_half_adder(lambda d: d.update(sim={"H": 1.0})),
                        1, "unknown sim keys ['H']: only 'h' and 'initial'"),
    "delta-true": (edited_half_adder(lambda d: d["timing"].update(delta=True)),
                   1, "timing delta must be a number, got True"),
    "lambda-string": (edited_half_adder(lambda d: d["timing"].update({"lambda": "12"})),
                      1, "timing lambda must be a number, got '12'"),
    "sim-pairs": (edited_half_adder(lambda d: d.update(sim=[["h", 0.05]])),
                  1, "sim must be an object, got [['h', 0.05]]"),
    # the last gate of an id replaced the first, and timing exited 0
    "repeated-gate-id": (
        edited_half_adder(lambda d: d["gates"].append(
            {"id": "C", "kind": "OR", "inputs": ["A", "B"], "output": "xC"})),
        2, "repeated gate id: 'C'"),
    "repeated-output-name": (
        edited_half_adder(lambda d: d["outputs"][1].update(name="sum")),
        1, "repeated network output name: ['sum', 'sum']"),
}


class TestBadCircuitFiles:
    """Every check of a circuit file runs when the file is read, so a bad
    circuit is refused before its command makes the --out directory."""

    @pytest.mark.parametrize("command", ["timing", "synth", "verify"])
    @pytest.mark.parametrize("case", list(BAD_CIRCUITS))
    def test_refused_before_out_is_made(self, tmp_path, capsys, case, command):
        write, code, message = BAD_CIRCUITS[case]
        circuit = write(tmp_path)
        params = [good_params(tmp_path)] if command == "verify" else []
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main([command, circuit, *params, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == code
        prefix = "error: " if code == 2 else f"error: bad circuit file {circuit}: "
        assert err == prefix + message + "\n"
        assert not out.exists()


class TestVariableNames:
    @pytest.mark.parametrize("name", ["../A", "G"])
    def test_name_the_parser_cannot_read_exits_1(self, tmp_path, capsys, name):
        # "../A" was simulated in full, then failed to write its first
        # trace; "G" wrote a verify.json whose formulas do not parse back
        text = Path(HALF_ADDER).read_text().replace('"A"', json.dumps(name))
        circuit = tmp_path / "renamed.json"
        circuit.write_text(text)
        params = good_params(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main(["verify", str(circuit), params, "--out", str(out)])
        err = assert_one_error_line(rc, capsys)
        assert f"variable {name!r} is not a name the STL parser reads" in err
        assert not out.exists()  # refused before anything is simulated


class TestGateIds:
    @pytest.mark.parametrize("gid", ["../E", "a/b", "a=b", ""])
    def test_gate_id_not_an_identifier_exits_1(self, tmp_path, capsys, gid):
        # "../E" wrote region_../E.csv outside --out, or failed after the
        # region files of the gates before it were written
        data = json.loads(Path(HALF_ADDER).read_text())
        data["gates"][2]["id"] = gid
        circuit = tmp_path / "renamed.json"
        circuit.write_text(json.dumps(data))
        out = tmp_path / "out"
        rc = main(["synth", str(circuit), "--method", "m2", "--out", str(out)])
        assert f"gate id {gid!r} is not an identifier" in assert_one_error_line(rc, capsys)
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["renamed.json"]


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_no_args(self):
        assert main([]) == 1

    def test_environment_left_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GENESYNTH_THREADS", raising=False)
        before = dict(os.environ)
        assert main(["timing", HALF_ADDER, "--out", str(tmp_path)]) == 0
        assert dict(os.environ) == before


class TestManifest:
    """``main`` records every finished run with ``--out`` from its parsed
    command line, and no run that raised."""

    def read(self, out):
        data = json.loads((out / "manifest.json").read_text())
        assert set(data) == {"command", "circuit", "options", "out_dir", "version",
                             "timestamp"}
        assert data["out_dir"] == str(out) and data["version"] == gatesynth.__version__
        return data

    @pytest.mark.parametrize("argv,options", [
        (["timing", HALF_ADDER], {}),
        (["synth", HALF_ADDER], {"method": "m1", "n": None, "grid": 100}),
        (["synth", HALF_ADDER, "--method", "m2", "--n", "E=4", "--n", "S=5", "--grid", "5"],
         {"method": "m2", "n": [["E", 4.0], ["S", 5.0]], "grid": 5}),
        (["region", "--kind", "and", "--plus", "0.75", "--minus", "0.25", "--n", "4",
          "--grid", "5"],
         {"kind": "AND", "plus": 0.75, "minus": 0.25, "p": 0.1, "n": 4.0,
          "method": "m2", "grid": 5}),
        # recorded as given: NOT has no Method 2 region, so m1 is used
        (["region", "--kind", "NOT", "--plus", "0.75", "--minus", "0.25", "--n", "3",
          "--method", "m2", "--grid", "5"],
         {"kind": "NOT", "plus": 0.75, "minus": 0.25, "p": 0.1, "n": 3.0,
          "method": "m2", "grid": 5}),
    ], ids=["timing", "synth", "synth-n", "region-and", "region-not"])
    def test_options_are_the_parsed_arguments(self, tmp_path, argv, options):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        data = self.read(out)
        assert data["command"] == argv[0]
        assert data["circuit"] == (None if argv[0] == "region" else HALF_ADDER)
        assert data["options"] == {**options, "out": str(out)}

    @pytest.mark.parametrize("alpha_c,rc", [(None, 0), (0.06, 4)], ids=["pass", "fail"])
    def test_verify(self, tmp_path, alpha_c, rc):
        params = json.loads(Path(good_params(tmp_path)).read_text())
        if alpha_c is not None:
            params["C"]["alpha"] = alpha_c
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "out"
        assert main(["verify", HALF_ADDER, str(path), "--out", str(out), "--step", "0.02"]) == rc
        data = self.read(out)
        assert (data["command"], data["circuit"]) == ("verify", HALF_ADDER)
        assert data["options"] == {"params": str(path), "step": 0.02, "out": str(out)}

    def test_none_from_monitor(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "trace.csv").write_text("t,x\n0.0,0.8\n")
        assert main(["monitor", "trace.csv", "x >= 0.5"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]

    @pytest.mark.parametrize("argv,rc", [
        (["synth", HALF_ADDER, "--n", "ZZ=4"], 1),
        (["region", "--kind", "AND", "--plus", "0.2", "--minus", "0.5", "--n", "4"], 1),
        (["timing", "cycle"], 2),
        (["synth", HALF_ADDER, "--n", "S=2"], 3),
        (["region", "--kind", "AND", "--plus", "0.75", "--minus", "0.25", "--n", "2"], 3),
    ], ids=["synth-1", "region-1", "timing-2", "synth-3", "region-3"])
    def test_none_from_a_failed_run(self, tmp_path, argv, rc):
        argv = [write_cycle_circuit(tmp_path) if a == "cycle" else a for a in argv]
        out = tmp_path / "out"
        out.mkdir()
        assert main(argv + ["--out", str(out)]) == rc
        assert not (out / "manifest.json").exists()


def assert_one_error_line(rc, capsys):
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


class TestErrorPath:
    """Inputs that ended in a traceback before: exit 1 and one error line."""

    @pytest.mark.parametrize("command", ["timing", "synth", "region", "verify"])
    def test_out_under_a_regular_file_exits_1(self, tmp_path, capsys, command):
        if command == "region":
            argv = ["region", "--kind", "AND", "--plus", "0.75", "--minus", "0.25",
                    "--n", "4"]
        elif command == "verify":
            argv = ["verify", HALF_ADDER, good_params(tmp_path)]
        else:
            argv = [command, HALF_ADDER]
        capsys.readouterr()
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(argv + ["--out", str(blocker / "out")])
        assert "Not a directory" in assert_one_error_line(rc, capsys)

    def test_monitor_on_a_directory_exits_1(self, tmp_path, capsys):
        rc = main(["monitor", str(tmp_path), "x >= 0.5"])
        assert str(tmp_path) in assert_one_error_line(rc, capsys)

    @pytest.mark.parametrize("body,kind", [("5", "int"), ('["C", "D"]', "list")],
                             ids=["number", "list"])
    def test_params_not_an_object_exits_1(self, tmp_path, capsys, body, kind):
        path = tmp_path / "params.json"
        path.write_text(body)
        rc = main(["verify", HALF_ADDER, str(path), "--out", str(tmp_path)])
        err = assert_one_error_line(rc, capsys)
        assert f"bad params file {path}: expected a JSON object, got {kind}" in err

    @pytest.mark.parametrize("edit,match", [
        (lambda p: p["S"].update(n="3"), "n, alpha and each k must be numbers"),
        (lambda p: p["C"].update(alpha=True), "n, alpha and each k must be numbers"),
        (lambda p: p["D"].update(k=["0.45"]), "n, alpha and each k must be numbers"),
        (lambda p: p.update(Z=p["S"]), "gate ids not in the circuit: ['Z']"),
    ], ids=["n-string", "alpha-bool", "k-string", "unknown-gate"])
    def test_params_refused(self, tmp_path, capsys, edit, match):
        # each ran before: float() took "3" and true (alpha 1.0), and an
        # unknown gate id was ignored
        params = json.loads(Path(good_params(tmp_path)).read_text())
        edit(params)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main(["verify", HALF_ADDER, str(path), "--out", str(out)])
        err = assert_one_error_line(rc, capsys)
        assert err.startswith(f"error: bad params file {path}:") and match in err
        assert not out.exists()


def test_module_exit_status_and_stderr():
    """``python -m gatesynth.cli`` passes main's exit code to the process."""
    src = str(Path(gatesynth.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "gatesynth.cli", "region", "--kind", "foo",
         "--plus", "0.75", "--minus", "0.25", "--n", "4"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "error: argument --kind: invalid choice: 'FOO'" in proc.stderr
    assert "Traceback" not in proc.stderr
