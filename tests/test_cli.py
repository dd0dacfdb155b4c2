import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gatesynth
from gatesynth.cli import main

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

    def test_bad_n_flag_exits_1(self, tmp_path):
        assert main(["synth", HALF_ADDER, "--n", "S=abc",
                     "--out", str(tmp_path)]) == 1

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

    def test_broken_alpha_exits_4(self, tmp_path, capsys):
        params_path = good_params(tmp_path)
        params = json.loads(Path(params_path).read_text())
        params["C"]["alpha"] = 0.06
        (tmp_path / "broken.json").write_text(json.dumps(params))
        rc = main(["verify", HALF_ADDER, str(tmp_path / "broken.json"),
                   "--out", str(tmp_path)])
        assert rc == 4
        assert "FAIL" in capsys.readouterr().out

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

    def test_negative_stage_at_non_integer_n_exits_1(self, tmp_path, capsys):
        # D at alpha*h = 2.5 overshoots below 0 on its way up from 0, and E
        # reads it with n = 4.5: a traceback from a complex drive before
        params = json.loads(Path(good_params(tmp_path)).read_text())
        params["D"]["alpha"] = 2.5
        params["E"]["n"] = 4.5
        path = tmp_path / "long_step.json"
        path.write_text(json.dumps(params))
        capsys.readouterr()
        rc = main(["verify", HALF_ADDER, str(path), "--out", str(tmp_path), "--step", "1.0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gate 'E': RK4 stage values of ['xD'] fall below 0")

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

    def test_unknown_variable_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x\n0.0,0.8\n")
        assert main(["monitor", str(trace), "y >= 0.5"]) == 1
        assert capsys.readouterr().err == "error: unknown variable 'y'; trace has ['x']\n"

    def test_bad_formula_exits_1(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,x\n0.0,0.8\n")
        assert main(["monitor", str(trace), "x >= "]) == 1


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
