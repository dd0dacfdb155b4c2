"""Each demo script, each Python block of README.md and each line of its
``gatesynth`` command-line block runs to the end from a copy of the
repository root."""

import json
import re
import runpy
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from gatesynth import Circuit, Signal, synthesize_circuit, write_trace_csv
from gatesynth.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
# the command lines of the README's sh block in which every line runs gatesynth
README_COMMANDS = [
    line for block in re.findall(r"^```sh\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    if all(ln.startswith("gatesynth ") for ln in block.splitlines())
    for line in block.splitlines()
]
# the files a demo writes into its working directory
WRITES = {
    "04_parameter_regions": ["and_region_m2.csv"],
    "05_half_adder_verification": ["half_adder_high_high.csv"],
}


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    # the demos read circuits/ and write their CSVs relative to the
    # working directory, so they run in a scratch copy of the root
    shutil.copytree(ROOT / "circuits", tmp_path / "circuits")
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "circuits")
    assert written == WRITES.get(demo.stem, [])
    for name in written:
        assert len((tmp_path / name).read_text().splitlines()) > 1


def test_readme_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_block_runs(index, tmp_path, monkeypatch):
    shutil.copytree(ROOT / "circuits", tmp_path / "circuits")
    monkeypatch.chdir(tmp_path)
    exec(compile(README_BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_commands_found():
    assert len(README_COMMANDS) >= 5


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    # the files the block names: the quick start's parameters (box
    # midpoints at 1.05 alpha_min) and a trace holding x
    shutil.copytree(ROOT / "circuits", tmp_path / "circuits")
    monkeypatch.chdir(tmp_path)
    result = synthesize_circuit(Circuit.from_json("circuits/half_adder.json"), method="m1")
    params = {
        gid: {"n": s.n, "alpha": 1.05 * s.alpha_min,
              "k": [(lo + hi) / 2 for lo, hi in s.box.intervals.values()]}
        for gid, s in result.gates.items()
    }
    Path("params.json").write_text(json.dumps(params))
    t = np.arange(0, 3.001, 0.1)
    write_trace_csv(Signal(times=t, values={"x": t.copy()}), "trace.csv")
    argv = shlex.split(line)
    assert argv[0] == "gatesynth"
    assert main(argv[1:]) == 0, capsys.readouterr().err
