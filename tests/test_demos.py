"""Each demo script and each Python block of README.md runs to the end
from a copy of the repository root."""

import re
import runpy
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)
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
