"""Record the oracle values in golden.json from the library as it stands.

    python3 bench/record_golden.py

Run it only on a commit whose results are trusted: the benchmark then
fails any job whose verify robustness, admissible mask or region
inside-count differs from what this script wrote.
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    rng = np.random.default_rng(0)

    verify = workloads.VerifyCircuits()
    verify.setup(rng, out)
    golden = {"verify": {}, "synth": {"admissible": {}, "inside_count": {}}}
    for job, fn in verify.jobs():
        report = fn()
        golden["verify"][job] = {
            "all_pass": report.all_pass,
            "robustness": verify.entries(report),
        }

    grid = workloads.SynthGrid()
    grid.setup(rng, out)
    for job, fn in grid.jobs():
        kind, key = job.split(".", 1)
        result = fn()
        if kind == "numeric":
            golden["synth"]["admissible"][key] = grid.mask_hex(result.admissible)
        else:
            golden["synth"]["inside_count"][key] = int(result[1].sum())

    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
