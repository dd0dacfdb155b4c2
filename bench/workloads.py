"""The three benchmark workloads: inputs, jobs and the oracle for each job.

A job is one library call sequence that yields one checked output.  A
pass runs a workload's fixed job list once; the loop in ``run.py``
runs passes back to back (closed loop, one client).  The seed generates
the monitor traces and the order in which each circuit lists its gates;
circuit shapes and grids are fixed, so the work per pass does not depend
on it.  Library functions are always called through their module
attributes, so the traced run sees the calls it rebinds.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import gencircuits
from gatesynth import circuit, formulas, monitor, odesim, signals, synth
from gatesynth.gates import GateParams

HERE = Path(__file__).resolve().parent
HALF_ADDER = HERE.parent / "circuits" / "half_adder.json"
GOLDEN = HERE / "golden.json"
ROBUSTNESS_TOL = 1e-9


def _load_circuit(data: dict, rng, path: Path):
    """Shuffle the gate list, validate, write to ``path`` and read it back."""
    data = gencircuits.shuffled(data, rng)
    gencircuits.validated(data)
    path.write_text(json.dumps(data, indent=1))
    return circuit.Circuit.from_json(path)


class VerifyCircuits:
    """propagate_timing -> synthesize_circuit(m1) -> midpoint params -> verify."""

    name = "verify-circuits"

    def setup(self, rng, out: Path) -> None:
        sources = {
            "half_adder": json.loads(HALF_ADDER.read_text()),
            "ripple2": gencircuits.ripple_carry_adder(2),
            "not16": gencircuits.not_chain(16),
        }
        self.circuits = {
            name: _load_circuit(data, rng, out / f"{name}.json")
            for name, data in sources.items()
        }
        self.golden = json.loads(GOLDEN.read_text())["verify"]

    def jobs(self):
        return [(name, lambda c=c: self.run(c)) for name, c in self.circuits.items()]

    warmup_job = "half_adder"

    @staticmethod
    def run(c):
        tb = circuit.propagate_timing(c)
        syn = synth.synthesize_circuit(c, tb, method="m1")
        params = {
            gid: GateParams(
                kind=s.kind,
                n=s.n,
                alpha=1.05 * s.alpha_min,
                hill_k=tuple((lo + hi) / 2 for lo, hi in s.box.intervals.values()),
            )
            for gid, s in syn.gates.items()
        }
        return odesim.verify(c, params, tb)

    @staticmethod
    def entries(report) -> dict[str, float]:
        return {
            ",".join(f"{v}={lvl}" for v, lvl in e.combo.items()) + "/" + e.output:
            e.robustness
            for e in report.entries
        }

    def check(self, job: str, report, rng) -> list[str]:
        want = self.golden[job]
        got = self.entries(report)
        problems = []
        if report.all_pass != want["all_pass"]:
            problems.append(f"all_pass {report.all_pass} != {want['all_pass']}")
        if set(got) != set(want["robustness"]):
            problems.append("verify entries differ from the recorded ones")
        else:
            for key, rho in want["robustness"].items():
                if not abs(got[key] - rho) <= ROBUSTNESS_TOL:
                    problems.append(f"{key}: robustness {got[key]!r} != {rho!r}")
        return problems

    def report(self, times: dict[str, list[float]]):
        return [
            (f"verify_s.{job}", "s", t) for job, t in times.items()
        ]


# K grids: 30x30 around the half-adder's Method 1 boxes for E (AND) and
# S (OR), 500 points for D (NOT), and the CLI's 1/R..1 grid for regions.
NUMERIC_GRIDS = {
    "E": synth.NumericGrid({"K1": (0.1, 0.6, 30), "K2": (0.1, 0.6, 30)}),
    "S": synth.NumericGrid({"K1": (0.1, 0.6, 30), "K2": (0.1, 0.6, 30)}),
    "D": synth.NumericGrid({"K1": (0.002, 1.0, 500)}),
}
REGION_GRID = synth.NumericGrid({"K1": (1 / 300, 1.0, 300), "K2": (1 / 300, 1.0, 300)})
REGIONS = {"E.m2": ("E", "region"), "S.m2": ("S", "region"), "E.m1": ("E", "box")}


def grid_size(grid) -> int:
    return int(np.prod([n for _, _, n in grid.axes.values()]))


class SynthGrid:
    """Numeric grid synthesis of E, S and D, then region sampling."""

    name = "synth-grid"

    def setup(self, rng, out: Path) -> None:
        data = json.loads(HALF_ADDER.read_text())
        self.circuit = _load_circuit(data, rng, out / "half_adder.json")
        self.golden = json.loads(GOLDEN.read_text())["synth"]

    def jobs(self):
        numeric = [(f"numeric.{g}", lambda g=g: self.numeric(g)) for g in NUMERIC_GRIDS]
        region = [(f"region.{r}", lambda r=r: self.region(r)) for r in REGIONS]
        return numeric + region

    warmup_job = "numeric.D"

    def numeric(self, gid: str):
        tb = circuit.propagate_timing(self.circuit)
        grid = {gid: NUMERIC_GRIDS[gid]}
        return synth.synthesize_numeric(self.circuit, tb, grid)[gid]

    def region(self, key: str):
        gid, attr = REGIONS[key]
        tb = circuit.propagate_timing(self.circuit)
        syn = synth.synthesize_circuit(self.circuit, tb, method="m2")
        return synth.sample_region(getattr(syn.gates[gid], attr), REGION_GRID)

    @staticmethod
    def mask_hex(mask: np.ndarray) -> str:
        return np.packbits(mask).tobytes().hex()

    def check(self, job: str, result, rng) -> list[str]:
        kind, key = job.split(".", 1)
        if kind == "region":
            pts, inside, _ = result
            want = self.golden["inside_count"][key]
            got = int(inside.sum())
            n = grid_size(REGION_GRID)
            if len(pts) != n or got != want:
                return [f"{len(pts)} points, {got} inside; recorded {n}, {want}"]
            return []
        problems = []
        if self.mask_hex(result.admissible) != self.golden["admissible"][key]:
            problems.append("admissible mask differs from the recorded one")
        # criterion 4: a point strictly inside the analytic region is admissible
        syn = synth.synthesize_circuit(self.circuit, method="m2")
        gs = syn.gates[key]
        if gs.region is not None:
            inside = np.array([gs.region.contains(p) for p in result.points])
        else:
            (lo, hi), = gs.box.intervals.values()
            inside = (result.points[:, 0] > lo) & (result.points[:, 0] < hi)
        missed = int((inside & ~result.admissible).sum())
        if not inside.any() or missed:
            problems.append(
                f"{missed} of {int(inside.sum())} analytic-interior points not admissible"
            )
        return problems

    def report(self, times: dict[str, list[float]]):
        def rate(prefix, grids):
            jobs = [j for j in times if j.startswith(prefix)]
            points = sum(grid_size(grids[j.split(".", 1)[1]]) for j in jobs)
            per_pass = [sum(ts) for ts in zip(*(times[j] for j in jobs))]
            return [points / t for t in per_pass]

        return [
            ("numeric_points_per_s", "1/s", rate("numeric.", NUMERIC_GRIDS)),
            ("region_points_per_s", "1/s",
             rate("region.", {k: REGION_GRID for k in REGIONS})),
        ]


TRACE_SAMPLES = 100_000
TRACE_STEP = 0.01
TRACE_VARS = ("x", "y")
# Windows from 100 to 10,000 samples: plain F and G, nested F G and G F, a
# truth-table-row style implication and an Until.
FORMULAS = (
    "F[0,10] (x >= 0.7)",
    "G[0,100] (y <= 0.9)",
    "G[0,50] (x >= 0.1 | y >= 0.1)",
    "F[0,1] G[0,1] (x >= 0.5)",
    "G[0,1] F[0,1] (y <= 0.5)",
    "G[0,2] (x >= 0.6 & y <= 0.4) -> F[0,1] G[0,1] (x >= 0.6)",
    "(x >= 0.2) U[0,2] (y >= 0.6)",
    "F[0,100] (x <= 0.1 & y >= 0.8)",
)
# the naive monitor is checked at indices below this, on the shortest
# prefix that covers the formula's horizon
CHECK_PREFIX = 5_000


def random_walk(rng, n: int) -> np.ndarray:
    """Gaussian random walk from 0.5, reflected into [0, 1]."""
    z = (0.5 + np.cumsum(rng.normal(0.0, 0.02, n))) % 2.0
    return np.where(z > 1.0, 2.0 - z, z)


class MonitorTraces:
    """Read a long trace from CSV, parse and monitor formulas on it."""

    name = "monitor-traces"

    def setup(self, rng, out: Path) -> None:
        times = np.arange(TRACE_SAMPLES) * TRACE_STEP
        self.paths = []
        for i in range(2):
            sig = signals.Signal(
                times=times, values={v: random_walk(rng, TRACE_SAMPLES) for v in TRACE_VARS}
            )
            path = out / f"trace{i}.csv"
            signals.write_trace_csv(sig, path)
            self.paths.append(path)

    def jobs(self):
        return [(f"trace{i}", lambda p=p: self.run(p)) for i, p in enumerate(self.paths)]

    warmup_job = "trace0"

    @staticmethod
    def run(path):
        sig = signals.read_trace_csv(path)
        results = []
        for text in FORMULAS:
            f = formulas.parse(text)
            results.append((f, monitor.robustness_signal(f, sig)))
        return sig, results

    def check(self, job: str, result, rng) -> list[str]:
        sig, results = result
        problems = []
        if sig.times.size != TRACE_SAMPLES:
            problems.append(f"read {sig.times.size} rows, wrote {TRACE_SAMPLES}")
        for f, rho in results:
            i = int(rng.integers(0, min(CHECK_PREFIX, rho.size)))
            end = i + int(round(formulas.required_horizon(f) / TRACE_STEP)) + 1
            prefix = signals.Signal(
                times=sig.times[:end],
                values={v: x[:end] for v, x in sig.values.items()},
            )
            naive = monitor.robustness_naive(f, prefix, float(sig.times[i]))
            if rho[i] != naive:
                problems.append(f"{f} at index {i}: fast {rho[i]!r} != naive {naive!r}")
        return problems

    def report(self, times: dict[str, list[float]]):
        work = TRACE_SAMPLES * len(FORMULAS)
        return [
            ("monitor_samples_per_s", "1/s", [work / t for ts in times.values() for t in ts]),
        ]


WORKLOADS = {w.name: w for w in (VerifyCircuits, SynthGrid, MonitorTraces)}
