"""What the traced run wraps in each ``gatesynth`` module, and what it derives.

``install`` rebinds the public functions named below.  Hooks count work
at the same boundaries: samples monitored, RK4 steps, trajectories, rows
read, grid points judged and region points sampled.  ``metrics`` turns
the spans and counters of one traced pass into the per-layer metrics
listed in BENCHMARK.json, and ``self_check`` compares call counts with
counts known in closed form.
"""

from __future__ import annotations

import numpy as np

from gatesynth import (
    circuit, formulas, gates, monitor, odesim, signals, synth, worstcase,
)
from workloads import NUMERIC_GRIDS, grid_size


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _samples(name):
    def hook(tr, args, kwargs, result):
        tr.counters[name + ".samples"] += _arg(args, kwargs, 1, "s").times.size
    return hook


def _rows(tr, args, kwargs, result):
    tr.counters["signals.read_trace_csv.rows"] += result.times.size


def _circuit_steps(tr, args, kwargs, result):
    steps = result.times.size - 1
    tr.counters["odesim.rk4_steps"] += steps
    tr.counters["odesim.simulate_circuit.gate_steps"] += (
        steps * len(_arg(args, kwargs, 0, "c").gates)
    )


def _constant_drive(tr, args, kwargs, result):
    tr.counters["odesim.rk4_steps"] += _arg(args, kwargs, 4, "n_steps")
    tr.counters["odesim.simulate_constant_drive.trajectories"] += result.shape[1]


class _RowEvals:
    """Row evaluations of ``synthesize_numeric`` on points not yet failed.

    Successive ``worst_case_output_robustness`` calls on the same K points
    are the rows of one gate; a point has failed once a row gave it
    negative robustness.  The state is cleared when ``synthesize_numeric``
    returns.
    """

    def __init__(self):
        self.points = None
        self.failed = None

    def row(self, tr, args, kwargs, result):
        k = np.asarray(_arg(args, kwargs, 4, "k_values"))
        if self.points is None or not np.array_equal(k, self.points):
            self.points, self.failed = k.copy(), np.zeros(len(result), dtype=bool)
        tr.counters["synth.numeric.row_evals"] += len(result)
        tr.counters["synth.numeric.useful_row_evals"] += int((~self.failed).sum())
        self.failed |= result < 0.0

    def numeric(self, tr, args, kwargs, result):
        self.points = self.failed = None
        for res in result.values():
            judged = ((res.points > 0) & (res.points <= 1)).all(axis=1)
            tr.counters["synth.numeric.judged"] += int(judged.sum())
            tr.counters["synth.numeric.admissible"] += int(res.admissible.sum())


def _region(tr, args, kwargs, result):
    pts, inside, _ = result
    tr.counters["synth.region.points"] += len(pts)
    tr.counters["synth.region.inside"] += int(inside.sum())


def install(tracer) -> None:
    rows = _RowEvals()
    fn = tracer.patch_function
    fn(formulas, "parse", "formulas.parse")
    fn(signals, "read_trace_csv", "signals.read_trace_csv", _rows)
    tracer.patch_method(signals.Signal, "__post_init__", "signals.Signal")
    fn(monitor, "robustness", "monitor.robustness", _samples("monitor.robustness"))
    fn(monitor, "robustness_signal", "monitor.robustness_signal",
       _samples("monitor.robustness_signal"))
    fn(gates, "gate_drive", "gates.gate_drive")
    fn(circuit, "propagate_timing", "circuit.propagate_timing")
    fn(worstcase, "worst_case", "worstcase.worst_case")
    fn(odesim, "verify", "odesim.verify")
    fn(odesim, "simulate_circuit", "odesim.simulate_circuit", _circuit_steps)
    fn(odesim, "simulate_constant_drive", "odesim.simulate_constant_drive",
       _constant_drive)
    fn(synth, "synthesize_circuit", "synth.synthesize_circuit")
    fn(synth, "synthesize_numeric", "synth.synthesize_numeric", rows.numeric)
    fn(synth, "worst_case_output_robustness", "synth.worst_case_output_robustness",
       rows.row)
    fn(synth, "sample_region", "synth.sample_region", _region)
    tracer.patch_method(synth.CurvedRegion, "membership",
                        "synth.CurvedRegion.membership")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced pass, by name, as (value, unit)."""
    total, own = tracer.times()
    calls = tracer.calls_since(0)
    c = tracer.counters
    m = {
        "formulas.parse.calls": (calls["formulas.parse"], "count"),
        "formulas.parse.s": (total["formulas.parse"], "s"),
        "signals.read_trace_csv.s": (total["signals.read_trace_csv"], "s"),
        "signals.read_trace_csv.rows": (c["signals.read_trace_csv.rows"], "count"),
        "signals.Signal.count": (calls["signals.Signal"], "count"),
    }
    for name in ("monitor.robustness", "monitor.robustness_signal"):
        m[name + ".calls"] = (calls[name], "count")
        m[name + ".self_s"] = (own[name], "s")
        m[name + ".samples"] = (c[name + ".samples"], "count")
    m.update({
        "gates.gate_drive.calls": (calls["gates.gate_drive"], "count"),
        "gates.gate_drive.self_s": (own["gates.gate_drive"], "s"),
        "circuit.propagate_timing.s": (total["circuit.propagate_timing"], "s"),
        "worstcase.worst_case.calls": (calls["worstcase.worst_case"], "count"),
        "odesim.verify.self_s": (own["odesim.verify"], "s"),
        "odesim.simulate_circuit.calls": (calls["odesim.simulate_circuit"], "count"),
        "odesim.simulate_circuit.self_s": (own["odesim.simulate_circuit"], "s"),
        "odesim.simulate_circuit.gate_steps": (
            c["odesim.simulate_circuit.gate_steps"], "count"),
        "odesim.rk4_steps": (c["odesim.rk4_steps"], "count"),
        "odesim.simulate_constant_drive.calls": (
            calls["odesim.simulate_constant_drive"], "count"),
        "odesim.simulate_constant_drive.self_s": (
            own["odesim.simulate_constant_drive"], "s"),
        "odesim.simulate_constant_drive.trajectories": (
            c["odesim.simulate_constant_drive.trajectories"], "count"),
        "synth.synthesize_circuit.s": (total["synth.synthesize_circuit"], "s"),
        "synth.synthesize_numeric.self_s": (own["synth.synthesize_numeric"], "s"),
        "synth.worst_case_output_robustness.calls": (
            calls["synth.worst_case_output_robustness"], "count"),
        "synth.worst_case_output_robustness.self_s": (
            own["synth.worst_case_output_robustness"], "s"),
        "synth.numeric.admissible_ratio": (
            _ratio(c["synth.numeric.admissible"], c["synth.numeric.judged"]), "ratio"),
        "synth.numeric.useful_row_eval_ratio": (
            _ratio(c["synth.numeric.useful_row_evals"], c["synth.numeric.row_evals"]),
            "ratio"),
        "synth.sample_region.self_s": (own["synth.sample_region"], "s"),
        "synth.CurvedRegion.membership.calls": (
            calls["synth.CurvedRegion.membership"], "count"),
        "synth.region.inside_ratio": (
            _ratio(c["synth.region.inside"], c["synth.region.points"]), "ratio"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    return m


def self_check(workload, job: str, calls) -> list[str]:
    """Compare one traced job's call counts with their closed forms."""
    if workload.name == "verify-circuits":
        c = workload.circuits[job]
        tb = circuit.propagate_timing(c)
        steps = int(round((tb.network_lambda + tb.network_delta) / c.sim["h"]))
        # every RK4 stage evaluates every gate, for each input combination
        want = 2 ** len(c.external_inputs) * steps * 4 * len(c.gates)
        if job == "half_adder":
            want = 4 * 1_600 * 4 * 6  # 153,600
        got = calls["gates.gate_drive"]
    elif workload.name == "synth-grid" and job.startswith("numeric."):
        grid = NUMERIC_GRIDS[job.split(".", 1)[1]]
        # one monitor call per grid point per truth-table row
        want = grid_size(grid) * 2 ** len(grid.axes)
        got = calls["monitor.robustness"]
    else:
        return []
    if got != want:
        return [f"{job}: {got} calls recorded, {want} in closed form"]
    return []
