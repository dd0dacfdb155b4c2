"""The benchmark's oracles and traced self-check, run with the unit tests.

``bench/run.py`` checks every job's output against its oracle (golden
robustness values, admissible masks and region inside-counts) and, in a
traced run, compares call counts with their closed forms.  The unit tests
would not otherwise see either check.  This runs both on the half-adder
and 16-stage NOT chain verify jobs (the NOT-only drive, at alpha about
5.2), on every synth-grid job and on one monitor-traces job, whose set-up
writes the trace CSVs that the job reads back, reading ``bench/`` without
changing it.  It also pins the work counts of the synth-grid numeric jobs.
"""

import inspect
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import workloads
    from tracer import Tracer

    return layers, workloads, Tracer


@pytest.mark.parametrize("workload,jobs", [
    ("verify-circuits", {"half_adder", "not16"}),
    ("synth-grid", {"numeric.E", "numeric.S", "numeric.D",
                    "region.E.m2", "region.S.m2", "region.E.m1"}),
    ("monitor-traces", {"trace0"}),
])
def test_oracles_and_self_check(bench, tmp_path, workload, jobs):
    layers, workloads, Tracer = bench
    wl = workloads.WORKLOADS[workload]()
    wl.setup(np.random.default_rng(1), tmp_path)
    check_rng = np.random.default_rng([1, 1])
    tracer = Tracer()
    layers.install(tracer)
    problems, ran = [], set()
    try:
        for job, fn in wl.jobs():
            if job not in jobs:
                continue
            mark = tracer.span_count()
            tracer.enabled = True
            try:
                result = fn()
            finally:
                tracer.enabled = False
            problems += wl.check(job, result, check_rng)
            problems += layers.self_check(wl, job, tracer.calls_since(mark))
            ran.add(job)
    finally:
        tracer.unpatch()
    assert ran == jobs
    assert problems == []
    if workload == "synth-grid":
        # numeric synthesis's work, the same for every seed: per truth-table
        # row (4 for E and S, 2 for D) one worst case and one kernel call,
        # per row and grid point one monitor call and one row evaluation,
        # of which 4,571 are on points that no earlier row had failed; the
        # last count reads the kernel's k_values by position
        calls, counters = tracer.calls_since(0), tracer.counters
        assert calls["worstcase.worst_case"] == 10
        assert calls["synth.worst_case_output_robustness"] == 10
        assert calls["monitor.robustness"] == 8_200
        assert counters["synth.numeric.row_evals"] == 8_200
        assert counters["synth.numeric.useful_row_evals"] == 4_571


def test_kernel_parameters_match_the_row_hook():
    # layers._RowEvals takes k_values by position (index 4); a kernel that
    # moved it would leave the count pins above passing, since n and alpha
    # are the same for every row of one synthesize_numeric call
    from gatesynth.synth import worst_case_output_robustness

    names = list(inspect.signature(worst_case_output_robustness).parameters)
    assert names[:5] == ["contract", "row", "n", "alpha", "k_values"]
