"""gatesynth benchmark: one workload, one process, one thread, closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload verify-circuits --seed 1 --seconds 30 --trace 0

One client runs the workload's jobs back to back for ``--seconds``,
checks every output against its oracle, prints each metric by name and
unit, and ends with one JSON line.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs untraced passes and one
traced pass and reports the per-layer metrics instead.  The library is
imported from ``src/`` of the same checkout; nothing is installed.
"""

import os
import sys
import time

START = time.perf_counter()

# one thread: numpy's BLAS pools must not start more
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3


def summary(name: str, unit: str, values: list[float]) -> str:
    """Median, the highest percentile with at least 10 samples beyond it, count."""
    n = len(values)
    line = f"metric {name} {statistics.median(values):.6g} {unit} median n={n}"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return line + f" p{p}={q:.6g}"
    return line


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gatesynth" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads
    from speed import SpeedClock

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    import_wall = time.perf_counter() - START
    clock = SpeedClock()
    import_s = clock.scale_last(import_wall)

    def log(msg):
        print(msg, flush=True)

    def setup():
        wl = cls()
        wl.setup(np.random.default_rng(args.seed), OUT)
        dict(wl.jobs())[wl.warmup_job]()  # untimed warm-up job
        return wl

    setups = []
    for _ in range(SETUP_REPEATS):
        wl, _, scaled = clock.time(setup)
        setups.append(scaled)
        gc.collect()
    setup_s = import_s + statistics.median(setups)

    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace}")
    check_rng = np.random.default_rng([args.seed, 1])
    attempted = failed = 0

    def run_pass(tracer=None):
        """One pass over the jobs; returns {job: (wall s, reference s)}."""
        nonlocal attempted, failed
        times = {}
        for job, fn in wl.jobs():
            attempted += 1
            mark = tracer.span_count() if tracer else 0
            if tracer:
                tracer.enabled = True
            try:
                result, wall, scaled = clock.time(fn)
            except Exception as exc:  # a job that raises counts as failed
                failed += 1
                log(f"FAILED {job}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer:
                    tracer.enabled = False
            times[job] = (wall, scaled)
            problems = wl.check(job, result, check_rng)
            del result
            if tracer:
                problems += layers.self_check(wl, job, tracer.calls_since(mark))
            if problems:
                failed += 1
                log(f"FAILED {job}: " + "; ".join(problems[:5]))
            # Untimed.  Each robustness_signal call leaves a reference cycle
            # that holds its Signal; collecting here starts every job from
            # the same heap, where the heap would otherwise grow pass by pass.
            gc.collect()
        return times

    def pass_time(times, i=1):
        return sum(t[i] for t in times.values())

    begin = time.perf_counter()
    if args.trace:
        import layers
        from tracer import Tracer

        untraced = [pass_time(run_pass())]
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = pass_time(run_pass(tracer))
        finally:
            tracer.unpatch()
        while time.perf_counter() - begin < args.seconds:
            untraced.append(pass_time(run_pass()))
        tracer.write(OUT / f"spans-{args.workload}.npz")
        results = layers.metrics(tracer, traced / statistics.median(untraced))
        for name, (value, unit) in results.items():
            log(f"metric {name} {value:.6g} {unit}")
        log(f"peak RSS {peak_rss_mb():.6g} MB with {tracer.span_count()} spans")
    else:
        job_times = {job: [] for job, _ in wl.jobs()}
        passes, walls = [], []
        while True:
            times = run_pass()
            if not walls:
                rss = peak_rss_mb()  # after set-up and one pass: fixed work
            for job, (_, scaled) in times.items():
                job_times[job].append(scaled)
            passes.append(pass_time(times))
            walls.append(pass_time(times, 0))
            if time.perf_counter() - begin >= args.seconds:
                break
        results = {
            "pass_s": (statistics.median(passes), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        log(summary("pass_s", "s", passes))
        log(f"metric setup_s {setup_s:.6g} s import={import_s:.4g} "
            f"median of {SETUP_REPEATS} set-ups={statistics.median(setups):.4g}")
        log(f"metric peak_rss_mb {rss:.6g} MB after one pass; "
            f"{peak_rss_mb():.6g} MB at the end")
        log(summary("pass_wall_s", "s", walls) + " (unscaled wall time)")
        log(f"metric machine_speed {clock.speed():.4g} ratio "
            f"(median reference kernel time / measured)")
        for name, unit, values in wl.report(job_times):
            log(summary(name, unit, values))

    log(f"metric failed_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in results.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
