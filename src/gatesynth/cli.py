"""Command-line front end: timing analysis, synthesis, regions, verification.

Subcommands
-----------
timing   per-gate response-time and persistence budgets for a circuit file
synth    analytic parameter regions for every gate in a circuit
region   sampled admissible region for a single gate kind
verify   simulate all input combinations and monitor the network contracts
monitor  robustness of an STL formula on a trace CSV

Exit codes.  :func:`main` maps each error's type to its code and prints
one ``error: ...`` line on stderr:

0  success
1  a bad argument (argparse), or a ``ValueError``, ``OSError`` or
   ``UnknownVariableError`` from the library or a file loader, such as
   a params file or ``sim.initial`` naming what the circuit does not have
2  a ``GraphError``: a cycle, an undefined variable, a variable written
   by two gates, a gate output that shadows an external input, a
   repeated external input or gate id, a gate off every input-to-output path
3  an ``EmptyRegionError``: a gate with no region (``synth.gate_regions``)
4  ``verify`` ran and some row failed its contract

Every command but ``monitor`` writes a run manifest next to its outputs
so a run can be reproduced from the files alone.  :func:`main` writes it
from the parsed command line once the command has returned (exit 0 or
4); a command that raises leaves none.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from . import __version__
from .circuit import Circuit, GraphError, _is_number, propagate_timing, wiring_formulas
from .formulas import parse
from .gates import GateKind, GateParams, Thresholds, _check_finite_positive
from .monitor import robustness
from .odesim import VerifyReport, verify_combos
from .signals import Signal, UnknownVariableError, read_trace_csv, write_trace_csv
from .synth import (
    EmptyRegionError, NumericGrid, export_region_csv, gate_regions, sample_region,
    synthesize_circuit,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GRAPH = 2
EXIT_EMPTY = 3
EXIT_VERIFY = 4


def _write_json(path: str, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _load_circuit(path: str) -> Circuit:
    try:
        return Circuit.from_json(path)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, GraphError):
            raise  # exit code 2, mapped in main
        raise ValueError(f"bad circuit file {path}: {exc}") from None


def _k_grid(resolution: int, arity: int) -> NumericGrid:
    """Uniform grid of ``resolution`` points per K axis over (0, 1]."""
    axis = (1.0 / resolution, 1.0, resolution)
    return NumericGrid(axes={f"K{i}": axis for i in range(1, arity + 1)})


def _grid_resolution(text: str) -> int:
    """argparse type of ``--grid``: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"grid resolution must be >= 1, got {value}")
    return value


def _hill_n(text: str) -> float:
    """argparse type of a Hill coefficient: a finite number > 0."""
    try:
        value = float(text)
        _check_finite_positive("Hill coefficient n", value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _gate_n(text: str) -> tuple[str, float]:
    """argparse type of ``synth --n``: ``GATE=VALUE`` as a (gate id, n) pair."""
    gid, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected GATE=VALUE, got {text!r}")
    return gid, _hill_n(value)


# ---------------------------------------------------------------------------
# subcommands


def cmd_timing(args) -> int:
    c = _load_circuit(args.circuit)
    out = _ensure_out(args.out)
    tb = propagate_timing(c)

    print(f"network: delta={tb.network_delta:g} lambda={tb.network_lambda:g} "
          f"input hold={tb.input_hold:g}")
    print(f"{'gate':<10}{'kind':<6}{'delta(M)':>10}{'lambda(M)':>11}")
    for gid in c.topo_order():
        print(f"{gid:<10}{c.gates[gid].kind.value:<6}"
              f"{tb.delta[gid]:>10.4g}{tb.lam[gid]:>11.4g}")

    data = {
        "network": {
            "delta": tb.network_delta,
            "lambda": tb.network_lambda,
            "input_hold": tb.input_hold,
        },
        "gates": {
            gid: {"delta": tb.delta[gid], "lambda": tb.lam[gid]}
            for gid in c.gates
        },
        "wiring_checks": [
            {"edge": list(edge), "formula": str(w.formula())}
            for edge, w in wiring_formulas(c, tb)
        ],
    }
    _write_json(os.path.join(out, "timing.json"), data)
    return EXIT_OK


def cmd_synth(args) -> int:
    c = _load_circuit(args.circuit)
    n = dict(args.n or ())
    if len(n) < len(args.n or ()):
        raise ValueError(f"--n gives a gate id more than once: {[gid for gid, _ in args.n]}")
    result = synthesize_circuit(c, method=args.method, n=n)
    out = _ensure_out(args.out)

    payload = result.to_dict()
    grids = {}
    if args.method == "m2":
        for gid, gs in result.gates.items():
            if gs.region is None:
                continue
            grid = _k_grid(args.grid, gs.kind.arity)
            pts, inside, binding = sample_region(gs.region, grid)
            path = os.path.join(out, f"region_{gid}.csv")
            export_region_csv(path, pts, inside, binding)
            grids[gid] = path
        payload["region_grids"] = grids

    for gid, gs in sorted(result.gates.items()):
        line = (f"{gid:<10}{gs.kind.value:<6}n={gs.n:g} (bound {gs.n_bound:.4f})  "
                f"alpha>={gs.alpha_min:.4f}")
        if gs.box is not None:  # None under m2 below the Method 1 bound
            line += "  " + " ".join(
                f"{a}=[{lo:.4f},{hi:.4f}]" for a, (lo, hi) in gs.box.intervals.items()
            )
        print(line)

    _write_json(os.path.join(out, "synthesis.json"), payload)
    return EXIT_OK


def cmd_region(args) -> int:
    kind = GateKind(args.kind)
    th = Thresholds(plus=args.plus, minus=args.minus, p=args.p)
    nb, box, region = gate_regions(kind, (th,) * (kind.arity + 1), args.n, args.method)
    out = _ensure_out(args.out)
    grid = _k_grid(args.grid, kind.arity)
    pts, inside, binding = sample_region(region or box, grid)
    path = os.path.join(out, "region.csv")
    export_region_csv(path, pts, inside, binding)
    print(f"{int(inside.sum())} of {len(pts)} grid points inside "
          f"(n bound {nb:.4f})")
    print(f"wrote {path}")
    return EXIT_OK


def _load_params(path: str, c: Circuit) -> dict[str, GateParams]:
    """Read a JSON object of gate id -> {n, alpha, k: [...]} for every gate
    and no other id; n, alpha and each k must be JSON numbers."""
    params = {}
    where = ""
    try:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
        c.check_params(raw)
        for gid, spec in raw.items():
            where = f" gate {gid!r}:"
            n, alpha, ks = spec["n"], spec["alpha"], spec["k"]
            if not all(map(_is_number, (n, alpha, *ks))):
                raise ValueError(f"n, alpha and each k must be numbers, got {spec!r}")
            params[gid] = GateParams(kind=c.gates[gid].kind, n=float(n), alpha=float(alpha),
                                     hill_k=tuple(float(k) for k in ks))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad params file {path}:{where} {exc}") from None
    return params


def cmd_verify(args) -> int:
    """Simulate and monitor every input combination of a circuit.

    Each combination's ``trace_*.csv`` is written as soon as it has been
    simulated, so memory does not grow with the number of combinations.
    """
    c = _load_circuit(args.circuit)
    params = _load_params(args.params, c)
    out = _ensure_out(args.out)
    tb = propagate_timing(c)
    entries = []
    for key, trace, combo_entries in verify_combos(c, params, tb, step=args.step):
        fname = "trace_" + key.replace(",", "_").replace("=", "-") + ".csv"
        write_trace_csv(trace, os.path.join(out, fname))
        entries += combo_entries
    report = VerifyReport(entries=tuple(entries))

    for e in report.entries:
        combo = " ".join(f"{v}={lvl}" for v, lvl in e.combo.items())
        mark = "PASS" if e.passed else "FAIL"
        print(f"{mark}  {combo}  {e.output}={e.expected}  rho={e.robustness:+.4f}")

    _write_json(os.path.join(out, "verify.json"), {
        "all_pass": report.all_pass,
        "entries": [
            {
                "combo": e.combo,
                "output": e.output,
                "expected": e.expected,
                "formula": str(e.formula),
                "robustness": e.robustness,
                "passed": e.passed,
            }
            for e in report.entries
        ],
    })
    if not report.all_pass:
        fails = report.failures()
        print(f"{len(fails)} row(s) failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _load_trace(path: str) -> Signal:
    try:
        return read_trace_csv(path)
    except ValueError as exc:
        raise ValueError(f"bad trace file {path}: {exc}") from None


def cmd_monitor(args) -> int:
    sig = _load_trace(args.trace)
    rho = robustness(parse(args.formula), sig, args.t)
    print(f"{rho:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gatesynth",
                description="STL-constrained parameter synthesis for gene gate circuits")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("timing", help="per-gate timing budgets")
    t.add_argument("circuit")
    t.add_argument("--out", default=".")
    t.set_defaults(func=cmd_timing)

    s = sub.add_parser("synth", help="analytic parameter regions per gate")
    s.add_argument("circuit")
    s.add_argument("--method", choices=("m1", "m2"), default="m1")
    s.add_argument("--n", type=_gate_n, action="append", metavar="GATE=VALUE",
                   help="Hill coefficient for a gate (repeatable)")
    s.add_argument("--grid", type=_grid_resolution, default=100,
                   help="grid resolution for m2 region exports")
    s.add_argument("--out", default=".")
    s.set_defaults(func=cmd_synth)

    r = sub.add_parser("region", help="sampled region for a single gate")
    r.add_argument("--kind", type=str.upper, choices=[k.value for k in GateKind],
                   required=True, help="gate kind, in any case")
    r.add_argument("--plus", type=float, required=True)
    r.add_argument("--minus", type=float, required=True)
    r.add_argument("--p", type=float, default=0.1)
    r.add_argument("--n", type=_hill_n, required=True)
    r.add_argument("--method", choices=("m1", "m2"), default="m2")
    r.add_argument("--grid", type=_grid_resolution, default=50, metavar="R")
    r.add_argument("--out", default=".")
    r.set_defaults(func=cmd_region)

    v = sub.add_parser("verify", help="simulate and monitor a circuit")
    v.add_argument("circuit")
    v.add_argument("params", help="JSON: gate id -> {n, alpha, k: [..]}")
    v.add_argument("--step", type=float, default=None)
    v.add_argument("--out", default=".")
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("monitor", help="robustness of a formula on a trace CSV")
    m.add_argument("trace")
    m.add_argument("formula")
    m.add_argument("--t", type=float, default=0.0)
    m.set_defaults(func=cmd_monitor)
    return p


def _write_manifest(args) -> None:
    """Record a finished run in ``--out``: every parsed argument but the
    command, its handler and the circuit path goes into ``options``."""
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func", "circuit")}
    _write_json(os.path.join(args.out, "manifest.json"), {
        "command": args.command,
        "circuit": getattr(args, "circuit", None),
        "options": options,
        "out_dir": args.out,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    })


def main(argv=None) -> int:
    """Run one command and return its exit code (see the module docstring)."""
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        if "out" in vars(args):
            _write_manifest(args)
        return code
    except SystemExit as exc:  # argparse: usage errors, --help, --version
        return exc.code
    except (ValueError, OSError, UnknownVariableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, GraphError):
            return EXIT_GRAPH
        if isinstance(exc, EmptyRegionError):
            return EXIT_EMPTY
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
