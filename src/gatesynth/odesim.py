"""Fixed-step RK4 integration of gate and circuit ODEs.

The rescaled model keeps every state in [0, 1]: each gate integrates
dx/dt = alpha * (drive(inputs) - x), with external inputs read from
piecewise-constant schedules.  Fixed-step RK4 keeps runs deterministic
and aligns the trace grid with the monitoring grid.

:func:`simulate_circuit` integrates a circuit gate by gate in
topological order, which the DAG permits because a gate's drive reads
only upstream signals.  Each gate runs its own RK4 recurrence over every
step on Python floats, fed by one scalar :func:`gates.gate_drive` call
per RK4 stage from its inputs' recorded stage values, and records its
own stage states for its consumers.  The per-gate recurrence is the
piece an array scan can replace; the per-stage calls stay scalar while
the benchmark's traced self-check counts them.

:func:`simulate_constant_drive`, the batch of single-gate trajectories
behind numeric synthesis, steps every trajectory at once in preallocated
buffers, writing each step straight into its row of the result.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, TimingBudget, propagate_timing
from .formulas import Formula
from .gates import (
    HIGH, LOW, ExtendedTruthRow, GateKind, GateParams, gate_drive, row_formula,
)
from .monitor import robustness
from .signals import ConstantStimulus, Signal

__all__ = [
    "SimConfig", "schedule_value", "time_grid", "simulate_gate", "simulate_circuit",
    "simulate_constant_drive", "verify", "VerifyReport", "VerifyEntry",
]

DEFAULT_STEP = 0.01


@dataclass(frozen=True)
class SimConfig:
    """Integration settings: step, horizon, initial values, input program.

    ``inputs`` maps an external variable to either a constant level or a
    piecewise-constant schedule [(t0, level0), (t1, level1), ...] with
    t0 = 0 and strictly increasing breakpoint times; each level holds
    until the next breakpoint.  Every level must be finite.
    """

    horizon: float
    step: float = DEFAULT_STEP
    initial: dict[str, float] = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be > 0")
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")
        for var, schedule in self.inputs.items():
            _check_schedule(var, schedule)


def _check_schedule(var, schedule) -> None:
    """Raise ``ValueError`` unless ``schedule`` is a valid input program."""
    if isinstance(schedule, ConstantStimulus):
        schedule = schedule.level
    if isinstance(schedule, (int, float)):
        levels = [schedule]
    else:
        points = list(schedule)
        if not points:
            raise ValueError(f"input program of {var!r} is empty")
        starts = [float(t0) for t0, _ in points]
        levels = [lvl for _, lvl in points]
        if starts[0] != 0.0:
            raise ValueError(
                f"input program of {var!r} must start at t=0, not t={starts[0]}"
            )
        if not all(a < b for a, b in zip(starts, starts[1:])):
            raise ValueError(
                f"breakpoint times of {var!r} must strictly increase: {starts}"
            )
        if not math.isfinite(starts[-1]):
            raise ValueError(f"breakpoint times of {var!r} must be finite")
    if not all(math.isfinite(lvl) for lvl in levels):
        raise ValueError(f"input levels of {var!r} must be finite")


def _levels_at(schedule, times: np.ndarray) -> np.ndarray:
    """Levels of an input program at each of ``times``.

    A level starts to hold at t >= t0 - 1e-12, so a time that misses its
    breakpoint by rounding still sees the new level.
    """
    if isinstance(schedule, ConstantStimulus):
        schedule = schedule.level
    if isinstance(schedule, (int, float)):
        return np.full(times.shape, float(schedule))
    starts = np.array([float(t0) for t0, _ in schedule])
    levels = np.array([float(lvl) for _, lvl in schedule])
    i = np.searchsorted(starts - 1e-12, times, side="right") - 1
    if np.any(i < 0):
        raise ValueError(f"schedule {schedule!r} undefined at t={times[i < 0][0]}")
    return levels[i]


def schedule_value(schedule, t: float) -> float:
    """Level of a constant or piecewise-constant input program at time t."""
    _check_schedule("schedule", schedule)
    return float(_levels_at(schedule, np.array([float(t)]))[0])


def time_grid(horizon: float, step: float) -> np.ndarray:
    """Sample times 0, step, ... through the first one at or past horizon."""
    n = int(round(horizon / step))
    if abs(n * step - horizon) > 1e-9:
        n = int(np.ceil(horizon / step - 1e-9))
    return np.arange(n + 1) * step


def simulate_gate(
    g: GateParams,
    inputs,
    x0: float,
    cfg: SimConfig,
    input_vars=None,
    output_var: str = "x",
) -> Signal:
    """Integrate a single gate driven by constant input stimuli.

    ``inputs`` is one constant level (or :class:`ConstantStimulus`) per
    gate input, and ``input_vars`` names them, one distinct name each,
    none equal to ``output_var``.  The returned trace contains the inputs
    and the output.
    """
    levels = tuple(
        u.level if isinstance(u, ConstantStimulus) else float(u) for u in inputs
    )
    arity = g.kind.arity
    if len(levels) != arity:
        raise ValueError(f"{g.kind.value} gate takes {arity} input(s)")
    if input_vars is None:
        input_vars = ("u",) if arity == 1 else ("u1", "u2")
    input_vars = tuple(input_vars)
    if len(input_vars) != arity:
        raise ValueError(
            f"{g.kind.value} gate takes {arity} input name(s), got {len(input_vars)}"
        )
    if len(set(input_vars)) != arity:
        raise ValueError(f"input names must be distinct, got {input_vars}")
    if output_var in input_vars:
        raise ValueError(f"output name {output_var!r} is also an input name")
    times = time_grid(cfg.horizon, cfg.step)
    drive = float(gate_drive(g, levels))
    x = simulate_constant_drive(
        np.array([drive]), g.alpha, np.array([float(x0)]), cfg.step, len(times) - 1
    )[:, 0]
    values = {v: np.full(times.shape, lvl) for v, lvl in zip(input_vars, levels)}
    values[output_var] = x
    return Signal(times=times, values=values)


def simulate_constant_drive(
    drive: np.ndarray, alpha: float, x0: np.ndarray, h: float, n_steps: int
) -> np.ndarray:
    """RK4 for dx/dt = alpha*(drive - x), vectorised over trajectories.

    Returns an array of shape (n_steps+1, len(drive)).  Each step is
    written in place into preallocated stage buffers and straight into its
    row of the result, with the per-element operations of the expression
    form: ``alpha*(drive - x)``, ``x + (0.5*h)*k``,
    ``x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4)``, so trajectories are the same
    to the last bit.
    """
    drive = np.asarray(drive, dtype=float)
    out = np.empty((n_steps + 1, drive.size))
    out[0] = x0
    k1, k2, k3, k4, tmp = (np.empty(drive.size) for _ in range(5))
    half, sixth = 0.5 * h, h / 6.0
    # positional ``out`` arguments: a keyword costs more than the
    # arithmetic on a few hundred trajectories
    sub, mul, add = np.subtract, np.multiply, np.add
    for k in range(n_steps):
        x = out[k]
        mul(sub(drive, x, k1), alpha, k1)
        add(mul(k1, half, tmp), x, tmp)
        mul(sub(drive, tmp, k2), alpha, k2)
        add(mul(k2, half, tmp), x, tmp)
        mul(sub(drive, tmp, k3), alpha, k3)
        add(mul(k3, h, tmp), x, tmp)
        mul(sub(drive, tmp, k4), alpha, k4)
        # ((k1 + 2*k2) + 2*k3) + k4; k2 then holds 2*k3
        add(mul(k2, 2.0, tmp), k1, tmp)
        add(mul(k3, 2.0, k2), tmp, tmp)
        mul(add(tmp, k4, tmp), sixth, tmp)
        add(x, tmp, out[k + 1])
    return out


def _stage_list(schedule, times: np.ndarray) -> list[float]:
    """Levels of an input program at each of ``times``, as Python floats.

    A constant program repeats one float object, so its list costs one
    pointer per step.
    """
    if isinstance(schedule, ConstantStimulus):
        schedule = schedule.level
    if isinstance(schedule, (int, float)):
        return [float(schedule)] * times.size
    return _levels_at(schedule, times).tolist()


def simulate_circuit(
    c: Circuit, params: dict[str, GateParams], cfg: SimConfig
) -> Signal:
    """Integrate the gate ODEs of a circuit by RK4, one gate at a time.

    External inputs are read from ``cfg.inputs``; the trace contains the
    external inputs and every gate output variable.  A gate's drive reads
    only upstream signals, so the gates are integrated in topological
    order, each over every step before its consumers.  A gate's drive at
    the four RK4 stages of each step comes from the stage values of its
    inputs: an upstream gate's x, x + (h/2)*k1, x + (h/2)*k2 and x + h*k3,
    an external input's level at t, t + h/2, t + h/2 and t + h.  Its own
    recurrence runs on Python floats in the order of operations of the
    coupled array form x + (h/6) * (k1 + 2*k2 + 2*k3 + k4), so
    trajectories are the same to the last bit as stepping all gates
    together.
    """
    missing = set(c.gates) - set(params)
    if missing:
        raise ValueError(f"no parameters for gates: {sorted(missing)}")
    for var in c.external_inputs:
        if var not in cfg.inputs:
            raise ValueError(f"no input program for external input {var!r}")

    times = time_grid(cfg.horizon, cfg.step)
    h = cfg.step
    n_steps = times.size - 1
    ext = c.external_inputs
    values = {v: _levels_at(cfg.inputs[v], times) for v in ext}
    # per signal still to be read, its values at the four RK4 stages of
    # every step, n_steps each
    stages = {}
    for v in ext:
        u_t, u_mid, u_end = (
            _stage_list(cfg.inputs[v], ts)
            for ts in (times[:-1], times[:-1] + 0.5 * h, times[:-1] + h)
        )
        stages[v] = (u_t, u_mid, u_mid, u_end)
    order = c.topo_order()
    last_reader = {v: i for i, gid in enumerate(order) for v in c.gates[gid].inputs}

    # a local for speed, read at each call, so a wrapper installed on this
    # module's gate_drive before the call sees every call
    gd = gate_drive
    half, sixth = 0.5 * h, h / 6.0
    for i, gid in enumerate(order):
        gate, g = c.gates[gid], params[gid]
        a = g.alpha
        drives = [
            map(gd, itertools.repeat(g), zip(*seqs))
            for seqs in zip(*(stages[v] for v in gate.inputs))
        ]
        x = float(cfg.initial.get(gate.output, 0.0))
        # float64 buffers, a quarter of the memory of lists of float
        # objects; iterating one yields Python floats
        xs, y2s, y3s, y4s = array("d", [x]), array("d"), array("d"), array("d")
        put_x, put2, put3, put4 = xs.append, y2s.append, y3s.append, y4s.append
        for d1, d2, d3, d4 in zip(*drives):
            k1 = a * (d1 - x)
            y = x + half * k1
            put2(y)
            k2 = a * (d2 - y)
            y = x + half * k2
            put3(y)
            k3 = a * (d3 - y)
            y = x + h * k3
            put4(y)
            k4 = a * (d4 - y)
            x = x + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
            put_x(x)
        values[gate.output] = np.array(xs)
        if gate.output in last_reader:
            # stage 1 of step k is x_k, so the trajectory less its last point
            stages[gate.output] = (memoryview(xs)[:n_steps], y2s, y3s, y4s)
        for v in gate.inputs:  # released after their last reader
            if last_reader[v] == i:
                stages.pop(v, None)
    return Signal(times=times, values=values)


@dataclass(frozen=True)
class VerifyEntry:
    combo: dict[str, str]  # external input -> "high"/"low"
    output: str
    expected: str
    formula: Formula
    robustness: float

    @property
    def passed(self) -> bool:
        return self.robustness >= 0.0


@dataclass(frozen=True)
class VerifyReport:
    entries: tuple[VerifyEntry, ...]
    traces: dict[str, Signal] = field(compare=False, default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[VerifyEntry]:
        return [e for e in self.entries if not e.passed]


def _network_levels(c: Circuit, input_levels: dict[str, str]) -> dict[str, str]:
    """Propagate boolean levels through the gate DAG."""
    levels = dict(input_levels)
    for gid in c.topo_order():
        g = c.gates[gid]
        levels[g.output] = g.kind.output_level(tuple(levels[v] for v in g.inputs))
    return levels


def verify(
    c: Circuit,
    params: dict[str, GateParams],
    tb: TimingBudget | None = None,
    step: float | None = None,
) -> VerifyReport:
    """Simulate every input combination and monitor the network rows.

    Inputs are driven at 1 (high) / 0 (low) and held for lambda+delta;
    each network output is checked against its expected level with the
    network-level timing contract.
    """
    if tb is None:
        tb = propagate_timing(c)
    h = step if step is not None else float(c.sim.get("h", DEFAULT_STEP))
    lam, delta = tb.network_lambda, tb.network_delta
    horizon = lam + delta

    entries = []
    traces = {}
    for combo_bits in itertools.product((LOW, HIGH), repeat=len(c.external_inputs)):
        combo = dict(zip(c.external_inputs, combo_bits))
        cfg = SimConfig(
            horizon=horizon,
            step=h,
            initial={v: float(v0) for v, v0 in c.sim.get("initial", {}).items()},
            inputs={v: (1.0 if combo[v] == HIGH else 0.0) for v in c.external_inputs},
        )
        trace = simulate_circuit(c, params, cfg)
        key = ",".join(f"{v}={combo[v]}" for v in c.external_inputs)
        traces[key] = trace
        levels = _network_levels(c, combo)
        for gid, name in c.outputs:
            out_var = c.gates[gid].output
            expected = levels[out_var]
            row = ExtendedTruthRow(
                input_levels=combo_bits, output_level=expected, delta=delta, lam=lam
            )
            formula = row_formula(
                row, tuple(c.external_inputs), out_var, c.thresholds
            )
            rho = robustness(formula, trace, 0.0)
            entries.append(
                VerifyEntry(
                    combo=combo,
                    output=name,
                    expected=expected,
                    formula=formula,
                    robustness=rho,
                )
            )
    return VerifyReport(entries=tuple(entries), traces=traces)
