"""Fixed-step RK4 integration of gate and circuit ODEs.

The rescaled model keeps every state in [0, 1]: each gate integrates
dx/dt = alpha * (drive(inputs) - x), with external inputs read from
piecewise-constant schedules.  Fixed-step RK4 keeps runs deterministic
and aligns the trace grid with the monitoring grid.
"""

from __future__ import annotations

import itertools
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
    t0 = 0; each level holds until the next breakpoint.
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


def schedule_value(schedule, t: float) -> float:
    """Level of a constant or piecewise-constant input program at time t."""
    if isinstance(schedule, (int, float)):
        return float(schedule)
    if isinstance(schedule, ConstantStimulus):
        return schedule.level
    level = None
    for t0, lvl in schedule:
        if t >= t0 - 1e-12:
            level = lvl
        else:
            break
    if level is None:
        raise ValueError(f"schedule {schedule!r} undefined at t={t}")
    return float(level)


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
    gate input.  The returned trace contains the inputs and the output.
    """
    levels = tuple(
        u.level if isinstance(u, ConstantStimulus) else float(u) for u in inputs
    )
    if len(levels) != g.kind.arity:
        raise ValueError(f"{g.kind.value} gate takes {g.kind.arity} input(s)")
    if input_vars is None:
        input_vars = ("u",) if g.kind.arity == 1 else ("u1", "u2")
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

    Returns an array of shape (n_steps+1, len(drive)).
    """
    drive = np.asarray(drive, dtype=float)
    x = np.array(x0, dtype=float).copy()
    out = np.empty((n_steps + 1, drive.size))
    out[0] = x
    for k in range(n_steps):
        k1 = alpha * (drive - x)
        k2 = alpha * (drive - (x + 0.5 * h * k1))
        k3 = alpha * (drive - (x + 0.5 * h * k2))
        k4 = alpha * (drive - (x + h * k3))
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = x
    return out


def simulate_circuit(
    c: Circuit, params: dict[str, GateParams], cfg: SimConfig
) -> Signal:
    """Integrate the coupled gate ODEs of a circuit.

    All gate equations advance together; external inputs are read from
    ``cfg.inputs``.  The trace contains external inputs and every gate
    output variable.
    """
    missing = set(c.gates) - set(params)
    if missing:
        raise ValueError(f"no parameters for gates: {sorted(missing)}")
    for var in c.external_inputs:
        if var not in cfg.inputs:
            raise ValueError(f"no input program for external input {var!r}")

    order = c.topo_order()
    state_vars = [c.gates[gid].output for gid in order]
    idx = {v: i for i, v in enumerate(state_vars)}
    x = np.array(
        [float(cfg.initial.get(v, 0.0)) for v in state_vars], dtype=float
    )
    times = time_grid(cfg.horizon, cfg.step)
    h = cfg.step

    gate_list = [(params[gid], c.gates[gid].inputs, idx[c.gates[gid].output]) for gid in order]
    ext = set(c.external_inputs)

    def deriv(y: np.ndarray, t: float) -> np.ndarray:
        u = {v: schedule_value(cfg.inputs[v], t) for v in ext}
        dy = np.empty_like(y)
        for g, in_vars, out_i in gate_list:
            vals = [u[v] if v in ext else y[idx[v]] for v in in_vars]
            dy[out_i] = g.alpha * (gate_drive(g, vals) - y[out_i])
        return dy

    traj = np.empty((times.size, x.size))
    traj[0] = x
    for k in range(times.size - 1):
        t = times[k]
        k1 = deriv(x, t)
        k2 = deriv(x + 0.5 * h * k1, t + 0.5 * h)
        k3 = deriv(x + 0.5 * h * k2, t + 0.5 * h)
        k4 = deriv(x + h * k3, t + h)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        traj[k + 1] = x

    values = {
        v: np.array([schedule_value(cfg.inputs[v], t) for t in times])
        for v in c.external_inputs
    }
    for v, i in idx.items():
        values[v] = traj[:, i]
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
