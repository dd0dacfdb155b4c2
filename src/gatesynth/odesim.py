"""Fixed-step RK4 integration of gate and circuit ODEs.

The rescaled model keeps every state in [0, 1]: each gate integrates
dx/dt = alpha * (drive(inputs) - x), with external inputs read from
piecewise-constant schedules.  Fixed-step RK4 keeps runs deterministic
and aligns the trace grid with the monitoring grid.

The ODE is linear in x, so one RK4 step is affine: x' = A*x + B.  The
factor A = 1 - z + z^2/2 - z^3/6 + z^4/24 (z = alpha*h) is the step from
x = 1 under zero drive, and B is the step from x = 0 under the step's
four stage drives.  A lies in (0, 1) for 0 < z < RK4_STABILITY_LIMIT, so
trajectories decay geometrically toward the drive; past the limit they
grow, and a step that long is refused with ``ValueError``.

:func:`simulate_constant_drive` uses the closed form of a constant drive,
x_k = d + A^k * (x0 - d).  :func:`simulate_circuit` walks the gates in
topological order, which the DAG permits because a gate's drive reads
only upstream signals: it makes one scalar :func:`gates.gate_drive` call
per gate per RK4 stage from its inputs' stage values (scalar while the
benchmark's traced self-check counts them), forms every B_k at once and
solves the recurrence by a doubling scan (Blelloch, "Prefix sums and
their applications", 1990).  Neither reproduces the classic
stage-by-stage loop to the last bit; both agree with it within 1e-12.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, TimingBudget, propagate_timing
from .formulas import Formula
from .gates import (
    HIGH, LOW, ExtendedTruthRow, GateParams, _check_finite_positive, gate_drive,
    row_formula,
)
from .monitor import robustness
from .signals import Signal

__all__ = [
    "SimConfig", "schedule_value", "time_grid", "simulate_gate", "simulate_circuit",
    "simulate_constant_drive", "verify", "VerifyReport", "VerifyEntry",
    "RK4_STABILITY_LIMIT",
]

DEFAULT_STEP = 0.01
# the alpha*h at which the RK4 step factor A reaches 1: the real root of
# z^3 - 4z^2 + 12z - 24.  Near it A - 1 loses digits to cancellation, so
# the closed form and the scan drift from exact RK4 by about k*4e-17 over
# k steps: within 1e-12 up to about 25,000 steps there.
RK4_STABILITY_LIMIT = 2.785293563405282


@dataclass(frozen=True)
class SimConfig:
    """Integration settings: step, horizon, initial values, input program.

    ``inputs`` maps an external variable to its input program, in one of
    two forms: a constant level, or a piecewise-constant breakpoint list
    [(t0, level0), (t1, level1), ...] with t0 = 0 and strictly increasing
    finite times, each level holding until the next breakpoint.  Every
    level must be finite and >= 0, and so must every ``initial`` value;
    step and horizon must be finite and > 0.
    """

    horizon: float
    step: float = DEFAULT_STEP
    initial: dict[str, float] = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    # each input program as (start times, levels) arrays, from _program
    _programs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_finite_positive("step", self.step)
        _check_finite_positive("horizon", self.horizon)
        programs = {var: _program(var, schedule) for var, schedule in self.inputs.items()}
        object.__setattr__(self, "_programs", programs)
        for var, x0 in self.initial.items():
            _check_initial(var, x0)


def _check_initial(var, x0) -> None:
    """Raise ``ValueError`` unless the initial value ``x0`` is finite and >= 0."""
    if not (math.isfinite(x0) and x0 >= 0):
        raise ValueError(f"initial value of {var!r} must be finite and >= 0, got {x0}")


def _program(var, schedule) -> tuple[np.ndarray, np.ndarray]:
    """An input program as (start times, levels) arrays; ``ValueError``
    unless it is a valid constant level or breakpoint list (see
    :class:`SimConfig`).  A constant level holds from t = 0."""
    if isinstance(schedule, numbers.Real):
        starts, levels = np.zeros(1), np.array([float(schedule)])
    else:
        points = list(schedule)
        if not points:
            raise ValueError(f"input program of {var!r} is empty")
        starts = np.array([float(t0) for t0, _ in points])
        levels = np.array([float(lvl) for _, lvl in points])
        if starts[0] != 0.0:
            raise ValueError(
                f"input program of {var!r} must start at t=0, not t={starts[0]}"
            )
        if not np.all(starts[:-1] < starts[1:]):
            raise ValueError(
                f"breakpoint times of {var!r} must strictly increase: {starts.tolist()}"
            )
        if not math.isfinite(starts[-1]):
            raise ValueError(f"breakpoint times of {var!r} must be finite")
    if not np.all(np.isfinite(levels) & (levels >= 0)):
        raise ValueError(f"input levels of {var!r} must be finite and >= 0")
    return starts, levels


def _levels_at(program: tuple[np.ndarray, np.ndarray], times: np.ndarray) -> np.ndarray:
    """Levels of a :func:`_program` at each of ``times``.

    A level starts to hold at t >= t0 - 1e-12, so a time that misses its
    breakpoint by rounding still sees the new level.
    """
    starts, levels = program
    i = np.searchsorted(starts - 1e-12, times, side="right") - 1
    if np.any(i < 0):
        raise ValueError(f"input program undefined at t={times[i < 0][0]}")
    return levels[i]


def schedule_value(schedule, t: float) -> float:
    """Level of an input program (see :class:`SimConfig`) at time t."""
    return float(_levels_at(_program("schedule", schedule), np.array([float(t)]))[0])


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
    """Integrate a single gate driven by constant input levels.

    ``inputs`` is one constant level per gate input, the first of the two
    input-program forms of :class:`SimConfig`; a breakpoint list needs
    :func:`simulate_circuit`.  ``input_vars`` names the inputs, one
    distinct name each, none equal to ``output_var``.  Every level and
    ``x0`` must be finite and >= 0, as in :class:`SimConfig`; otherwise
    ``ValueError``.  The returned trace contains the inputs and the output.
    """
    levels = tuple(float(u) for u in inputs)
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
    for var, lvl in zip(input_vars, levels):
        _program(var, lvl)
    _check_initial(output_var, x0)
    times = time_grid(cfg.horizon, cfg.step)
    drive = float(gate_drive(g, levels))
    x = simulate_constant_drive(
        np.array([drive]), g.alpha, np.array([float(x0)]), cfg.step, len(times) - 1
    )[:, 0]
    values = {v: np.full(times.shape, lvl) for v, lvl in zip(input_vars, levels)}
    values[output_var] = x
    return Signal(times=times, values=values)


def _rk4_step(x, d, alpha: float, h: float):
    """One classic RK4 step of dx/dt = alpha*(d - x) from x, with ``d`` the
    drives at the four stages; scalars or arrays.  Returns the end state
    and the stage states x + (h/2)*k1, x + (h/2)*k2, x + h*k3."""
    k1 = alpha * (d[0] - x)
    y2 = x + 0.5 * h * k1
    k2 = alpha * (d[1] - y2)
    y3 = x + 0.5 * h * k2
    k3 = alpha * (d[2] - y3)
    y4 = x + h * k3
    k4 = alpha * (d[3] - y4)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), (y2, y3, y4)


def _log_step_factor(alpha: float, h: float, what: str = "") -> float:
    """log A of the affine step x' = A*x + B; ``ValueError`` past the limit.

    A - 1 = z*(-1 + z*(1/2 + z*(-1/6 + z/24))) with z = alpha*h, taken
    through ``log1p`` without first rounding A, so A^k = exp(k*log A)
    keeps full precision where A is within rounding of 1 (z small).
    """
    z = alpha * h
    if not z <= RK4_STABILITY_LIMIT:
        raise ValueError(
            f"{what}alpha*step = {z:g} exceeds the RK4 stability limit "
            f"{RK4_STABILITY_LIMIT:.4f}, where trajectories diverge"
        )
    return math.log1p(z * (-1.0 + z * (0.5 + z * (-1.0 / 6.0 + z / 24.0))))


def simulate_constant_drive(
    drive: np.ndarray, alpha: float, x0: np.ndarray, h: float, n_steps: int
) -> np.ndarray:
    """RK4 for dx/dt = alpha*(drive - x), vectorised over trajectories.

    Returns an array of shape (n_steps+1, len(drive)), in closed form:
    under a constant drive d every step is x' = A*x + (1 - A)*d, so
    x_k = d + A^k * (x0 - d), one ``exp`` per step and one outer product.
    It agrees with stepping RK4 stage by stage within 1e-12, and moves
    monotonically toward d.  Near :data:`RK4_STABILITY_LIMIT` it drifts
    from exact RK4 by about k*4e-17 at step k, so that bound holds up to
    about 25,000 steps there.  Raises ``ValueError`` if alpha*h exceeds
    the limit.
    """
    drive = np.asarray(drive, dtype=float)
    log_a = _log_step_factor(alpha, h)
    out = np.multiply.outer(np.exp(np.arange(n_steps + 1.0) * log_a), x0 - drive)
    out += drive
    out[0] = x0
    return out


def simulate_circuit(
    c: Circuit, params: dict[str, GateParams], cfg: SimConfig
) -> Signal:
    """Integrate the gate ODEs of a circuit by RK4, one gate at a time.

    External inputs are read from ``cfg.inputs``; the trace contains the
    external inputs and every gate output variable.  A gate's drive reads
    only upstream signals, so the gates are integrated in topological
    order, each over every step before its consumers.  A gate's drive at
    the four RK4 stages of each step comes from one scalar ``gate_drive``
    call per stage on the stage values of its inputs: an upstream gate's
    x, x + (h/2)*k1, x + (h/2)*k2 and x + h*k3, an external input's level
    at t, t + h/2, t + h/2 and t + h.  Step k is then x_{k+1} = A*x_k + B_k,
    with every B_k the step from x = 0, and a doubling scan solves the
    recurrence in ceil(log2(steps + 1)) array passes: after the pass for
    s, x_k holds the sum of A^(k-j) * B_j over the last 2s terms.  It has
    no division, so it stays accurate where A^s underflows.  Trajectories
    agree with stepping all gates together within 1e-12; near
    :data:`RK4_STABILITY_LIMIT` they drift from exact RK4 by about k*4e-17
    at step k, so up to about 25,000 steps there.  Raises ``ValueError``
    if a gate's alpha*h exceeds the limit, if ``cfg.initial`` names a
    variable that is no gate output, or if a gate with non-integer n reads
    a stage value below 0 (an upstream overshoot at alpha*h > 2, or an
    input breakpoint inside a step), whose Hill term is complex.
    """
    missing = set(c.gates) - set(params)
    if missing:
        raise ValueError(f"no parameters for gates: {sorted(missing)}")
    for var in c.external_inputs:
        if var not in cfg.inputs:
            raise ValueError(f"no input program for external input {var!r}")
    unknown = set(cfg.initial) - {g.output for g in c.gates.values()}
    if unknown:
        raise ValueError(f"initial values for no gate output: {sorted(unknown)}")

    times = time_grid(cfg.horizon, cfg.step)
    h = cfg.step
    n_steps = times.size - 1
    ext = c.external_inputs
    programs = cfg._programs
    values = {v: _levels_at(programs[v], times) for v in ext}
    # per signal still to be read, its values at the four RK4 stages of
    # every step, n_steps Python floats each
    stages = {}
    for v in ext:
        u_mid, u_end = (
            _levels_at(programs[v], times[:-1] + dt).tolist() for dt in (0.5 * h, h)
        )
        stages[v] = (values[v][:-1].tolist(), u_mid, u_mid, u_end)
    order = c.topo_order()
    last_reader = {v: i for i, gid in enumerate(order) for v in c.gates[gid].inputs}

    # a local for speed, read at each call, so a wrapper installed on this
    # module's gate_drive before the call sees every call
    gd = gate_drive
    for i, gid in enumerate(order):
        gate, g = c.gates[gid], params[gid]
        log_a = _log_step_factor(g.alpha, h, f"gate {gid!r}: ")
        try:
            drives = [
                np.fromiter(map(gd, itertools.repeat(g), zip(*seqs)), float, n_steps)
                for seqs in zip(*(stages[v] for v in gate.inputs))
            ]
        except TypeError:  # a complex Hill term: a stage value below 0 to a non-integer n
            low = [v for v in gate.inputs if min(map(min, stages[v])) < 0]
            if not low:
                raise
            raise ValueError(f"gate {gid!r}: RK4 stage values of {low} fall below 0, where "
                             f"a Hill term with n = {g.n:g} is complex; shorten the step") from None
        x = np.empty(n_steps + 1)
        x[0] = cfg.initial.get(gate.output, 0.0)
        x[1:] = _rk4_step(0.0, drives, g.alpha, h)[0]
        s = 1
        while s <= n_steps:
            x[s:] += math.exp(s * log_a) * x[:-s]
            s *= 2
        values[gate.output] = x
        if gate.output in last_reader:
            # stage 1 of step k is x_k, so the trajectory less its last point
            _, ys = _rk4_step(x[:-1], drives, g.alpha, h)
            stages[gate.output] = (x[:-1].tolist(), *(y.tolist() for y in ys))
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
