"""Fixed-step RK4 integration of gate and circuit ODEs.

The rescaled model keeps every exact state in [0, 1]: each gate integrates
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
x_k = (1 - A^k)*d + A^k*x0, for a batch of K points.  Every gate trajectory
of :func:`simulate_gate`, :func:`simulate_circuit` and :func:`verify` comes
from one integrator: one scalar :func:`gates.gate_drive` call per RK4 stage
(scalar while the benchmark's traced self-check counts them) gives every
B_k, and a doubling scan solves the recurrence (Blelloch, "Prefix sums and
their applications", 1990).  Neither the closed form nor the scan
reproduces the classic stage-by-stage loop to the last bit; both agree
with it within 1e-12.

A Hill term is defined for levels >= 0, but an RK4 stage value of a gate
can dip below 0 (an overshoot at alpha*h > 2, or an input breakpoint
inside a step).  One rule covers it: a gate reads an upstream stage value
below 0 as 0, which is also the limit of the log-space kernel
:func:`gates.gate_drives` at u = 0.  The trace keeps RK4's own values.

:func:`verify_combos` simulates and monitors one input combination at a
time and keeps no trace it has yielded; :func:`verify` keeps only the
monitoring entries, so neither holds more than one trace at a time.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, TimingBudget, propagate_timing
from .formulas import Formula
from .gates import (
    HIGH, LOW, ExtendedTruthRow, GateParams, _check_finite_positive, _check_initial,
    gate_drive, row_formula,
)
from .monitor import robustness
from .signals import Signal

__all__ = [
    "SimConfig", "time_grid", "simulate_gate", "simulate_circuit",
    "simulate_constant_drive", "verify", "verify_combos", "VerifyReport", "VerifyEntry",
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


def _program(var, schedule) -> tuple[np.ndarray, np.ndarray]:
    """An input program as (start times, levels) arrays; ``ValueError``
    unless it is a valid constant level or breakpoint list (see
    :class:`SimConfig`).  A constant level holds from t = 0."""
    if isinstance(schedule, numbers.Real):
        starts, levels = np.zeros(1), np.array([float(schedule)])
    else:
        points = list(schedule)
        if not points:
            raise ValueError(f"the program of input {var!r} is empty")
        starts = np.array([float(t0) for t0, _ in points])
        levels = np.array([float(lvl) for _, lvl in points])
        if starts[0] != 0.0:
            raise ValueError(
                f"the program of input {var!r} must start at t=0, not t={starts[0]}"
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
    """Levels of a :func:`_program` at each of ``times``, all >= 0.

    A level starts to hold at t >= t0 - 1e-12, so a time that misses its
    breakpoint by rounding still sees the new level.
    """
    starts, levels = program  # starts[0] is 0, so every index is >= 0
    return levels[np.searchsorted(starts - 1e-12, times, side="right") - 1]


def _circuit_step(c: Circuit, step: float | None) -> float:
    """``step`` if given, else the circuit's ``sim.h``, else 0.01."""
    return step if step is not None else float(c.sim.get("h", DEFAULT_STEP))


def time_grid(horizon: float, step: float) -> np.ndarray:
    """Sample times 0, step, ... through the first one at or past horizon."""
    n = int(round(horizon / step))
    if abs(n * step - horizon) > 1e-9:
        n = int(np.ceil(horizon / step - 1e-9))
    return np.arange(n + 1) * step


def simulate_gate(g: GateParams, cfg: SimConfig) -> Signal:
    """Integrate a single gate, output ``x``, under the input programs of ``cfg``.

    ``cfg.inputs`` names the gate's inputs in input order; ``cfg.initial``
    may give ``x`` its initial value, 0 by default.  The trace holds the
    inputs and ``x``, and equals that of a one-gate circuit under
    :func:`simulate_circuit` to the last bit.  Raises ``ValueError`` if
    ``cfg.inputs`` names more or fewer inputs than the gate takes or names
    an input ``x``, or if ``cfg.initial`` names another variable.
    """
    names = tuple(cfg.inputs)
    if len(names) != g.kind.arity:
        raise ValueError(f"input names {list(names)} in cfg.inputs: "
                         f"{g.kind.value} gate takes {g.kind.arity} input(s)")
    if "x" in names:
        raise ValueError("the output name 'x' is also an input name")
    if set(cfg.initial) - {"x"}:
        raise ValueError(f"cfg.initial may name only 'x', not {sorted(cfg.initial)}")
    times = time_grid(cfg.horizon, cfg.step)
    values, stages = _input_stages(cfg, names, times)
    values["x"], _ = _gate_trajectory("gate 'x'", g, names, stages, cfg.initial.get("x", 0.0),
                                      cfg.step, read=False)
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
    drive: np.ndarray, alpha: float, x0: float | np.ndarray, h: float, n_steps: int
) -> np.ndarray:
    """RK4 for dx/dt = alpha*(drive - x), vectorised over trajectories.

    Returns an array of shape (n_steps+1, len(drive)), in closed form:
    under a constant drive d every step is x' = A*x + (1 - A)*d, so
    x_k = (1 - A^k)*d + A^k*x0, with 1 - A^k taken as -expm1(k*log A).
    ``x0`` is one initial value for every trajectory or one per
    trajectory.  It agrees with stepping RK4 stage by stage within 1e-12,
    and moves monotonically toward d.  Each operation is monotone in d, so
    every x_k is too, to the last bit.  Near :data:`RK4_STABILITY_LIMIT` it
    drifts from exact RK4 by about k*4e-17 at step k, so that bound holds
    up to about 25,000 steps there.  Raises ``ValueError`` if alpha*h
    exceeds the limit.
    """
    drive = np.asarray(drive, dtype=float)
    k_log_a = np.arange(n_steps + 1.0) * _log_step_factor(alpha, h)
    out = np.multiply.outer(-np.expm1(k_log_a), drive)
    # a (T, 1) column for a scalar x0: no second (T, N) outer product
    out += np.exp(k_log_a)[:, None] * x0
    out[0] = x0
    return out


def _input_stages(cfg: SimConfig, names, times: np.ndarray) -> tuple[dict, dict]:
    """The levels of the input programs ``names`` of ``cfg`` at ``times``,
    and their values at the four RK4 stages of every step: the level at t,
    t + h/2, t + h/2 and t + h, one list of Python floats per stage."""
    h = cfg.step
    values, stages = {}, {}
    for v in names:
        program = cfg._programs[v]
        values[v] = _levels_at(program, times)
        u_mid, u_end = (_levels_at(program, times[:-1] + dt).tolist() for dt in (0.5 * h, h))
        stages[v] = (values[v][:-1].tolist(), u_mid, u_mid, u_end)
    return values, stages


def _gate_trajectory(what: str, g: GateParams, inputs, stages: dict, x0: float, h: float,
                     read: bool = True) -> tuple[np.ndarray, tuple | None]:
    """One gate's RK4 trajectory from ``x0``, and, if ``read``, its own
    stage values, each below 0 read as 0, in the form of ``stages``'
    values (else None).

    ``stages`` maps each of ``inputs``, the gate's inputs in order, to its
    values at the four RK4 stages of every step.  One scalar ``gate_drive``
    call per step and stage gives the drives.  Step k is then
    x_{k+1} = A*x_k + B_k, with every B_k the step from x = 0, and a
    doubling scan solves the recurrence in ceil(log2(steps + 1)) array
    passes: after the pass for s, x_k holds the sum of A^(k-j) * B_j over
    the last 2s terms.  It has no division, so it stays accurate where A^s
    underflows.  ``what`` names the gate in a ``ValueError``.
    """
    log_a = _log_step_factor(g.alpha, h, f"{what}: ")
    n_steps = len(stages[inputs[0]][0])
    # a local for speed, read at each call, so a wrapper installed on this
    # module's gate_drive before the call sees every call
    gd = gate_drive
    drives = [
        np.fromiter(map(gd, itertools.repeat(g), zip(*seqs)), float, n_steps)
        for seqs in zip(*(stages[v] for v in inputs))
    ]
    x = np.empty(n_steps + 1)
    x[0] = x0
    x[1:] = _rk4_step(0.0, drives, g.alpha, h)[0]
    s = 1
    while s <= n_steps:
        x[s:] += math.exp(s * log_a) * x[:-s]
        s *= 2
    if not read:
        return x, None
    # stage 1 of step k is x_k, so the trajectory less its last point;
    # each read below 0 as 0, the one place the drive rule is applied
    _, ys = _rk4_step(x[:-1], drives, g.alpha, h)
    return x, tuple(np.maximum(y, 0.0).tolist() for y in (x[:-1], *ys))


def simulate_circuit(
    c: Circuit, params: dict[str, GateParams], cfg: SimConfig
) -> Signal:
    """Integrate the gate ODEs of a circuit by RK4, one gate at a time.

    External inputs are read from ``cfg.inputs``; the trace contains the
    external inputs and every gate output variable.  A gate's drive reads
    only upstream signals, so :func:`_gate_trajectory` integrates the gates
    in topological order, each over every step before its consumers, from
    the stage values of its inputs: an upstream gate's x, x + (h/2)*k1,
    x + (h/2)*k2 and x + h*k3, an external input's level at t, t + h/2,
    t + h/2 and t + h.  Trajectories agree with stepping all gates together within 1e-12; near
    :data:`RK4_STABILITY_LIMIT` they drift from exact RK4 by about k*4e-17
    at step k, so up to about 25,000 steps there.  A gate reads an
    upstream stage value below 0 as 0 (see the module docstring).  Raises
    ``ValueError`` if ``params``, ``cfg.inputs`` or ``cfg.initial`` fails
    its check by ``c``, or if a gate's alpha*h exceeds the limit.
    """
    c.check_params(params)
    c.check_inputs(cfg.inputs)
    c.check_initial(cfg.initial)

    times = time_grid(cfg.horizon, cfg.step)
    # per signal still to be read, its values at the four RK4 stages of
    # every step, one list of Python floats per stage
    values, stages = _input_stages(cfg, c.external_inputs, times)
    order = c.topo_order()
    last_reader = {v: i for i, gid in enumerate(order) for v in c.gates[gid].inputs}
    for i, gid in enumerate(order):
        gate = c.gates[gid]
        x, gate_stages = _gate_trajectory(
            f"gate {gid!r}", params[gid], gate.inputs, stages,
            cfg.initial.get(gate.output, 0.0), cfg.step, gate.output in last_reader,
        )
        values[gate.output] = x
        if gate_stages is not None:
            stages[gate.output] = gate_stages
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
    """The :class:`VerifyEntry` of every input combination and network
    output, in :func:`verify_combos` order.  It holds no trace:
    :func:`verify_combos` yields each combination's trace once."""

    entries: tuple[VerifyEntry, ...]

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


def verify_combos(
    c: Circuit,
    params: dict[str, GateParams],
    tb: TimingBudget | None = None,
    step: float | None = None,
) -> Iterator[tuple[str, Signal, tuple[VerifyEntry, ...]]]:
    """Simulate and monitor one input combination at a time.

    For each combination of low/high external inputs, in
    ``itertools.product((LOW, HIGH), ...)`` order over
    ``c.external_inputs``, yields ``(key, trace, entries)``: ``key`` names
    the combination as ``"A=high,B=low"``, ``trace`` is its
    :func:`simulate_circuit` run and ``entries`` its :class:`VerifyEntry`
    per network output.  Inputs are driven at 1 (high) / 0 (low) and held
    for lambda+delta; each network output is checked against its expected
    level with the network-level timing contract.  ``step`` defaults to
    the circuit's ``sim.h``, then to 0.01; ``tb`` to
    :func:`propagate_timing`.

    The generator keeps no reference to a trace it has yielded, so memory
    stays at one trace whatever the number of combinations, as long as
    the caller drops each trace before asking for the next.
    """
    if tb is None:
        tb = propagate_timing(c)
    h = _circuit_step(c, step)
    initial = {v: float(v0) for v, v0 in c.sim.get("initial", {}).items()}
    for combo_bits in itertools.product((LOW, HIGH), repeat=len(c.external_inputs)):
        # built by a call, so that no local of this frame holds the trace
        yield _verify_combo(c, params, tb, h, initial, combo_bits)


def _verify_combo(c, params, tb, h, initial, combo_bits):
    """The ``(key, trace, entries)`` of one combination of :func:`verify_combos`."""
    lam, delta = tb.network_lambda, tb.network_delta
    combo = dict(zip(c.external_inputs, combo_bits))
    cfg = SimConfig(horizon=lam + delta, step=h, initial=initial,
                    inputs={v: (1.0 if combo[v] == HIGH else 0.0) for v in c.external_inputs})
    trace = simulate_circuit(c, params, cfg)
    key = ",".join(f"{v}={combo[v]}" for v in c.external_inputs)
    levels = _network_levels(c, combo)
    entries = []
    for gid, name in c.outputs:
        out_var = c.gates[gid].output
        expected = levels[out_var]
        row = ExtendedTruthRow(combo_bits, expected, delta, lam)
        formula = row_formula(row, c.external_inputs, out_var, c.thresholds)
        entries.append(VerifyEntry(combo=combo, output=name, expected=expected,
                                   formula=formula, robustness=robustness(formula, trace)))
    return key, trace, tuple(entries)


def verify(
    c: Circuit,
    params: dict[str, GateParams],
    tb: TimingBudget | None = None,
    step: float | None = None,
) -> VerifyReport:
    """Every :class:`VerifyEntry` of :func:`verify_combos`, in its order.

    Only the entries are kept: each combination's trace is freed once it
    has been monitored.  A caller that wants the traces iterates
    :func:`verify_combos` itself.
    """
    # itemgetter drops each (key, trace, entries) as soon as it has taken
    # the entries, so no trace is alive while the next one is simulated;
    # a for loop's target would keep the last one
    per_combo = map(operator.itemgetter(2), verify_combos(c, params, tb, step))
    return VerifyReport(entries=tuple(itertools.chain.from_iterable(per_combo)))
