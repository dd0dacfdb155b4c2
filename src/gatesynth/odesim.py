"""Fixed-step RK4 integration of gate and circuit ODEs.

The rescaled model keeps every exact state in [0, 1]: each gate integrates
dx/dt = alpha * (drive(inputs) - x), with external inputs read from
piecewise-constant schedules.  Fixed-step RK4 keeps runs deterministic
and aligns the trace grid with the monitoring grid.

The ODE is linear in x, so one RK4 step is affine: x' = A*x + B.  The
factor A = 1 - z + z^2/2 - z^3/6 + z^4/24 (z = alpha*h) is the step from
x = 1 under zero drive, and B = w1*d1 + w2*d2 + w3*d3 + w4*d4 is the step
from x = 0 under the step's four stage drives d1..d4, with
w1 = (z/6)*(1 - z + z^2/2 - z^3/4), w2 = (z/6)*(2 - z + z^2/2),
w3 = (z/6)*(2 - z) and w4 = z/6.  A, w2 and w4 are positive for every
z > 0, and w3 below z = 2; w1 turns negative at z* = RK4_MONOTONE_LIMIT,
the real root of z^3 - 2z^2 + 4z - 4 (1 - z + z^2/2 - z^3/4 times -4).
Up to z* a step is nondecreasing in x and in every stage drive, and A lies
in (0, 1), so trajectories decay geometrically toward the drive.  That is
what the worst-case-input lemma of :mod:`gatesynth.worstcase` needs in the
sampled model, and every simulator refuses a longer step with
``ValueError``.

In a circuit a gate reads an upstream gate's samples and one half-step
value.  At step k it reads x_k at stage 1, x_{k+1} at stage 4, and at
stages 2 and 3 m_k = y2/2 + (x_k + x_{k+1})/4, where
y2 = x_k + (h/2)*alpha*(d1 - x_k) is the upstream gate's own stage-2
state.  External inputs give their levels at t, t + h/2, t + h/2 and
t + h.  At the half step linear interpolation errs by +h^2*x''/8 and y2 by
-h^2*x''/8, so m_k cancels the h^2 term.  Written out,
m_k = (3/4 - z/4)*x_k + x_{k+1}/4 + (z/4)*d1, whose weights are >= 0 for
z <= 3.  With the step's own weights A and w1..w4 >= 0 for z <= z*,
induction over the gates in topological order gives two facts at any
depth.  First, every sample and every read is a non-negative combination
of initial values, input levels and drives.  Second, every sample is
monotone in each external input that reaches it along paths of one
parity: rising through an even number of NOT gates, falling through an
odd one, since every drive is monotone in each of its inputs.  This is
the comparison principle of a monotone system (Smith, "Monotone Dynamical
Systems", AMS 1995) carried by a positive RK step (Kraaijevanger, BIT
1991).

So no exact read is below 0.  In floating point, a step from 0 at
z = z* exactly, where w1 is 0, can round to a level just below it
(-1.3e-17 for an AND gate whose input falls to 0 at the half step, so
that d1 alone is not 0), and a Hill term of a non-integer n is complex
there.  So a gate reads a level below 0 as 0, which is also the limit
of the log-space kernel :func:`gates.gate_drives` at u = 0; the trace
keeps RK4's own values.

:func:`simulate_constant_drive` uses the closed form of a constant drive,
x_k = (1 - A^k)*d + A^k*x0, for a batch of K points.  Every gate trajectory
of :func:`simulate_gate`, :func:`simulate_circuit` and :func:`verify` comes
from one integrator: one scalar :func:`gates.gate_drive` call per RK4 stage
(scalar while the benchmark's traced self-check counts them) gives every
B_k, and a doubling scan solves the recurrence (Blelloch, "Prefix sums and
their applications", 1990).  Neither the closed form nor the scan
reproduces the classic stage-by-stage loop to the last bit; both agree
with it within 1e-12.  A drive's limits (a Hill ratio beyond the float
range, an infinite level) come from :attr:`gates.GateKind.drive` through
:func:`gates.gate_drives`, which ``gate_drive`` hands every case off its
finite fast path.

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
    HIGH, LOW, MAX_LEVEL, ExtendedTruthRow, GateParams, _check_finite_positive,
    _check_initial, gate_drive, row_formula,
)
from .monitor import robustness
from .signals import TIME_TOL, Signal

__all__ = [
    "SimConfig", "time_grid", "simulate_gate", "simulate_circuit",
    "simulate_constant_drive", "verify", "verify_combos", "VerifyReport", "VerifyEntry",
    "RK4_MONOTONE_LIMIT",
]

DEFAULT_STEP = 0.01
# z*, the longest alpha*h any simulator takes: where the RK4 weight w1 of
# stage drive d1 turns negative (module docstring)
RK4_MONOTONE_LIMIT = 1.2955977425220846


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
    """Levels of a :func:`_program` at each of ``times``, all >= 0.  A
    level holds from :data:`~gatesynth.signals.TIME_TOL` before its
    breakpoint, the time that names the same sample."""
    starts, levels = program  # starts[0] is 0, so every index is >= 0
    return levels[np.searchsorted(starts - TIME_TOL, times, side="right") - 1]


def _circuit_step(c: Circuit, step: float | None) -> float:
    """``step`` if given, else the circuit's ``sim.h``, else 0.01."""
    return step if step is not None else float(c.sim.get("h", DEFAULT_STEP))


def time_grid(horizon: float, step: float) -> np.ndarray:
    """Sample times 0, step, ... through the first one at or past horizon
    less :data:`~gatesynth.signals.TIME_TOL`, both finite and > 0."""
    _check_finite_positive("step", step)
    _check_finite_positive("horizon", horizon)
    n = int(round(horizon / step))
    if abs(n * step - horizon) > TIME_TOL:
        n = math.ceil((horizon - TIME_TOL) / step)
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
    g.kind.check_count(names, where=f"input names {list(names)} in cfg.inputs: ")
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
    """The end state of one classic RK4 step of dx/dt = alpha*(d - x) from
    x, with ``d`` the drives at the four stages; scalars or arrays."""
    k1 = alpha * (d[0] - x)
    k2 = alpha * (d[1] - (x + 0.5 * h * k1))
    k3 = alpha * (d[2] - (x + 0.5 * h * k2))
    k4 = alpha * (d[3] - (x + h * k3))
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _log_step_factor(alpha: float, h: float, what: str = "") -> float:
    """log A of the affine step x' = A*x + B; ``ValueError``, with ``what``
    naming the gate or row, where alpha*h exceeds :data:`RK4_MONOTONE_LIMIT`.

    A - 1 = z*(-1 + z*(1/2 + z*(-1/6 + z/24))) with z = alpha*h, taken
    through ``log1p`` without first rounding A, so A^k = exp(k*log A)
    keeps full precision where A is within rounding of 1 (z small).
    """
    z = alpha * h
    if not z <= RK4_MONOTONE_LIMIT:
        raise ValueError(
            f"{what}alpha*step = {z:g} exceeds the RK4 monotone limit "
            f"{RK4_MONOTONE_LIMIT:.4f}, above which the worst-case inputs do not "
            f"bound every admissible input"
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
    every x_k is too, to the last bit.  Raises ``ValueError`` if alpha*h
    exceeds :data:`RK4_MONOTONE_LIMIT`.

    The array is the transpose of a C-ordered (len(drive), n_steps+1)
    one, so each trajectory (a column) is contiguous in memory: a monitor
    reading one trajectory at a time reads it without a stride.
    """
    drive = np.asarray(drive, dtype=float)
    k_log_a = np.arange(n_steps + 1.0) * _log_step_factor(alpha, h)
    out = np.multiply.outer(drive, -np.expm1(k_log_a))
    # a (1, T) row for a scalar x0: no second (N, T) outer product
    out += np.reshape(x0, (-1, 1)) * np.exp(k_log_a)
    out[:, 0] = x0
    return out.T


def _input_stages(cfg: SimConfig, names, times: np.ndarray) -> tuple[dict, dict]:
    """The levels of the input programs ``names`` of ``cfg`` at ``times``,
    and the (start, mid, end) levels a gate reads from each of every step:
    the levels at t_k, t_k + h/2 and t_{k+1}, one list of Python floats each."""
    values, stages = {}, {}
    for v in names:
        program = cfg._programs[v]
        values[v] = _levels_at(program, times)
        mid = _levels_at(program, times[:-1] + 0.5 * cfg.step)
        stages[v] = (values[v][:-1].tolist(), mid.tolist(), values[v][1:].tolist())
    return values, stages


def _gate_trajectory(what: str, g: GateParams, inputs, stages: dict, x0: float, h: float,
                     read: bool = True) -> tuple[np.ndarray, tuple | None]:
    """One gate's RK4 trajectory from ``x0``, and, if ``read``, the
    (start, mid, end) levels a downstream gate reads from it, each below 0
    read as 0, in the form of ``stages``' values (else None).

    ``stages`` maps each of ``inputs``, the gate's inputs in order, to the
    (start, mid, end) levels it gives every step (module docstring).  One
    scalar ``gate_drive`` call per step and stage, the mid levels at
    stages 2 and 3, gives the drives.  Step k is then
    x_{k+1} = A*x_k + B_k, with every B_k the step from x = 0, and a
    doubling scan solves the recurrence in ceil(log2(steps + 1)) array
    passes: after the pass for s, x_k holds the sum of A^(k-j) * B_j over
    the last 2s terms.  It has no division, so it stays accurate where A^s
    underflows.  ``what`` names the gate in a ``ValueError``.
    """
    log_a = _log_step_factor(g.alpha, h, f"{what}: ")
    n_steps = len(stages[inputs[0]][0])
    start, mid, end = zip(*(stages[v] for v in inputs))
    drives = [
        np.fromiter(map(gate_drive, itertools.repeat(g), zip(*seqs)), float, n_steps)
        for seqs in (start, mid, mid, end)
    ]
    x = np.empty(n_steps + 1)
    x[0] = x0
    x[1:] = _rk4_step(0.0, drives, g.alpha, h)
    s = 1
    while s <= n_steps:
        x[s:] += math.exp(s * log_a) * x[:-s]
        s *= 2
    if not read:
        return x, None
    z = g.alpha * h
    mid = (0.75 - 0.25 * z) * x[:-1] + 0.25 * x[1:] + 0.25 * z * drives[0]
    # a level below 0 here is rounding at alpha*h = z* (module docstring),
    # which a non-integer n would turn into a complex drive downstream
    return x, tuple(np.maximum(y, 0.0).tolist() for y in (x[:-1], mid, x[1:]))


def simulate_circuit(
    c: Circuit, params: dict[str, GateParams], cfg: SimConfig
) -> Signal:
    """Integrate the gate ODEs of a circuit by RK4, one gate at a time.

    External inputs are read from ``cfg.inputs``; the trace contains the
    external inputs and every gate output variable.  A gate's drive reads
    only upstream signals, so :func:`_gate_trajectory` integrates the gates
    in topological order, each over every step before its consumers, from
    the levels its inputs give each step: an upstream gate's x_k, m_k, m_k
    and x_{k+1}, an external input's level at t, t + h/2, t + h/2 and
    t + h (module docstring).  Trajectories agree with stepping all gates
    together under that rule within 1e-12.  Raises ``ValueError`` if
    ``params``, ``cfg.inputs`` or ``cfg.initial`` fails its check by ``c``,
    or if a gate's alpha*h exceeds :data:`RK4_MONOTONE_LIMIT`.
    """
    c.check_params(params)
    c.check_inputs(cfg.inputs)
    c.check_initial(cfg.initial)

    times = time_grid(cfg.horizon, cfg.step)
    # per signal still to be read, the (start, mid, end) levels it gives
    # every step, one list of Python floats each
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
    :func:`propagate_timing`.  Before the first simulation it raises
    ``ValueError`` for a bad step or ``params`` map, and the first
    simulation raises it at the first gate, in topological order, past
    :data:`RK4_MONOTONE_LIMIT`.

    The generator keeps no reference to a trace it has yielded, so memory
    stays at one trace whatever the number of combinations, as long as
    the caller drops each trace before asking for the next.
    """
    if tb is None:
        tb = propagate_timing(c)
    h = _circuit_step(c, step)
    _check_finite_positive("step", h)
    c.check_params(params)
    initial = {v: float(v0) for v, v0 in c.sim.get("initial", {}).items()}
    for combo_bits in itertools.product((LOW, HIGH), repeat=len(c.external_inputs)):
        # built by a call, so that no local of this frame holds the trace
        yield _verify_combo(c, params, tb, h, initial, combo_bits)


def _verify_combo(c, params, tb, h, initial, combo_bits):
    """The ``(key, trace, entries)`` of one combination of :func:`verify_combos`."""
    lam, delta = tb.network_lambda, tb.network_delta
    combo = dict(zip(c.external_inputs, combo_bits))
    cfg = SimConfig(horizon=lam + delta, step=h, initial=initial, inputs={
        v: MAX_LEVEL if combo[v] == HIGH else 0.0 for v in c.external_inputs})
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
