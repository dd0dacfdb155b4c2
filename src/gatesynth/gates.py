"""Hill-kinetics models of AND/OR/NOT gene gates.

All concentrations are rescaled to [0, 1], so the production/degradation
ratio is 1 and each gate obeys dx/dt = alpha * (drive - x) with a
dimensionless drive in [0, 1] determined by its inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .formulas import And, Atom, Eventually, Formula, Globally, Implies

__all__ = [
    "GateKind", "Thresholds", "GateParams", "ExtendedTruthRow", "gate_drive",
    "gate_drives", "check_kinetics", "closed_form", "truth_table", "row_formula",
]

HIGH = "high"
LOW = "low"
K_MAX = 1.0  # the largest Hill K a gate takes: every K lies in (0, K_MAX]


class GateKind(str, Enum):
    AND = "AND"
    OR = "OR"
    NOT = "NOT"

    @property
    def arity(self) -> int:
        return 1 if self is GateKind.NOT else 2

    @property
    def activating(self) -> bool:
        """Whether a higher input raises the output; NOT is a repressor."""
        return self is not GateKind.NOT

    def output_level(self, input_levels: tuple[str, ...]) -> str:
        if self is GateKind.AND:
            return HIGH if all(v == HIGH for v in input_levels) else LOW
        if self is GateKind.OR:
            return HIGH if any(v == HIGH for v in input_levels) else LOW
        return HIGH if input_levels[0] == LOW else LOW

    def rows(self, delta: float, lam: float) -> list[ExtendedTruthRow]:
        """The extended truth table's rows, low before high, first input slowest."""
        return [
            ExtendedTruthRow(levels, self.output_level(levels), delta, lam)
            for levels in itertools.product((LOW, HIGH), repeat=self.arity)
        ]


@dataclass(frozen=True)
class Thresholds:
    """Activation/deactivation thresholds with a safety margin p.

    The margined ("tilded") thresholds (1+p)*plus and (1-p)*minus are used
    in steady-state inequalities; they must stay inside (0, 1), so p lies
    in (0, 1) too.
    """

    plus: float
    minus: float
    p: float = 0.1

    def __post_init__(self):
        if not 0 < self.minus < self.plus < 1:
            raise ValueError(
                f"need 0 < minus < plus < 1, got minus={self.minus}, plus={self.plus}"
            )
        if not 0 < self.p < 1:
            raise ValueError(f"safety margin p must lie in (0, 1), got {self.p}")
        if (1 + self.p) * self.plus >= 1:
            raise ValueError("(1+p)*plus must stay below 1")

    @property
    def tilde_plus(self) -> float:
        return (1 + self.p) * self.plus

    @property
    def tilde_minus(self) -> float:
        return (1 - self.p) * self.minus


@dataclass(frozen=True)
class GateParams:
    """Kinetic parameters of a single gate (rescaled model)."""

    kind: GateKind
    n: float
    alpha: float
    hill_k: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "kind", GateKind(self.kind))
        object.__setattr__(self, "hill_k", tuple(float(k) for k in self.hill_k))
        check_kinetics(self.kind, self.n, self.alpha, self.hill_k)


def _check_finite_positive(what: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and > 0: NaN passes
    a bare ``value <= 0`` test."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be finite and > 0, got {value}")


def _check_initial(var, x0) -> None:
    """Raise ``ValueError`` unless the initial value ``x0`` is finite and >= 0."""
    if not (math.isfinite(x0) and x0 >= 0):
        raise ValueError(f"initial value of {var!r} must be finite and >= 0, got {x0}")


def check_kinetics(kind: GateKind, n: float, alpha: float, hill_k) -> None:
    """Raise ``ValueError`` unless n and alpha are finite and > 0 and
    ``hill_k`` holds one K per input, each in (0, 1].  An entry of
    ``hill_k`` may be an array of K values, one per parameter point."""
    _check_finite_positive("Hill coefficient n", n)
    _check_finite_positive("degradation rate alpha", alpha)
    if len(hill_k) != kind.arity:
        raise ValueError(
            f"{kind.value} gate needs {kind.arity} K value(s), got {len(hill_k)}"
        )
    if not all(np.all((0 < k) & (k <= K_MAX)) for k in hill_k):
        raise ValueError(f"each Hill K must lie in (0, {K_MAX:g}]")


@dataclass(frozen=True)
class ExtendedTruthRow:
    """One truth-table row with its timing contract."""

    input_levels: tuple[str, ...]
    output_level: str
    delta: float
    lam: float

    def __post_init__(self):
        _check_finite_positive("delta", self.delta)
        _check_finite_positive("lambda", self.lam)
        if self.output_level not in (HIGH, LOW):
            raise ValueError("output_level must be 'high' or 'low'")
        if any(v not in (HIGH, LOW) for v in self.input_levels):
            raise ValueError("input levels must be 'high' or 'low'")


_AND, _NOT = GateKind.AND, GateKind.NOT


def _hill_ratio(u: float, k: float, n: float) -> float:
    """(u/k)**n as a Python float power, or inf where it overflows."""
    try:
        return (u / k) ** n
    except OverflowError:
        return math.inf


def _drive_at_overflow(kind: GateKind, inputs, hill_k, n: float) -> float:
    """The drive's limit when some Hill ratio (u/K)^n, or an OR gate's sum
    of ratios, overflows.

    An input whose ratio is inf has activating term 1: AND keeps the
    other input's term (1 if its ratio is inf too), OR gives 1, NOT 0.
    """
    if kind is GateKind.NOT:
        return 0.0
    if kind is GateKind.OR:
        return 1.0
    ratios = [_hill_ratio(u, k, n) for u, k in zip(inputs, hill_k)]
    a, b = (1.0 if math.isinf(r) else r / (1.0 + r) for r in ratios)
    return a * b


def gate_drive(g: GateParams, inputs) -> float:
    """Dimensionless production term in [0, 1] for the given input levels,
    each >= 0: a Hill term is undefined below 0, where the result is not
    a drive (the simulator reads a level below 0 as 0 before calling).

    AND: product of activating Hill terms; OR: shared-saturation form
    (u+v)/(1+u+v); NOT: repressing Hill term.  A Hill ratio (u/K)^n, or
    an OR gate's sum of ratios, beyond the float range gives the drive's
    limit as that ratio grows.

    ``inputs`` is any iterable of exactly the kind's arity of levels; an
    ndarray of levels gives a numpy scalar.  Another count raises
    ``ValueError``.
    """
    n, ks, kind = g.n, g.hill_k, g.kind
    # identity tests on the kind, not a table lookup: hashing a str Enum
    # member runs in Python, and this runs once per gate per RK4 stage
    if kind is _NOT:
        try:
            (u,) = inputs
        except ValueError:
            raise _arity_error(kind, inputs) from None
        try:
            return 1.0 / (1.0 + (u / ks[0]) ** n)
        except OverflowError:
            return _drive_at_overflow(kind, (u,), ks, n)
    try:
        u, v = inputs
    except ValueError:
        raise _arity_error(kind, inputs) from None
    try:
        r0 = (u / ks[0]) ** n
        r1 = (v / ks[1]) ** n
    except OverflowError:
        # a helper, not a comprehension here: one would make n a cell
        # variable and slow every call
        return _drive_at_overflow(kind, (u, v), ks, n)
    if kind is _AND:
        d = r0 / (1.0 + r0) * (r1 / (1.0 + r1))
        # an infinite input level gives ratio inf without an OverflowError,
        # then inf/inf; NaN inputs stay NaN there too
        return d if d == d else _drive_at_overflow(kind, (u, v), ks, n)
    total = r0 + r1
    return total / (1.0 + r0 + r1) if total != math.inf else 1.0


def _arity_error(kind: GateKind, inputs) -> ValueError:
    """The wrong-arity error of :func:`gate_drive`; an iterable with no
    length, such as a generator, is spent by the failed unpacking."""
    got = len(inputs) if hasattr(inputs, "__len__") else "another number"
    return ValueError(f"{kind.value} gate takes {kind.arity} input(s), got {got}")


def _expit(z):
    """The logistic 1/(1 + e^-z) as 0.5*(1 + tanh(z/2)): finite for every z."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def gate_drives(kind: GateKind, n: float, inputs, hill_k: np.ndarray) -> np.ndarray:
    """:func:`gate_drive` at fixed input levels, each >= 0, for each row
    of ``hill_k``.

    ``hill_k`` has shape (N, arity) and is not validated here (see
    :func:`check_kinetics`); a level below 0 gives NaN.  A Hill term is a logistic in
    log-concentration (Weiss, FASEB J 1997): with z = n*log(u/K),
    (u/K)^n / (1 + (u/K)^n) = expit(z), so AND = expit(z0)*expit(z1),
    OR = expit(logaddexp(z0, z1)) and NOT = expit(-z).  Nothing
    overflows: u = 0 gives z = -inf and a term of 0, an infinite level or
    ratio u/K gives the limit, and NaN stays NaN.  The ratio u/K is the
    one :func:`gate_drive` raises to the n-th power, so the two differ
    only in rounding after it, within 1e-13.
    """
    kind = GateKind(kind)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = n * np.log(np.asarray(inputs, dtype=float) / np.asarray(hill_k, dtype=float))
        if kind is _NOT:
            return _expit(-z[:, 0])
        if kind is _AND:
            return _expit(z[:, 0]) * _expit(z[:, 1])
        return _expit(np.logaddexp(z[:, 0], z[:, 1]))


def closed_form(K: float, alpha: float, x0: float, t):
    """Exact solution x(t) = K + (x0 - K) e^(-alpha t) of dx/dt = alpha(K - x).

    ``t`` may be a scalar or an array.
    """
    _check_finite_positive("alpha", alpha)
    return K + (x0 - K) * np.exp(-alpha * np.asarray(t, dtype=float))


def _level_atom(var: str, level: str, th: Thresholds) -> Atom:
    if level == HIGH:
        return Atom(var, ">=", th.plus)
    return Atom(var, "<=", th.minus)


def _consequent(row: ExtendedTruthRow, var: str, th: Thresholds) -> Formula:
    """F[0,delta] G[0,lambda] (``var`` at the row's output level)."""
    atom = _level_atom(var, row.output_level, th)
    return Eventually(0.0, row.delta, Globally(0.0, row.lam, atom))


def row_formula(
    row: ExtendedTruthRow,
    input_vars: tuple[str, ...],
    output_var: str,
    thresholds: dict[str, Thresholds],
) -> Formula:
    """STL implication encoding one truth-table row.

    Antecedent: inputs hold their levels for lambda+delta; consequent: the
    output reaches its level within delta and keeps it for lambda.
    """
    atoms = [
        _level_atom(v, lvl, thresholds[v])
        for v, lvl in zip(input_vars, row.input_levels)
    ]
    ante: Formula = atoms[0]
    for a in atoms[1:]:
        ante = And(ante, a)
    ante = Globally(0.0, row.lam + row.delta, ante)
    return Implies(ante, _consequent(row, output_var, thresholds[output_var]))


def truth_table(
    kind: GateKind,
    input_vars,
    output_var: str,
    delta: float,
    lam: float,
    thresholds: dict[str, Thresholds],
) -> list[tuple[ExtendedTruthRow, Formula]]:
    """Extended truth table: :meth:`GateKind.rows` with their STL rows."""
    kind = GateKind(kind)
    input_vars = tuple(input_vars)
    if len(input_vars) != kind.arity:
        raise ValueError(f"{kind.value} gate takes {kind.arity} input(s)")
    return [
        (row, row_formula(row, input_vars, output_var, thresholds))
        for row in kind.rows(delta, lam)
    ]
