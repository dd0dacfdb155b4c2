"""Analytic and numeric synthesis of admissible kinetic-parameter regions.

For each gate class the steady-state inequalities induced by its extended
truth table reduce (after rescaling and with a safety margin p on the
output thresholds) to closed-form bounds:

* a lower bound on the degradation rate alpha guaranteeing threshold
  crossing within the gate's response-time budget,
* a lower bound on the Hill coefficient n for the K-region to be
  nonempty,
* Method 1: per-axis intervals for the Hill K parameters (a hyperbox),
* Method 2: a larger curve-bounded AND or OR region, one K1 interval
  [lower(K2), upper(K2)] per K2 (see :class:`CurvedRegion`).

The Hill bound and the K intervals of every kind and method follow from
one output target (high, share) through :func:`n_bound` and
:func:`k_box`; a repressor's intervals are an activator's with reciprocal
bases.

Natural logarithms throughout.  A grid-search fallback
(:func:`synthesize_numeric`) checks admissibility instead by a gate's
:meth:`GateContract.margins`: one worst-case simulation plus monitoring,
``worst_case_output_robustness(contract, row, n, alpha, k_values)``, per row.

K points are positional: an (N, m) array's columns are K1..Km, the
order in which a :class:`NumericGrid` must name its axes.  A box and a
region judge such arrays alike, ``judge(points) -> (inside, binding)``.
There only ``+ - * /`` and comparisons run as numpy array operations;
every power ``x ** n`` is taken on Python floats (libm ``pow``), once per
distinct K2 value.  numpy's float64 ``power`` is a SIMD kernel on AVX-512
hosts and differs from libm in the last bit on about 5% of random (x, n)
pairs, enough to move a grid point that sits on a region boundary.  The
worst-case drives of numeric synthesis are evaluated on whole K arrays
too, by the log-space Hill kernel :func:`gates.gate_drives`, within
1e-13 of the scalar :func:`gates.gate_drive`.

Both grid layers take K points in fixed-size blocks (about 1 MiB of
trajectories in numeric synthesis, about 16k points in region sampling),
so memory stays flat as the grid grows; no result depends on the block
size.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .circuit import Circuit, TimingBudget, propagate_timing
from .gates import (
    K_MAX, ExtendedTruthRow, GateKind, Thresholds, _check_finite_positive,
    _consequent, check_kinetics, gate_drives,
)
from .monitor import robustness
from .odesim import DEFAULT_STEP, _circuit_step, simulate_constant_drive, time_grid
from .signals import Signal
from .worstcase import worst_case

__all__ = [
    "ParamBox", "CurvedRegion", "GateSynthesis", "SynthesisResult",
    "EmptyRegionError", "alpha_bound", "GateContract", "gate_regions", "synthesize_circuit",
    "synthesize_numeric", "GateRule", "GATE_RULES", "check_n_bound",
    "NumericGrid", "NumericGateResult", "worst_case_output_robustness",
    "export_region_csv", "sample_region", "n_bound", "k_box",
]


class EmptyRegionError(ValueError):
    """Synthesis produced an empty region for some gate."""

    def __init__(self, gate_id: str, detail: str):
        self.gate_id = gate_id
        self.detail = detail
        super().__init__(f"empty parameter region for gate {gate_id!r}: {detail}")


def _k_points(points, arity: int, need: str) -> np.ndarray:
    """``points`` as an (N, arity) float array, else ``ValueError(need)``."""
    k = np.asarray(points, dtype=float)
    if k.ndim != 2 or k.shape[1] != arity:
        raise ValueError(f"{need}, got points of shape {k.shape}")
    return k


@dataclass(frozen=True)
class ParamBox:
    """Closed intervals ``intervals["Ki"]`` of K1..Km, in that order."""

    intervals: dict[str, tuple[float, float]]

    @property
    def empty(self) -> bool:
        return any(lo > hi for lo, hi in self.intervals.values())

    def judge(self, points) -> tuple[np.ndarray, list[str]]:
        """(inside, binding) of each row of the (N, m) array ``points``: inside
        every closed interval, labelled ``""``, else ``"box"``."""
        k = _k_points(points, len(self.intervals), "a K box needs one K column per axis")
        inside = np.ones(len(k), dtype=bool)
        for col, (lo, hi) in zip(k.T, self.intervals.values()):
            inside &= (lo <= col) & (col <= hi)
        return inside, np.array(["box", ""], dtype=object)[inside.view(np.uint8)].tolist()

    def contains(self, point) -> bool:
        return bool(self.judge([point])[0][0])

    def to_dict(self) -> dict:
        return {a: [lo, hi] for a, (lo, hi) in self.intervals.items()}


# ---------------------------------------------------------------------------
# closed-form bounds


def alpha_bound(th: Thresholds, delta: float) -> float:
    """Smallest degradation rate meeting the response-time budget delta."""
    _check_finite_positive("delta", delta)
    return math.log(1.0 / (th.p * th.minus)) / delta


def _target(kind: GateKind, out: Thresholds, method: str) -> tuple[float, int]:
    """The output target (high, share) that ``kind``'s K intervals meet.

    Method 2 and NOT ask the exact conditions, (t~+, 1).  Method 1 splits
    them over two inputs as the kind's ``m1_target`` says: AND asks
    sqrt(t~+) of each input's Hill term, OR gives each input's Hill ratio
    half the low output's budget (share 2).
    """
    if method not in ("m1", "m2"):
        raise ValueError("method must be 'm1' or 'm2'")
    if method == "m2":
        return out.tilde_plus, 1
    return GATE_RULES[kind].m1_target(out.tilde_plus)


def n_bound(kind: GateKind, ths, method: str) -> float:
    """Smallest n for which every K interval of :func:`k_box` is nonempty.

    ``ths`` is (inputs..., output).  With the output target (high, share)
    the bound is
    log(high/t~- * (share - share*t~-)/(1 - high)) / min_i log(theta_i+/theta_i-),
    for a repressing kind too, whose bases are the reciprocals.
    """
    *ins, out = ths
    high, share = _target(kind, out, method)
    ttm = out.tilde_minus
    ratio = high / ttm * (share - share * ttm) / (1 - high)
    return math.log(ratio) / min(math.log(th.plus / th.minus) for th in ins)


def k_box(kind: GateKind, ths, n: float, method: str = "m1") -> ParamBox:
    """K_i in [theta_i- * lo**(1/n), theta_i+ * hi**(1/n)] for each input i.

    ``ths`` is (inputs..., output); the box is empty when n is below
    :func:`n_bound`.  An activating kind keeps a low input's Hill ratio
    within the low output's share, lo = (share - share*t~-)/t~-, and lifts
    a high input's to the high target, hi = (1 - high)/high.  A repressor
    is the mirror image (Weiss, FASEB J 1997), with the reciprocal bases
    lo = high/(1 - high) and hi = t~-/(share - share*t~-).  Under Method 2
    this is the rectangle the curved AND and OR regions lie in.
    """
    *ins, out = ths
    high, share = _target(kind, out, method)
    ttm = out.tilde_minus
    if GateKind(kind).activating:
        lo, hi = (share - share * ttm) / ttm, (1 - high) / high
    else:
        lo, hi = high / (1 - high), ttm / (share - share * ttm)
    lo_f, hi_f = lo ** (1.0 / n), hi ** (1.0 / n)
    return ParamBox({f"K{i}": (th.minus * lo_f, th.plus * hi_f) for i, th in enumerate(ins, 1)})


# ---------------------------------------------------------------------------
# Method 2 curves and membership


def _and_share(level: float, ttC: float, n: float, k_other: float) -> float:
    """level^n / (ttC * (k_other^n + level^n)) - 1, the radicand of the AND curves.

    For large n the powers, of numbers in (0, 1], can underflow, and their
    sum lose precision or round to 0.  There the ratio form 1/(1 + (k/level)^n)
    is used, the ratio taken at most 1 so that its power cannot overflow.
    """
    a, b = level**n, k_other**n
    if min(a, b) >= sys.float_info.min:
        return a / (ttC * (b + a)) - 1.0
    if k_other <= level:
        return 1.0 / (ttC * (1.0 + (k_other / level) ** n)) - 1.0
    r = (level / k_other) ** n
    return r / (ttC * (1.0 + r)) - 1.0


def _and_curve(level: float, level_other: float, ttC: float, n: float, k_other: float,
               unconstrained: float) -> float:
    """K bound level * (level_other^n/(ttC * (k_other^n + level_other^n)) - 1)^(1/n)
    of an AND curve given the other K; ``unconstrained`` where the radicand is <= 0."""
    inner = _and_share(level_other, ttC, n, k_other)
    if inner <= 0:
        return unconstrained
    return level * inner ** (1.0 / n)


@dataclass(frozen=True)
class CurvedRegion:
    """Curve-bounded Method 2 validity region of an AND or OR gate: for each
    K2 in (0, K_MAX], one interval K1 in [lower(K2), min(upper(K2), K_MAX)]
    of K1 > 0, each curve side widened by ``_EDGE_TOL``.  Each curve is one
    truth-table row's steady-state inequality under its worst-case inputs:

    * AND: lower is the larger of the low curves gamma_b, row (low, high),
      and gamma_a, row (high, low); upper the high curve, row (high, high).
    * OR: K2 lies in (g_lo, g_hi] of the Method 2 rectangle (g_hi keeps row
      (low, high) high, g_lo is the low curve's pole); lower is the low
      curve, row (low, low); upper the side e_hi, row (high, low).

    :meth:`judge` names the nearer bound of an inside point and the
    violated bound of an outside one: ``positivity`` (a K <= 0), ``K_max``
    (the cut at K = K_MAX, the largest K a gate takes),
    ``low_curve_gamma_a``, ``low_curve_gamma_b`` and ``high_curve`` for
    AND, ``low_curve``, ``K1_high_rect`` and ``K2_rect`` for OR.
    Construction raises :class:`EmptyRegionError` when n misses the kind's
    Method 2 bound.
    """

    kind: GateKind
    thresholds: tuple[Thresholds, ...]  # inputs..., output
    n: float
    n_bound: float = field(init=False)

    def __post_init__(self):
        if GATE_RULES[self.kind].membership is None:
            raise ValueError(f"{self.kind.value} gates have no Method 2 region")
        nb = check_n_bound(self.kind, self.thresholds, self.n, "m2")
        object.__setattr__(self, "n_bound", nb)

    def judge(self, points) -> tuple[np.ndarray, list[str]]:
        """(inside, binding constraint name) of each row of the (N, 2) array ``points``."""
        k = _k_points(points, 2, "a Method 2 region needs two K axes")
        return GATE_RULES[self.kind].membership(self.thresholds, self.n, k[:, 0], k[:, 1])

    def membership(self, point) -> tuple[bool, str]:
        """:meth:`judge` of one (K1, K2) point."""
        inside, binding = self.judge([point])
        return bool(inside[0]), binding[0]

    def contains(self, point) -> bool:
        return self.membership(point)[0]


# absolute slack on curve comparisons so points exactly on a boundary
# (for example the Method 1 box corner) are not lost to float rounding
_EDGE_TOL = 1e-9


def _by_value(x: np.ndarray, f: Callable[[float], tuple]) -> np.ndarray:
    """The tuple ``f(v)`` for every entry v of ``x``, as an object array with
    a row per entry.  ``f`` runs once per distinct value, on a Python float,
    so its powers are libm ``pow`` (see the module docstring)."""
    uniq, inv = np.unique(x, return_inverse=True)
    return np.array([f(v) for v in uniq.tolist()], dtype=object)[inv]


def _and_interval(ths, n: float) -> Callable[[float], tuple]:
    """K2 -> (lower, name, upper, name) of the AND region's K1 (see
    :class:`CurvedRegion`); a low curve is 0, and the high curve -1, where
    its row holds for every K1, or for none.  gamma_a is 0 from the Method 2
    rectangle's side K2 = b_lo on; it is not computed there, since a radicand
    rounded to a hair above 0 has an n-th root far from 0 at large n."""
    thA, thB, thC = ths
    ttp, ttm = thC.tilde_plus, thC.tilde_minus
    _, (b_lo, _) = k_box(GateKind.AND, ths, n, "m2").intervals.values()

    def at(k2: float) -> tuple:
        gamma_b = _and_curve(thA.minus, 1.0, ttm, n, k2, 0.0)
        gamma_a = _and_curve(1.0, thB.minus, ttm, n, k2, 0.0) if k2 < b_lo - _EDGE_TOL else 0.0
        upper = _and_curve(thA.plus, thB.plus, ttp, n, k2, -1.0)
        if gamma_b >= gamma_a:
            return gamma_b, "low_curve_gamma_b", upper, "high_curve"
        return gamma_a, "low_curve_gamma_a", upper, "high_curve"
    return at


def _or_interval(ths, n: float) -> Callable[[float], tuple]:
    """K2 -> (lower, name, upper, name) of the OR region's K1 (see
    :class:`CurvedRegion`), empty for K2 outside (g_lo, g_hi].  The low
    curve is inf where rounding leaves its denominator <= 0 at the pole."""
    thE, thG, thS = ths
    ttm = thS.tilde_minus
    (_, e_hi), (g_lo, g_hi) = k_box(GateKind.OR, ths, n, "m2").intervals.values()

    def at(k2: float) -> tuple:
        if not g_lo < k2 <= g_hi + _EDGE_TOL:
            return math.inf, "K2_rect", -math.inf, "K2_rect"
        den = ttm / (1 - ttm) - (thG.minus / k2) ** n
        low = thE.minus * (1.0 / den) ** (1.0 / n) if den > 0 else math.inf
        return low, "low_curve", e_hi, "K1_high_rect"
    return at


def _interval_membership(interval, ths, n: float, k1: np.ndarray, k2: np.ndarray
                         ) -> tuple[np.ndarray, list[str]]:
    """(inside, binding) of the points (k1, k2) in a region that holds, for
    each K2 in (0, K_MAX], the K1 in (0, K_MAX] with lower - _EDGE_TOL <= K1
    <= upper + _EDGE_TOL, ``interval(ths, n)`` mapping K2 to (lower, lower
    name, upper, upper name), evaluated once per distinct K2.

    An inside point gets the nearer bound's name, the lower's on a tie; an
    outside point that of the bound it violates, the upper if both, or
    ``positivity`` where a K is <= 0.  K_MAX is the bound ``K_max``.
    """
    at = interval(ths, n)

    def bounds(k: float) -> tuple:
        if not 0 < k <= K_MAX:
            name = "positivity" if k <= 0 else "K_max"
            return math.inf, name, -math.inf, name
        lower, lower_name, upper, upper_name = at(k)
        if upper > K_MAX:
            upper, upper_name = K_MAX, "K_max"
        return lower, lower_name, upper, upper_name

    table = _by_value(k2, bounds).reshape(-1, 4)
    lower, upper = table[:, 0].astype(float), table[:, 2].astype(float)
    pos = (k1 > 0) & (k2 > 0)
    upper_side = (k1 > upper + _EDGE_TOL) | (k1 > K_MAX)
    inside = pos & (k1 >= lower - _EDGE_TOL) & ~upper_side
    near = inside.nonzero()
    upper_side[near] = upper[near] - k1[near] < k1[near] - lower[near]
    binding = np.where(upper_side, table[:, 3], table[:, 1])
    binding[~pos] = "positivity"
    return inside, binding.tolist()


# ---------------------------------------------------------------------------
# per-gate-kind rule table


@dataclass(frozen=True)
class GateRule:
    """Synthesis rules of one gate kind.

    ``m1_target`` maps the output's t~+ to the kind's Method 1 output
    target (high, share), from which :func:`n_bound` and :func:`k_box`
    take its bound and box.  ``membership`` is the Method 2 predicate
    ``(thresholds, n, k1, k2) -> (inside, binding)`` on float arrays of K1
    and K2, giving a boolean mask and one binding-constraint name per
    point; None for a kind without a Method 2 region.  AND and OR share
    :func:`_interval_membership` of their K1 interval [lower(K2),
    upper(K2)] (rows and labels in :class:`CurvedRegion`).  ``strict_m2``
    marks a Method 2 bound that n must exceed rather than reach.
    """

    m1_target: Callable[[float], tuple[float, int]]
    membership: Callable[..., tuple[np.ndarray, list[str]]] | None
    default_n: float
    strict_m2: bool = False


GATE_RULES: dict[GateKind, GateRule] = {
    GateKind.AND: GateRule(
        m1_target=lambda ttp: (math.sqrt(ttp), 1),
        membership=partial(_interval_membership, _and_interval), default_n=4.0,
    ),
    GateKind.OR: GateRule(
        m1_target=lambda ttp: (ttp, 2),
        membership=partial(_interval_membership, _or_interval), default_n=4.0, strict_m2=True,
    ),
    # the NOT interval is exact, so both methods share its target
    GateKind.NOT: GateRule(
        m1_target=lambda ttp: (ttp, 1), membership=None, default_n=3.0,
    ),
}


def check_n_bound(
    kind: GateKind, ths, n: float, method: str, gate_id: str | None = None
) -> float:
    """The kind's Hill-coefficient bound under ``method``.

    Raises ``ValueError`` unless n is finite and > 0, and
    :class:`EmptyRegionError` (named after ``gate_id``, else the kind)
    unless n reaches the bound, or exceeds it where it is strict.
    """
    _check_finite_positive("Hill coefficient n", n)
    nb = n_bound(kind, ths, method)
    strict = method == "m2" and GATE_RULES[kind].strict_m2
    if n < nb or (strict and n == nb):
        raise EmptyRegionError(
            gate_id or kind.value,
            f"{method} needs n {'>' if strict else '>='} {nb:.4f}, got {n}",
        )
    return nb


def gate_regions(
    kind: GateKind, ths, n: float, method: str, gate_id: str | None = None
) -> tuple[float, ParamBox | None, CurvedRegion | None]:
    """(n_bound, box, region) of a gate under ``method``, ``ths`` being
    (inputs..., output): box is its :func:`k_box` cut at K = K_MAX, the
    largest K a gate takes, None if empty beside a region, and region its m2
    :class:`CurvedRegion` where the kind has one.  Raises
    :class:`EmptyRegionError` (named after ``gate_id``, else the kind) when
    n misses its bound or the gate has neither."""
    nb = check_n_bound(kind, ths, n, method, gate_id)
    box = k_box(kind, ths, n)
    detail = "K intervals cross" if box.empty else f"K box lies above K = {K_MAX:g}"
    box = ParamBox({a: (lo, min(hi, K_MAX)) for a, (lo, hi) in box.intervals.items()})
    region = None
    if method == "m2" and GATE_RULES[kind].membership:
        region = CurvedRegion(kind=kind, thresholds=ths, n=n)
    if box.empty:
        if region is None:
            raise EmptyRegionError(gate_id or kind.value, "Method 1 " + detail)
        box = None
    return nb, box, region


# ---------------------------------------------------------------------------
# circuit-level synthesis


@dataclass(frozen=True)
class GateContract:
    """One gate's timed STL contract: its kind's truth-table rows under the
    thresholds of its variables and its budgets delta and lam."""

    kind: GateKind
    thresholds: tuple[Thresholds, ...]  # inputs..., output
    delta: float
    lam: float

    @classmethod
    def of(cls, c: Circuit, tb: TimingBudget, gid: str) -> GateContract:
        g = c.gates[gid]
        ths = tuple(c.thresholds[v] for v in (*g.inputs, g.output))
        return cls(g.kind, ths, tb.delta[gid], tb.lam[gid])

    @property
    def alpha_min(self) -> float:
        return alpha_bound(self.thresholds[-1], self.delta)

    def margins(self, k_values, n: float, alpha: float, step: float = DEFAULT_STEP) -> np.ndarray:
        """Each row's worst-case output robustness at each K point, shape
        (rows, N), rows in :meth:`GateKind.rows` order."""
        return np.stack([worst_case_output_robustness(self, r, n, alpha, k_values, step)
                         for r in GateKind(self.kind).rows(self.delta, self.lam)])


@dataclass(frozen=True)
class GateSynthesis:
    """Synthesis outcome for one gate."""

    gate_id: str
    kind: GateKind
    n: float
    n_bound: float
    alpha_min: float
    box: ParamBox | None
    region: CurvedRegion | None

    def to_dict(self) -> dict:
        d = {
            "gate": self.gate_id,
            "kind": self.kind.value,
            "n": self.n,
            "n_bound": self.n_bound,
            "alpha_min": self.alpha_min,
            "binding": f"n_bound={self.n_bound:.4f}",
        }
        if self.box is not None:
            d["k_box"] = self.box.to_dict()
        if self.region is not None:
            d["method2_n_bound"] = self.region.n_bound
        return d


@dataclass(frozen=True)
class SynthesisResult:
    method: str
    gates: dict[str, GateSynthesis]

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "gates": {gid: gs.to_dict() for gid, gs in self.gates.items()},
        }


def synthesize_circuit(
    c: Circuit,
    tb: TimingBudget | None = None,
    method: str = "m1",
    n: dict[str, float] | None = None,
) -> SynthesisResult:
    """Analytic per-gate synthesis over the whole circuit.

    ``n`` maps gate id to its fixed Hill coefficient (default: the
    kind's ``default_n`` in :data:`GATE_RULES`).  Each gate's bound, box
    and region come from :func:`gate_regions`.  Raises ``ValueError`` for
    a gate id in ``n`` that is not in the circuit, and
    :class:`EmptyRegionError` when a gate has no region.
    """
    n = dict(n or {})
    c.check_params(n, every=False)
    if tb is None:
        tb = propagate_timing(c)
    results = {}
    for gid in c.topo_order():
        gc = GateContract.of(c, tb, gid)
        n_g = float(n.get(gid, GATE_RULES[gc.kind].default_n))
        nb, box, region = gate_regions(gc.kind, gc.thresholds, n_g, method, gid)
        results[gid] = GateSynthesis(gate_id=gid, kind=gc.kind, n=n_g, n_bound=nb,
                                     alpha_min=gc.alpha_min, box=box, region=region)
    return SynthesisResult(method=method, gates=results)


# ---------------------------------------------------------------------------
# numeric (grid search) fallback


# the bytes of per-point arrays one block of K points may hold: numeric
# synthesis simulates and monitors, and region sampling judges, one block
# at a time, so memory stays flat as the grid grows
_BLOCK_BYTES = 1 << 20


def _blocks(count: int, point_bytes: int) -> list[slice]:
    """Consecutive slices covering ``range(count)``, each of at most
    max(1, _BLOCK_BYTES // point_bytes) points."""
    size = max(1, _BLOCK_BYTES // point_bytes)
    return [slice(i, min(i + size, count)) for i in range(0, count, size)]


@dataclass(frozen=True)
class NumericGrid:
    """Per-axis grid specification (lo, hi, count) of K1..Km, in that order."""

    axes: dict[str, tuple[float, float, int]]

    def __post_init__(self):
        want = [f"K{i}" for i in range(1, len(self.axes) + 1)]
        if list(self.axes) != want:
            raise ValueError(f"grid axes must be {want} in that order, got {list(self.axes)}")

    def points(self) -> np.ndarray:
        """Every grid point as an (N, m) array, columns K1..Km, K1 slowest."""
        mesh = np.meshgrid(*(np.linspace(*a) for a in self.axes.values()), indexing="ij",
                           copy=False)
        return np.stack(mesh, axis=-1).reshape(-1, len(self.axes))


@dataclass(frozen=True)
class NumericGateResult:
    points: np.ndarray  # all grid points, shape (N, n_axes), columns K1..Km
    admissible: np.ndarray  # boolean mask, shape (N,)
    min_robustness: np.ndarray  # per point, shape (N,)


def worst_case_output_robustness(
    contract: GateContract,
    row: ExtendedTruthRow,
    n: float,
    alpha: float,
    k_values: np.ndarray,
    step: float = DEFAULT_STEP,
) -> np.ndarray:
    """Output-formula robustness of ``row``, one of ``contract``'s rows,
    under the row's worst-case constant inputs.

    Vectorised over K parameter points (``k_values`` of shape (N, arity)).
    The antecedent is marginal by construction under worst-case inputs, so
    admissibility is judged on the output formula alone.

    The points are simulated and monitored in blocks whose trajectory
    array, T samples by the block's points, stays within about 1 MiB:
    max(1, 2**20 // (8*T)) points to a block.  A block's trajectories
    share one :class:`Signal`, one variable per point named
    ``f"x_{i}"`` with i the point's index in ``k_values``, and
    each point makes one :func:`monitor.robustness` call on
    F[0,delta] G[0,lam] of its own variable.  The per-point call stays,
    rather than one batched monitor pass, because the benchmark's traced
    self-check counts monitor calls (points x rows per job) until it
    counts monitored samples instead.

    Each trajectory is RK4's closed form x_k = (1 - A^k)*d + A^k*x0 (see
    :func:`odesim.simulate_constant_drive`), and 0 < A < 1 for every
    alpha*step below the RK4 stability limit, about 2.7853, past which
    the simulator refuses the step.  So each trajectory moves
    monotonically toward its constant drive, and the result is exactly
    the sample at j = floor(delta/step): x[j] - plus on a high row,
    minus - x[j] on a low one.  RK4 lags the exact solution, so the
    continuous-time robustness of the exact solution is never below it;
    where alpha*step is small enough for the RK4 error to vanish (below
    1e-6 at alpha*step <= 0.1) the gap is at most alpha*(delta - j*step).
    The tests check both; nothing here relies on them.  For the sampled
    versus continuous gap in general see Fainekos & Pappas (TCS 2009) and
    Donzé & Maler (FORMATS 2010).
    """
    kind = GateKind(contract.kind)
    *input_ths, output_th = contract.thresholds
    levels, x0 = worst_case(kind, row, input_ths)
    k_values = np.atleast_2d(np.asarray(k_values, dtype=float))
    check_kinetics(kind, n, alpha, k_values.T)
    drives = gate_drives(kind, n, levels, k_values)
    times = time_grid(row.lam + row.delta, step)
    count = len(drives)
    rhos = np.empty(count)
    for block in _blocks(count, 8 * times.size):
        points = range(count)[block]
        traj = simulate_constant_drive(drives[block], alpha, x0, step, times.size - 1)
        # one Signal for the block: a variable per point, each a view of
        # its column of ``traj``, so the time grid is validated once per block
        names = [f"x_{i}" for i in points]
        sig = Signal(times=times, values=dict(zip(names, traj.T)))
        for i, name in zip(points, names):
            rhos[i] = robustness(_consequent(row, name, output_th), sig, 0.0)
    return rhos


def synthesize_numeric(
    c: Circuit,
    tb: TimingBudget | None = None,
    grid: dict[str, NumericGrid] | None = None,
) -> dict[str, NumericGateResult]:
    """Grid-search synthesis: admissible iff every row's worst-case
    output robustness is >= 0.

    ``grid`` maps gate id to its K-axis grid.  Each gate is judged at its
    kind's ``default_n`` and its ``alpha_min``, with the circuit's
    ``sim.h`` as step, else 0.01, as in :func:`odesim.verify`; for other
    values call :meth:`GateContract.margins`.  Grid points are
    independent; results are merged in grid order.  Raises ``ValueError``
    for a gate id in ``grid`` that is not in the circuit.
    """
    if tb is None:
        tb = propagate_timing(c)
    if not grid:
        raise ValueError("empty grid specification")
    c.check_params(grid, every=False)
    step = _circuit_step(c, None)
    results = {}
    for gid, gspec in grid.items():
        gc = GateContract.of(c, tb, gid)
        if len(gspec.axes) != gc.kind.arity:
            raise ValueError(
                f"gate {gid!r} needs {gc.kind.arity} grid axis(es), got {len(gspec.axes)}"
            )
        pts = gspec.points()
        valid = (pts > 0).all(axis=1) & (pts <= K_MAX).all(axis=1)
        min_rho = np.full(len(pts), -np.inf)
        if valid.any():
            min_rho[valid] = gc.margins(pts[valid], GATE_RULES[gc.kind].default_n,
                                        gc.alpha_min, step).min(axis=0)
        results[gid] = NumericGateResult(points=pts, admissible=min_rho >= 0.0,
                                         min_robustness=min_rho)
        if not results[gid].admissible.any():
            raise EmptyRegionError(
                gid, "no admissible grid point (grid too coarse or region empty)"
            )
    return results


def export_region_csv(path, points: np.ndarray, inside: np.ndarray, binding: list[str]) -> None:
    """Write a sampled 2D region to CSV.

    Columns: K1, K2, inside (0/1), binding_constraint; K2 is blank for
    one-axis points.  (The header has no ``min_robustness`` column any
    more: nothing filled it.)  Each number is formatted ``%.10g``; the
    rows are written by :mod:`csv` in one call, so a binding label is
    quoted under its rules and every line ends in ``\\r\\n``.  ``points``
    that are not an (N, 1) or (N, 2) array, or an ``inside`` or
    ``binding`` of another length than ``points``, raise ``ValueError``
    before the file is opened.
    """
    import csv

    points = np.asarray(points)
    if points.ndim != 2 or points.shape[1] not in (1, 2):
        raise ValueError(f"points must be an (N, 1) or (N, 2) array, not shape {points.shape}")
    # zip below would drop the rows past the shortest column
    if len(inside) != len(points) or len(binding) != len(points):
        raise ValueError("inside and binding need an entry per point")

    def fmt(values):
        return ["%.10g" % x for x in values.tolist()]

    columns = (
        fmt(points[:, 0]),
        fmt(points[:, 1]) if points.shape[1] > 1 else [""] * len(points),
        [int(bool(b)) for b in inside],
        binding,
    )
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["K1", "K2", "inside", "binding_constraint"])
        w.writerows(zip(*columns))


def sample_region(
    region: CurvedRegion | ParamBox, grid: NumericGrid
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """``region.judge`` of every point of ``grid``: (points, inside, binding).

    The points are judged one block of 16k at a time: a judge peaks at
    about 100 bytes a point (float and boolean temporaries, a label
    pointer), so it stays under 2 MiB whatever the grid size.  The masks
    and labels are joined in grid order, identical to one call on the whole
    grid.  A grid of another axis count than the region's raises
    ``ValueError``.
    """
    pts = grid.points()
    inside = np.empty(len(pts), dtype=bool)
    binding: list[str] = []
    for block in _blocks(len(pts), 64):
        inside[block], labels = region.judge(pts[block])
        binding += labels
    return pts, inside, binding
