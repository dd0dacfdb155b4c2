"""Analytic and numeric synthesis of admissible kinetic-parameter regions.

For each gate class the steady-state inequalities induced by its extended
truth table reduce (after rescaling and with a safety margin p on the
output thresholds) to closed-form bounds:

* a lower bound on the degradation rate alpha guaranteeing threshold
  crossing within the gate's response-time budget,
* a lower bound on the Hill coefficient n for the K-region to be
  nonempty,
* Method 1: per-axis intervals for the Hill K parameters (a hyperbox),
* Method 2: a larger curve-bounded region with an exact membership
  predicate.

The Hill bound and the K intervals of every kind and method follow from
one output target (high, share) through :func:`n_bound` and
:func:`k_box`; a repressor's intervals are an activator's with reciprocal
bases.

Natural logarithms throughout.  A grid-search fallback
(:func:`synthesize_numeric`) checks admissibility by worst-case
simulation plus monitoring instead of the analytic bounds.

Region membership is evaluated on whole K arrays, with results
bit-identical to a point-by-point evaluation.  Only ``+ - * /``,
comparisons and min/max run as numpy array operations; every power
``x ** n`` is taken on Python floats (libm ``pow``), one per distinct K
value.  numpy's float64 ``power`` is a SIMD kernel on AVX-512 hosts and
differs from libm in the last bit on about 5% of random (x, n) pairs,
enough to move a grid point that sits on a region boundary.  The
worst-case drives of numeric synthesis are evaluated on whole K arrays
too, by the log-space Hill kernel :func:`gates.gate_drives`, within
1e-13 of the scalar :func:`gates.gate_drive`.

Both grid layers take K points in fixed-size blocks, so memory stays
flat as the grid grows.  Numeric synthesis simulates each truth-table
row one block of points at a time, a trajectory array of about 1 MiB,
builds one :class:`Signal` per block, whose variables are views of that
block's trajectories, and monitors it once per K point.  Region sampling
judges blocks of about 16k points.  The results do not depend on the
block size.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, TimingBudget, propagate_timing
from .formulas import Eventually, Globally
from .gates import (
    ExtendedTruthRow, GateKind, GateParams, Thresholds, _check_finite_positive,
    _level_atom, check_kinetics, gate_drives, truth_table,
)
from .monitor import robustness
from .odesim import simulate_constant_drive, time_grid
from .signals import Signal
from .worstcase import worst_case

__all__ = [
    "ParamBox", "CurvedRegion", "GateSynthesis", "SynthesisResult",
    "EmptyRegionError", "alpha_bound", "synthesize_circuit",
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


@dataclass(frozen=True)
class ParamBox:
    """Per-axis closed intervals; upper bounds may be +inf."""

    intervals: dict[str, tuple[float, float]]

    @property
    def empty(self) -> bool:
        return any(lo > hi for lo, hi in self.intervals.values())

    def contains(self, point: dict[str, float]) -> bool:
        values = np.array([list(point.values())], dtype=float)
        return bool(self.contains_points(values, point)[0])

    def contains_points(self, points: np.ndarray, axis_names) -> np.ndarray:
        """:meth:`contains` for each row of ``points``, whose columns are
        ``axis_names``: closed bounds, axes not in the box unconstrained,
        an empty box contains nothing."""
        inside = np.full(len(points), not self.empty)
        for col, a in zip(np.asarray(points).T, axis_names):
            if a in self.intervals:
                lo, hi = self.intervals[a]
                inside &= (lo <= col) & (col <= hi)
        return inside

    def to_dict(self) -> dict:
        return {
            a: [lo, None if math.isinf(hi) else hi]
            for a, (lo, hi) in self.intervals.items()
        }


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

    For large n a power can leave the normal float range: the sum then
    loses precision or underflows to 0, or the power of a K above 1
    overflows.  There the ratio form 1 / (1 + (k/level)^n) is used, with
    the ratio taken at most 1 so that its power cannot overflow.
    """
    try:
        a, b = level**n, k_other**n
        if min(a, b) >= sys.float_info.min:
            return a / (ttC * (b + a)) - 1.0
    except OverflowError:
        pass
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
    """Curve-bounded Method 2 validity region with exact membership.

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

    def membership(self, point) -> tuple[bool, str]:
        """(inside, binding constraint name) for a (K1, K2) point."""
        inside, binding = GATE_RULES[self.kind].membership(
            self.thresholds, self.n,
            np.array([float(point[0])]), np.array([float(point[1])]),
        )
        return bool(inside[0]), binding[0]

    def contains(self, point) -> bool:
        return self.membership(point)[0]


# absolute slack on curve comparisons so points exactly on a boundary
# (for example the Method 1 box corner) are not lost to float rounding
_EDGE_TOL = 1e-9


def _by_value(x: np.ndarray, *curves) -> list[np.ndarray]:
    """Each of ``curves`` at every entry of ``x``, once per distinct value.

    The curves get Python floats, so their powers are libm ``pow``, not
    numpy's SIMD ``power`` (see the module docstring).  A grid has few
    distinct K2 values, so the Python loop is short.
    """
    uniq, inv = np.unique(x, return_inverse=True)
    vals = uniq.tolist()
    return [np.array([c(v) for v in vals], dtype=float)[inv] for c in curves]


def _tightest(binding: np.ndarray, piece: np.ndarray, **slacks: np.ndarray) -> None:
    """Set ``binding`` on ``piece`` to the name of the smallest slack.

    A tie goes to the first name in keyword order (``np.argmin`` takes
    the first minimum).
    """
    names = np.array(list(slacks), dtype=object)
    smallest = np.argmin(np.stack([v[piece] for v in slacks.values()]), axis=0)
    binding[piece] = names[smallest]


def _and_membership(ths, n, k1, k2) -> tuple[np.ndarray, list[str]]:
    thA, thB, thC = ths
    ttp, ttm = thC.tilde_plus, thC.tilde_minus
    (a_lo, a_hi), (b_lo, b_hi) = k_box(GateKind.AND, ths, n, "m2").intervals.values()
    gA = gB = 1.0  # rescaled maximum input level

    pos = (k1 > 0) & (k2 > 0)
    c1, c2, c3 = (np.full(k1.shape, np.nan) for _ in range(3))
    c1[pos], c2[pos], c3[pos] = _by_value(
        k2[pos],
        # output-high curve; -1 where no K1 at all is admissible
        lambda k: _and_curve(thA.plus, thB.plus, ttp, n, k, -1.0),
        lambda k: _and_curve(thA.minus, gB, ttm, n, k, 0.0),  # row (low, high)
        lambda k: _and_curve(gA, thB.minus, ttm, n, k, 0.0),  # row (high, low)
    )

    tol = _EDGE_TOL
    below_c1 = k1 <= c1 + tol
    lows = np.maximum(c2, c3)
    # piece 1: both K above the output-low rectangle sides
    p1 = (pos & (a_lo - tol <= k1) & (k1 <= a_hi + tol)
          & (b_lo - tol <= k2) & (k2 <= b_hi + tol) & below_c1)
    # piece 2: K2 below its rectangle side; both lower curves constrain K1
    p2 = (pos & ~p1 & (k2 <= b_lo + tol) & (k1 <= a_hi + tol)
          & (lows - tol <= k1) & below_c1)
    # piece 3: K1 below its rectangle side, K2 above; one lower curve
    p3 = (pos & ~p1 & ~p2 & (k2 >= b_lo - tol) & (k1 <= a_lo + tol)
          & (c2 - tol <= k1) & below_c1)

    binding = np.full(k1.shape, "rectangle", dtype=object)
    low = k1 < lows
    binding[low & (c2 >= c3)] = "low_curve_gamma_b"
    binding[low & ~(c2 >= c3)] = "low_curve_gamma_a"
    binding[(k1 > c1) & (c1 >= 0) | (c1 < 0)] = "high_curve"
    binding[~pos] = "positivity"
    _tightest(binding, p1, K1_low_rect=k1 - a_lo, K1_high_rect=a_hi - k1,
              K2_low_rect=k2 - b_lo, K2_high_rect=b_hi - k2, high_curve=c1 - k1)
    _tightest(binding, p2, K1_high_rect=a_hi - k1, low_curve_gamma_b=k1 - c2,
              low_curve_gamma_a=k1 - c3, high_curve=c1 - k1)
    _tightest(binding, p3, K2_low_rect=k2 - b_lo, low_curve_gamma_b=k1 - c2,
              high_curve=c1 - k1)
    return p1 | p2 | p3, binding.tolist()


def _or_low_curve(thE: Thresholds, thG: Thresholds, ttm: float, n: float, k2: float) -> float:
    """Smallest K1 keeping the (low, low) row low, given K2."""
    den = ttm / (1 - ttm) - (thG.minus / k2) ** n
    return thE.minus * (1.0 / den) ** (1.0 / n)


def _or_membership(ths, n, k1, k2) -> tuple[np.ndarray, list[str]]:
    thE, thG, thS = ths
    ttm = thS.tilde_minus
    (e_lo, e_hi), (g_lo, g_hi) = k_box(GateKind.OR, ths, n, "m2").intervals.values()
    tol = _EDGE_TOL
    pos = (k1 > 0) & (k2 > 0)
    in_k1 = (e_lo < k1) & (k1 <= e_hi + tol)
    in_k2 = (g_lo < k2) & (k2 <= g_hi + tol)
    rect = pos & in_k1 & in_k2
    low = np.full(k1.shape, np.nan)
    # the curve's denominator is > 0 inside the K2 rectangle side
    low[rect] = _by_value(k2[rect], lambda k: _or_low_curve(thE, thG, ttm, n, k))[0]
    inside = rect & (k1 >= low - tol)

    binding = np.full(k1.shape, "low_curve", dtype=object)
    binding[~in_k2] = "K2_rect"
    binding[~in_k1] = "K1_rect"
    binding[~pos] = "positivity"
    _tightest(binding, inside, K1_high_rect=e_hi - k1, K2_high_rect=g_hi - k2,
              low_curve=k1 - low, K2_low_rect=k2 - g_lo)
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
    point; None for a kind without a Method 2 region.  ``strict_m2``
    marks a Method 2 bound that n must exceed rather than reach.
    """

    m1_target: Callable[[float], tuple[float, int]]
    membership: Callable[..., tuple[np.ndarray, list[str]]] | None
    default_n: float
    strict_m2: bool = False


GATE_RULES: dict[GateKind, GateRule] = {
    GateKind.AND: GateRule(
        m1_target=lambda ttp: (math.sqrt(ttp), 1),
        membership=_and_membership, default_n=4.0,
    ),
    GateKind.OR: GateRule(
        m1_target=lambda ttp: (ttp, 2),
        membership=_or_membership, default_n=4.0, strict_m2=True,
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


# ---------------------------------------------------------------------------
# circuit-level synthesis


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
    binding: str

    def to_dict(self) -> dict:
        d = {
            "gate": self.gate_id,
            "kind": self.kind.value,
            "n": self.n,
            "n_bound": self.n_bound,
            "alpha_min": self.alpha_min,
            "binding": self.binding,
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


def _gate_thresholds(c: Circuit, gid: str):
    g = c.gates[gid]
    return tuple(c.thresholds[v] for v in g.inputs) + (c.thresholds[g.output],)


def synthesize_circuit(
    c: Circuit,
    tb: TimingBudget | None = None,
    method: str = "m1",
    n: dict[str, float] | None = None,
) -> SynthesisResult:
    """Analytic per-gate synthesis over the whole circuit.

    ``n`` maps gate id to its fixed Hill coefficient (default: the
    kind's ``default_n`` in :data:`GATE_RULES`).  Each gate gets its
    Method 1 box; under m2 a gate whose n lies between its Method 2 and
    Method 1 bounds has only its Method 2 region, and ``box`` None.
    Raises ``ValueError`` for a gate id in ``n`` that is not in the
    circuit, and :class:`EmptyRegionError` when a gate's n misses its
    method bound.
    """
    if method not in ("m1", "m2"):
        raise ValueError("method must be 'm1' or 'm2'")
    n = dict(n or {})
    unknown = sorted(n.keys() - c.gates.keys())
    if unknown:
        raise ValueError(f"n names gate ids not in the circuit: {unknown}")
    if tb is None:
        tb = propagate_timing(c)
    results = {}
    for gid in c.topo_order():
        g = c.gates[gid]
        ths = _gate_thresholds(c, gid)
        rule = GATE_RULES[g.kind]
        n_g = float(n.get(gid, rule.default_n))
        nb = check_n_bound(g.kind, ths, n_g, method, gid)
        a_min = alpha_bound(c.thresholds[g.output], tb.delta[gid])
        box = k_box(g.kind, ths, n_g)
        region = None
        if method == "m2" and rule.membership:
            region = CurvedRegion(kind=g.kind, thresholds=ths, n=n_g)
        if box.empty:
            if method == "m1":
                raise EmptyRegionError(gid, "Method 1 K intervals cross")
            box = None
        results[gid] = GateSynthesis(
            gate_id=gid,
            kind=g.kind,
            n=n_g,
            n_bound=nb,
            alpha_min=a_min,
            box=box,
            region=region,
            binding=f"n_bound={nb:.4f}",
        )
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
    """Per-axis grid specification (lo, hi, count) for the K parameters."""

    axes: dict[str, tuple[float, float, int]]

    def points(self, names) -> np.ndarray:
        grids = [np.linspace(*self.axes[a]) for a in names]
        mesh = np.meshgrid(*grids, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class NumericGateResult:
    gate_id: str
    axis_names: tuple[str, ...]
    points: np.ndarray  # all grid points, shape (N, n_axes)
    admissible: np.ndarray  # boolean mask, shape (N,)
    min_robustness: np.ndarray  # per point, shape (N,)


def worst_case_output_robustness(
    kind: GateKind,
    row: ExtendedTruthRow,
    input_ths,
    output_th: Thresholds,
    k_values: np.ndarray,
    n: float,
    alpha: float,
    step: float = 0.01,
) -> np.ndarray:
    """Output-formula robustness under the row's worst-case constant inputs.

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

    Each trajectory is RK4's closed form x_k = d + A^k * (x0 - d) (see
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
    kind = GateKind(kind)
    wc = worst_case(kind, row, input_ths)
    k_values = np.atleast_2d(np.asarray(k_values, dtype=float))
    check_kinetics(kind, n, alpha, k_values.T)
    drives = gate_drives(kind, n, wc.levels, k_values)
    times = time_grid(row.lam + row.delta, step)
    count = len(drives)
    rhos = np.empty(count)
    for block in _blocks(count, 8 * times.size):
        points = range(count)[block]
        traj = simulate_constant_drive(
            drives[block], alpha, np.full(len(points), wc.x0), step, times.size - 1
        )
        # one Signal for the block: a variable per point, each a view of
        # its column of ``traj``, so the time grid is validated once per block
        names = [f"x_{i}" for i in points]
        sig = Signal(times=times, values=dict(zip(names, traj.T)))
        for i, name in zip(points, names):
            atom = _level_atom(name, row.output_level, output_th)
            f = Eventually(0.0, row.delta, Globally(0.0, row.lam, atom))
            rhos[i] = robustness(f, sig, 0.0)
    return rhos


def synthesize_numeric(
    c: Circuit,
    tb: TimingBudget | None = None,
    grid: dict[str, NumericGrid] | None = None,
    params: dict[str, GateParams] | None = None,
    step: float = 0.01,
) -> dict[str, NumericGateResult]:
    """Grid-search synthesis: admissible iff every row's worst-case
    output robustness is >= 0.

    ``grid`` maps gate id to its K-axis grid; ``params`` supplies the
    fixed n and alpha per gate (alpha defaults to its analytic bound, n
    to the kind's ``default_n``).  Grid points are independent; results
    are merged in grid order.  Raises ``ValueError`` for a gate id in
    ``grid`` that is not in the circuit.
    """
    if tb is None:
        tb = propagate_timing(c)
    if not grid:
        raise ValueError("empty grid specification")
    unknown = sorted(grid.keys() - c.gates.keys())
    if unknown:
        raise ValueError(f"grid names gate ids not in the circuit: {unknown}")
    results = {}
    for gid, gspec in grid.items():
        g = c.gates[gid]
        names = tuple(sorted(gspec.axes))
        if len(names) != g.kind.arity:
            raise ValueError(
                f"gate {gid!r} needs {g.kind.arity} grid axis(es), got {len(names)}"
            )
        pts = gspec.points(names)
        base = params.get(gid) if params else None
        n_g = base.n if base else GATE_RULES[g.kind].default_n
        alpha = base.alpha if base else alpha_bound(
            c.thresholds[g.output], tb.delta[gid]
        )
        input_ths = tuple(c.thresholds[v] for v in g.inputs)
        out_th = c.thresholds[g.output]
        rows = [
            row
            for row, _ in truth_table(
                g.kind, g.inputs, g.output, tb.delta[gid], tb.lam[gid],
                c.thresholds,
            )
        ]
        valid = (pts > 0).all(axis=1) & (pts <= 1).all(axis=1)
        min_rho = np.full(len(pts), np.inf)
        min_rho[~valid] = -np.inf
        for row in rows:
            if not valid.any():
                break
            rhos = worst_case_output_robustness(
                g.kind, row, input_ths, out_th, pts[valid], n_g, alpha, step
            )
            cur = min_rho[valid]
            min_rho[valid] = np.minimum(cur, rhos)
        results[gid] = NumericGateResult(
            gate_id=gid,
            axis_names=names,
            points=pts,
            admissible=min_rho >= 0.0,
            min_robustness=min_rho,
        )
        if not results[gid].admissible.any():
            raise EmptyRegionError(
                gid, "no admissible grid point (grid too coarse or region empty)"
            )
    return results


def export_region_csv(
    path,
    points: np.ndarray,
    inside: np.ndarray,
    binding: list[str] | None = None,
    min_robustness: np.ndarray | None = None,
) -> None:
    """Write a sampled 2D region to CSV.

    Columns: K1, K2, inside (0/1), binding_constraint, min_robustness.
    Unknown fields are left blank: K2 for one-axis points, and the last
    two columns when ``binding`` or ``min_robustness`` is not given.  Each
    number is formatted ``%.10g``; the rows are written by :mod:`csv` in
    one call, so a binding label is quoted under its rules and every line
    ends in ``\\r\\n``.  ``points`` that are not an (N, 1) or (N, 2)
    array, or an ``inside``, ``binding`` or ``min_robustness`` of another
    length than ``points``, raise ``ValueError`` before the file is opened.
    """
    import csv

    points = np.asarray(points)
    if points.ndim != 2 or points.shape[1] not in (1, 2):
        raise ValueError(f"points must be an (N, 1) or (N, 2) array, not shape {points.shape}")
    blank = [""] * len(points)
    # zip below would drop the rows past the shortest column
    if any(c is not None and len(c) != len(points) for c in (inside, binding, min_robustness)):
        raise ValueError("inside, binding and min_robustness need an entry per point")

    def fmt(values):
        return ["%.10g" % x for x in np.asarray(values).tolist()]

    columns = (
        fmt(points[:, 0]),
        fmt(points[:, 1]) if points.shape[1] > 1 else blank,
        [int(bool(b)) for b in inside],
        binding if binding is not None else blank,
        fmt(min_robustness) if min_robustness is not None else blank,
    )
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["K1", "K2", "inside", "binding_constraint", "min_robustness"])
        w.writerows(zip(*columns))


def sample_region(
    region: CurvedRegion | ParamBox,
    grid: NumericGrid,
    axis_names=("K1", "K2"),
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Evaluate region membership on a grid: (points, inside, binding).

    A box labels each point outside it ``"box"``, one shared string.  A
    curved region is judged one block of points at a time, about 16k
    points to a block, so the membership predicate's temporaries stay
    under 2 MiB whatever the grid size; the masks and labels are joined
    in grid order, identical to one call on the whole grid.  A curved
    region takes exactly two axis names, (K1, K2); others raise
    ``ValueError``.
    """
    pts = grid.points(list(axis_names))
    if isinstance(region, ParamBox):
        inside = region.contains_points(pts, axis_names)
        labels = np.array(["box", ""], dtype=object)
        return pts, inside, labels[inside.view(np.uint8)].tolist()
    if len(axis_names) != 2:
        raise ValueError("a Method 2 region needs two K axes")
    membership = GATE_RULES[region.kind].membership
    inside = np.empty(len(pts), dtype=bool)
    binding: list[str] = []
    # 16k points to a block: the predicates peak at about 100 bytes a
    # point (float and boolean temporaries, a label pointer), under 2 MiB
    for block in _blocks(len(pts), 64):
        inside[block], labels = membership(
            region.thresholds, region.n, pts[block, 0], pts[block, 1]
        )
        binding += labels
    return pts, inside, binding
