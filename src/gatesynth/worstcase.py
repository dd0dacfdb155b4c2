"""Worst-case constant input construction for modular gate synthesis.

For each truth-table row there is a constant input assignment such that
satisfying the row's output formula under it implies satisfaction under
every input trace meeting the row's antecedent.  The levels come from the
monotone dependence of the gate output on its inputs (rising for an
activating kind, falling for NOT): each input is set to its least
favourable admissible constant, the initial output to its least
favourable extreme.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gates import HIGH, ExtendedTruthRow, GateKind

__all__ = ["WorstCaseAssignment", "worst_case", "MAX_LEVEL"]

# maximum rescaled concentration (steady state for full drive)
MAX_LEVEL = 1.0


@dataclass(frozen=True)
class WorstCaseAssignment:
    """Constant input levels and pessimistic initial output for one row."""

    levels: tuple[float, ...]
    x0: float


def worst_case(
    kind: GateKind,
    row: ExtendedTruthRow,
    input_thresholds,
) -> WorstCaseAssignment:
    """Worst-case constant levels for ``row`` of a gate of ``kind``.

    ``input_thresholds`` gives one :class:`Thresholds` per input, in order.
    Raises ``ValueError`` if the row's output level contradicts the gate's
    truth function.
    """
    kind = GateKind(kind)
    input_thresholds = tuple(input_thresholds)
    if len(row.input_levels) != kind.arity or len(input_thresholds) != kind.arity:
        raise ValueError(f"{kind.value} gate takes {kind.arity} input(s)")
    expected = kind.output_level(row.input_levels)
    if expected != row.output_level:
        raise ValueError(
            f"inconsistent row: {kind.value}{row.input_levels} yields "
            f"{expected!r}, row claims {row.output_level!r}"
        )

    out_high = row.output_level == HIGH
    # each input sits at the end of its admissible range, [0, minus] or
    # [plus, MAX_LEVEL], that pushes the output away from its level: the
    # top end when a higher input lowers a high output or raises a low one
    top = out_high != kind.activating
    levels = []
    for lvl, th in zip(row.input_levels, input_thresholds):
        lo, hi = (th.plus, MAX_LEVEL) if lvl == HIGH else (0.0, th.minus)
        levels.append(hi if top else lo)
    # output must rise from empty when required high, fall from full when low
    x0 = 0.0 if out_high else MAX_LEVEL
    return WorstCaseAssignment(levels=tuple(levels), x0=x0)
