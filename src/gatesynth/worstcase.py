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

from .gates import HIGH, MAX_LEVEL, ExtendedTruthRow, GateKind

__all__ = ["worst_case"]


def worst_case(
    kind: GateKind,
    row: ExtendedTruthRow,
    input_thresholds,
) -> tuple[tuple[float, ...], float]:
    """Worst-case constant input levels and pessimistic initial output,
    ``(levels, x0)``, for ``row`` of a gate of ``kind``.

    ``input_thresholds`` gives one :class:`Thresholds` per input, in order.
    Raises ``ValueError`` if the row's output level contradicts the gate's
    truth function.
    """
    kind = GateKind(kind)
    input_thresholds = tuple(input_thresholds)
    kind.check_count(row.input_levels, "input level(s)")
    kind.check_count(input_thresholds, "input threshold(s)")
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
    return tuple(levels), x0
