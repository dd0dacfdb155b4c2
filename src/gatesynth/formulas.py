"""STL formula AST and text parser.

Grammar (ASCII, whitespace insensitive)::

    formula := or_expr ('->' formula)?          # right associative
    or_expr := and_expr ('|' and_expr)*
    and_expr := until_expr ('&' until_expr)*
    until_expr := unary ('U[a,b]' unary)*       # left associative
    unary := '!' unary
           | 'G[a,b]' unary | 'F[a,b]' unary
           | '(' formula ')'
           | 'true'
           | ident ('>=' | '<=') number

Operator precedence is ! > U > & > | > ->.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import ClassVar

__all__ = [
    "Formula", "TrueFormula", "Atom", "Not", "And", "Or", "Implies",
    "Until", "Eventually", "Globally", "parse", "required_horizon",
    "StlSyntaxError",
]


class StlSyntaxError(ValueError):
    """Malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    """Base class for STL AST nodes."""


def _check_interval(lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval bounds must be finite, got [{lo},{hi}]")
    if lo < 0:
        raise ValueError(f"interval lower bound must be >= 0, got {lo}")
    if not lo < hi:
        raise ValueError(f"temporal interval needs lo < hi, got [{lo},{hi}]")


def _fmt(x: float) -> str:
    # compact when lossless, full precision otherwise
    short = format(x, "g")
    return short if float(short) == x else repr(float(x))


@dataclass(frozen=True)
class TrueFormula(Formula):
    def __str__(self):
        return "true"


@dataclass(frozen=True)
class Atom(Formula):
    """Single-variable threshold predicate ``var >= threshold`` or ``var <= threshold``."""

    var: str
    op: str  # ">=" or "<="
    threshold: float

    def __post_init__(self):
        if self.op not in (">=", "<="):
            raise ValueError(f"atom operator must be '>=' or '<=', got {self.op!r}")
        if not math.isfinite(self.threshold):
            raise ValueError(f"atom threshold must be finite, got {self.threshold}")

    def __str__(self):
        return f"{self.var} {self.op} {_fmt(self.threshold)}"


@dataclass(frozen=True)
class Not(Formula):
    child: Formula

    def __str__(self):
        return f"!({self.child})"


@dataclass(frozen=True)
class _Binary(Formula):
    """A binary connective; each subclass sets its printed ``_symbol``."""

    left: Formula
    right: Formula
    _symbol: ClassVar[str]

    def __str__(self):
        return f"({self.left} {self._symbol} {self.right})"


class And(_Binary):
    _symbol = "&"


class Or(_Binary):
    _symbol = "|"


class Implies(_Binary):
    _symbol = "->"


@dataclass(frozen=True)
class Until(Formula):
    lo: float
    hi: float
    left: Formula
    right: Formula

    def __post_init__(self):
        _check_interval(self.lo, self.hi)

    def __str__(self):
        return f"({self.left} U[{_fmt(self.lo)},{_fmt(self.hi)}] {self.right})"


@dataclass(frozen=True)
class _Window(Formula):
    """A bounded temporal operator over [lo, hi]; each subclass sets its
    printed ``_symbol``."""

    lo: float
    hi: float
    child: Formula
    _symbol: ClassVar[str]

    def __post_init__(self):
        _check_interval(self.lo, self.hi)

    def __str__(self):
        return f"{self._symbol}[{_fmt(self.lo)},{_fmt(self.hi)}] ({self.child})"


class Eventually(_Window):
    _symbol = "F"


class Globally(_Window):
    _symbol = "G"


def required_horizon(f: Formula) -> float:
    """Trace length needed past the evaluation time for every sub-window."""
    if isinstance(f, (TrueFormula, Atom)):
        return 0.0
    if isinstance(f, Not):
        return required_horizon(f.child)
    if isinstance(f, _Binary):
        return max(required_horizon(f.left), required_horizon(f.right))
    if isinstance(f, _Window):
        return f.hi + required_horizon(f.child)
    if isinstance(f, Until):
        return f.hi + max(required_horizon(f.left), required_horizon(f.right))
    raise TypeError(f"not a formula node: {f!r}")


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>->|>=|<=|[!&|()\[\],])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise StlSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.peek()
        if val != value:
            raise StlSyntaxError(f"expected {value!r}, found {val or 'end of input'!r}", pos)
        return self.next()

    def parse(self) -> Formula:
        f = self.implies()
        kind, val, pos = self.peek()
        if kind != "end":
            raise StlSyntaxError(f"trailing input {val!r}", pos)
        return f

    def implies(self) -> Formula:
        left = self.or_expr()
        if self.peek()[1] == "->":
            self.next()
            return Implies(left, self.implies())
        return left

    def or_expr(self) -> Formula:
        f = self.and_expr()
        while self.peek()[1] == "|":
            self.next()
            f = Or(f, self.and_expr())
        return f

    def and_expr(self) -> Formula:
        f = self.until_expr()
        while self.peek()[1] == "&":
            self.next()
            f = And(f, self.until_expr())
        return f

    def until_expr(self) -> Formula:
        f = self.unary()
        while self.peek()[1] == "U":
            self.next()
            lo, hi = self.interval()
            f = Until(lo, hi, f, self.unary())
        return f

    def interval(self) -> tuple[float, float]:
        self.expect("[")
        lo = self.number()
        self.expect(",")
        hi = self.number()
        kind, val, pos = self.expect("]")
        if not lo < hi:
            raise StlSyntaxError(f"interval needs a < b, got [{lo},{hi}]", pos)
        return lo, hi

    def number(self) -> float:
        kind, val, pos = self.peek()
        if kind != "num":
            raise StlSyntaxError(f"expected number, found {val or 'end of input'!r}", pos)
        self.next()
        x = float(val)
        if not math.isfinite(x):  # a literal beyond the float range
            raise StlSyntaxError(f"number {val!r} is not finite", pos)
        return x

    def unary(self) -> Formula:
        kind, val, pos = self.peek()
        if val == "!":
            self.next()
            return Not(self.unary())
        if val in ("G", "F"):
            self.next()
            lo, hi = self.interval()
            child = self.unary()
            return (Globally if val == "G" else Eventually)(lo, hi, child)
        if val == "(":
            self.next()
            f = self.implies()
            self.expect(")")
            return f
        if val == "true":
            self.next()
            return TrueFormula()
        if kind == "ident":
            self.next()
            okind, op, opos = self.peek()
            if op not in (">=", "<="):
                raise StlSyntaxError(f"expected '>=' or '<=' after {val!r}", opos)
            self.next()
            return Atom(val, op, self.number())
        raise StlSyntaxError(f"expected formula, found {val or 'end of input'!r}", pos)


def parse(text: str) -> Formula:
    """Parse formula text into an AST; raises :class:`StlSyntaxError`."""
    return _Parser(text).parse()


def _is_variable(name) -> bool:
    """Whether the parser reads ``name`` as a variable: ``name >= 0`` must
    parse to an atom on ``name`` itself.  Keywords (``G``, ``F``, ``true``)
    and text that is no single identifier (``../A``, ``x y``) are not."""
    try:
        return _Parser(f"{name} >= 0").parse() == Atom(name, ">=", 0.0)
    except StlSyntaxError:
        return False
