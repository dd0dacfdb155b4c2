import pytest
from hypothesis import given, strategies as st

from gatesynth.formulas import (
    And, Atom, Eventually, Globally, Implies, Not, Or, StlSyntaxError,
    TrueFormula, Until, horizon_and_depth, parse, required_horizon,
)


class TestParse:
    def test_gate_contract_formula(self):
        f = parse("G[0,16](xA >= 0.75 & xB >= 0.75) -> F[0,4] G[0,12](xC >= 0.75)")
        assert isinstance(f, Implies)
        assert isinstance(f.left, Globally)
        assert (f.left.lo, f.left.hi) == (0, 16)
        assert isinstance(f.left.child, And)
        cons = f.right
        assert isinstance(cons, Eventually) and (cons.lo, cons.hi) == (0, 4)
        inner = cons.child
        assert isinstance(inner, Globally) and (inner.lo, inner.hi) == (0, 12)
        assert inner.child == Atom("xC", ">=", 0.75)

    def test_true(self):
        assert parse("true") == TrueFormula()

    def test_negated_atom(self):
        assert parse("!(x >= 0.5)") == Not(Atom("x", ">=", 0.5))

    def test_le_atom(self):
        assert parse("y <= 0.25") == Atom("y", "<=", 0.25)

    def test_until(self):
        f = parse("x >= 0.1 U[1,2] y <= 0.9")
        assert f == Until(1, 2, Atom("x", ">=", 0.1), Atom("y", "<=", 0.9))

    def test_precedence(self):
        f = parse("a >= 1 & b >= 2 | c >= 3 -> d >= 4")
        # (! > U > & > | > ->), -> binds last
        assert isinstance(f, Implies)
        assert isinstance(f.left, Or)
        assert isinstance(f.left.left, And)

    def test_implies_right_assoc(self):
        f = parse("a >= 1 -> b >= 1 -> c >= 1")
        assert isinstance(f, Implies)
        assert isinstance(f.right, Implies)

    def test_whitespace_insensitive(self):
        assert parse("G[0,1](x>=0.5)") == parse("  G[ 0 , 1 ] ( x >= 0.5 )  ")

    def test_round_trip(self):
        texts = [
            "G[0,16] ((xA >= 0.75 & xB >= 0.75)) -> F[0,4] G[0,12] (xC >= 0.75)",
            "!(x >= 0.5) | true",
            "x >= 0.1 U[0.5,2.5] y <= 0.9",
        ]
        for text in texts:
            f = parse(text)
            assert parse(str(f)) == f


@st.composite
def formulas(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return Atom(
            draw(st.sampled_from(["x", "y", "zA"])),
            draw(st.sampled_from([">=", "<="])),
            draw(st.floats(0, 1, allow_nan=False)),
        )
    kind = draw(st.sampled_from(["not", "and", "or", "implies", "F", "G", "U"]))
    if kind == "not":
        return Not(draw(formulas(depth=depth - 1)))
    if kind in ("and", "or", "implies"):
        cls = {"and": And, "or": Or, "implies": Implies}[kind]
        return cls(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    lo = draw(st.floats(0, 5, allow_nan=False))
    hi = lo + draw(st.floats(0.1, 5, allow_nan=False))
    if kind == "U":
        return Until(lo, hi, draw(formulas(depth=depth - 1)),
                     draw(formulas(depth=depth - 1)))
    return (Eventually if kind == "F" else Globally)(
        lo, hi, draw(formulas(depth=depth - 1)))


@given(formulas())
def test_printed_form_round_trips(f):
    assert parse(str(f)) == f


class TestParseErrors:
    def test_syntax_error_position(self):
        with pytest.raises(StlSyntaxError) as exc:
            parse("x >= ")
        assert exc.value.position == 5

    def test_bad_interval(self):
        with pytest.raises(StlSyntaxError):
            parse("G[2,1](x >= 0.5)")
        with pytest.raises(StlSyntaxError):
            parse("G[1,1](x >= 0.5)")

    def test_negative_bound_stops_at_the_tokenizer(self):
        with pytest.raises(StlSyntaxError, match=r"unexpected character '-' \(at position 2\)"):
            parse("F[-1,2] (x >= 0)")

    def test_trailing_garbage(self):
        with pytest.raises(StlSyntaxError):
            parse("x >= 0.5 )")

    def test_unknown_char(self):
        with pytest.raises(StlSyntaxError):
            parse("x >= 0.5 @")

    @pytest.mark.parametrize("text,position", [
        ("x >= 1e400", 5), ("F[0,1e400] x >= 0.5", 4), ("(x >= 1) U[1e999,2e999] (y <= 1)", 11),
    ])
    def test_number_beyond_float_range(self, text, position):
        # float() rounds such a literal to inf instead of failing
        with pytest.raises(StlSyntaxError, match="not finite") as exc:
            parse(text)
        assert exc.value.position == position
        assert parse("x >= 1e308").threshold == 1e308


class TestAst:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Globally(-1, 2, TrueFormula())
        with pytest.raises(ValueError):
            Eventually(3, 3, TrueFormula())
        with pytest.raises(ValueError):
            Until(2, 1, TrueFormula(), TrueFormula())

    def test_atom_op_validation(self):
        with pytest.raises(ValueError):
            Atom("x", ">", 0.5)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
    def test_atom_threshold_must_be_finite(self, threshold):
        with pytest.raises(ValueError, match="threshold must be finite"):
            Atom("x", ">=", threshold)

    def test_siblings_with_equal_fields_differ(self):
        a, b = Atom("x", ">=", 0.5), Atom("y", "<=", 0.25)
        binary = [And(a, b), Or(a, b), Implies(a, b)]
        windows = [Eventually(0, 1, a), Globally(0, 1, a)]
        for group in (binary, windows):
            for i, f in enumerate(group):
                assert [f == g for g in group] == [j == i for j in range(len(group))]
        assert And(left=a, right=b) == And(a, b)
        assert Globally(lo=0, hi=1, child=a) == windows[1]
        assert [repr(f) for f in binary + windows] == [
            f"{name}(left={a!r}, right={b!r})" for name in ("And", "Or", "Implies")
        ] + [f"{name}(lo=0, hi=1, child={a!r})" for name in ("Eventually", "Globally")]
        assert repr(a) == "Atom(var='x', op='>=', threshold=0.5)"
        assert [str(f) for f in binary + windows] == [
            "(x >= 0.5 & y <= 0.25)", "(x >= 0.5 | y <= 0.25)", "(x >= 0.5 -> y <= 0.25)",
            "F[0,1] (x >= 0.5)", "G[0,1] (x >= 0.5)",
        ]
        assert And.__match_args__ == ("left", "right")
        assert Globally.__match_args__ == ("lo", "hi", "child")

    @pytest.mark.parametrize("node", [Globally, Eventually, Until])
    @pytest.mark.parametrize("lo,hi", [(0.0, float("inf")), (float("nan"), 1.0),
                                       (0.0, float("nan"))])
    def test_interval_bounds_must_be_finite(self, node, lo, hi):
        children = (TrueFormula(),) * (2 if node is Until else 1)
        with pytest.raises(ValueError, match="bounds must be finite"):
            node(lo, hi, *children)


class TestRequiredHorizon:
    def test_atom(self):
        assert required_horizon(parse("x >= 0.5")) == 0

    def test_gate_contract(self):
        f = parse("G[0,16](xA >= 0.75) -> F[0,4] G[0,12](xC >= 0.75)")
        assert required_horizon(f) == 16

    def test_nested(self):
        assert required_horizon(parse("F[0,2] G[1,3] (x >= 0)")) == 5

    def test_until_nesting(self):
        f = parse("(G[0,1] x >= 0) U[0,2] (F[0,3] y >= 0)")
        assert required_horizon(f) == 5

    @pytest.mark.parametrize("text,horizon,depth", [
        ("x >= 0.5", 0, 0),
        ("!(true)", 0, 0),
        # the longest horizon and the deepest path may differ
        ("G[0,16](xA >= 0.75) -> F[0,4] G[0,1](xC >= 0.75)", 16, 2),
        ("(G[0,1] x >= 0) U[0,2] (F[0,3] y >= 0)", 5, 2),
        ("F[0,1] (x >= 0 & G[0,1] F[0,1] !(y >= 0))", 3, 3),
    ])
    def test_horizon_and_depth(self, text, horizon, depth):
        f = parse(text)
        assert horizon_and_depth(f) == (horizon, depth)
        assert required_horizon(f) == horizon
