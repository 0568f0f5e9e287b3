import pytest
from hypothesis import given, settings, strategies as st

import reference_parser
from hesitant import Universe, hfe, make_hfs, parse_expression
from hesitant.expressions import MAX_DEPTH, evaluate_on_hfs, variables


def _doc_sets():
    uni = Universe(["x"])
    return {
        "A": make_hfs(uni, {"x": ["0.1", "0.2", "0.3"]}),
        "B": make_hfs(uni, {"x": ["0.3", "0.4", "0.5"]}),
        "C": make_hfs(uni, {"x": ["0.3", "0.45", "0.5"]}),
    }


def _eval(text):
    sets = _doc_sets()
    return evaluate_on_hfs(parse_expression(text), sets.__getitem__)


def test_intersection_binds_tighter_than_union():
    assert _eval("A & B | C") == _eval("(A & B) | C")
    assert _eval("A | B & C") == _eval("A | (B & C)")


def test_unicode_and_ascii_operators_agree():
    assert _eval("A ∪ B") == _eval("A | B")
    assert _eval("A ∩ B") == _eval("A & B")
    assert _eval("Aᶜ") == _eval("A^c")


def test_complement_postfix_and_parentheses():
    lhs = _eval("(A | B)^c")
    sets = _doc_sets()
    assert lhs == ~(sets["A"] | sets["B"])
    assert _eval("A^c^c") == sets["A"]


def test_worked_value():
    result = _eval("(A | B) & C")
    assert result["x"] == hfe("0.5", "0.5", "0.45", "0.4", "0.3", "0.3", "0.3")


def test_variables_collected():
    assert variables(parse_expression("(A | B) & C^c")) == {"A", "B", "C"}


@pytest.mark.parametrize("bad", ["", "A |", "| A", "(A", "A @ B", "A B", "^c"])
def test_parse_errors(bad):
    with pytest.raises(ValueError):
        parse_expression(bad)


def test_statement_rendering_round_trips():
    node = parse_expression("(A & B) | C^c")
    assert parse_expression(str(node)) == node


@pytest.mark.parametrize("text", ["A & (B & C)", "A | (B | C)", "(A | B) & (C | D) & (E & F)"])
def test_right_operand_of_same_operator_round_trips(text):
    node = parse_expression(text)
    assert parse_expression(str(node)) == node


def _nested(shape, d):
    """An expression d levels deep, in one of four shapes."""
    return {
        "parentheses": "(" * d + "A" + ")" * d,
        "complements": "A" + "ᶜ" * d,
        "unions": " | ".join(["A"] * (d + 1)),
        "intersections": " & ".join(["B"] * (d + 1)),
    }[shape]


@pytest.mark.parametrize("shape", ["parentheses", "complements", "unions", "intersections"])
def test_depth_limit(shape):
    text = _nested(shape, MAX_DEPTH)
    node = parse_expression(text)
    # everything that recurses over the tree works at the limit
    assert parse_expression(str(node)) == node
    assert hash(node) == hash(parse_expression(text))
    assert variables(node) <= {"A", "B"}
    _eval(text)
    for deeper in (_nested(shape, MAX_DEPTH + 1), f"({text})^c"):
        with pytest.raises(ValueError, match=f"deeper than {MAX_DEPTH} levels"):
            parse_expression(deeper)


def _outcome(parse, text):
    """The tree `parse` gives for `text`, or its ValueError's message."""
    try:
        return parse(text)
    except ValueError as e:
        return f"ValueError: {e}"


# tokens of both spellings, and pieces that begin no token or only look like one
_PIECES = ["A", "x1", "a.b-c", "_", "∪", "|", "∩", "&", "ᶜ", "^c", "(", ")", "^", "^C", "7", "é"]
_GAPS = ["", "", " ", "\t", " \t "]

_piece_texts = st.lists(st.tuples(st.sampled_from(_PIECES), st.sampled_from(_GAPS)), max_size=14).map(
    lambda parts: "".join(gap + piece for piece, gap in parts)
)


def _spelled(children):
    """Well-formed expressions over the pieces' names, in either spelling,
    sometimes parenthesized, with tabs and spaces between tokens."""
    gap = st.sampled_from(_GAPS)
    return st.one_of(
        st.tuples(children, gap, st.sampled_from(["ᶜ", "^c"])).map("".join),
        st.tuples(children, gap, st.sampled_from(["∪", "|", "∩", "&"]), gap, children).map("".join),
        st.tuples(gap, children, gap).map(lambda t: "(" + "".join(t) + ")"),
    )


_expression_texts = st.recursive(st.sampled_from(["A", "x1", "a.b-c", "_"]), _spelled, max_leaves=12)


@settings(max_examples=1000)
@given(st.one_of(_piece_texts, _expression_texts, st.tuples(_expression_texts, _piece_texts).map("".join)))
def test_parser_matches_the_reference_parser(text):
    assert _outcome(parse_expression, text) == _outcome(reference_parser.parse, text)


@pytest.mark.parametrize("shape", ["parentheses", "complements", "unions", "intersections"])
@pytest.mark.parametrize("depth", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1])
def test_depth_edges_match_the_reference_parser(shape, depth):
    # wrapped in (…)ᶜ, every shape is one level deeper
    for text, levels in ((_nested(shape, depth), depth), (f"({_nested(shape, depth)})ᶜ", depth + 1)):
        got = _outcome(parse_expression, text)
        assert got == _outcome(reference_parser.parse, text)
        assert isinstance(got, str) == (levels > MAX_DEPTH), text[:20]


@pytest.mark.parametrize("text", ["A", "A | B", "Aᶜ"], ids=["name", "union", "complement"])
def test_evaluate_on_hfs_refuses_a_resolved_value_that_is_not_an_hfs(text):
    """A resolver returning something else raised AttributeError, or, for a
    bare name, was returned as the value."""
    with pytest.raises(TypeError, match="^resolve must return an HFS, but returned int for 'A'$"):
        evaluate_on_hfs(parse_expression(text), lambda name: 3)
