import pytest

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
