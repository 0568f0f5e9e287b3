"""A wrong-typed argument to a public entry point is a TypeError that names
the argument, rather than an AttributeError from deep inside the call."""

import pytest

from hesitant import (
    GeneratorConfig,
    Inclusion,
    best_subsequence,
    classify_strong_or_tail,
    document_of,
    element_relation,
    format_degree,
    format_ranking,
    hfe,
    hunt_counterexample,
    make_hfs,
    random_hfs,
    ranking_dot,
    relation_profile,
    run_suite,
)
from hesitant.degrees import render_rational
from hesitant.laws import replay_witness, run_law
from hesitant.ranking import ranking_dot_lines, ranking_report
from hesitant.relations import is_subsequence

H = hfe("0.5", "0.2")
A = make_hfs(["x"], {"x": ["0.5"]})
CONFIG = GeneratorConfig(trials=3)

CALLS = {
    "element_relation-a": (lambda: element_relation(Inclusion.POSSIBLE, A, H), "a must be an HFE, not HFS"),
    "element_relation-b": (lambda: element_relation(Inclusion.MEAN, H, 3), "b must be an HFE, not int"),
    "relation_profile-a": (lambda: relation_profile(3, H), "a must be an HFE, not int"),
    "relation_profile-b": (lambda: relation_profile(H, A), "b must be an HFE, not HFS"),
    "classify_strong_or_tail": (lambda: classify_strong_or_tail(A, A), "a must be an HFE, not HFS"),
    "is_subsequence": (lambda: is_subsequence(3, H), "sub must be an HFE, not int"),
    "best_subsequence": (lambda: best_subsequence(3, 1), "h must be an HFE, not int"),
    "format_ranking": (lambda: format_ranking(3), "ranking must be a Ranking, not int"),
    "ranking_report": (lambda: list(ranking_report(3)), "ranking must be a Ranking, not int"),
    "ranking_dot": (lambda: ranking_dot(3), "ranking must be a Ranking, not int"),
    "ranking_dot_lines": (lambda: list(ranking_dot_lines(3)), "ranking must be a Ranking, not int"),
    "run_law-config": (lambda: run_law("thm1.1", 3), "config must be a GeneratorConfig, not int"),
    "run_law-law": (lambda: run_law(3, CONFIG), "law must be a Law or a law id, not int"),
    "hunt_counterexample": (lambda: hunt_counterexample("thm1.1", {}), "config must be a GeneratorConfig, not dict"),
    "random_hfs": (lambda: random_hfs(3, 0), "config must be a GeneratorConfig, not int"),
    "run_suite": (lambda: run_suite(3, ["thm1.1"]), "config must be a GeneratorConfig, not int"),
    "run_suite-no-laws": (lambda: run_suite(None, []), "config must be a GeneratorConfig, not NoneType"),
    "replay_witness": (lambda: replay_witness(3), "witness must be a Witness, not int"),
    "format_degree": (lambda: format_degree("0.5"), "value must be a Fraction, not str"),
    "render_rational": (lambda: render_rational("0.5"), "value must be a Fraction, not str"),
    "document_of": (
        lambda: document_of({"A": A}, 3),
        "families must be a mapping of family names to set names, not int",
    ),
}


@pytest.mark.parametrize("name", CALLS)
def test_a_wrong_typed_argument_is_a_type_error_naming_it(name):
    call, message = CALLS[name]
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()

