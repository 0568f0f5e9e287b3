import json
from collections import Counter
from pathlib import Path

import pytest

from hesitant import (
    Family,
    UnknownLawError,
    Universe,
    evaluate_law,
    get_law,
    law_registry,
    make_hfs,
    proved_laws,
    refuted_laws,
)
from hesitant.laws import LawStatus, fixture_binding, replay_fixtures
from hesitant.laws.registry import (
    And, Iff, Implies, Rel, _law, eq, for_all, inc, render_table, sot,
)
from hesitant.relations import Inclusion as K


def test_registry_counts():
    assert len(proved_laws()) == 95
    assert len(refuted_laws()) == 51
    assert len(law_registry()) == 146


def test_ids_unique_and_stable():
    ids = [law.id for law in law_registry()]
    assert len(set(ids)) == len(ids)
    dupes = [i for i, c in Counter(ids).items() if c > 1]
    assert not dupes


@pytest.mark.parametrize(
    "law_id",
    [
        "thm1.1", "prop2.9", "prop5.3", "prop11.8", "prop13.1",
        "thm2.2", "thm3.4", "thm4.4", "thm5.6", "thm6.8",
        "exam-sec2.3-m-intersection", "exam-sec2.6-distrib-m",
        "exam-sec2.4-tconv", "exam-sec2.5-t-union-a", "exam-sec2.5c-t-compl-n",
    ],
)
def test_required_ids_present(law_id):
    assert get_law(law_id).id == law_id


def test_aliases_resolve():
    assert get_law("thm3.abs-p").id == "thm3.4"
    assert get_law("thm3.distrib-a").id == "thm3.7"


def test_unknown_law_id():
    with pytest.raises(UnknownLawError):
        get_law("prop99.1")


def test_group_sizes_match_enumeration():
    counts = Counter(law.id.split(".")[0] for law in proved_laws())
    assert counts == {
        "thm1": 5, "prop2": 9, "prop3": 3, "prop4": 3, "prop5": 5,
        "prop6": 2, "prop7": 5, "prop8": 3, "prop9": 5, "prop10": 5,
        "prop11": 8, "prop12": 4, "prop13": 6,
        "thm2": 5, "thm3": 7, "thm4": 4, "thm5": 8, "thm6": 8,
    }


def test_proved_laws_have_no_falsifying_fixture():
    for law in proved_laws():
        for result in replay_fixtures(law):
            assert result.confirmed, (law.id, result)


def test_every_refuted_law_fixture_falsifies():
    for law in refuted_laws():
        assert law.fixtures, law.id
        for result in replay_fixtures(law):
            assert result.guard and not result.claim, (law.id, result)


def test_fixture_bindings_are_the_example_documents_sets():
    from hesitant import HFS, fixture_documents

    documents = fixture_documents()
    for law in refuted_laws():
        for fixture in law.fixtures:
            document = documents[fixture.example]
            binding = fixture_binding(law, fixture)
            assert list(binding) == [name for name, kind in law.params if kind == "set"], law.id
            for name, value in binding.items():
                whole = document.hfs(name)
                expected = HFS(fixture.universe, {e: whole[e] for e in fixture.universe})
                assert value == expected, (law.id, fixture.name, name)


# sha256 of `save_document` of each example document: the worked examples'
# data, as the documents of the CLI and the tests hold it
EXAMPLE_DOCUMENTS = {
    "expression-types": "9fe689d9647d023bde3dc1ceadd9a84adcd46f09def4576b4d47f54fcb2add64",
    "expert-scores": "d1053f5d84e3e9045686699cfa4d620e71f3741edbb8183934b32de0ac51b717",
    "mean-failures": "95cea503f7433d5fd7b40ccc5d4aa8c50ebcf6a90f9dd84323e1348685d0861d",
    "sot-failures": "b00b4f05580ee803499766ceb380318f018f122b94b7a84daa2a8228fef35755",
    "necessity-failures": "26531b9d9acd82b3e0850e164b782d6def43df971d700a1c2b58e8d026280ee0",
    "monotonicity-failures": "46abf04ea7660acd913ca69130b8b04ddd7fe2ec7aac15addf5a8de11707ff68",
    "complement-failures": "3864160f7d1e07e4c8cfae8f0c8f3ba2baaea90504d5e4528937c605fca346b3",
    "equality-failures": "e45180bbf31356f704d0d7bb5daef9e81ff1337da4c63a98458bf43dde9380af",
    "truncation-remark": "7b86ff571ff1daf65a67f70e6701ca7d8afdadf4500a4c650130e30cc588c2a4",
}


def test_example_documents_pinned():
    import hashlib

    from hesitant import fixture_documents, save_document

    saved = {name: hashlib.sha256(save_document(doc)).hexdigest() for name, doc in fixture_documents().items()}
    assert saved == EXAMPLE_DOCUMENTS


def test_refuted_laws_carry_specs_for_traces():
    # counterexample traces print the two sides of each premise and claim
    for law in refuted_laws():
        for part in (law.premise, law.conclusion):
            assert part is None or isinstance(part, Rel), law.id


def test_statement_guard_and_claim_come_from_the_spec():
    for law in law_registry():
        assert law.statement.startswith(str(law.spec)), law.id
        assert (law.guard is None) == (law.premise is None), law.id


def test_evaluate_law_on_scheme_pair():
    uni = Universe(["x"])
    A = make_hfs(uni, {"x": ["0.7", "0.5", "0.5"]})
    B = make_hfs(uni, {"x": ["0.8", "0.6", "0.5"]})
    verdict = evaluate_law("prop2.3", {"A": A, "B": B})
    assert verdict == {"guard": True, "claim": True}


def test_evaluate_law_guard_vacuous():
    uni = Universe(["x"])
    A = make_hfs(uni, {"x": ["0.9"]})
    B = make_hfs(uni, {"x": ["0.1"]})
    verdict = evaluate_law("prop2.3", {"A": A, "B": B})
    assert verdict["guard"] is False  # no violation possible by definition


def test_evaluate_law_validates_binding():
    uni = Universe(["x"])
    A = make_hfs(uni, {"x": ["0.5"]})
    with pytest.raises(ValueError):
        evaluate_law("prop2.3", {"A": A})
    other = make_hfs(Universe(["y"]), {"y": ["0.5"]})
    with pytest.raises(Exception):
        evaluate_law("prop2.3", {"A": A, "B": other})


@pytest.mark.parametrize("law", ["thm6.7", "thm6.8"])
def test_subfamily_premise_counts_multiplicity(law):
    """F1 = [X, X] is not a subfamily of F2 = [X]. Read without
    multiplicity, the premise held and the claim failed: the union fold
    doubles X's degrees to {0.25, 0.25, 0, 0}."""
    uni = Universe(["x"])
    X = make_hfs(uni, {"x": ["0.25", "0"]})
    twice, once = Family([("a", X), ("b", X)]), Family([("c", X)])
    assert evaluate_law(law, {"F1": twice, "F2": once})["guard"] is False
    assert evaluate_law(law, {"F1": once, "F2": twice}) == {"guard": True, "claim": True}


def test_absorption_claim_true_while_mean_equality_fails():
    law = get_law("thm3.abs-p")
    fixture = get_law("exam-sec2.6-absorb-inter-m").fixtures[0]
    binding = fixture_binding(law, fixture)
    assert evaluate_law(law, binding)["claim"] is True
    refuted = get_law("exam-sec2.6-absorb-inter-m")
    assert evaluate_law(refuted, fixture_binding(refuted, fixture))["claim"] is False


def test_render_table_lists_every_law():
    table = render_table()
    for law in law_registry():
        assert f"| {law.id} |" in table


def test_docs_table_in_sync():
    from pathlib import Path

    committed = Path(__file__).resolve().parent.parent / "docs" / "laws.md"
    assert committed.read_text(encoding="utf-8") == render_table()


def test_statuses_well_formed():
    for law in law_registry():
        assert law.status in (LawStatus.PROVED, LawStatus.REFUTED)
        assert law.statement
        assert law.params


# --- verdict pins --------------------------------------------------------------
#
# A weakened claim still shows zero violations, so the canonical report cannot
# catch it. Each law's (guard, claim) verdicts on a fixed set of grid bindings
# are hashed instead: 200 bindings from the law's own generator and 200 from
# independent random sets and families of the same parameter shape, drawn
# from streams seeded as the engine seeds its trials.

VERDICT_BINDINGS = 200
VERDICTS = Path(__file__).resolve().parent / "law_verdicts.json"


def _runner(params, plan):
    from hesitant.laws import generators as g

    return g.runner(plan, len(params))


def _unguarded(params):
    """Every param drawn free, in params order."""
    from hesitant.laws import generators as g

    return _runner(params, g.derive(params, None))


def verdict_digest(law) -> str:
    import dataclasses
    import hashlib

    from hesitant.laws.algebra import grid_algebra
    from hesitant.laws.engine import GeneratorConfig, _trials

    config = GeneratorConfig(trials=VERDICT_BINDINGS)
    alg = grid_algebra(config.degree_grid)
    h = hashlib.sha256()
    for tag, gen in (("own", law.gen), ("free", _unguarded(law.params))):
        # guard=None: _trials must hand over every binding, guard-true or not
        source = dataclasses.replace(law, id=f"{law.id}/{tag}", gen=gen, guard=None)
        for index, _, binding in _trials(source, alg, config):
            if binding is None:
                verdict = "-"
            else:
                guard = True if law.guard is None else bool(law.guard(alg.kern, alg.one, binding))
                verdict = f"{guard:d}{bool(law.claim(alg.kern, alg.one, binding)):d}"
            h.update(f"{index}:{verdict};".encode())
    return h.hexdigest()


def test_law_verdicts_pinned():
    pinned = json.loads(VERDICTS.read_text())
    assert sorted(pinned) == sorted(law.id for law in law_registry())
    changed = [law.id for law in law_registry() if verdict_digest(law) != pinned[law.id]]
    assert not changed


# --- generators derived from premises ------------------------------------------

# The laws whose generator no premise determines: the ⇔ laws, which mix
# bindings built for each side, and thm5.6, whose premise has a FewerDegrees
# part.
NAMED_GENERATORS = {"thm2.2", "thm5.1", "thm5.3", "thm5.6", "thm5.7"}


def _bindings(law, gen):
    import dataclasses

    from hesitant.laws.algebra import grid_algebra
    from hesitant.laws.engine import GeneratorConfig, _trials

    config = GeneratorConfig(trials=30)
    source = dataclasses.replace(law, gen=gen, guard=None)
    return [b for _, _, b in _trials(source, grid_algebra(config.degree_grid), config)]


def test_every_other_law_draws_what_its_premise_derives():
    from hesitant.laws import generators as g

    named = set()
    for law in law_registry():
        try:
            derived = g.derive(law.params, law.premise)
        except ValueError:
            named.add(law.id)
            continue
        if _bindings(law, _runner(law.params, derived)) != _bindings(law, law.gen):
            named.add(law.id)
    assert named == NAMED_GENERATORS


_UNDERIVABLE = [
    Iff(inc(K.POSSIBLE, "A", "B"), inc(K.POSSIBLE, "B", "A")),
    And(inc(K.POSSIBLE, "A", "B"), inc(K.ACCEPTABLE, "B", "C")),
    And(inc(K.POSSIBLE, "A", "B"), inc(K.POSSIBLE, "C", "B")),
    inc(K.MEAN, "A", "B & C"),
    inc(K.STRONG, "A", "B & C"),
    inc(K.POSSIBLE, "A", "A | B"),
    inc(K.POSSIBLE, "A & B", "C"),
    eq(K.POSSIBLE, "A", "B"),
    sot("A", "B"),
    for_all(inc(K.MEAN, "A", "H")),
]


@pytest.mark.parametrize("premise", _UNDERIVABLE, ids=str)
def test_an_underivable_premise_fails_at_registration(premise):
    import re

    from hesitant.laws import generators as g

    params = tuple((name, "set") for name in "ABC")
    message = f"no generator derives from the premise {re.escape(str(premise))}$"
    with pytest.raises(ValueError, match=message):
        g.derive(params, premise)
    with pytest.raises(ValueError, match=message):
        _law("underivable", params, Implies(premise, inc(K.POSSIBLE, "A", "C")))
