"""Acceptance suite: one test per criterion, each printing its pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; `pytest -v` alone already shows one pass/fail row per criterion.
Everything here is exact arithmetic: zero tolerance on every comparison.
"""

import itertools
import random
import time
from fractions import Fraction

from hesitant import (
    GeneratorConfig,
    Inclusion,
    Universe,
    best_subsequence,
    classify_strong_or_tail,
    element_relation,
    fixture_documents,
    hfe,
    hunt_counterexample,
    load_document,
    pointwise_leq,
    random_hfs,
    run_suite,
    save_document,
    set_equality,
)
from hesitant.laws import proved_laws, refuted_laws, replay_fixtures
from hesitant.sets import Family, SetOp, family_fold

from conftest import all_small_hfes

P, A_, M, S, T, N = Inclusion

DOCS = fixture_documents()


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


# --------------------------------------------------------------------------
# Criterion 1: every concrete computation of the worked examples, exactly
# --------------------------------------------------------------------------


def test_criterion_1_fixture_exactness():
    started = time.perf_counter()
    checks: list[bool] = []

    def ok(condition: bool) -> None:
        checks.append(condition)
        assert condition, f"fixture assertion {len(checks)} failed"

    # equality convention on the three expression types
    doc = DOCS["expression-types"]
    A, B, C = doc.hfs("A"), doc.hfs("B"), doc.hfs("C")
    ok(B == A)
    ok(C != A)
    ok(set_equality(S, A, B))
    ok(not set_equality(S, A, C))

    # expert scores: means and the six scheme relations
    H = DOCS["expert-scores"].hfs("H")
    ok(H["x1"].mean == Fraction(11, 20))
    ok(H["x2"].mean == Fraction(17, 30))
    ok(element_relation(P, H["x2"], H["x1"]))
    ok(element_relation(M, H["x1"], H["x2"]))
    ok(element_relation(A_, H["x2"], H["x3"]))
    ok(element_relation(S, H["x3"], H["x4"]))
    ok(element_relation(T, H["x1"], H["x5"]))
    ok(element_relation(N, H["x3"], H["x6"]))
    ok(H["x1"].bounds == (Fraction(1, 5), Fraction(9, 10)))
    ok(H["x4"].bounds == (Fraction(1, 2), Fraction(4, 5)))

    # best-q subsequences
    w = hfe("0.9", "0.8", "0.7", "0.65", "0.6", "0.5")
    ok(best_subsequence(w, 2) == hfe("0.9", "0.8"))
    ok(best_subsequence(w, 3) == hfe("0.9", "0.8", "0.7"))

    # mean failures: exact composite multisets and means
    doc = DOCS["mean-failures"]
    A, B = doc.hfs("A"), doc.hfs("B")
    ok((A & B)["x"] == hfe("0.8", "0.7", "0.1"))
    ok((A | B)["y"] == hfe("0.9", "0.8", "0.1", "0.1"))
    ok((A & B)["x"].mean == Fraction(8, 15))
    ok(A["x"].mean == Fraction(9, 20))
    ok((A | B)["y"].mean == Fraction(19, 40))
    ok(B["y"].mean == Fraction(1, 2))
    ok(not element_relation(M, (A & B)["x"], A["x"]))
    ok(not element_relation(M, B["y"], (A | B)["y"]))
    ok(element_relation(M, (A & B)["y"], A["y"]))
    ok(element_relation(M, (A & B)["y"], B["y"]))
    ok(element_relation(M, A["x"], (A | B)["x"]))
    ok(element_relation(M, B["x"], (A | B)["x"]))

    # equality failures: every composite multiset, canonical form
    doc = DOCS["equality-failures"]
    A, B, C = doc.hfs("A"), doc.hfs("B"), doc.hfs("C")
    ok((A & B)["x"] == hfe("0.3", "0.3", "0.2", "0.1"))
    ok((A | B)["x"] == hfe("0.5", "0.4", "0.3", "0.3"))
    ok(((A & B) | A)["x"] == hfe("0.3", "0.3", "0.3", "0.2", "0.2", "0.1", "0.1"))
    ok(((A | B) & A)["x"] == hfe("0.3", "0.3", "0.3", "0.2", "0.1"))
    ok(((A | B) & C)["x"] == hfe("0.5", "0.5", "0.45", "0.4", "0.3", "0.3", "0.3"))
    ok(((A & C) | (B & C))["x"] == hfe("0.5", "0.5", "0.45", "0.4", "0.3", "0.3", "0.3", "0.3"))
    ok(((A & B) | C)["x"] == hfe("0.5", "0.45", "0.3", "0.3", "0.3"))
    ok(
        ((A | C) & (B | C))["x"]
        == hfe("0.5", "0.5", "0.5", "0.45", "0.45", "0.4", "0.3", "0.3", "0.3", "0.3")
    )
    ok(((A & B) | A)["x"].mean != A["x"].mean)
    ok(((A | B) & A)["x"].mean != A["x"].mean)
    ok(((A | B) & C)["x"].mean != ((A & C) | (B & C))["x"].mean)
    ok(((A & B) | C)["x"].mean != ((A | C) & (B | C))["x"].mean)
    ok(Fraction(2, 5) not in ((A & B) | C)["x"])
    ok(Fraction(2, 5) in ((A | C) & (B | C))["x"])
    # mean equality failing rules out the stronger equalities
    ok(((A | B) & A) != A)
    ok(not set_equality(S, (A | B) & A, A))
    ok(not set_equality(N, (A | B) & A, A))

    # complement failures: exact complements
    doc = DOCS["complement-failures"]
    A, B = doc.hfs("A"), doc.hfs("B")
    ok((~A)["x"] == hfe("0.6", "0.6"))
    ok((~B)["x"] == hfe("0.9", "0.9", "0.59"))
    ok((~A)["y"] == hfe("0.8", "0.75"))
    ok((~B)["y"] == hfe("0.9", "0.8", "0.7"))
    ok(element_relation(P, A["x"], B["x"]))
    ok(not element_relation(P, (~B)["x"], (~A)["x"]))
    ok(element_relation(T, A["y"], B["y"]))
    ok(not element_relation(P, (~B)["y"], (~A)["y"]))

    # truncation remark: the meet and both tail verdicts
    doc = DOCS["truncation-remark"]
    A, B, C = doc.hfs("A"), doc.hfs("B"), doc.hfs("C")
    ok((B & C)["x"] == hfe("0.9", "0.9", "0.8", "0.8", "0.6"))
    ok(element_relation(T, A["x"], (B & C)["x"]))
    ok(not element_relation(T, A["x"], B["x"]))

    # strong-or-tail failure: the nine-degree meet
    doc = DOCS["sot-failures"]
    A, B = doc.hfs("A"), doc.hfs("B")
    meet = (A & B)["x"]
    ok(len(meet) == 9)
    ok(classify_strong_or_tail(meet, A["x"]) is None)
    ok(classify_strong_or_tail(meet, B["x"]) is None)
    ok((A | B)["y"] == hfe("0.9", "0.9", "0.8"))
    ok(classify_strong_or_tail(A["y"], (A | B)["y"]) is T)
    ok(classify_strong_or_tail(B["y"], (A | B)["y"]) is S)

    elapsed = time.perf_counter() - started
    assert len(checks) >= 30
    assert elapsed < 1.0, f"fixture suite took {elapsed:.3f}s"
    _report("criterion 1", f"{len(checks)} exact fixture assertions in {elapsed:.3f}s")


# --------------------------------------------------------------------------
# Criterion 2: every proved law passes 10,000 guard-satisfying trials
# --------------------------------------------------------------------------


def test_criterion_2_proved_law_suite():
    config = GeneratorConfig(
        seed=20250808,
        universe_size=(1, 4),
        cardinality=(1, 6),
        degree_grid=100,
        trials=10_000,
    )
    ids = [law.id for law in proved_laws()]
    assert len(ids) >= 95
    started = time.perf_counter()
    report = run_suite(config, law_ids=ids)
    elapsed = time.perf_counter() - started
    violations = {r.law_id: r.violations for r in report.results if r.violations}
    assert not violations, f"proved-law violations: {violations}"
    starved = {r.law_id: r.starved for r in report.results if r.starved}
    assert not starved, f"starved guards: {starved}"
    assert all(r.trials == config.trials for r in report.results)
    assert elapsed < 120.0, f"proved-law suite took {elapsed:.1f}s (target < 120s)"
    _report(
        "criterion 2",
        f"{len(ids)} proved laws x {config.trials} guard-satisfying trials, "
        f"0 violations, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# Criterion 3: every refuted law's fixture falsifies; hunts find witnesses
# --------------------------------------------------------------------------


def test_criterion_3_refuted_law_suite():
    laws = refuted_laws()
    assert len(laws) >= 15
    fixture_count = 0
    for law in laws:
        results = replay_fixtures(law)
        assert results, f"{law.id} has no fixture"
        for result in results:
            fixture_count += 1
            assert result.guard and not result.claim, (law.id, result)
    hunt_config = GeneratorConfig(seed=20250808, trials=100_000)
    for law_id in ("exam-sec2.3-m-intersection", "exam-sec2.3-m-union"):
        witness = hunt_counterexample(law_id, hunt_config)
        assert witness is not None, f"no witness found for {law_id}"
    _report(
        "criterion 3",
        f"{len(laws)} refuted laws, {fixture_count} fixtures all falsify; "
        f"independent witnesses found for both mean laws",
    )


# --------------------------------------------------------------------------
# Criterion 4: exhaustive small-instance oracles
# --------------------------------------------------------------------------


def test_criterion_4_exhaustive_small_instances():
    started = time.perf_counter()
    hfes = all_small_hfes(denominator=2, max_card=3)
    assert len(hfes) == 19  # all multisets over {0, 1/2, 1} with 1-3 degrees
    pairs = 0
    for a, b in itertools.product(hfes, repeat=2):
        pairs += 1
        # (a) mutual strong inclusion is exactly multiset equality
        strong_eq = element_relation(S, a, b) and element_relation(S, b, a)
        assert strong_eq == (a == b)
        # (b) strong-or-tail is exactly best-q dominance at q = min cardinality
        q = min(len(a), len(b))
        dominated = pointwise_leq(best_subsequence(a, q), best_subsequence(b, q))
        assert (classify_strong_or_tail(a, b) is not None) == dominated
        # (c) the full implication lattice
        rel = {k: element_relation(k, a, b) for k in Inclusion}
        if rel[N]:
            assert rel[P] and rel[A_] and rel[M]
            assert rel[S] or rel[T]
        if rel[S]:
            assert rel[P] and rel[A_] and rel[M]
        if rel[T]:
            assert rel[P]
        if rel[A_]:
            assert rel[P]
        assert not (rel[S] and rel[T])
    elapsed = time.perf_counter() - started
    assert pairs == 361
    assert elapsed < 1.0, f"exhaustive oracle took {elapsed:.3f}s"
    _report("criterion 4", f"{len(hfes)} elements, {pairs} ordered pairs, {elapsed:.3f}s")


# --------------------------------------------------------------------------
# Criterion 5: algebraic exactness at volume
# --------------------------------------------------------------------------


def test_criterion_5_algebraic_exactness():
    config = GeneratorConfig(seed=424242)
    pair_checks = 0
    for i in range(10_000):
        A = random_hfs(config, i)
        B = random_hfs_on(A.universe, config, i)
        assert ~(A & B) == (~A | ~B)
        assert ~(A | B) == (~A & ~B)
        assert ~~A == A
        assert (A & B) == (B & A)
        assert (A | B) == (B | A)
        pair_checks += 1
    triple_checks = 0
    for i in range(10_000):
        A = random_hfs(config, 50_000 + i)
        B = random_hfs_on(A.universe, config, 60_000 + i)
        C = random_hfs_on(A.universe, config, 70_000 + i)
        assert ((A & B) & C) == (A & (B & C))
        assert ((A | B) | C) == (A | (B | C))
        triple_checks += 1
    assert pair_checks == 10_000 and triple_checks == 10_000

    rng = random.Random(99)
    fold_checks = 0
    for i in range(1_000):
        base = random_hfs(config, 10_000 + i)
        uni = base.universe
        members = [("H0", base)]
        members += [
            (f"H{j}", random_hfs_on(uni, config, 20_000 + 7 * i + j))
            for j in range(1, rng.randint(1, 5))
        ]
        fam = Family(members)
        shuffled = list(members)
        rng.shuffle(shuffled)
        fam2 = Family(shuffled)
        assert family_fold(SetOp.UNION, fam) == family_fold(SetOp.UNION, fam2)
        assert family_fold(SetOp.INTERSECTION, fam) == family_fold(SetOp.INTERSECTION, fam2)
        fold_checks += 1
    assert fold_checks == 1_000
    _report(
        "criterion 5",
        f"{pair_checks} exact pair identities, {triple_checks} associativity triples, "
        f"{fold_checks} shuffled family folds",
    )


def random_hfs_on(universe: Universe, config: GeneratorConfig, index: int):
    """Random HFS pinned to a given universe (same degree distribution): the
    one-move plan of `random_hfs` at that universe's size."""
    from hesitant.laws.engine import _mix
    from hesitant.laws.generators import SET
    from hesitant._kernel import active
    from hesitant.sets import HFS

    den, n = config.degree_grid, len(universe)
    bounds = (den, n, n, *config.cardinality, *config.family_size)
    ((_, (plain,)),) = active.draw_plan(((SET, 0),), 1, bounds, _mix(config.seed, "random_hfs_on"), index, 1)
    return HFS(
        universe,
        {e: [Fraction(num, den) for num in plain[i]] for i, e in enumerate(universe)},
    )


# --------------------------------------------------------------------------
# Criterion 6: determinism and byte-stable round-trips
# --------------------------------------------------------------------------


def test_criterion_6_determinism_and_round_trip():
    config = GeneratorConfig(seed=20250808, trials=300)
    first = run_suite(config).canonical_json()
    second = run_suite(config).canonical_json()
    assert first == second
    parallel = run_suite(config, workers=2).canonical_json()
    assert parallel == first
    for name, doc in DOCS.items():
        blob = save_document(doc)
        assert save_document(load_document(blob)) == blob, name
    _report(
        "criterion 6",
        f"suite bytes identical across runs and workers; "
        f"{len(DOCS)} documents round-trip byte-stably",
    )
