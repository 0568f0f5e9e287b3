import hashlib
import random
import re

import pytest

from hesitant import Inclusion, fixture_documents, rank_schemes, ranking_dot
from hesitant.ranking import RANKABLE, format_ranking


@pytest.fixture(scope="module")
def scores():
    return fixture_documents()["expert-scores"].hfs("H")


def test_mean_ranking_orders_schemes(scores):
    ranking = rank_schemes(scores, Inclusion.MEAN)
    assert ranking.strictly_above("x1", "x2")  # 11/20 < 17/30
    layer_of = {s: i for i, layer in enumerate(ranking.layers) for s in layer}
    assert layer_of["x2"] < layer_of["x1"]
    # mean ranking is total: no unresolved pairs
    assert ranking.unresolved == ()


def test_necessary_ranking(scores):
    ranking = rank_schemes(scores, Inclusion.NECESSARY)
    assert ranking.strictly_above("x3", "x6")
    layer_of = {s: i for i, layer in enumerate(ranking.layers) for s in layer}
    assert layer_of["x6"] < layer_of["x3"]
    assert ranking.unresolved  # most schemes are n-incomparable


def test_singleton_ranking_single_layer(scores):
    from hesitant import Universe, make_hfs

    single = make_hfs(Universe(["only"]), {"only": ["0.5", "0.7"]})
    ranking = rank_schemes(single, Inclusion.STRONG)
    assert ranking.layers == (("only",),)


def test_tail_not_rankable(scores):
    with pytest.raises(ValueError):
        rank_schemes(scores, Inclusion.TAIL)


@pytest.mark.parametrize("kind", [Inclusion.POSSIBLE, Inclusion.MEAN, Inclusion.STRONG])
def test_layers_are_topological(scores, kind):
    ranking = rank_schemes(scores, kind)
    layer_of = {s: i for i, layer in enumerate(ranking.layers) for s in layer}
    assert sorted(layer_of) == sorted(ranking.schemes)
    for low in ranking.schemes:
        for high in ranking.schemes:
            if ranking.strictly_above(low, high):
                assert layer_of[high] < layer_of[low]


def test_matrix_matches_library_calls(scores):
    from hesitant import element_relation

    for kind in RANKABLE:
        ranking = rank_schemes(scores, kind)
        for a in ranking.schemes:
            for b in ranking.schemes:
                assert ranking.matrix[(a, b)] == element_relation(kind, scores[a], scores[b])


def test_matrix_is_a_read_only_mapping(scores):
    from collections.abc import Mapping

    ranking = rank_schemes(scores, Inclusion.ACCEPTABLE)
    matrix, schemes = ranking.matrix, ranking.schemes
    assert isinstance(matrix, Mapping)
    assert len(matrix) == len(schemes) ** 2
    # row-major, as the dict it replaces was filled
    assert list(matrix) == [(a, b) for a in schemes for b in schemes]
    assert matrix == dict(matrix) == _oracle_rank(scores, Inclusion.ACCEPTABLE).matrix
    for key in [("nope", schemes[0]), (schemes[0], "nope"), schemes[0], (schemes[0],), None]:
        with pytest.raises(KeyError):
            matrix[key]
        assert key not in matrix
    with pytest.raises(TypeError):
        matrix[(schemes[0], schemes[0])] = False
    with pytest.raises(TypeError):
        del matrix[(schemes[0], schemes[0])]


def test_unresolved_is_a_sequence_equal_to_the_tuple(scores):
    ranking = rank_schemes(scores, Inclusion.NECESSARY)
    want = _oracle_rank(scores, Inclusion.NECESSARY).unresolved
    got = ranking.unresolved
    assert len(got) == len(want) > 1
    assert got == want and want == got and not got != want
    assert hash(got) == hash(want)
    assert [got[k] for k in range(len(got))] == list(want) == list(got)
    assert got[-1] == want[-1] and got[1:3] == want[1:3]
    with pytest.raises(IndexError):
        got[len(want)]
    assert rank_schemes(scores, Inclusion.MEAN).unresolved == ()


def test_dot_output_contains_reduced_edges(scores):
    ranking = rank_schemes(scores, Inclusion.NECESSARY)
    dot = ranking_dot(ranking)
    assert dot.startswith("digraph")
    assert '"x3" -> "x6";' in dot
    text = format_ranking(ranking)
    assert "layers, best first:" in text


# --- the quadratic-peeling algorithm as an oracle ------------------------------


def _oracle_rank(scores, kind):
    """Pairwise element_relation, layers peeled in O(layers·n²)."""
    from hesitant import element_relation
    from hesitant.ranking import Ranking

    schemes = scores.universe.elements
    hfes = {e: scores[e] for e in schemes}
    matrix = {
        (a, b): element_relation(kind, hfes[a], hfes[b]) for a in schemes for b in schemes
    }

    def strictly_above(low, high):
        return matrix[(low, high)] and not matrix[(high, low)]

    remaining = list(schemes)
    layers = []
    while remaining:
        top = [s for s in remaining if not any(strictly_above(s, t) for t in remaining)]
        assert top, "strict part of a transitive relation cannot cycle"
        layers.append(tuple(top))
        remaining = [s for s in remaining if s not in top]

    unresolved = tuple(
        (a, b)
        for i, a in enumerate(schemes)
        for b in schemes[i + 1 :]
        if not matrix[(a, b)] and not matrix[(b, a)]
    )
    return Ranking(kind, schemes, matrix, tuple(layers), unresolved)


def _oracle_dot(ranking):
    """Strict part reduced in O(n³); ids written raw (the oracle sets need
    no escaping)."""
    schemes = ranking.schemes
    strict = {
        (a, b) for a in schemes for b in schemes if a != b and ranking.strictly_above(a, b)
    }
    reduced = {
        (a, b)
        for (a, b) in strict
        if not any((a, c) in strict and (c, b) in strict for c in schemes)
    }
    lines = [
        "digraph ranking {",
        f'  label="strict ⊂{ranking.kind.letter} (edge points to the better scheme)";',
        "  rankdir=BT;",
    ]
    lines += [f'  "{s}";' for s in schemes]
    lines += [f'  "{a}" -> "{b}";' for a, b in sorted(reduced)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _oracle_report(ranking):
    """The ranking report written cell by cell from the matrix, in one string."""
    schemes = ranking.schemes
    width = max(len(s) for s in schemes)
    lines = [f"pairwise ⊂{ranking.kind.letter} (row ⊂ column):"]
    lines.append(" " * (width + 2) + "  ".join(s.rjust(width) for s in schemes))
    for a in schemes:
        cells = [("y" if ranking.matrix[(a, b)] else ".").rjust(width + 2) for b in schemes]
        lines.append(a.rjust(width) + "".join(cells))
    lines += ["", "layers, best first:"]
    lines += [f"  {i}. {', '.join(layer)}" for i, layer in enumerate(ranking.layers, start=1)]
    if ranking.unresolved:
        pairs = ", ".join(f"{a}/{b}" for a, b in ranking.unresolved)
        lines.append(f"unresolved pairs (incomparable): {pairs}")
    else:
        lines.append("no unresolved pairs")
    return "\n".join(lines) + "\n"


_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)


def _random_scores(seed):
    """1–12 schemes, cardinalities 1–4, degrees from a small pool (dense
    ties) mixing non-decimal thirds and sevenths, 9-digit decimals and, in
    every third set, prime denominators whose lcm overflows 64 bits."""
    from fractions import Fraction

    from hesitant import make_hfs, Universe

    rng = random.Random(seed)
    pool = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(1, 2)]
    pool += [Fraction(rng.randrange(10**9 + 1), 10**9) for _ in range(2)]
    if seed % 3 == 0:
        pool += [Fraction(rng.randrange(1, p), p) for p in _PRIMES]
    pool = rng.sample(pool, rng.randint(2, len(pool)))
    n = rng.randint(1, 12)
    # ids in shuffled order, so the raw-name edge sort differs from index order
    names = [f"s{i}" for i in rng.sample(range(100), n)]
    return make_hfs(
        Universe(names),
        {s: [rng.choice(pool) for _ in range(rng.randint(1, 4))] for s in names},
    )


@pytest.mark.parametrize("kind", RANKABLE)
def test_ranking_matches_quadratic_oracle(kind):
    for seed in range(300):
        scores = _random_scores(seed)
        got, want = rank_schemes(scores, kind), _oracle_rank(scores, kind)
        assert got.matrix == want.matrix, seed
        assert got.layers == want.layers, seed
        assert got.unresolved == want.unresolved, seed
        assert format_ranking(got) == format_ranking(want), seed
        assert ranking_dot(got) == _oracle_dot(want), seed


def _boundary_scores(n):
    """n schemes under shuffled names, with degrees drawn from seven values
    (dense ties) mixing thirds, sevenths and decimals, and four memberships
    of mean 1/3 at cardinalities 1 to 3."""
    from fractions import Fraction

    from hesitant import make_hfs, Universe

    rng = random.Random(f"boundary/{n}")
    third = Fraction(1, 3)
    pool = [Fraction(0), third, Fraction(2, 7), Fraction(1, 2), 2 * third, Fraction(9, 10), 1]
    names = [f"s{i}" for i in rng.sample(range(10 * n), n)]
    members = {s: [rng.choice(pool) for _ in range(rng.randint(1, 4))] for s in names}
    means = [[third], [Fraction(2, 6)] * 2, [third / 2, third * 3 / 2], [0, third, 2 * third]]
    members.update(zip(rng.sample(names, len(means)), means))
    return make_hfs(Universe(names), members)


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129, 200])
def test_ranking_matches_oracle_at_word_boundaries(n):
    scores = _boundary_scores(n)
    for kind in RANKABLE:
        got, want = rank_schemes(scores, kind), _oracle_rank(scores, kind)
        assert got.matrix == want.matrix, kind
        assert got.layers == want.layers, kind
        assert got.unresolved == want.unresolved, kind
        # the pairs line comes in one piece per scheme with unresolved pairs
        assert format_ranking(got) == format_ranking(want) == _oracle_report(want), kind
        assert ranking_dot(got) == _oracle_dot(want) == ranking_dot(want), kind


@pytest.mark.parametrize("kind", RANKABLE)
def test_dot_ignores_the_layers_field_of_a_hand_built_ranking(kind):
    from hesitant.ranking import Ranking

    got = rank_schemes(_boundary_scores(65), kind)
    wrong = (tuple(reversed(got.schemes)),)
    plain = Ranking(kind, got.schemes, dict(got.matrix), wrong, tuple(got.unresolved))
    assert ranking_dot(plain) == ranking_dot(got) == _oracle_dot(got)
    # the view's own layers count, not the field beside it
    view = Ranking(kind, got.schemes, got.matrix, wrong, got.unresolved)
    assert ranking_dot(view) == ranking_dot(got)


def _chain_scores(memberships):
    """One scheme per membership, under shuffled names."""
    from hesitant import make_hfs, Universe

    n = len(memberships)
    names = [f"s{i}" for i in random.Random(f"chain/{n}").sample(range(10 * n), n)]
    return make_hfs(Universe(names), dict(zip(names, memberships)))


def test_dot_matches_oracle_on_a_long_mean_chain():
    from fractions import Fraction

    # 300 distinct means, so 300 layers and 299 cover edges
    scores = _chain_scores([[Fraction(i, 300), Fraction(i, 600)] for i in range(300)])
    ranking = rank_schemes(scores, Inclusion.MEAN)
    assert len(ranking.layers) == 300
    dot = ranking_dot(ranking)
    assert dot == _oracle_dot(ranking)
    assert dot.count(" -> ") == 299


def test_dot_matches_oracle_when_every_layer_covers_the_next():
    # three tied maxima, 100 schemes each: every scheme of a layer covers
    # every scheme of the next one
    scores = _chain_scores([[("0.1", "0.5", "0.9")[i % 3]] for i in range(300)])
    ranking = rank_schemes(scores, Inclusion.POSSIBLE)
    assert [len(layer) for layer in ranking.layers] == [100, 100, 100]
    dot = ranking_dot(ranking)
    assert dot == _oracle_dot(ranking)
    assert dot.count(" -> ") == 2 * 100 * 100


def test_pairs_line_keeps_the_order_of_a_hand_built_sequence(scores):
    from hesitant.ranking import Ranking

    got = rank_schemes(scores, Inclusion.NECESSARY)
    # the same pairs, alternating between the first elements x1 and x2
    firsts = [[p for p in got.unresolved if p[0] == a] for a in ("x1", "x2")]
    alternating = tuple(p for two in zip(*firsts) for p in two)
    assert [a for a, _ in alternating[:4]] == ["x1", "x2", "x1", "x2"]
    hand = Ranking(got.kind, got.schemes, got.matrix, got.layers, alternating)
    text = format_ranking(hand)
    assert text == _oracle_report(hand)
    assert text.endswith(", ".join(f"{a}/{b}" for a, b in alternating) + "\n")


def test_no_report_piece_holds_more_pairs_than_a_scheme_has():
    from hesitant.ranking import ranking_report

    n = 200
    ranking = rank_schemes(_boundary_scores(n), Inclusion.NECESSARY)
    # the names hold no "/", so each "/" in a piece is one pair
    counts = [piece.count("/") for piece in ranking_report(ranking)]
    assert sum(counts) == len(ranking.unresolved) > 10 * n
    assert max(counts) <= n - 1


@pytest.mark.parametrize("kind", [Inclusion.POSSIBLE, Inclusion.MEAN])
def test_rank_memory_stays_far_below_a_pairwise_table(kind):
    import tracemalloc

    # an n² dict keyed by name pairs takes about 500 MB at 2000 schemes
    scores = _boundary_scores(2000)
    tracemalloc.start()
    try:
        ranking = rank_schemes(scores, kind)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ranking.matrix) == 2000**2
    assert peak < 40 * 2**20


@pytest.mark.parametrize("width", [1, 5, 12])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 24, 25])
def test_report_rows_at_byte_boundaries(n, width):
    from hesitant import make_hfs, Universe
    from hesitant.ranking import Ranking

    # distinct first letters; the first name sets the width, the others are
    # shorter, so the cells and names are right-aligned
    names = [chr(97 + i) * (width if i == 0 else 1 + i % width) for i in range(n)]
    rng = random.Random(f"bytes/{n}/{width}")
    pool = ["0", "0.25", "0.5", "0.75", "1"]
    members = {s: [rng.choice(pool) for _ in range(rng.randint(1, 3))] for s in names}
    scores = make_hfs(Universe(names), members)
    for kind in RANKABLE:
        got = rank_schemes(scores, kind)
        # a plain dict matrix takes the generic _bitsets path
        plain = Ranking(kind, got.schemes, dict(got.matrix), got.layers, tuple(got.unresolved))
        assert format_ranking(got) == format_ranking(plain) == _oracle_report(plain), kind


def test_report_memory_stays_bounded_for_long_names():
    import gc
    import tracemalloc

    from hesitant import make_hfs, Universe

    def two(name):
        scores = make_hfs(Universe([name, "b"]), {name: ["0.2"], "b": ["0.7"]})
        return rank_schemes(scores, Inclusion.POSSIBLE)

    # a 256-entry byte table of 20,002-character cells would take 41 MiB
    long, short = two("L" * 20_000), two("c" * 7)
    gc.collect()
    tracemalloc.start()
    try:
        text = format_ranking(long)
        _, peak = tracemalloc.get_traced_memory()
        del text
        format_ranking(short)  # another width
        gc.collect()
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # no rendering table outlives its call, for either width
    assert left < 16 * 2**10


def test_oracle_sets_reach_denominators_beyond_64_bits():
    from math import lcm

    dens = [
        lcm(*{g.denominator for h in _random_scores(seed).hfes for g in h})
        for seed in range(0, 300, 3)
    ]
    assert max(dens) >= 2**64


def test_fixture_report_bytes_pinned(scores):
    text = "".join(
        format_ranking(r) + ranking_dot(r) for r in (rank_schemes(scores, k) for k in RANKABLE)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "71b769c1bbecdc1be181cec93f23cce71f9707b5e0d945b176d7393345e8c1b6"
    )


def test_dot_escapes_quotes_and_backslashes():
    from hesitant import make_hfs, Universe

    ids = ['a"b', "c\\", "d"]
    scores = make_hfs(Universe(ids), {'a"b': ["0.2"], "c\\": ["0.5"], "d": ["0.9"]})
    dot = ranking_dot(rank_schemes(scores, Inclusion.MEAN))
    assert '  "a\\"b";' in dot
    assert '  "c\\\\" -> "d";' in dot
    # every quoted id in the text reads back to a scheme name
    quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', dot.split("\n", 2)[2])
    names = [re.sub(r"\\(.)", r"\1", q) for q in quoted]
    assert names == ids + ['a"b', "c\\", "c\\", "d"]
