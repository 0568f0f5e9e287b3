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

    ranking = rank_schemes(scores, Inclusion.POSSIBLE)
    for a in ranking.schemes:
        for b in ranking.schemes:
            assert ranking.matrix[(a, b)] == element_relation(
                Inclusion.POSSIBLE, scores[a], scores[b]
            )


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
