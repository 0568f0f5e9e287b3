import pytest
from hypothesis import given

from hesitant import (
    Inclusion,
    Universe,
    best_subsequence,
    classify_strong_or_tail,
    element_relation,
    hfe,
    is_subsequence,
    make_hfs,
    pointwise_leq,
    rank_schemes,
    relation_profile,
    set_equality,
    set_relation,
)
from hesitant.errors import UniverseMismatchError

from conftest import hfes

P, A_, M, S, T, N = Inclusion


def test_kind_letters_round_trip():
    for kind in Inclusion:
        assert Inclusion.from_letter(kind.letter) is kind
    with pytest.raises(ValueError):
        Inclusion.from_letter("z")


def test_pointwise_leq():
    assert pointwise_leq(hfe("0.5", "0.3"), hfe("0.6", "0.3"))
    assert not pointwise_leq(hfe("0.5", "0.3"), hfe("0.6", "0.2"))
    assert pointwise_leq(hfe("0.7", "0.7"), hfe("0.7", "0.7"))
    with pytest.raises(ValueError):
        pointwise_leq(hfe("0.5"), hfe("0.6", "0.3"))


def test_is_subsequence_multiplicity_aware():
    assert is_subsequence(hfe("0.8", "0.8"), hfe("0.9", "0.8", "0.8", "0.1"))
    assert not is_subsequence(hfe("0.8", "0.8"), hfe("0.9", "0.8", "0.1"))
    w = hfe("0.4", "0.2")
    assert is_subsequence(w, w)


# the six scheme memberships scored by the expert team
H1 = hfe("0.9", "0.2")
H2 = hfe("0.6", "0.6", "0.5")
H3 = hfe("0.7", "0.5", "0.5")
H4 = hfe("0.8", "0.6", "0.5")
H5 = hfe("0.9", "0.3", "0.1")
H6 = hfe("0.9", "0.8", "0.7")


def test_scheme_relations():
    assert element_relation(P, H2, H1)
    assert element_relation(M, H1, H2)
    assert element_relation(A_, H2, H3)
    assert element_relation(S, H3, H4)
    assert element_relation(T, H1, H5)
    assert element_relation(N, H3, H6)


def test_tail_requires_strictly_fewer_degrees():
    assert not element_relation(T, hfe("0.7", "0.5", "0.3"), hfe("0.9", "0.8"))


def test_classify_strong_or_tail():
    assert classify_strong_or_tail(H3, H4) is S
    assert classify_strong_or_tail(H1, H5) is T
    assert classify_strong_or_tail(hfe("0.9", "0.9"), hfe("0.1", "0.1")) is None


def test_relation_profile_cases():
    profile = relation_profile(hfe("0.7", "0.5", "0.5"), hfe("0.9", "0.8", "0.7"))
    assert profile.necessary and profile.strong and profile.acceptable
    assert profile.possible and profile.mean and not profile.tail
    assert profile.strong_or_tail is S

    profile = relation_profile(H1, H5)
    assert profile.tail and profile.possible and not profile.strong
    assert profile.strong_or_tail is T


@given(hfes())
def test_profile_reflexive(h):
    profile = relation_profile(h, h)
    assert profile.possible and profile.acceptable and profile.mean and profile.strong
    assert not profile.tail
    assert profile.necessary == (h.lower == h.upper)


@given(hfes(), hfes())
def test_implication_lattice(a, b):
    profile = relation_profile(a, b)
    if profile.necessary:
        assert profile.acceptable and profile.mean and profile.strong_or_tail is not None
    if profile.strong:
        assert profile.acceptable and profile.mean
    if profile.acceptable or profile.tail:
        assert profile.possible


@given(hfes(), hfes())
def test_strong_or_tail_matches_best_subsequence_dominance(a, b):
    q = min(len(a), len(b))
    dominated = pointwise_leq(best_subsequence(a, q), best_subsequence(b, q))
    assert (classify_strong_or_tail(a, b) is not None) == dominated


@given(hfes(), hfes(), hfes())
def test_transitivity(a, b, c):
    for kind in Inclusion:
        if element_relation(kind, a, b) and element_relation(kind, b, c):
            assert element_relation(kind, a, c)


def _pair_doc():
    uni = Universe(["x"])
    A = make_hfs(uni, {"x": ["0.1", "0.3", "0.5"]})
    B = make_hfs(uni, {"x": ["0.2", "0.4", "0.6"]})
    return A, B


def test_set_relation_and_universe_mismatch():
    A, B = _pair_doc()
    assert set_relation(P, A, B)
    assert not set_relation(N, A, B)
    assert set_relation(S, A, A)
    other = make_hfs(Universe(["y"]), {"y": ["0.5"]})
    with pytest.raises(UniverseMismatchError):
        set_relation(P, A, other)


def test_set_equality_matches_multiset_equality_for_strong():
    uni = Universe(["x", "y"])
    A = make_hfs(uni, {"x": ["0.6", "0.5", "0.3"], "y": ["0.5", "0.3", "0.2"]})
    B = make_hfs(uni, {"x": ["0.3", "0.6", "0.5"], "y": ["0.2", "0.5", "0.3"]})
    C = make_hfs(uni, {"x": ["0.3", "0.3", "0.6", "0.5"], "y": ["0.2", "0.5", "0.3"]})
    assert set_equality(S, A, B)
    assert A == B
    assert not set_equality(S, A, C)
    assert A != C
    assert set_equality(P, A, A)


def test_tail_equality_rejected():
    A, B = _pair_doc()
    with pytest.raises(ValueError):
        set_equality(T, A, B)


@pytest.mark.parametrize("kind", ["p", 0, None, "⊂p"])
def test_a_kind_that_is_no_inclusion_is_a_type_error(kind):
    """A letter, a code or None for the kind names `Inclusion` in a
    TypeError, rather than failing on a missing attribute."""
    A, B = _pair_doc()
    calls = (
        lambda: set_relation(kind, A, B),
        lambda: set_equality(kind, A, B),
        lambda: rank_schemes(A, kind),
        lambda: element_relation(kind, hfe("0.1"), hfe("0.2")),
    )
    for call in calls:
        with pytest.raises(TypeError, match="kind must be an Inclusion"):
            call()


@pytest.mark.parametrize("relate", [set_relation, set_equality])
def test_set_relations_refuse_what_is_not_an_hfs(relate):
    """set_relation(kind, A, 3) and set_equality(kind, A, 3) raised
    AttributeError."""
    A, _ = _pair_doc()
    with pytest.raises(TypeError, match="^B must be an HFS, not int$"):
        relate(Inclusion.POSSIBLE, A, 3)
    with pytest.raises(TypeError, match="^A must be an HFS, not HFE$"):
        relate(Inclusion.MEAN, hfe("0.5"), A)
