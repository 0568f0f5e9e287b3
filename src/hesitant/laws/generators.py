"""Constructive generators for guard-satisfying random bindings.

Rejection sampling starves on guards like ⊂n (every degree of B must clear
max A) or chained premises (transitivity), so each guarded law gets a
targeted generator that builds the binding to satisfy the guard directly.
All construction happens per universe position on the integer grid.

The sorting trick used throughout: if values v_1..v_k are drawn with
v_i <= w_i against a descending w (and any extras <= w's last used bound),
then the descending sort of v still satisfies sorted(v)[i] <= w_i — at most
i-1 of the drawn values can exceed w_i. The same argument upside down gives
dominating constructions. Guards are re-checked by the engine regardless, so
a construction bug can only surface as starvation, never as a wrong verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..relations import Inclusion

P = Inclusion.POSSIBLE
A_ = Inclusion.ACCEPTABLE
M = Inclusion.MEAN
S = Inclusion.STRONG
T = Inclusion.TAIL
N = Inclusion.NECESSARY


@dataclass(frozen=True)
class GenContext:
    """Per-trial bounds: grid denominator, universe size, cardinality and
    family-size ranges."""

    den: int
    size: int
    card_lo: int
    card_hi: int
    fam_lo: int
    fam_hi: int


def _rand_hfe(alg, stream, ctx, card_hi=None):
    hi = ctx.card_hi if card_hi is None else card_hi
    if ctx.card_lo > hi:
        return None
    return alg.kern.gen_hfe(stream, ctx.den, ctx.card_lo, hi)


def rand_hfs(alg, stream, ctx):
    return alg.kern.gen_hfs(stream, ctx.den, ctx.size, ctx.card_lo, ctx.card_hi)


def _above(alg, stream, ctx, a, kind, card_hi=None):
    """One hfe b with a ⊂kind b, or None if the bounds make it impossible."""
    den, lo, hi = ctx.den, ctx.card_lo, ctx.card_hi
    if card_hi is not None:
        hi = card_hi
    if kind is P:
        k = stream.randint(lo, hi)
        vals = [stream.randint(a[0], den)] + [stream.below(den + 1) for _ in range(k - 1)]
    elif kind is A_:
        k = stream.randint(lo, hi)
        vals = [stream.randint(a[0], den)] + [stream.randint(a[-1], den) for _ in range(k - 1)]
    elif kind is N:
        k = stream.randint(lo, hi)
        vals = [stream.randint(a[0], den) for _ in range(k)]
    elif kind is S:
        k = stream.randint(lo, len(a))
        vals = [stream.randint(a[i], den) for i in range(k)]
    elif kind is T:
        if len(a) + 1 > hi:
            return None
        k = stream.randint(len(a) + 1, hi)
        vals = [stream.randint(a[i], den) for i in range(len(a))]
        vals += [stream.below(den + 1) for _ in range(k - len(a))]
    else:
        raise ValueError(f"no dominating construction for {kind}")
    return alg.kern.canon(vals)


def _below(alg, stream, ctx, b, kind):
    """One hfe a with a ⊂kind b, or None if the bounds make it impossible."""
    den, lo, hi = ctx.den, ctx.card_lo, ctx.card_hi
    if kind is P:
        k = stream.randint(lo, hi)
        vals = [stream.randint(0, b[0]) for _ in range(k)]
    elif kind is A_:
        k = stream.randint(lo, hi)
        vals = [stream.randint(0, b[-1])] + [stream.randint(0, b[0]) for _ in range(k - 1)]
    elif kind is N:
        k = stream.randint(lo, hi)
        vals = [stream.randint(0, b[-1]) for _ in range(k)]
    elif kind is S:
        if len(b) > hi:
            return None
        k = stream.randint(max(lo, len(b)), hi)
        vals = [stream.randint(0, b[i]) for i in range(len(b))]
        vals += [stream.randint(0, b[-1]) for _ in range(k - len(b))]
    elif kind is T:
        if lo > len(b) - 1:
            return None
        k = stream.randint(lo, min(hi, len(b) - 1))
        vals = [stream.randint(0, b[i]) for i in range(k)]
    else:
        raise ValueError(f"no dominated construction for {kind}")
    return alg.kern.canon(vals)


def _order_by_mean(a, b):
    if sum(a) * len(b) <= sum(b) * len(a):
        return a, b
    return b, a


def _pair_elems(alg, stream, ctx, kind):
    """Per-element pair (a, b) with a ⊂kind b."""
    if kind is M:
        x = _rand_hfe(alg, stream, ctx)
        y = _rand_hfe(alg, stream, ctx)
        return _order_by_mean(x, y)
    if kind is T:
        a = _rand_hfe(alg, stream, ctx, card_hi=ctx.card_hi - 1)
        if a is None:
            return None
    else:
        a = _rand_hfe(alg, stream, ctx)
    b = _above(alg, stream, ctx, a, kind)
    if b is None:
        return None
    return a, b


def pair(kind, extra=0):
    """Generator for guards of the shape A ⊂kind B (+ `extra` free sets)."""

    def gen(alg, stream, ctx):
        pas, pbs = [], []
        for _ in range(ctx.size):
            got = _pair_elems(alg, stream, ctx, kind)
            if got is None:
                return None
            pas.append(got[0])
            pbs.append(got[1])
        binding = {"A": tuple(pas), "B": tuple(pbs)}
        for name in ("C", "D")[:extra]:
            binding[name] = rand_hfs(alg, stream, ctx)
        return binding

    return gen


def chain(kind):
    """Generator for transitivity guards: A ⊂kind B and B ⊂kind C."""

    def gen(alg, stream, ctx):
        pas, pbs, pcs = [], [], []
        for _ in range(ctx.size):
            if kind is M:
                triple = sorted(
                    (_rand_hfe(alg, stream, ctx) for _ in range(3)),
                    key=lambda h: Fraction(sum(h), len(h)),
                )
                a, b, c = triple
            else:
                if kind is T:
                    a = _rand_hfe(alg, stream, ctx, card_hi=ctx.card_hi - 2)
                    if a is None:
                        return None
                    b = _above(alg, stream, ctx, a, kind, card_hi=ctx.card_hi - 1)
                else:
                    a = _rand_hfe(alg, stream, ctx)
                    b = _above(alg, stream, ctx, a, kind)
                if b is None:
                    return None
                c = _above(alg, stream, ctx, b, kind)
                if c is None:
                    return None
            pas.append(a)
            pbs.append(b)
            pcs.append(c)
        return {"A": tuple(pas), "B": tuple(pbs), "C": tuple(pcs)}

    return gen


def rand_sets(*names):
    """Independent random sets for unguarded laws."""

    def gen(alg, stream, ctx):
        return {name: rand_hfs(alg, stream, ctx) for name in names}

    return gen


def equal_pair(alg, stream, ctx):
    """A and B perfectly consistent at every element."""
    A = rand_hfs(alg, stream, ctx)
    return {"A": A, "B": A}


def maybe_equal_pair(alg, stream, ctx):
    """Half the trials an equal pair, half independent — exercises both
    directions of an equivalence claim."""
    A = rand_hfs(alg, stream, ctx)
    B = A if stream.below(2) == 0 else rand_hfs(alg, stream, ctx)
    return {"A": A, "B": B}


def necessary_equal_pair(alg, stream, ctx):
    """A =n B forces every degree of both memberships to one value per
    element; build exactly that."""
    pas, pbs = [], []
    for _ in range(ctx.size):
        c = stream.below(ctx.den + 1)
        pas.append((c,) * stream.randint(ctx.card_lo, ctx.card_hi))
        pbs.append((c,) * stream.randint(ctx.card_lo, ctx.card_hi))
    return {"A": tuple(pas), "B": tuple(pbs)}


def rand_family(alg, stream, ctx):
    f = stream.randint(ctx.fam_lo, ctx.fam_hi)
    return tuple(rand_hfs(alg, stream, ctx) for _ in range(f))


def family_only(alg, stream, ctx):
    return {"F": rand_family(alg, stream, ctx)}


def _hfs_above(alg, stream, ctx, A, kind):
    out = []
    for a in A:
        h = _above(alg, stream, ctx, a, kind)
        if h is None:
            return None
        out.append(h)
    return tuple(out)


def _hfs_below(alg, stream, ctx, B, kind):
    out = []
    for b in B:
        h = _below(alg, stream, ctx, b, kind)
        if h is None:
            return None
        out.append(h)
    return tuple(out)


def set_family_forall(kind):
    """Guard: A ⊂kind H for every member H."""

    def gen(alg, stream, ctx):
        if kind is T:
            if ctx.card_lo > ctx.card_hi - 1:
                return None
            A = tuple(
                alg.kern.gen_hfe(stream, ctx.den, ctx.card_lo, ctx.card_hi - 1)
                for _ in range(ctx.size)
            )
        else:
            A = rand_hfs(alg, stream, ctx)
        members = []
        for _ in range(stream.randint(ctx.fam_lo, ctx.fam_hi)):
            H = _hfs_above(alg, stream, ctx, A, kind)
            if H is None:
                return None
            members.append(H)
        return {"A": A, "F": tuple(members)}

    return gen


def set_family_exists(kind):
    """Guard: A ⊂kind H_alpha for one chosen member."""

    def gen(alg, stream, ctx):
        if kind is T:
            if ctx.card_lo > ctx.card_hi - 1:
                return None
            A = tuple(
                alg.kern.gen_hfe(stream, ctx.den, ctx.card_lo, ctx.card_hi - 1)
                for _ in range(ctx.size)
            )
        else:
            A = rand_hfs(alg, stream, ctx)
        members = list(rand_family(alg, stream, ctx))
        alpha = stream.below(len(members))
        H = _hfs_above(alg, stream, ctx, A, kind)
        if H is None:
            return None
        members[alpha] = H
        return {"A": A, "F": tuple(members)}

    return gen


def set_family_iff(kind):
    """For equivalence claims: mix plain random bindings with bindings built
    to satisfy each side, so both directions get exercised."""
    forall = set_family_forall(kind)

    def gen(alg, stream, ctx):
        r = stream.below(4)
        if r == 2:
            return forall(alg, stream, ctx)
        if r == 3:
            F = rand_family(alg, stream, ctx)
            fold = alg.fold_inter(F)
            A = _hfs_below(alg, stream, ctx, fold, kind)
            if A is None:
                return None
            return {"A": A, "F": F}
        return {"A": rand_hfs(alg, stream, ctx), "F": rand_family(alg, stream, ctx)}

    return gen


def tail_exists_with_small_cards(alg, stream, ctx):
    """Guard of the tail/union family law: A ⊂t H_alpha and |A(x)| < |H(x)|
    for every member and element."""
    if ctx.card_lo > ctx.card_hi - 1:
        return None
    A = tuple(
        alg.kern.gen_hfe(stream, ctx.den, ctx.card_lo, ctx.card_hi - 1) for _ in range(ctx.size)
    )
    members = []
    for _ in range(stream.randint(ctx.fam_lo, ctx.fam_hi)):
        H = tuple(
            alg.kern.gen_hfe(stream, ctx.den, len(a) + 1, ctx.card_hi) for a in A
        )
        members.append(H)
    alpha = stream.below(len(members))
    H = _hfs_above(alg, stream, ctx, A, T)
    if H is None:
        return None
    members[alpha] = H
    return {"A": A, "F": tuple(members)}


def subfamily_pair(alg, stream, ctx):
    """F1 ⊏ F2: pick F2 at random and F1 as a non-empty selection of its
    members."""
    F2 = rand_family(alg, stream, ctx)
    idx = list(range(len(F2)))
    # partial Fisher-Yates using the stream
    for i in range(len(idx) - 1, 0, -1):
        j = stream.below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    k = stream.randint(1, len(F2))
    F1 = tuple(F2[i] for i in idx[:k])
    return {"F1": F1, "F2": F2}


def meet_tail_pair(alg, stream, ctx):
    """Guard A ⊂t (B ∩ C): draw B and C, then build A under their meet."""
    B = rand_hfs(alg, stream, ctx)
    C = rand_hfs(alg, stream, ctx)
    I = alg.inter(B, C)
    A = _hfs_below(alg, stream, ctx, I, T)
    if A is None:
        return None
    return {"A": A, "B": B, "C": C}
