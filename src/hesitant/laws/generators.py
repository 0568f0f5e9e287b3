"""Constructive generators for guard-satisfying random bindings.

Rejection sampling starves on guards like ⊂n (every degree of B must clear
max A) or chained premises (transitivity), so each law's generator builds
its binding to satisfy the premise directly. `derive(params, premise)` reads
the construction off the shape of the premise, once, at import:

| premise | construction |
|---|---|
| none | every param drawn free, in params order |
| A ⊂k B | per position, a base hfe, then one step up (`_above`) |
| A ⊂k B and B ⊂k C | the same ladder with two steps |
| A ⊂k term, term not a variable | the term's variables free, then `_below` its value per position |
| A = B, A =s B | A drawn free, B = A |
| A =n B | per position one degree c; A(x) and B(x) repeat c |
| A ⊂k H for all H in F | A, then every member `_above` A |
| A ⊂k H for some H in F | A and a free family, then one chosen member rebuilt `_above` A |
| F1 ⊏ F2 | F2 drawn free, F1 a non-empty selection of its members |

Params the premise leaves unbound are drawn free afterwards, in params order.
A ⊂t construction leaves room for its steps: a ladder's base has at most
card_hi - steps degrees and step i at most card_hi - (steps - i). A ⊂m ladder
draws free hfes and stable-sorts them by exact mean. A premise of any other
shape is a ValueError, so the registry fails at import; the few laws whose
generator is not determined by a premise name one (`gen=`).

All construction happens per universe position on the integer grid. The
sorting trick used throughout: if values v_1..v_k are drawn with
v_i <= w_i against a descending w (and any extras <= w's last used bound),
then the descending sort of v still satisfies sorted(v)[i] <= w_i — at most
i-1 of the drawn values can exceed w_i. The same argument upside down gives
dominating constructions. Guards are re-checked by the engine regardless, so
a construction bug can only surface as starvation, never as a wrong verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..expressions import Var, variables
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


def rand_hfs(alg, stream, ctx):
    return alg.kern.gen_hfs(stream, ctx.den, ctx.size, ctx.card_lo, ctx.card_hi)


def rand_family(alg, stream, ctx):
    f = stream.randint(ctx.fam_lo, ctx.fam_hi)
    return tuple(rand_hfs(alg, stream, ctx) for _ in range(f))


def _free(kind):
    """The free draw of a param of this kind ("set" or "family")."""
    return rand_hfs if kind == "set" else rand_family


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


def _per_position(build, alg, stream, ctx, H, kind):
    """`build` (`_above` or `_below`) at every position of H, or None as
    soon as one position is impossible."""
    out = []
    for x in H:
        h = build(alg, stream, ctx, x, kind)
        if h is None:
            return None
        out.append(h)
    return tuple(out)


def _set_base(alg, stream, ctx, kind):
    """A random set with room for one ⊂kind step above it at every
    position, or None if the cardinality cap leaves none."""
    hi = ctx.card_hi - 1 if kind is T else ctx.card_hi
    if ctx.card_lo > hi:
        return None
    return alg.kern.gen_hfs(stream, ctx.den, ctx.size, ctx.card_lo, hi)


# --- the constructions, one per premise shape -------------------------------


def _by_mean(row):
    """row stably sorted by exact mean: a bubble sort, as rows are short."""
    for end in range(len(row) - 1, 0, -1):
        for i in range(end):
            if sum(row[i]) * len(row[i + 1]) > sum(row[i + 1]) * len(row[i]):
                row[i], row[i + 1] = row[i + 1], row[i]
    return row


def _ladder(kind, names):
    """names[0] ⊂kind names[1] ⊂kind ...: per position, a base hfe and then
    one step up per further name."""
    steps = range(len(names) - 1)
    if kind is M:

        def by_mean(alg, stream, ctx):
            rows = []
            for _ in range(ctx.size):
                row = [alg.kern.gen_hfe(stream, ctx.den, ctx.card_lo, ctx.card_hi) for _ in names]
                rows.append(_by_mean(row))
            return dict(zip(names, zip(*rows)))

        return by_mean
    lift = 1 if kind is T else 0  # a ⊂t step adds at least one degree
    room = lift * len(steps)

    def ladder(alg, stream, ctx):
        base_cap = ctx.card_hi - room
        if ctx.card_lo > base_cap:
            return None
        rows = []
        for _ in range(ctx.size):
            h = alg.kern.gen_hfe(stream, ctx.den, ctx.card_lo, base_cap)
            row = [h]
            cap = base_cap
            for _ in steps:
                cap += lift
                h = _above(alg, stream, ctx, h, kind, cap)
                if h is None:
                    return None
                row.append(h)
            rows.append(row)
        return dict(zip(names, zip(*rows)))

    return ladder


def _below_term(kind, name, value, term_params):
    """name ⊂kind term: the term's params drawn free, then `_below` the
    term's value at each position."""

    def below_term(alg, stream, ctx):
        binding = {param: draw(alg, stream, ctx) for param, draw in term_params}
        h = _per_position(_below, alg, stream, ctx, value(alg.kern, alg.one, binding), kind)
        if h is None:
            return None
        binding[name] = h
        return binding

    return below_term


def _equal(a, b):
    def equal(alg, stream, ctx):
        h = rand_hfs(alg, stream, ctx)
        return {a: h, b: h}

    return equal


def _coinciding(a, b):
    """a =n b forces every degree of both memberships to one value per
    element; build exactly that."""

    def coinciding(alg, stream, ctx):
        pas, pbs = [], []
        for _ in range(ctx.size):
            c = (stream.below(ctx.den + 1),)
            pas.append(c * stream.randint(ctx.card_lo, ctx.card_hi))
            pbs.append(c * stream.randint(ctx.card_lo, ctx.card_hi))
        return {a: tuple(pas), b: tuple(pbs)}

    return coinciding


def _free_members(alg, stream, ctx, A):
    return list(rand_family(alg, stream, ctx))


def _family_above(kind, name, family, others=None):
    """name ⊂kind H for every member H of family or, given `others`, for one
    chosen member among those that others(alg, stream, ctx, A) draws."""

    def family_above(alg, stream, ctx):
        A = _set_base(alg, stream, ctx, kind)
        if A is None:
            return None
        if others is None:
            members = [None] * stream.randint(ctx.fam_lo, ctx.fam_hi)
            picks = range(len(members))
        else:
            members = others(alg, stream, ctx, A)
            picks = (stream.below(len(members)),)
        for i in picks:
            H = _per_position(_above, alg, stream, ctx, A, kind)
            if H is None:
                return None
            members[i] = H
        return {name: A, family: tuple(members)}

    return family_above


def _subfamily(small, big):
    """small ⊏ big: big drawn free and small a non-empty selection of its
    members."""

    def subfamily(alg, stream, ctx):
        F2 = rand_family(alg, stream, ctx)
        idx = list(range(len(F2)))
        # partial Fisher-Yates using the stream
        for i in range(len(idx) - 1, 0, -1):
            j = stream.below(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        k = stream.randint(1, len(F2))
        return {small: tuple(F2[i] for i in idx[:k]), big: F2}

    return subfamily


def _nothing(alg, stream, ctx):
    return {}


def derive(params, premise):
    """The generator of a law over `params` whose spec has this premise
    (None for none), built once. Raises ValueError, naming the premise,
    for a premise of no shape in the module's table."""
    # Imported here: the registry derives its laws' generators while it
    # is itself being imported.
    from .registry import And, Each, Fold, Rel, Subfamily, _value

    def names(term):
        return {term.family} if isinstance(term, Fold) else variables(term)

    match premise:
        case None:
            bound, build = (), _nothing
        case Rel("rel", Var(a), Var(b), kind):
            bound, build = (a, b), _ladder(kind, (a, b))
        case And((Rel("rel", Var(a), Var(b), kind), Rel("rel", Var(b2), Var(c), kind2))) if (
            b2 == b and kind2 is kind
        ):
            bound, build = (a, b, c), _ladder(kind, (a, b, c))
        case Rel("rel", Var(a), term, kind) if kind is not M and a not in names(term):
            term_params = tuple((p, _free(k)) for p, k in params if p in names(term))
            bound = (a, *(p for p, _ in term_params))
            build = _below_term(kind, a, _value(term), term_params)
        case Rel("multiset", Var(a), Var(b)) | Rel("eq", Var(a), Var(b), Inclusion.STRONG):
            bound, build = (a, b), _equal(a, b)
        case Rel("eq", Var(a), Var(b), Inclusion.NECESSARY):
            bound, build = (a, b), _coinciding(a, b)
        case Each(quantifier, h, family, Rel("rel", Var(a), Var(h2), kind)) if (
            h2 == h and kind is not M
        ):
            others = None if quantifier == "all" else _free_members
            bound, build = (a, family), _family_above(kind, a, family, others)
        case Subfamily(small, big):
            bound, build = (small, big), _subfamily(small, big)
        case _:
            raise ValueError(f"no generator derives from the premise {premise}")
    free = tuple((name, _free(kind)) for name, kind in params if name not in bound)
    if not free:
        return build

    def gen(alg, stream, ctx):
        binding = build(alg, stream, ctx)
        if binding is not None:
            for name, draw in free:
                binding[name] = draw(alg, stream, ctx)
        return binding

    return gen


# --- generators that no premise determines ----------------------------------


def either_side(params, iff):
    """For an equivalence claim: a quarter of the bindings built to satisfy
    its left side, a quarter its right side, half free, so both directions
    get exercised."""
    free, left, right = (derive(params, side) for side in (None, iff.left, iff.right))

    def gen(alg, stream, ctx):
        r = stream.below(4)
        return (left if r == 2 else right if r == 3 else free)(alg, stream, ctx)

    return gen


def maybe_equal_pair(alg, stream, ctx):
    """Half the trials an equal pair, half independent — exercises both
    directions of an equivalence claim."""
    A = rand_hfs(alg, stream, ctx)
    B = A if stream.below(2) == 0 else rand_hfs(alg, stream, ctx)
    return {"A": A, "B": B}


def _longer_members(alg, stream, ctx, A):
    """Members with more degrees than A at every position."""
    return [
        tuple(alg.kern.gen_hfe(stream, ctx.den, len(a) + 1, ctx.card_hi) for a in A)
        for _ in range(stream.randint(ctx.fam_lo, ctx.fam_hi))
    ]


#: Guard of the tail/union family law: A ⊂t H_alpha and |A(x)| < |H(x)| for
#: every member and element.
tail_exists_with_small_cards = _family_above(T, "A", "F", _longer_members)
