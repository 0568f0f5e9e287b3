"""Draw plans: how each law builds random bindings that satisfy its premise.

Rejection sampling starves on guards like ⊂n (every degree of B must clear
max A) or chained premises (transitivity), so each law builds its binding to
satisfy the premise directly. `derive(params, premise)` reads the
construction off the shape of the premise, once, at import, and returns it
as a *plan*: a tuple of moves, each a tuple of ints that starts with the
move's code. A move writes the value of a param into its slot, the param's
position in `params`. The kernels' `draw_plan` runs a plan for a chunk of
consecutive trials in one call (`runner`):

| premise | moves |
|---|---|
| none | `SET`/`FAMILY` per param: drawn free, in params order |
| A ⊂k B | `LADDER` k: per position a base hfe, then one step up |
| A ⊂k B and B ⊂k C | `LADDER` k with two steps |
| A ⊂k term, term not a variable, k ∈ p, a, t, n | the term's params free, then `BELOW` k: below the term's value per position |
| A = B, A =s B | `SET` A, then `COPY` it to B |
| A =n B | `COINCIDE`: per position one degree c; A(x) and B(x) repeat c |
| A ⊂k H for all H in F | `ABOVE` k `ALL`: A, then every member above A |
| A ⊂k H for some H in F | `ABOVE` k `SOME`: A and a free family, then one chosen member rebuilt above A |
| F1 ⊏ F2 | `SUBFAMILY`: F2 drawn free, F1 a non-empty selection of its members |

Params the premise leaves unbound are drawn free afterwards, in params order.
A ⊂t construction leaves room for its steps: a ladder's base has at most
card_hi - steps degrees and step i at most card_hi - (steps - i), and the set
under a family at most card_hi - 1. A ⊂m ladder draws free hfes and
stable-sorts them by exact mean. A `BELOW` term is a postfix program over
slots (`expressions.program`), which the kernels' `term` runs, as the
registry's guards and claims run every compound term. A premise of any
other shape is a ValueError, so the registry fails at import; the few laws
whose plan no premise determines name one: the ⇔ laws choose among plans
with `CHOICE` (one `below(n)` draw picks the plan that follows), and thm5.6
builds its members with `ABOVE` `LONGER`.

The kernels run a plan only in the draw domain that the docstring of
`_kernel.pure` states, so every universe, hfe and family drawn is non-empty,
as the paper's objects are.

All construction happens per universe position on the integer grid. The
sorting trick used throughout: if values v_1..v_k are drawn with
v_i <= w_i against a descending w (and any extras <= w's last used bound),
then the descending sort of v still satisfies sorted(v)[i] <= w_i — at most
i-1 of the drawn values can exceed w_i. The same argument upside down gives
dominating constructions. Guards are re-checked by the engine regardless, so
a construction bug can only surface as starvation, never as a wrong verdict.
"""

from __future__ import annotations

from ..expressions import Var, program, variables
from ..relations import Inclusion

M, T = Inclusion.MEAN, Inclusion.TAIL
# The relations a `BELOW` move builds: those of the premises `A ⊂k term`.
BELOW_KINDS = (Inclusion.POSSIBLE, Inclusion.ACCEPTABLE, Inclusion.TAIL, Inclusion.NECESSARY)

# Move codes, read by both kernels' `draw_plan`.
SET, FAMILY, LADDER, COPY, COINCIDE, ABOVE, BELOW, SUBFAMILY, CHOICE = range(9)
# The members of an `ABOVE` move: all above the set, one chosen among a free
# family, or one chosen among members longer than the set at every position.
ALL, SOME, LONGER = range(3)


def runner(plan, width):
    """The draw of a law with `width` params: called as (kern, bounds,
    prefix, first, count), it returns `kern.draw_plan`'s list of (universe
    size, binding or None), one per trial from `first` on. A binding is the
    tuple of the params' values in params order."""

    def gen(kern, bounds, prefix, first, count):
        return kern.draw_plan(plan, width, bounds, prefix, first, count)

    return gen


def slots(params) -> dict:
    """Each param's slot: its position in `params`."""
    return {name: i for i, (name, _) in enumerate(params)}


def derive(params, premise) -> tuple:
    """The plan of a law over `params` whose spec has this premise (None for
    none). Raises ValueError, naming the premise, for a premise of no shape
    in the module's table."""
    from .registry import And, Each, Rel, Subfamily

    slot = slots(params)

    def free(names):
        return tuple((SET if kind == "set" else FAMILY, slot[n]) for n, kind in params if n in names)

    match premise:
        case None:
            bound, moves = (), ()
        case Rel("rel", Var(a), Var(b), kind):
            bound, moves = (a, b), ((LADDER, kind.code, slot[a], slot[b]),)
        case And((Rel("rel", Var(a), Var(b), kind), Rel("rel", Var(b2), Var(c), kind2))) if (
            b2 == b and kind2 is kind
        ):
            bound, moves = (a, b, c), ((LADDER, kind.code, slot[a], slot[b], slot[c]),)
        case Rel("rel", Var(a), term, kind) if kind in BELOW_KINDS and a not in variables(term):
            bound = (a, *variables(term))
            moves = (*free(variables(term)), (BELOW, kind.code, slot[a], program(term, slot)))
        case Rel("multiset", Var(a), Var(b)) | Rel("eq", Var(a), Var(b), Inclusion.STRONG):
            bound, moves = (a, b), ((SET, slot[a]), (COPY, slot[b], slot[a]))
        case Rel("eq", Var(a), Var(b), Inclusion.NECESSARY):
            bound, moves = (a, b), ((COINCIDE, slot[a], slot[b]),)
        case Each(quantifier, h, family, Rel("rel", Var(a), Var(h2), kind)) if (
            h2 == h and kind is not M
        ):
            members = ALL if quantifier == "all" else SOME
            bound, moves = (a, family), ((ABOVE, kind.code, slot[a], slot[family], members),)
        case Subfamily(small, big):
            bound, moves = (small, big), ((SUBFAMILY, slot[small], slot[big]),)
        case _:
            raise ValueError(f"no generator derives from the premise {premise}")
    return moves + free({name for name, _ in params} - set(bound))


# --- plans that no premise determines ----------------------------------------


def either_side(params, iff) -> tuple:
    """For an equivalence claim: a quarter of the bindings built to satisfy
    its left side, a quarter its right side, half free, so both directions
    get exercised."""
    free, left, right = (derive(params, side) for side in (None, iff.left, iff.right))
    return ((CHOICE, free, free, left, right),)


#: Over params (A, B): half the trials an equal pair, half independent —
#: exercises both directions of an equivalence claim.
maybe_equal_pair = ((SET, 0), (CHOICE, ((COPY, 1, 0),), ((SET, 1),)))

#: Over params (A, F), for the tail/union family law: A ⊂t H_alpha and
#: |A(x)| < |H(x)| for every member and element.
tail_exists_with_small_cards = ((ABOVE, T.code, 0, 1, LONGER),)
