"""The law registry: every proved statement and every refuted one.

A law binds named variables (sets, or a family of sets) and states one
formula, its *spec*: a claim, or a premise ⇒ claim. The premise is the law's
guard. A *violation* is a binding where the guard holds and the claim fails.
Proved laws must show zero violations under randomized trials; refuted laws
carry at least one fixture binding that exhibits a violation, frozen from
the worked counterexamples.

Specs are data, written with the small formula type below. They are the one
documented source for what each law means: `Law.statement` is rendered from
the spec, and `Law.guard` and `Law.claim` are the closures compiled from it
once, at import. Each is called as `(kern, one, binding)`: the kernel module
and the complement unit of an `Algebra`, which callers read once per law,
and the binding, the tuple of the params' plain grid values in `params`
order. Relation codes and slots are bound at compile time, and every
compound set term runs as one postfix program through the kernel's `term`.
A law's draw plan is derived from its premise (`generators.derive`) unless
the law names one; the ⇔ laws and thm5.6 do. `Law.gen` runs the plan for a
chunk of consecutive trials.
A refuted law's fixture names the worked example (`fixtures.EXAMPLES`) that
refutes it.
`render_table()` regenerates docs/laws.md from the statements.

Ids are stable text keys: `propN.i` / `thmN.i` for proved laws (with semantic
aliases for the equality-algebra items), `exam-*` for refuted ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, reduce
from typing import Callable, NamedTuple, Optional

from .._kernel import exact
from ..errors import UnknownLawError
from ..expressions import Fold, Term, Var, parse_expression, program
from ..relations import Inclusion
from ..sets import is_submultiset
from . import generators as g
from .fixtures import Fixture

P = Inclusion.POSSIBLE
A_ = Inclusion.ACCEPTABLE
M = Inclusion.MEAN
S = Inclusion.STRONG
T = Inclusion.TAIL
N = Inclusion.NECESSARY


class LawStatus(Enum):
    PROVED = "proved"
    REFUTED = "refuted"


# --------------------------------------------------------------------------
# The formula type. Terms are set expressions or folds of a family
# (`expressions.Term`); formulas are built from the nodes below. Every node
# renders itself with `str` and compiles itself, once, with `compile(slot)`,
# the law's map from each param name to its slot in a binding, to a closure
# (kern, one, binding) -> value, where `one` is the complement unit. Nodes
# are NamedTuples because a frozen dataclass costs about 1 ms at import.
# --------------------------------------------------------------------------


@cache  # the specs repeat a few dozen term texts
def _term(text: str) -> Term:
    return Fold(text[0], text[1:]) if text[0] in "⋂⋃" else parse_expression(text)


def at(term: Term, element: str = "x") -> str:
    """The term's membership at one element: `A(x)`, `(A ∩ B)(x)`."""
    return f"{term}({element})" if isinstance(term, Var) else f"({term})({element})"


def _value(term: Term, slot: dict) -> Callable:
    """Compile a term to a closure (kern, one, binding) -> its hfs value: a
    variable reads its slot, and any other term runs its postfix program
    (`expressions.program`) through the kernel's `term`."""
    if isinstance(term, Var):
        i = slot[term.name]

        def var(k, one, b):
            return b[i]

        return var
    postfix = program(term, slot)

    def value(k, one, b):
        return k.term(postfix, b, one)

    return value


class Rel(NamedTuple):
    """lhs related to rhs. mode is "rel" (set-level ⊂kind), "eq" (=kind),
    "sot" (strong-or-tail at every element) or "multiset" (exact equality).
    Counterexample traces show its two sides."""

    mode: str
    lhs: Term
    rhs: Term
    kind: Optional[Inclusion] = None

    def __str__(self) -> str:
        if self.mode == "rel":
            return f"{self.lhs} ⊂{self.kind.letter} {self.rhs}"
        if self.mode == "eq":
            return f"{self.lhs} ={self.kind.letter} {self.rhs}"
        if self.mode == "sot":
            return f"{self.lhs} ⊂s-or-⊂t {self.rhs} at every x"
        return f"{self.lhs} = {self.rhs} as multisets"

    def sides(self, slot, kern, one, binding) -> tuple:
        """The values of lhs and rhs on one binding, its params at `slot`."""
        return tuple(_value(t, slot)(kern, one, binding) for t in (self.lhs, self.rhs))

    def compile(self, slot) -> Callable:
        lhs, rhs = _value(self.lhs, slot), _value(self.rhs, slot)
        if self.mode == "multiset":

            def same(k, one, b):
                return lhs(k, one, b) == rhs(k, one, b)

            return same
        code = exact.REL_SOT if self.mode == "sot" else self.kind.code
        if self.mode != "eq":

            def rel(k, one, b):
                return k.u_rel(code, lhs(k, one, b), rhs(k, one, b))

            return rel

        def eq(k, one, b):
            left, right = lhs(k, one, b), rhs(k, one, b)
            return k.u_rel(code, left, right) and k.u_rel(code, right, left)

        return eq


def inc(kind: Inclusion, lhs: str, rhs: str) -> Rel:
    return Rel("rel", _term(lhs), _term(rhs), kind)


def eq(kind: Inclusion, lhs: str, rhs: str) -> Rel:
    return Rel("eq", _term(lhs), _term(rhs), kind)


def sot(lhs: str, rhs: str) -> Rel:
    return Rel("sot", _term(lhs), _term(rhs))


def same(lhs: str, rhs: str) -> Rel:
    return Rel("multiset", _term(lhs), _term(rhs))


class And(tuple):
    """The conjunction of its parts, evaluated left to right."""

    def __new__(cls, *parts):
        return super().__new__(cls, parts)

    def __str__(self) -> str:
        return " and ".join(map(str, self))

    def compile(self, slot) -> Callable:
        return reduce(_both, [part.compile(slot) for part in reversed(self)])


def _both(rest: Callable, first: Callable) -> Callable:
    def both(k, one, b):
        return first(k, one, b) and rest(k, one, b)

    return both


class Iff(NamedTuple):
    left: object
    right: object

    def __str__(self) -> str:
        return f"{self.left} ⇔ {self.right}"

    def compile(self, slot) -> Callable:
        left, right = self.left.compile(slot), self.right.compile(slot)

        def iff(k, one, b):
            return left(k, one, b) == right(k, one, b)

        return iff


class Each(NamedTuple):
    """body for all (or some) members `var` of a family."""

    quantifier: str  # "all" or "some"
    var: str
    family: str
    body: object

    def __str__(self) -> str:
        return f"{self.body} for {self.quantifier} {self.var} in {self.family}"

    def compile(self, slot) -> Callable:
        # the member is one slot past the law's params
        body, family = self.body.compile({**slot, self.var: len(slot)}), slot[self.family]
        test = all if self.quantifier == "all" else any

        def each(k, one, b):
            return test(body(k, one, (*b, H)) for H in b[family])

        return each


def for_all(body, family: str = "F") -> Each:
    return Each("all", "H", family, body)


def for_some(body, family: str = "F") -> Each:
    return Each("some", "H", family, body)


class Subfamily(NamedTuple):
    """small ⊏ big: small is a sub-multiset of big (its index set is a
    subset of big's). Each member of big matches at most one member of
    small, so a member that small holds twice, big must hold twice."""

    small: str
    big: str

    def __str__(self) -> str:
        return f"{self.small} ⊏ {self.big}"

    def compile(self, slot) -> Callable:
        small, big = slot[self.small], slot[self.big]

        def subfamily(k, one, b):
            return is_submultiset(b[small], b[big])

        return subfamily


class EitherAt(NamedTuple):
    """At every element, the first or the second element-level inclusion."""

    first: Rel
    second: Rel

    def __str__(self) -> str:
        return "at every x, " + " or ".join(
            f"{at(r.lhs)} ⊂{r.kind.letter} {at(r.rhs)}" for r in (self.first, self.second)
        )

    def compile(self, slot) -> Callable:
        # Each distinct term (prop5.1/5.2 share A ∩ B or A ∪ B) is evaluated once.
        terms = [t for r in (self.first, self.second) for t in (r.lhs, r.rhs)]
        distinct = list(dict.fromkeys(terms))
        values = [_value(t, slot) for t in distinct]
        picks = [distinct.index(t) for t in terms]
        c1, c2 = self.first.kind.code, self.second.kind.code

        def either(k, one, b):
            rel = k.u_rel
            v = [value(k, one, b) for value in values]
            return all(
                rel(c1, (a1,), (b1,)) or rel(c2, (a2,), (b2,))
                for a1, b1, a2, b2 in zip(*(v[i] for i in picks))
            )

        return either


class Coincide(NamedTuple):
    """At every element, all degrees of both memberships are one value."""

    lhs: str
    rhs: str

    def __str__(self) -> str:
        return f"at every x, all degrees of {self.lhs}(x) and {self.rhs}(x) coincide"

    def compile(self, slot) -> Callable:
        lhs, rhs = slot[self.lhs], slot[self.rhs]

        def coincide(k, one, b):
            return all(len(set(a) | set(c)) == 1 for a, c in zip(b[lhs], b[rhs]))

        return coincide


class FewerDegrees(NamedTuple):
    """At every element, the set has fewer degrees than every member."""

    name: str
    family: str

    def __str__(self) -> str:
        return f"|{self.name}(x)| < |H(x)| at every x for all H in {self.family}"

    def compile(self, slot) -> Callable:
        name, family = slot[self.name], slot[self.family]

        def fewer(k, one, b):
            return all(len(a) < len(h) for H in b[family] for a, h in zip(b[name], H))

        return fewer


class Implies(NamedTuple):
    """premise ⇒ claim; only ever the whole spec of a law."""

    premise: object
    claim: object

    def __str__(self) -> str:
        return f"{self.premise} ⇒ {self.claim}"


# --------------------------------------------------------------------------
# Laws
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Law:
    id: str
    status: LawStatus
    params: tuple[tuple[str, str], ...]  # (name, "set" | "family")
    spec: object  # a formula, or Implies(premise, claim)
    claim: Callable  # (kern, one, binding) -> bool, compiled from the spec's claim
    guard: Optional[Callable]  # the same, compiled from the spec's premise, if any
    plan: tuple  # the moves of its draw (`generators`)
    gen: Callable  # (kern, bounds, prefix, first, count) -> [(size, binding tuple or None)], runs the plan
    fixtures: tuple[Fixture, ...] = ()
    aliases: tuple[str, ...] = ()
    note: str = ""

    @property
    def premise(self):
        return self.spec.premise if isinstance(self.spec, Implies) else None

    @property
    def conclusion(self):
        return self.spec.claim if isinstance(self.spec, Implies) else self.spec

    @property
    def statement(self) -> str:
        text = str(self.spec)
        if self.status is LawStatus.REFUTED:
            text += f" (fails; {self.note})" if self.note else " (fails)"
        return text


_LAWS: list[Law] = []


def _law(id, params, spec, plan=None, *, status=LawStatus.PROVED, fixtures=(), aliases=(), note=""):
    premise, claim = (spec.premise, spec.claim) if isinstance(spec, Implies) else (None, spec)
    if plan is None:
        plan = g.derive(params, premise)
    slot = g.slots(params)
    _LAWS.append(Law(
        id=id,
        status=status,
        params=params,
        spec=spec,
        claim=claim.compile(slot),
        guard=None if premise is None else premise.compile(slot),
        plan=plan,
        gen=g.runner(plan, len(params)),
        fixtures=fixtures,
        aliases=aliases,
        note=note,
    ))


def _refuted(id: str, params, spec, fixture: Fixture, note: str = "") -> None:
    _law(id, params, spec, status=LawStatus.REFUTED, fixtures=(fixture,), note=note)


def _sets(*names: str) -> tuple[tuple[str, str], ...]:
    return tuple((n, "set") for n in names)


A, AB, ABC = _sets("A"), _sets("A", "B"), _sets("A", "B", "C")

# --------------------------------------------------------------------------
# Complement, commutativity, associativity: exact multiset identities
# --------------------------------------------------------------------------

_law("thm1.1", A, same("A^c^c", "A"))
_law("thm1.2", AB, same("(A & B)^c", "A^c | B^c"))
_law("thm1.3", AB, same("(A | B)^c", "A^c & B^c"))
_law("thm1.4", AB, And(same("A & B", "B & A"), same("A | B", "B | A")))
_law("thm1.5", ABC, And(same("(A & B) & C", "A & (B & C)"), same("(A | B) | C", "A | (B | C)")))

# --------------------------------------------------------------------------
# The implication lattice between the six inclusions
# --------------------------------------------------------------------------

for _i, (_premise, _conclusion) in enumerate(
    ((A_, P), (S, P), (S, A_), (S, M), (T, P), (N, P), (N, A_), (N, M)), start=1
):
    _law(f"prop2.{_i}", AB, Implies(inc(_premise, "A", "B"), inc(_conclusion, "A", "B")))
_law("prop2.9", AB, Implies(inc(N, "A", "B"), sot("A", "B")))

# --------------------------------------------------------------------------
# Meet and join against their operands
# --------------------------------------------------------------------------

for _num, _kind in ((3, P), (4, A_)):
    _law(f"prop{_num}.1", AB, And(inc(_kind, "A & B", "A"), inc(_kind, "A & B", "B")))
    _law(f"prop{_num}.2", AB, And(inc(_kind, "A", "A | B"), inc(_kind, "B", "A | B")))
    _law(f"prop{_num}.3", AB, inc(_kind, "A & B", "A | B"))

_law("prop5.1", AB, EitherAt(inc(M, "A & B", "A"), inc(M, "A & B", "B")))
_law("prop5.2", AB, EitherAt(inc(M, "A", "A | B"), inc(M, "B", "A | B")))
_law("prop5.3", AB, inc(M, "A & B", "A | B"))
_law("prop5.4", AB, Implies(inc(M, "A", "B"), inc(M, "A & B", "B")))
_law("prop5.5", AB, Implies(inc(M, "A", "B"), inc(M, "A", "A | B")))

_law("prop6.1", AB, And(sot("A", "A | B"), sot("B", "A | B")))
_law("prop6.2", AB, sot("A & B", "A | B"))

for _i, _kind in enumerate((P, A_, S, T, N), start=1):
    _law(f"prop7.{_i}", AB, Implies(inc(_kind, "A", "B"), sot("A", "A & B")))

for _i, (_lhs, _rhs) in enumerate((("A & B", "B"), ("A", "A | B"), ("A & B", "A | B")), start=1):
    _law(f"prop8.{_i}", AB, Implies(inc(N, "A", "B"), inc(N, _lhs, _rhs)))

# --------------------------------------------------------------------------
# Monotonicity against a third set
# --------------------------------------------------------------------------

for _i, _kind in enumerate((P, A_, S, T, N), start=1):
    _claim = inc(_kind, "A", "B | C") if _kind in (P, A_) else sot("A", "B | C")
    _law(f"prop9.{_i}", ABC, Implies(inc(_kind, "A", "B"), _claim))

_MONO_WEAKENING = {P: P, A_: A_, S: A_, T: P, N: A_}

for _num, _sym in ((10, "&"), (11, "|")):
    for _i, _kind in enumerate((P, A_, S, T, N), start=1):
        _claim = inc(_MONO_WEAKENING[_kind], f"A {_sym} C", f"B {_sym} C")
        _law(f"prop{_num}.{_i}", ABC, Implies(inc(_kind, "A", "B"), _claim))

for _i, _kind in zip((6, 7, 8), (S, T, N)):
    _claim = sot("A | C", "B | C")
    _law(f"prop11.{_i}", ABC, Implies(inc(_kind, "A", "B"), _claim))

# --------------------------------------------------------------------------
# Complement monotonicity and transitivity
# --------------------------------------------------------------------------

for _i, _kind in ((1, A_), (2, M), (4, N)):
    _law(f"prop12.{_i}", AB, Implies(inc(_kind, "A", "B"), inc(_kind, "B^c", "A^c")))
_law("prop12.3", AB, Implies(inc(S, "A", "B"), sot("B^c", "A^c")))

for _i, _kind in enumerate((P, A_, M, S, T, N), start=1):
    _premise = And(inc(_kind, "A", "B"), inc(_kind, "B", "C"))
    _law(f"prop13.{_i}", ABC, Implies(_premise, inc(_kind, "A", "C")))

# --------------------------------------------------------------------------
# Equality results
# --------------------------------------------------------------------------

_EQ_PAM = And(eq(P, "A", "B"), eq(A_, "A", "B"), eq(M, "A", "B"))
_law("thm2.1", AB, Implies(same("A", "B"), _EQ_PAM))
_law("thm2.2", AB, Iff(eq(S, "A", "B"), same("A", "B")), g.maybe_equal_pair)
_law("thm2.3", AB, Implies(eq(S, "A", "B"), _EQ_PAM))
_law("thm2.4", AB, Implies(eq(N, "A", "B"), Coincide("A", "B")))
_law("thm2.5", AB, Implies(eq(N, "A", "B"), _EQ_PAM))

for _i, _kind, _alias in ((1, P, "thm3.idem-p"), (2, A_, "thm3.idem-a"), (3, M, "thm3.idem-m")):
    _law(f"thm3.{_i}", A, And(eq(_kind, "A & A", "A"), eq(_kind, "A | A", "A")), aliases=(_alias,))
for _i, _kind, _alias in ((4, P, "thm3.abs-p"), (5, A_, "thm3.abs-a")):
    _spec = And(eq(_kind, "(A | B) & A", "A"), eq(_kind, "(A & B) | A", "A"))
    _law(f"thm3.{_i}", AB, _spec, aliases=(_alias,))
for _i, _kind, _alias in ((6, P, "thm3.distrib-p"), (7, A_, "thm3.distrib-a")):
    _spec = And(
        eq(_kind, "(A | B) & C", "(C & A) | (C & B)"), eq(_kind, "(A & B) | C", "(C | A) & (C | B)")
    )
    _law(f"thm3.{_i}", ABC, _spec, aliases=(_alias,))

# --------------------------------------------------------------------------
# Families: meet below join, one set against every member, subfamilies
# --------------------------------------------------------------------------

_FAMILY = (("F", "family"),)
_SET_FAMILY = (("A", "set"), ("F", "family"))
_TWO_FAMILIES = (("F1", "family"), ("F2", "family"))

for _i, _kind in ((1, P), (2, A_), (3, M)):
    _law(f"thm4.{_i}", _FAMILY, inc(_kind, "⋂F", "⋃F"))
_law("thm4.4", _FAMILY, sot("⋂F", "⋃F"))

for _i, _kind in ((1, P), (3, A_), (7, N)):
    _spec = Iff(for_all(inc(_kind, "A", "H")), inc(_kind, "A", "⋂F"))
    _law(f"thm5.{_i}", _SET_FAMILY, _spec, g.either_side(_SET_FAMILY, _spec))
for _i, _kind in ((2, P), (4, A_), (8, N)):
    _spec = Implies(for_some(inc(_kind, "A", "H")), inc(_kind, "A", "⋃F"))
    _law(f"thm5.{_i}", _SET_FAMILY, _spec)
_law("thm5.5", _SET_FAMILY, Implies(for_all(inc(T, "A", "H")), inc(T, "A", "⋂F")))
_spec = Implies(And(for_some(inc(T, "A", "H")), FewerDegrees("A", "F")), inc(T, "A", "⋃F"))
_law("thm5.6", _SET_FAMILY, _spec, g.tail_exists_with_small_cards)

_SUB = Subfamily("F1", "F2")
for _first, _lhs, _rhs in ((1, "⋂F2", "⋂F1"), (2, "⋃F1", "⋃F2"), (3, "⋂F1", "⋃F2")):
    for _i, _kind in ((_first, P), (_first + 3, A_)):
        _law(f"thm6.{_i}", _TWO_FAMILIES, Implies(_SUB, inc(_kind, _lhs, _rhs)))
_law("thm6.7", _TWO_FAMILIES, Implies(_SUB, sot("⋃F1", "⋃F2")))
_law("thm6.8", _TWO_FAMILIES, Implies(_SUB, sot("⋂F1", "⋃F2")))

# --------------------------------------------------------------------------
# Refuted laws: classical-set intuitions that fail, each with the worked
# counterexample frozen as a fixture
# --------------------------------------------------------------------------

_MEAN_FIX = Fixture("mean-failures")
_refuted("exam-sec2.3-m-intersection", AB, inc(M, "A & B", "A"), _MEAN_FIX)
_refuted("exam-sec2.3-m-union", AB, inc(M, "B", "A | B"), _MEAN_FIX)

_SOT_FIX = Fixture("sot-failures")
_refuted("exam-sec2.3-sot-inter-left", AB, sot("A & B", "A"), _SOT_FIX)
_refuted("exam-sec2.3-sot-inter-right", AB, sot("A & B", "B"), _SOT_FIX)

_NEC_FIX = Fixture("necessity-failures")
for _slug, _lhs, _rhs in (
    ("inter-left", "A & B", "A"),
    ("inter-right", "A & B", "B"),
    ("union-left", "A", "A | B"),
    ("union-right", "B", "A | B"),
    ("inter-union", "A & B", "A | B"),
):
    _refuted(f"exam-sec2.3-n-{_slug}", AB, inc(N, _lhs, _rhs), _NEC_FIX)

# guarded monotonicity strengthenings that fail, one per (guard, op, claim)
_MONO_CASES = (
    (P, "inter", M, "x1"), (P, "inter", T, "x1"), (P, "inter", A_, "x2"),
    (P, "union", M, "x1"), (P, "union", A_, "x1"), (P, "union", T, "x1"),
    (A_, "inter", M, "x5"), (A_, "inter", T, "x5"),
    (A_, "union", M, "x8"), (A_, "union", T, "x5"),
    (M, "inter", P, "x3"), (M, "inter", M, "x2"),
    (M, "union", P, "x3"), (M, "union", M, "x4"),
    (S, "inter", M, "x5"), (S, "inter", T, "x5"),
    (S, "union", M, "x4"), (S, "union", T, "x5"),
    (T, "inter", M, "x6"), (T, "inter", A_, "x6"), (T, "inter", T, "x6"),
    (T, "union", M, "x7"), (T, "union", A_, "x7"), (T, "union", T, "x6"),
    (N, "inter", M, "x5"), (N, "inter", T, "x5"),
    (N, "union", M, "x8"), (N, "union", T, "x5"),
)

for _gk, _op, _ck, _elem in _MONO_CASES:
    _sym = "&" if _op == "inter" else "|"
    _refuted(
        f"exam-sec2.5-{_gk.letter}-{_op}-{_ck.letter}", ABC,
        Implies(inc(_gk, "A", "B"), inc(_ck, f"A {_sym} C", f"B {_sym} C")),
        Fixture("monotonicity-failures", _elem),
    )

# complement contrapositives that fail
for _gk, _elem, _claims in ((P, "x", (P, M)), (T, "y", (P, A_, M, S, T, N))):
    for _ck in _claims:
        _refuted(
            f"exam-sec2.5c-{_gk.letter}-compl-{_ck.letter}", AB,
            Implies(inc(_gk, "A", "B"), inc(_ck, "B^c", "A^c")),
            Fixture("complement-failures", _elem),
        )

# equality beyond =p/=a fails for absorption and distributivity
_EQ_FIX = Fixture("equality-failures")
_refuted("exam-sec2.6-absorb-union-m", AB, eq(M, "(A & B) | A", "A"), _EQ_FIX)
_refuted("exam-sec2.6-absorb-inter-m", AB, eq(M, "(A | B) & A", "A"), _EQ_FIX)
_refuted("exam-sec2.6-distrib-m", ABC, eq(M, "(A | B) & C", "(A & C) | (B & C)"), _EQ_FIX)
_refuted("exam-sec2.6-distrib2-m", ABC, eq(M, "(A & B) | C", "(A | C) & (B | C)"), _EQ_FIX)
_refuted(
    "exam-sec2.6-distrib2-eq", ABC, same("(A & B) | C", "(A | C) & (B | C)"), _EQ_FIX,
    note="0.4 appears on the right only",
)

_refuted(
    "exam-sec2.4-tconv", ABC, Implies(inc(T, "A", "B & C"), inc(T, "A", "B")),
    Fixture("truncation-remark"),
)

LAWS: tuple[Law, ...] = tuple(_LAWS)

_BY_ID: dict[str, Law] = {}
for _lw in LAWS:
    if _lw.id in _BY_ID:
        raise AssertionError(f"duplicate law id {_lw.id}")
    _BY_ID[_lw.id] = _lw
for _lw in LAWS:
    for _al in _lw.aliases:
        if _al in _BY_ID:
            raise AssertionError(f"alias {_al} collides with an existing id")
        _BY_ID[_al] = _lw


def law_registry() -> tuple[Law, ...]:
    """All laws in registry order (proved first, then refuted)."""
    return LAWS


def get_law(law_id: str) -> Law:
    try:
        return _BY_ID[law_id]
    except KeyError:
        raise UnknownLawError(f"unknown law id {law_id!r}") from None


def proved_laws() -> tuple[Law, ...]:
    return tuple(law for law in LAWS if law.status is LawStatus.PROVED)


def refuted_laws() -> tuple[Law, ...]:
    return tuple(law for law in LAWS if law.status is LawStatus.REFUTED)


def render_table() -> str:
    """Markdown table of the full registry (the audited id list)."""
    lines = [
        "# Law registry",
        "",
        f"{len(proved_laws())} proved laws and {len(refuted_laws())} refuted laws.",
        "",
        "| id | status | variables | statement |",
        "|----|--------|-----------|-----------|",
    ]
    for law in LAWS:
        vars_ = ", ".join(name for name, _ in law.params)
        stmt = law.statement.replace("|", "\\|")
        lines.append(f"| {law.id} | {law.status.value} | {vars_} | {stmt} |")
    lines.append("")
    return "\n".join(lines)
