"""The law registry: every proved statement and every refuted one.

A law binds named variables (sets, or a family of sets) and carries a guard
(its premises) and a claim (its conclusion). A *violation* is a binding where
the guard holds and the claim fails. Proved laws must show zero violations
under randomized trials; refuted laws carry at least one fixture binding that
exhibits a violation, frozen from the worked counterexamples.

Ids are stable text keys: `propN.i` / `thmN.i` for proved laws (with semantic
aliases for the equality-algebra items), `exam-*` for refuted ones. The
statement strings are the single documented source for what each id means;
`render_table()` regenerates docs/laws.md from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from ..errors import UnknownLawError
from ..expressions import evaluate, parse_expression
from ..relations import Inclusion
from . import generators as g
from .fixtures import (
    COMPLEMENT_FAILURES,
    EQUALITY_FAILURES,
    MEAN_FAILURES,
    MONOTONICITY_FAILURES,
    NECESSITY_FAILURES,
    SOT_FAILURES,
    TRUNCATION_REMARK,
    Fixture,
    slice_at,
    whole,
)

P = Inclusion.POSSIBLE
A_ = Inclusion.ACCEPTABLE
M = Inclusion.MEAN
S = Inclusion.STRONG
T = Inclusion.TAIL
N = Inclusion.NECESSARY


class LawStatus(Enum):
    PROVED = "proved"
    REFUTED = "refuted"


@dataclass(frozen=True)
class RelSpec:
    """Declarative predicate: LHS-expression related to RHS-expression.

    mode is "rel" (set-level ⊂kind), "eq" (=kind), "sot" (elementwise
    strong-or-tail) or "multiset" (exact equality). Refuted laws carry these
    so the counterexample traces can show the computed composites.
    """

    mode: str
    lhs: str
    rhs: str
    kind: Optional[Inclusion] = None

    def render(self) -> str:
        lhs = str(parse_expression(self.lhs))
        rhs = str(parse_expression(self.rhs))
        if self.mode == "rel":
            return f"{lhs} ⊂{self.kind.letter} {rhs}"
        if self.mode == "eq":
            return f"{lhs} ={self.kind.letter} {rhs}"
        if self.mode == "sot":
            return f"{lhs} ⊂s-or-⊂t {rhs} at every x"
        return f"{lhs} = {rhs} as multisets"

    def predicate(self) -> Callable:
        lhs = parse_expression(self.lhs)
        rhs = parse_expression(self.rhs)
        mode, kind = self.mode, self.kind

        def pred(alg, b):
            L = evaluate(lhs, b.__getitem__, alg.union, alg.inter, alg.compl)
            R = evaluate(rhs, b.__getitem__, alg.union, alg.inter, alg.compl)
            if mode == "rel":
                return alg.rel(kind, L, R)
            if mode == "eq":
                return alg.eq(kind, L, R)
            if mode == "sot":
                return alg.sot(L, R)
            return alg.equal(L, R)

        return pred


@dataclass(frozen=True)
class Law:
    id: str
    status: LawStatus
    params: tuple[tuple[str, str], ...]  # (name, "set" | "family")
    statement: str
    claim: Callable
    guard: Optional[Callable] = None
    gen: Optional[Callable] = None
    fixtures: tuple[Fixture, ...] = ()
    aliases: tuple[str, ...] = ()
    guard_spec: Optional[RelSpec] = None
    claim_spec: Optional[RelSpec] = None

    @property
    def arity(self) -> int:
        return len(self.params)


def _sets(*names: str) -> tuple[tuple[str, str], ...]:
    return tuple((n, "set") for n in names)


def _refuted(
    id: str,
    params: tuple[tuple[str, str], ...],
    claim_spec: RelSpec,
    gen,
    fixtures: tuple[Fixture, ...],
    guard_spec: Optional[RelSpec] = None,
    note: str = "",
) -> None:
    statement = claim_spec.render()
    if guard_spec is not None:
        statement = f"{guard_spec.render()} ⇒ {statement}"
    statement += f" (fails; {note})" if note else " (fails)"
    _law(Law(
        id=id,
        status=LawStatus.REFUTED,
        params=params,
        statement=statement,
        claim=claim_spec.predicate(),
        guard=None if guard_spec is None else guard_spec.predicate(),
        gen=gen,
        fixtures=fixtures,
        guard_spec=guard_spec,
        claim_spec=claim_spec,
    ))


_LAWS: list[Law] = []


def _law(law: Law) -> None:
    _LAWS.append(law)


# --------------------------------------------------------------------------
# Complement, commutativity, associativity: exact multiset identities
# --------------------------------------------------------------------------

_law(Law(
    id="thm1.1", status=LawStatus.PROVED, params=_sets("A"),
    statement="(Aᶜ)ᶜ = A",
    claim=lambda alg, b: alg.equal(alg.compl(alg.compl(b["A"])), b["A"]),
    gen=g.rand_sets("A"),
))
_law(Law(
    id="thm1.2", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="(A ∩ B)ᶜ = Aᶜ ∪ Bᶜ",
    claim=lambda alg, b: alg.equal(
        alg.compl(alg.inter(b["A"], b["B"])),
        alg.union(alg.compl(b["A"]), alg.compl(b["B"])),
    ),
    gen=g.rand_sets("A", "B"),
))
_law(Law(
    id="thm1.3", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="(A ∪ B)ᶜ = Aᶜ ∩ Bᶜ",
    claim=lambda alg, b: alg.equal(
        alg.compl(alg.union(b["A"], b["B"])),
        alg.inter(alg.compl(b["A"]), alg.compl(b["B"])),
    ),
    gen=g.rand_sets("A", "B"),
))
_law(Law(
    id="thm1.4", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="A ∩ B = B ∩ A and A ∪ B = B ∪ A",
    claim=lambda alg, b: alg.equal(alg.inter(b["A"], b["B"]), alg.inter(b["B"], b["A"]))
    and alg.equal(alg.union(b["A"], b["B"]), alg.union(b["B"], b["A"])),
    gen=g.rand_sets("A", "B"),
))
_law(Law(
    id="thm1.5", status=LawStatus.PROVED, params=_sets("A", "B", "C"),
    statement="(A ∩ B) ∩ C = A ∩ (B ∩ C) and (A ∪ B) ∪ C = A ∪ (B ∪ C)",
    claim=lambda alg, b: alg.equal(
        alg.inter(alg.inter(b["A"], b["B"]), b["C"]),
        alg.inter(b["A"], alg.inter(b["B"], b["C"])),
    )
    and alg.equal(
        alg.union(alg.union(b["A"], b["B"]), b["C"]),
        alg.union(b["A"], alg.union(b["B"], b["C"])),
    ),
    gen=g.rand_sets("A", "B", "C"),
))

# --------------------------------------------------------------------------
# The implication lattice between the six inclusions
# --------------------------------------------------------------------------


def _implication(i: int, premise: Inclusion, conclusion: Inclusion) -> None:
    _law(Law(
        id=f"prop2.{i}", status=LawStatus.PROVED, params=_sets("A", "B"),
        statement=f"A ⊂{premise.letter} B ⇒ A ⊂{conclusion.letter} B",
        guard=lambda alg, b, k=premise: alg.rel(k, b["A"], b["B"]),
        claim=lambda alg, b, k=conclusion: alg.rel(k, b["A"], b["B"]),
        gen=g.pair(premise),
    ))


_implication(1, A_, P)
_implication(2, S, P)
_implication(3, S, A_)
_implication(4, S, M)
_implication(5, T, P)
_implication(6, N, P)
_implication(7, N, A_)
_implication(8, N, M)
_law(Law(
    id="prop2.9", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="A ⊂n B ⇒ at every x, A(x) ⊂s B(x) or A(x) ⊂t B(x)",
    guard=lambda alg, b: alg.rel(N, b["A"], b["B"]),
    claim=lambda alg, b: alg.sot(b["A"], b["B"]),
    gen=g.pair(N),
))

# --------------------------------------------------------------------------
# Meet and join against their operands
# --------------------------------------------------------------------------

for _num, _kind in ((3, P), (4, A_)):
    _law(Law(
        id=f"prop{_num}.1", status=LawStatus.PROVED, params=_sets("A", "B"),
        statement=f"A ∩ B ⊂{_kind.letter} A and A ∩ B ⊂{_kind.letter} B",
        claim=lambda alg, b, k=_kind: (
            alg.rel(k, alg.inter(b["A"], b["B"]), b["A"])
            and alg.rel(k, alg.inter(b["A"], b["B"]), b["B"])
        ),
        gen=g.rand_sets("A", "B"),
    ))
    _law(Law(
        id=f"prop{_num}.2", status=LawStatus.PROVED, params=_sets("A", "B"),
        statement=f"A ⊂{_kind.letter} A ∪ B and B ⊂{_kind.letter} A ∪ B",
        claim=lambda alg, b, k=_kind: (
            alg.rel(k, b["A"], alg.union(b["A"], b["B"]))
            and alg.rel(k, b["B"], alg.union(b["A"], b["B"]))
        ),
        gen=g.rand_sets("A", "B"),
    ))
    _law(Law(
        id=f"prop{_num}.3", status=LawStatus.PROVED, params=_sets("A", "B"),
        statement=f"A ∩ B ⊂{_kind.letter} A ∪ B",
        claim=lambda alg, b, k=_kind: alg.rel(
            k, alg.inter(b["A"], b["B"]), alg.union(b["A"], b["B"])
        ),
        gen=g.rand_sets("A", "B"),
    ))

_law(Law(
    id="prop5.1", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="at every x, (A∩B)(x) ⊂m A(x) or (A∩B)(x) ⊂m B(x)",
    claim=lambda alg, b: all(
        alg.erel(M, i, a) or alg.erel(M, i, bb)
        for i, a, bb in zip(alg.inter(b["A"], b["B"]), b["A"], b["B"])
    ),
    gen=g.rand_sets("A", "B"),
))
_law(Law(
    id="prop5.2", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="at every x, A(x) ⊂m (A∪B)(x) or B(x) ⊂m (A∪B)(x)",
    claim=lambda alg, b: all(
        alg.erel(M, a, u) or alg.erel(M, bb, u)
        for u, a, bb in zip(alg.union(b["A"], b["B"]), b["A"], b["B"])
    ),
    gen=g.rand_sets("A", "B"),
))
_law(Law(
    id="prop5.3", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="A ∩ B ⊂m A ∪ B",
    claim=lambda alg, b: alg.rel(M, alg.inter(b["A"], b["B"]), alg.union(b["A"], b["B"])),
    gen=g.rand_sets("A", "B"),
))
_law(Law(
    id="prop5.4", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="A ⊂m B ⇒ A ∩ B ⊂m B",
    guard=lambda alg, b: alg.rel(M, b["A"], b["B"]),
    claim=lambda alg, b: alg.rel(M, alg.inter(b["A"], b["B"]), b["B"]),
    gen=g.pair(M),
))
_law(Law(
    id="prop5.5", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="A ⊂m B ⇒ A ⊂m A ∪ B",
    guard=lambda alg, b: alg.rel(M, b["A"], b["B"]),
    claim=lambda alg, b: alg.rel(M, b["A"], alg.union(b["A"], b["B"])),
    gen=g.pair(M),
))

_law(Law(
    id="prop6.1", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="at every x, A(x) and B(x) are each ⊂s-or-⊂t below (A∪B)(x)",
    claim=lambda alg, b: alg.sot(b["A"], alg.union(b["A"], b["B"]))
    and alg.sot(b["B"], alg.union(b["A"], b["B"])),
    gen=g.rand_sets("A", "B"),
))
_law(Law(
    id="prop6.2", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="at every x, (A∩B)(x) is ⊂s-or-⊂t below (A∪B)(x)",
    claim=lambda alg, b: alg.sot(alg.inter(b["A"], b["B"]), alg.union(b["A"], b["B"])),
    gen=g.rand_sets("A", "B"),
))

for _i, _kind in enumerate((P, A_, S, T, N), start=1):
    _law(Law(
        id=f"prop7.{_i}", status=LawStatus.PROVED, params=_sets("A", "B"),
        statement=f"A ⊂{_kind.letter} B ⇒ at every x, A(x) ⊂s-or-⊂t (A∩B)(x)",
        guard=lambda alg, b, k=_kind: alg.rel(k, b["A"], b["B"]),
        claim=lambda alg, b: alg.sot(b["A"], alg.inter(b["A"], b["B"])),
        gen=g.pair(_kind),
    ))

_law(Law(
    id="prop8.1", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="A ⊂n B ⇒ A ∩ B ⊂n B",
    guard=lambda alg, b: alg.rel(N, b["A"], b["B"]),
    claim=lambda alg, b: alg.rel(N, alg.inter(b["A"], b["B"]), b["B"]),
    gen=g.pair(N),
))
_law(Law(
    id="prop8.2", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="A ⊂n B ⇒ A ⊂n A ∪ B",
    guard=lambda alg, b: alg.rel(N, b["A"], b["B"]),
    claim=lambda alg, b: alg.rel(N, b["A"], alg.union(b["A"], b["B"])),
    gen=g.pair(N),
))
_law(Law(
    id="prop8.3", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="A ⊂n B ⇒ A ∩ B ⊂n A ∪ B",
    guard=lambda alg, b: alg.rel(N, b["A"], b["B"]),
    claim=lambda alg, b: alg.rel(N, alg.inter(b["A"], b["B"]), alg.union(b["A"], b["B"])),
    gen=g.pair(N),
))

# --------------------------------------------------------------------------
# Monotonicity against a third set
# --------------------------------------------------------------------------

for _i, _kind in enumerate((P, A_, S, T, N), start=1):
    if _kind in (P, A_):
        _law(Law(
            id=f"prop9.{_i}", status=LawStatus.PROVED, params=_sets("A", "B", "C"),
            statement=f"A ⊂{_kind.letter} B ⇒ A ⊂{_kind.letter} B ∪ C",
            guard=lambda alg, b, k=_kind: alg.rel(k, b["A"], b["B"]),
            claim=lambda alg, b, k=_kind: alg.rel(k, b["A"], alg.union(b["B"], b["C"])),
            gen=g.pair(_kind, extra=1),
        ))
    else:
        _law(Law(
            id=f"prop9.{_i}", status=LawStatus.PROVED, params=_sets("A", "B", "C"),
            statement=f"A ⊂{_kind.letter} B ⇒ at every x, A(x) ⊂s-or-⊂t (B∪C)(x)",
            guard=lambda alg, b, k=_kind: alg.rel(k, b["A"], b["B"]),
            claim=lambda alg, b: alg.sot(b["A"], alg.union(b["B"], b["C"])),
            gen=g.pair(_kind, extra=1),
        ))

_MONO_WEAKENING = {P: P, A_: A_, S: A_, T: P, N: A_}

for _i, _kind in enumerate((P, A_, S, T, N), start=1):
    _out = _MONO_WEAKENING[_kind]
    _law(Law(
        id=f"prop10.{_i}", status=LawStatus.PROVED, params=_sets("A", "B", "C"),
        statement=f"A ⊂{_kind.letter} B ⇒ A ∩ C ⊂{_out.letter} B ∩ C",
        guard=lambda alg, b, k=_kind: alg.rel(k, b["A"], b["B"]),
        claim=lambda alg, b, k=_out: alg.rel(
            k, alg.inter(b["A"], b["C"]), alg.inter(b["B"], b["C"])
        ),
        gen=g.pair(_kind, extra=1),
    ))

for _i, _kind in enumerate((P, A_, S, T, N), start=1):
    _out = _MONO_WEAKENING[_kind]
    _law(Law(
        id=f"prop11.{_i}", status=LawStatus.PROVED, params=_sets("A", "B", "C"),
        statement=f"A ⊂{_kind.letter} B ⇒ A ∪ C ⊂{_out.letter} B ∪ C",
        guard=lambda alg, b, k=_kind: alg.rel(k, b["A"], b["B"]),
        claim=lambda alg, b, k=_out: alg.rel(
            k, alg.union(b["A"], b["C"]), alg.union(b["B"], b["C"])
        ),
        gen=g.pair(_kind, extra=1),
    ))

for _i, _kind in zip((6, 7, 8), (S, T, N)):
    _law(Law(
        id=f"prop11.{_i}", status=LawStatus.PROVED, params=_sets("A", "B", "C"),
        statement=f"A ⊂{_kind.letter} B ⇒ at every x, (A∪C)(x) ⊂s-or-⊂t (B∪C)(x)",
        guard=lambda alg, b, k=_kind: alg.rel(k, b["A"], b["B"]),
        claim=lambda alg, b: alg.sot(alg.union(b["A"], b["C"]), alg.union(b["B"], b["C"])),
        gen=g.pair(_kind, extra=1),
    ))

# --------------------------------------------------------------------------
# Complement monotonicity and transitivity
# --------------------------------------------------------------------------

for _i, _kind in ((1, A_), (2, M), (4, N)):
    _law(Law(
        id=f"prop12.{_i}", status=LawStatus.PROVED, params=_sets("A", "B"),
        statement=f"A ⊂{_kind.letter} B ⇒ Bᶜ ⊂{_kind.letter} Aᶜ",
        guard=lambda alg, b, k=_kind: alg.rel(k, b["A"], b["B"]),
        claim=lambda alg, b, k=_kind: alg.rel(k, alg.compl(b["B"]), alg.compl(b["A"])),
        gen=g.pair(_kind),
    ))
_law(Law(
    id="prop12.3", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="A ⊂s B ⇒ at every x, Bᶜ(x) ⊂s-or-⊂t Aᶜ(x)",
    guard=lambda alg, b: alg.rel(S, b["A"], b["B"]),
    claim=lambda alg, b: alg.sot(alg.compl(b["B"]), alg.compl(b["A"])),
    gen=g.pair(S),
))

for _i, _kind in enumerate((P, A_, M, S, T, N), start=1):
    _law(Law(
        id=f"prop13.{_i}", status=LawStatus.PROVED, params=_sets("A", "B", "C"),
        statement=f"A ⊂{_kind.letter} B and B ⊂{_kind.letter} C ⇒ A ⊂{_kind.letter} C",
        guard=lambda alg, b, k=_kind: alg.rel(k, b["A"], b["B"]) and alg.rel(k, b["B"], b["C"]),
        claim=lambda alg, b, k=_kind: alg.rel(k, b["A"], b["C"]),
        gen=g.chain(_kind),
    ))

# --------------------------------------------------------------------------
# Equality results
# --------------------------------------------------------------------------

_law(Law(
    id="thm2.1", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="A = B ⇒ A =p B, A =a B and A =m B",
    guard=lambda alg, b: alg.equal(b["A"], b["B"]),
    claim=lambda alg, b: alg.eq(P, b["A"], b["B"])
    and alg.eq(A_, b["A"], b["B"])
    and alg.eq(M, b["A"], b["B"]),
    gen=g.equal_pair,
))
_law(Law(
    id="thm2.2", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="A =s B ⇔ A = B",
    claim=lambda alg, b: alg.eq(S, b["A"], b["B"]) == alg.equal(b["A"], b["B"]),
    gen=g.maybe_equal_pair,
))
_law(Law(
    id="thm2.3", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="A =s B ⇒ A =p B, A =a B and A =m B",
    guard=lambda alg, b: alg.eq(S, b["A"], b["B"]),
    claim=lambda alg, b: alg.eq(P, b["A"], b["B"])
    and alg.eq(A_, b["A"], b["B"])
    and alg.eq(M, b["A"], b["B"]),
    gen=g.equal_pair,
))
_law(Law(
    id="thm2.4", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="A =n B ⇒ at every x, all degrees of A(x) and B(x) coincide",
    guard=lambda alg, b: alg.eq(N, b["A"], b["B"]),
    claim=lambda alg, b: all(
        len(set(a) | set(bb)) == 1 for a, bb in zip(b["A"], b["B"])
    ),
    gen=g.necessary_equal_pair,
))
_law(Law(
    id="thm2.5", status=LawStatus.PROVED, params=_sets("A", "B"),
    statement="A =n B ⇒ A =p B, A =a B and A =m B",
    guard=lambda alg, b: alg.eq(N, b["A"], b["B"]),
    claim=lambda alg, b: alg.eq(P, b["A"], b["B"])
    and alg.eq(A_, b["A"], b["B"])
    and alg.eq(M, b["A"], b["B"]),
    gen=g.necessary_equal_pair,
))

for _i, _kind, _alias in ((1, P, "thm3.idem-p"), (2, A_, "thm3.idem-a"), (3, M, "thm3.idem-m")):
    _law(Law(
        id=f"thm3.{_i}", status=LawStatus.PROVED, params=_sets("A",),
        statement=f"A ∩ A ={_kind.letter} A and A ∪ A ={_kind.letter} A",
        claim=lambda alg, b, k=_kind: alg.eq(k, alg.inter(b["A"], b["A"]), b["A"])
        and alg.eq(k, alg.union(b["A"], b["A"]), b["A"]),
        gen=g.rand_sets("A"),
        aliases=(_alias,),
    ))
for _i, _kind, _alias in ((4, P, "thm3.abs-p"), (5, A_, "thm3.abs-a")):
    _law(Law(
        id=f"thm3.{_i}", status=LawStatus.PROVED, params=_sets("A", "B"),
        statement=f"(A ∪ B) ∩ A ={_kind.letter} A and (A ∩ B) ∪ A ={_kind.letter} A",
        claim=lambda alg, b, k=_kind: alg.eq(
            k, alg.inter(alg.union(b["A"], b["B"]), b["A"]), b["A"]
        )
        and alg.eq(k, alg.union(alg.inter(b["A"], b["B"]), b["A"]), b["A"]),
        gen=g.rand_sets("A", "B"),
        aliases=(_alias,),
    ))
for _i, _kind, _alias in ((6, P, "thm3.distrib-p"), (7, A_, "thm3.distrib-a")):
    _law(Law(
        id=f"thm3.{_i}", status=LawStatus.PROVED, params=_sets("A", "B", "C"),
        statement=(
            f"(A ∪ B) ∩ C ={_kind.letter} (C ∩ A) ∪ (C ∩ B) and "
            f"(A ∩ B) ∪ C ={_kind.letter} (C ∪ A) ∩ (C ∪ B)"
        ),
        claim=lambda alg, b, k=_kind: alg.eq(
            k,
            alg.inter(alg.union(b["A"], b["B"]), b["C"]),
            alg.union(alg.inter(b["C"], b["A"]), alg.inter(b["C"], b["B"])),
        )
        and alg.eq(
            k,
            alg.union(alg.inter(b["A"], b["B"]), b["C"]),
            alg.inter(alg.union(b["C"], b["A"]), alg.union(b["C"], b["B"])),
        ),
        gen=g.rand_sets("A", "B", "C"),
        aliases=(_alias,),
    ))

# --------------------------------------------------------------------------
# Families: meet below join
# --------------------------------------------------------------------------

_FAMILY = (("F", "family"),)
_SET_FAMILY = (("A", "set"), ("F", "family"))
_TWO_FAMILIES = (("F1", "family"), ("F2", "family"))

for _i, _kind in ((1, P), (2, A_), (3, M)):
    _law(Law(
        id=f"thm4.{_i}", status=LawStatus.PROVED, params=_FAMILY,
        statement=f"⋂F ⊂{_kind.letter} ⋃F",
        claim=lambda alg, b, k=_kind: alg.rel(k, alg.fold_inter(b["F"]), alg.fold_union(b["F"])),
        gen=g.family_only,
    ))
_law(Law(
    id="thm4.4", status=LawStatus.PROVED, params=_FAMILY,
    statement="at every x, (⋂F)(x) ⊂s-or-⊂t (⋃F)(x)",
    claim=lambda alg, b: alg.sot(alg.fold_inter(b["F"]), alg.fold_union(b["F"])),
    gen=g.family_only,
))

# --------------------------------------------------------------------------
# Families: one set against every member
# --------------------------------------------------------------------------

for _i, _kind in ((1, P), (3, A_), (7, N)):
    _law(Law(
        id=f"thm5.{_i}", status=LawStatus.PROVED, params=_SET_FAMILY,
        statement=f"A ⊂{_kind.letter} H for all H in F ⇔ A ⊂{_kind.letter} ⋂F",
        claim=lambda alg, b, k=_kind: (
            all(alg.rel(k, b["A"], H) for H in b["F"])
            == alg.rel(k, b["A"], alg.fold_inter(b["F"]))
        ),
        gen=g.set_family_iff(_kind),
    ))
for _i, _kind in ((2, P), (4, A_), (8, N)):
    _law(Law(
        id=f"thm5.{_i}", status=LawStatus.PROVED, params=_SET_FAMILY,
        statement=f"A ⊂{_kind.letter} H for some H in F ⇒ A ⊂{_kind.letter} ⋃F",
        guard=lambda alg, b, k=_kind: any(alg.rel(k, b["A"], H) for H in b["F"]),
        claim=lambda alg, b, k=_kind: alg.rel(k, b["A"], alg.fold_union(b["F"])),
        gen=g.set_family_exists(_kind),
    ))
_law(Law(
    id="thm5.5", status=LawStatus.PROVED, params=_SET_FAMILY,
    statement="A ⊂t H for all H in F ⇒ A ⊂t ⋂F",
    guard=lambda alg, b: all(alg.rel(T, b["A"], H) for H in b["F"]),
    claim=lambda alg, b: alg.rel(T, b["A"], alg.fold_inter(b["F"])),
    gen=g.set_family_forall(T),
))
_law(Law(
    id="thm5.6", status=LawStatus.PROVED, params=_SET_FAMILY,
    statement=(
        "A ⊂t H for some H in F, and |A(x)| < |H(x)| for every H and x "
        "⇒ A ⊂t ⋃F"
    ),
    guard=lambda alg, b: any(alg.rel(T, b["A"], H) for H in b["F"])
    and all(len(a) < len(h) for H in b["F"] for a, h in zip(b["A"], H)),
    claim=lambda alg, b: alg.rel(T, b["A"], alg.fold_union(b["F"])),
    gen=g.tail_exists_with_small_cards,
))

# --------------------------------------------------------------------------
# Families: subfamily monotonicity
# --------------------------------------------------------------------------


def _subfamily(alg, b) -> bool:
    return all(any(alg.equal(h1, h2) for h2 in b["F2"]) for h1 in b["F1"])


for _i, _kind in ((1, P), (4, A_)):
    _law(Law(
        id=f"thm6.{_i}", status=LawStatus.PROVED, params=_TWO_FAMILIES,
        statement=f"F1 ⊏ F2 ⇒ ⋂F2 ⊂{_kind.letter} ⋂F1",
        guard=_subfamily,
        claim=lambda alg, b, k=_kind: alg.rel(
            k, alg.fold_inter(b["F2"]), alg.fold_inter(b["F1"])
        ),
        gen=g.subfamily_pair,
    ))
for _i, _kind in ((2, P), (5, A_)):
    _law(Law(
        id=f"thm6.{_i}", status=LawStatus.PROVED, params=_TWO_FAMILIES,
        statement=f"F1 ⊏ F2 ⇒ ⋃F1 ⊂{_kind.letter} ⋃F2",
        guard=_subfamily,
        claim=lambda alg, b, k=_kind: alg.rel(
            k, alg.fold_union(b["F1"]), alg.fold_union(b["F2"])
        ),
        gen=g.subfamily_pair,
    ))
for _i, _kind in ((3, P), (6, A_)):
    _law(Law(
        id=f"thm6.{_i}", status=LawStatus.PROVED, params=_TWO_FAMILIES,
        statement=f"F1 ⊏ F2 ⇒ ⋂F1 ⊂{_kind.letter} ⋃F2",
        guard=_subfamily,
        claim=lambda alg, b, k=_kind: alg.rel(
            k, alg.fold_inter(b["F1"]), alg.fold_union(b["F2"])
        ),
        gen=g.subfamily_pair,
    ))
_law(Law(
    id="thm6.7", status=LawStatus.PROVED, params=_TWO_FAMILIES,
    statement="F1 ⊏ F2 ⇒ at every x, (⋃F1)(x) ⊂s-or-⊂t (⋃F2)(x)",
    guard=_subfamily,
    claim=lambda alg, b: alg.sot(alg.fold_union(b["F1"]), alg.fold_union(b["F2"])),
    gen=g.subfamily_pair,
))
_law(Law(
    id="thm6.8", status=LawStatus.PROVED, params=_TWO_FAMILIES,
    statement="F1 ⊏ F2 ⇒ at every x, (⋂F1)(x) ⊂s-or-⊂t (⋃F2)(x)",
    guard=_subfamily,
    claim=lambda alg, b: alg.sot(alg.fold_inter(b["F1"]), alg.fold_union(b["F2"])),
    gen=g.subfamily_pair,
))

# --------------------------------------------------------------------------
# Refuted laws: classical-set intuitions that fail, each with the worked
# counterexample frozen as a fixture
# --------------------------------------------------------------------------

_MEAN_FIX = (whole("mean-failures", ("x", "y", "z"), MEAN_FAILURES, "A", "B"),)
_refuted(
    "exam-sec2.3-m-intersection", _sets("A", "B"),
    RelSpec("rel", "A & B", "A", M),
    gen=g.rand_sets("A", "B"), fixtures=_MEAN_FIX,
)
_refuted(
    "exam-sec2.3-m-union", _sets("A", "B"),
    RelSpec("rel", "B", "A | B", M),
    gen=g.rand_sets("A", "B"), fixtures=_MEAN_FIX,
)

_SOT_FIX = (whole("sot-failures", ("x", "y"), SOT_FAILURES, "A", "B"),)
_refuted(
    "exam-sec2.3-sot-inter-left", _sets("A", "B"),
    RelSpec("sot", "A & B", "A"),
    gen=g.rand_sets("A", "B"), fixtures=_SOT_FIX,
)
_refuted(
    "exam-sec2.3-sot-inter-right", _sets("A", "B"),
    RelSpec("sot", "A & B", "B"),
    gen=g.rand_sets("A", "B"), fixtures=_SOT_FIX,
)

_NEC_FIX = (whole("necessity-failures", ("x",), NECESSITY_FAILURES, "A", "B"),)
for _slug, _lhs, _rhs in (
    ("inter-left", "A & B", "A"),
    ("inter-right", "A & B", "B"),
    ("union-left", "A", "A | B"),
    ("union-right", "B", "A | B"),
    ("inter-union", "A & B", "A | B"),
):
    _refuted(
        f"exam-sec2.3-n-{_slug}", _sets("A", "B"),
        RelSpec("rel", _lhs, _rhs, N),
        gen=g.rand_sets("A", "B"), fixtures=_NEC_FIX,
    )

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
        f"exam-sec2.5-{_gk.letter}-{_op}-{_ck.letter}", _sets("A", "B", "C"),
        RelSpec("rel", f"A {_sym} C", f"B {_sym} C", _ck),
        guard_spec=RelSpec("rel", "A", "B", _gk),
        gen=g.pair(_gk, extra=1),
        fixtures=(
            slice_at(f"monotonicity-failures@{_elem}", _elem, MONOTONICITY_FAILURES, "A", "B", "C"),
        ),
    )

# complement contrapositives that fail
for _ck in (P, M):
    _refuted(
        f"exam-sec2.5c-p-compl-{_ck.letter}", _sets("A", "B"),
        RelSpec("rel", "B^c", "A^c", _ck),
        guard_spec=RelSpec("rel", "A", "B", P),
        gen=g.pair(P),
        fixtures=(slice_at("complement-failures@x", "x", COMPLEMENT_FAILURES, "A", "B"),),
    )
for _ck in (P, A_, M, S, T, N):
    _refuted(
        f"exam-sec2.5c-t-compl-{_ck.letter}", _sets("A", "B"),
        RelSpec("rel", "B^c", "A^c", _ck),
        guard_spec=RelSpec("rel", "A", "B", T),
        gen=g.pair(T),
        fixtures=(slice_at("complement-failures@y", "y", COMPLEMENT_FAILURES, "A", "B"),),
    )

# equality beyond =p/=a fails for absorption and distributivity
_EQ_FIX2 = (whole("equality-failures", ("x",), EQUALITY_FAILURES, "A", "B"),)
_EQ_FIX3 = (whole("equality-failures", ("x",), EQUALITY_FAILURES, "A", "B", "C"),)
_refuted(
    "exam-sec2.6-absorb-union-m", _sets("A", "B"),
    RelSpec("eq", "(A & B) | A", "A", M),
    gen=g.rand_sets("A", "B"), fixtures=_EQ_FIX2,
)
_refuted(
    "exam-sec2.6-absorb-inter-m", _sets("A", "B"),
    RelSpec("eq", "(A | B) & A", "A", M),
    gen=g.rand_sets("A", "B"), fixtures=_EQ_FIX2,
)
_refuted(
    "exam-sec2.6-distrib-m", _sets("A", "B", "C"),
    RelSpec("eq", "(A | B) & C", "(A & C) | (B & C)", M),
    gen=g.rand_sets("A", "B", "C"), fixtures=_EQ_FIX3,
)
_refuted(
    "exam-sec2.6-distrib2-m", _sets("A", "B", "C"),
    RelSpec("eq", "(A & B) | C", "(A | C) & (B | C)", M),
    gen=g.rand_sets("A", "B", "C"), fixtures=_EQ_FIX3,
)
_refuted(
    "exam-sec2.6-distrib2-eq", _sets("A", "B", "C"),
    RelSpec("multiset", "(A & B) | C", "(A | C) & (B | C)"),
    gen=g.rand_sets("A", "B", "C"), fixtures=_EQ_FIX3,
    note="0.4 appears on the right only",
)

_refuted(
    "exam-sec2.4-tconv", _sets("A", "B", "C"),
    RelSpec("rel", "A", "B", T),
    guard_spec=RelSpec("rel", "A", "B & C", T),
    gen=g.meet_tail_pair,
    fixtures=(whole("truncation-remark", ("x",), TRUNCATION_REMARK, "A", "B", "C"),),
)

LAWS: tuple[Law, ...] = tuple(_LAWS)

_BY_ID: dict[str, Law] = {}
for _lw in LAWS:
    if _lw.id in _BY_ID:
        raise AssertionError(f"duplicate law id {_lw.id}")
    if _lw.gen is None:
        raise AssertionError(f"law {_lw.id} has no binding generator")
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
