"""Expressions over named sets with union, intersection and complement.

Grammar (whitespace-insensitive)::

    expr   := term (("∪" | "|") term)*
    term   := factor (("∩" | "&") factor)*
    factor := atom ("ᶜ" | "^c")*
    atom   := NAME | "(" expr ")"

Intersection binds tighter than union; complement is a postfix and binds
tightest. Names may contain letters, digits, "_", "." and "-".

Parsing does not recurse: one regex scan splits the text into tokens, and
one loop builds the tree, keeping the pending ∪ and ∩ operands outside each
open parenthesis. Evaluation, printing, comparison of trees, `variables`
and `program` do recurse, so an expression may nest at most MAX_DEPTH
levels: parentheses inside parentheses, and operators over operators (a
chain of n operators is n levels deep). Deeper input is a ValueError, not a
RecursionError.

A law's terms are these nodes and `Fold`; `program` compiles one to the
postfix program over slots that both kernels' `term` runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Callable, NamedTuple, Union

from ._kernel import exact as _ops
from .errors import shown
from .sets import HFS, _binary

Node = Union["Var", "Compl", "Join", "Meet"]
Term = Union[Node, "Fold"]

MAX_DEPTH = 100

# A term program's operators, read by both kernels' `term`: ∪, ∩,
# complement, and the ⋂ and ⋃ folds.
UNION, INTER, COMPL, MEET_ALL, JOIN_ALL = TERM_OPS = range(-1, -6, -1)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Compl:
    child: Node

    def __str__(self) -> str:
        inner = str(self.child)
        if isinstance(self.child, (Join, Meet)):
            inner = f"({inner})"
        return f"{inner}ᶜ"


@dataclass(frozen=True)
class Join:
    left: Node
    right: Node

    def __str__(self) -> str:
        # both operators parse left to right: a right operand of the same
        # operator keeps its parentheses
        right = f"({self.right})" if isinstance(self.right, Join) else str(self.right)
        return f"{self.left} ∪ {right}"


@dataclass(frozen=True)
class Meet:
    left: Node
    right: Node

    def __str__(self) -> str:
        left = f"({self.left})" if isinstance(self.left, Join) else str(self.left)
        right = f"({self.right})" if isinstance(self.right, (Join, Meet)) else str(self.right)
        return f"{left} ∩ {right}"


class Fold(NamedTuple):
    """⋂F or ⋃F: the meet or the join of every member of family F."""

    op: str  # "⋂" or "⋃"
    family: str

    def __str__(self) -> str:
        return f"{self.op}{self.family}"


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_.\-]*|\^c|\S)")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# The kind of each operator token, and of "", which `parse_expression`
# appends as the end of input; any other token is a name if it starts as
# one, and otherwise a character that no token begins with.
_KIND = {"∪": "union", "|": "union", "∩": "inter", "&": "inter", "ᶜ": "compl", "^c": "compl",
         "(": "open", ")": "close", "": "end"}
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


def _at(text: str, k: int) -> str:
    """The text from its k-th token on, stripped and clipped to 12
    characters, quoted."""
    m = next(islice(_TOKEN.finditer(text), k, None))
    return repr(text[m.start(1):].strip()[:12])


def parse_expression(text: str) -> Node:
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ValueError("empty expression")
    tokens.append("")
    try:
        return _parse(text, tokens)
    except ValueError:
        # a character that begins no token is reported ahead of the parse
        # error it caused, wherever it stands
        for k, tok in enumerate(tokens):
            if tok not in _KIND and tok[0] not in _NAME_START:
                raise ValueError(f"cannot parse expression at {_at(text, k)}") from None
        raise


def _parse(text: str, tokens: list[str]) -> Node:
    """The tree of `tokens`, which end in "", in one pass: an operand, then
    the complements, the pending ∩ and ∪ and the closing parentheses that
    follow it, until the next operand or the end. Each open parenthesis
    keeps the pending ∪ and ∩ left operands outside it, with their heights."""
    frames = []
    join = meet = None
    join_height = meet_height = 0
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        kind = _KIND.get(tok)
        if kind == "open":
            if len(frames) >= MAX_DEPTH:
                raise ValueError(_TOO_DEEP)
            frames.append((join, join_height, meet, meet_height))
            join = meet = None
            continue
        # a character that begins no token fails here as kind None, and
        # `parse_expression` reports it instead
        if kind is not None or tok[0] not in _NAME_START:
            raise ValueError(f"expected a set name or '(', found {kind}")
        node, height = Var(tok), 0
        while True:
            kind = _KIND.get(tokens[i])
            while kind == "compl":
                if height >= MAX_DEPTH:
                    raise ValueError(_TOO_DEEP)
                node, height = Compl(node), height + 1
                i += 1
                kind = _KIND.get(tokens[i])
            if meet is not None:
                height = max(meet_height, height)
                if height >= MAX_DEPTH:
                    raise ValueError(_TOO_DEEP)
                node, height = Meet(meet, node), height + 1
            if kind == "inter":
                meet, meet_height = node, height
                break
            meet = None
            if join is not None:
                height = max(join_height, height)
                if height >= MAX_DEPTH:
                    raise ValueError(_TOO_DEEP)
                node, height = Join(join, node), height + 1
            if kind == "union":
                join, join_height = node, height
                break
            if not frames:
                if kind == "end":
                    return node
                raise ValueError(f"trailing input after expression at {_at(text, i)}")
            if kind != "close":
                raise ValueError("missing closing parenthesis")
            join, join_height, meet, meet_height = frames.pop()
            i += 1
        i += 1


def evaluate_on_hfs(node: Node, resolve: Callable[[str], HFS]) -> HFS:
    """Evaluate over public HFS objects, `resolve` mapping each name to its
    set. A bare name is the resolved set itself; any other tree is evaluated
    on unreduced (universe, grid, den) triples by the pure kernel's set
    functions, and its value reduced once into the result."""
    if isinstance(node, Var):
        s = resolve(node.name)
        if not isinstance(s, HFS):
            raise _not_resolved(node.name, s)
        return s
    return HFS._from_grid(*_on_grids(node, resolve))


def _not_resolved(name: str, value) -> TypeError:
    return TypeError(f"resolve must return an HFS, but returned {type(value).__name__} for {shown(name)}")


def _on_grids(node: Node, resolve: Callable[[str], HFS]) -> tuple:
    """The value of `node` as an unreduced (universe, grid, den) triple."""
    if isinstance(node, Var):
        s = resolve(node.name)
        try:
            return s._universe, s._grid, s._den
        except AttributeError:
            raise _not_resolved(node.name, s) from None
    if isinstance(node, Compl):
        universe, grid, den = _on_grids(node.child, resolve)
        return universe, _ops.u_compl(grid, den), den
    if isinstance(node, Join):
        op = _ops.u_union
    elif isinstance(node, Meet):
        op = _ops.u_inter
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return _binary(op, _on_grids(node.left, resolve), _on_grids(node.right, resolve))


def variables(node: Term) -> set[str]:
    """The names a term reads: its variables, or a fold's family."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Fold):
        return {node.family}
    if isinstance(node, Compl):
        return variables(node.child)
    return variables(node.left) | variables(node.right)


def program(node: Term, slot: dict) -> tuple:
    """The postfix program of a term over slots, `slot` mapping each name
    the term reads to its slot; a name outside it is a KeyError."""
    if isinstance(node, Var):
        return (slot[node.name],)
    if isinstance(node, Fold):
        return (slot[node.family], MEET_ALL if node.op == "⋂" else JOIN_ALL)
    if isinstance(node, Compl):
        return (*program(node.child, slot), COMPL)
    op = UNION if isinstance(node, Join) else INTER
    return (*program(node.left, slot), *program(node.right, slot), op)
