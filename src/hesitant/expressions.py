"""Expressions over named sets with union, intersection and complement.

Grammar (whitespace-insensitive)::

    expr   := term (("∪" | "|") term)*
    term   := factor (("∩" | "&") factor)*
    factor := atom ("ᶜ" | "^c")*
    atom   := NAME | "(" expr ")"

Intersection binds tighter than union; complement is a postfix and binds
tightest. Names may contain letters, digits, "_", "." and "-".

Parsing, evaluation, printing and comparison of trees all recurse, so an
expression may nest at most MAX_DEPTH levels: parentheses inside
parentheses, and operators over operators (a chain of n operators is n
levels deep). Deeper input is a ValueError, not a RecursionError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Union

from .sets import HFS

Node = Union["Var", "Compl", "Join", "Meet"]

MAX_DEPTH = 100


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


_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_.\-]*)|(?P<union>[∪|])|(?P<inter>[∩&])"
    r"|(?P<compl>ᶜ|\^c)|(?P<open>\()|(?P<close>\)))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"cannot parse expression at {rest[:12]!r}")
        pos = m.end()
        kind = m.lastgroup  # the one token group that matched
        tokens.append((kind, m[kind]))
    return tokens


def _level(height: int) -> int:
    """The height of a node over a child `height` levels deep, checked."""
    if height >= MAX_DEPTH:
        raise ValueError(f"expression nests deeper than {MAX_DEPTH} levels")
    return height + 1


# the token after the last one, so the parser reads past the end without a
# bounds check
_END = ("end", "")


class _Parser:
    """Recursive descent over tokens that end in `_END`; each method returns
    (node, height of the node)."""

    def __init__(self, tokens: list[tuple[str, str]]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.parens = 0  # parentheses open at the current position

    def expr(self) -> tuple[Node, int]:
        tokens = self.tokens
        node, height = self.term()
        while tokens[self.pos][0] == "union":
            self.pos += 1
            right, right_height = self.term()
            node, height = Join(node, right), _level(max(height, right_height))
        return node, height

    def term(self) -> tuple[Node, int]:
        tokens = self.tokens
        node, height = self.factor()
        while tokens[self.pos][0] == "inter":
            self.pos += 1
            right, right_height = self.factor()
            node, height = Meet(node, right), _level(max(height, right_height))
        return node, height

    def factor(self) -> tuple[Node, int]:
        tokens = self.tokens
        node, height = self.atom()
        while tokens[self.pos][0] == "compl":
            self.pos += 1
            node, height = Compl(node), _level(height)
        return node, height

    def atom(self) -> tuple[Node, int]:
        kind, text = self.tokens[self.pos]
        if kind == "name":
            self.pos += 1
            return Var(text), 0
        if kind == "open":
            self.pos += 1
            self.parens = _level(self.parens)
            found = self.expr()
            if self.tokens[self.pos][0] != "close":
                raise ValueError("missing closing parenthesis")
            self.pos += 1
            self.parens -= 1
            return found
        raise ValueError(f"expected a set name or '(', found {kind}")


def parse_expression(text: str) -> Node:
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty expression")
    tokens.append(_END)
    parser = _Parser(tokens)
    node, _ = parser.expr()
    if tokens[parser.pos] is not _END:
        raise ValueError(f"trailing input after expression: {tokens[parser.pos:-1]}")
    return node


def evaluate_on_hfs(node: Node, resolve: Callable[[str], HFS]) -> HFS:
    """Evaluate over public HFS objects, through the `HFS.union`,
    `intersection` and `complement` attributes as bound at each call."""
    if isinstance(node, Var):
        return resolve(node.name)
    if isinstance(node, Compl):
        return HFS.complement(evaluate_on_hfs(node.child, resolve))
    if isinstance(node, Join):
        return HFS.union(evaluate_on_hfs(node.left, resolve), evaluate_on_hfs(node.right, resolve))
    if isinstance(node, Meet):
        return HFS.intersection(evaluate_on_hfs(node.left, resolve), evaluate_on_hfs(node.right, resolve))
    raise TypeError(f"not an expression node: {node!r}")


def variables(node: Node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Compl):
        return variables(node.child)
    return variables(node.left) | variables(node.right)
