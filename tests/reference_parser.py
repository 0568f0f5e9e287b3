"""The earlier recursive-descent parser of set expressions: the oracle that
`parse_expression` is tested against.

It tokenizes first, so a character that begins no token is reported ahead
of any parse error, then descends one method per grammar level. Its trees
and its error messages are the ones `parse_expression` must give; the
trailing-input message names the rest of the text, clipped to 12
characters, as the tokenizer's message does.
"""

import re

from hesitant.expressions import MAX_DEPTH, Compl, Join, Meet, Var

_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_.\-]*)|(?P<union>[∪|])|(?P<inter>[∩&])"
    r"|(?P<compl>ᶜ|\^c)|(?P<open>\()|(?P<close>\)))"
)


def _tokenize(text):
    """(kind, text, start) per token."""
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
        kind = m.lastgroup
        tokens.append((kind, m[kind], m.start(kind)))
    return tokens


def _level(height):
    """The height of a node over a child `height` levels deep, checked."""
    if height >= MAX_DEPTH:
        raise ValueError(f"expression nests deeper than {MAX_DEPTH} levels")
    return height + 1


class _Parser:
    """Recursive descent over tokens that end in an "end" token; each method
    returns (node, height of the node)."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.parens = 0  # parentheses open at the current position

    def expr(self):
        node, height = self.term()
        while self.tokens[self.pos][0] == "union":
            self.pos += 1
            right, right_height = self.term()
            node, height = Join(node, right), _level(max(height, right_height))
        return node, height

    def term(self):
        node, height = self.factor()
        while self.tokens[self.pos][0] == "inter":
            self.pos += 1
            right, right_height = self.factor()
            node, height = Meet(node, right), _level(max(height, right_height))
        return node, height

    def factor(self):
        node, height = self.atom()
        while self.tokens[self.pos][0] == "compl":
            self.pos += 1
            node, height = Compl(node), _level(height)
        return node, height

    def atom(self):
        kind, text, _ = self.tokens[self.pos]
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


def parse(text):
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty expression")
    tokens.append(("end", "", len(text)))
    parser = _Parser(tokens)
    node, _ = parser.expr()
    kind, _, start = tokens[parser.pos]
    if kind != "end":
        raise ValueError(f"trailing input after expression at {text[start:].strip()[:12]!r}")
    return node
