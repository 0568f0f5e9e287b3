"""Pairwise scheme ranking from one set's memberships.

The universe elements of the chosen set are treated as decision schemes and
compared pairwise with one inclusion relation. The output keeps exactly what
the pairwise judgments support: a boolean matrix, the layers of the strict
part (layer 1 holds the schemes nothing beats strictly), and the unresolved
(incomparable) pairs. Nothing breaks ties: the mean relation yields a total
preorder, the others may leave pairs incomparable, and that is reported, not
hidden.

Cost, for n schemes: every HFE's integer numerators are rescaled once onto
the grid of the set's common denominator, which leaves every verdict
unchanged because the relations only compare and add degrees; then n²
integer verdicts fill the matrix. Layers are longest paths over the strict part, in O(n²).
`ranking_dot` reduces the strict part transitively with one bitset of the
schemes above each scheme, in O(n²) big-integer operations of n bits.

⊂t is not rankable: it is irreflexive by cardinality and admits no equality,
so its strict part is not a preorder over arbitrary scheme sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Mapping

# The pure kernel on purpose: it works on unbounded Python ints, and the
# common denominator of non-decimal degrees can exceed a C integer.
from ._kernel import _pykernel as _ops
from .elements import _scaled
# `element_relation` stays bound here for perfbench/tracing.py, which rebinds
# it in this module to count calls; ranking itself calls the kernel directly.
from .relations import Inclusion, element_relation

RANKABLE = (
    Inclusion.POSSIBLE,
    Inclusion.ACCEPTABLE,
    Inclusion.MEAN,
    Inclusion.STRONG,
    Inclusion.NECESSARY,
)


@dataclass(frozen=True)
class Ranking:
    kind: Inclusion
    schemes: tuple[str, ...]
    matrix: Mapping[tuple[str, str], bool]
    layers: tuple[tuple[str, ...], ...]
    unresolved: tuple[tuple[str, str], ...]

    def strictly_above(self, low: str, high: str) -> bool:
        return self.matrix[(low, high)] and not self.matrix[(high, low)]


def _grid(hfes) -> list[tuple[int, ...]]:
    """Each HFE's numerators rescaled onto the lcm of all their denominators."""
    den = lcm(*{h._den for h in hfes})
    return [_scaled(h._nums, den // h._den) for h in hfes]


def _above(verdict: list[list[bool]]) -> list[list[int]]:
    """For each scheme i, the schemes j strictly above it: i ⊂ j, not j ⊂ i."""
    return [
        [j for j, up in enumerate(row) if up and not verdict[j][i]]
        for i, row in enumerate(verdict)
    ]


def rank_schemes(scores, kind: Inclusion) -> Ranking:
    """Rank the universe elements of one HFS by pairwise inclusion."""
    if kind not in RANKABLE:
        raise ValueError(
            f"relation {kind.letter!r} is not rankable; choose one of "
            + ", ".join(k.letter for k in RANKABLE)
        )
    schemes = scores.universe.elements
    grid = _grid(scores.hfes)
    rel, code = _ops.e_rel, kind.code
    verdict = [[rel(code, a, b) for b in grid] for a in grid]
    matrix = {
        (a, b): v for a, row in zip(schemes, verdict) for b, v in zip(schemes, row)
    }

    # The strict part is transitive and irreflexive: when j is strictly above
    # i, above[i] holds all of above[j] and j itself, so ascending
    # len(above) is a topological order, best first.
    above = _above(verdict)
    layer = [0] * len(schemes)
    for i in sorted(range(len(schemes)), key=lambda i: len(above[i])):
        depths = [layer[j] for j in above[i]]
        if 0 in depths:
            raise AssertionError("strict part of a transitive relation cannot cycle")
        layer[i] = 1 + max(depths, default=0)
    layers: list[list[str]] = [[] for _ in range(max(layer))]
    for s, k in zip(schemes, layer):
        layers[k - 1].append(s)

    unresolved = tuple(
        (a, schemes[j])
        for i, a in enumerate(schemes)
        for j in range(i + 1, len(schemes))
        if not verdict[i][j] and not verdict[j][i]
    )
    return Ranking(
        kind=kind,
        schemes=schemes,
        matrix=matrix,
        layers=tuple(map(tuple, layers)),
        unresolved=unresolved,
    )


def _dot_id(s: str) -> str:
    """A DOT quoted id: backslash and double quote escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def ranking_dot(ranking: Ranking) -> str:
    """Graph description (DOT) of the strict part, transitively reduced."""
    schemes = ranking.schemes
    matrix = ranking.matrix
    verdict = [[matrix[(a, b)] for b in schemes] for a in schemes]
    above = _above(verdict)
    masks = [sum(1 << j for j in js) for js in above]
    edges = []
    for a, js in zip(schemes, above):
        # j covers a unless j lies above some other scheme above a
        implied = 0
        for j in js:
            implied |= masks[j]
        edges.extend((a, schemes[j]) for j in js if not implied >> j & 1)
    lines = [
        "digraph ranking {",
        f'  label="strict ⊂{ranking.kind.letter} (edge points to the better scheme)";',
        "  rankdir=BT;",
    ]
    for s in schemes:
        lines.append(f"  {_dot_id(s)};")
    for a, b in sorted(edges):
        lines.append(f"  {_dot_id(a)} -> {_dot_id(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_ranking(ranking: Ranking) -> str:
    """Human-readable ranking report."""
    schemes = ranking.schemes
    width = max(len(s) for s in schemes)
    lines = [f"pairwise ⊂{ranking.kind.letter} (row ⊂ column):"]
    header = " " * (width + 2) + "  ".join(s.rjust(width) for s in schemes)
    lines.append(header)
    for a in schemes:
        row = "  ".join(
            ("y" if ranking.matrix[(a, b)] else ".").rjust(width) for b in schemes
        )
        lines.append(f"{a.rjust(width)}  {row}")
    lines.append("")
    lines.append("layers, best first:")
    for i, layer in enumerate(ranking.layers, start=1):
        lines.append(f"  {i}. {', '.join(layer)}")
    if ranking.unresolved:
        pairs = ", ".join(f"{a}/{b}" for a, b in ranking.unresolved)
        lines.append(f"unresolved pairs (incomparable): {pairs}")
    else:
        lines.append("no unresolved pairs")
    return "\n".join(lines) + "\n"
