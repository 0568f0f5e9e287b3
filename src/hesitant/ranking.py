"""Pairwise scheme ranking from one set's memberships.

The universe elements of the chosen set are treated as decision schemes and
compared pairwise with one inclusion relation. The output keeps exactly what
the pairwise judgments support: a boolean matrix, the layers of the strict
part (layer 1 holds the schemes nothing beats strictly), and the unresolved
(incomparable) pairs. Nothing breaks ties: the mean relation yields a total
preorder, the others may leave pairs incomparable, and that is reported, not
hidden.

Every rankable relation is a conjunction of threshold tests on per-scheme
integer keys: a ⊂ b iff f(a) <= g(b) for each of its (f, g) key pairs.
⊂p compares maxima, ⊂m means (exact: each sum scaled to the lcm of the
cardinalities), ⊂n a maximum with a minimum, ⊂a maxima and minima, and ⊂s
the cardinalities and then the degrees position by position. The keys are
the numerators of the set's grid, over its one common denominator, which
leaves every verdict unchanged because the relations only compare and add
degrees.

Cost, for n schemes holding D degrees in all: one sort of the schemes per
key, then one bitset row per scheme (bit j of row i is set when scheme i ⊂
scheme j) and one column (who is ⊂ scheme i), each the AND of one
threshold mask per test, found by bisection. That is O(n log n) for ⊂p,
⊂m, ⊂a and ⊂n and O(D log n) for ⊂s, in operations on n-bit integers, and
n²/4 bytes of rows and columns. Layers are longest paths over the strict
bitsets (row minus column), found per scheme by bisecting over the masks
of the layers above it. `Ranking.matrix` is a read-only `Mapping` view
over the rows, and `Ranking.unresolved` a read-only `Sequence` view over one
bitset per scheme of the later schemes incomparable with it, so no n² table
of verdicts or pairs is built. `ranking_dot` reduces the strict part
transitively from the same bitsets, walking each scheme's above-set closest
first and ORing away the rows of its covers only.

`ranking_report` yields the report in pieces: whole lines, and the
unresolved pairs 4096 at a time. `format_ranking` joins them, and `hesitant
rank` writes them one by one, so it holds no full copy of the report. Each
matrix row is rendered from its bitset a byte at a time (Warren, "Hacker's
Delight", 2nd ed., 2012, ch. 5): `row.to_bytes` gives ⌈n/8⌉ bytes, each
looked up in a table of its eight rendered cells, and the joined row is cut
to n cells. The table is made in each call and filled from 16 rendered
nibbles, one entry per byte value that occurs, so it holds at most 256 ×
8 cells of width + 2 characters and nothing outlives the call. A report
costs n²/8 lookups, and writes n²·(width + 2) characters of matrix and the
unresolved pairs. Both functions also accept a `Ranking` built with any
other `Mapping`, whose rows `_bitsets` builds.

⊂t is not rankable: it is irreflexive by cardinality and admits no equality,
so its strict part is not a preorder over arbitrary scheme sets.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice, product, repeat
from math import lcm
from operator import index, itemgetter, or_

# `element_relation` stays bound here for perfbench/tracing.py, which rebinds
# it in this module to count calls; ranking itself never calls it.
from .relations import Inclusion, element_relation

RANKABLE = (
    Inclusion.POSSIBLE,
    Inclusion.ACCEPTABLE,
    Inclusion.MEAN,
    Inclusion.STRONG,
    Inclusion.NECESSARY,
)


class _Matrix(Mapping):
    """Read-only view (a, b) -> a ⊂ b over one bitset row per scheme,
    iterated row-major in scheme order."""

    __slots__ = ("_schemes", "_index", "rows", "cols")

    def __init__(self, schemes: tuple[str, ...], rows: list[int], cols: list[int]) -> None:
        self._schemes = schemes
        self._index = {s: i for i, s in enumerate(schemes)}
        self.rows = rows  # bit j of rows[i]: schemes[i] ⊂ schemes[j]
        self.cols = cols  # bit j of cols[i]: schemes[j] ⊂ schemes[i]

    def __getitem__(self, key) -> bool:
        if isinstance(key, tuple) and len(key) == 2:
            i, j = map(self._index.get, key)
            if i is not None and j is not None:
                return self.rows[i] >> j & 1 == 1
        raise KeyError(key)

    def __len__(self) -> int:
        return len(self._schemes) ** 2

    def __iter__(self):
        return product(self._schemes, repeat=2)

    def __repr__(self) -> str:
        return repr(dict(self))


class _Pairs(Sequence):
    """Read-only view of the unresolved pairs (a, b), a before b, in scheme
    order, over one bitset per scheme of the later schemes incomparable with
    it; equal to the tuple of the same pairs."""

    __slots__ = ("_schemes", "_later", "_ends")

    def __init__(self, schemes: tuple[str, ...], later: list[int]) -> None:
        self._schemes = schemes
        self._later = later  # bit k of later[i]: schemes[i] and schemes[i + 1 + k]
        self._ends = list(accumulate((m.bit_count() for m in later), initial=0))

    def _row(self, i: int):
        return _members(self._later[i], self._schemes[i + 1 :])

    def __len__(self) -> int:
        return self._ends[-1]

    def __iter__(self):
        return chain.from_iterable(
            zip(repeat(a), self._row(i)) for i, a in enumerate(self._schemes) if self._later[i]
        )

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        k = index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("unresolved pair index out of range")
        i = bisect_right(self._ends, k) - 1
        return self._schemes[i], next(islice(self._row(i), k - self._ends[i], None))

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _Pairs)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class Ranking:
    kind: Inclusion
    schemes: tuple[str, ...]
    matrix: Mapping[tuple[str, str], bool]
    layers: tuple[tuple[str, ...], ...]
    unresolved: Sequence[tuple[str, str]]

    def strictly_above(self, low: str, high: str) -> bool:
        return self.matrix[(low, high)] and not self.matrix[(high, low)]


def _bits(mask: int, n: int) -> str:
    """The low n bits of `mask` as '0'/'1' characters, bit 0 first."""
    return format(mask, f"0{n}b")[::-1]


def _members(mask: int, items):
    """The items at the set bits of `mask`, in order."""
    return compress(items, map("1".__eq__, _bits(mask, len(items))))


def _thresholds(keyed: list[tuple], full: int):
    """For (key, index) pairs, the functions v -> mask of the indices whose
    key is >= v, and v -> mask of those whose key is <= v. An index of
    `full` with no key is unconstrained, so it is in every mask."""
    keyed = sorted(keyed)
    keys = [k for k, _ in keyed]
    suffix = list(accumulate((1 << i for _, i in reversed(keyed)), or_, initial=0))[::-1]
    keyless = full ^ suffix[0]
    return (
        lambda v: keyless | suffix[bisect_left(keys, v)],
        lambda v: keyless | (suffix[0] ^ suffix[bisect_right(keys, v)]),
    )


def _tests(grid: tuple[tuple, ...], kind: Inclusion):
    """The (f, g) keys, as (key, index) pairs, with a ⊂ b iff f(a) <= g(b)
    for every pair; a scheme missing from a key list is unconstrained by it."""
    if kind is Inclusion.MEAN:
        # mean(a) <= mean(b) with every sum on the lcm of the cardinalities
        scale = lcm(*{len(a) for a in grid})
        means = [(sum(a) * (scale // len(a)), i) for i, a in enumerate(grid)]
        return [(means, means)]
    tops = [(a[0], i) for i, a in enumerate(grid)]
    bottoms = [(a[-1], i) for i, a in enumerate(grid)]
    if kind is Inclusion.POSSIBLE:
        return [(tops, tops)]
    if kind is Inclusion.ACCEPTABLE:
        return [(tops, tops), (bottoms, bottoms)]
    if kind is Inclusion.NECESSARY:
        return [(tops, bottoms)]
    # ⊂s: |b| <= |a|, and a[k] <= b[k] at each position k that both have
    sizes = [(-len(a), i) for i, a in enumerate(grid)]
    at: list[list[tuple]] = []
    for i, a in enumerate(grid):
        at.extend([] for _ in range(len(a) - len(at)))
        for k, x in enumerate(a):
            at[k].append((x, i))
    return [(sizes, sizes)] + [(keyed, keyed) for keyed in at]


def _relation(grid: tuple[tuple, ...], kind: Inclusion) -> tuple[list[int], list[int]]:
    """The bitset row (who i is ⊂ of) and column (who is ⊂ i) of every scheme."""
    n = len(grid)
    full = (1 << n) - 1
    rows, cols = [full] * n, [full] * n
    for f, g in _tests(grid, kind):
        g_at_least, g_at_most = _thresholds(g, full)
        f_at_most = g_at_most if f is g else _thresholds(f, full)[1]
        for key, i in f:
            rows[i] &= g_at_least(key)
        for key, i in g:
            cols[i] &= f_at_most(key)
    return rows, cols


def _depths(strict: list[int]) -> list[int]:
    """The layer of each scheme: 1 + the longest chain strictly above it."""
    depth = [0] * len(strict)
    layers: list[int] = []  # layers[d]: mask of the schemes at layer d + 1
    placed = 0
    # The strict part is transitive and irreflexive: when j is strictly above
    # i, strict[i] holds all of strict[j] and j itself, so ascending bit
    # count is a topological order, best first.
    for i in sorted(range(len(strict)), key=lambda i: strict[i].bit_count()):
        above = strict[i]
        if above & ~placed:
            raise AssertionError("strict part of a transitive relation cannot cycle")
        # A scheme above i at layer d has one above it at layer d - 1, also
        # above i: the layers meeting `above` are a prefix, so bisect it.
        d = bisect_left(layers, True, key=lambda mask: not above & mask)
        if d == len(layers):
            layers.append(0)
        layers[d] |= 1 << i
        placed |= 1 << i
        depth[i] = d + 1
    return depth


def rank_schemes(scores, kind: Inclusion) -> Ranking:
    """Rank the universe elements of one HFS by pairwise inclusion."""
    if kind not in RANKABLE:
        raise ValueError(
            f"relation {kind.letter!r} is not rankable; choose one of "
            + ", ".join(k.letter for k in RANKABLE)
        )
    schemes = scores.universe.elements
    rows, cols = _relation(scores._grid, kind)
    depth = _depths([r & ~c for r, c in zip(rows, cols)])
    layers: list[list[str]] = [[] for _ in range(max(depth))]
    for s, d in zip(schemes, depth):
        layers[d - 1].append(s)

    full = (1 << len(schemes)) - 1
    later = [(full ^ (r | c)) >> (i + 1) for i, (r, c) in enumerate(zip(rows, cols))]
    return Ranking(
        kind=kind,
        schemes=schemes,
        matrix=_Matrix(schemes, rows, cols),
        layers=tuple(map(tuple, layers)),
        unresolved=_Pairs(schemes, later),
    )


def _bitsets(ranking: Ranking) -> tuple[list[int], list[int]]:
    """The bitset rows and columns of a ranking's matrix: those of the view
    that `rank_schemes` returns, or built from any other `Mapping`."""
    matrix, schemes = ranking.matrix, ranking.schemes
    if isinstance(matrix, _Matrix) and matrix._schemes == schemes:
        return matrix.rows, matrix.cols

    def mask(flags) -> int:
        return int("".join("1" if f else "0" for f in flags)[::-1], 2)

    rows = [mask(matrix[(a, b)] for b in schemes) for a in schemes]
    cols = [mask(matrix[(b, a)] for b in schemes) for a in schemes]
    return rows, cols


def _dot_id(s: str) -> str:
    """A DOT quoted id: backslash and double quote escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def ranking_dot(ranking: Ranking) -> str:
    """Graph description (DOT) of the strict part, transitively reduced."""
    schemes = ranking.schemes
    rows, cols = _bitsets(ranking)
    strict = [r & ~c for r, c in zip(rows, cols)]
    # Renumber the schemes closest first: a scheme strictly above another
    # has strictly fewer schemes strictly above it, so in order of
    # descending count every scheme comes after all the schemes below it.
    # above[p] is strict[order[p]] with its bits renumbered the same way.
    order = sorted(range(len(schemes)), key=lambda i: -strict[i].bit_count())
    pick = itemgetter(*order) if order else None
    above = [int("".join(pick(_bits(strict[i], len(order))))[::-1], 2) for i in order]
    edges = []
    for a, rest in zip(map(schemes.__getitem__, order), above):
        # The lowest scheme left above a covers it: every scheme below it
        # and above a came earlier, as a cover or above one. Whatever lies
        # above a cover is not one, so only the covers' rows are ORed away:
        # O(cover edges) operations on n-bit ints.
        while rest:
            low = rest & -rest
            p = low.bit_length() - 1
            edges.append((a, schemes[order[p]]))
            rest &= ~(above[p] | low)
    ids = {s: _dot_id(s) for s in schemes}
    lines = [
        "digraph ranking {",
        f'  label="strict ⊂{ranking.kind.letter} (edge points to the better scheme)";',
        "  rankdir=BT;",
    ]
    for s in schemes:
        lines.append(f"  {ids[s]};")
    for a, b in sorted(edges):
        lines.append(f"  {ids[a]} -> {ids[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# unresolved pairs per report piece
_PAIRS_PER_PIECE = 4096


class _ByteCells(dict):
    """Byte value -> its eight matrix cells, bit 0 first, each filled from
    two nibble renderings the first time that byte value occurs."""

    __slots__ = ("_nibbles",)

    def __init__(self, no: str, yes: str) -> None:
        super().__init__()
        pairs = (no + no, yes + no, no + yes, yes + yes)
        self._nibbles = [low + high for high in pairs for low in pairs]

    def __missing__(self, byte: int) -> str:
        cells = self[byte] = self._nibbles[byte & 15] + self._nibbles[byte >> 4]
        return cells


def ranking_report(ranking: Ranking):
    """The pieces of the human-readable ranking report, in order, each one
    or more whole lines or a part of the unresolved-pairs line; a caller can
    write them out one at a time."""
    schemes = ranking.schemes
    n = len(schemes)
    width = max(len(s) for s in schemes)
    yield f"pairwise ⊂{ranking.kind.letter} (row ⊂ column):\n"
    yield " " * (width + 2) + "  ".join(s.rjust(width) for s in schemes) + "\n"
    # each cell is "y" or "." right-aligned to the width, two spaces apart
    pad = " " * (width + 1)
    cells_of = _ByteCells(pad + ".", pad + "y").__getitem__
    size, end = (n + 7) // 8, n * (width + 2)
    rows, _ = _bitsets(ranking)
    for a, row in zip(schemes, rows):
        cells = "".join(map(cells_of, row.to_bytes(size, "little")))
        yield a.rjust(width) + cells[:end] + "\n"
    yield "\nlayers, best first:\n"
    for i, layer in enumerate(ranking.layers, start=1):
        yield f"  {i}. {', '.join(layer)}\n"
    if not ranking.unresolved:
        yield "no unresolved pairs\n"
        return
    # the pairs in batches, so no piece grows with the number of pairs
    pairs = map("/".join, ranking.unresolved)
    yield "unresolved pairs (incomparable): " + ", ".join(islice(pairs, _PAIRS_PER_PIECE))
    while batch := ", ".join(islice(pairs, _PAIRS_PER_PIECE)):
        yield ", " + batch
    yield "\n"


def format_ranking(ranking: Ranking) -> str:
    """Human-readable ranking report: the pieces of `ranking_report`, joined."""
    return "".join(ranking_report(ranking))
