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
over the rows that also keeps the strict rows, the depths and the layer
masks, and `Ranking.unresolved` a read-only `Sequence` view over one bitset
per scheme of the later schemes incomparable with it, so no n² table of
verdicts or pairs is built.

`ranking_dot` reduces the strict part transitively from the layer masks
(Aho, Garey & Ullman, "The transitive reduction of a directed graph", SIAM
J. Comput. 1972). Of what is left of a scheme's strict above-set, the
deepest layer it meets holds covers only: a scheme between the scheme and
one of them would be deeper and still left. Those covers and their strict
rows are taken away, and the next such layer is found by bisecting the
cumulative layer masks. That is O(cover edges · log layers) operations on
n-bit integers. Schemes tied in their strict above-set share its covers,
which are found once. `ranking_dot_lines` yields the DOT in pieces of at
most one scheme's edges, and `hesitant rank --dot` writes them one by
one; `ranking_dot` joins them.

`ranking_report` yields the report in pieces: whole lines, and one piece of
the unresolved-pairs line per scheme that has any, holding its pairs with
the later schemes (at most n − 1), joined once. `format_ranking` joins the
pieces, and `hesitant rank` writes them one by one, so it holds no full
copy of the report. Each matrix row is rendered from its bitset a byte at
a time (Warren, "Hacker's Delight", 2nd ed., 2012, ch. 5): `row.to_bytes`
gives ⌈n/8⌉ bytes, each looked up in a table of its eight rendered cells,
and the joined row is cut to n cells. The table is made in each call and
filled from 16 rendered nibbles, one entry per byte value that occurs, so
it holds at most 256 × 8 cells of width + 2 characters and nothing
outlives the call. A report costs n²/8 lookups, and writes n²·(width + 2)
characters of matrix and the unresolved pairs. Both functions also accept
a `Ranking` built with any other `Mapping`: `_bitsets` builds its rows,
strict part and layer masks from the matrix alone, never from the
`layers` field.

⊂t is not rankable: it is irreflexive by cardinality and admits no equality,
so its strict part is not a preorder over arbitrary scheme sets.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, compress, groupby, islice, product, repeat
from math import lcm
from operator import index, itemgetter, or_

# `element_relation` stays bound here for perfbench/tracing.py, which rebinds
# it in this module to count calls; ranking itself never calls it.
from .relations import Inclusion, _not_a_kind, element_relation

RANKABLE = (
    Inclusion.POSSIBLE,
    Inclusion.ACCEPTABLE,
    Inclusion.MEAN,
    Inclusion.STRONG,
    Inclusion.NECESSARY,
)


class _Matrix(Mapping):
    """Read-only view (a, b) -> a ⊂ b over one bitset row per scheme,
    iterated row-major in scheme order, with the strict part's rows and
    layers."""

    __slots__ = ("_schemes", "_index", "rows", "cols", "strict", "depth", "layers")

    def __init__(self, schemes: tuple[str, ...], rows: list[int], cols: list[int]) -> None:
        self._schemes = schemes
        self._index = {s: i for i, s in enumerate(schemes)}
        self.rows = rows  # bit j of rows[i]: schemes[i] ⊂ schemes[j]
        self.cols = cols  # bit j of cols[i]: schemes[j] ⊂ schemes[i]
        self.strict = [r & ~c for r, c in zip(rows, cols)]  # strictly above i
        self.depth, self.layers = _depths(self.strict)

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

    def _groups(self):
        """(a, the later schemes incomparable with a) for each scheme with any."""
        return ((a, self._row(i)) for i, a in enumerate(self._schemes) if self._later[i])

    def __len__(self) -> int:
        return self._ends[-1]

    def __iter__(self):
        return chain.from_iterable(zip(repeat(a), row) for a, row in self._groups())

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


# '0'/'1' -> the bytes 0/1, so rendered bits select items in `compress`
_SELECT = bytes.maketrans(b"01", b"\0\1")


def _members(mask: int, items):
    """The items at the set bits of `mask`, in order."""
    bits = format(mask, f"0{len(items)}b")[::-1]  # bit 0 first
    return compress(items, bits.encode().translate(_SELECT))


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


def _depths(strict: list[int]) -> tuple[list[int], list[int]]:
    """The layer of each scheme, 1 + the longest chain strictly above it,
    and the mask of the schemes in each layer, best first."""
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
    return depth, layers


def rank_schemes(scores, kind: Inclusion) -> Ranking:
    """Rank the universe elements of one HFS by pairwise inclusion."""
    if kind not in RANKABLE:
        if not isinstance(kind, Inclusion):
            raise _not_a_kind(kind)
        raise ValueError(
            f"relation {kind.letter!r} is not rankable; choose one of "
            + ", ".join(k.letter for k in RANKABLE)
        )
    schemes = scores.universe.elements
    matrix = _Matrix(schemes, *_relation(scores._grid, kind))
    layers: list[list[str]] = [[] for _ in matrix.layers]
    for s, d in zip(schemes, matrix.depth):
        layers[d - 1].append(s)

    full = (1 << len(schemes)) - 1
    rows, cols = matrix.rows, matrix.cols
    later = [(full ^ (r | c)) >> (i + 1) for i, (r, c) in enumerate(zip(rows, cols))]
    return Ranking(
        kind=kind,
        schemes=schemes,
        matrix=matrix,
        layers=tuple(map(tuple, layers)),
        unresolved=_Pairs(schemes, later),
    )


def _bitsets(ranking: Ranking) -> _Matrix:
    """The bitset view of a ranking's matrix: the one that `rank_schemes`
    returns, or one built from any other `Mapping`, whose layers come from
    its own strict part and never from `ranking.layers`."""
    matrix, schemes = ranking.matrix, ranking.schemes
    if isinstance(matrix, _Matrix) and matrix._schemes == schemes:
        return matrix

    def mask(flags) -> int:
        return int("".join("1" if f else "0" for f in flags)[::-1], 2)

    rows = [mask(matrix[(a, b)] for b in schemes) for a in schemes]
    cols = [mask(matrix[(b, a)] for b in schemes) for a in schemes]
    return _Matrix(schemes, rows, cols)


def _dot_id(s: str) -> str:
    """A DOT quoted id: backslash and double quote escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def ranking_dot_lines(ranking: Ranking):
    """The pieces of `ranking_dot`, in order, each ending in a newline: the
    header lines, one line per scheme node, one piece per scheme holding
    its edge lines to all its covers, and the closing brace. A caller can
    write them out one at a time."""
    schemes = ranking.schemes
    view = _bitsets(ranking)
    strict, layers = view.strict, view.layers
    # beyond[k]: the schemes below layers 1 to k + 1
    full = (1 << len(schemes)) - 1
    beyond = [full ^ above for above in accumulate(layers, or_)]

    def covers(rest: int, k: int) -> list[str]:
        """The covers of a scheme with strict above-set `rest`, whose layer
        is the one below layers[k]."""
        found = []
        # Layer k meets `rest` first, since the scheme's depth is one more
        # than the longest chain above it. Each time, the deepest layer that
        # meets `rest` holds covers only; they and the schemes above them
        # leave `rest`: O(cover edges) n-bit operations, and one bisection
        # of the layers per layer of covers.
        while rest:
            layer = rest & layers[k]
            gone = layer
            while layer:
                low = layer & -layer
                j = low.bit_length() - 1
                found.append(schemes[j])
                gone |= strict[j]
                layer ^= low
            rest &= ~gone
            if rest:
                k = bisect_left(beyond, True, 0, k, key=lambda below: not rest & below)
        return found

    ids = {s: _dot_id(s) for s in schemes}
    yield "digraph ranking {\n"
    yield f'  label="strict ⊂{ranking.kind.letter} (edge points to the better scheme)";\n'
    yield "  rankdir=BT;\n"
    for s in schemes:
        yield f"  {ids[s]};\n"
    # The edges by name. A scheme's covers depend on its strict above-set
    # alone, so schemes tied in it share one list.
    tops: dict[int, list[str]] = {}  # strict above-set -> the covers' ids, by name
    for a, above, d in sorted(zip(schemes, strict, view.depth)):
        if above:
            if above not in tops:
                tops[above] = [ids[b] for b in sorted(covers(above, d - 2))]
            head = f"  {ids[a]} -> "
            yield head + (";\n" + head).join(tops[above]) + ";\n"
    yield "}\n"


def ranking_dot(ranking: Ranking) -> str:
    """Graph description (DOT) of the strict part, transitively reduced:
    the lines of `ranking_dot_lines`, joined."""
    return "".join(ranking_dot_lines(ranking))


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
    for a, row in zip(schemes, _bitsets(ranking).rows):
        cells = "".join(map(cells_of, row.to_bytes(size, "little")))
        yield a.rjust(width) + cells[:end] + "\n"
    yield "\nlayers, best first:\n"
    for i, layer in enumerate(ranking.layers, start=1):
        yield f"  {i}. {', '.join(layer)}\n"
    unresolved = ranking.unresolved
    if not unresolved:
        yield "no unresolved pairs\n"
        return
    # one piece per run of pairs with the same first scheme, so no piece
    # grows with the number of pairs: at most n - 1 of them from the view
    if isinstance(unresolved, _Pairs):
        groups = unresolved._groups()
    else:
        groups = ((a, map(itemgetter(1), run)) for a, run in groupby(unresolved, itemgetter(0)))
    lead = "unresolved pairs (incomparable): "
    for a, later in groups:
        prefix = a + "/"
        yield lead + prefix + (", " + prefix).join(later)
        lead = ", "
    yield "\n"


def format_ranking(ranking: Ranking) -> str:
    """Human-readable ranking report: the pieces of `ranking_report`, joined."""
    return "".join(ranking_report(ranking))
