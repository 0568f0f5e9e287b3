"""Document format: universes, named sets, and families as structured text.

A document is a JSON object::

    {
      "universe": ["x", "y"],
      "sets": {
        "A": {"x": ["0.6", "0.5", "0.3"], "y": ["0.5", "0.3", "0.2"]}
      },
      "families": {"F": ["A", "B"]}
    }

Degrees are decimal strings on the wire only; a `Document` holds each set as
its canonical `HFS`, one integer grid over one denominator. Loading
validates totality and ranges (errors carry the set/element path) and parses
each degree string once, straight onto a grid over 10**9: `parse_grid_row`
checks a membership list of plain decimals with one match and converts it in
one pass, and hands any other list to `parse_grid` degree by degree.

Saving is canonical: set and family names sorted, memberships in universe
order, degrees descending in minimal decimal form, each set's degrees
brought onto 10**9 by one multiplier. The bytes are those of `json.dumps`
with `indent=2` and `ensure_ascii=False`, laid out by hand around the C
string escaper of the `json` module. So saving is byte-stable,
load(save(doc)) == doc, and a set with a degree that has no exact decimal
form (1/3) is refused at construction with a `DegreeError`. Set and family
names must be strings.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring as quote

# `format_degree` and `parse_degree` stay bound here for perfbench/tracing.py,
# which rebinds them in this module; documents parse and format on the grid.
from .degrees import SCALE, DegreeError, format_degree, format_grid, parse_degree, parse_grid_row
from .errors import DocumentError, attribute, require, shown
from .sets import HFS, Family, Universe


def _decimals(s: HFS) -> list[list[str]]:
    """A set's degrees as minimal decimal strings, per element; raises
    DegreeError for the first degree with no exact decimal form."""
    den = s._den
    scale, rest = divmod(SCALE, den)
    if rest:  # `format_grid` raises the error that names the degree
        return [[format_grid(n, den) for n in h] for h in s._grid]
    # `format_grid`, with one multiplier onto SCALE for the whole set.
    return [[f"0.{n * scale:09d}".rstrip("0") if 0 < n < den else "1" if n else "0" for n in h] for h in s._grid]


def _universe(elements) -> Universe:
    try:
        return Universe(elements)
    except ValueError as exc:
        raise DocumentError(f"universe: {exc}") from None


def _check_names(kind: str, names) -> None:
    """Refuse the first name that is not a string, before any sorting
    compares names."""
    for name in names:
        if not isinstance(name, str):
            raise DocumentError(f"{kind} name {shown(name)} is not a string")


@dataclass(frozen=True)
class Document:
    universe: tuple[str, ...]
    sets: Mapping[str, HFS]
    families: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        uni = _universe(self.universe)
        object.__setattr__(self, "universe", uni.elements)
        _check_names("set", self.sets)
        canon_sets: dict[str, HFS] = {}
        for name in sorted(self.sets):
            s = self.sets[name]
            if not isinstance(s, HFS):
                raise DocumentError(f"set {shown(name)}: expected an HFS")
            if s.universe != uni:
                raise DocumentError(f"set {shown(name)} lives on a different universe")
            if SCALE % s._den:
                _decimals(s)  # raises the DegreeError that names the degree
            canon_sets[name] = s
        object.__setattr__(self, "sets", canon_sets)
        _check_names("family", self.families)
        canon_families: dict[str, tuple[str, ...]] = {}
        for fname in sorted(self.families):
            members = self.families[fname]
            if (
                isinstance(members, str)
                or not isinstance(members, Sequence)
                or not all(isinstance(m, str) for m in members)
            ):
                raise DocumentError(f"family {shown(fname)}: expected a list of set names")
            members = tuple(members)
            if not members:
                raise DocumentError(f"family {shown(fname)}: no members")
            unknown = [m for m in members if m not in canon_sets]
            if unknown:
                raise DocumentError(f"family {shown(fname)}: unknown set {shown(unknown[0])}")
            if len(set(members)) != len(members):
                raise DocumentError(f"family {shown(fname)}: duplicate members")
            canon_families[fname] = members
        object.__setattr__(self, "families", canon_families)

    # --- object views ---------------------------------------------------

    def set_names(self) -> tuple[str, ...]:
        return tuple(self.sets)

    def hfs(self, name: str) -> HFS:
        try:
            return self.sets[name]
        except KeyError:
            raise DocumentError(f"unknown set {shown(name)}") from None

    def family(self, name: str) -> Family:
        try:
            members = self.families[name]
        except KeyError:
            raise DocumentError(f"unknown family {shown(name)}") from None
        return Family([(m, self.sets[m]) for m in members])

    def with_set(self, name: str, hfs: HFS) -> "Document":
        """A new document with one more (or replaced) set; the other sets
        are shared."""
        return Document(universe=self.universe, sets={**self.sets, name: hfs}, families=self.families)


def document_of(sets: Mapping[str, HFS], families: Mapping[str, Sequence[str]] | None = None) -> Document:
    """Build a document from HFS objects sharing one universe."""
    try:
        if not sets:
            raise DocumentError("a document needs at least one set")
        universe = next(iter(sets.values())).universe.elements
    except AttributeError:
        require(Mapping, "a mapping of set names to HFSs", sets=sets)
        require(HFS, "an HFS", **{f"set {shown(name)}": s for name, s in sets.items()})
        raise
    what = "a mapping of family names to set names"
    items = attribute(families or {}, "items", Mapping, what, "families")
    return Document(universe=universe, sets=sets, families={name: tuple(m) for name, m in items()})


def _parse_set(name: str, memberships: Mapping, uni: Universe) -> HFS:
    """One set's memberships of degree strings, parsed once, as an HFS."""
    missing = [e for e in uni if e not in memberships]
    if missing:
        raise DocumentError(f"set {shown(name)}: missing element {shown(missing[0])}")
    if len(memberships) != len(uni):  # then some element is not in the universe
        extra = [e for e in memberships if e not in uni]
        raise DocumentError(f"set {shown(name)}: unknown element {shown(sorted(extra)[0])}")
    grid = []
    for e in uni:
        degrees = memberships[e]
        if not isinstance(degrees, list):  # json.loads makes every array a list
            raise DocumentError(f"set {shown(name)}, element {shown(e)}: expected a list of degrees")
        if not degrees:
            raise DocumentError(f"set {shown(name)}, element {shown(e)}: membership is empty")
        try:
            grid.append(tuple(sorted(parse_grid_row(degrees), reverse=True)))
        except DegreeError as exc:
            raise DocumentError(f"set {shown(name)}, element {shown(e)}: {exc}") from None
    return HFS._from_grid(uni, tuple(grid), SCALE)


def source_text(source) -> str:
    """The text of bytes (UTF-8), text, or a readable stream of either,
    without a leading byte-order mark, as spreadsheets write one."""
    try:
        if hasattr(source, "read"):
            source = source.read()
        if isinstance(source, bytes):
            source = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if not isinstance(source, str):
        raise TypeError(f"source must be bytes, str or a readable stream, not {type(source).__name__}")
    return source.removeprefix("\ufeff")


def load_document(source) -> Document:
    """Parse a document from bytes, text, or a readable stream; a leading
    UTF-8 byte-order mark is dropped."""
    try:
        data = json.loads(source_text(source))
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("not valid JSON: arrays or objects nested too deeply") from None
    if not isinstance(data, dict):
        raise DocumentError("document root must be an object")
    unknown = set(data) - {"universe", "sets", "families"}
    if unknown:
        raise DocumentError(f"unknown document key {shown(sorted(unknown)[0])}")
    universe = data.get("universe")
    if not isinstance(universe, list):
        raise DocumentError("'universe' must be a list of element ids")
    sets = data.get("sets", {})
    if not isinstance(sets, dict):
        raise DocumentError("'sets' must be an object")
    families = data.get("families", {})
    if not isinstance(families, dict):
        raise DocumentError("'families' must be an object")
    for name, memberships in sets.items():
        if not isinstance(memberships, dict):
            raise DocumentError(f"set {shown(name)}: expected an object of memberships")
    uni = _universe(universe)
    parsed = {name: _parse_set(name, sets[name], uni) for name in sorted(sets)}
    return Document(universe=uni.elements, sets=parsed, families=families)


def save_document(doc: Document) -> bytes:
    """Canonical serialization; an empty families section is omitted.

    Writes the bytes of `json.dumps(payload, indent=2, ensure_ascii=False)`
    plus a newline, from one list of pieces. Names and element ids go
    through the string escaper that call uses; degrees are digits and a
    point, which need no escaping.
    """
    try:
        universe, sets, families = doc.universe, doc.sets, doc.families
    except AttributeError:
        require(Document, "a Document", doc=doc)
        raise
    universe = [quote(e) for e in universe]
    out = ['{\n  "universe": [\n    ', ",\n    ".join(universe), '\n  ],\n  "sets": {']
    heads = [f'      {e}: [\n        "' for e in universe]
    between = '",\n        "'
    sep = "\n    "
    for name, s in sets.items():
        out += sep, quote(name), ": {\n"
        for head, row in zip(heads, _decimals(s)):
            out += head, between.join(row), '"\n      ],\n'
        out[-1] = '"\n      ]\n    }'  # no comma after the last membership
        sep = ",\n    "
    out.append("\n  }" if sets else "}")
    if families:
        out.append(',\n  "families": {')
        sep = "\n    "
        for name, members in families.items():
            out += sep, quote(name), ": [\n      ", ",\n      ".join(map(quote, members)), "\n    ]"
            sep = ",\n    "
        out.append("\n  }")
    out.append("\n}\n")
    return "".join(out).encode("utf-8")
