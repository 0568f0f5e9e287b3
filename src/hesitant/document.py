"""Document format: universes, named sets, and families as structured text.

A document is a JSON object::

    {
      "universe": ["x", "y"],
      "sets": {
        "A": {"x": ["0.6", "0.5", "0.3"], "y": ["0.5", "0.3", "0.2"]}
      },
      "families": {"F": ["A", "B"]}
    }

Degrees are decimal strings end-to-end so exactness survives the wire.
Loading validates totality and ranges (errors carry the set/element path) and
canonicalizes: set and family names sorted, memberships in universe order,
degrees descending in minimal decimal form. Saving a canonical document is
byte-stable, so load(save(doc)) == doc and save(load(save(doc))) == save(doc).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

# `format_degree` and `parse_degree` stay bound here for perfbench/tracing.py,
# which rebinds them in this module; documents parse and format on the grid.
from .degrees import SCALE, DegreeError, format_degree, format_grid, parse_degree, parse_grid
from .elements import HFE
from .errors import DocumentError
from .sets import HFS, Family, Universe


def _decimals(h: HFE) -> tuple[str, ...]:
    """An HFE's degrees as minimal decimal strings, in canonical order."""
    return tuple(format_grid(n, h._den) for n in h._nums)


@dataclass(frozen=True)
class Document:
    universe: tuple[str, ...]
    sets: Mapping[str, Mapping[str, tuple[str, ...]]]
    families: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            uni = Universe(self.universe)
        except ValueError as exc:
            raise DocumentError(f"universe: {exc}") from None
        object.__setattr__(self, "universe", uni.elements)
        canon_sets: dict[str, dict[str, tuple[str, ...]]] = {}
        for name in sorted(self.sets):
            memberships = self.sets[name]
            missing = [e for e in uni if e not in memberships]
            if missing:
                raise DocumentError(f"set {name!r}: missing element {missing[0]!r}")
            extra = [e for e in memberships if e not in uni]
            if extra:
                raise DocumentError(f"set {name!r}: unknown element {sorted(extra)[0]!r}")
            canon_members: dict[str, tuple[str, ...]] = {}
            for e in uni:
                degrees = memberships[e]
                if isinstance(degrees, str) or not isinstance(degrees, Sequence):
                    raise DocumentError(f"set {name!r}, element {e!r}: expected a list of degrees")
                if not degrees:
                    raise DocumentError(f"set {name!r}, element {e!r}: membership is empty")
                try:
                    parsed = sorted((parse_grid(d) for d in degrees), reverse=True)
                except DegreeError as exc:
                    raise DocumentError(f"set {name!r}, element {e!r}: {exc}") from None
                canon_members[e] = tuple(format_grid(k, SCALE) for k in parsed)
            canon_sets[name] = canon_members
        object.__setattr__(self, "sets", canon_sets)
        canon_families: dict[str, tuple[str, ...]] = {}
        for fname in sorted(self.families):
            members = self.families[fname]
            if (
                isinstance(members, str)
                or not isinstance(members, Sequence)
                or not all(isinstance(m, str) for m in members)
            ):
                raise DocumentError(f"family {fname!r}: expected a list of set names")
            members = tuple(members)
            if not members:
                raise DocumentError(f"family {fname!r}: no members")
            unknown = [m for m in members if m not in canon_sets]
            if unknown:
                raise DocumentError(f"family {fname!r}: unknown set {unknown[0]!r}")
            if len(set(members)) != len(members):
                raise DocumentError(f"family {fname!r}: duplicate members")
            canon_families[fname] = members
        object.__setattr__(self, "families", canon_families)

    # --- object views ---------------------------------------------------

    @property
    def universe_obj(self) -> Universe:
        return Universe(self.universe)

    def set_names(self) -> tuple[str, ...]:
        return tuple(self.sets)

    def hfs(self, name: str) -> HFS:
        try:
            memberships = self.sets[name]
        except KeyError:
            raise DocumentError(f"unknown set {name!r}") from None
        return HFS(self.universe_obj, {e: degrees for e, degrees in memberships.items()})

    def family(self, name: str) -> Family:
        try:
            members = self.families[name]
        except KeyError:
            raise DocumentError(f"unknown family {name!r}") from None
        return Family([(m, self.hfs(m)) for m in members])

    def with_set(self, name: str, hfs: HFS) -> "Document":
        """A new document with one more (or replaced) set."""
        if hfs.universe.elements != self.universe:
            raise DocumentError(f"set {name!r} lives on a different universe")
        sets = {k: dict(v) for k, v in self.sets.items()}
        sets[name] = {e: _decimals(h) for e, h in hfs.items()}
        return Document(universe=self.universe, sets=sets, families=dict(self.families))


def document_of(sets: Mapping[str, HFS], families: Mapping[str, Sequence[str]] | None = None) -> Document:
    """Build a document from HFS objects sharing one universe."""
    if not sets:
        raise DocumentError("a document needs at least one set")
    universes = {s.universe for s in sets.values()}
    if len(universes) != 1:
        raise DocumentError("document sets must share one universe")
    uni = next(iter(universes))
    return Document(
        universe=uni.elements,
        sets={
            name: {e: _decimals(h) for e, h in s.items()}
            for name, s in sets.items()
        },
        families={name: tuple(members) for name, members in (families or {}).items()},
    )


def load_document(source) -> Document:
    """Parse a document from bytes, text, or a readable stream."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DocumentError("document root must be an object")
    unknown = set(data) - {"universe", "sets", "families"}
    if unknown:
        raise DocumentError(f"unknown document key {sorted(unknown)[0]!r}")
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
            raise DocumentError(f"set {name!r}: expected an object of memberships")
    return Document(universe=tuple(universe), sets=sets, families=families)


def save_document(doc: Document) -> bytes:
    """Canonical serialization; an empty families section is omitted."""
    payload: dict = {
        "universe": list(doc.universe),
        "sets": {name: {e: list(v) for e, v in mem.items()} for name, mem in doc.sets.items()},
    }
    if doc.families:
        payload["families"] = {name: list(v) for name, v in doc.families.items()}
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
