"""Expert-score ingestion: tabular scores -> document.

The table is CSV with a header naming at least `scheme` and `score` columns
(an `expert` column is conventional but unused beyond bookkeeping). A blank
score means the expert skipped that scheme, so the scheme's membership simply
collects the scores that exist. Scheme order follows first appearance.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable

# `parse_degree` stays bound here for perfbench/tracing.py, which rebinds it
# in this module; scores are parsed once, onto the grid.
from .degrees import SCALE, DegreeError, parse_degree, parse_grid
from .document import Document
from .errors import DocumentError, shown
from .sets import HFS, Universe


def ingest_scores(source, set_name: str = "H") -> Document:
    """Build a single-set document from a scores table.

    `source` is CSV text, bytes, or a readable stream.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    rows = []
    try:
        for row in csv.reader(io.StringIO(source)):
            if any(cell.strip() for cell in row):
                rows.append(row)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise DocumentError(f"row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise DocumentError("scores table is empty")
    header = [cell.strip().lower() for cell in rows[0]]
    try:
        scheme_col = header.index("scheme")
        score_col = header.index("score")
    except ValueError:
        raise DocumentError(
            "scores table needs a header row with 'scheme' and 'score' columns"
        ) from None
    scores: dict[str, list[int]] = {}  # scheme -> score numerators, in first-seen order
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) <= max(scheme_col, score_col):
            raise DocumentError(f"row {lineno}: too few columns")
        scheme = row[scheme_col].strip()
        if not scheme:
            raise DocumentError(f"row {lineno}: blank scheme name")
        members = scores.setdefault(scheme, [])
        raw = row[score_col].strip()
        if not raw:
            continue  # the expert skipped this scheme
        try:
            members.append(parse_grid(raw))
        except DegreeError as exc:
            raise DocumentError(f"row {lineno}: {exc}") from None
    empty = [scheme for scheme, members in scores.items() if not members]
    if empty:
        raise DocumentError(
            f"scheme {shown(empty[0])} has no scores at all; a membership cannot be empty"
        )
    grid = tuple(tuple(sorted(v, reverse=True)) for v in scores.values())
    hfs = HFS._from_grid(Universe(scores), grid, SCALE)
    return Document(universe=hfs.universe.elements, sets={set_name: hfs})


def scores_csv(rows: Iterable[tuple[str, str, str]]) -> str:
    """Render (scheme, expert, score) rows as CSV text with the header."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["scheme", "expert", "score"])
    for row in rows:
        writer.writerow(row)
    return out.getvalue()
