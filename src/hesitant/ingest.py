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
# in this module; scores are validated on the grid.
from .degrees import DegreeError, parse_degree, parse_grid
from .document import Document
from .errors import DocumentError


def ingest_scores(source, set_name: str = "H") -> Document:
    """Build a single-set document from a scores table.

    `source` is CSV text, bytes, or a readable stream.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    reader = csv.reader(io.StringIO(source))
    rows = [row for row in reader if any(cell.strip() for cell in row)]
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
    order: list[str] = []
    scores: dict[str, list[str]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) <= max(scheme_col, score_col):
            raise DocumentError(f"row {lineno}: too few columns")
        scheme = row[scheme_col].strip()
        if not scheme:
            raise DocumentError(f"row {lineno}: blank scheme name")
        if scheme not in scores:
            order.append(scheme)
            scores[scheme] = []
        raw = row[score_col].strip()
        if not raw:
            continue  # the expert skipped this scheme
        try:
            parse_grid(raw)
        except DegreeError as exc:
            raise DocumentError(f"row {lineno}: {exc}") from None
        scores[scheme].append(raw)
    empty = [scheme for scheme in order if not scores[scheme]]
    if empty:
        raise DocumentError(
            f"scheme {empty[0]!r} has no scores at all; a membership cannot be empty"
        )
    return Document(
        universe=tuple(order),
        sets={set_name: {scheme: tuple(v) for scheme, v in scores.items()}},
    )


def scores_csv(rows: Iterable[tuple[str, str, str]]) -> str:
    """Render (scheme, expert, score) rows as CSV text with the header."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["scheme", "expert", "score"])
    for row in rows:
        writer.writerow(row)
    return out.getvalue()
