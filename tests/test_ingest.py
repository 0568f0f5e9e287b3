import pytest

from hesitant import DocumentError, hfe, ingest_scores
from hesitant.ingest import scores_csv

ROWS = [
    ("x1", "e1", "0.9"),
    ("x1", "e2", ""),  # this expert skipped x1
    ("x1", "e3", "0.2"),
    ("x2", "e1", "0.6"),
    ("x2", "e2", "0.6"),
    ("x2", "e3", "0.5"),
    ("x3", "e1", "0.7"),
    ("x3", "e2", "0.5"),
    ("x3", "e3", "0.5"),
]


def test_ingest_collects_non_blank_scores():
    doc = ingest_scores(scores_csv(ROWS))
    assert doc.universe == ("x1", "x2", "x3")
    H = doc.hfs("H")
    assert H["x1"] == hfe("0.9", "0.2")
    assert H["x2"] == hfe("0.6", "0.6", "0.5")
    assert H["x3"] == hfe("0.7", "0.5", "0.5")


def test_ingest_custom_set_name():
    doc = ingest_scores(scores_csv(ROWS), set_name="scores")
    assert doc.set_names() == ("scores",)


def test_ingest_requires_header():
    with pytest.raises(DocumentError, match="header"):
        ingest_scores("x1,e1,0.9\n")


def test_ingest_rejects_fully_blank_scheme():
    rows = ROWS + [("x4", "e1", ""), ("x4", "e2", "")]
    with pytest.raises(DocumentError, match="x4"):
        ingest_scores(scores_csv(rows))


def test_ingest_rejects_bad_score_with_row_number():
    rows = [("x1", "e1", "1.5")]
    with pytest.raises(DocumentError, match="row 2"):
        ingest_scores(scores_csv(rows))


def test_ingest_rejects_empty_table():
    with pytest.raises(DocumentError):
        ingest_scores("")


def test_ingest_rejects_a_header_without_rows():
    """A table of its header alone (and blank lines) has no scheme to rank:
    a DocumentError, as every other malformed table gives."""
    for source in ("scheme,expert,score\n", "scheme,expert,score\n\n , , \n", b"scheme,score"):
        with pytest.raises(DocumentError, match="no score rows"):
            ingest_scores(source)


def test_ingest_drops_a_byte_order_mark():
    """Spreadsheets' "CSV UTF-8" starts with a byte-order mark; in bytes,
    text or a stream it is dropped, so the header still names its columns."""
    import io

    want = ingest_scores(scores_csv(ROWS))
    bom = "\ufeff" + scores_csv(ROWS)
    for source in (bom.encode("utf-8"), bom, io.BytesIO(bom.encode("utf-8")), io.StringIO(bom)):
        assert ingest_scores(source) == want


def test_ingest_refuses_bytes_that_are_not_utf8():
    """ingest_scores(b"\xff") raised UnicodeDecodeError."""
    for source in (b"\xff", b"scheme,score\nx1,0.5\n\xc3(\n"):
        with pytest.raises(DocumentError, match="^not UTF-8 text: invalid .* at byte [0-9]+$"):
            ingest_scores(source)
