import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import hesitant.degrees
import hesitant.document
from hesitant import (
    HFS,
    Document,
    DegreeError,
    DocumentError,
    Inclusion,
    document_of,
    fixture_documents,
    load_document,
    make_hfs,
    save_document,
    set_equality,
    Universe,
)
from hesitant.degrees import SCALE, format_grid, parse_grid

from conftest import degree_lists


def _abc_doc_text() -> str:
    return json.dumps(
        {
            "universe": ["x", "y"],
            "sets": {
                "A": {"x": ["0.6", "0.5", "0.3"], "y": ["0.5", "0.3", "0.2"]},
                "B": {"x": ["0.3", "0.6", "0.5"], "y": ["0.2", "0.5", "0.3"]},
                "C": {"x": ["0.3", "0.3", "0.6", "0.5"], "y": ["0.2", "0.5", "0.3"]},
            },
        }
    )


def test_load_parses_and_compares_sets():
    doc = load_document(_abc_doc_text())
    A, B, C = doc.hfs("A"), doc.hfs("B"), doc.hfs("C")
    assert set_equality(Inclusion.STRONG, A, B)
    assert not set_equality(Inclusion.STRONG, A, C)
    assert B == A and C != A


def test_load_drops_a_byte_order_mark():
    """A UTF-8 byte-order mark before the JSON, in bytes, text or a stream,
    is dropped."""
    import io

    want = load_document(_abc_doc_text())
    bom = "\ufeff" + _abc_doc_text()
    for source in (bom.encode("utf-8"), bom, io.BytesIO(bom.encode("utf-8")), io.StringIO(bom)):
        assert load_document(source) == want


@pytest.mark.parametrize("source", [3, None, ["{}"]])
def test_a_source_must_be_bytes_text_or_a_stream(source):
    """load_document(3) raised AttributeError: 'int' object has no attribute
    'removeprefix'; ingest_scores shares the reader."""
    from hesitant import ingest_scores

    message = f"^source must be bytes, str or a readable stream, not {type(source).__name__}$"
    for read in (load_document, ingest_scores):
        with pytest.raises(TypeError, match=message):
            read(source)


def test_load_validates_totality_with_path():
    with pytest.raises(DocumentError, match="'A'.*'y'"):
        load_document(json.dumps({"universe": ["x", "y"], "sets": {"A": {"x": ["0.5"]}}}))


def test_load_validates_degree_range_with_path():
    with pytest.raises(DocumentError, match="'A'"):
        load_document(json.dumps({"universe": ["x"], "sets": {"A": {"x": ["1.5"]}}}))


def test_load_rejects_unknown_keys_and_bad_shapes():
    with pytest.raises(DocumentError):
        load_document("[1, 2]")
    with pytest.raises(DocumentError):
        load_document(json.dumps({"universe": ["x"], "sets": {}, "bogus": 1}))
    with pytest.raises(DocumentError):
        load_document("{not json")


def test_family_validation():
    payload = {
        "universe": ["x"],
        "sets": {"A": {"x": ["0.5"]}},
        "families": {"F": ["A", "missing"]},
    }
    with pytest.raises(DocumentError, match="'missing'"):
        load_document(json.dumps(payload))
    payload["families"] = {"F": ["A"]}
    doc = load_document(json.dumps(payload))
    assert doc.family("F").names == ("A",)


def test_round_trip_identity_and_canonicalization():
    doc = load_document(_abc_doc_text())
    blob = save_document(doc)
    again = load_document(blob)
    assert again == doc
    assert save_document(again) == blob
    # degrees re-emitted canonical descending, minimal form
    assert json.loads(blob)["sets"]["B"]["x"] == ["0.6", "0.5", "0.3"]


def test_save_omits_empty_families():
    doc = load_document(_abc_doc_text())
    assert b"families" not in save_document(doc)


def test_all_fixture_documents_round_trip_byte_stably():
    for name, doc in fixture_documents().items():
        blob = save_document(doc)
        again = load_document(blob)
        assert again == doc, name
        assert save_document(again) == blob, name


def test_with_set_adds_result_set():
    doc = load_document(_abc_doc_text())
    result = doc.hfs("A") | doc.hfs("B")
    extended = doc.with_set("AB", result)
    assert extended.hfs("AB") == result
    assert "AB" in extended.set_names()


def test_hfs_and_family_return_the_stored_sets():
    doc = load_document(json.dumps({**json.loads(_abc_doc_text()), "families": {"F": ["C", "A"]}}))
    assert doc.hfs("A") is doc.hfs("A")
    assert doc.family("F").sets[0] is doc.hfs("C")
    assert doc.family("F").sets[1] is doc.hfs("A")


def test_with_set_shares_the_untouched_sets():
    doc = load_document(_abc_doc_text())
    result = doc.hfs("A") & doc.hfs("C")
    extended = doc.with_set("AC", result)
    assert extended.hfs("AC") is result
    for name in doc.set_names():
        assert extended.hfs(name) is doc.hfs(name)
    replaced = doc.with_set("B", result)
    assert replaced.hfs("B") is result
    assert replaced.hfs("A") is doc.hfs("A") and replaced.hfs("C") is doc.hfs("C")
    assert load_document(save_document(replaced)) == replaced


def test_document_of_shares_its_sets_and_round_trips():
    doc = load_document(_abc_doc_text())
    built = document_of({"Y": doc.hfs("B"), "X": doc.hfs("A")}, {"F": ["X", "Y"]})
    assert built.set_names() == ("X", "Y")
    assert built.hfs("Y") is doc.hfs("B")
    assert load_document(save_document(built)) == built


def test_non_decimal_degrees_are_refused_at_construction():
    third = make_hfs(["x", "y"], {"x": [Fraction(1, 3), "0.5"], "y": ["0.2"]})
    with pytest.raises(DegreeError, match="1/3"):
        document_of({"T": third})
    doc = load_document(_abc_doc_text())
    with pytest.raises(DegreeError, match="1/3"):
        doc.with_set("T", third)


def test_with_set_rejects_a_foreign_universe():
    doc = load_document(_abc_doc_text())
    with pytest.raises(DocumentError, match="different universe"):
        doc.with_set("Z", make_hfs(["x", "z"], {"x": ["0.5"], "z": ["0.5"]}))


def test_degree_strings_are_parsed_once_at_load(monkeypatch):
    rows, singles = [], []
    parse_row, parse = hesitant.degrees.parse_grid_row, hesitant.degrees.parse_grid

    def counted_row(texts):
        rows.append(list(texts))
        return parse_row(texts)

    def counted(text):
        singles.append(text)
        return parse(text)

    monkeypatch.setattr(hesitant.document, "parse_grid_row", counted_row)
    monkeypatch.setattr(hesitant.degrees, "parse_grid", counted)
    text = _abc_doc_text()
    doc = load_document(text)
    data = json.loads(text)
    # One row parse per membership list, and the plain degrees never reach
    # the per-degree parser.
    assert sorted(rows) == sorted(v for mem in data["sets"].values() for v in mem.values())
    assert singles == []
    rows.clear()
    for name in doc.set_names():
        doc.hfs(name)
    out = doc.with_set("AB", doc.hfs("A") | doc.hfs("B"))
    save_document(out)
    assert rows == [] and singles == []


# --- save: the hand-laid layout against json.dumps ------------------------

# Characters that JSON escapes, or that only ensure_ascii=True would escape.
_AWKWARD = '"\\/\x00\x01\x1f\x7f\n\t\b\u2028\u2029éß€😀'
_names = st.text(st.one_of(st.sampled_from(_AWKWARD), st.characters(blacklist_categories=("Cs",))), max_size=6)


def _dumps_save(doc: Document) -> bytes:
    """The oracle: the `json.dumps` layout that `save_document` writes by hand."""
    payload: dict = {
        "universe": list(doc.universe),
        "sets": {
            name: {e: [format_grid(n, s._den) for n in h] for e, h in zip(doc.universe, s._grid)}
            for name, s in doc.sets.items()
        },
    }
    if doc.families:
        payload["families"] = {name: list(v) for name, v in doc.families.items()}
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


@st.composite
def _documents(draw):
    universe = draw(st.lists(_names.filter(bool), min_size=1, max_size=6, unique=True))

    def membership():
        den = 10 ** draw(st.sampled_from([2, 9]))
        degree = st.one_of(st.just(0), st.just(den), st.integers(0, den))
        return [Fraction(k, den) for k in draw(st.lists(degree, min_size=1, max_size=4))]

    sets = {name: make_hfs(universe, {e: membership() for e in universe})
            for name in draw(st.lists(_names, max_size=4, unique=True))}
    families = {}
    if sets and draw(st.booleans()):
        members = st.lists(st.sampled_from(sorted(sets)), min_size=1, max_size=len(sets), unique=True)
        families = draw(st.dictionaries(_names, members, max_size=3))
    return Document(universe=tuple(universe), sets=sets, families=families)


@given(_documents())
def test_save_writes_the_json_dumps_layout(doc):
    blob = save_document(doc)
    assert blob == _dumps_save(doc)
    assert load_document(blob) == doc


def test_save_layout_of_the_edge_shapes():
    x = make_hfs(["x"], {"x": ["1", "0", "0.000000001", "0.99"]})
    for doc in (
        Document(universe=("x",), sets={}),
        Document(universe=("x",), sets={"": x}),
        Document(universe=("x",), sets={"A": x, "B": x}, families={"F": ("B", "A"), "": ("A",)}),
        *fixture_documents().values(),
    ):
        assert save_document(doc) == _dumps_save(doc)


def test_set_and_family_names_must_be_strings():
    x = make_hfs(["x"], {"x": ["0.5"]})
    with pytest.raises(DocumentError, match="set name 1 is not a string"):
        Document(universe=("x",), sets={1: x})
    with pytest.raises(DocumentError, match="family name None is not a string"):
        Document(universe=("x",), sets={"A": x}, families={None: ("A",)})


def test_names_are_checked_before_they_are_sorted():
    """A non-string name beside a string one is refused, not compared."""
    x = make_hfs(["x"], {"x": ["0.5"]})
    with pytest.raises(DocumentError, match="^set name 1 is not a string$"):
        Document(universe=("x",), sets={1: x, "A": x})
    with pytest.raises(DocumentError, match="^set name 1 is not a string$"):
        Document(universe=("x",), sets={"A": x, 1: x})
    with pytest.raises(DocumentError, match="^family name 2 is not a string$"):
        Document(universe=("x",), sets={"A": x}, families={"F": ("A",), 2: ("A",)})
    with pytest.raises(DocumentError, match=r"^family name \(1,\) is not a string$"):
        Document(universe=("x",), sets={"A": x}, families={(1,): ("A",), "F": ("A",)})


# --- load: the row parser against parse_grid per degree --------------------

@given(degree_lists)
def test_load_parses_each_list_as_parse_grid_does(texts):
    text = json.dumps({"universe": ["x"], "sets": {"A": {"x": texts}}})
    try:
        expected = sorted((parse_grid(t) for t in texts), reverse=True)
    except DegreeError as exc:
        with pytest.raises(DocumentError) as info:
            load_document(text)
        assert str(info.value) == f"set 'A', element 'x': {exc}"
    else:
        assert load_document(text).hfs("A") == HFS._from_grid(Universe(["x"]), (tuple(expected),), SCALE)
