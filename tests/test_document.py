import json
from fractions import Fraction

import pytest

import hesitant.degrees
import hesitant.document
from hesitant import (
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
)


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
    calls = []
    parse = hesitant.degrees.parse_grid

    def counted(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(hesitant.degrees, "parse_grid", counted)
    monkeypatch.setattr(hesitant.document, "parse_grid", counted)
    text = _abc_doc_text()
    doc = load_document(text)
    data = json.loads(text)
    assert len(calls) == sum(len(v) for mem in data["sets"].values() for v in mem.values())
    calls.clear()
    for name in doc.set_names():
        doc.hfs(name)
    out = doc.with_set("AB", doc.hfs("A") | doc.hfs("B"))
    save_document(out)
    assert calls == []
