import json

import pytest

from hesitant import fixture_documents, save_document
from hesitant.cli import main


@pytest.fixture()
def docs_dir(tmp_path):
    for name, doc in fixture_documents().items():
        (tmp_path / f"{name}.json").write_bytes(save_document(doc))
    return tmp_path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_relate(docs_dir, capsys):
    code, out, _ = run_cli(capsys, "relate", docs_dir / "expression-types.json", "A", "B")
    assert code == 0
    assert "A =s B: yes" in out
    assert "multiset equality: yes" in out
    code, out, _ = run_cli(capsys, "relate", docs_dir / "expression-types.json", "A", "C")
    assert code == 0
    assert "multiset equality: no" in out


def test_relate_unknown_set(docs_dir, capsys):
    code, _, err = run_cli(capsys, "relate", docs_dir / "expression-types.json", "A", "Z")
    assert code == 2
    assert "Z" in err


def test_relate_complement_failure_sets(docs_dir, capsys):
    code, out, _ = run_cli(capsys, "relate", docs_dir / "complement-failures.json", "A", "B")
    assert code == 0
    assert "A ⊂p B: yes" in out


def test_ops_expression_and_output(docs_dir, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "ops", docs_dir / "equality-failures.json", "(A | B) & C")
    assert code == 0
    assert "{0.5, 0.5, 0.45, 0.4, 0.3, 0.3, 0.3}" in out
    out_file = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "ops", docs_dir / "equality-failures.json", "A ∪ B", "-o", out_file,
        "--name", "AB",
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["sets"]["AB"]["x"] == ["0.5", "0.4", "0.3", "0.3"]


def test_ops_unknown_set(docs_dir, capsys):
    code, _, err = run_cli(capsys, "ops", docs_dir / "equality-failures.json", "A | Z")
    assert code == 2
    assert "Z" in err


def test_ops_parse_error(docs_dir, capsys):
    code, _, err = run_cli(capsys, "ops", docs_dir / "equality-failures.json", "A |")
    assert code == 2


def test_rank_with_dot(docs_dir, tmp_path, capsys):
    dot = tmp_path / "order.dot"
    code, out, _ = run_cli(
        capsys, "rank", docs_dir / "expert-scores.json", "H", "--kind", "n", "--dot", dot
    )
    assert code == 0
    assert "layers, best first:" in out
    assert '"x3" -> "x6";' in dot.read_text()


def test_rank_rejects_tail(docs_dir, capsys):
    with pytest.raises(SystemExit):
        main(["rank", str(docs_dir / "expert-scores.json"), "H", "--kind", "t"])


def test_check_single_law_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "check", "--trials", "50", "--law", "prop2.1", "--law",
        "exam-sec2.4-tconv", "--report", report,
    )
    assert code == 0
    assert "PASS" in out
    data = json.loads(report.read_bytes())
    assert data["ok"] is True
    assert {r["id"] for r in data["results"]} == {"prop2.1", "exam-sec2.4-tconv"}


def test_check_seed_flag_changes_nothing_for_proved(capsys):
    for seed in ("3", "4"):
        code, out, _ = run_cli(
            capsys, "check", "--trials", "40", "--seed", seed, "--law", "prop3.1"
        )
        assert code == 0


def test_counterexamples_all(capsys):
    code, out, _ = run_cli(capsys, "counterexamples")
    assert code == 0
    assert out.count("falsifies the claim") == 51
    assert "PASS: 51 refuted law(s) replayed" in out


def test_counterexamples_single_trace(capsys):
    code, out, _ = run_cli(capsys, "counterexamples", "exam-sec2.3-m-intersection")
    assert code == 0
    assert "mean[(A ∩ B)(x)] = 8/15" in out
    assert "mean[A(x)] = 9/20 = 0.45" in out
    code, out, _ = run_cli(capsys, "counterexamples", "exam-sec2.6-distrib2-eq")
    assert code == 0
    assert "values only on the right: 2/5 = 0.4" in out


def test_counterexamples_rejects_proved_law(capsys):
    code, _, err = run_cli(capsys, "counterexamples", "prop2.1")
    assert code == 2


def test_hunt_command(capsys):
    code, out, _ = run_cli(
        capsys, "hunt", "exam-sec2.3-m-union", "--trials", "10000"
    )
    assert code == 0
    assert "witness for exam-sec2.3-m-union" in out
    code, out, _ = run_cli(capsys, "hunt", "prop13.1", "--trials", "100")
    assert code == 1


def test_hunt_rejects_non_decimal_grid(capsys):
    code, out, err = run_cli(
        capsys, "hunt", "exam-sec2.6-distrib-m", "--grid", "7", "--trials", "2000"
    )
    assert code == 2
    assert "witness" not in out
    assert "degree_grid must divide" in err


def test_ingest_command(tmp_path, capsys):
    table = tmp_path / "scores.csv"
    table.write_text(
        "scheme,expert,score\nx1,e1,0.9\nx1,e2,\nx1,e3,0.2\nx2,e1,0.6\nx2,e2,0.6\nx2,e3,0.5\n"
    )
    out_doc = tmp_path / "doc.json"
    code, out, _ = run_cli(capsys, "ingest", table, "-o", out_doc)
    assert code == 0
    data = json.loads(out_doc.read_text())
    assert data["sets"]["H"]["x1"] == ["0.9", "0.2"]
    assert data["sets"]["H"]["x2"] == ["0.6", "0.6", "0.5"]


def test_ingest_bad_table(tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("scheme,expert,score\nx1,e1,banana\n")
    code, _, err = run_cli(capsys, "ingest", table, "-o", tmp_path / "doc.json")
    assert code == 2


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "relate", "/nonexistent.json", "A", "B")
    assert code == 2


@pytest.mark.parametrize(
    "members", [5, [["A"]], "AB", [1]], ids=["number", "nested-list", "string", "number-member"]
)
def test_ops_rejects_families_that_are_not_lists_of_names(tmp_path, capsys, members):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "universe": ["x"],
        "sets": {"A": {"x": ["0.5"]}, "B": {"x": ["0.4"]}},
        "families": {"F": members},
    }))
    code, out, err = run_cli(capsys, "ops", path, "A | B")
    assert code == 2
    assert out == ""
    assert "family 'F': expected a list of set names" in err
