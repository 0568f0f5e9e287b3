import hashlib
import json
import time

import pytest

from hesitant import GeneratorConfig, fixture_documents, save_document
from hesitant.cli import main
from hesitant.laws import engine


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


def test_relate_rejects_a_large_universe_with_one_duplicate(tmp_path, capsys):
    # the last id repeats the first; finding it must not take quadratic time
    ids = [f"x{i}" for i in range(100_000)] + ["x0"]
    path = tmp_path / "dupe.json"
    path.write_text(json.dumps({"universe": ids, "sets": {}}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "relate", path, "A", "B")
    assert time.perf_counter() - start < 10
    assert (code, out, err) == (2, "", "error: universe: duplicate universe element 'x0'\n")


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


def test_ops_into_an_unwritable_path_prints_nothing(docs_dir, tmp_path, capsys):
    """The output file is opened before the result is printed, as `rank
    --dot` opens its DOT file; a bad expression opens no file at all."""
    out_file = tmp_path / "no" / "such" / "out.json"
    code, out, err = run_cli(capsys, "ops", docs_dir / "equality-failures.json", "A | B", "-o", out_file)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert str(out_file) in err
    kept = tmp_path / "kept.json"
    kept.write_bytes(b"kept")
    for expr in ("A |", "A | Z"):
        code, out, _ = run_cli(capsys, "ops", docs_dir / "equality-failures.json", expr, "-o", kept)
        assert (code, out) == (2, "")
    assert kept.read_bytes() == b"kept"


def test_ops_unknown_set(docs_dir, capsys):
    code, _, err = run_cli(capsys, "ops", docs_dir / "equality-failures.json", "A | Z")
    assert code == 2
    assert "Z" in err


def test_ops_parse_error(docs_dir, capsys):
    code, _, err = run_cli(capsys, "ops", docs_dir / "equality-failures.json", "A |")
    assert code == 2


def test_ops_trailing_input_error_is_one_short_line(docs_dir, capsys):
    code, out, err = run_cli(capsys, "ops", docs_dir / "equality-failures.json", "A " + "B " * 5000)
    assert code == 2
    assert out == ""
    assert err == "error: trailing input after expression at 'B B B B B B '\n"
    assert len(err) < 100


def test_rank_with_dot(docs_dir, tmp_path, capsys):
    dot = tmp_path / "order.dot"
    code, out, _ = run_cli(
        capsys, "rank", docs_dir / "expert-scores.json", "H", "--kind", "n", "--dot", dot
    )
    assert code == 0
    assert "layers, best first:" in out
    assert '"x3" -> "x6";' in dot.read_text()


def test_rank_dot_into_an_unwritable_path_writes_no_report(docs_dir, tmp_path, capsys):
    dot = tmp_path / "no" / "such" / "order.dot"
    code, out, err = run_cli(
        capsys, "rank", docs_dir / "expert-scores.json", "H", "--kind", "p", "--dot", dot
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert str(dot) in err


@pytest.mark.parametrize("kind", list("pamsn"))
def test_rank_stdout_is_the_report(docs_dir, capsys, kind):
    from hesitant import Inclusion, rank_schemes
    from hesitant.ranking import format_ranking

    code, out, _ = run_cli(capsys, "rank", docs_dir / "expert-scores.json", "H", "--kind", kind)
    assert code == 0
    scores = fixture_documents()["expert-scores"].hfs("H")
    assert out == format_ranking(rank_schemes(scores, Inclusion.from_letter(kind)))


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


def test_check_report_into_an_unwritable_path_runs_no_law(tmp_path, capsys, monkeypatch):
    """The report file is opened before the suite runs, as `rank --dot` is."""

    def run_suite(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(engine, "run_suite", run_suite)
    report = tmp_path / "no" / "such" / "report.json"
    code, out, err = run_cli(capsys, "check", "--trials", "50", "--report", report)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and str(report) in err


def test_check_runs_a_law_named_twice_once(tmp_path, capsys):
    # thm3.idem-p is an alias of thm3.1
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "check", "--trials", "5", "--law", "thm3.1", "--law", "thm3.idem-p",
        "--law", "prop2.1", "--law", "thm3.1", "--report", report,
    )
    assert code == 0
    assert [line.split()[1] for line in out.splitlines() if line.startswith("ok")] == [
        "thm3.1", "prop2.1"
    ]
    data = json.loads(report.read_bytes())
    assert data["laws"] == 2
    assert [r["id"] for r in data["results"]] == ["thm3.1", "prop2.1"]


def test_check_defaults(capsys):
    code, out, _ = run_cli(capsys, "check", "--law", "thm1.1")
    assert code == 0
    assert out.startswith("ok  thm1.1                           10000 trials\n")
    assert "PASS: 1 laws, seed 20250808, 10000 trials/law, grid 1/100, " in out


def test_hunt_defaults(monkeypatch, capsys):
    configs = []
    monkeypatch.setattr(engine, "hunt_counterexample", lambda law_id, config: configs.append(config))
    code, out, _ = run_cli(capsys, "hunt", "prop13.1")
    assert (code, out) == (1, "no witness for prop13.1 within 100000 trials (seed 20250808)\n")
    assert configs == [GeneratorConfig(trials=100_000)]


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


def test_counterexamples_output_pinned(capsys):
    # every refuted statement, premise, claim and exact trace, byte for byte
    code, out, _ = run_cli(capsys, "counterexamples")
    assert code == 0
    assert len(out.splitlines()) == 676
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ae6cc181983c0bbabee143dda62dcc3d801314e137a02b3c024b6abe78e293ad"
    )


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


def test_ingest_and_relate_read_past_a_byte_order_mark(docs_dir, tmp_path, capsys):
    table = tmp_path / "bom.csv"
    table.write_bytes(b"\xef\xbb\xbfscheme,expert,score\nx1,e1,0.9\nx2,e1,0.6\n")
    code, _, err = run_cli(capsys, "ingest", table, "-o", tmp_path / "doc.json")
    assert (code, err) == (0, "")
    assert json.loads((tmp_path / "doc.json").read_text())["sets"]["H"]["x1"] == ["0.9"]
    doc = docs_dir / "expression-types.json"
    want = run_cli(capsys, "relate", doc, "A", "B")
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + doc.read_bytes())
    assert run_cli(capsys, "relate", bom, "A", "B") == want
    assert want[0] == 0


def test_ingest_bad_table(tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("scheme,expert,score\nx1,e1,banana\n")
    code, _, err = run_cli(capsys, "ingest", table, "-o", tmp_path / "doc.json")
    assert code == 2


def test_ingest_oversized_field(tmp_path, capsys):
    # a quoted field past csv.field_size_limit() (131072 characters)
    table = tmp_path / "big.csv"
    table.write_text('scheme,expert,score\nA,e1,"' + "x" * 200_000 + '"\n')
    code, _, err = run_cli(capsys, "ingest", table, "-o", tmp_path / "doc.json")
    assert code == 2
    assert err == "error: row 2: field larger than field limit (131072)\n"
    assert not (tmp_path / "doc.json").exists()


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


def test_deeply_nested_json_is_a_document_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run_cli(capsys, "relate", path, "A", "B")
    assert code == 2
    assert err == "error: not valid JSON: arrays or objects nested too deeply\n"


@pytest.mark.parametrize(
    "expr",
    ["(" * 5000 + "A" + ")" * 5000, "A" + "ᶜ" * 5000, " ∪ ".join(["A"] * 3000)],
    ids=["parentheses", "complements", "unions"],
)
def test_ops_rejects_too_deep_expressions(docs_dir, capsys, expr):
    code, out, err = run_cli(capsys, "ops", docs_dir / "expression-types.json", expr)
    assert code == 2
    assert out == ""
    assert err == "error: expression nests deeper than 100 levels\n"


def test_check_unknown_law_message(capsys):
    code, out, err = run_cli(capsys, "check", "--law", "nope")
    assert code == 2
    assert out == ""
    assert err == "error: unknown law id 'nope'\n"


@pytest.mark.parametrize("command", [["check", "--law"], ["hunt"], ["counterexamples"]])
def test_a_long_unknown_law_id_is_quoted_briefly(capsys, command):
    """A 3,000-character id was echoed whole in the error line."""
    code, out, err = run_cli(capsys, *command, "x" * 3000)
    assert (code, out) == (2, "")
    assert err == "error: unknown law id '" + "x" * 17 + "..." + "x" * 18 + "'\n"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_check_rejects_fewer_than_one_worker(capsys, workers):
    code, out, err = run_cli(capsys, "check", "--law", "thm1.1", "--workers", workers)
    assert code == 2
    assert out == ""
    assert err == f"error: workers must be at least 1, got {workers}\n"


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 5)])
@pytest.mark.parametrize("command", [["check", "--law", "thm1.1"], ["hunt", "exam-sec2.3-m-union"]])
def test_seed_outside_64_bits_is_rejected(capsys, command, seed):
    # the streams read a seed's low 64 bits: -1 would run the trials of
    # 2**64 - 1 and write a different seed into its report
    code, out, err = run_cli(capsys, *command, "--seed", seed)
    assert (code, out) == (2, "")
    assert err == "error: seed must be within 0..18446744073709551615\n"


@pytest.mark.parametrize(
    "command, shown",
    [
        (["check", "--law", "thm1.1"], "seed 18446744073709551615,"),
        (["hunt", "exam-sec2.3-m-union"], "witness for exam-sec2.3-m-union at trial 1:"),
    ],
)
def test_largest_seed_runs(capsys, command, shown):
    code, out, _ = run_cli(capsys, *command, "--trials", "3", "--seed", str(2**64 - 1))
    assert code == 0
    assert shown in out


@pytest.mark.parametrize(
    "doc, start",
    [
        ('{"universe": [' + "[" * 800 + "]" * 800 + "]}", "error: universe: "),
        (json.dumps({"universe": ["x"], "sets": {"N" * 5000: {"x": ["1.5"]}}}), "error: set 'NNN"),
        (json.dumps({"universe": ["x"], "sets": {"A": {"x": ["0." + "1" * 5000]}}}), "error: set 'A'"),
    ],
    ids=["nested-universe-element", "long-set-name", "long-degree"],
)
def test_validation_errors_quote_input_briefly(tmp_path, capsys, doc, start):
    path = tmp_path / "doc.json"
    path.write_text(doc)
    code, out, err = run_cli(capsys, "relate", path, "A", "B")
    assert code == 2
    assert err.startswith(start)
    assert len(err) < 200
