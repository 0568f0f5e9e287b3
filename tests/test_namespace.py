"""The package namespaces load each public name on first use, and a call
imports only the modules it uses."""

import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import hesitant
import hesitant.laws
from hesitant import fixture_documents, save_document

SRC = str(Path(__file__).resolve().parent.parent / "src")

# The public names, in the order the packages list them.
ALL = {
    hesitant: [
        "DegreeError", "Document", "DocumentError", "Family", "GeneratorConfig", "HFE", "HFS",
        "HesitantError", "Inclusion", "Law", "LawStatus", "Ranking", "RelationProfile", "SetOp",
        "SuiteReport", "Universe", "UniverseMismatchError", "UnknownLawError", "Witness",
        "best_subsequence", "classify_strong_or_tail", "combine", "complement", "document_of",
        "element_relation", "evaluate_law", "evaluate_on_hfs", "family_fold", "fixture_documents",
        "format_degree", "format_ranking", "get_law", "hfe", "hunt_counterexample",
        "ingest_scores", "is_subfamily", "is_subsequence", "law_registry", "load_document",
        "make_hfe", "make_hfs", "parse_degree", "parse_expression", "pointwise_leq",
        "proved_laws", "random_hfs", "rank_schemes", "ranking_dot", "refuted_laws",
        "relation_profile", "render_rational", "run_suite", "save_document", "set_equality",
        "set_relation",
    ],
    hesitant.laws: [
        "Fixture", "GeneratorConfig", "Law", "LawResult", "LawStatus", "SuiteReport", "Witness",
        "evaluate_law", "fixture_binding", "fixture_documents", "get_law", "hunt_counterexample",
        "law_registry", "proved_laws", "random_hfs", "refuted_laws", "render_table",
        "replay_fixtures", "replay_witness", "run_law", "run_suite",
    ],
}


@pytest.mark.parametrize("package", ALL, ids=lambda package: package.__name__)
def test_public_names_resolve_to_their_submodules_objects(package):
    assert package.__all__ == ALL[package]
    resolved = set()
    for module, names in package._SOURCES.items():
        source = import_module(f"{package.__name__}.{module}")
        for name in names.split():
            assert getattr(package, name) is getattr(source, name), name
            resolved.add(name)
    assert resolved == set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("package", ALL, ids=lambda package: package.__name__)
def test_star_import_binds_every_public_name(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert {name: namespace[name] for name in package.__all__} == {
        name: getattr(package, name) for name in package.__all__
    }


@pytest.mark.parametrize("package", ALL, ids=lambda package: package.__name__)
def test_unknown_name_raises_attribute_error_naming_the_module(package):
    message = f"module '{package.__name__}' has no attribute 'nope'"
    with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
        package.nope
    assert not hasattr(package, "nope")


def _imported(*argv) -> set:
    """The modules that a fresh `python -X importtime ARGV` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_the_registry_imports_no_documents_ingest_ranking_or_engine():
    loaded = _imported("-c", "import hesitant; hesitant.law_registry()")
    assert "hesitant.laws.registry" in loaded
    unused = {"hesitant.document", "hesitant.ingest", "hesitant.ranking", "hesitant.laws.engine"}
    assert not loaded & (unused | {"json", "csv"})


@pytest.mark.parametrize("argv", [["relate", "A", "B"], ["ops", "(A | B) & C"]], ids=lambda a: a[0])
def test_relate_and_ops_import_no_laws_ranking_or_ingest(tmp_path, argv):
    path = tmp_path / "doc.json"
    path.write_bytes(save_document(fixture_documents()["equality-failures"]))
    command, *rest = argv
    loaded = _imported("-m", "hesitant", command, str(path), *rest)
    assert "hesitant.document" in loaded
    assert not loaded & {"hesitant.laws.registry", "hesitant.ranking", "hesitant.ingest"}
