"""Exact algebra, inclusion relations, and law checking for hesitant fuzzy sets.

A hesitant fuzzy set assigns each universe element a non-empty finite
multiset of membership degrees in [0, 1]. This package implements the
element and set algebra (union, intersection, complement) with exact
rational arithmetic, six inclusion relations of graded strength with their
equalities, family-level folds, a machine-checked registry of the algebra's
laws (proved ones verified by randomized trials, failed classical identities
replayed from fixed counterexamples), and a document/CLI layer for
decision-ranking workflows.

Every public name loads on first use: `import hesitant` imports none of
the submodules, and `hesitant.law_registry()` imports the registry and what
it needs, not documents, ingest, ranking or the engine (PEP 562).
"""

__version__ = "0.1.0"


def _lazy(namespace: dict, sources: dict) -> tuple:
    """The `__all__`, `__getattr__` and `__dir__` of the package whose globals
    are `namespace`. `sources` maps each submodule to the public names it
    defines, space-separated; a name is imported from its submodule on first
    use, then kept in the globals. The import goes through `__import__`, which
    `python -X importtime` reports, unlike `importlib.import_module`."""
    package = namespace["__name__"]
    source_of = {name: module for module, names in sources.items() for name in names.split()}

    def __getattr__(name: str):
        if name not in source_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = __import__(f"{package}.{source_of[name]}", fromlist=[name])
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> list:
        return sorted({*namespace, *source_of})

    return sorted(source_of), __getattr__, __dir__


# Each submodule and the public names it defines.
_SOURCES = {
    "degrees": "format_degree parse_degree render_rational",
    "document": "Document document_of load_document save_document",
    "elements": "HFE hfe make_hfe",
    "errors": "DegreeError DocumentError HesitantError UniverseMismatchError UnknownLawError",
    "expressions": "evaluate_on_hfs parse_expression",
    "ingest": "ingest_scores",
    "laws.engine": (
        "GeneratorConfig SuiteReport Witness evaluate_law hunt_counterexample random_hfs run_suite"
    ),
    "laws.fixtures": "fixture_documents",
    "laws.registry": "Law LawStatus get_law law_registry proved_laws refuted_laws",
    "ranking": "Ranking format_ranking rank_schemes ranking_dot",
    "relations": (
        "Inclusion RelationProfile best_subsequence classify_strong_or_tail element_relation "
        "is_subsequence pointwise_leq relation_profile set_equality set_relation"
    ),
    "sets": "HFS Family SetOp Universe combine complement family_fold is_subfamily make_hfs",
}
__all__, __getattr__, __dir__ = _lazy(globals(), _SOURCES)
