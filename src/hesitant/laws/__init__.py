"""Law registry, fixtures, and the randomized checking engine.

Every public name loads on first use, from the submodule that defines it:
`law_registry()` imports the registry, and `run_suite` the engine.
"""

from .. import _lazy

# Each submodule and the public names it defines.
_SOURCES = {
    "engine": (
        "GeneratorConfig LawResult SuiteReport Witness evaluate_law fixture_binding "
        "hunt_counterexample random_hfs replay_fixtures replay_witness run_law run_suite"
    ),
    "fixtures": "Fixture fixture_documents",
    "registry": "Law LawStatus get_law law_registry proved_laws refuted_laws render_table",
}
__all__, __getattr__, __dir__ = _lazy(globals(), _SOURCES)
