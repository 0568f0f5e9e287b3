"""Fixture data: the worked examples behind the refuted laws.

Every table is written as decimal strings, as in a document; `evaluate_law`
runs a fixture binding on its common integer grid, on the exact kernel.
`fixture_documents()` exposes the same data as round-trippable documents for
the CLI and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

Table = Mapping[str, Mapping[str, tuple[str, ...]]]


def _freeze(table: dict) -> Table:
    return MappingProxyType(
        {name: MappingProxyType({e: tuple(v) for e, v in mem.items()}) for name, mem in table.items()}
    )


@dataclass(frozen=True)
class Fixture:
    """One named variable binding: var -> element -> degree strings."""

    name: str
    universe: tuple[str, ...]
    binding: Table


# --- the three expression types and the equality convention -----------------
EXPRESSION_TYPES = _freeze(
    {
        "A": {"x": ("0.6", "0.5", "0.3"), "y": ("0.5", "0.3", "0.2")},
        "B": {"x": ("0.3", "0.6", "0.5"), "y": ("0.2", "0.5", "0.3")},
        "C": {"x": ("0.3", "0.3", "0.6", "0.5"), "y": ("0.2", "0.5", "0.3")},
    }
)
EXPRESSION_TYPES_UNIVERSE = ("x", "y")

# --- six decision schemes scored by a three-expert team ---------------------
EXPERT_SCORES = _freeze(
    {
        "H": {
            "x1": ("0.9", "0.2"),
            "x2": ("0.6", "0.6", "0.5"),
            "x3": ("0.7", "0.5", "0.5"),
            "x4": ("0.8", "0.6", "0.5"),
            "x5": ("0.9", "0.3", "0.1"),
            "x6": ("0.9", "0.8", "0.7"),
        }
    }
)
EXPERT_SCORES_UNIVERSE = ("x1", "x2", "x3", "x4", "x5", "x6")

# --- mean-inclusion failures for intersection/union -------------------------
MEAN_FAILURES = _freeze(
    {
        "A": {"x": ("0.1", "0.8"), "y": ("0.1", "0.8"), "z": ("0.7", "0.9")},
        "B": {"x": ("0.7", "0.9"), "y": ("0.1", "0.9"), "z": ("0.1", "0.8")},
    }
)
MEAN_FAILURES_UNIVERSE = ("x", "y", "z")

# --- strong/tail failure for the intersection vs its operands ---------------
SOT_FAILURES = _freeze(
    {
        "A": {"x": ("0.1", "0.2", "0.5", "0.6", "0.9"), "y": ("0.1", "0.7")},
        "B": {"x": ("0.05", "0.3", "0.4", "0.7", "0.8"), "y": ("0.8", "0.9", "0.9")},
    }
)
SOT_FAILURES_UNIVERSE = ("x", "y")

# --- necessity fails against union/intersection without a premise -----------
NECESSITY_FAILURES = _freeze(
    {
        "A": {"x": ("0.1", "0.3", "0.5")},
        "B": {"x": ("0.2", "0.4", "0.6")},
    }
)
NECESSITY_FAILURES_UNIVERSE = ("x",)

# --- guarded monotonicity failures with a third set, per scheme --------------
MONOTONICITY_FAILURES = _freeze(
    {
        "A": {
            "x1": ("0.2", "0.4"),
            "x2": ("0.2", "0.5"),
            "x3": ("0.3", "0.5"),
            "x4": ("0.5", "0.6"),
            "x5": ("0.6", "0.7"),
            "x6": ("0.3", "0.4"),
            "x7": ("0.3", "0.4"),
            "x8": ("0.3", "0.4"),
        },
        "B": {
            "x1": ("0.1", "0.1", "0.5"),
            "x2": ("0.1", "0.8"),
            "x3": ("0.4", "0.41"),
            "x4": ("0.6", "0.7"),
            "x5": ("0.8", "0.9"),
            "x6": ("0.1", "0.1", "0.3", "0.5"),
            "x7": ("0.1", "0.1", "0.3", "0.5"),
            "x8": ("0.5", "0.8"),
        },
        "C": {
            "x1": ("0.1", "0.2"),
            "x2": ("0.5",),
            "x3": ("0.45", "0.45"),
            "x4": ("0.7", "0.8"),
            "x5": ("0.1", "0.7"),
            "x6": ("0.3", "0.4"),
            "x7": ("0.1", "0.4"),
            "x8": ("0.8", "0.9"),
        },
    }
)
MONOTONICITY_FAILURES_UNIVERSE = tuple(f"x{i}" for i in range(1, 9))

# --- complement monotonicity failures ----------------------------------------
COMPLEMENT_FAILURES = _freeze(
    {
        "A": {"x": ("0.4", "0.4"), "y": ("0.2", "0.25")},
        "B": {"x": ("0.1", "0.1", "0.41"), "y": ("0.1", "0.2", "0.3")},
    }
)
COMPLEMENT_FAILURES_UNIVERSE = ("x", "y")

# --- absorption/distributivity beyond =p/=a fails -----------------------------
EQUALITY_FAILURES = _freeze(
    {
        "A": {"x": ("0.1", "0.2", "0.3")},
        "B": {"x": ("0.3", "0.4", "0.5")},
        "C": {"x": ("0.3", "0.45", "0.5")},
    }
)
EQUALITY_FAILURES_UNIVERSE = ("x",)

# --- tail inclusion into a meet does not imply tail into one operand ----------
TRUNCATION_REMARK = _freeze(
    {
        "A": {"x": ("0.3", "0.5", "0.7")},
        "B": {"x": ("0.8", "0.9")},
        "C": {"x": ("0.6", "0.8", "0.9")},
    }
)
TRUNCATION_REMARK_UNIVERSE = ("x",)


def whole(name: str, universe: tuple[str, ...], table: Table, *vars_: str) -> Fixture:
    """Fixture binding the listed variables to whole sets from a table."""
    return Fixture(
        name=name,
        universe=universe,
        binding=MappingProxyType({v: table[v] for v in vars_}),
    )


def slice_at(name: str, element: str, table: Table, *vars_: str) -> Fixture:
    """Fixture restricting the listed variables to a single-element universe."""
    return Fixture(
        name=name,
        universe=(element,),
        binding=MappingProxyType({v: MappingProxyType({element: table[v][element]}) for v in vars_}),
    )


#: Name -> (universe, {set name -> memberships}) for every shipped document.
DOCUMENT_TABLES: dict[str, tuple[tuple[str, ...], Table]] = {
    "expression-types": (EXPRESSION_TYPES_UNIVERSE, EXPRESSION_TYPES),
    "expert-scores": (EXPERT_SCORES_UNIVERSE, EXPERT_SCORES),
    "mean-failures": (MEAN_FAILURES_UNIVERSE, MEAN_FAILURES),
    "sot-failures": (SOT_FAILURES_UNIVERSE, SOT_FAILURES),
    "necessity-failures": (NECESSITY_FAILURES_UNIVERSE, NECESSITY_FAILURES),
    "monotonicity-failures": (MONOTONICITY_FAILURES_UNIVERSE, MONOTONICITY_FAILURES),
    "complement-failures": (COMPLEMENT_FAILURES_UNIVERSE, COMPLEMENT_FAILURES),
    "equality-failures": (EQUALITY_FAILURES_UNIVERSE, EQUALITY_FAILURES),
    "truncation-remark": (TRUNCATION_REMARK_UNIVERSE, TRUNCATION_REMARK),
}


def fixture_documents():
    """All fixture tables as canonical `Document` objects, keyed by name."""
    from ..document import Document
    from ..sets import HFS

    return {
        name: Document(universe=universe, sets={k: HFS(universe, v) for k, v in table.items()})
        for name, (universe, table) in DOCUMENT_TABLES.items()
    }
