"""The worked examples behind the refuted laws, and the fixtures that bind them.

Each example is one table, written as decimal strings as in a document: set
name -> element -> degrees. Its universe is the elements of its first set,
in order. `example_sets` parses a table once per process. A `Fixture` names
an example and, for a slice, one element; `engine.fixture_binding` binds a
law's sets to the example's sets of the same names, and `evaluate_law` runs
them on their common integer grid, on the exact kernel.
`fixture_documents()` exposes every example as a round-trippable document
for the CLI and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Mapping, Optional

from ..sets import HFS, Universe

EXAMPLES: dict[str, dict[str, dict[str, tuple[str, ...]]]] = {
    # the three expression types and the equality convention
    "expression-types": {
        "A": {"x": ("0.6", "0.5", "0.3"), "y": ("0.5", "0.3", "0.2")},
        "B": {"x": ("0.3", "0.6", "0.5"), "y": ("0.2", "0.5", "0.3")},
        "C": {"x": ("0.3", "0.3", "0.6", "0.5"), "y": ("0.2", "0.5", "0.3")},
    },
    # six decision schemes scored by a three-expert team
    "expert-scores": {
        "H": {
            "x1": ("0.9", "0.2"),
            "x2": ("0.6", "0.6", "0.5"),
            "x3": ("0.7", "0.5", "0.5"),
            "x4": ("0.8", "0.6", "0.5"),
            "x5": ("0.9", "0.3", "0.1"),
            "x6": ("0.9", "0.8", "0.7"),
        }
    },
    # mean-inclusion failures for intersection/union
    "mean-failures": {
        "A": {"x": ("0.1", "0.8"), "y": ("0.1", "0.8"), "z": ("0.7", "0.9")},
        "B": {"x": ("0.7", "0.9"), "y": ("0.1", "0.9"), "z": ("0.1", "0.8")},
    },
    # strong/tail failure for the intersection vs its operands
    "sot-failures": {
        "A": {"x": ("0.1", "0.2", "0.5", "0.6", "0.9"), "y": ("0.1", "0.7")},
        "B": {"x": ("0.05", "0.3", "0.4", "0.7", "0.8"), "y": ("0.8", "0.9", "0.9")},
    },
    # necessity fails against union/intersection without a premise
    "necessity-failures": {
        "A": {"x": ("0.1", "0.3", "0.5")},
        "B": {"x": ("0.2", "0.4", "0.6")},
    },
    # guarded monotonicity failures with a third set, per scheme
    "monotonicity-failures": {
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
    },
    # complement monotonicity failures
    "complement-failures": {
        "A": {"x": ("0.4", "0.4"), "y": ("0.2", "0.25")},
        "B": {"x": ("0.1", "0.1", "0.41"), "y": ("0.1", "0.2", "0.3")},
    },
    # absorption/distributivity beyond =p/=a fails
    "equality-failures": {
        "A": {"x": ("0.1", "0.2", "0.3")},
        "B": {"x": ("0.3", "0.4", "0.5")},
        "C": {"x": ("0.3", "0.45", "0.5")},
    },
    # tail inclusion into a meet does not imply tail into one operand
    "truncation-remark": {
        "A": {"x": ("0.3", "0.5", "0.7")},
        "B": {"x": ("0.8", "0.9")},
        "C": {"x": ("0.6", "0.8", "0.9")},
    },
}


@cache
def example_sets(example: str, element: Optional[str] = None) -> Mapping[str, HFS]:
    """The sets of a worked example over its universe, or only at `element`,
    parsed once per process."""
    table = EXAMPLES[example]
    universe = Universe((element,) if element else next(iter(table.values())))
    return MappingProxyType(
        {name: HFS(universe, {e: members[e] for e in universe}) for name, members in table.items()}
    )


@dataclass(frozen=True)
class Fixture:
    """A worked example, or its slice at one element, as a law's binding."""

    example: str
    element: Optional[str] = None

    @property
    def name(self) -> str:
        return self.example if self.element is None else f"{self.example}@{self.element}"

    @property
    def sets(self) -> Mapping[str, HFS]:
        return example_sets(self.example, self.element)

    @property
    def universe(self) -> tuple[str, ...]:
        return next(iter(self.sets.values())).universe.elements


def fixture_documents():
    """All worked examples as canonical `Document` objects, keyed by name."""
    from ..document import Document

    return {
        name: Document(universe=Fixture(name).universe, sets=example_sets(name)) for name in EXAMPLES
    }
