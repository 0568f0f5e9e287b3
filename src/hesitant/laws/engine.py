"""Randomized law suite: deterministic trial generation, replay, reports.

Every trial draws from its own SplitMix64 stream, seeded from
(suite seed, law id, trial index), so results are a pure function of the
configuration: independent of execution order, identical across runs, and
identical under the process-parallel path (which partitions work per law).
The serialized report is canonical JSON with timing excluded; elapsed times
live only on the in-memory objects.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields
from itertools import chain, repeat
from typing import Iterable, Mapping, Optional

from .._kernel import active
from ..degrees import format_grid
from ..elements import _on_lcm
from ..errors import UniverseMismatchError, collection
from ..sets import HFS, Family, Universe
from .algebra import EXACT, Algebra, grid_algebra
from .fixtures import Fixture
from .generators import SET
from .registry import Law, LawStatus, get_law, law_registry

DEFAULT_SEED = 20250808
MAX_GRID = 10**9
MAX_CARDINALITY = 64
MAX_UNIVERSE = 16
MAX_FAMILY = 8
WITNESS_CAP = 3
# Trials drawn per `draw_plan` call; the pure kernel computes their first
# blocks in wide passes. A hunt, which stops at its first witness, draws
# chunks of HUNT_CHUNKS first, so that a witness at trial 0 costs one trial.
CHUNK = 256
HUNT_CHUNKS = (1, 4, 16, 64)
_ONE_SET = ((SET, 0),)  # the plan of `random_hfs`


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic description of a suite run."""

    seed: int = DEFAULT_SEED
    universe_size: tuple[int, int] = (1, 4)
    cardinality: tuple[int, int] = (1, 6)
    degree_grid: int = 100
    trials: int = 10_000
    family_size: tuple[int, int] = (1, 5)
    # Unused (generators are constructive); kept since perfbench/pins.json pins the report.
    max_attempts: int = 1000

    def __post_init__(self) -> None:
        for name in ("seed", "degree_grid", "trials", "max_attempts"):
            if not _is_int(getattr(self, name)):
                raise TypeError(f"{name} must be an int")
        for name in ("universe_size", "cardinality", "family_size"):
            value = getattr(self, name)
            if type(value) is not tuple or len(value) != 2 or not all(map(_is_int, value)):
                raise TypeError(f"{name} must be a tuple of two ints")
        lo, hi = self.universe_size
        if not 1 <= lo <= hi <= MAX_UNIVERSE:
            raise ValueError(f"universe_size must be within 1..{MAX_UNIVERSE}")
        lo, hi = self.cardinality
        if not 1 <= lo <= hi <= MAX_CARDINALITY:
            raise ValueError(f"cardinality must be within 1..{MAX_CARDINALITY}")
        lo, hi = self.family_size
        if not 1 <= lo <= hi <= MAX_FAMILY:
            raise ValueError(f"family_size must be within 1..{MAX_FAMILY}")
        if not 1 <= self.degree_grid <= MAX_GRID:
            raise ValueError(f"degree_grid must be within 1..{MAX_GRID}")
        if MAX_GRID % self.degree_grid:
            raise ValueError(
                f"degree_grid must divide {MAX_GRID}, so that every degree k/grid "
                "has an exact decimal form"
            )
        if not 0 <= self.seed <= _MASK64:
            # the stream derivation reads the seed's 64 bits, and two seeds
            # that share them would run identical trials
            raise ValueError(f"seed must be within 0..{_MASK64}")
        if self.trials < 0:
            raise ValueError("trials must be non-negative")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")


def _is_int(value) -> bool:
    """An int that is not a bool: a bool field would run as 0 or 1."""
    return isinstance(value, int) and not isinstance(value, bool)


# --- deterministic stream derivation ---------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _mix(seed: int, *parts) -> int:
    """FNV-1a over the seed and the parts: str parts as their UTF-8 bytes, int
    parts as 8 little-endian bytes. The state after a prefix of the parts
    extends to the state after all of them."""
    h = (_FNV_OFFSET ^ (seed & _MASK64)) * _FNV_PRIME & _MASK64
    for part in parts:
        h = _extend(h, part.encode() if isinstance(part, str) else int(part).to_bytes(8, "little"))
    return h


def _extend(h: int, data: bytes) -> int:
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


# --- the trial loop ------------------------------------------------------------


def _bounds(config: GeneratorConfig) -> tuple:
    """The bounds `draw_plan` reads: (grid, universe size range, cardinality
    range, family size range)."""
    return (config.degree_grid, *config.universe_size, *config.cardinality, *config.family_size)


def _trials(law: Law, alg: Algebra, config: GeneratorConfig, lead: tuple = ()):
    """Yield (index, universe size, binding) for each trial of `law`.

    `law.gen` draws chunks of `lead` trials, then CHUNK at a time: the
    kernel's `draw_plan` seeds each trial's stream with `_mix(seed, law id,
    index)`, extending the (seed, law id) prefix hashed here once, draws the
    universe size and runs the law's plan. The binding is re-checked by the
    law's guard; it is None when the plan or the guard rejects the draw
    (starvation). So a trial depends only on (seed, law id, index), not on
    the chunks.
    """
    bounds = _bounds(config)
    prefix = _mix(config.seed, law.id)
    gen, guard, kern, one = law.gen, law.guard, alg.kern, alg.one
    first = 0
    for count in chain(lead, repeat(CHUNK)):
        count = min(count, config.trials - first)
        if not count:
            return
        drawn = gen(kern, bounds, prefix, first, count)
        for index, (size, binding) in enumerate(drawn, first):
            if binding is not None and guard is not None and not guard(kern, one, binding):
                binding = None
            yield index, size, binding
        first += count


# --- witnesses ------------------------------------------------------------------


def _serialize(value, kind: str, den: int) -> list:
    """A plain grid value of a param of this kind ("set" or "family") ->
    JSON-able lists of exact decimal degrees."""
    if kind == "family":
        return [_serialize(member, "set", den) for member in value]
    return [[format_grid(num, den) for num in h] for h in value]


def _universe_names(size: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, size + 1))


@dataclass(frozen=True)
class Witness:
    """A guard-true, claim-false binding, serializable and replayable."""

    law_id: str
    trial: int
    universe: tuple[str, ...]
    binding: Mapping[str, object]  # var -> [[degrees]] or [[[degrees]]]
    guard: bool = True
    claim: bool = False

    def to_objects(self) -> dict:
        """Rebuild public HFS/Family objects from the serialized binding."""
        law = get_law(self.law_id)
        uni = Universe(self.universe)
        out = {}
        for name, kind in law.params:
            data = self.binding[name]
            if kind == "set":
                out[name] = HFS(uni, {e: data[i] for i, e in enumerate(uni)})
            else:
                members = [
                    (f"{name}{j + 1}", HFS(uni, {e: m[i] for i, e in enumerate(uni)}))
                    for j, m in enumerate(data)
                ]
                out[name] = Family(members)
        return out

    def as_dict(self) -> dict:
        return {
            "law": self.law_id,
            "trial": self.trial,
            "universe": list(self.universe),
            "binding": {k: v for k, v in sorted(self.binding.items())},
            "guard": self.guard,
            "claim": self.claim,
        }


def _witness(law: Law, config: GeneratorConfig, index: int, size: int, binding: tuple) -> Witness:
    return Witness(
        law_id=law.id,
        trial=index,
        universe=_universe_names(size),
        binding={
            name: _serialize(value, kind, config.degree_grid)
            for (name, kind), value in zip(law.params, binding)
        },
    )


@dataclass(frozen=True)
class FixtureResult:
    name: str
    guard: bool
    claim: bool
    confirmed: bool  # refuted: guard and not claim; proved: guard implies claim


@dataclass(frozen=True)
class LawResult:
    law_id: str
    status: str
    trials: int
    violations: int
    starved: int
    witnesses: tuple[Witness, ...]
    fixtures: tuple[FixtureResult, ...]
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        if self.status == LawStatus.PROVED.value:
            return self.violations == 0 and all(f.confirmed for f in self.fixtures)
        return bool(self.fixtures) and all(f.confirmed for f in self.fixtures)

    @property
    def starvation_warning(self) -> bool:
        return self.starved > 0

    def as_dict(self) -> dict:
        return {
            "id": self.law_id,
            "status": self.status,
            "trials": self.trials,
            "violations": self.violations,
            "starved": self.starved,
            "witnesses": [w.as_dict() for w in self.witnesses],
            "fixtures": [
                {"name": f.name, "guard": f.guard, "claim": f.claim, "confirmed": f.confirmed}
                for f in self.fixtures
            ],
            "ok": self.ok,
        }


@dataclass(frozen=True)
class SuiteReport:
    config: GeneratorConfig
    results: tuple[LawResult, ...]
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def starved_laws(self) -> tuple[str, ...]:
        return tuple(r.law_id for r in self.results if r.starvation_warning)

    def result(self, law_id: str) -> LawResult:
        law = get_law(law_id)
        for r in self.results:
            if r.law_id == law.id:
                return r
        raise KeyError(f"law {law_id!r} was not part of this run")

    def as_dict(self) -> dict:
        config = {}
        for f in fields(GeneratorConfig):
            value = getattr(self.config, f.name)
            config[f.name] = list(value) if isinstance(value, tuple) else value
        return {
            "config": config,
            "laws": len(self.results),
            "ok": self.ok,
            "results": [r.as_dict() for r in self.results],
        }

    def canonical_json(self) -> bytes:
        """Deterministic serialization: no timing, no kernel name."""
        return (
            json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=False)
            + "\n"
        ).encode()


# --- fixtures and public evaluation -----------------------------------------


def fixture_binding(law: Law, fixture: Fixture) -> dict:
    """The law's sets bound to its fixture's example sets of the same names,
    as public objects for evaluate_law."""
    sets = fixture.sets
    return {name: sets[name] for name, kind in law.params if kind == "set"}


def exact_binding(law: Law, binding: Mapping[str, object]) -> tuple[Algebra, tuple]:
    """A binding of public HFS/Family objects as plain values on the lcm of
    all its denominators, in `law.params` order, and the exact algebra of
    that grid."""
    sets_of = {}
    for name, kind in law.params:
        try:
            value = binding[name]
        except KeyError:
            raise ValueError(f"law {law.id} needs a value for variable {name!r}") from None
        if not isinstance(value, HFS if kind == "set" else Family):
            article = "an HFS" if kind == "set" else "a Family"
            raise TypeError(f"variable {name!r} of law {law.id} must be {article}")
        sets_of[name] = (value,) if kind == "set" else value.sets
    if len({s.universe for sets_ in sets_of.values() for s in sets_}) > 1:
        raise UniverseMismatchError(f"binding of law {law.id} mixes universes")
    den, grids = _on_lcm(*((s._grid, s._den) for sets_ in sets_of.values() for s in sets_))
    grids = iter(grids)
    plain = []
    for name, kind in law.params:
        hfss = tuple(next(grids) for _ in sets_of[name])
        plain.append(hfss[0] if kind == "set" else hfss)
    return Algebra(EXACT.kern, den), tuple(plain)


def evaluate_law(law: Law | str, binding: Mapping[str, object]) -> dict:
    """Exact evaluation of one law on public HFS/Family objects.

    Returns {"guard": bool, "claim": bool}; a violation is guard true and
    claim false.
    """
    if isinstance(law, str):
        law = get_law(law)
    return grid_verdict(law, *exact_binding(law, binding))


def grid_verdict(law: Law, alg: Algebra, plain: tuple) -> dict:
    """{"guard": bool, "claim": bool} of `law` on a binding of plain grid
    values, in `law.params` order, under `alg`."""
    kern, one = alg.kern, alg.one
    guard = True if law.guard is None else bool(law.guard(kern, one, plain))
    return {"guard": guard, "claim": bool(law.claim(kern, one, plain))}


def replay_fixtures(law: Law) -> tuple[FixtureResult, ...]:
    out = []
    for fixture in law.fixtures:
        verdict = evaluate_law(law, fixture_binding(law, fixture))
        if law.status is LawStatus.REFUTED:
            confirmed = verdict["guard"] and not verdict["claim"]
        else:
            confirmed = (not verdict["guard"]) or verdict["claim"]
        out.append(
            FixtureResult(
                name=fixture.name,
                guard=verdict["guard"],
                claim=verdict["claim"],
                confirmed=confirmed,
            )
        )
    return tuple(out)


# --- the randomized suite -----------------------------------------------------


def random_hfs(config: GeneratorConfig, stream_index: int) -> HFS:
    """Deterministic random HFS: a pure function of (seed, stream_index).

    It is the one-move plan ((SET, 0),) run by the kernel's `draw_plan` as
    trial `stream_index` under the prefix `_mix(seed, "random_hfs")`: the
    universe size, then one free set. The index must be an int and not a
    bool (TypeError), within 0..2**64 - 1 (OverflowError)."""
    ((size, (plain,)),) = active.draw_plan(
        _ONE_SET, 1, _bounds(config), _mix(config.seed, "random_hfs"), stream_index, 1
    )
    return HFS._from_grid(Universe(_universe_names(size)), plain, config.degree_grid)


def run_law(law: Law | str, config: GeneratorConfig) -> LawResult:
    """Run one law: randomized trials for proved laws, fixture replay for
    both statuses."""
    if isinstance(law, str):
        law = get_law(law)
    started = time.perf_counter()
    alg = grid_algebra(config.degree_grid)
    claim, kern, one = law.claim, alg.kern, alg.one
    violations = 0
    starved = 0
    witnesses: list[Witness] = []
    trials_run = 0
    if law.status is LawStatus.PROVED:
        for index, size, binding in _trials(law, alg, config):
            if binding is None:
                starved += 1
                continue
            trials_run += 1
            if not claim(kern, one, binding):
                violations += 1
                if len(witnesses) < WITNESS_CAP:
                    witnesses.append(_witness(law, config, index, size, binding))
    fixtures = replay_fixtures(law)
    return LawResult(
        law_id=law.id,
        status=law.status.value,
        trials=trials_run,
        violations=violations,
        starved=starved,
        witnesses=tuple(witnesses),
        fixtures=fixtures,
        elapsed=time.perf_counter() - started,
    )


def _run_law_worker(args: tuple[str, GeneratorConfig]) -> LawResult:
    law_id, config = args
    return run_law(law_id, config)


def run_suite(
    config: GeneratorConfig,
    law_ids: Optional[Iterable[str]] = None,
    workers: int = 1,
) -> SuiteReport:
    """Run the registry (or a selection) against one configuration.

    The report is identical for any `workers` value: per-law results depend
    only on (config, law id) and are assembled in registry order, or in
    selection order with each law once however often it is named. At most
    one worker process runs per law and per CPU.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    started = time.perf_counter()
    if law_ids is None:
        laws = list(law_registry())
    else:
        law_ids = collection(law_ids, "law_ids", "law ids")
        laws = list({law.id: law for law in map(get_law, law_ids)}.values())
    workers = min(workers, len(laws), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: `concurrent.futures.process` is a noticeable share
        # of `import hesitant`, and only this branch needs it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = tuple(pool.map(_run_law_worker, [(law.id, config) for law in laws]))
    else:
        results = tuple(run_law(law, config) for law in laws)
    return SuiteReport(config=config, results=results, elapsed=time.perf_counter() - started)


def hunt_counterexample(law_id: str, config: GeneratorConfig) -> Optional[Witness]:
    """Search for a guard-true, claim-false binding within config.trials.

    Deterministic given config; returns the first witness or None. Proved
    laws never yield one (that is exactly what the suite asserts).
    """
    law = get_law(law_id)
    alg = grid_algebra(config.degree_grid)
    claim, kern, one = law.claim, alg.kern, alg.one
    for index, size, binding in _trials(law, alg, config, HUNT_CHUNKS):
        if binding is not None and not claim(kern, one, binding):
            return _witness(law, config, index, size, binding)
    return None


def replay_witness(witness: Witness) -> dict:
    """Re-evaluate a witness through the exact path; must reproduce the
    stored verdicts bit-exactly."""
    return evaluate_law(witness.law_id, witness.to_objects())

