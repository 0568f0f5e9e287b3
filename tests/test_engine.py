import hashlib

import pytest

from hesitant import (
    GeneratorConfig,
    UnknownLawError,
    get_law,
    hunt_counterexample,
    random_hfs,
    run_suite,
)
from hesitant._kernel import _pykernel
from hesitant.laws import engine, replay_witness, run_law
from hesitant.laws.engine import replay_fixtures

SMALL = GeneratorConfig(trials=150)


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(universe_size=(0, 3))
    with pytest.raises(ValueError):
        GeneratorConfig(cardinality=(4, 2))
    with pytest.raises(ValueError):
        GeneratorConfig(degree_grid=0)
    with pytest.raises(ValueError):
        GeneratorConfig(trials=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(degree_grid=7)  # 5/7 has no exact decimal form
    for seed in (-1, 2**64):  # the streams read a seed's 64 bits
        with pytest.raises(ValueError, match="seed must be within"):
            GeneratorConfig(seed=seed)


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 1.5),
        ("seed", True),
        ("seed", "7"),
        ("trials", 2.5),
        ("trials", True),
        ("degree_grid", True),
        ("degree_grid", 100.0),
        ("max_attempts", 1000.0),
        ("universe_size", (1.0, 2)),
        ("universe_size", [1, 4]),
        ("universe_size", (1, 2, 3)),
        ("universe_size", 4),
        ("cardinality", (1, 6.0)),
        ("cardinality", (True, 6)),
        ("family_size", (1, "5")),
        ("family_size", None),
    ],
)
def test_config_rejects_non_int_fields(field, value):
    """Every field is an int, not a bool, or a tuple of two; the error names
    the field, at construction rather than inside a kernel."""
    with pytest.raises(TypeError, match=f"^{field} must be "):
        GeneratorConfig(**{field: value})


def test_random_hfs_deterministic():
    cfg = GeneratorConfig(seed=7)
    assert random_hfs(cfg, 3) == random_hfs(cfg, 3)
    streams = [random_hfs(cfg, i) for i in range(8)]
    assert len({hash(s) for s in streams}) > 1  # indices give independent draws
    assert random_hfs(GeneratorConfig(seed=8), 3) != random_hfs(cfg, 3)


# Four configs at the corners of the config space: the default, universe 16
# with cardinality 64 on grid 10**9, grid 1 at the largest seed, and one
# degree on grid 8.
_RANDOM_HFS_CONFIGS = (
    GeneratorConfig(),
    GeneratorConfig(seed=0, universe_size=(16, 16), cardinality=(64, 64), degree_grid=10**9),
    GeneratorConfig(seed=2**64 - 1, universe_size=(1, 16), cardinality=(1, 64), degree_grid=1),
    GeneratorConfig(seed=11, universe_size=(1, 1), cardinality=(1, 1), degree_grid=8),
)


def test_random_hfs_pinned(compiled, monkeypatch):
    """`random_hfs` at indices 0..99 and 2**64 - 1 of four configs, as the
    exact decimal degrees of each element, is a fixed function of the
    config on both kernels. (The digest over indices 0..999 is
    303f104e11f991d3ae3e4a692117953603356e2f82c4e33d5472850a292aa0fa.)"""
    for kernel in (_pykernel, compiled):
        monkeypatch.setattr(engine, "active", kernel)
        h = hashlib.sha256()
        for config in _RANDOM_HFS_CONFIGS:
            for i in (*range(100), 2**64 - 1):
                hfs = random_hfs(config, i)
                h.update(repr([(e, [str(d) for d in x.degrees]) for e, x in hfs.items()]).encode())
        assert h.hexdigest() == "84e712662c8881d64100a49947f53a80e38fb7ec000702460121f271e4046733", kernel


def test_random_hfs_rejects_bad_indices(compiled, monkeypatch):
    """A stream index is an int in 0..2**64 - 1: a str, a float, None or a
    bool is a TypeError, not the stream of its text, of its floor or of 0
    or 1."""
    for kernel in (_pykernel, compiled):
        monkeypatch.setattr(engine, "active", kernel)
        for index in ("3", 1.5, None, True, False):
            with pytest.raises(TypeError):
                random_hfs(SMALL, index)
        for index in (-1, 2**64, -(2**70)):
            with pytest.raises(OverflowError, match=r"0\.\.2\*\*64 - 1"):
                random_hfs(SMALL, index)
        assert random_hfs(SMALL, 2**64 - 1).universe


def test_random_hfs_grid_boundary():
    cfg = GeneratorConfig(seed=11, degree_grid=1)
    from fractions import Fraction

    for i in range(10):
        s = random_hfs(cfg, i)
        for _, h in s.items():
            assert set(h.degrees) <= {Fraction(0), Fraction(1)}


def test_small_suite_green():
    report = run_suite(SMALL)
    assert report.ok
    assert len(report.results) == 146
    assert report.starved_laws == ()


def test_zero_trials_vacuous():
    report = run_suite(GeneratorConfig(trials=0), law_ids=["prop2.1", "thm1.1"])
    assert all(r.trials == 0 and r.violations == 0 for r in report.results)
    assert report.ok


def test_seed_changes_keep_proved_outcomes():
    for seed in (1, 2):
        report = run_suite(GeneratorConfig(seed=seed, trials=100))
        assert report.ok


def test_suite_restriction_and_alias():
    report = run_suite(SMALL, law_ids=["thm3.abs-p"])
    assert len(report.results) == 1
    assert report.results[0].law_id == "thm3.4"


def test_run_suite_refuses_a_law_id_for_law_ids():
    """law_ids="thm1.1" failed with "unknown law id 't'"."""
    with pytest.raises(TypeError, match="^law_ids must be a collection of law ids, not str$"):
        run_suite(SMALL, law_ids="thm1.1")


def test_hunt_finds_mean_counterexamples():
    cfg = GeneratorConfig(trials=100_000)
    for law_id in ("exam-sec2.3-m-intersection", "exam-sec2.3-m-union"):
        witness = hunt_counterexample(law_id, cfg)
        assert witness is not None, law_id
        assert witness.guard and not witness.claim


def test_hunt_on_proved_law_finds_nothing():
    assert hunt_counterexample("prop13.1", GeneratorConfig(trials=400)) is None


def test_hunt_unknown_law():
    with pytest.raises(UnknownLawError):
        hunt_counterexample("nope", SMALL)


def test_hunt_guarded_refuted_law():
    witness = hunt_counterexample("exam-sec2.5-s-union-m", GeneratorConfig(trials=50_000))
    assert witness is not None


def test_witness_replay_reproduces_verdicts():
    witness = hunt_counterexample("exam-sec2.3-m-intersection", GeneratorConfig(trials=10_000))
    assert witness is not None
    verdict = replay_witness(witness)
    assert verdict == {"guard": witness.guard, "claim": witness.claim}


def test_run_law_accepts_law_or_id():
    r1 = run_law("prop3.1", SMALL)
    assert r1.ok and r1.trials == SMALL.trials
    assert r1.law_id == "prop3.1"


def test_replay_and_hunt_take_a_law_or_its_id():
    """One lookup serves every engine entry point: a law id, or the `Law`."""
    for law_id in ("exam-sec2.3-m-union", "exam-sec2.5-s-union-m", "prop3.1"):
        law = get_law(law_id)
        assert replay_fixtures(law) == replay_fixtures(law_id)
        cfg = GeneratorConfig(trials=2000)
        assert hunt_counterexample(law, cfg) == hunt_counterexample(law_id, cfg)
    assert hunt_counterexample(get_law("exam-sec2.3-m-union"), cfg) is not None


def test_a_law_passes_through_unchanged():
    """run_law runs the `Law` it is given, not the registry's copy, so a
    caller may replace its claim."""
    import dataclasses

    law = dataclasses.replace(get_law("prop3.1"), claim=lambda kern, one, binding: False)
    result = run_law(law, SMALL)
    assert result.violations == result.trials == SMALL.trials
    assert hunt_counterexample(law, SMALL).trial == 0


def test_refuted_fixture_results_reported():
    result = run_law("exam-sec2.4-tconv", SMALL)
    assert result.ok
    assert result.fixtures and all(f.confirmed for f in result.fixtures)
    assert result.trials == 0  # refuted laws replay fixtures, not trials


def test_canonical_json_bit_identical_across_runs():
    a = run_suite(GeneratorConfig(trials=60)).canonical_json()
    b = run_suite(GeneratorConfig(trials=60)).canonical_json()
    assert a == b


def test_parallel_equals_sequential():
    cfg = GeneratorConfig(trials=40)
    seq = run_suite(cfg, workers=1).canonical_json()
    par = run_suite(cfg, workers=2).canonical_json()
    assert seq == par


@pytest.mark.parametrize("cpus, expected", [(128, [3]), (2, [2]), (None, [])])
def test_workers_capped_by_laws_and_cpus(monkeypatch, cpus, expected):
    import concurrent.futures

    from hesitant.laws import engine

    sizes = []

    class SequentialPool:
        """Stand-in for ProcessPoolExecutor: records its size, runs inline."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # run_suite imports the pool class when it needs one, so patch its source.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SequentialPool)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
    cfg = GeneratorConfig(trials=20)
    law_ids = ["thm1.1", "prop2.1", "prop3.1"]
    report = run_suite(cfg, law_ids=law_ids, workers=64)
    assert sizes == expected  # an unknown CPU count runs inline, without a pool
    assert report.canonical_json() == run_suite(cfg, law_ids=law_ids).canonical_json()


@pytest.mark.parametrize("workers", [0, -3])
def test_run_suite_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        run_suite(GeneratorConfig(trials=1), law_ids=["thm1.1"], workers=workers)


@pytest.mark.parametrize("workers", [True, "2", 2.0, None])
def test_run_suite_refuses_workers_that_are_not_ints(workers):
    """workers=True ran one worker, and workers="2" failed comparing str
    and int."""
    with pytest.raises(TypeError, match=f"^workers must be an int, not {type(workers).__name__}$"):
        run_suite(GeneratorConfig(trials=1), law_ids=["thm1.1"], workers=workers)


def test_stream_derivation_pinned():
    """Streams, bindings and reports are a fixed function of the config:
    these digests must hold on every kernel and after any refactor."""
    import hashlib
    import json

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    report = run_suite(GeneratorConfig(trials=20))
    assert digest(report.canonical_json()) == (
        "8d5eef3119e07f5d997f65281ad693f6cc18107a26fa6761a376eef9c5770736"
    )
    starving = run_suite(GeneratorConfig(trials=30, cardinality=(1, 1)))
    assert len(starving.starved_laws) == 9
    assert digest(starving.canonical_json()) == (
        "d06d82f16803448db4823c4bccd653e654a5618308d8f1a5194ac9cfac171a5d"
    )
    witness = hunt_counterexample("exam-sec2.5-s-union-m", GeneratorConfig(trials=50_000))
    assert witness.trial == 16
    assert digest(json.dumps(witness.as_dict(), sort_keys=True).encode()) == (
        "188db3c22681afd3d85ac99ef0e853e03a0a59ebb197b02842d898adefe91c64"
    )


def test_violation_is_recorded_with_witness():
    # a refuted law run in "proved mode" would record violations; emulate by
    # hunting, then sanity-check the exact evaluation of its fixture
    from hesitant.laws import get_law

    law = get_law("exam-sec2.3-m-union")
    results = replay_fixtures(law)
    assert all(r.guard and not r.claim for r in results)


def test_suite_report_lookup():
    report = run_suite(SMALL, law_ids=["prop2.1"])
    assert report.result("prop2.1").law_id == "prop2.1"
    with pytest.raises(KeyError):
        report.result("thm1.1")


@pytest.mark.parametrize("seed", [1, 99, 2**40])
def test_suite_green_across_seeds_and_shapes(seed):
    cfg = GeneratorConfig(
        seed=seed, trials=60, universe_size=(1, 2), cardinality=(1, 3), degree_grid=10
    )
    report = run_suite(cfg)
    assert report.ok
    assert report.starved_laws == ()


def test_degenerate_cardinality_starves_tail_guards_without_failing():
    cfg = GeneratorConfig(trials=30, cardinality=(1, 1))
    report = run_suite(cfg)
    assert report.ok  # starvation is a warning, never a failure
    starved = set(report.starved_laws)
    # tail premises are unsatisfiable when every membership has one degree
    assert "prop13.5" in starved and "thm5.5" in starved
    for law_id in starved:
        assert report.result(law_id).trials == 0 or report.result(law_id).violations == 0


def test_grid_boundary_suite_green():
    report = run_suite(GeneratorConfig(trials=60, degree_grid=1))
    assert report.ok


def test_evaluate_law_with_family_binding():
    from hesitant import Family, Universe, evaluate_law, make_hfs

    uni = Universe(["x"])
    A = make_hfs(uni, {"x": ["0.2", "0.1"]})
    H1 = make_hfs(uni, {"x": ["0.5", "0.4", "0.3"]})
    H2 = make_hfs(uni, {"x": ["0.9", "0.6", "0.3", "0.3"]})
    fam = Family([("H1", H1), ("H2", H2)])
    verdict = evaluate_law("thm4.1", {"F": fam})
    assert verdict == {"guard": True, "claim": True}
    # A ⊂t both members, so A ⊂t the family meet
    verdict = evaluate_law("thm5.5", {"A": A, "F": fam})
    assert verdict == {"guard": True, "claim": True}
    # and with the per-element cardinality premise, A ⊂t the family join
    verdict = evaluate_law("thm5.6", {"A": A, "F": fam})
    assert verdict == {"guard": True, "claim": True}


def _binding_digest(config) -> str:
    """sha256 over (law id, index, universe size, binding) of every trial
    `_trials` yields for every law, the binding as its sorted (name, value)
    items."""
    import hashlib

    from hesitant import law_registry
    from hesitant.laws.algebra import grid_algebra
    from hesitant.laws.engine import _trials

    alg = grid_algebra(config.degree_grid)
    h = hashlib.sha256()
    for law in law_registry():
        for index, size, binding in _trials(law, alg, config):
            items = None if binding is None else sorted(zip((name for name, _ in law.params), binding))
            h.update(repr((law.id, index, size, items)).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "config, pinned",
    [
        (
            GeneratorConfig(trials=40),
            "ae6f50bdf0317fd4c924c6bb87a77dd6bed325b7a8d92bb79774e56c1b37e50f",
        ),
        (
            GeneratorConfig(
                trials=10,
                universe_size=(1, 16),
                cardinality=(1, 64),
                family_size=(1, 8),
                degree_grid=10**9,
            ),
            "89c3870831535e48d4085d616bfdb65acea916ed295b7616fd862fcba021c39d",
        ),
    ],
    ids=["default", "extreme"],
)
def test_trial_bindings_pinned(config, pinned):
    """The values every law draws, not only their verdicts: the canonical
    report holds counts, and a proved law's own bindings always verify, so
    neither would notice a generator that draws different values."""
    assert _binding_digest(config) == pinned
