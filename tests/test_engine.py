import pytest

from hesitant import (
    GeneratorConfig,
    UnknownLawError,
    hunt_counterexample,
    random_hfs,
    run_suite,
)
from hesitant.laws import replay_witness, run_law
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


def test_random_hfs_deterministic():
    cfg = GeneratorConfig(seed=7)
    assert random_hfs(cfg, 3) == random_hfs(cfg, 3)
    streams = [random_hfs(cfg, i) for i in range(8)]
    assert len({hash(s) for s in streams}) > 1  # indices give independent draws
    assert random_hfs(GeneratorConfig(seed=8), 3) != random_hfs(cfg, 3)


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
    `_trials` yields for every law, the binding as its sorted items."""
    import hashlib

    from hesitant import law_registry
    from hesitant.laws.algebra import grid_algebra
    from hesitant.laws.engine import _trials

    alg = grid_algebra(config.degree_grid)
    h = hashlib.sha256()
    for law in law_registry():
        for index, size, binding in _trials(law, alg, config):
            items = None if binding is None else sorted(binding.items())
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
