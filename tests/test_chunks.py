"""Trials drawn a chunk at a time are the trials drawn one at a time.

The engine draws a law's trials in chunks of `engine.CHUNK`. These digests
were taken from the one-trial-per-call engine, at trial counts on both sides
of a chunk boundary, so a chunk that drops, repeats or reorders a trial, or
draws it from the wrong stream, changes one of them. They must hold on every
kernel.
"""

import dataclasses
import hashlib
import json

import pytest

from hesitant import GeneratorConfig, get_law, hunt_counterexample, run_suite
from hesitant.laws import engine
from hesitant.laws.algebra import grid_algebra
from hesitant.laws.engine import _trials

# The first law of each plan shape in the registry: every move, every
# ladder kind and length, every member choice and both statuses.
LAWS = [
    "thm1.1", "thm1.2", "thm1.5", "prop2.1", "prop2.2", "prop2.5", "prop2.6", "prop5.4", "prop7.1",
    "prop9.1", "prop9.2", "prop9.3", "prop9.4", "prop9.5", "prop13.1", "prop13.2", "prop13.3",
    "prop13.4", "prop13.5", "prop13.6", "thm2.1", "thm2.2", "thm2.4", "thm4.1", "thm5.1", "thm5.3",
    "thm5.7", "thm5.2", "thm5.4", "thm5.8", "thm5.5", "thm5.6", "thm6.1", "exam-sec2.5-m-inter-p",
    "exam-sec2.4-tconv",
]

# trials -> (sha256 of every (law, index, size, binding) `_trials` yields,
#            sha256 of `run_suite`'s canonical report over LAWS)
PINNED = {
    1: (
        "4b73457dbeb8673f2945714b6a5a9906c815cb1dd5b72de3b5ad84cb094617ac",
        "8a24261e7660f0bafa56f525d0a99f519e304bf7ca9e335da5877d1590c28d16",
    ),
    255: (
        "167ddc67be2c2a61eef763e899267f161e7db1611e4749b34aa3944a9f346c74",
        "447294e3dce18adfdc00c6d4150479ab7347a75b6207c0cefda98901e1c2646d",
    ),
    256: (
        "71f56e8628701ae507806d661e1733b45e27b0cb316142d89e3f44b8389733a7",
        "f8862461ad025990bc2b3d44330f9ca3951c7fde69306cd77895584feaaeca9e",
    ),
    257: (
        "ea64bd2c6e8add40c3e38a30cd418651630e90678905be4aaf4739cad994d01d",
        "57c5e0ffce87d166a08bf8b33030eec8eb232dce8cd920cbad3c7e4919dc3be8",
    ),
    600: (
        "8dacf06e3f85aa1dcff510480ab82d3df744662b156f1f8b856188ffa61300d0",
        "dc36336e6be5d2f8fc68fdfeda43ed96020c589fec139ef99e0a433ef7fe938b",
    ),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("trials", PINNED)
def test_trials_across_chunk_boundaries_pinned(trials):
    config = GeneratorConfig(trials=trials)
    alg = grid_algebra(config.degree_grid)
    h = hashlib.sha256()
    for law_id in LAWS:
        drawn = list(_trials(get_law(law_id), alg, config))
        assert [index for index, _, _ in drawn] == list(range(trials)), law_id
        names = [name for name, _ in get_law(law_id).params]
        for index, size, binding in drawn:
            items = None if binding is None else sorted(zip(names, binding))
            h.update(repr((law_id, index, size, items)).encode())
    report = run_suite(config, law_ids=LAWS).canonical_json()
    assert (h.hexdigest(), _digest(report)) == PINNED[trials]


# A refuted law whose first witness lies past the first chunk: just past it
# (trial 257) and inside the third (trial 632). Every chunk before it must be
# drawn whole, and the hunt must stop at the same trial.
@pytest.mark.parametrize(
    "seed, trial, pinned",
    [
        (31, 257, "105b2dfeee42bdfca06bd531ee653c249b9cfe7f90d6596985380a894dc32dc6"),
        (24, 632, "2dcdfb03a453ea2d11a0111b9d3a5630e370552cd22095e2f2f78aeb7998f3f4"),
    ],
)
def test_hunt_witness_past_the_first_chunk_pinned(seed, trial, pinned):
    config = GeneratorConfig(seed=seed, trials=1000, universe_size=(1, 1))
    witness = hunt_counterexample("exam-sec2.5-s-union-m", config)
    assert witness.trial == trial
    assert _digest(json.dumps(witness.as_dict(), sort_keys=True).encode()) == pinned


# A hunt draws chunks of 1, 4, 16 and 64 trials before whole ones, and stops
# drawing at its first witness: one trial for a witness at trial 0, and the
# chunk [85, 341) for one at trial 257.
@pytest.mark.parametrize(
    "law_id, config, trial, chunks",
    [
        ("exam-sec2.3-n-inter-left", GeneratorConfig(trials=100_000), 0, [(0, 1)]),
        (
            "exam-sec2.5-s-union-m",
            GeneratorConfig(seed=31, trials=1000, universe_size=(1, 1)),
            257,
            [(0, 1), (1, 4), (5, 16), (21, 64), (85, 256)],
        ),
    ],
)
def test_hunt_draws_small_chunks_first(monkeypatch, law_id, config, trial, chunks):
    law = get_law(law_id)
    drawn = []

    def gen(kern, bounds, prefix, first, count):
        drawn.append((first, count))
        return law.gen(kern, bounds, prefix, first, count)

    monkeypatch.setattr(engine, "get_law", lambda _: dataclasses.replace(law, gen=gen))
    assert hunt_counterexample(law_id, config).trial == trial
    assert drawn == chunks
