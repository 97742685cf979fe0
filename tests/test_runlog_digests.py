"""Golden digests: a fixed set of searches must leave byte-identical runlogs
and best scores.

A change that only makes the search cheaper keeps every digest.  A change
to what the search does (a new move, other RNG draws) updates them on
purpose: rerun the configs below and paste the new values.
"""

import hashlib

from mars.data import discretize
from mars.scoring import Hyperparams
from mars.search import SearchConfig, run
from mars.synth import SynthSpec, generate

from oracles import tiny_instance

TINY_DIGESTS = [
    "6f21f2d52479c64b", "a027f0a2a22abb1b", "1dadcba3d72daeea", "6895f3bf13aac89b",
    "a894c310dc80c977", "ad958c7ee851722c", "16140c717c569915", "dd05123d7fe100c1",
    "3ca657081f30b183", "5d61e4b1e628a603", "9de703e628b3158e", "699d433094c7e963",
    "226237ea979ed477", "ce1da216f52c739d", "bff502893b6e4fb5", "a06ba4b7a5713c4a",
    "fba1f15046a153a9", "2c00a997f2847993", "d952c0d20364e7ef", "358b30cc82fcc6ae",
]
SYNTH_DIGEST = "b2c3d3cf45094895"


def digest(data, seeds, n_iter):
    """sha256 over each search seed's runlog and the repr of its best Score
    (repr gives every float exactly)."""
    h = hashlib.sha256()
    for seed in seeds:
        cfg = SearchConfig(n_iter=n_iter, t0=10.0, n_restarts=1, neighbor_budget=32,
                           random_seed=seed)
        _, best, runlog = run(data, Hyperparams.defaults(data.n_features), cfg)
        h.update(runlog.to_jsonl().encode())
        h.update(repr(best).encode())
    return h.hexdigest()[:16]


def test_tiny_instance_runs_match_their_digests():
    assert [digest(tiny_instance(s), (0, 1), 80) for s in range(20)] == TINY_DIGESTS


def test_synthetic_run_matches_its_digest():
    table, _ = generate(SynthSpec(n_rows=1000, seed=3))
    assert digest(discretize(table), (0,), 1000) == SYNTH_DIGEST
