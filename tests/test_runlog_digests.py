"""Golden digests: a fixed set of searches must leave byte-identical runlogs
and best scores.

A change that only makes the search cheaper keeps every digest.  A change
to what the search does (a new move, other RNG draws) or to the runlog's
records updates them on purpose: rerun the configs below and paste the new
values.
"""

import hashlib

from mars.data import discretize
from mars.scoring import Hyperparams
from mars.search import SearchConfig, run
from mars.synth import SynthSpec, generate

from oracles import tiny_instance

TINY_DIGESTS = [
    "6f43a3290931a548", "21998389ff4f97cc", "0d31b5eb0dd7168c", "05522eb4be2cf888",
    "da285b6c2e060ec2", "fabccd5ddd365af6", "1319aaa5f42cd6e7", "5bbed07929a09ad5",
    "ee01ee3bf0baa8ec", "bfe1ae644399c80e", "fb7a9c7439c5c8b4", "9067daeb64a72355",
    "88ff89e12931abf9", "1cd0c212891f3262", "e7466f5feb0adecb", "5832ebd604381b91",
    "11c18e731efc5cdb", "0d2258036a7da2a1", "8dd0531e56e987a1", "b1de794162300b74",
]
SYNTH_DIGEST = "dea9f4330f2494b1"


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
