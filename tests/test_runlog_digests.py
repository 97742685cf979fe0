"""Golden digests: a fixed set of searches must leave byte-identical runlogs
and best scores.

A change that only makes the search cheaper keeps every digest.  A change
to what the search does (a new move, other RNG draws) or to the runlog's
records updates them on purpose: rerun the configs below and paste the new
values.
"""

import hashlib
import random
from dataclasses import replace

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
WIDE_DIGEST = "5c88b69516e689eb"


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


def test_bounds_bite_on_the_tiny_instances(monkeypatch):
    """On the tiny digest runs the pruning bounds do work: the support
    floor turns away some add-rule seed, and the rule-count cap closes the
    add-rule action in some step."""
    import mars.search as search

    edits = []
    floor_rejects = capped = 0
    edit, seed_moves = search.Proposal.edit, search._seed_moves

    def recording_edit(prop, mi, pairs):
        made = edit(prop, mi, pairs)
        edits.append(made)
        return made

    def checked_seed_moves(current, xrow, rng, budget, bounds):
        nonlocal floor_rejects, capped
        edits.clear()
        seeds = seed_moves(current, xrow, rng, budget, bounds)
        if bounds.m_cap is not None and len(current.keys) >= bounds.m_cap:
            assert seeds == [] and not edits
            capped += 1
        admitted = set(map(id, seeds))
        rejected = [e for e in edits if id(e) not in admitted]
        assert all(e.mask.bit_count() < bounds.min_support for e in rejected)
        floor_rejects += len(rejected)
        return seeds

    monkeypatch.setattr(search.Proposal, "edit", recording_edit)
    monkeypatch.setattr(search, "_seed_moves", checked_seed_moves)
    # the wrappers change nothing: these are the digest runs
    assert [digest(tiny_instance(s), (0, 1), 80) for s in range(20)] == TINY_DIGESTS
    assert floor_rejects and capped, (floor_rejects, capped)


def test_synthetic_run_matches_its_digest():
    table, _ = generate(SynthSpec(n_rows=1000, seed=3))
    assert digest(discretize(table), (0,), 1000) == SYNTH_DIGEST


def wide_vocabulary_table():
    """A synthetic table with every other feature recoded into 30 string
    categories plus blanks: 31-value vocabularies, wider than the 21 items
    up to which the search's samplers draw what ``random.sample`` draws."""
    table, _ = generate(SynthSpec(n_rows=600, n_features=8, seed=5))
    rng = random.Random("wide-vocabulary")
    label = table.names.index(table.label_column)
    rows = []
    for row in table.rows:
        out = list(row)
        for j in range(1, label, 2):
            out[j] = "" if rng.random() < 0.05 else f"c{min(int(float(row[j]) * 30), 29):02d}"
        rows.append(tuple(out))
    return replace(table, rows=rows)


def test_wide_vocabulary_run_matches_its_digest():
    data = discretize(wide_vocabulary_table())
    assert data.vocab_sizes == (10, 31) * 4
    assert digest(data, (0, 1), 300) == WIDE_DIGEST
