"""Planted-truth sweep: determinism of the records it returns."""

import dataclasses

from mars.scoring import Hyperparams
from mars.search import SearchConfig
from mars.synth import SweepSpec, SynthSpec, sweep


def test_sweep_is_deterministic():
    spec = SynthSpec(n_rows=200, n_features=4, n_rules=1, max_conditions=2, seed=3)
    grid = SweepSpec(beta_grid=(1.0, 100.0), replicates=2)
    cfg = SearchConfig(n_iter=60, n_restarts=0, random_seed=5)
    base = Hyperparams.defaults(spec.n_features)

    def records():
        # wall time is the one field that may differ between calls
        return [dataclasses.replace(r, wall_time_s=0.0)
                for r in sweep(spec, grid, base, cfg, n_bins=4, jobs=1)]

    first = records()
    assert len(first) == 8
    assert [(r.beta_m, r.beta_l, r.replicate) for r in first] == sorted(
        (r.beta_m, r.beta_l, r.replicate) for r in first
    )
    assert records() == first
