"""Search quality on the small probe: twelve planted instances of 1000 rows,
each searched for 500 steps at three seeds, against the best posterior any
run has reached on it.  The test pins quality, not bytes: a change of the
search's draws that keeps the quality passes."""

from mars.data import discretize
from mars.scoring import Hyperparams
from mars.search import SearchConfig, run
from mars.synth import SynthSpec, generate

# The best log-posterior known for each instance g = 0..11, at 0.1-nat
# rounding.  Raise an entry when a run beats it; never lower one.
BEST_KNOWN = (-220.1, -469.4, -288.4, -269.1, -261.2, -244.9,
              -370.4, -379.0, -203.3, -129.0, -302.0, -480.8)
SEEDS = (0, 1, 2)

# Floors a little short of what the search reaches today (8 hits, a mean gap
# of 41.0 nats, 7 cover-all misses).  Raise them when the search improves;
# never lower one to pass.
MIN_HITS = 7
MAX_MEAN_GAP = 45.0
MAX_COVER_ALL_MISSES = 8


def test_small_probe_search_quality_floor():
    """A hit is a run whose best reaches the best known at 0.1-nat rounding,
    and its gap is how far below the best known it ends.  A cover-all miss
    is a run that is no hit and ends in a rule set covering every row, which
    predicts positive everywhere; where that set is the best known (g = 9),
    it is a hit."""
    hits, gaps, cover_all_misses = 0, [], []
    for g, best_known in enumerate(BEST_KNOWN):
        table, _ = generate(SynthSpec(n_rows=1000, n_rules=6, max_conditions=2, seed=g))
        data = discretize(table)
        hyper = Hyperparams.defaults(data.n_features)
        for seed in SEEDS:
            _, best, _ = run(data, hyper, SearchConfig(n_iter=500, random_seed=seed))
            hit = round(best.log_posterior, 1) >= best_known
            hits += hit
            gaps.append(best_known - best.log_posterior)
            conf = best.confusion
            if not hit and conf.tn == conf.fn == 0:
                cover_all_misses.append((g, seed))
    mean_gap = sum(gaps) / len(gaps)
    report = f"hits {hits}, mean gap {mean_gap:.1f}, cover-all misses {cover_all_misses}"
    assert hits >= MIN_HITS, report
    assert mean_gap <= MAX_MEAN_GAP, report
    assert len(cover_all_misses) <= MAX_COVER_ALL_MISSES, report
