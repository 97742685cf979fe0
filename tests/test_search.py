"""Annealing search: proposals, acceptance rule, determinism, toy recovery."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mars.bounds import initial_bounds, update_bounds
from mars.data import discretize, indices, mask_from_bools, rule_mask
from mars.errors import DegenerateLabelError
from mars.model import Condition, Rule, RuleSet, first_covering_rule
from mars.scoring import Confusion, Hyperparams, score
from mars.search import (
    Proposal,
    SearchConfig,
    _accepts,
    anneal_step,
    init_state,
    propose,
    run,
    sample_misclassified,
    temperature,
)
from mars.synth import SynthSpec, generate

from oracles import (
    make_dataset,
    oracle_confusion,
    partial_shuffle_sample,
    rule_covers,
    tiny_instance,
)


def hypers(data, **kw):
    return Hyperparams.defaults(data.n_features, **kw)


def small_cfg(**kw):
    base = dict(n_iter=200, t0=10.0, explore_prob=0.1, random_seed=0,
                n_restarts=0, neighbor_budget=32)
    base.update(kw)
    return SearchConfig(**base)


# ---------------------------------------------------------------------------
# config / schedule
# ---------------------------------------------------------------------------

def test_temperature_schedule_endpoints():
    cfg = small_cfg(n_iter=1000, t0=100.0)
    assert temperature(cfg, 0) == pytest.approx(100.0)
    assert temperature(cfg, 1000) == 1.0
    temps = [temperature(cfg, t) for t in range(0, 1001, 50)]
    assert temps == sorted(temps, reverse=True)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(t0=1.0)
    with pytest.raises(ValueError):
        small_cfg(explore_prob=1.5)
    with pytest.raises(ValueError):
        small_cfg(n_iter=0)
    for t0 in (math.inf, math.nan):
        with pytest.raises(ValueError):
            small_cfg(t0=t0)


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32),
       st.integers(1, 100).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
# past 21 items random.sample may redraw taken indices instead (its set
# path), as at (31, 3) and (100, 10); the samplers shuffle a pool at every size
@example(seed=0, n_k=(31, 3))
@example(seed=1, n_k=(100, 10))
@example(seed=1, n_k=(31, 3))
def test_samplers_make_the_partial_shuffle_draws(seed, n_k):
    from mars.search import _pick, _sample, _values

    n, k = n_k
    # the bit lengths of index draws in 0..i, for the vocabulary's i alone
    index_bits = [(i + 1).bit_length() for i in range(n)]
    one_hot = [1 << v for v in range(100)]
    # arbitrary entries, negative ones included, more of them than the
    # vocabulary: a sum of 64-bit draws tells its summands apart
    entries = [random.Random(f"entries:{seed}").getrandbits(64) - 2**63 for _ in range(100)]
    rng, ref = random.Random(seed), random.Random(seed)
    if n >= 2:
        # one-hot entries sum to the picked value set's bits
        variant = _values(_pick(rng.getrandbits, one_hot, n, index_bits), n)
        want = sorted(partial_shuffle_sample(ref, range(n), ref.randint(1, n - 1)))
        assert variant == tuple(want)
        assert rng.getstate() == ref.getstate()
        # a chain start's value set, a sorted sample of a size randint
        # draws, is the one-hot pick of the same stream, draw for draw
        start = sorted(_sample(rng.getrandbits, range(n), rng.randint(1, n - 1)))
        assert tuple(start) == _values(_pick(ref.getrandbits, one_hot, n, index_bits), n)
        assert rng.getstate() == ref.getstate()
        # any entries: the sum of exactly the entries of the values drawn
        before = list(entries)
        got = _pick(rng.getrandbits, entries, n, index_bits)
        drawn = partial_shuffle_sample(ref, range(n), ref.randint(1, n - 1))
        assert got == sum(entries[v] for v in drawn)
        assert rng.getstate() == ref.getstate()
        assert entries == before  # the entries are read, not shuffled
    assert _sample(rng.getrandbits, range(n), k) == partial_shuffle_sample(ref, range(n), k)
    assert rng.getstate() == ref.getstate()
    letters = [f"v{v}" for v in range(n)]
    assert _sample(rng.getrandbits, letters, k) == partial_shuffle_sample(ref, letters, k)
    assert rng.getstate() == ref.getstate()
    if n <= 21:
        # random.sample shuffles a pool too at these sizes, so a search whose
        # vocabularies and candidate lists stay this small draws what it drew
        # when it called random.sample
        rng, ref = random.Random(seed), random.Random(seed)
        if n >= 2:
            want = sorted(ref.sample(range(n), ref.randint(1, n - 1)))
            assert _values(_pick(rng.getrandbits, one_hot, n, index_bits), n) == tuple(want)
        assert _sample(rng.getrandbits, letters, k) == ref.sample(letters, k)
        assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------

def test_init_is_deterministic():
    data = tiny_instance(0)
    h = hypers(data)
    s1 = init_state(data, h, small_cfg(random_seed=5))
    s2 = init_state(data, h, small_cfg(random_seed=5))
    assert s1.current.rules == s2.current.rules
    assert s1.current.score == s2.current.score


def test_init_rejects_degenerate_labels():
    data = make_dataset((2, 2), [[0, 0], [1, 1]], [1, 1])
    with pytest.raises(DegenerateLabelError):
        init_state(data, Hyperparams.defaults(2), small_cfg())


@pytest.mark.parametrize("n_theta", [2, 5])
def test_run_rejects_theta_of_another_length(n_theta):
    data = tiny_instance(3)
    assert data.n_features == 3
    h = Hyperparams.defaults(n_theta)
    with pytest.raises(ValueError, match=f"theta has {n_theta} entries for 3 features"):
        run(data, h, small_cfg())


def test_init_state_is_valid_and_bounds_seeded():
    from mars.bounds import initial_bounds
    from mars.model import is_normalized

    data = tiny_instance(1)
    h = hypers(data)
    state = init_state(data, h, small_cfg(random_seed=3))
    assert is_normalized(state.current.rules, data.vocab_sizes)
    assert state.best is state.current
    expected = update_bounds(initial_bounds(data, h), state.current.score.log_posterior)
    assert state.bounds.min_support == expected.min_support
    assert state.bounds.m_cap == expected.m_cap
    # coverage index consistent with a scratch recompute
    rules = state.current.rules
    assert state.current.union_mask == mask_from_bools(first_covering_rule(rules, data.rows) >= 0)
    recount = oracle_confusion(rules, data.rows, data.labels)
    assert state.current.score.confusion == Confusion(*recount)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_ruleset_draws_sorted_proper_pairs(draw):
    from mars.search import random_ruleset

    # vocabularies past 21 values, where random.sample would redraw taken indices
    vocab_sizes = draw.draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    if max(vocab_sizes) < 2:
        vocab_sizes[0] = 2
    data = make_dataset(vocab_sizes, [[0] * len(vocab_sizes)] * 2, [1, 0])
    rng = random.Random(draw.draw(st.integers(0, 10**6)))
    for _ in range(20):
        keys = random_ruleset(data, rng)
        assert 1 <= len(keys) <= 3
        for key in keys:
            assert 1 <= len(key) <= 3
            features = [j for j, _ in key]
            assert features == sorted(set(features))
            for j, values in key:
                assert list(values) == sorted(set(values))
                assert 0 <= values[0] and values[-1] < vocab_sizes[j]
                assert len(values) < vocab_sizes[j]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_proposal_of_pairs_equals_normalize_and_score(draw):
    """Rules salted with exact duplicates at random positions: the proposal
    keeps the rules ``normalize`` keeps, in its order, and its score is the
    float ``score`` gives them."""
    from mars.model import normalize
    from oracles import random_ruleset_for

    rng = random.Random(draw.draw(st.integers(0, 10**6)))
    vocab_sizes = draw.draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    n_rows = draw.draw(st.integers(1, 40))
    rows = [[rng.randrange(v) for v in vocab_sizes] for _ in range(n_rows)]
    data = make_dataset(vocab_sizes, rows, [rng.random() < 0.5 for _ in range(n_rows)])
    # unequal theta, so the DM items' order of addition shows in the floats
    h = hypers(data, theta=[rng.uniform(0.2, 5.0) for _ in vocab_sizes],
               alpha_l=rng.uniform(0.5, 5.0), beta_l=rng.uniform(1.0, 50.0))
    rules = list(random_ruleset_for(rng, vocab_sizes).rules)
    for _ in range(draw.draw(st.integers(0, 4))):
        rules.insert(rng.randrange(len(rules) + 1), rng.choice(rules))
    prop = Proposal.of([rule.pairs for rule in rules], data, h)
    expected = normalize(RuleSet(tuple(rules)), vocab_sizes)
    assert prop.rules == expected
    assert prop.score == score(expected, data, h)


def test_run_never_normalizes(monkeypatch):
    import mars.search as search

    calls = []
    real = search.normalize

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "normalize", counted)
    for seed in range(4):
        data = tiny_instance(seed)
        run(data, hypers(data), small_cfg(n_iter=30, n_restarts=2, random_seed=seed))
    assert calls == []


# ---------------------------------------------------------------------------
# misclassified sampling
# ---------------------------------------------------------------------------

def _state_with(data, rules, cfg=None, seed=0):
    h = hypers(data)
    state = init_state(data, h, cfg or small_cfg(random_seed=seed))
    state.current = Proposal.of([rule.pairs for rule in rules.rules], data, h)
    return state


def test_perfect_classifier_yields_no_example():
    data = make_dataset((2, 2), [[0, 0], [0, 1], [1, 0], [1, 1]], [1, 1, 0, 0])
    perfect = RuleSet((Rule.of({0: (0,)}),))
    state = _state_with(data, perfect)
    assert sample_misclassified(state) is None


def test_empty_ruleset_samples_only_positives():
    data = tiny_instance(5)
    state = _state_with(data, RuleSet(()))
    for _ in range(30):
        idx, label = sample_misclassified(state)
        assert label is True
        assert bool(data.labels[idx])


def test_sampling_is_uniform_over_misclassified():
    # chi-squared test over 10^4 draws
    from scipy.stats import chisquare

    data = tiny_instance(9)
    state = _state_with(data, RuleSet(()))
    mis = [i for i in range(data.n_rows) if data.labels[i]]
    draws = Counter(sample_misclassified(state)[0] for _ in range(10_000))
    counts = [draws.get(i, 0) for i in mis]
    assert sum(counts) == 10_000
    _, pvalue = chisquare(counts)
    assert pvalue > 1e-4


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sampling_makes_the_kth_set_bit_draws(draw):
    """Draw for draw, the row is the k-th set bit of covered XOR positive
    for k = rng.randrange(count), and the rng ends in the same state."""
    from mars.bounds import initial_bounds
    from mars.data import kth_set_bit
    from mars.search import SearchState
    from oracles import random_ruleset_for

    seed = draw.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    vocab_sizes = draw.draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    n_rows = draw.draw(st.integers(1, 40))
    rows = [[rng.randrange(v) for v in vocab_sizes] for _ in range(n_rows)]
    kind = draw.draw(st.sampled_from(["random", "empty", "perfect"]))
    rules = RuleSet(()) if kind == "empty" else random_ruleset_for(rng, vocab_sizes)
    if kind == "perfect":
        covered = mask_from_bools(first_covering_rule(rules, np.array(rows)) >= 0)
        labels = [covered >> i & 1 for i in range(n_rows)]
    else:
        labels = [rng.randrange(2) for _ in range(n_rows)]
    data = make_dataset(vocab_sizes, rows, labels)
    h = hypers(data)
    prop = Proposal.of([rule.pairs for rule in rules.rules], data, h)
    state = SearchState(prop, prop, initial_bounds(data, h), random.Random(seed), small_cfg())
    reference = random.Random(seed)
    mis = prop.union_mask ^ data.pos_mask
    if kind == "perfect":
        assert mis == 0
    for _ in range(5):
        got = sample_misclassified(state)
        if mis == 0:
            assert got is None
        else:
            idx = kth_set_bit(mis, reference.randrange(mis.bit_count()))
            assert got == (idx, bool(data.labels[idx]))
        assert state.rng.getstate() == reference.getstate()


# ---------------------------------------------------------------------------
# proposals
# ---------------------------------------------------------------------------

def _find_example(state, data, want_positive):
    while True:
        ex = sample_misclassified(state)
        if ex is not None and ex[1] == want_positive:
            return ex


def test_add_value_neighbors_grow_coverage():
    data = tiny_instance(11)
    rng = random.Random(1)
    start = RuleSet((Rule.of({0: (0,)}),))
    state = _state_with(data, start)
    ex = sample_misclassified(state)
    if ex is None or not ex[1]:
        pytest.skip("instance classified; pick another seed")
    from mars.search import _edits_add_value
    from mars.model import normalize

    before = mask_from_bools(first_covering_rule(state.current.rules, data.rows) >= 0)
    for edit in _edits_add_value(state.current, data.rows[ex[0]]):
        grown = normalize(RuleSet(materialized(state.current, edit)), data.vocab_sizes)
        after = mask_from_bools(first_covering_rule(grown, data.rows) >= 0)
        assert after & before == before  # coverage only grows


def test_add_condition_canonical_variant_uncovers_example():
    data = tiny_instance(13)
    # a rule covering everything on feature 0 ensures negative misclassifications
    full_cover = RuleSet((Rule.of({0: tuple(range(data.vocab_sizes[0] - 1))}),
                          Rule.of({0: (data.vocab_sizes[0] - 1,)})))
    state = _state_with(data, full_cover)
    ex = _find_example(state, data, want_positive=False)
    idx = ex[0]
    from mars.search import _growth_moves

    moves = _growth_moves(state.current, idx, data.rows[idx], state.rng)
    edits = [materialized(state.current, move) for move in moves]
    assert edits
    # canonical candidates (vocabulary minus the example's value) come first
    # per (rule, feature) block; each must stop covering the example
    row = data.rows[idx]
    uncovering = [
        edit for edit in edits
        if not any(rule_covers(r, row) for r in edit)
    ]
    assert uncovering


def test_add_rule_candidates_respect_support_floor():
    data = tiny_instance(17)
    h = hypers(data)
    state = init_state(data, h, small_cfg(random_seed=2))
    # tighten the floor artificially, then ask for add-rule edits
    from dataclasses import replace
    from mars.search import _seed_moves

    state.bounds = replace(state.bounds, min_support=3)
    ex = _find_example(state, data, want_positive=True)
    seeds = _seed_moves(state.current, data.rows[ex[0]], state.rng, 64, state.bounds)
    assert seeds
    for seed in seeds:
        made = state.current.apply(seed)
        rule, mask = made.rules.rules[-1], made.entries[-1][0]
        assert mask == seed.mask == rule_mask(rule.pairs, data)
        assert mask.bit_count() >= 3


def test_add_rule_blocked_by_rule_count_cap():
    data = tiny_instance(17)
    h = hypers(data)
    state = init_state(data, h, small_cfg(random_seed=2))
    from dataclasses import replace
    from mars.search import _seed_moves

    state.bounds = replace(state.bounds, m_cap=len(state.current.rules.rules))
    ex = _find_example(state, data, want_positive=True)
    assert _seed_moves(state.current, data.rows[ex[0]], state.rng, 64, state.bounds) == []


def test_exploit_mode_returns_posterior_argmax(monkeypatch):
    from mars import search

    # the moves of the last action builder propose called: the action that
    # gave the pick
    built = []
    for name in ("_edits_add_value", "_edits_remove_condition", "_seed_moves",
                 "_growth_moves", "_edits_remove_rule"):
        def recording(*args, build=getattr(search, name)):
            built.append(build(*args))
            return built[-1]
        monkeypatch.setattr(search, name, recording)
    # every candidate, edit or growth, is scored through posterior_of
    scored = []
    def recording_scores(self, c, posterior_of=search.Proposal.posterior_of):
        scored.append(c)
        return posterior_of(self, c)
    monkeypatch.setattr(search.Proposal, "posterior_of", recording_scores)

    ties = 0
    # the second run's picks include tied maxima
    for instance, seed in ((19, 4), (11, 3)):
        data = tiny_instance(instance)
        h = hypers(data)
        cfg = small_cfg(explore_prob=0.0, neighbor_budget=500, random_seed=seed)
        state = init_state(data, h, cfg)
        for _ in range(20):
            ex = sample_misclassified(state)
            if ex is None:
                break
            rng_snapshot = state.rng.getstate()
            scored.clear()
            pick = propose(state, ex)
            if pick is None:
                continue
            # each candidate once, in the order the action listed them
            assert scored == built[-1]
            # every candidate's rule set scored in full: the pick reaches the
            # highest posterior, and is the first candidate that does
            assert len(built[-1]) <= cfg.neighbor_budget
            candidates = list(dict.fromkeys(built[-1]))
            scores = [score(RuleSet(materialized(state.current, c)), data, h).log_posterior
                      for c in candidates]
            assert pick.log_posterior >= max(scores)
            assert candidates[scores.index(pick.log_posterior)] is pick.candidate
            ties += scores.count(pick.log_posterior) > 1
            prop = state.current.apply(pick.candidate)
            # replay the same action's full neighbor set and verify the argmax
            state.rng.setstate(rng_snapshot)
            replay = state.current.apply(propose(state, ex).candidate)
            assert replay.rules == prop.rules
            assert replay.score.log_posterior == prop.score.log_posterior
            anneal_step(state)
    assert ties


def test_proposals_are_normalized_rulesets():
    from mars.model import is_normalized

    data = tiny_instance(23)
    h = hypers(data)
    cfg = small_cfg(random_seed=8)
    state = init_state(data, h, cfg)
    for _ in range(300):
        anneal_step(state)
        assert is_normalized(state.current.rules, data.vocab_sizes)
        assert state.best.score.log_posterior >= state.current.score.log_posterior - 1e-12


# ---------------------------------------------------------------------------
# acceptance rule
# ---------------------------------------------------------------------------

def test_improving_moves_always_accepted():
    rng = random.Random(0)
    assert all(_accepts(rng, delta, 5.0) for delta in (0.0, 0.5, 3.0, 100.0))


def test_acceptance_rate_at_minus_temperature():
    # delta = -T gives acceptance probability exp(-1)
    rng = random.Random(12345)
    trials = 10_000
    hits = sum(_accepts(rng, -7.5, 7.5) for _ in range(trials))
    assert abs(hits / trials - math.exp(-1)) < 0.02


def test_worsening_acceptance_rate_decays_with_cooling():
    cfg = small_cfg(n_iter=1000, t0=100.0)
    rng = random.Random(0)
    delta = -3.0
    early = sum(_accepts(rng, delta, temperature(cfg, 50)) for _ in range(4000)) / 4000
    late = sum(_accepts(rng, delta, temperature(cfg, 950)) for _ in range(4000)) / 4000
    assert early > late


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_solves_linearly_separable_toy():
    # label = [x0 in {a, b}] over a 3-valued feature, N = 200
    rng = random.Random(42)
    vocab = (4, 3)
    rows = [[rng.randrange(4), rng.randrange(3)] for _ in range(200)]
    labels = [int(r[0] in (0, 1)) for r in rows]
    data = make_dataset(vocab, rows, labels)
    h = hypers(data)
    rules, best, _ = run(data, h, small_cfg(n_iter=2000, random_seed=1))
    assert best.confusion.accuracy == 1.0
    assert rules.n_rules >= 1


def test_run_is_deterministic_byte_for_byte():
    data = tiny_instance(3)
    h = hypers(data)
    cfg = small_cfg(n_iter=500, random_seed=9, n_restarts=1)
    r1, s1, log1 = run(data, h, cfg)
    r2, s2, log2 = run(data, h, cfg)
    assert r1 == r2
    assert s1.log_posterior == s2.log_posterior
    assert log1.to_jsonl() == log2.to_jsonl()


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_stepping_the_state_writes_the_runlog_run_writes(seed):
    # the chain state owns its runlog: init_state and n_iter steps leave in
    # it what a one-chain run() writes before its closing done record
    data = tiny_instance(seed)
    h = hypers(data)
    cfg = small_cfg(n_iter=300, random_seed=seed)
    state = init_state(data, h, cfg)
    for _ in range(cfg.n_iter):
        anneal_step(state)
    _, _, runlog = run(data, h, cfg)
    assert runlog.records[-1]["event"] == "done"
    assert all(r["event"] != "stall_restart" for r in runlog.records)
    assert state.runlog.records == runlog.records[:-1]


def test_runlog_improvements_are_monotone():
    data = tiny_instance(6)
    h = hypers(data)
    _, best, runlog = run(data, h, small_cfg(n_iter=800, random_seed=2))
    improvements = [r for r in runlog.records if r["event"] == "improve"]
    values = [r["log_posterior"] for r in improvements]
    assert values == sorted(values)
    assert values[-1] == best.log_posterior
    for record in improvements:
        assert {"t", "n_rules", "n_conditions", "n_features", "min_support", "m_cap"} <= set(record)


@pytest.mark.parametrize("seed", range(40))
def test_last_improvement_is_the_returned_best_across_restarts(seed):
    # one step per chain: most new bests come from a restart's random start
    data = tiny_instance(seed % 20)
    cfg = SearchConfig(n_iter=1, t0=10, n_restarts=8, random_seed=seed)
    rules, best, runlog = run(data, hypers(data), cfg)
    improvements = [r for r in runlog.records if r["event"] == "improve"]
    assert improvements[-1]["log_posterior"] == best.log_posterior
    # the last improve and the done record both report the returned rules' sizes
    done = runlog.records[-1]
    assert done["event"] == "done"
    assert rules.sizes().items() <= improvements[-1].items()
    assert rules.sizes().items() <= done.items()
    # every chain logs its chain_start before any improve of its own, the one
    # its random start makes included
    events = [r["event"] for r in runlog.records]
    assert events[:2] == ["chain_start", "improve"]
    started = set()
    for record in runlog.records:
        if record["event"] == "chain_start":
            started.add(record["chain"])
        elif record["event"] == "improve":
            assert record["chain"] in started
    assert started == set(range(cfg.n_restarts + 1))


@pytest.mark.parametrize("case", range(6))
def test_the_bounds_follow_the_improve_records_alone(case):
    # the bounds are a function of the new bests: folding each improve
    # record's posterior into the initial bounds, in order, gives the bounds
    # that record reports, whatever the restarts' starts scored
    if case < 4:
        data = tiny_instance(case)
    else:
        data = discretize(generate(SynthSpec(n_rows=400, seed=case))[0])
    h = hypers(data)
    _, _, runlog = run(data, h, small_cfg(n_restarts=3, random_seed=case))
    bounds = initial_bounds(data, h)
    for record in runlog.records:
        if record["event"] == "improve":
            bounds = update_bounds(bounds, record["log_posterior"])
            assert (record["min_support"], record["m_cap"]) == (bounds.min_support, bounds.m_cap)
    assert bounds.m_cap is not None


def stalling_state(seed: int):
    """A chain that stalls now and then: on ``tiny_instance(1)`` (18 rows, 6
    positive) priors this steep soon make the bounds cap the rule count at
    one and the support floor at 7 rows, so a step can find no legal
    neighbor."""
    data = tiny_instance(1)
    cfg = SearchConfig(n_iter=500, t0=10.0, neighbor_budget=8, random_seed=seed)
    return init_state(data, hypers(data, beta_m=1e6, beta_l=1e6), cfg)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_stall_moves_only_the_clock_and_the_next_pick_ends_the_streak(monkeypatch, seed):
    import mars.search as search

    picks = []
    real = search.propose

    def recording(*args):
        picks.append(real(*args))
        return picks[-1]

    monkeypatch.setattr(search, "propose", recording)
    state = stalling_state(seed)
    stalls = resets = 0
    for _ in range(state.cfg.n_iter):
        before = (state.current, state.best, state.bounds, state.t, state.stall_streak)
        n_records = len(state.runlog.records)
        anneal_step(state)
        new_records = state.runlog.records[n_records:]
        if picks[-1] is None:
            stalls += 1
            current, best, bounds, t, streak = before
            assert state.current is current and state.best is best and state.bounds is bounds
            assert (state.t, state.stall_streak) == (t + 1, streak + 1)
            assert new_records == [{"event": "stall", "chain": 0, "t": t}]
        else:
            assert state.stall_streak == 0
            assert all(r["event"] != "stall" for r in new_records)
            resets += before[-1] > 0
    assert len(picks) == state.cfg.n_iter
    assert stalls and resets
    assert state.bounds.m_cap == 1 and state.bounds.min_support == 7


def test_twenty_straight_stalls_end_the_chain_and_start_the_next(monkeypatch):
    import mars.search as search

    monkeypatch.setattr(search, "propose", lambda state, example: None)
    data = tiny_instance(1)
    cfg = small_cfg(n_iter=100, n_restarts=1)
    _, best, runlog = run(data, hypers(data), cfg)
    after = search.STALL_RESTART_AFTER
    assert after == 20
    for chain in range(cfg.n_restarts + 1):
        records = [r for r in runlog.records if r.get("chain") == chain]
        events = [r["event"] for r in records]
        assert events[0] == "chain_start"
        # chain 0's random start is the first best; a restart's start may not be
        start = 2 if events[1] == "improve" else 1
        assert events[start:] == ["stall"] * after + ["stall_restart"]
        stalls = [r for r in records if r["event"] == "stall"]
        assert [r["t"] for r in stalls] == list(range(after))
        assert records[-1] == {"event": "stall_restart", "chain": chain, "t": after}
    assert runlog.records[-1]["event"] == "done"
    assert runlog.records[-1]["log_posterior"] == best.log_posterior


def test_admitted_rules_meet_support_floor_during_run():
    data = tiny_instance(8)
    h = hypers(data)
    cfg = small_cfg(n_iter=600, random_seed=7)
    state = init_state(data, h, cfg)
    admissions = 0
    for _ in range(cfg.n_iter):
        floor = state.bounds.min_support
        before = set(state.current.rules.rules)
        ex = sample_misclassified(state)
        if ex is None:
            anneal_step(state)
            continue
        pick = propose(state, ex)
        if pick is not None:
            prop = state.current.apply(pick.candidate)
            if pick.action == "add_rule":
                new_rules = set(prop.rules.rules) - before
                assert new_rules, "add_rule proposal must introduce a rule"
                for rule in new_rules:
                    assert rule_mask(rule.pairs, data).bit_count() >= floor
                    admissions += 1
            delta = prop.score.log_posterior - state.current.score.log_posterior
            if _accepts(state.rng, delta, temperature(cfg, state.t)):
                state.current = prop
        state.t += 1
    assert admissions > 0


def test_current_confusion_equals_a_recount_after_every_step():
    data = tiny_instance(12)
    h = hypers(data)
    cfg = small_cfg(n_iter=400, random_seed=3)
    state = init_state(data, h, cfg)
    for _ in range(cfg.n_iter):
        anneal_step(state)
        assert state.current.score.confusion == score(state.current.rules, data, h).confusion


# ---------------------------------------------------------------------------
# edits come normalized; candidates are scored from cached per-rule terms
# ---------------------------------------------------------------------------

def raw_add_value(rules, data, xrow):
    """The add-value edits before normalization (one raw tuple each): the
    growths by the example's value, or by every other value when there are
    none."""
    progress, others = [], []
    for mi, rule in enumerate(rules):
        conds = rule.conditions
        for ci, cond in enumerate(conds):
            j = cond.feature_id
            for v in range(data.vocab_sizes[j]):
                if v in cond.values:
                    continue
                grown = Rule(conds[:ci] + (Condition(j, cond.values + (v,)),) + conds[ci + 1:])
                bucket = progress if v == int(xrow[j]) else others
                bucket.append(rules[:mi] + (grown,) + rules[mi + 1:])
    return progress or others


def raw_remove_condition(rules):
    edits = []
    for mi, rule in enumerate(rules):
        for ci in range(len(rule.conditions)):
            rest = rule.conditions[:ci] + rule.conditions[ci + 1:]
            edits.append(rules[:mi] + ((Rule(rest),) if rest else ()) + rules[mi + 1:])
    return edits


def materialized(prop, move):
    """The rule set a move makes of ``prop``."""
    return prop.apply(move).rules.rules


def raw_add_condition(rules, data, idx, xrow, rng):
    edits = []
    for mi, rule in enumerate(rules):
        if not rule_mask(rule.pairs, data) >> idx & 1:
            continue
        for j in range(data.n_features):
            vocab = data.vocab_sizes[j]
            if j in rule.features or vocab < 2:
                continue
            variants = [tuple(v for v in range(vocab) if v != int(xrow[j]))]
            for _ in range(2):
                size = rng.randint(1, vocab - 1)
                variants.append(tuple(partial_shuffle_sample(rng, range(vocab), size)))
            for vals in variants:
                grown = Rule(rule.conditions + (Condition(j, vals),))
                edits.append(rules[:mi] + (grown,) + rules[mi + 1:])
    return edits


def raw_add_rule(rules, data, xrow, rng, budget, min_support):
    """The add-rule edits drawn with ``randint`` and the reference partial
    shuffle on lists: the features, then per feature the example's value
    and a sample of the spare ones."""
    eligible = [j for j, v in enumerate(data.vocab_sizes) if v >= 2]
    edits, seen = [], set()
    for _ in range(3 * budget):
        if len(edits) == budget:
            break
        conds = []
        n_feats = rng.randint(1, min(3, len(eligible)))
        for j in partial_shuffle_sample(rng, eligible, n_feats):
            want = int(xrow[j])
            spare = [v for v in range(data.vocab_sizes[j]) if v != want]
            values = partial_shuffle_sample(rng, spare, rng.randint(0, len(spare) - 1))
            conds.append(Condition(j, (want, *values)))
        cand = Rule(tuple(conds))
        if cand in seen or cand in rules:
            continue
        seen.add(cand)
        if rule_mask(cand.pairs, data).bit_count() >= min_support:
            edits.append(rules + (cand,))
    return edits


def near_duplicate_ruleset(rng, vocab_sizes):
    """A normalized rule set salted with rules one edit apart, so growths
    reach the full vocabulary and edited rules collide with other rules,
    on either side of the edited one."""
    from mars.model import normalize
    from oracles import random_ruleset_for

    rules = list(random_ruleset_for(rng, vocab_sizes, max_rules=3).rules)
    for rule in list(rules):
        conds = rule.conditions
        if len(conds) > 1:
            rules.insert(rng.randrange(len(rules) + 1), Rule(conds[1:]))
        cond = conds[0]
        spare = [v for v in range(vocab_sizes[cond.feature_id]) if v not in cond.values]
        grown = Condition(cond.feature_id, cond.values + (rng.choice(spare),))
        rules.insert(rng.randrange(len(rules) + 1), Rule((grown,) + conds[1:]))
    return normalize(RuleSet(tuple(rules)), vocab_sizes).rules


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_edits_equal_normalized_raw_edits(draw):
    from dataclasses import replace

    from mars.bounds import initial_bounds
    from mars.model import normalize
    from mars.scoring import prior_terms_from_counts
    from mars.search import (
        _edits_add_value,
        _edits_remove_condition,
        _edits_remove_rule,
        _growth_moves,
        _seed_moves,
    )

    rng = random.Random(draw.draw(st.integers(0, 10**6)))
    # vocabularies past 21 values, where random.sample would redraw taken
    # indices instead of shuffling a pool
    vocab_sizes = draw.draw(
        st.lists(st.integers(2, 3) | st.integers(22, 31), min_size=2, max_size=4)
    )
    rows = [[rng.randrange(v) for v in vocab_sizes] for _ in range(12)]
    data = make_dataset(vocab_sizes, rows, [i % 2 for i in range(12)])
    h = hypers(data)
    rules = near_duplicate_ruleset(rng, vocab_sizes)

    def normalized(edits):
        return [normalize(RuleSet(e), vocab_sizes).rules for e in edits]

    def made(moves):
        """The rule sets the moves make, each move scored exactly as the
        rule set it makes."""
        props = [prop.apply(move) for move in moves]
        sets = [p.rules.rules for p in props]
        # no builder returns the current rule set, so propose filters none out
        assert rules not in sets
        # equal moves make equal rule sets, and only those: propose's dedup
        # keeps one move per rule set
        assert len(set(moves)) == len(set(sets))
        for move, p in zip(moves, props):
            full = score(p.rules, data, h)
            assert prop.posterior_of(move) == full.log_posterior  # floats compared exactly
            assert p.score == full
            # rule_covers row by row: here first_covering_rule's np.isin calls
            # would double the test's time
            covered = [any(rule_covers(r, row) for r in p.rules.rules) for row in rows]
            assert p.union_mask == mask_from_bools(covered)
            assert p.entries == tuple(
                (rule_mask(rule.pairs, data),
                 *prior_terms_from_counts([(c.feature_id, c.n_values) for c in rule.conditions], h))
                for rule in p.rules.rules
            )
        return sets

    # one proposal for every example: its growth tables are built once, then reused
    prop = Proposal.of([rule.pairs for rule in rules], data, h)
    raw_remove_rule = [rules[:mi] + rules[mi + 1:] for mi in range(len(rules))]
    assert made(_edits_remove_condition(prop)) == normalized(raw_remove_condition(rules))
    assert made(_edits_remove_rule(prop)) == normalized(raw_remove_rule)
    bounds = replace(initial_bounds(data, h), min_support=1, m_cap=None)
    for idx, xrow in enumerate(data.rows):
        # propose grows values for a false negative only: a positive no rule covers
        if data.labels[idx] and not any(rule_covers(rule, xrow) for rule in rules):
            got = made(_edits_add_value(prop, xrow))
            assert got == normalized(raw_add_value(rules, data, xrow))
        seed = rng.random()
        moves = _growth_moves(prop, idx, xrow, random.Random(seed))
        assert made(moves) == normalized(
            raw_add_condition(rules, data, idx, xrow, random.Random(seed))
        )
        seeds = _seed_moves(prop, xrow, random.Random(seed), 8, bounds)
        assert made(seeds) == normalized(
            raw_add_rule(rules, data, xrow, random.Random(seed), 8, 1)
        )


def assert_growth_tables_rescore(data, h, rules, rng):
    """Each growth table of the proposal of ``rules`` against references:
    its packed entries unpack to the bincount counts, and each value set's
    packed sum scores exactly as the rule set the growth makes, or is found
    as a collision by that sum, whose pairs make that rule set as an edit.
    Value sets are every proper one for up to five values, and past that
    every set of one value and of all values but one, plus ten random
    ones."""
    from itertools import combinations

    from mars.model import normalize
    from mars.search import _GrowthTable

    vocab_sizes = data.vocab_sizes
    prop = Proposal.of([rule.pairs for rule in rules], data, h)
    offsets = np.cumsum((0, *vocab_sizes[:-1]))
    n_codes = sum(vocab_sizes)
    width = data.n_rows.bit_length()
    for mi, rule in enumerate(rules):
        table = _GrowthTable(prop, mi)
        # reference counts over the rows rule mi alone covers: one bincount
        # of codes offset per feature, positive rows shifted past the negatives
        rest = RuleSet(rules[:mi] + rules[mi + 1:])
        others = mask_from_bools(first_covering_rule(rest, data.rows) >= 0)
        only = indices(rule_mask(rule.pairs, data) & ~others)
        codes = data.rows[only] + offsets
        codes[data.labels[only]] += n_codes
        counts = np.bincount(codes.ravel(), minlength=2 * n_codes).tolist()
        assert [j for j, _, _, _ in table.free] == [
            j for j, v in enumerate(vocab_sizes) if j not in rule.features and v >= 2
        ]
        for j, vocab, packed, total in table.free:
            assert vocab == vocab_sizes[j] and len(packed) == vocab
            assert total == sum(packed)
            # each entry unpacks to its value's bit and counts
            o = offsets[j]
            for v, entry in enumerate(packed):
                assert entry & (1 << vocab) - 1 == 1 << v
                assert entry >> vocab & (1 << width) - 1 == counts[o + v]
                assert entry >> vocab + width == counts[n_codes + o + v]
            if vocab <= 5:
                sets = [vals for size in range(1, vocab)
                        for vals in combinations(range(vocab), size)]
            else:
                sets = [(v,) for v in range(vocab)]
                sets += [tuple(u for u in range(vocab) if u != v) for v in range(vocab)]
                sets += [tuple(sorted(rng.sample(range(vocab), rng.randint(2, vocab - 2))))
                         for _ in range(10)]
            for vals in sets:
                x = sum(packed[v] for v in vals)
                grown = Rule(rule.conditions + (Condition(j, vals),))
                expected = normalize(RuleSet(rules[:mi] + (grown,) + rules[mi + 1:]),
                                     vocab_sizes).rules
                # a growth that makes another current rule is found by its sum
                assert ((j, x) in table.collisions) == (grown in rules)
                if grown in rules:
                    assert table.collisions[j, x] == grown.pairs
                    assert materialized(prop, prop.edit(mi, table.collisions[j, x])) == expected
                    continue
                move = (table, j, x)
                chosen = prop.apply(move)
                made = chosen.rules.rules
                made_rule, made_mask = made[mi], chosen.entries[mi][0]
                assert made == expected and len(expected) == len(rules)
                assert made_rule == grown and made_mask == rule_mask(grown.pairs, data)
                full = score(RuleSet(expected), data, h)
                assert prop.posterior_of(move) == full.log_posterior  # floats compared exactly
                assert chosen.score == full


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_growth_table_scores_equal_full_rescore(draw):
    rng = random.Random(draw.draw(st.integers(0, 10**6)))
    # vocabularies up to 40 values: a packed entry's fields sit past its
    # vocabulary's bits
    vocab_sizes = draw.draw(
        st.lists(st.integers(2, 4) | st.integers(5, 40), min_size=2, max_size=4)
    )
    n_rows = draw.draw(st.integers(1, 40))
    rows = [[rng.randrange(v) for v in vocab_sizes] for _ in range(n_rows)]
    labels = [rng.random() < 0.5 for _ in range(n_rows)]
    data = make_dataset(vocab_sizes, rows, labels)
    # unequal theta, so the DM items' order of addition shows in the floats
    h = hypers(data, theta=[rng.uniform(0.2, 5.0) for _ in vocab_sizes],
               alpha_l=rng.uniform(0.5, 5.0), beta_l=rng.uniform(1.0, 50.0))
    assert_growth_tables_rescore(data, h, near_duplicate_ruleset(rng, vocab_sizes), rng)


@pytest.mark.parametrize("n_rows", [31, 32])
def test_growth_table_fields_hold_a_value_of_every_row(n_rows):
    # feature 0 has value 0 in every row and the one rule covers every row,
    # so that value's count of a class is the row count: at 32 rows that
    # takes the count field's top bit, and a field one bit short would
    # carry into the next
    rows = [[0, i % 3, i % 40] for i in range(n_rows)]
    rules = (Rule.of({2: tuple(range(39))}),)
    for labels in ([0] * n_rows, [1] * n_rows, [i % 2 for i in range(n_rows)]):
        data = make_dataset((2, 3, 40), rows, labels)
        assert_growth_tables_rescore(data, hypers(data), rules, random.Random(n_rows))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_proposals_of_equal_rules_share_one_growth_memo(draw):
    from mars.search import _growth_moves

    rng = random.Random(draw.draw(st.integers(0, 10**6)))
    vocab_sizes = draw.draw(
        st.lists(st.integers(2, 4) | st.integers(5, 31), min_size=2, max_size=4)
    )
    rows = [[rng.randrange(v) for v in vocab_sizes] for _ in range(16)]
    data = make_dataset(vocab_sizes, rows, [rng.random() < 0.5 for _ in range(16)])
    h = hypers(data)
    keys = tuple(rule.pairs for rule in near_duplicate_ruleset(rng, vocab_sizes))
    # a one-condition rule the set lacks, to append and delete again
    extra = next(
        ((j, (v,)),)
        for j, vocab in enumerate(vocab_sizes)
        for v in range(vocab)
        if ((j, (v,)),) not in keys
    )
    first = Proposal.of(keys, data, h)
    detour = first.apply(first.edit(len(keys), extra))
    second = detour.apply(detour.edit(len(keys), None))
    assert second.keys == first.keys and second.memo is first.memo
    assert second.growth is first.growth and detour.growth is not first.growth
    for idx, xrow in enumerate(data.rows):
        seed = rng.random()
        # the detour's rules put their own tables in the memo, the first
        # proposal fills it and the second reads it; a proposal of an empty
        # memo is the reference
        moves_of = {}
        for prop in (detour, first, second):
            moves_of[prop] = _growth_moves(prop, idx, xrow, random.Random(seed))
            for move in moves_of[prop]:
                prop.posterior_of(move)
        reference = Proposal.of(keys, data, h)
        assert reference.memo is not first.memo
        want = _growth_moves(reference, idx, xrow, random.Random(seed))
        for prop in (first, second):
            moves = moves_of[prop]
            assert len(moves) == len(want)
            for move, ref in zip(moves, want):
                assert move.__class__ is ref.__class__
                if move.__class__ is tuple:
                    assert move[0] is first.growth[move[0].mi]
                    assert move[1:] == ref[1:]
                # floats compared exactly
                assert prop.posterior_of(move) == reference.posterior_of(ref)
                assert materialized(prop, move) == materialized(reference, ref)


def test_each_growth_table_is_built_once_per_chain(monkeypatch):
    import mars.search as search

    chains, built = [], Counter()  # chains started; tables built by (chain, keys, mi)
    init, start_chain = search._GrowthTable.__init__, search._start_chain

    def counting_init(self, prop, mi):
        built[chains[-1], prop.keys, mi] += 1
        init(self, prop, mi)

    def marking_start(state):
        chains.append(state.chain)
        return start_chain(state)

    monkeypatch.setattr(search._GrowthTable, "__init__", counting_init)
    monkeypatch.setattr(search, "_start_chain", marking_start)
    tables = 0
    for seed in range(10):
        data = tiny_instance(seed)
        chains.clear()
        built.clear()
        run(data, hypers(data), small_cfg(n_iter=150, n_restarts=2, random_seed=seed))
        assert chains == [0, 1, 2]
        assert all(n == 1 for n in built.values())
        tables += len(built)
    assert tables


def test_a_dropped_proposal_is_collected_while_its_growth_memo_lives():
    import gc
    import weakref

    from mars.search import _GrowthTable, _growth_moves

    rng = random.Random(5)
    vocab_sizes = (3, 4, 2)
    rows = [[rng.randrange(v) for v in vocab_sizes] for _ in range(16)]
    data = make_dataset(vocab_sizes, rows, [i % 2 for i in range(16)])
    # near duplicates, so some tables hold collisions
    keys = tuple(rule.pairs for rule in near_duplicate_ruleset(rng, vocab_sizes))
    prop = Proposal.of(keys, data, hypers(data))
    for idx, xrow in enumerate(data.rows):
        for move in _growth_moves(prop, idx, xrow, random.Random(idx)):
            prop.posterior_of(move)
    memo, tables = prop.memo, dict(prop.growth)
    assert tables and any(table.collisions for table in tables.values())
    dropped = weakref.ref(prop)
    del prop, move
    gc.collect()
    assert dropped() is None
    assert memo[keys] == tables
    assert all(isinstance(table, _GrowthTable) for table in memo[keys].values())


def test_each_chain_starts_a_growth_memo_of_its_own(monkeypatch):
    import mars.search as search

    memos = []  # the current proposal's memo at each step, by chain
    step = search.anneal_step

    def recording(state):
        while len(memos) <= state.chain:
            memos.append([])
        memos[state.chain].append(state.current.memo)
        return step(state)

    monkeypatch.setattr(search, "anneal_step", recording)
    data = tiny_instance(2)
    run(data, hypers(data), small_cfg(n_iter=60, n_restarts=3, random_seed=1))
    assert len(memos) == 4
    firsts = [chain[0] for chain in memos]
    assert len({id(memo) for memo in firsts}) == len(firsts)
    for chain in memos:
        assert all(memo is chain[0] for memo in chain)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_seed_scores_equal_full_rescore(draw):
    from dataclasses import replace

    from mars.bounds import initial_bounds
    from mars.search import _seed_moves

    rng = random.Random(draw.draw(st.integers(0, 10**6)))
    # vocabularies past 21 values, where random.sample would redraw taken
    # indices instead of shuffling a pool
    vocab_sizes = draw.draw(
        st.lists(st.integers(2, 3) | st.integers(22, 31), min_size=1, max_size=4)
    )
    n_rows = draw.draw(st.integers(1, 40))
    rows = [[rng.randrange(v) for v in vocab_sizes] for _ in range(n_rows)]
    data = make_dataset(vocab_sizes, rows, [rng.random() < 0.5 for _ in range(n_rows)])
    # unequal theta, so the DM items' order of addition shows in the floats
    h = hypers(data, theta=[rng.uniform(0.2, 5.0) for _ in vocab_sizes],
               alpha_l=rng.uniform(0.5, 5.0), beta_l=rng.uniform(1.0, 50.0))
    rules = near_duplicate_ruleset(rng, vocab_sizes)
    prop = Proposal.of([rule.pairs for rule in rules], data, h)
    bounds = replace(initial_bounds(data, h), min_support=1, m_cap=None)
    for xrow in data.rows[:4]:
        for seed in _seed_moves(prop, xrow, rng, 16, bounds):
            chosen = prop.apply(seed)
            made = chosen.rules.rules
            rule, mask = made[-1], seed.mask
            assert made == rules + (rule,)
            assert mask == rule_mask(rule.pairs, data)
            assert all(xrow[c.feature_id] in c.values for c in rule.conditions)
            full = score(RuleSet(made), data, h)
            assert prop.posterior_of(seed) == full.log_posterior  # floats compared exactly
            assert chosen.score == full
            assert chosen.entries[-1][0] == mask


def test_add_rule_proposals_build_no_rule(monkeypatch):
    """Every action's candidates, add-rule seeds included, are scored as
    edits and growths, and proposals keep their rules as pairs: scoring
    builds no Rule or Condition, nor does a kept step that is no new best.
    A new best builds exactly its rule set, once, for its improve record."""
    import mars.search as search
    from mars.search import NEGATIVE_ACTIONS, POSITIVE_ACTIONS

    built = []
    picked = Counter()

    def counting(cls):
        def make(*args, **kwargs):
            made = cls(*args, **kwargs)
            built.append(made)
            return made
        return make

    def recording(*args, **kwargs):
        pick = propose(*args, **kwargs)
        assert not built  # scoring every candidate built nothing
        if pick is not None:
            picked[pick.action] += 1
        return pick

    monkeypatch.setattr(search, "Rule", counting(Rule))
    monkeypatch.setattr(search, "Condition", counting(Condition))
    monkeypatch.setattr(search, "propose", recording)
    kept_actions = Counter()
    new_bests = 0
    for seed in range(10):
        data = tiny_instance(seed)
        cfg = small_cfg(n_iter=100, random_seed=seed)
        state = init_state(data, hypers(data), cfg)
        for _ in range(cfg.n_iter):
            current, best = state.current, state.best
            built.clear()
            actions = Counter(picked)
            anneal_step(state)
            if state.best is best:
                assert not built  # a rejected step, a stall or an accepted non-best
                if state.current is current:
                    continue
            (action,) = (picked - actions).elements()
            kept_actions[action] += 1
            if state.best is best:
                continue
            new_bests += 1
            assert state.runlog.records[-1]["event"] == "improve"
            rules = [x for x in built if isinstance(x, Rule)]
            conditions = [x for x in built if isinstance(x, Condition)]
            # the very rules and conditions of the best's rule set, each built once
            made = state.best.rules.rules
            assert len(rules) == len(made) and all(r is m for r, m in zip(rules, made))
            expected = [c for rule in made for c in rule.conditions]
            assert len(conditions) == len(expected)
            assert all(c is e for c, e in zip(conditions, expected))
    assert new_bests
    assert set(kept_actions) == set(POSITIVE_ACTIONS + NEGATIVE_ACTIONS)


def test_growth_moves_hand_a_collision_over_as_its_rule_set():
    from mars.model import normalize
    from mars.search import _Edit, _growth_moves

    # narrowing `wide` by x1 in {1} makes `narrow`, which is already there
    data = make_dataset((2, 2), [[0, 0], [0, 1], [1, 1]], [1, 0, 0])
    wide, narrow = Rule.of({0: (0,)}), Rule.of({0: (0,), 1: (1,)})
    h = hypers(data)
    prop = Proposal.of((wide.pairs, narrow.pairs), data, h)
    moves = _growth_moves(prop, 1, data.rows[1], random.Random(0))
    # the canonical variant excludes the example's value 1: x1 in {0}
    assert materialized(prop, moves[0]) == (Rule.of({0: (0,), 1: (0,)}), narrow)
    # a random variant drew x1 in {1}: the move comes as the edit that
    # deletes `wide`, the copy of `narrow` right after it being kept
    collision = prop.edit(0, None)
    assert any(m.__class__ is _Edit and m == collision for m in moves)
    assert materialized(prop, collision) == (narrow,)
    raw = raw_add_condition((wide, narrow), data, 1, data.rows[1], random.Random(0))
    assert [materialized(prop, m) for m in moves] == [
        normalize(RuleSet(edit), data.vocab_sizes).rules for edit in raw
    ]


def test_edit_keeps_first_of_duplicates():
    from mars.search import _splice

    data = make_dataset((2, 2), [[0, 0], [1, 1]], [1, 0])
    h = hypers(data)
    a, b, c = Rule.of({0: (0,)}), Rule.of({1: (1,)}), Rule.of({0: (1,), 1: (0,)})

    def edited(rules, mi, new):
        prop = Proposal.of([rule.pairs for rule in rules], data, h)
        edit = prop.edit(mi, None if new is None else new.pairs)
        return materialized(prop, edit), edit.k

    assert edited((a, b, c), 2, b) == ((a, b), None)  # the duplicate comes first
    assert edited((a, b, c), 0, b) == ((b, c), None)  # the edited rule comes first
    assert edited((a, b, c), 1, None) == ((a, c), None)
    assert edited((a, b), 1, c) == ((a, c), None)
    # a later duplicate not right after the edited rule is dropped where it is
    assert edited((a, b, c), 0, c) == ((c, b), 2)
    assert _splice(("a", "b", "c"), 0, "c", 2) == ("c", "b")
    assert _splice(("a", "b", "c"), 1, None, None) == ("a", "c")
    assert _splice(("a", "b"), 2, "c", None) == ("a", "b", "c")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_add_value_grows_each_rejecting_condition_by_the_example_value(draw):
    from mars.model import normalize
    from mars.search import _edits_add_value

    rng = random.Random(draw.draw(st.integers(0, 10**6)))
    vocab_sizes = draw.draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    rows = [[rng.randrange(v) for v in vocab_sizes] for _ in range(12)]
    data = make_dataset(vocab_sizes, rows, [i % 2 for i in range(12)])
    rules = near_duplicate_ruleset(rng, vocab_sizes)
    prop = Proposal.of([rule.pairs for rule in rules], data, hypers(data))
    for xrow in data.rows:
        if any(rule_covers(rule, xrow) for rule in rules):
            continue
        rejecting = [
            (mi, ci)
            for mi, rule in enumerate(rules)
            for ci, cond in enumerate(rule.conditions)
            if xrow[cond.feature_id] not in cond.values
        ]
        assert {mi for mi, _ in rejecting} == set(range(len(rules)))
        expected = []
        for mi, ci in rejecting:
            conds = list(rules[mi].conditions)
            j = conds[ci].feature_id
            conds[ci] = Condition(j, conds[ci].values + (int(xrow[j]),))
            grown = rules[:mi] + (Rule(tuple(conds)),) + rules[mi + 1:]
            expected.append(normalize(RuleSet(grown), vocab_sizes).rules)
        assert [materialized(prop, e) for e in _edits_add_value(prop, xrow)] == expected


def test_add_value_drops_condition_that_reaches_full_vocabulary():
    from mars.search import _edits_add_value

    data = make_dataset((2, 3), [[0, 0], [1, 2]], [1, 0])
    h = hypers(data)
    lone = Rule.of({0: (0,)})
    pair = Rule.of({0: (0,), 1: (0, 1)})
    # growing x0 to {0, 1} leaves nothing of `lone`: the rule goes
    prop = Proposal.of((lone.pairs,), data, h)
    assert [materialized(prop, e) for e in _edits_add_value(prop, data.rows[1])] == [()]
    # growing x1 to {0, 1, 2} leaves {x0: 0}, which duplicates `lone`
    prop = Proposal.of((lone.pairs, pair.pairs), data, h)
    assert (lone,) in [materialized(prop, e) for e in _edits_add_value(prop, data.rows[1])]


def test_chosen_proposal_score_equals_full_rescore(monkeypatch):
    import mars.search as search
    from mars.scoring import prior_terms_from_counts

    chosen = []

    def recording(fn):
        def wrapper(state, example):
            pick = fn(state, example)
            chosen.append((state.current, pick))
            return pick
        return wrapper

    # propose serves every step, the simplify steps at accuracy 1.0 included
    monkeypatch.setattr(search, "propose", recording(search.propose))
    for seed in range(20):
        data = tiny_instance(seed)
        h = hypers(data)
        cfg = small_cfg(n_iter=150, random_seed=seed, explore_prob=0.3)
        state = init_state(data, h, cfg)
        chosen.clear()
        for _ in range(cfg.n_iter):
            anneal_step(state)
        picks = [(current, pick) for current, pick in chosen if pick is not None]  # None: a stall
        assert picks
        for current, pick in picks:
            prop = current.apply(pick.candidate)
            assert prop.score == score(prop.rules, data, h)  # floats compared exactly
            # the float the step compares is the materialized proposal's
            assert pick.log_posterior == prop.score.log_posterior
            covered = first_covering_rule(prop.rules, data.rows) >= 0
            assert prop.union_mask == mask_from_bools(covered)
            assert len(prop.entries) == len(prop.rules.rules)
            for rule, entry in zip(prop.rules.rules, prop.entries):
                counts = [(c.feature_id, c.n_values) for c in rule.conditions]
                assert entry == (rule_mask(rule.pairs, data), *prior_terms_from_counts(counts, h))
        assert state.best.score == score(state.best.rules, data, h)


def test_rejected_steps_build_no_proposal(monkeypatch):
    import mars.search as search

    built = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            built.append(None)
            return fn(*args, **kwargs)
        return wrapper

    # every candidate, a growth included, materializes through Proposal.apply
    monkeypatch.setattr(search.Proposal, "apply", counting(search.Proposal.apply))
    rejected = 0
    for seed in range(20):
        data = tiny_instance(seed)
        h = hypers(data)
        cfg = small_cfg(n_iter=150, random_seed=seed, explore_prob=0.3)
        state = init_state(data, h, cfg)
        built.clear()
        kept = 0
        for _ in range(cfg.n_iter):
            current, best = state.current, state.best
            anneal_step(state)
            if state.current is not current or state.best is not best:
                kept += 1
            elif state.stall_streak == 0:
                rejected += 1
        # one proposal per kept step, even one both accepted and a new best
        assert len(built) == kept
    assert rejected


def test_candidates_and_picks_hold_no_proposal(monkeypatch):
    """A candidate is data that the current proposal scores and applies: an
    edit ``(mi, pairs, k, mask)`` or a growth ``(table, feature, x)``.
    Nothing ``propose`` or a move builder returns refers to a Proposal, so a
    kept candidate keeps no rule set alive."""
    import gc
    import types

    import mars.search as search
    from mars.search import _Edit, _GrowthTable

    def reaches_proposal(root):
        # the objects ``root`` refers to, and theirs, short of code and
        # modules, which reach everything
        seen, stack = set(), [root]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
                continue
            seen.add(id(obj))
            if isinstance(obj, Proposal):
                return True
            stack.extend(gc.get_referents(obj))
        return False

    returned = []
    for name in ("_edits_add_value", "_edits_remove_condition", "_seed_moves",
                 "_growth_moves", "_edits_remove_rule", "propose"):
        def recording(*args, build=getattr(search, name)):
            returned.append(build(*args))
            return returned[-1]
        monkeypatch.setattr(search, name, recording)

    kinds = Counter()
    for seed in range(6):
        data = tiny_instance(seed)
        state = init_state(data, hypers(data), small_cfg(n_iter=100, random_seed=seed,
                                                         explore_prob=0.3))
        for _ in range(100):
            anneal_step(state)
        assert reaches_proposal([state])  # the walk finds a Proposal that is there
    for moves in returned:
        for c in moves if isinstance(moves, list) else [moves.candidate] if moves else []:
            if c.__class__ is tuple:
                table, feature, x = c
                assert table.__class__ is _GrowthTable and type(feature) is type(x) is int
            else:
                assert c.__class__ is _Edit
            kinds[c.__class__] += 1
    assert kinds[tuple] and kinds[_Edit]
    assert _Edit._fields == ("mi", "pairs", "k", "mask")
    assert not reaches_proposal(returned)
