"""Annealing search: proposals, acceptance rule, determinism, toy recovery."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mars.bounds import update_bounds
from mars.data import rule_mask, union_mask
from mars.errors import DegenerateLabelError
from mars.model import Condition, Rule, RuleSet, rule_covers
from mars.scoring import Hyperparams, confusion_counts, score
from mars.search import (
    SearchConfig,
    _accepts,
    anneal_step,
    init_state,
    propose,
    run,
    sample_misclassified,
    temperature,
)

from oracles import make_dataset, tiny_instance


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
    assert state.current.union_mask == union_mask(state.current.rules, data)
    assert state.current.score.confusion == confusion_counts(state.current.rules, data)


# ---------------------------------------------------------------------------
# misclassified sampling
# ---------------------------------------------------------------------------

def _state_with(data, rules, cfg=None, seed=0):
    h = hypers(data)
    state = init_state(data, h, cfg or small_cfg(random_seed=seed))
    from mars.search import _Scorer

    state.current = _Scorer({}, data, h).proposal(rules.rules, "test")
    return state


def test_perfect_classifier_yields_no_example():
    data = make_dataset((2, 2), [[0, 0], [0, 1], [1, 0], [1, 1]], [1, 1, 0, 0])
    perfect = RuleSet((Rule.of({0: (0,)}),))
    state = _state_with(data, perfect)
    assert sample_misclassified(state, data) is None


def test_empty_ruleset_samples_only_positives():
    data = tiny_instance(5)
    state = _state_with(data, RuleSet(()))
    for _ in range(30):
        idx, label = sample_misclassified(state, data)
        assert label is True
        assert bool(data.labels[idx])


def test_sampling_is_uniform_over_misclassified():
    # chi-squared test over 10^4 draws
    from scipy.stats import chisquare

    data = tiny_instance(9)
    state = _state_with(data, RuleSet(()))
    mis = [i for i in range(data.n_rows) if data.labels[i]]
    draws = Counter(sample_misclassified(state, data)[0] for _ in range(10_000))
    counts = [draws.get(i, 0) for i in mis]
    assert sum(counts) == 10_000
    _, pvalue = chisquare(counts)
    assert pvalue > 1e-4


# ---------------------------------------------------------------------------
# proposals
# ---------------------------------------------------------------------------

def _find_example(state, data, want_positive):
    while True:
        ex = sample_misclassified(state, data)
        if ex is not None and ex[1] == want_positive:
            return ex


def test_add_value_neighbors_grow_coverage():
    data = tiny_instance(11)
    rng = random.Random(1)
    start = RuleSet((Rule.of({0: (0,)}),))
    state = _state_with(data, start)
    ex = sample_misclassified(state, data)
    if ex is None or not ex[1]:
        pytest.skip("instance classified; pick another seed")
    from mars.search import _edits_add_value
    from mars.model import normalize

    before = union_mask(state.current.rules, data)
    for edit in _edits_add_value(state.current.rules.rules, data, data.rows[ex[0]]):
        after = union_mask(normalize(RuleSet(edit), data.vocab_sizes), data)
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

    moves = _growth_moves(state.current, data, hypers(data), idx, data.rows[idx], state.rng)
    edits = [materialized(move) for move in moves]
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
    from mars.search import _edits_add_rule

    state.bounds = replace(state.bounds, min_support=3)
    ex = _find_example(state, data, want_positive=True)
    edits = _edits_add_rule(
        state.current.rules.rules, data, data.rows[ex[0]], state.rng, 64, state.bounds, {}
    )
    for edit in edits:
        assert rule_mask(edit[-1], data).bit_count() >= 3


def test_add_rule_blocked_by_rule_count_cap():
    data = tiny_instance(17)
    h = hypers(data)
    state = init_state(data, h, small_cfg(random_seed=2))
    from dataclasses import replace
    from mars.search import _edits_add_rule

    state.bounds = replace(state.bounds, m_cap=len(state.current.rules.rules))
    ex = _find_example(state, data, want_positive=True)
    assert _edits_add_rule(
        state.current.rules.rules, data, data.rows[ex[0]], state.rng, 64, state.bounds, {}
    ) == []


def test_exploit_mode_returns_posterior_argmax():
    data = tiny_instance(19)
    h = hypers(data)
    cfg = small_cfg(explore_prob=0.0, neighbor_budget=500, random_seed=4)
    state = init_state(data, h, cfg)
    for _ in range(20):
        ex = sample_misclassified(state, data)
        if ex is None:
            break
        rng_snapshot = state.rng.getstate()
        prop = propose(state, ex, data, h, cfg)
        if prop is None:
            continue
        # replay the same action's full neighbor set and verify the argmax
        state.rng.setstate(rng_snapshot)
        replay = propose(state, ex, data, h, cfg)
        assert replay.rules == prop.rules
        assert replay.score.log_posterior == prop.score.log_posterior
        anneal_step(state, data, h, cfg)


def test_proposals_are_normalized_rulesets():
    from mars.model import is_normalized

    data = tiny_instance(23)
    h = hypers(data)
    cfg = small_cfg(random_seed=8)
    state = init_state(data, h, cfg)
    for _ in range(300):
        anneal_step(state, data, h, cfg)
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
    _, best, runlog = run(data, hypers(data), cfg)
    improvements = [r for r in runlog.records if r["event"] == "improve"]
    assert improvements[-1]["log_posterior"] == best.log_posterior
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


def test_admitted_rules_meet_support_floor_during_run():
    data = tiny_instance(8)
    h = hypers(data)
    cfg = small_cfg(n_iter=600, random_seed=7)
    state = init_state(data, h, cfg)
    admissions = 0
    for _ in range(cfg.n_iter):
        floor = state.bounds.min_support
        before = set(state.current.rules.rules)
        ex = sample_misclassified(state, data)
        if ex is None:
            anneal_step(state, data, h, cfg)
            continue
        prop = propose(state, ex, data, h, cfg)
        if prop is not None:
            if prop.action == "add_rule":
                new_rules = set(prop.rules.rules) - before
                assert new_rules, "add_rule proposal must introduce a rule"
                for rule in new_rules:
                    assert rule_mask(rule, data).bit_count() >= floor
                    admissions += 1
            delta = prop.score.log_posterior - state.current.score.log_posterior
            if _accepts(state.rng, delta, temperature(cfg, state.t)):
                state.current = prop
        state.t += 1
    assert admissions > 0


def test_incremental_confusion_stays_consistent():
    data = tiny_instance(12)
    h = hypers(data)
    cfg = small_cfg(n_iter=400, random_seed=3)
    state = init_state(data, h, cfg)
    for _ in range(cfg.n_iter):
        anneal_step(state, data, h, cfg)
        assert state.current.score.confusion == confusion_counts(state.current.rules, data)


# ---------------------------------------------------------------------------
# edits come normalized; candidates are scored from cached per-rule terms
# ---------------------------------------------------------------------------

def raw_add_value(rules, data, xrow):
    """The add-value edits before normalization (one raw tuple each)."""
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


def materialized(move):
    """The rule set an add-condition move makes (a collision already is one)."""
    from mars.search import _Growth

    return move.edit() if isinstance(move, _Growth) else move


def raw_add_condition(rules, data, idx, xrow, rng):
    edits = []
    for mi, rule in enumerate(rules):
        if not rule_mask(rule, data) >> idx & 1:
            continue
        for j in range(data.n_features):
            vocab = data.vocab_sizes[j]
            if j in rule.features or vocab < 2:
                continue
            variants = [tuple(v for v in range(vocab) if v != int(xrow[j]))]
            for _ in range(2):
                variants.append(tuple(rng.sample(range(vocab), rng.randint(1, vocab - 1))))
            for vals in variants:
                grown = Rule(rule.conditions + (Condition(j, vals),))
                edits.append(rules[:mi] + (grown,) + rules[mi + 1:])
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
    from mars.search import (
        _edits_add_rule,
        _edits_add_value,
        _edits_remove_condition,
        _edits_remove_rule,
        _growth_moves,
        _Scorer,
    )

    rng = random.Random(draw.draw(st.integers(0, 10**6)))
    vocab_sizes = draw.draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    rows = [[rng.randrange(v) for v in vocab_sizes] for _ in range(12)]
    data = make_dataset(vocab_sizes, rows, [i % 2 for i in range(12)])
    h = hypers(data)
    rules = near_duplicate_ruleset(rng, vocab_sizes)

    def normalized(edits):
        return [normalize(RuleSet(e), vocab_sizes).rules for e in edits]

    def check(edits):
        # no builder returns the current rule set, so propose filters none out
        assert rules not in [materialized(edit) for edit in edits]
        return edits

    assert check(_edits_remove_condition(rules)) == normalized(raw_remove_condition(rules))
    assert check(_edits_remove_rule(rules)) == normalized(_edits_remove_rule(rules))
    # one proposal for every example: its growth tables are built once, then reused
    prop = _Scorer({}, data, h).proposal(rules, "")
    bounds = replace(initial_bounds(data, h), min_support=1, m_cap=None)
    for idx, xrow in enumerate(data.rows):
        got = check(_edits_add_value(rules, data, xrow))
        assert got == normalized(raw_add_value(rules, data, xrow))
        seed = rng.random()
        moves = check(_growth_moves(prop, data, h, idx, xrow, random.Random(seed)))
        assert [materialized(move) for move in moves] == normalized(
            raw_add_condition(rules, data, idx, xrow, random.Random(seed))
        )
        known = {}
        got = check(_edits_add_rule(rules, data, xrow, random.Random(seed), 8, bounds, known))
        assert got == normalized(got)
        assert all(mask == rule_mask(rule, data) for rule, mask in known.items())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_growth_table_scores_equal_full_rescore(draw):
    from itertools import combinations

    from mars.model import normalize
    from mars.search import _Growth, _GrowthTable, _Scorer

    rng = random.Random(draw.draw(st.integers(0, 10**6)))
    vocab_sizes = draw.draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    n_rows = draw.draw(st.integers(1, 40))
    rows = [[rng.randrange(v) for v in vocab_sizes] for _ in range(n_rows)]
    labels = [rng.random() < 0.5 for _ in range(n_rows)]
    data = make_dataset(vocab_sizes, rows, labels)
    # unequal theta, so the DM items' order of addition shows in the floats
    h = hypers(data, theta=[rng.uniform(0.2, 5.0) for _ in vocab_sizes],
               alpha_l=rng.uniform(0.5, 5.0), beta_l=rng.uniform(1.0, 50.0))
    rules = near_duplicate_ruleset(rng, vocab_sizes)
    prop = _Scorer({}, data, h).proposal(rules, "")
    scorer = _Scorer(prop.rule_cache, data, h)
    for mi, rule in enumerate(rules):
        table = _GrowthTable(prop, mi, data, h)
        assert table.free == [
            j for j, v in enumerate(vocab_sizes) if j not in rule.features and v >= 2
        ]
        for j in table.free:
            # every proper value set, the full vocabulary minus one included
            for size in range(1, vocab_sizes[j]):
                for vals in combinations(range(vocab_sizes[j]), size):
                    grown = Rule(rule.conditions + (Condition(j, vals),))
                    expected = normalize(RuleSet(rules[:mi] + (grown,) + rules[mi + 1:]),
                                         vocab_sizes).rules
                    if (j, vals) in table.collisions:
                        assert grown in rules
                        assert table.collisions[j, vals] == expected
                        continue
                    move = _Growth(table, j, vals)
                    assert move.edit() == expected and len(expected) == len(rules)
                    full = score(RuleSet(expected), data, h)
                    assert scorer.posterior(move) == full.log_posterior  # floats compared exactly
                    chosen = scorer.proposal(move, "add_condition")
                    assert chosen.score == full
                    assert chosen.rule_cache[grown][0] == rule_mask(grown, data)


def test_growth_moves_hand_a_collision_over_as_its_rule_set():
    from mars.model import normalize
    from mars.search import _growth_moves, _Scorer

    # narrowing `wide` by x1 in {1} makes `narrow`, which is already there
    data = make_dataset((2, 2), [[0, 0], [0, 1], [1, 1]], [1, 0, 0])
    wide, narrow = Rule.of({0: (0,)}), Rule.of({0: (0,), 1: (1,)})
    h = hypers(data)
    prop = _Scorer({}, data, h).proposal((wide, narrow), "")
    moves = _growth_moves(prop, data, h, 1, data.rows[1], random.Random(0))
    # the canonical variant excludes the example's value 1: x1 in {0}
    assert materialized(moves[0]) == (Rule.of({0: (0,), 1: (0,)}), narrow)
    assert (narrow,) in moves  # a random variant drew x1 in {1}
    raw = raw_add_condition((wide, narrow), data, 1, data.rows[1], random.Random(0))
    assert [materialized(m) for m in moves] == [
        normalize(RuleSet(edit), data.vocab_sizes).rules for edit in raw
    ]


def test_replace_rule_keeps_first_of_duplicates():
    from mars.search import _replace_rule

    a, b, c = Rule.of({0: (0,)}), Rule.of({1: (1,)}), Rule.of({0: (1,), 1: (0,)})
    assert _replace_rule((a, b, c), 2, b) == (a, b)  # the duplicate comes first
    assert _replace_rule((a, b, c), 0, b) == (b, c)  # the edited rule comes first
    assert _replace_rule((a, b, c), 1, None) == (a, c)
    assert _replace_rule((a, b), 1, c) == (a, c)


def test_add_value_drops_condition_that_reaches_full_vocabulary():
    from mars.search import _edits_add_value

    data = make_dataset((2, 3), [[0, 0], [1, 2]], [1, 0])
    lone = Rule.of({0: (0,)})
    pair = Rule.of({0: (0,), 1: (0, 1)})
    # growing x0 to {0, 1} leaves nothing of `lone`: the rule goes
    assert _edits_add_value((lone,), data, data.rows[1]) == [()]
    # growing x1 to {0, 1, 2} leaves {x0: 0}, which duplicates `lone`
    edits = _edits_add_value((lone, pair), data, data.rows[1])
    assert (lone,) in edits


def test_chosen_proposal_score_equals_full_rescore(monkeypatch):
    import mars.search as search
    from mars.scoring import rule_prior_terms

    chosen = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            prop = fn(*args, **kwargs)
            chosen.append(prop)
            return prop
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
            anneal_step(state, data, h, cfg)
        rescored = [prop for prop in chosen if prop is not None]  # None is a stall
        assert rescored
        for prop in rescored:
            assert prop.score == score(prop.rules, data, h)  # floats compared exactly
            assert prop.union_mask == union_mask(prop.rules, data)
            assert list(prop.rule_cache) == list(prop.rules.rules)
            for rule, entry in prop.rule_cache.items():
                assert entry == (rule_mask(rule, data), *rule_prior_terms(rule, h, data.vocab_sizes))
        assert state.best.score == score(state.best.rules, data, h)
