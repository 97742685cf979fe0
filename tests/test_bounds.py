"""Pruning-bound quantities: worked values, lemma/theorem checks, monotonicity."""

import math
import random
from dataclasses import astuple

import pytest

from mars.bounds import (
    BoundState,
    initial_bounds,
    log_lstar,
    log_omega,
    update_bounds,
    upsilon,
)
from mars.data import rule_mask
from mars.model import RuleSet
from mars.scoring import (
    Confusion,
    Hyperparams,
    log_likelihood,
    log_rule_count_prior,
    score,
)

from oracles import enumerate_rulesets, make_dataset, tiny_instance


def hypers(n, **kw):
    return Hyperparams.defaults(n, **kw)


def balanced_dataset(n_half=100):
    rows = [[i % 2, (i // 2) % 2] for i in range(2 * n_half)]
    labels = [1] * n_half + [0] * n_half
    return make_dataset((2, 2), rows, labels)


# ---------------------------------------------------------------------------
# upsilon
# ---------------------------------------------------------------------------

def test_upsilon_worked_example():
    # N+ = N- = 100, alpha = 100, beta = 1: 1 * 200 / (201 * 199)
    data = balanced_dataset(100)
    expected = 200.0 / (201.0 * 199.0)
    assert upsilon(data, hypers(2)) == pytest.approx(expected, rel=1e-12)
    assert upsilon(data, hypers(2)) == pytest.approx(5.000e-3, rel=1e-3)


def test_upsilon_vanishes_with_beta_neg():
    data = balanced_dataset(50)
    small = upsilon(data, hypers(2, beta_neg=1e-9))
    assert small < 1e-10


def test_upsilon_warns_when_above_one(caplog):
    data = balanced_dataset(5)
    weak = hypers(2, alpha_pos=1.5, beta_pos=1.0, alpha_neg=1.0, beta_neg=200.0)
    with caplog.at_level("WARNING", logger="mars.bounds"):
        state = initial_bounds(data, weak)
    assert upsilon(data, weak) > 1.0
    assert not state.enabled
    assert any("upsilon" in r.message for r in caplog.records)


def test_bounds_switching_off_warn_once_with_every_reason(caplog):
    # beta_pos = 1e6 breaks alpha_pos > beta_pos and lifts upsilon past 1:
    # one warning names both
    data = balanced_dataset(100)
    with caplog.at_level("WARNING", logger="mars.bounds"):
        state = initial_bounds(data, hypers(2, beta_pos=1e6))
    assert not state.enabled
    (record,) = caplog.records
    assert record.levelname == "WARNING"
    message = record.getMessage()
    assert message.startswith("pruning bounds disabled: ")
    assert "alpha_pos (100.0) must be > beta_pos (1000000.0)" in message
    assert "upsilon = 25" in message


def test_lemma_rule_deletion_bound_exhaustive():
    # log p(y|x,R) >= supp(z) log(upsilon) + log p(y|x,R minus z)
    for seed in range(3):
        data = tiny_instance(seed)
        h = hypers(data.n_features)
        log_ups = math.log(upsilon(data, h))
        for rs in enumerate_rulesets(data.vocab_sizes, max_rules=2, max_conditions=2):
            ll = log_likelihood(*astuple(score(rs, data, h).confusion), h)
            for z in range(len(rs.rules)):
                reduced = RuleSet(rs.rules[:z] + rs.rules[z + 1 :])
                ll_reduced = log_likelihood(*astuple(score(reduced, data, h).confusion), h)
                supp = rule_mask(rs.rules[z].pairs, data).bit_count()
                assert ll >= supp * log_ups + ll_reduced - 1e-9


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------

def test_omega_worked_example_large_betas():
    h = hypers(50, beta_m=1000.0, beta_l=1000.0)
    expected = 1001.0 * 1001.0**2 * 50.0 / 1000.0
    assert math.exp(log_omega(h)) == pytest.approx(expected, rel=1e-9)
    assert math.exp(log_omega(h)) == pytest.approx(5.0150e7, rel=1e-3)


def test_omega_worked_example_unit_betas():
    h = hypers(1, beta_m=1.0, beta_l=1.0)
    assert math.exp(log_omega(h)) == pytest.approx(8.0, rel=1e-12)


def test_omega_increases_with_beta_l():
    h1 = hypers(4, beta_l=10.0)
    h2 = hypers(4, beta_l=100.0)
    assert log_omega(h2) > log_omega(h1)


# ---------------------------------------------------------------------------
# perfect-classification likelihood
# ---------------------------------------------------------------------------

def test_log_lstar_is_perfect_confusion_likelihood():
    data = tiny_instance(2)
    h = hypers(data.n_features)
    perfect = Confusion(tp=data.n_pos, fp=0, tn=data.n_neg, fn=0)
    assert log_lstar(data, h) == log_likelihood(*astuple(perfect), h)


def test_log_lstar_worked_example():
    data = balanced_dataset(100)
    assert log_lstar(data, hypers(2)) == pytest.approx(-2 * math.log(200.0), abs=1e-9)


def test_log_lstar_dominates_every_reachable_confusion():
    rng = random.Random(4)
    for seed in range(5):
        data = tiny_instance(seed)
        h = hypers(data.n_features)
        top = log_lstar(data, h)
        for _ in range(50):
            tp = rng.randint(0, data.n_pos)
            fp = rng.randint(0, data.n_neg)
            c = Confusion(tp=tp, fp=fp, tn=data.n_neg - fp, fn=data.n_pos - tp)
            assert top >= log_likelihood(*astuple(c), h) - 1e-12


# ---------------------------------------------------------------------------
# dynamic bound updates
# ---------------------------------------------------------------------------

def test_min_support_reduced_form_worked_example():
    # alpha_M = 1: support floor = ceil(log(1/omega) / log(upsilon))
    data = balanced_dataset(100)
    h = hypers(2, beta_m=1000.0, beta_l=1000.0, theta=(1.0,) * 2)
    state = initial_bounds(data, h)
    assert state.enabled
    assert state.log_ceiling == log_lstar(data, h) + log_rule_count_prior(0, h)
    state = update_bounds(state, state.log_ceiling)
    expected = math.ceil(-state.log_omega / state.log_upsilon - 1e-9)
    assert state.min_support == expected


def test_tiny_alpha_m_at_a_cap_of_one():
    # m_cap + alpha_m - 1 once rounded to 0 here and ended in log(0)
    data = balanced_dataset(100)
    state = initial_bounds(data, hypers(2, alpha_m=1e-17))
    assert state.enabled
    state = update_bounds(state, state.log_ceiling)
    assert state.m_cap == 1
    assert state.min_support == math.ceil(-state.log_omega / state.log_upsilon - 1e-9)


def test_underflowing_upsilon_keeps_the_support_floor_at_one():
    # upsilon underflows to 0.0; its log once ended in a math domain error
    data = balanced_dataset(100)
    h = hypers(2, beta_neg=5e-324)
    assert upsilon(data, h) == 0.0
    state = initial_bounds(data, h)
    assert state.enabled and state.log_upsilon == -math.inf
    state = update_bounds(state, state.log_ceiling)
    assert state.m_cap == 1
    assert state.min_support == 1


def test_min_support_matches_published_arithmetic():
    # omega ~= 5.015e7 and upsilon ~= 5.0e-3 give ceil(17.73 / 5.298) = 4
    log_o = math.log(5.015e7)
    log_u = math.log(5.0e-3)
    assert math.ceil(log_o / -log_u) == 4


def test_update_ignores_non_improving_values():
    # the cap and floor clamps, not a stored best, keep the state as it is
    data = balanced_dataset(20)
    for alpha_m in (1.0, 5.0, 40.0):
        h = hypers(2, alpha_m=alpha_m, beta_m=50.0, beta_l=50.0)
        state = update_bounds(update_bounds(initial_bounds(data, h), -60.0), -40.0)
        assert state.enabled
        for worse in (-40.0, -60.0, -1e6):
            assert update_bounds(state, worse) == state


def test_support_floor_holds_when_the_cap_shrinks():
    # at alpha_m > 1 the raw floor grows with the cap, so a tighter cap
    # computes a lower floor; the clamp keeps the earlier, still valid one
    state = BoundState(log_upsilon=-0.01, log_omega=1.0, log_ceiling=0.0, alpha_m=5.0,
                       enabled=True)
    state = update_bounds(state, -10.0)
    assert (state.m_cap, state.min_support) == (10, 228)
    state = update_bounds(state, -2.0)
    assert (state.m_cap, state.min_support) == (2, 228)  # 152 unclamped


def test_bounds_disabled_when_preconditions_fail(caplog):
    data = balanced_dataset(20)
    bad = hypers(2, alpha_m=5.0, beta_m=1.0)
    with caplog.at_level("WARNING", logger="mars.bounds"):
        state = initial_bounds(data, bad)
    assert not state.enabled
    state = update_bounds(state, -10.0)
    assert state.min_support == 1
    assert state.m_cap is None


def test_monotone_tightening_in_v_best():
    data = balanced_dataset(100)
    h = hypers(2, beta_m=100.0, beta_l=100.0)
    state = initial_bounds(data, h)
    best = state.log_ceiling
    caps, supports = [], []
    for v in [best - 400.0, best - 200.0, best - 50.0, best - 10.0, best]:
        state = update_bounds(state, v)
        caps.append(state.m_cap)
        supports.append(state.min_support)
    assert caps == sorted(caps, reverse=True)
    assert supports == sorted(supports)
    assert all(c >= 1 for c in caps)


def test_raising_betas_weakly_raises_min_support():
    data = balanced_dataset(100)
    floors = []
    for beta in (10.0, 1000.0, 100000.0):
        h = hypers(2, beta_m=beta, beta_l=beta)
        state = initial_bounds(data, h)
        state = update_bounds(state, state.log_ceiling)
        floors.append(state.min_support)
    assert floors == sorted(floors)


def test_soundness_at_the_optimum_exhaustive():
    # the MAP rule set survives bounds computed at any v <= its own score
    for seed in range(4):
        data = tiny_instance(seed)
        h = hypers(data.n_features, beta_m=10.0, beta_l=10.0)
        sets = enumerate_rulesets(data.vocab_sizes, max_rules=2, max_conditions=2)
        scored = [(score(rs, data, h).log_posterior, rs) for rs in sets]
        best_value = max(v for v, _ in scored)
        maximizers = [rs for v, rs in scored if v >= best_value - 1e-12]
        state = initial_bounds(data, h)
        assert state.enabled
        for v in [best_value - 100.0, best_value - 10.0, best_value - 1.0, best_value]:
            state = update_bounds(state, v)
            for rs in maximizers:
                assert rs.n_rules <= state.m_cap
                for rule in rs.rules:
                    assert rule_mask(rule.pairs, data).bit_count() >= state.min_support
