"""Posterior scoring against closed forms, quadrature, and recounts."""

import ast
import dataclasses
import math
import pickle
import random
from pathlib import Path

import numpy as np
import pytest

import mars.scoring
from mars.model import Condition, Rule, RuleSet
from mars.scoring import (
    Confusion,
    Hyperparams,
    log_likelihood,
    log_prior,
    log_rule_count_prior,
    prior_terms_from_counts,
    score,
    update_confusion,
)

from oracles import (
    make_dataset,
    oracle_confusion,
    oracle_log_likelihood,
    oracle_log_prior,
    quad_poisson_gamma_pmf,
    random_ruleset_for,
    tiny_instance,
    enumerate_rulesets,
)


def hypers(n_features, **kw):
    return Hyperparams.defaults(n_features, **kw)


# ---------------------------------------------------------------------------
# Hyperparams contract
# ---------------------------------------------------------------------------

def test_hyperparams_must_be_positive():
    with pytest.raises(ValueError):
        hypers(3, beta_m=0.0)
    with pytest.raises(ValueError):
        hypers(3, theta=(1.0, -1.0, 1.0))


@pytest.mark.parametrize(
    "key, value",
    [("alpha_m", True), ("theta", "12"), ("theta", [1, True]), ("beta_neg", "5"),
     ("theta", {0: 1.0, 1: 1.0})],
    ids=["bool", "string-theta", "bool-in-theta", "string", "dict-theta"],
)
def test_a_value_that_is_not_a_number_is_rejected_by_name(key, value):
    with pytest.raises(TypeError, match=key):
        hypers(2, **{key: value})


@pytest.mark.parametrize("key", ["alpha_m", "theta"])
def test_an_integer_past_the_float_range_is_too_large_not_an_overflow(key):
    # a model file's JSON can hold such an integer, and load_model reports
    # a ValueError, not an OverflowError, as a corrupt model file
    value = [10**400] * 2 if key == "theta" else 10**400
    with pytest.raises(ValueError, match="values too large"):
        hypers(2, **{key: value})


def test_defaults_are_the_field_defaults_with_theta_one_per_feature():
    assert hypers(3) == Hyperparams(theta=(1.0, 1.0, 1.0))
    assert hypers(2, theta=0.5) == Hyperparams(theta=[0.5, 0.5])


def test_saved_hyperparams_load_equal(tmp_path):
    from mars.data import FeatureSpec
    from mars.model_io import load_model, save_model

    features = tuple(FeatureSpec(f"c{j}", categories=("a", "b")) for j in range(2))
    rules = RuleSet((Rule.of({1: (0,)}),))
    hyper = hypers(2, alpha_m=2, theta=[0.5, 2])
    path = tmp_path / "model.json"
    save_model(path, features, rules, hyper, "y", {})
    model = load_model(path)
    assert (model.features, model.rules, model.hyper) == (features, rules, hyper)


def test_a_numpy_integer_is_stored_saved_and_loaded_as_a_float(tmp_path):
    from mars.data import FeatureSpec
    from mars.model_io import load_model, save_model

    features = (FeatureSpec("c0", categories=("a", "b")),)
    hyper = hypers(1, alpha_m=np.int64(3))
    assert type(hyper.alpha_m) is float
    path = tmp_path / "model.json"
    save_model(path, features, RuleSet((Rule.of({0: (0,)}),)), hyper, "y", {})
    assert load_model(path).hyper == hyper
    assert '"alpha_m": 3.0' in path.read_text()


def test_bound_precondition_report():
    from mars.bounds import _precondition_violations

    ok = hypers(3, beta_m=10.0, beta_l=10.0)
    assert _precondition_violations(ok) == []
    bad = hypers(3, alpha_m=5.0, beta_m=1.0)
    assert any("alpha_m" in v for v in _precondition_violations(bad))


def prior_floats(h):
    rules = [Rule.of({0: (0,)}), Rule.of({0: (0, 1), 2: (1, 2, 3)}), Rule.of({1: (2,), 2: (0,)})]
    return ([log_rule_count_prior(m, h) for m in range(4)]
            + [prior_terms_from_counts([(c.feature_id, c.n_values) for c in r.conditions], h)
               for r in rules])


def test_replace_rebuilds_the_prior_constants():
    h = hypers(3)
    before = prior_floats(h)  # fills h's memo tables
    changed = dataclasses.replace(h, alpha_l=2.0, beta_m=7.0)
    assert prior_floats(changed) == prior_floats(hypers(3, alpha_l=2.0, beta_m=7.0))
    assert prior_floats(changed) != before
    assert prior_floats(h) == before


def test_pickled_hyperparams_keep_equality_hash_and_prior():
    h = hypers(3, theta=(0.5, 1.0, 2.0), beta_l=30.0)
    expected = prior_floats(h)
    back = pickle.loads(pickle.dumps(h))
    assert back == h
    assert hash(back) == hash(h)
    assert prior_floats(back) == expected


def test_scoring_never_imports_bounds():
    # bounds imports scoring; the reverse, even deferred inside a function,
    # would make the dependency two-way again
    tree = ast.parse(Path(mars.scoring.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any(n.split(".")[-1] == "bounds" for n in names), ast.unparse(node)


# ---------------------------------------------------------------------------
# prior
# ---------------------------------------------------------------------------

def test_empty_ruleset_prior_closed_form():
    # alpha_M = beta_M = 1 makes p(M=0) = 1/2
    h = hypers(3, alpha_m=1.0, beta_m=1.0)
    assert log_prior(RuleSet(()), h) == pytest.approx(math.log(0.5), abs=1e-12)


def test_rule_count_prior_matches_quadrature():
    for alpha, beta in [(1.0, 1.0), (1.0, 100.0), (2.5, 7.0), (0.7, 3.0)]:
        h = hypers(2, alpha_m=alpha, beta_m=beta)
        for m in range(5):
            closed = math.exp(log_rule_count_prior(m, h))
            assert closed == pytest.approx(quad_poisson_gamma_pmf(m, alpha, beta), rel=1e-8)


def test_single_item_rule_uniform_theta():
    # one rule, one item: p(z) = theta_j / sum(theta) = 1/J
    n_features = 4
    h = hypers(n_features)
    rs = RuleSet((Rule.of({2: (0,)}),))
    lp = log_prior(rs, h)
    expected = (
        log_rule_count_prior(1, h)
        + _log_trunc_length(1, h)
        + math.log(1.0 / n_features)
    )
    assert lp == pytest.approx(expected, abs=1e-12)


def _log_trunc_length(length, h):
    from mars.scoring import log_rule_length_prior

    return log_rule_length_prior(length, h)


def test_item_flip_prior_ratio_is_three():
    # counts (2, 1) with theta = 1: moving an item from j2 to j1 multiplies
    # the prior by (l1 + theta1) / (l2 + theta2 - 1) = 3 / 1 = 3
    h = hypers(3)
    before = RuleSet((Rule.of({0: (0, 1), 1: (0,)}),))
    after = RuleSet((Rule.of({0: (0, 1, 2)}),))
    diff = log_prior(after, h) - log_prior(before, h)
    assert diff == pytest.approx(math.log(3.0), abs=1e-12)


def test_log_prior_matches_mpmath_oracle():
    rng = random.Random(42)
    vocab = (4, 3, 5, 2)
    for trial in range(60):
        theta = tuple(rng.uniform(0.2, 3.0) for _ in range(4)) if trial % 2 else (1.0,) * 4
        h = hypers(
            4,
            alpha_m=rng.uniform(0.5, 3.0),
            beta_m=rng.uniform(1.0, 500.0),
            alpha_l=rng.uniform(0.5, 3.0),
            beta_l=rng.uniform(1.0, 500.0),
            theta=theta,
        )
        rs = random_ruleset_for(rng, vocab)
        assert log_prior(rs, h) == pytest.approx(oracle_log_prior(rs, h, vocab), abs=1e-9)


def test_rule_prior_terms_sum_to_log_prior_exactly():
    # memoized per-rule terms equal the unmemoized expressions, and added in
    # log_prior's order they give its float
    from mars.scoring import log_rule_length_prior

    rng = random.Random(5)
    vocab = (4, 3, 5, 2)
    h = hypers(4, theta=(0.5, 1.0, 2.0, 3.0), beta_m=20.0, beta_l=30.0)
    theta_sum = sum(h.theta)
    for _ in range(100):
        rs = random_ruleset_for(rng, vocab)
        total = log_rule_count_prior(rs.n_rules, h)
        for rule in rs.rules:
            counts = [(c.feature_id, c.n_values) for c in rule.conditions]
            length_term, dm_term = prior_terms_from_counts(counts, h)
            dm = 0.0
            for c in rule.conditions:
                t = h.theta[c.feature_id]
                dm += math.lgamma(c.n_values + t) - math.lgamma(t)
            assert length_term == log_rule_length_prior(rule.n_items, h)
            assert dm_term == math.lgamma(theta_sum) - math.lgamma(rule.n_items + theta_sum) + dm
            total += length_term
            total += dm_term
        assert total == log_prior(rs, h)


def test_log_prior_rejects_vocabulary_overflow():
    # log_prior reads only value counts: score rejects a value past the vocabulary
    data = make_dataset((3, 3), [[0, 0], [2, 1]], [0, 1])
    rs = RuleSet((Rule.of({0: (0, 5)}),))
    with pytest.raises(ValueError, match="past its vocabulary"):
        score(rs, data, hypers(2))


@pytest.mark.parametrize(
    "rules",
    [(Rule.of({0: (1,)}), Rule.of({0: (1,)})), (Rule.of({0: (0, 1, 2)}),)],
    ids=["equal-rules", "whole-vocabulary"],
)
def test_score_rejects_an_unnormalized_rule_set_with_value_error(rules):
    # a raised check, not an assert that python -O strips
    data = make_dataset((3, 3), [[0, 0], [2, 1]], [0, 1])
    with pytest.raises(ValueError, match="normalized"):
        score(RuleSet(rules), data, hypers(2))


@pytest.mark.parametrize("n_theta", [1, 3])
def test_score_rejects_theta_of_another_length(n_theta):
    data = make_dataset((3, 3), [[0, 0], [2, 1]], [0, 1])
    with pytest.raises(ValueError, match=f"theta has {n_theta} entries for 2 features"):
        score(RuleSet(()), data, hypers(n_theta))


def test_prior_decreases_with_added_rule():
    # appending a rule strictly lowers the prior when alpha_M < beta_M
    rng = random.Random(9)
    vocab = (4, 4, 4)
    h = hypers(3, beta_m=10.0, beta_l=10.0)
    for _ in range(50):
        rs = random_ruleset_for(rng, vocab, max_rules=2)
        extra = random_ruleset_for(rng, vocab, max_rules=1).rules[0]
        if extra in rs.rules:
            continue
        grown = RuleSet(rs.rules + (extra,))
        assert log_prior(grown, h) < log_prior(rs, h)


def test_theorem_one_flip_property():
    # moving one item onto the already-heavier feature never lowers the prior
    rng = random.Random(123)
    checked = 0
    while checked < 300:
        n_features = rng.randint(3, 6)
        vocab = tuple(rng.randint(4, 7) for _ in range(n_features))
        theta = (tuple(rng.uniform(0.3, 2.5) for _ in range(n_features)) if rng.random() < 0.5
                 else (1.0,) * n_features)
        h = hypers(n_features, theta=theta)
        rs = random_ruleset_for(rng, vocab, max_rules=3, max_conditions=3)
        flip = _random_hypothesis_flip(rng, rs, vocab, theta)
        if flip is None:
            continue
        before, after = flip
        assert log_prior(after, h) >= log_prior(before, h) - 1e-9
        checked += 1


def _random_hypothesis_flip(rng, rs, vocab_sizes, theta):
    """Move one item from feature j2 to j1 inside one rule, provided the
    within-rule counts satisfy l_j1 + theta_j1 >= l_j2 + theta_j2."""
    if not rs.rules:
        return None
    mi = rng.randrange(len(rs.rules))
    rule = rs.rules[mi]
    if len(rule.conditions) < 2:
        return None
    c1, c2 = rng.sample(list(rule.conditions), 2)
    j1, j2 = c1.feature_id, c2.feature_id
    if c1.n_values + theta[j1] < c2.n_values + theta[j2]:
        c1, c2 = c2, c1
        j1, j2 = j2, j1
    if c1.n_values + theta[j1] < c2.n_values + theta[j2]:
        return None
    if c1.n_values + 1 > vocab_sizes[j1] - 1:
        return None  # no capacity to grow the value set
    addable = [v for v in range(vocab_sizes[j1]) if v not in c1.values]
    grown = Condition(j1, c1.values + (rng.choice(addable),))
    conds = [c for c in rule.conditions if c.feature_id not in (j1, j2)]
    conds.append(grown)
    if c2.n_values > 1:
        conds.append(Condition(j2, c2.values[:-1]))
    new_rule = Rule(tuple(conds))
    new_rules = rs.rules[:mi] + (new_rule,) + rs.rules[mi + 1 :]
    return rs, RuleSet(new_rules)


# ---------------------------------------------------------------------------
# likelihood
# ---------------------------------------------------------------------------

def test_likelihood_beta_identity_empty_counts():
    # B(a, 1) = 1/a, so zero counts with alpha=100, beta=1 give -2 ln 100
    h = hypers(2)
    assert log_likelihood(0, 0, 0, 0, h) == pytest.approx(-2 * math.log(100.0), abs=1e-12)


def test_likelihood_beta_identity_perfect_classification():
    h = hypers(2)
    assert log_likelihood(100, 0, 100, 0, h) == pytest.approx(-2 * math.log(200.0), abs=1e-12)


def test_likelihood_matches_mpmath_oracle():
    rng = random.Random(77)
    for _ in range(100):
        h = hypers(
            2,
            alpha_pos=rng.uniform(1.0, 200.0),
            beta_pos=rng.uniform(0.5, 5.0),
            alpha_neg=rng.uniform(1.0, 200.0),
            beta_neg=rng.uniform(0.5, 5.0),
        )
        c = Confusion(
            tp=rng.randrange(500), fp=rng.randrange(500),
            tn=rng.randrange(500), fn=rng.randrange(500),
        )
        expected = oracle_log_likelihood(c.tp, c.fp, c.tn, c.fn, h)
        assert log_likelihood(c.tp, c.fp, c.tn, c.fn, h) == pytest.approx(expected, abs=1e-9)


def test_converting_fn_to_tp_improves_likelihood():
    # compare evaluations directly: a correctly captured positive helps
    h = hypers(2)
    rng = random.Random(5)
    for _ in range(50):
        tp, fp = rng.randrange(200), rng.randrange(50)
        fn, tn = rng.randrange(1, 200), rng.randrange(200)
        before = log_likelihood(tp, fp, tn, fn, h)
        after = log_likelihood(tp + 1, fp, tn, fn - 1, h)
        assert after > before


def test_scores_always_finite():
    rng = random.Random(8)
    vocab = (3, 3)
    for _ in range(50):
        h = hypers(
            2,
            alpha_m=rng.uniform(0.1, 50),
            beta_m=rng.uniform(0.1, 1e6),
            alpha_l=rng.uniform(0.1, 50),
            beta_l=rng.uniform(0.1, 1e6),
            alpha_pos=rng.uniform(0.1, 1e4),
            beta_pos=rng.uniform(0.1, 1e4),
            alpha_neg=rng.uniform(0.1, 1e4),
            beta_neg=rng.uniform(0.1, 1e4),
        )
        rs = random_ruleset_for(rng, vocab)
        assert math.isfinite(log_prior(rs, h))
        c = Confusion(*(rng.randrange(10**6) for _ in range(4)))
        assert math.isfinite(log_likelihood(*dataclasses.astuple(c), h))


# ---------------------------------------------------------------------------
# confusion counting
# ---------------------------------------------------------------------------

def test_confusion_empty_ruleset():
    data = tiny_instance(0)
    c = score(RuleSet(()), data, hypers(data.n_features)).confusion
    assert (c.tp, c.fp, c.tn, c.fn) == (0, 0, data.n_neg, data.n_pos)


def test_confusion_full_coverage_all_positive():
    data = make_dataset((2, 2), [[0, 0], [1, 0], [0, 1]], [1, 1, 1])
    rs = RuleSet((Rule.of({0: (0,)}), Rule.of({0: (1,)})))
    c = score(rs, data, hypers(2)).confusion
    assert (c.tp, c.fp, c.tn, c.fn) == (3, 0, 0, 0)


def test_confusion_matches_brute_force_recount():
    rng = random.Random(31)
    vocab = (3, 2, 4)
    rows = [[rng.randrange(v) for v in vocab] for _ in range(50)]
    labels = [rng.randrange(2) for _ in range(50)]
    data = make_dataset(vocab, rows, labels)
    h = hypers(3)
    for _ in range(40):
        rs = random_ruleset_for(rng, vocab)
        c = score(rs, data, h).confusion
        assert (c.tp, c.fp, c.tn, c.fn) == oracle_confusion(rs, data.rows, data.labels)


def test_confusion_invariants_maintained():
    data = tiny_instance(3)
    rng = random.Random(0)
    h = hypers(data.n_features)
    for _ in range(30):
        rs = random_ruleset_for(rng, data.vocab_sizes)
        c = score(rs, data, h).confusion
        assert c.n_pos == data.n_pos and c.n_neg == data.n_neg


# ---------------------------------------------------------------------------
# score composition
# ---------------------------------------------------------------------------

def test_score_composition_is_definitional():
    data = tiny_instance(1)
    h = hypers(data.n_features)
    rng = random.Random(2)
    for _ in range(20):
        rs = random_ruleset_for(rng, data.vocab_sizes)
        s = score(rs, data, h)
        assert s.log_posterior == s.log_prior + s.log_likelihood
        assert s.log_prior == log_prior(rs, h)
        counts = oracle_confusion(rs, data.rows, data.labels)
        assert s.log_likelihood == log_likelihood(*counts, h)


def test_empty_set_score_on_all_negative_coverage():
    data = tiny_instance(4)
    h = hypers(data.n_features)
    s = score(RuleSet(()), data, h)
    expected_ll = log_likelihood(0, 0, data.n_neg, data.n_pos, h)
    assert s.log_posterior == pytest.approx(
        log_prior(RuleSet(()), h) + expected_ll, abs=1e-12
    )


def test_exhaustive_scores_match_independent_recomputation():
    # every normalized rule set of <= 2 rules on a tiny binary instance
    rng = random.Random(6)
    vocab = (2, 2, 2)
    rows = [[rng.randrange(2) for _ in range(3)] for _ in range(12)]
    labels = [rng.randrange(2) for _ in range(12)]
    labels[0], labels[1] = 0, 1
    data = make_dataset(vocab, rows, labels)
    h = hypers(3, beta_m=10.0, beta_l=10.0)
    rulesets = enumerate_rulesets(vocab, max_rules=2, max_conditions=2)
    assert len(rulesets) > 150
    for rs in rulesets:
        s = score(rs, data, h)
        tp, fp, tn, fn = oracle_confusion(rs, data.rows, data.labels)
        expected = oracle_log_prior(rs, h, vocab) + oracle_log_likelihood(tp, fp, tn, fn, h)
        assert s.log_posterior == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# incremental confusion updates
# ---------------------------------------------------------------------------

def test_update_confusion_empty_delta():
    c = Confusion(3, 2, 5, 1)
    assert update_confusion(c, [], [], [True] * 11) == c


def test_update_confusion_positive_row_enters():
    c = Confusion(3, 2, 5, 1)
    labels = [True, False, True]
    assert update_confusion(c, [0], [], labels) == Confusion(4, 2, 5, 0)


def test_update_confusion_rejects_inconsistent_delta():
    with pytest.raises(ValueError, match="both"):
        update_confusion(Confusion(1, 1, 1, 1), [2], [2], [True] * 3)


def test_update_confusion_matches_recount_over_random_walk():
    rng = random.Random(99)
    data = tiny_instance(7)
    current = random_ruleset_for(rng, data.vocab_sizes)
    conf = Confusion(*oracle_confusion(current, data.rows, data.labels))
    covered = {i for i, row in enumerate(data.rows)
               if any(all(int(row[c.feature_id]) in c.values for c in r.conditions)
                      for r in current.rules)}
    for _ in range(200):
        nxt = random_ruleset_for(rng, data.vocab_sizes)
        new_cov = {i for i, row in enumerate(data.rows)
                   if any(all(int(row[c.feature_id]) in c.values for c in r.conditions)
                          for r in nxt.rules)}
        conf = update_confusion(conf, new_cov - covered, covered - new_cov, data.labels)
        assert (conf.tp, conf.fp, conf.tn, conf.fn) == oracle_confusion(nxt, data.rows, data.labels)
        current, covered = nxt, new_cov
