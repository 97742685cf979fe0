"""Rule algebra: coverage semantics, normalization, monotonicity laws."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mars.data import indices, rule_mask
from mars.model import (
    Condition,
    Rule,
    RuleSet,
    first_covering_rule,
    is_normalized,
    normalize,
)

from oracles import make_dataset, random_ruleset_for, rule_covers


# ---------------------------------------------------------------------------
# constructors and invariants
# ---------------------------------------------------------------------------

def test_condition_rejects_empty_values():
    with pytest.raises(ValueError):
        Condition(0, ())


def test_condition_sorts_and_dedups_values():
    assert Condition(0, (2, 1, 2)).values == (1, 2)


def test_rule_requires_condition():
    with pytest.raises(ValueError):
        Rule(())


def test_rule_rejects_duplicate_feature():
    with pytest.raises(ValueError):
        Rule((Condition(0, (0,)), Condition(0, (1,))))


# ---------------------------------------------------------------------------
# rule_covers / first_covering_rule
# ---------------------------------------------------------------------------

def classify(ruleset, row):
    """1 iff some rule covers the single encoded row."""
    return int(first_covering_rule(ruleset, np.array([row]))[0] >= 0)


def first_cover_loop(ruleset, row):
    """Reference: the first rule ``rule_covers`` accepts, scanning in order."""
    return next((k for k, r in enumerate(ruleset.rules) if rule_covers(r, row)), -1)


def test_multi_value_condition_covers_either_value():
    # a two-value condition accepts both of its values
    rule = Rule.of({0: (0, 1)})
    assert rule_covers(rule, [1, 9])
    assert rule_covers(rule, [0, 9])
    assert not rule_covers(rule, [2, 9])


def test_failed_conjunct_blocks_cover():
    rule = Rule.of({0: (0,), 1: (1,)})
    assert not rule_covers(rule, [2, 1])


def test_empty_ruleset_classifies_negative():
    rows = np.array([[0, 0, 0], [1, 2, -1]])
    assert list(first_covering_rule(RuleSet(()), rows)) == [-1, -1]
    assert first_covering_rule(RuleSet(()), np.zeros((0, 3), dtype=np.int32)).shape == (0,)


def test_classify_is_existential():
    r1 = Rule.of({0: (0,)})
    r2 = Rule.of({1: (1,)})
    rows = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
    # the first covering rule wins when several cover a row
    assert list(first_covering_rule(RuleSet((r1, r2)), rows)) == [0, -1, 1, 0]
    assert list(first_covering_rule(RuleSet((r2, r1)), rows)) == [1, -1, 0, 0]


def test_classify_equals_max_over_rule_covers():
    rng = random.Random(7)
    vocab_sizes = (3, 2, 4)
    for _ in range(200):
        rs = random_ruleset_for(rng, vocab_sizes)
        row = [rng.randrange(v) for v in vocab_sizes]
        brute = max((rule_covers(r, row) for r in rs.rules), default=0)
        assert classify(rs, row) == int(brute)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_first_covering_rule_equals_rule_covers_loop(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    vocab_sizes = data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    max_rules = data.draw(st.integers(0, 4))
    ruleset = random_ruleset_for(rng, vocab_sizes, max_rules) if max_rules else RuleSet(())
    n = data.draw(st.integers(0, 30))
    # -1 is the code of a blank or unseen cell: it matches no condition
    rows = np.array(
        [[rng.randrange(-1, v) for v in vocab_sizes] for _ in range(n)], dtype=np.int32
    ).reshape(n, len(vocab_sizes))
    got = first_covering_rule(ruleset, rows)
    assert got.shape == (n,)
    assert list(got) == [first_cover_loop(ruleset, list(row)) for row in rows]


def test_single_condition_cover_frequency():
    # k of |V| values held => uniform rows covered with frequency ~ k/|V|
    rng = random.Random(0)
    vocab = 5
    k = 2
    rule = Rule.of({0: tuple(range(k))})
    n = 20000
    hits = sum(rule_covers(rule, [rng.randrange(vocab)]) for _ in range(n))
    assert abs(hits / n - k / vocab) < 0.02


# ---------------------------------------------------------------------------
# monotonicity laws
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_adding_rule_never_turns_positive_negative(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    vocab_sizes = (3, 3, 2)
    rs = random_ruleset_for(rng, vocab_sizes, max_rules=2)
    extra = random_ruleset_for(rng, vocab_sizes, max_rules=1).rules
    grown = RuleSet(rs.rules + extra)
    row = [rng.randrange(v) for v in vocab_sizes]
    assert classify(rs, row) <= classify(grown, row)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_adding_condition_never_turns_false_cover_true(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    vocab_sizes = (3, 3, 4)
    used = rng.sample(range(3), 2)
    rule = Rule(
        tuple(Condition(j, tuple(rng.sample(range(vocab_sizes[j]), 2))) for j in used)
    )
    free = next(j for j in range(3) if j not in used)
    grown = Rule(rule.conditions + (Condition(free, (rng.randrange(vocab_sizes[free]),)),))
    row = [rng.randrange(v) for v in vocab_sizes]
    assert rule_covers(grown, row) <= rule_covers(rule, row)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_adding_value_never_turns_true_cover_false(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    vocab_sizes = (4, 4)
    j = rng.randrange(2)
    values = rng.sample(range(vocab_sizes[j]), 2)
    rule = Rule.of({j: tuple(values[:1])})
    grown = Rule.of({j: tuple(values)})
    row = [rng.randrange(v) for v in vocab_sizes]
    assert rule_covers(rule, row) <= rule_covers(grown, row)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_drops_full_vocabulary_condition():
    vocab_sizes = (3, 3)
    rule = Rule.of({0: (0, 1, 2), 1: (0,)})
    out = normalize(RuleSet((rule,)), vocab_sizes)
    assert out == RuleSet((Rule.of({1: (0,)}),))


def test_normalize_dedups_rules():
    rule = Rule.of({0: (0,)})
    out = normalize(RuleSet((rule, rule)), (2, 2))
    assert out == RuleSet((rule,))
    # the first copy of each rule stays, in order
    a, b, c = Rule.of({0: (1,)}), Rule.of({1: (0,)}), Rule.of({0: (0,), 1: (1,)})
    assert normalize(RuleSet((a, b, a, c)), (3, 3)) == RuleSet((a, b, c))


def test_normalize_drops_tautological_rule():
    rule = Rule.of({0: (0, 1)})
    assert normalize(RuleSet((rule,)), (2, 2)) == RuleSet(())


def test_normalize_rejects_out_of_vocabulary_index():
    with pytest.raises(ValueError):
        normalize(RuleSet((Rule.of({0: (5,)}),)), (2, 2))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_normalize_preserves_classification_unless_tautology_dropped(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    vocab_sizes = (2, 3, 2)
    # build rules that may include full-vocabulary conditions
    rules = []
    for _ in range(rng.randint(1, 3)):
        feats = rng.sample(range(3), rng.randint(1, 3))
        conds = [
            Condition(j, tuple(rng.sample(range(vocab_sizes[j]), rng.randint(1, vocab_sizes[j]))))
            for j in feats
        ]
        rules.append(Rule(tuple(conds)))
    raw = RuleSet(tuple(rules))
    out = normalize(raw, vocab_sizes)
    assert is_normalized(out, vocab_sizes)
    dropped_tautology = any(
        all(len(c.values) == vocab_sizes[c.feature_id] for c in r.conditions) for r in raw.rules
    )
    if not dropped_tautology:
        for _ in range(20):
            row = [rng.randrange(v) for v in vocab_sizes]
            assert classify(raw, row) == classify(out, row)


# ---------------------------------------------------------------------------
# coverage / support
# ---------------------------------------------------------------------------

def test_coverage_empty_when_rule_matches_nothing():
    data = make_dataset((2, 2), [[0, 0], [0, 1]], [0, 1])
    rule = Rule.of({0: (1,)})
    assert rule_mask(rule.pairs, data) == 0
    assert indices(rule_mask(rule.pairs, data)) == []


def test_support_all_but_one_value():
    rng = random.Random(3)
    vocab = 4
    rows = [[rng.randrange(vocab)] for _ in range(40)]
    labels = [rng.randrange(2) for _ in range(40)]
    data = make_dataset((vocab,), rows, labels)
    excluded = 2
    rule = Rule.of({0: tuple(v for v in range(vocab) if v != excluded)})
    expected = sum(1 for r in rows if r[0] != excluded)
    assert rule_mask(rule.pairs, data).bit_count() == expected
    assert len(indices(rule_mask(rule.pairs, data))) == expected


def test_coverage_matches_row_loop():
    rng = random.Random(11)
    vocab_sizes = (3, 2, 3)
    rows = [[rng.randrange(v) for v in vocab_sizes] for _ in range(50)]
    data = make_dataset(vocab_sizes, rows, [rng.randrange(2) for _ in range(50)])
    for _ in range(30):
        rs = random_ruleset_for(rng, vocab_sizes, max_rules=1)
        rule = rs.rules[0]
        expected = {i for i, row in enumerate(rows) if rule_covers(rule, row)}
        assert indices(rule_mask(rule.pairs, data)) == sorted(expected)
