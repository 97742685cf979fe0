"""Independent reference computations used to check the package.

Everything here is deliberately written from first principles — slow
loops, high-precision special functions, exhaustive enumeration — and
never calls into the code paths it is used to verify.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Sequence

import mpmath as mp
import numpy as np

from mars.data import Dataset, FeatureSpec
from mars.model import Condition, Rule, RuleSet

mp.mp.dps = 50


def rule_covers(rule: Rule, row: Sequence[int]) -> bool:
    """True iff every condition of ``rule`` accepts the row's value."""
    return all(row[c.feature_id] in c.values for c in rule.conditions)


# ---------------------------------------------------------------------------
# high-precision prior / likelihood
# ---------------------------------------------------------------------------

def mp_poisson_gamma_pmf(m: int, alpha: float, beta: float) -> mp.mpf:
    """Closed-form marginal of Poisson(rate) with a Gamma(alpha, beta) rate."""
    a, b = mp.mpf(alpha), mp.mpf(beta)
    return (
        mp.gamma(m + a)
        / (mp.factorial(m) * mp.gamma(a))
        * (b / (b + 1)) ** a
        * (b + 1) ** (-m)
    )


def quad_poisson_gamma_pmf(m: int, alpha: float, beta: float) -> float:
    """The same marginal by numerical integration over the rate."""
    a, b = mp.mpf(alpha), mp.mpf(beta)

    def integrand(lam):
        poisson = lam**m * mp.e ** (-lam) / mp.factorial(m)
        gamma_pdf = b**a * lam ** (a - 1) * mp.e ** (-b * lam) / mp.gamma(a)
        return poisson * gamma_pdf

    return float(mp.quad(integrand, [0, mp.inf]))


def oracle_log_prior(ruleset: RuleSet, hyper, vocab_sizes: Sequence[int]) -> float:
    """Structural prior recomputed with mpmath from the generative story."""
    theta = [mp.mpf(t) for t in hyper.theta]
    total = mp.log(mp_poisson_gamma_pmf(len(ruleset.rules), hyper.alpha_m, hyper.beta_m))
    p_zero = mp_poisson_gamma_pmf(0, hyper.alpha_l, hyper.beta_l)
    theta_sum = mp.fsum(theta)
    for rule in ruleset.rules:
        length = sum(len(c.values) for c in rule.conditions)
        p_len = mp_poisson_gamma_pmf(length, hyper.alpha_l, hyper.beta_l) / (1 - p_zero)
        total += mp.log(p_len)
        seq = mp.gamma(theta_sum) / mp.gamma(length + theta_sum)
        for cond in rule.conditions:
            t = theta[cond.feature_id]
            seq *= mp.gamma(len(cond.values) + t) / mp.gamma(t)
        total += mp.log(seq)
    return float(total)


def oracle_log_likelihood(tp: int, fp: int, tn: int, fn: int, hyper) -> float:
    def log_beta(a, b):
        return mp.loggamma(a) + mp.loggamma(b) - mp.loggamma(a + b)

    value = log_beta(tp + mp.mpf(hyper.alpha_pos), fp + mp.mpf(hyper.beta_pos))
    value += log_beta(tn + mp.mpf(hyper.alpha_neg), fn + mp.mpf(hyper.beta_neg))
    return float(value)


def oracle_confusion(ruleset: RuleSet, rows: np.ndarray, labels: np.ndarray):
    """Row-by-row recount with its own condition-matching loop."""
    tp = fp = tn = fn = 0
    for row, label in zip(rows, labels):
        covered = False
        for rule in ruleset.rules:
            if all(int(row[c.feature_id]) in c.values for c in rule.conditions):
                covered = True
                break
        if covered and label:
            tp += 1
        elif covered:
            fp += 1
        elif label:
            fn += 1
        else:
            tn += 1
    return tp, fp, tn, fn


# ---------------------------------------------------------------------------
# exhaustive enumeration over small rule classes
# ---------------------------------------------------------------------------

def enumerate_rules(vocab_sizes: Sequence[int], max_conditions: int) -> list[Rule]:
    """Every rule with <= max_conditions conditions over proper value sets."""
    per_feature: list[list[Condition]] = []
    for j, vocab in enumerate(vocab_sizes):
        conds = []
        for size in range(1, vocab):
            for values in itertools.combinations(range(vocab), size):
                conds.append(Condition(j, values))
        per_feature.append(conds)
    rules: list[Rule] = []
    n = len(vocab_sizes)
    for k in range(1, max_conditions + 1):
        for feats in itertools.combinations(range(n), k):
            for choice in itertools.product(*(per_feature[j] for j in feats)):
                rules.append(Rule(tuple(choice)))
    return rules


def enumerate_rulesets(
    vocab_sizes: Sequence[int], max_rules: int, max_conditions: int
) -> list[RuleSet]:
    """Every normalized rule set with <= max_rules distinct rules."""
    rules = enumerate_rules(vocab_sizes, max_conditions)
    out: list[RuleSet] = [RuleSet(())]
    for k in range(1, max_rules + 1):
        for combo in itertools.combinations(rules, k):
            out.append(RuleSet(combo))
    return out


# ---------------------------------------------------------------------------
# small synthetic datasets
# ---------------------------------------------------------------------------

def categorical_specs(vocab_sizes: Sequence[int]) -> list[FeatureSpec]:
    alphabet = "abcdefghij"
    return [
        FeatureSpec(f"f{j}", categories=tuple(alphabet[:v] if v <= len(alphabet) else
                                              (f"v{k:02d}" for k in range(v))))
        for j, v in enumerate(vocab_sizes)
    ]


def partial_shuffle_sample(rng: random.Random, population: Sequence, k: int) -> list:
    """``k`` distinct items of ``population`` in the order drawn, by a partial
    Fisher–Yates shuffle (Knuth's Algorithm P stopped after ``k`` swaps):
    step i draws an index below the m = n - i items not yet drawn with
    ``rng.randrange(m)`` and swaps that item to position m - 1."""
    pool = list(population)
    n = len(pool)
    for m in range(n, n - k, -1):
        j = rng.randrange(m)
        pool[j], pool[m - 1] = pool[m - 1], pool[j]
    return pool[n - k:][::-1]


def make_dataset(
    vocab_sizes: Sequence[int],
    rows: Iterable[Sequence[int]],
    labels: Iterable[int],
) -> Dataset:
    rows = np.asarray(list(rows), dtype=np.int32)
    labels = np.asarray(list(labels), dtype=bool)
    return Dataset(categorical_specs(vocab_sizes), rows, labels)


def tiny_instance(seed: int, noise: float = 0.1) -> Dataset:
    """Small planted-rule dataset: N <= 20 rows, J <= 4 binary-ish features."""
    rng = random.Random(f"tiny-instance:{seed}")
    n_features = rng.choice([3, 4])
    vocab_sizes = [rng.choice([2, 2, 3]) for _ in range(n_features)]
    n_rows = rng.randint(12, 20)
    rows = [[rng.randrange(v) for v in vocab_sizes] for _ in range(n_rows)]

    feats = rng.sample(range(n_features), rng.randint(1, 2))
    planted = {
        j: set(rng.sample(range(vocab_sizes[j]), rng.randint(1, vocab_sizes[j] - 1)))
        for j in feats
    }
    labels = []
    for row in rows:
        hit = all(row[j] in vals for j, vals in planted.items())
        if rng.random() < noise:
            hit = not hit
        labels.append(hit)
    # both classes must be present for a usable instance
    if all(labels):
        labels[rng.randrange(n_rows)] = False
    if not any(labels):
        labels[rng.randrange(n_rows)] = True
    return make_dataset(vocab_sizes, rows, labels)


def random_ruleset_for(
    rng: random.Random, vocab_sizes: Sequence[int], max_rules: int = 3, max_conditions: int = 3
) -> RuleSet:
    eligible = [j for j, v in enumerate(vocab_sizes) if v >= 2]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        feats = rng.sample(eligible, rng.randint(1, min(max_conditions, len(eligible))))
        conds = []
        for j in feats:
            vocab = vocab_sizes[j]
            size = rng.randint(1, vocab - 1)
            conds.append(Condition(j, tuple(rng.sample(range(vocab), size))))
        rules.append(Rule(tuple(conds)))
    # dedup, preserving order
    seen, out = set(), []
    for r in rules:
        if r not in seen:
            seen.add(r)
            out.append(r)
    return RuleSet(tuple(out))
