"""Posterior scoring: structural log-prior, Beta-Bernoulli log-likelihood.

The prior on a rule set factorizes as p(M) * prod_m p(L_m) * prod_m p(z_m)
after integrating out the conjugate latents:

* p(M): Poisson rate with a Gamma(alpha_M, beta_M) prior marginalizes to
  the negative-binomial form
  ``Gamma(M+a)/(M! Gamma(a)) * (b/(b+1))^a * (b+1)^-M``.
* p(L_m): the same marginal with (alpha_L, beta_L), renormalized over
  L >= 1 (rule lengths are zero-truncated).
* p(z_m): per-rule Dirichlet-Multinomial probability of the ordered
  feature-assignment sequence, ``Gamma(T)/Gamma(L+T) * prod_j
  Gamma(l_j+theta_j)/Gamma(theta_j)`` with T = sum(theta).  Value sets
  inside conditions carry no prior mass; only the assignment counts do.

The likelihood is the unnormalized log of
``B(tp+a+, fp+b+) * B(tn+a-, fn+b-)``; the dropped proportionality
constant is independent of the rule set and cancels everywhere scores are
compared.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from math import expm1, inf, lgamma, log
from typing import Iterable, Sequence

from .data import Dataset, union_mask
from .model import Rule, RuleSet, is_normalized


@dataclass(frozen=True)
class Hyperparams:
    """The nine-parameter bundle governing prior and likelihood.

    Every value is positive and finite, and theta has one weight per
    feature.  The ordering constraints required by the pruning bounds
    (alpha_m < beta_m, alpha_l < beta_l, alpha_pos > beta_pos,
    alpha_neg > beta_neg) are reported by ``bound_precondition_violations``
    rather than enforced: scoring is well-defined without them.
    """

    alpha_m: float
    beta_m: float
    alpha_l: float
    beta_l: float
    theta: tuple[float, ...]
    alpha_pos: float
    beta_pos: float
    alpha_neg: float
    beta_neg: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        for name in HYPER_KEYS:
            value = getattr(self, name)
            if name != "theta" and not 0 < value < inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.theta:
            raise ValueError("theta must have one entry per feature")
        if any(not 0 < t < inf for t in self.theta):
            raise ValueError("theta entries must be positive and finite")
        # hashed on every prior evaluation by the constants cache; cache it
        object.__setattr__(self, "_hash", hash(tuple(getattr(self, k) for k in HYPER_KEYS)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def defaults(cls, n_features: int, **overrides) -> "Hyperparams":
        """Default bundle: theta=1, alpha_+=alpha_-=100, beta_+=beta_-=1,
        alpha_M=alpha_L=1, beta_M=beta_L=100."""
        params = dict(
            alpha_m=1.0,
            beta_m=100.0,
            alpha_l=1.0,
            beta_l=100.0,
            theta=(1.0,) * n_features,
            alpha_pos=100.0,
            beta_pos=1.0,
            alpha_neg=100.0,
            beta_neg=1.0,
        )
        theta = overrides.pop("theta", None)
        if theta is not None:
            if isinstance(theta, (int, float)):
                theta = (float(theta),) * n_features
            theta = params["theta"] = tuple(theta)
            if len(theta) != n_features:
                raise ValueError(f"theta has {len(theta)} entries for {n_features} features")
        params.update(overrides)
        return cls(**params)

    @property
    def n_features(self) -> int:
        return len(self.theta)

    def bound_precondition_violations(self) -> list[str]:
        """Ordering constraints the pruning bounds assume; empty if all hold."""
        out = []
        if not self.alpha_m < self.beta_m:
            out.append(f"alpha_m ({self.alpha_m}) must be < beta_m ({self.beta_m})")
        if not self.alpha_l < self.beta_l:
            out.append(f"alpha_l ({self.alpha_l}) must be < beta_l ({self.beta_l})")
        if not self.alpha_pos > self.beta_pos:
            out.append(f"alpha_pos ({self.alpha_pos}) must be > beta_pos ({self.beta_pos})")
        if not self.alpha_neg > self.beta_neg:
            out.append(f"alpha_neg ({self.alpha_neg}) must be > beta_neg ({self.beta_neg})")
        return out


# the field names, in order: flags, config-file keys and the model file's
# "hyperparams" block all follow them
HYPER_KEYS = tuple(f.name for f in fields(Hyperparams))


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")

    @property
    def n_pos(self) -> int:
        return self.tp + self.fn

    @property
    def n_neg(self) -> int:
        return self.fp + self.tn

    @property
    def accuracy(self) -> float:
        total = self.n_pos + self.n_neg
        return (self.tp + self.tn) / total if total else 0.0


@dataclass(frozen=True)
class Score:
    """Decomposed log-posterior; log_posterior == log_prior + log_likelihood."""

    log_prior: float
    log_likelihood: float
    log_posterior: float
    confusion: Confusion

    @classmethod
    def of(cls, log_prior: float, log_likelihood: float, confusion: Confusion) -> "Score":
        return cls(log_prior, log_likelihood, log_prior + log_likelihood, confusion)


class _PriorConstants:
    """Per-hyperparameter scalars reused across every prior evaluation."""

    def __init__(self, hyper: Hyperparams) -> None:
        self.lgamma_alpha_m = lgamma(hyper.alpha_m)
        self.log_ratio_m = hyper.alpha_m * (log(hyper.beta_m) - log(hyper.beta_m + 1.0))
        self.log_bm1 = log(hyper.beta_m + 1.0)
        self.lgamma_alpha_l = lgamma(hyper.alpha_l)
        self.log_ratio_l = hyper.alpha_l * (log(hyper.beta_l) - log(hyper.beta_l + 1.0))
        self.log_bl1 = log(hyper.beta_l + 1.0)
        # zero-truncation: log(1 - p(L=0)) with p(L=0) = (b/(b+1))^a
        self.log_trunc = log(-expm1(self.log_ratio_l))
        self.theta_sum = sum(hyper.theta)
        self.lgamma_theta_sum = lgamma(self.theta_sum)
        self.lgamma_theta = tuple(lgamma(t) for t in hyper.theta)
        self.theta = hyper.theta
        self.hyper = hyper
        # (feature, item count) -> lgamma(l + theta_j) - lgamma(theta_j)
        self.dm_items: dict[tuple[int, int], float] = {}
        # rule length -> (log p(L = length), lgamma(T) - lgamma(length + T))
        self.length_terms: dict[int, tuple[float, float]] = {}

    def length_pair(self, length: int) -> tuple[float, float]:
        pair = self.length_terms.get(length)
        if pair is None:
            pair = self.length_terms[length] = (
                log_rule_length_prior(length, self.hyper),
                self.lgamma_theta_sum - lgamma(length + self.theta_sum),
            )
        return pair


@lru_cache(maxsize=32)
def _constants(hyper: Hyperparams) -> _PriorConstants:
    return _PriorConstants(hyper)


def log_rule_count_prior(m: int, hyper: Hyperparams) -> float:
    """log p(M = m) under the Poisson-Gamma marginal."""
    c = _constants(hyper)
    return (
        lgamma(m + hyper.alpha_m)
        - lgamma(m + 1.0)
        - c.lgamma_alpha_m
        + c.log_ratio_m
        - m * c.log_bm1
    )


def log_rule_length_prior(length: int, hyper: Hyperparams) -> float:
    """log p(L_m = length) under the zero-truncated Poisson-Gamma marginal."""
    if length < 1:
        raise ValueError("rule length must be at least 1")
    c = _constants(hyper)
    raw = (
        lgamma(length + hyper.alpha_l)
        - lgamma(length + 1.0)
        - c.lgamma_alpha_l
        + c.log_ratio_l
        - length * c.log_bl1
    )
    return raw - c.log_trunc


def rule_prior_terms(
    rule: Rule, hyper: Hyperparams, vocab_sizes: Sequence[int]
) -> tuple[float, float]:
    """One rule's (length, Dirichlet-multinomial) terms of the log-prior:
    log p(L_m) and log p(z_m)."""
    c = _constants(hyper)
    theta = c.theta
    dm_items = c.dm_items
    length = 0
    dm = 0.0
    for cond in rule.conditions:
        j = cond.feature_id
        l_mj = cond.n_values
        if l_mj > vocab_sizes[j] or cond.values[-1] >= vocab_sizes[j]:
            raise ValueError(
                f"rule condition on feature {j} exceeds its vocabulary "
                f"({l_mj} items, {vocab_sizes[j]} values)"
            )
        length += l_mj
        item = dm_items.get((j, l_mj))
        if item is None:
            item = dm_items[(j, l_mj)] = lgamma(l_mj + theta[j]) - c.lgamma_theta[j]
        dm += item
    length_term, dm_norm = c.length_pair(length)
    return length_term, dm_norm + dm


def log_prior(ruleset: RuleSet, hyper: Hyperparams, vocab_sizes: Sequence[int]) -> float:
    """Log of p(M) * prod p(L_m) * prod p(z_m) for a normalized rule set."""
    if len(vocab_sizes) != hyper.n_features:
        raise ValueError("theta length must match the number of features")
    total = log_rule_count_prior(ruleset.n_rules, hyper)
    for rule in ruleset.rules:
        length_term, dm_term = rule_prior_terms(rule, hyper, vocab_sizes)
        total += length_term
        total += dm_term
    return total


def log_likelihood(confusion: Confusion, hyper: Hyperparams) -> float:
    """Unnormalized conditional log-likelihood from confusion counts."""
    return log_likelihood_counts(confusion.tp, confusion.fp, confusion.tn, confusion.fn, hyper)


def log_likelihood_counts(tp: int, fp: int, tn: int, fn: int, hyper: Hyperparams) -> float:
    """``log_likelihood`` from the four counts, without building a Confusion."""
    return _log_beta(tp + hyper.alpha_pos, fp + hyper.beta_pos) + _log_beta(
        tn + hyper.alpha_neg, fn + hyper.beta_neg
    )


def _log_beta(a: float, b: float) -> float:
    return lgamma(a) + lgamma(b) - lgamma(a + b)


def confusion_counts(ruleset: RuleSet, data: Dataset) -> Confusion:
    """Confusion counts of the rule set's coverage against the labels."""
    return confusion_from_mask(union_mask(ruleset, data), data)


def confusion_from_mask(covered: int, data: Dataset) -> Confusion:
    tp = (covered & data.pos_mask).bit_count()
    fp = covered.bit_count() - tp
    return Confusion(tp=tp, fp=fp, tn=data.n_neg - fp, fn=data.n_pos - tp)


def score(ruleset: RuleSet, data: Dataset, hyper: Hyperparams) -> Score:
    """Full decomposed posterior score of a normalized rule set."""
    assert is_normalized(ruleset, data.vocab_sizes), "score() expects a normalized rule set"
    conf = confusion_counts(ruleset, data)
    return Score.of(
        log_prior(ruleset, hyper, data.vocab_sizes), log_likelihood(conf, hyper), conf
    )


def update_confusion(
    confusion: Confusion,
    entering: Iterable[int],
    leaving: Iterable[int],
    labels: Sequence[bool],
) -> Confusion:
    """Apply a coverage delta (rows entering/leaving the covered union).

    Equivalent to recomputing from scratch; a row listed on both sides is
    an inconsistent delta and raises.
    """
    enter = frozenset(entering)
    leave = frozenset(leaving)
    both = enter & leave
    if both:
        raise ValueError(f"rows {sorted(both)} marked as both entering and leaving coverage")
    enter_pos = sum(1 for i in enter if labels[i])
    leave_pos = sum(1 for i in leave if labels[i])
    d_tp = enter_pos - leave_pos
    d_fp = (len(enter) - enter_pos) - (len(leave) - leave_pos)
    return Confusion(
        tp=confusion.tp + d_tp,
        fp=confusion.fp + d_fp,
        tn=confusion.tn - d_fp,
        fn=confusion.fn - d_tp,
    )
