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
from math import expm1, inf, isfinite, lgamma, log
from numbers import Real
from typing import Iterable, Sequence

from .data import Dataset, rule_mask
from .model import RuleSet, is_normalized


@dataclass(frozen=True, kw_only=True)
class Hyperparams:
    """The nine-parameter bundle governing prior and likelihood.

    Every value is a positive, finite number, not a bool or a string, and
    theta is a list or tuple of them, one weight per feature; each is
    stored as a float (a numpy integer, say, would not serialize).  The
    constants the prior, the likelihood and the pruning bounds derive from
    the values must be finite floats too (the bounds read omega only as
    ``log_omega``, so omega itself may overflow), so a value near the float
    maximum (alpha_l = 1e308, say) is rejected, and so is a beta_l so large
    (about 1e15) that log(beta_l) - log(beta_l + 1) rounds to 0 and the
    rule-length prior's zero-truncation takes log(0).  The
    ordering constraints required by the pruning bounds
    (alpha_m < beta_m, alpha_l < beta_l, alpha_pos > beta_pos,
    alpha_neg > beta_neg) are not enforced: scoring is well-defined
    without them, and ``bounds.initial_bounds`` disables the bounds when
    one fails.

    The prior's derived constants are built once, at construction (so
    ``dataclasses.replace`` rebuilds them and a pickled bundle carries
    them); equality and hashing look at the nine fields only.
    """

    alpha_m: float = 1.0
    beta_m: float = 100.0
    alpha_l: float = 1.0
    beta_l: float = 100.0
    theta: tuple[float, ...]
    alpha_pos: float = 100.0
    beta_pos: float = 1.0
    alpha_neg: float = 100.0
    beta_neg: float = 1.0

    def __post_init__(self) -> None:
        for name in HYPER_KEYS:
            value = getattr(self, name)
            if name == "theta":
                if not isinstance(value, (list, tuple)) or not all(map(_is_real, value)):
                    raise TypeError(f"theta must be a list of numbers, got {value!r}")
                if not value or not all(0 < t < inf for t in value):
                    raise ValueError("theta must hold a positive, finite number per feature, "
                                     f"got {value}")
            elif not _is_real(value):
                raise TypeError(f"{name} must be a number, got {value!r}")
            elif not 0 < value < inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        try:
            for name in HYPER_KEYS:
                value = getattr(self, name)
                value = tuple(map(float, value)) if name == "theta" else float(value)
                object.__setattr__(self, name, value)
            prior = _PriorConstants(self)
            finite = isfinite(log_omega(self) + _log_beta(self.alpha_pos, self.beta_pos)
                              + _log_beta(self.alpha_neg, self.beta_neg))
        except (OverflowError, ValueError):  # float or lgamma overflows, or log(0)
            finite = False
        if not finite:
            raise ValueError(
                "values too large: a constant of the prior, the likelihood or the "
                "pruning bounds is not a finite float"
            )
        object.__setattr__(self, "_prior", prior)

    @classmethod
    def defaults(cls, n_features: int, theta=1.0, **overrides) -> "Hyperparams":
        """The field defaults for ``n_features`` features, with ``overrides``;
        a single number for ``theta`` is the weight of every feature."""
        if _is_real(theta):
            theta = (theta,) * n_features
        hyper = cls(theta=theta, **overrides)
        hyper.check_features(n_features)
        return hyper

    @property
    def n_features(self) -> int:
        return len(self.theta)

    def check_features(self, n_features: int) -> None:
        """Raise ValueError unless theta holds one weight per feature."""
        if self.n_features != n_features:
            raise ValueError(f"theta has {self.n_features} entries for {n_features} features")


# the field names, in order: flags, config-file keys and the model file's
# "hyperparams" block all follow them
HYPER_KEYS = tuple(f.name for f in fields(Hyperparams))


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


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


class _PoissonGamma:
    """log p(x) of a Poisson count x whose rate has a Gamma(alpha, beta) prior."""

    def __init__(self, alpha: float, beta: float) -> None:
        self.alpha = alpha
        self.lgamma_alpha = lgamma(alpha)
        # log p(x = 0) = alpha * log(beta / (beta + 1))
        self.log_ratio = alpha * (log(beta) - log(beta + 1.0))
        self.log_b1 = log(beta + 1.0)

    def log_pmf(self, x: int) -> float:
        return (lgamma(x + self.alpha) - lgamma(x + 1.0) - self.lgamma_alpha
                + self.log_ratio - x * self.log_b1)


class _PriorConstants:
    """Per-hyperparameter scalars reused across every prior evaluation."""

    def __init__(self, hyper: Hyperparams) -> None:
        self.count = _PoissonGamma(hyper.alpha_m, hyper.beta_m)
        self.length = _PoissonGamma(hyper.alpha_l, hyper.beta_l)
        # zero-truncation: log(1 - p(L=0))
        self.log_trunc = log(-expm1(self.length.log_ratio))
        self.theta_sum = sum(hyper.theta)
        self.lgamma_theta_sum = lgamma(self.theta_sum)
        self.lgamma_theta = tuple(lgamma(t) for t in hyper.theta)
        # (feature, item count) -> lgamma(l + theta_j) - lgamma(theta_j)
        self.dm_items: dict[tuple[int, int], float] = {}
        # rule length -> (log p(L = length), lgamma(T) - lgamma(length + T))
        self.length_terms: dict[int, tuple[float, float]] = {}
        # rule count -> log p(M = count)
        self.count_terms: dict[int, float] = {}


def log_omega(hyper: Hyperparams) -> float:
    """log of the prior-penalty constant entering both pruning bounds."""
    return (
        log(hyper.beta_m + 1.0)
        + (hyper.alpha_l + 1.0) * log(hyper.beta_l + 1.0)
        + log(sum(hyper.theta))
        - log(hyper.alpha_m)
        - hyper.alpha_l * log(hyper.beta_l)
        - log(hyper.alpha_l)
        - log(max(hyper.theta))
    )


def log_rule_count_prior(m: int, hyper: Hyperparams) -> float:
    """log p(M = m) under the Poisson-Gamma marginal."""
    c = hyper._prior
    term = c.count_terms.get(m)
    if term is None:
        term = c.count_terms[m] = c.count.log_pmf(m)
    return term


def log_rule_length_prior(length: int, hyper: Hyperparams) -> float:
    """log p(L_m = length) under the zero-truncated Poisson-Gamma marginal."""
    if length < 1:
        raise ValueError("rule length must be at least 1")
    c = hyper._prior
    return c.length.log_pmf(length) - c.log_trunc


def prior_terms_from_counts(
    counts: Iterable[tuple[int, int]], hyper: Hyperparams
) -> tuple[float, float]:
    """One rule's (length, Dirichlet-multinomial) terms of the log-prior,
    log p(L_m) and log p(z_m), from the (feature, value count) pair of each
    condition, in feature order: the terms depend on how many values a
    condition holds, not which, and the pairs' order is the order the
    Dirichlet-multinomial items are added in."""
    c = hyper._prior
    theta = hyper.theta
    dm_items = c.dm_items
    length = 0
    dm = 0.0
    for j, l_mj in counts:
        length += l_mj
        item = dm_items.get((j, l_mj))
        if item is None:
            item = dm_items[(j, l_mj)] = lgamma(l_mj + theta[j]) - c.lgamma_theta[j]
        dm += item
    pair = c.length_terms.get(length)
    if pair is None:
        pair = c.length_terms[length] = (
            log_rule_length_prior(length, hyper),
            c.lgamma_theta_sum - lgamma(length + c.theta_sum),
        )
    return pair[0], pair[1] + dm


# per-rule entry: (coverage mask, log p(L_m) term, log p(z_m) term)
RuleEntry = tuple[int, float, float]


def prior_of_entries(entries: Sequence[RuleEntry], hyper: Hyperparams) -> float:
    """Log-prior of the rule set whose rules have ``entries``: the count
    prior, then each rule's two terms, added in rule order."""
    prior = log_rule_count_prior(len(entries), hyper)
    for _, length_term, dm_term in entries:
        prior += length_term
        prior += dm_term
    return prior


def log_prior(ruleset: RuleSet, hyper: Hyperparams) -> float:
    """Log of p(M) * prod p(L_m) * prod p(z_m) for a normalized rule set."""
    entries = [
        (0, *prior_terms_from_counts([(c.feature_id, c.n_values) for c in rule.conditions],
                                     hyper))
        for rule in ruleset.rules
    ]
    return prior_of_entries(entries, hyper)


def log_likelihood(tp: int, fp: int, tn: int, fn: int, hyper: Hyperparams) -> float:
    """Unnormalized conditional log-likelihood from the confusion counts."""
    return _log_beta(tp + hyper.alpha_pos, fp + hyper.beta_pos) + _log_beta(
        tn + hyper.alpha_neg, fn + hyper.beta_neg
    )


def _log_beta(a: float, b: float) -> float:
    return lgamma(a) + lgamma(b) - lgamma(a + b)


def confusion_from_mask(covered: int, data: Dataset) -> Confusion:
    tp = (covered & data.pos_mask).bit_count()
    fp = covered.bit_count() - tp
    return Confusion(tp=tp, fp=fp, tn=data.n_neg - fp, fn=data.n_pos - tp)


def score(ruleset: RuleSet, data: Dataset, hyper: Hyperparams) -> Score:
    """Full decomposed posterior score of a normalized rule set."""
    hyper.check_features(data.n_features)
    if not is_normalized(ruleset, data.vocab_sizes):
        raise ValueError("score() expects a normalized rule set")
    covered = 0
    for rule in ruleset.rules:
        covered |= rule_mask(rule.pairs, data)
    conf = confusion_from_mask(covered, data)
    return Score.of(
        log_prior(ruleset, hyper),
        log_likelihood(conf.tp, conf.fp, conf.tn, conf.fn, hyper),
        conf,
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
