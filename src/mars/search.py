"""Simulated-annealing MAP search over rule sets.

Each step samples a misclassified training example and ``propose`` picks
a neighbor through an action chosen by the example's label: positives
draw uniformly from {add value, remove condition, add rule} (coverage-
growing moves), negatives from {add condition, remove rule} (coverage-
shrinking moves), and an action with no neighbor falls through to the
branch's other actions in shuffled order.  When training accuracy is 1.0
there is no example, and the same routine tries only the simplifying
{remove condition, remove rule} in shuffled order.  Within an action the
neighbor set is enumerated (capped at a budget), and selection is
exploitation (best posterior) with probability 1 - explore_prob, else a
uniform random neighbor.  The move is accepted with probability
min(1, exp(delta / T)) under the schedule T[t] = t0 ** (1 - t / n_iter).

New rules proposed by the add-rule action are seeded from the sampled
positive example: each of one to three random features gets a condition
holding the example's value and a random sample of the others.  A seed is
admitted only when its support clears the current pruning floor; the
rule-count cap gates the action entirely.

Every neighbor differs from the current rule set in at most one rule, and
the edit builders return it already in ``normalize``'s canonical form
(only the edited rule can turn tautological or duplicate another), so
neighbors are deduplicated as plain rule tuples.  ``_Scorer`` scores a
rule tuple from per-rule cache entries.  The two actions with the most
candidates come as moves that build no rule: an add-condition move is
scored from its rule's ``_GrowthTable``, and an add-rule seed, its
conditions' (feature, values) pairs and its mask, from the step's
``_SeedTable``.  Each gives the float ``scoring.score`` gives for the rule
set the move makes.  Coverage is read from ``Dataset.value_masks`` alone:
a rule's mask, a seed's included, is the AND of its conditions' masks, a
seed's rule set covers the current union OR its mask, and a growth table
counts each (feature, value) as the bits of that value's mask among the
rows the rule alone covers.

The search draws its random integers with ``_below`` and ``_sample``,
which return what ``Random.randint`` and ``Random.sample`` return from the
same ``getrandbits`` calls, without their argument checks; a test pins
them bit for bit to the stdlib calls, the set path of ``sample``
included.

A chain's state is two proposals, the current one and the best one: a
proposal carries its rules, its ``Score`` (with its ``Confusion``), its
rules' cache entries and growth tables and its coverage mask, so accepting
a move is replacing the current proposal, and the next step's cache is
seeded from that proposal's entries.  The state also owns the run's RNG,
which ``init_state`` seeds from ``cfg.random_seed`` and every chain draws
from, and its runlog, which every chain writes to.

The chain keeps few of its steps, so a step builds a ``Proposal`` only for
a move it keeps.  ``propose`` returns a ``Pick``: the chosen candidate, its
action and its posterior, the very float ``max()`` ranked it by (a full
``Score`` of the rule set gives the same float).  The step compares that
float with the best and current posteriors and materializes the pick once
when it is a new best or accepted; a rejected step builds nothing, and a
move's new rule becomes a ``Rule`` only there.  A
proposal also lists its misclassified rows once, the first time a step
samples an example from it, and serves that list to every later step
until a move is accepted.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import NamedTuple, Sequence

from .bitset import indices
from .bounds import BoundState, initial_bounds, update_bounds
from .data import Dataset, condition_mask, rule_mask
from .errors import DegenerateLabelError
from .model import Condition, Rule, RuleSet, normalize
from .scoring import (
    Hyperparams,
    Score,
    confusion_from_mask,
    log_likelihood,
    log_likelihood_counts,
    log_rule_count_prior,
    prior_terms_from_counts,
    rule_prior_terms,
)

# not called here; kept importable from this module for per-layer tracing
from .bitset import kth_set_bit  # noqa: F401
from .model import is_normalized  # noqa: F401
from .scoring import log_prior, update_confusion  # noqa: F401

POSITIVE_ACTIONS = ("add_value", "remove_condition", "add_rule")
NEGATIVE_ACTIONS = ("add_condition", "remove_rule")
SIMPLIFY_ACTIONS = ("remove_condition", "remove_rule")

STALL_RESTART_AFTER = 20

# per-rule cache entry: (coverage mask, log p(L_m) term, log p(z_m) term)
RuleEntry = tuple[int, float, float]


@dataclass(frozen=True)
class SearchConfig:
    n_iter: int = 10_000
    t0: float = 100.0
    explore_prob: float = 0.1
    random_seed: int = 0
    n_restarts: int = 1
    neighbor_budget: int = 50

    def __post_init__(self) -> None:
        if self.n_iter < 1:
            raise ValueError("n_iter must be positive")
        if not 1.0 < self.t0 < math.inf:
            raise ValueError("t0 must be finite and exceed 1")
        if not 0.0 <= self.explore_prob <= 1.0:
            raise ValueError("explore_prob must lie in [0, 1]")
        if self.n_restarts < 0:
            raise ValueError("n_restarts must be non-negative")
        if self.neighbor_budget < 1:
            raise ValueError("neighbor_budget must be positive")


def temperature(cfg: SearchConfig, t: int) -> float:
    """Annealing temperature; t0 at t=0, exactly 1.0 at t=n_iter."""
    return cfg.t0 ** (1.0 - t / cfg.n_iter)


class RunLog:
    """Deterministic JSON-lines record of a search run."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, **fields) -> None:
        self.records.append(fields)

    def improvement(self, state: "SearchState") -> None:
        b = state.bounds
        s = state.best.score
        rs = state.best.rules
        self.emit(
            event="improve",
            chain=state.chain,
            t=state.t,
            log_posterior=s.log_posterior,
            n_rules=rs.n_rules,
            n_conditions=rs.n_conditions,
            n_values=rs.n_values,
            n_features=rs.n_features,
            min_support=b.min_support,
            m_cap=b.m_cap,
        )

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())


@dataclass
class Proposal:
    """A scored rule set: ``rule_cache`` holds the entry of each of its
    rules, in rule order, and ``union_mask`` the rows they cover.
    ``growth`` holds the growth tables of its rules, by rule index, built
    when an add-condition step first narrows that rule, and
    ``misclassified`` the rows it misclassifies, in ascending order, listed
    when a step first samples an example from it."""

    rules: RuleSet
    score: Score
    rule_cache: dict[Rule, RuleEntry]
    union_mask: int
    growth: dict[int, _GrowthTable] = field(default_factory=dict, repr=False, compare=False)
    misclassified: list[int] | None = field(default=None, repr=False, compare=False)


@dataclass
class SearchState:
    """Mutable state of one annealing chain: the current proposal, the best
    one seen in any chain so far, and the pruning bounds, with the RNG
    every chain of the run draws from and the runlog every chain writes."""

    current: Proposal
    best: Proposal
    bounds: BoundState
    rng: random.Random
    t: int = 0
    chain: int = 0
    stall_streak: int = 0
    runlog: RunLog = field(default_factory=RunLog)


class _GrowthTable:
    """Scores every narrowing of rule ``mi`` of a proposal by one new
    condition, from counts instead of masks.

    Narrowing rule ``mi`` changes only which of the rows it alone covers
    stay covered, so the table holds the positive and negative counts of
    those rows per (feature, value), each the bits of the value's mask in
    ``Dataset.value_masks`` among them, and the counts the other rules
    cover.  A move's confusion is those counts plus the sums over its
    values.  Its prior adds the same floats in the same order as
    ``_Scorer.posterior`` does for the materialized rule set: the count
    prior and the terms of the rules before ``mi``, the grown rule's terms
    from its (feature, value count) pairs, then the terms of the rules
    after ``mi``.  So a
    move's score equals the materialized rule set's exactly.
    """

    def __init__(self, prop: Proposal, mi: int, data: Dataset, hyper: Hyperparams) -> None:
        rules = prop.rules.rules
        rule = rules[mi]
        cache = prop.rule_cache
        self.rules, self.mi, self.rule = rules, mi, rule
        self.data, self.hyper = data, hyper
        self.parent_mask = cache[rule][0]
        self.head_prior = log_rule_count_prior(len(rules), hyper)
        others = 0
        for k, other in enumerate(rules):
            if k != mi:
                mask, length_term, dm_term = cache[other]
                others |= mask
                if k < mi:
                    self.head_prior += length_term
                    self.head_prior += dm_term
        self.tail_terms = [term for other in rules[mi + 1 :] for term in cache[other][1:]]
        self.tp = (others & data.pos_mask).bit_count()
        self.fp = others.bit_count() - self.tp

        # counts over the rows rule mi alone covers, per (feature, value)
        only = self.parent_mask & ~others
        pos_only = only & data.pos_mask
        self.pos: list[list[int]] = []
        self.neg: list[list[int]] = []
        for masks in data.value_masks:
            pos = [(pos_only & m).bit_count() for m in masks]
            self.pos.append(pos)
            self.neg.append([(only & m).bit_count() - p for m, p in zip(masks, pos)])

        # the rule's (feature, value count) pairs: a grown rule's prior terms
        # depend on these and the new condition's pair alone
        self.counts = [(c.feature_id, c.n_values) for c in rule.conditions]
        # per free feature (one the rule lacks, of two values or more): the
        # feature, its vocabulary size and the vocabulary minus value w at w
        used = rule.features
        self.free: list[tuple[int, int, list[tuple[int, ...]]]] = []
        for j, vocab in enumerate(data.vocab_sizes):
            if vocab >= 2 and j not in used:
                everything = tuple(range(vocab))
                without = [everything[:w] + everything[w + 1 :] for w in everything]
                self.free.append((j, vocab, without))
        self.priors: dict[tuple[int, int], float] = {}
        # a move's score by (feature, values): the random variants repeat
        # across the steps the table serves
        self.scores: dict[tuple[int, tuple[int, ...]], float] = {}
        # (feature, values) whose grown rule is another current rule: the
        # rule set those moves make
        self.collisions = {}
        for other in rules:
            extra = set(other.conditions).difference(rule.conditions)
            if len(extra) == 1 and len(other.conditions) == len(rule.conditions) + 1:
                (cond,) = extra
                self.collisions[cond.feature_id, cond.values] = _replace_rule(rules, mi, other)

    def prior(self, feature: int, n_values: int) -> float:
        prior = self.priors.get((feature, n_values))
        if prior is None:
            # the grown rule's pairs in feature order, as Rule sorts them
            grown = sorted([*self.counts, (feature, n_values)])
            length_term, dm_term = prior_terms_from_counts(grown, self.hyper)
            prior = self.head_prior + length_term
            prior += dm_term
            for term in self.tail_terms:
                prior += term
            self.priors[feature, n_values] = prior
        return prior

    def posterior(self, feature: int, values: tuple[int, ...]) -> float:
        key = (feature, values)
        score = self.scores.get(key)
        if score is None:
            pos, neg = self.pos[feature], self.neg[feature]
            tp = self.tp + sum(map(pos.__getitem__, values))
            fp = self.fp + sum(map(neg.__getitem__, values))
            data = self.data
            score = self.scores[key] = self.prior(feature, len(values)) + log_likelihood_counts(
                tp, fp, data.n_neg - fp, data.n_pos - tp, self.hyper
            )
        return score


class _Growth(NamedTuple):
    """An add-condition move: rule ``table.mi`` narrowed by the condition
    ``feature`` in ``values`` (sorted, a proper subset of the vocabulary)."""

    table: _GrowthTable
    feature: int
    values: tuple[int, ...]

    def posterior(self) -> float:
        return self.table.posterior(self.feature, self.values)

    def materialize(self) -> tuple[tuple[Rule, ...], Rule, int]:
        """The rule set the move makes, with the grown rule at ``table.mi``,
        that rule and its rows: its parent's AND the new condition's."""
        t = self.table
        grown = Rule(t.rule.conditions + (Condition(self.feature, self.values),))
        mask = t.parent_mask & condition_mask(t.data, self.feature, self.values)
        return _replace_rule(t.rules, t.mi, grown), grown, mask


class _SeedTable:
    """Scores the add-rule moves of one step, each a new rule appended to
    the current rules, from the new rule's mask and its conditions' value
    counts instead of from a ``Rule``.

    The rule set a seed makes covers the current union and the seed's
    mask, so its confusion is counted from ``union_mask | mask``.  Its prior
    adds the same floats in the same order as ``_Scorer.posterior`` does for
    the materialized rule set: the count prior of one more rule and the
    current rules' terms, summed once per step, then the new rule's
    ``prior_terms_from_counts``.  So a seed's score equals the materialized
    rule set's exactly.
    """

    def __init__(self, current: Proposal, data: Dataset, hyper: Hyperparams) -> None:
        rules = current.rules.rules
        self.rules, self.union_mask = rules, current.union_mask
        self.data, self.hyper = data, hyper
        head = log_rule_count_prior(len(rules) + 1, hyper)
        for rule in rules:
            _, length_term, dm_term = current.rule_cache[rule]
            head += length_term
            head += dm_term
        self.head_prior = head

    def posterior(self, conditions: tuple[tuple[int, tuple[int, ...]], ...], mask: int) -> float:
        hyper = self.hyper
        length_term, dm_term = prior_terms_from_counts(
            [(j, len(values)) for j, values in conditions], hyper
        )
        prior = self.head_prior + length_term
        prior += dm_term
        data = self.data
        union = self.union_mask | mask
        tp = (union & data.pos_mask).bit_count()
        fp = union.bit_count() - tp
        return prior + log_likelihood_counts(tp, fp, data.n_neg - fp, data.n_pos - tp, hyper)


class _Seed:
    """An add-rule move: the current rules plus a new rule given as the
    (feature, sorted values) pairs of its conditions in feature order, the
    form ``Rule`` holds them in, and its rows.  ``_seed_moves`` admits each
    rule once, so a seed compares and hashes by identity."""

    __slots__ = ("table", "conditions", "mask")

    def __init__(
        self, table: _SeedTable, conditions: tuple[tuple[int, tuple[int, ...]], ...], mask: int
    ) -> None:
        self.table, self.conditions, self.mask = table, conditions, mask

    def posterior(self) -> float:
        return self.table.posterior(self.conditions, self.mask)

    def materialize(self) -> tuple[tuple[Rule, ...], Rule, int]:
        """The rule set the move makes, its new (last) rule and that rule's
        rows."""
        rule = Rule(tuple(Condition(j, values) for j, values in self.conditions))
        return self.table.rules + (rule,), rule, self.mask


Candidate = tuple[Rule, ...] | _Growth | _Seed


class _Scorer:
    """Scores candidates, rule tuples and moves; lives for one step.

    A rule tuple is scored from per-rule cache entries seeded with the
    current rules' entries: the rule-count prior plus its rules' cached
    terms (added in ``log_prior``'s order, so the float is the one
    ``scoring.score`` returns) plus the likelihood of the union of their
    masks.  A rule not seen this step costs a ``rule_mask`` and a
    ``rule_prior_terms`` call.  A move, an add-condition ``_Growth`` or an
    add-rule ``_Seed``, is scored by its table, which gives the same float
    without building the move's new rule; a move that becomes a proposal
    writes that rule's entry from the mask it holds.
    """

    def __init__(self, entries: dict[Rule, RuleEntry], data: Dataset, hyper: Hyperparams) -> None:
        self.entries = dict(entries)
        self.data = data
        self.hyper = hyper

    def _prior_and_union(self, rules: tuple[Rule, ...]) -> tuple[float, int]:
        entries = self.entries
        prior = log_rule_count_prior(len(rules), self.hyper)
        union = 0
        for rule in rules:
            entry = entries.get(rule)
            if entry is None:
                entry = entries[rule] = (
                    rule_mask(rule, self.data),
                    *rule_prior_terms(rule, self.hyper, self.data.vocab_sizes),
                )
            union |= entry[0]
            prior += entry[1]
            prior += entry[2]
        return prior, union

    def posterior(self, candidate: Candidate) -> float:
        if candidate.__class__ is not tuple:
            return candidate.posterior()
        prior, union = self._prior_and_union(candidate)
        data = self.data
        tp = (union & data.pos_mask).bit_count()
        fp = union.bit_count() - tp
        return prior + log_likelihood_counts(tp, fp, data.n_neg - fp, data.n_pos - tp, self.hyper)

    def proposal(self, candidate: Candidate) -> Proposal:
        rules = candidate
        if candidate.__class__ is not tuple:
            rules, rule, mask = candidate.materialize()
            self.entries[rule] = (mask, *rule_prior_terms(rule, self.hyper, self.data.vocab_sizes))
        prior, union = self._prior_and_union(rules)
        conf = confusion_from_mask(union, self.data)
        score = Score.of(prior, log_likelihood(conf, self.hyper), conf)
        cache = {rule: self.entries[rule] for rule in rules}
        return Proposal(RuleSet(rules), score, cache, union)


class Pick(NamedTuple):
    """The candidate ``propose`` chose through ``action``, with its
    posterior: the float ``scorer.posterior`` gives, equal to the
    ``log_posterior`` of the proposal it materializes into.  A move
    becomes a rule set, and its new rule a ``Rule``, only here."""

    candidate: Candidate
    action: str
    log_posterior: float
    scorer: _Scorer

    def proposal(self) -> Proposal:
        return self.scorer.proposal(self.candidate)


def _below(getrandbits, n: int) -> int:
    """``Random._randbelow(n)`` for n > 0, from the same ``getrandbits``
    calls: ``randint(a, b)`` is ``a + _below(getrandbits, b - a + 1)``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sample(getrandbits, population: Sequence, k: int) -> list:
    """``Random.sample(population, k)`` for 0 <= k <= len(population): the
    same elements in the same order, from the same ``getrandbits`` calls.

    Like the stdlib, a population no larger than ``setsize`` is drawn from
    a shrinking pool, a larger one by redrawing indices already taken.
    """
    if not k:
        return []
    n = len(population)
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    result = []
    if n <= setsize:
        pool = list(population)
        for m in range(n, n - k, -1):
            # _below(getrandbits, m), inlined
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[m - 1]
        return result
    bits = n.bit_length()
    selected = set()
    for _ in range(k):
        j = getrandbits(bits)
        # _below's rejection and the taken-index rejection in one loop
        while j >= n or j in selected:
            j = getrandbits(bits)
        selected.add(j)
        result.append(population[j])
    return result


def random_ruleset(data: Dataset, rng: random.Random) -> RuleSet:
    """1-3 random rules of 1-3 conditions with random proper value sets."""
    eligible = [j for j, v in enumerate(data.vocab_sizes) if v >= 2]
    if not eligible:
        raise ValueError("no feature has at least two values; nothing to search")
    bits = rng.getrandbits
    rules = []
    for _ in range(1 + _below(bits, 3)):
        n_feats = 1 + _below(bits, min(3, len(eligible)))
        conds = []
        for j in _sample(bits, eligible, n_feats):
            vocab = data.vocab_sizes[j]
            size = 1 + _below(bits, vocab - 1)
            conds.append(Condition(j, tuple(_sample(bits, range(vocab), size))))
        rules.append(Rule(tuple(conds)))
    return normalize(RuleSet(tuple(rules)), data.vocab_sizes)


def _start_chain(
    data: Dataset, hyper: Hyperparams, rng: random.Random, state: SearchState | None = None
) -> SearchState:
    """Make a random rule set the current state of chain ``state.chain``: a
    new state drawing from ``rng`` for chain 0, or ``state`` restarted at
    t = 0 with its best, bounds and runlog kept.  The runlog gets the
    chain's ``chain_start`` record, then an ``improve`` record when the
    start is the new best."""
    start = _Scorer({}, data, hyper).proposal(random_ruleset(data, rng).rules)
    improved = state is None or start.score.log_posterior > state.best.score.log_posterior
    if state is None:
        state = SearchState(start, start, initial_bounds(data, hyper), rng)
    else:
        state.current, state.t, state.stall_streak = start, 0, 0
        if improved:
            state.best = start
    state.bounds = update_bounds(state.bounds, start.score.log_posterior)
    runlog = state.runlog
    runlog.emit(event="chain_start", chain=state.chain, log_posterior=start.score.log_posterior)
    if improved:
        runlog.improvement(state)
    return state


def init_state(data: Dataset, hyper: Hyperparams, cfg: SearchConfig) -> SearchState:
    """Chain 0's state from a random rule set, with bounds seeded with its
    score.  The state owns the run's RNG, seeded here from
    ``cfg.random_seed``, and its runlog, which holds chain 0's
    ``chain_start`` and ``improve`` records."""
    if data.n_pos == 0 or data.n_neg == 0:
        raise DegenerateLabelError("training data needs both positive and negative examples")
    return _start_chain(data, hyper, random.Random(f"mars-search:{cfg.random_seed}"))


def sample_misclassified(state: SearchState, data: Dataset) -> tuple[int, bool] | None:
    """Uniform draw from the rows the current rule set misclassifies.

    Returns (row_index, label) or None when training accuracy is 1.0.
    Covered XOR positive is exactly the misclassified set (false positives
    plus false negatives).  The current proposal lists those rows, in
    ascending order, the first time it is asked and keeps the list; entry
    ``rng.randrange(count)`` of it is the k-th set bit of that XOR for the
    same draw k.
    """
    current = state.current
    rows = current.misclassified
    if rows is None:
        rows = current.misclassified = indices(current.union_mask ^ data.pos_mask)
    if not rows:
        return None
    idx = rows[state.rng.randrange(len(rows))]
    return idx, bool(data.labels[idx])


# ---------------------------------------------------------------------------
# neighbor generation: each edit is a tuple of rules in normalized form
# ---------------------------------------------------------------------------

def _replace_rule(rules: tuple[Rule, ...], mi: int, new_rule: Rule | None) -> tuple[Rule, ...]:
    """``rules`` with rule ``mi`` replaced by ``new_rule`` (None deletes it).

    A replacement equal to another rule is deduplicated as ``normalize``
    does: the first occurrence is kept.
    """
    if new_rule is None:
        return rules[:mi] + rules[mi + 1 :]
    if new_rule in rules:
        for k, rule in enumerate(rules):
            if k != mi and rule == new_rule:
                if k < mi:
                    return rules[:mi] + rules[mi + 1 :]
                return rules[:mi] + (new_rule,) + rules[mi + 1 : k] + rules[k + 1 :]
    return rules[:mi] + (new_rule,) + rules[mi + 1 :]


def _edits_add_value(rules, data: Dataset, xrow) -> list[tuple[Rule, ...]]:
    """Grow each condition that rejects the example by the example's value.

    ``propose`` passes only false negatives: no rule covers the example, so
    every rule has a condition that rejects it and gives at least one edit."""
    edits = []
    for mi, rule in enumerate(rules):
        conds = rule.conditions
        for ci, cond in enumerate(conds):
            j = cond.feature_id
            v = int(xrow[j])
            if v in cond.values:
                continue
            if cond.n_values + 1 < data.vocab_sizes[j]:
                grown = Rule(conds[:ci] + (Condition(j, cond.values + (v,)),) + conds[ci + 1 :])
            else:
                # the full vocabulary is always true: the condition goes,
                # and the rule with it when it was the only one
                rest = conds[:ci] + conds[ci + 1 :]
                grown = Rule(rest) if rest else None
            edits.append(_replace_rule(rules, mi, grown))
    return edits


def _edits_remove_condition(rules) -> list[tuple[Rule, ...]]:
    edits = []
    for mi, rule in enumerate(rules):
        for ci in range(len(rule.conditions)):
            rest = rule.conditions[:ci] + rule.conditions[ci + 1 :]
            # deleting the lone condition deletes the rule
            edits.append(_replace_rule(rules, mi, Rule(rest) if rest else None))
    return edits


def _seed_moves(
    current: Proposal,
    data: Dataset,
    hyper: Hyperparams,
    xrow,
    rng: random.Random,
    budget: int,
    bounds: BoundState,
) -> list[_Seed]:
    """Up to ``budget`` new rules seeded from the example, as moves: each
    condition holds the example's value and a sample of the spare ones.
    A seed equal to an earlier seed or a current rule is skipped, and one
    covering fewer rows than the support floor is not admitted; the
    rule-count cap gates the action entirely."""
    rules = current.rules.rules
    if bounds.m_cap is not None and len(rules) >= bounds.m_cap:
        return []
    vocab_sizes = data.vocab_sizes
    eligible = [j for j, v in enumerate(vocab_sizes) if v >= 2]
    if not eligible:
        return []
    table = _SeedTable(current, data, hyper)
    # a seed is keyed by its conditions' (feature, values) pairs, as Rule holds them
    seen = {tuple((c.feature_id, c.values) for c in rule.conditions) for rule in rules}
    seeds: list[_Seed] = []
    # per feature, the example's value and the vocabulary's other values
    wants = [int(v) for v in xrow]
    spares = {j: [*range(wants[j]), *range(wants[j] + 1, vocab_sizes[j])] for j in eligible}
    max_feats = min(3, len(eligible))
    bits = rng.getrandbits
    attempts = 0
    while len(seeds) < budget and attempts < 3 * budget:
        attempts += 1
        conds = []
        for j in _sample(bits, eligible, 1 + _below(bits, max_feats)):
            # the example's value, and a sample of the spare ones
            values = _sample(bits, spares[j], _below(bits, vocab_sizes[j] - 1))
            values.append(wants[j])
            values.sort()
            conds.append((j, tuple(values)))
        conds.sort()  # by feature: the features are distinct
        key = tuple(conds)
        if key in seen:
            continue
        seen.add(key)
        mask = data.full_mask
        for j, values in key:
            mask &= condition_mask(data, j, values)
        if mask.bit_count() < bounds.min_support:
            continue
        seeds.append(_Seed(table, key, mask))
    return seeds


def _growth_moves(
    current: Proposal,
    data: Dataset,
    hyper: Hyperparams,
    idx: int,
    xrow,
    rng: random.Random,
) -> list[_Growth | tuple[Rule, ...]]:
    """Narrow each rule covering example ``idx`` by one condition on a
    feature it lacks: the vocabulary minus the example's value (excluding
    it at the smallest possible coverage loss) and two random value sets.
    A move whose grown rule is another current rule comes as the rule set
    it makes."""
    moves: list[_Growth | tuple[Rule, ...]] = []
    bit = 1 << idx
    bits = rng.getrandbits
    for mi, rule in enumerate(current.rules.rules):
        if not current.rule_cache[rule][0] & bit:
            continue  # only rules that cover the sampled negative example
        table = current.growth.get(mi)
        if table is None:
            table = current.growth[mi] = _GrowthTable(current, mi, data, hyper)
        collisions = table.collisions
        for j, vocab, without in table.free:
            variants = (
                without[xrow[j]],
                tuple(sorted(_sample(bits, range(vocab), 1 + _below(bits, vocab - 1)))),
                tuple(sorted(_sample(bits, range(vocab), 1 + _below(bits, vocab - 1)))),
            )
            for vals in variants:
                edit = collisions.get((j, vals)) if collisions else None
                moves.append(_Growth(table, j, vals) if edit is None else edit)
    return moves


def _edits_remove_rule(rules) -> list[tuple[Rule, ...]]:
    return [rules[:mi] + rules[mi + 1 :] for mi in range(len(rules))]


# ---------------------------------------------------------------------------
# proposal selection
# ---------------------------------------------------------------------------

def propose(
    state: SearchState,
    example: tuple[int, bool] | None,
    data: Dataset,
    hyper: Hyperparams,
    cfg: SearchConfig,
) -> Pick | None:
    """One pick for a sampled misclassified example, or for None when
    training accuracy is 1.0.

    A labelled example draws its first action uniformly from the branch
    matching its label, then tries the branch's other actions in shuffled
    order.  With no example only complexity-reducing moves can still
    improve the posterior, so the simplify actions are tried in shuffled
    order.  The first action with a neighbor gives the pick; None (a
    stall) is returned when none has any.
    """
    rng = state.rng
    current = state.current
    rules = current.rules.rules
    if example is None:
        order = list(SIMPLIFY_ACTIONS)
        rng.shuffle(order)
    else:
        idx, is_positive = example
        xrow = data.rows[idx]
        actions = list(POSITIVE_ACTIONS if is_positive else NEGATIVE_ACTIONS)
        first = rng.choice(actions)
        actions.remove(first)
        rng.shuffle(actions)
        order = [first, *actions]
    scorer = _Scorer(current.rule_cache, data, hyper)
    for action in order:
        if action == "add_value":
            edits = _edits_add_value(rules, data, xrow)
        elif action == "remove_condition":
            edits = _edits_remove_condition(rules)
        elif action == "add_rule":
            edits = _seed_moves(current, data, hyper, xrow, rng, cfg.neighbor_budget, state.bounds)
        elif action == "add_condition":
            edits = _growth_moves(current, data, hyper, idx, xrow, rng)
        else:
            edits = _edits_remove_rule(rules)
        if not edits:
            continue
        if len(edits) > cfg.neighbor_budget:
            edits = _sample(rng.getrandbits, edits, cfg.neighbor_budget)
        # edits are normalized, so equal tuples are the equal rule sets; equal
        # growths are the equal rule sets, seeds come deduplicated, and no
        # move equals a rule tuple.  No edit is the current rule set: each
        # changes the rule count or puts in a rule the set does not hold.
        candidates = list(dict.fromkeys(edits))
        if rng.random() < cfg.explore_prob:
            chosen = rng.choice(candidates)
            posterior = scorer.posterior(chosen)
        else:
            # max() keeps the first of tied candidates
            posterior, chosen = max(
                zip(map(scorer.posterior, candidates), candidates), key=itemgetter(0)
            )
        return Pick(chosen, action, posterior, scorer)
    return None


def _accepts(rng: random.Random, delta: float, temp: float) -> bool:
    """Annealing acceptance: probability min(1, exp(delta / temp))."""
    if delta >= 0:
        return True
    return rng.random() < math.exp(delta / temp)


def anneal_step(
    state: SearchState, data: Dataset, hyper: Hyperparams, cfg: SearchConfig
) -> SearchState:
    """One Markov-chain step: propose, track best, accept-or-reject.  The
    pick becomes a ``Proposal`` only when it is a new best or accepted.
    Stalls and new bests go to ``state.runlog``."""
    pick = propose(state, sample_misclassified(state, data), data, hyper, cfg)
    if pick is None:
        state.stall_streak += 1
        state.runlog.emit(event="stall", chain=state.chain, t=state.t)
        state.t += 1
        return state
    state.stall_streak = 0

    # the best-so-far tracks every pick, accepted or not
    improved = pick.log_posterior > state.best.score.log_posterior
    delta = pick.log_posterior - state.current.score.log_posterior
    accepted = _accepts(state.rng, delta, temperature(cfg, state.t))
    if improved or accepted:
        prop = pick.proposal()
        if improved:
            state.best = prop
            state.bounds = update_bounds(state.bounds, prop.score.log_posterior)
            state.runlog.improvement(state)
        if accepted:
            state.current = prop
    state.t += 1
    return state


def run(
    data: Dataset, hyper: Hyperparams, cfg: SearchConfig
) -> tuple[RuleSet, Score, RunLog]:
    """Best rule set over ``n_restarts + 1`` sequential annealing chains.

    Twenty consecutive stalls (no legal neighbor anywhere) abort a chain
    early and consume the next restart slot.  Every chain draws from the
    RNG ``init_state`` seeds and writes to its runlog, which ``run``
    closes with a ``done`` record and returns.  Deterministic for a fixed
    config, including the JSON-lines RunLog.
    """
    state = init_state(data, hyper, cfg)
    runlog = state.runlog
    for chain in range(cfg.n_restarts + 1):
        if chain:
            state.chain = chain
            _start_chain(data, hyper, state.rng, state)
        for _ in range(cfg.n_iter):
            anneal_step(state, data, hyper, cfg)
            if state.stall_streak >= STALL_RESTART_AFTER:
                runlog.emit(event="stall_restart", chain=chain, t=state.t)
                break
    best = state.best
    runlog.emit(
        event="done",
        log_posterior=best.score.log_posterior,
        n_rules=best.rules.n_rules,
        n_conditions=best.rules.n_conditions,
        n_values=best.rules.n_values,
        n_features=best.rules.n_features,
        **asdict(best.score.confusion),
    )
    return best.rules, best.score, runlog
