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
positive example and admitted only when their support clears the current
pruning floor; the rule-count cap gates the action entirely.

Every neighbor differs from the current rule set in at most one rule, and
the edit builders return it already in ``normalize``'s canonical form
(only the edited rule can turn tautological or duplicate another), so
neighbors are deduplicated as plain rule tuples.  Candidates are scored
from a per-step cache of per-rule entries ``(mask, length term, DM term)``
seeded with the current rules' entries: a candidate's posterior is the
rule-count prior plus its rules' cached terms (added in ``log_prior``'s
order, so the float is the one ``scoring.score`` returns) plus the
likelihood of the union of their masks.  Only a rule the step has not seen
costs a mask and a ``rule_prior_terms`` call; an add-rule rule reuses the
mask its support check built.

Add-condition neighbors, the bulk of a negative example's candidates, are
scored without building them.  Each is a move (rule index, feature,
sorted values) scored by that rule's growth table: the positive and
negative counts, per (feature, value), of the rows only that rule covers,
with the other rules' counts and the rule's prior terms.  A move's
confusion is integer sums over its values, and its prior adds the same
floats in the same order as the materialized rule set's, so its score is
the very float the rule-tuple path gives and ``max()`` picks the same
neighbor.  The table hangs off the current proposal, built per rule when
first needed, and serves every step until a move is accepted.  A move
whose grown rule equals another current rule (rare) comes as its rule
tuple instead.  Only the chosen move becomes a ``Rule``, its mask its
parent's AND the new condition's.

A ``Proposal`` with a full ``Score`` and the rules' cache entries is built
for the selected candidate alone.  A chain's state is two proposals, the
current one and the best one: a proposal carries its rules, its ``Score``
(with its ``Confusion``), its rules' cache entries and growth tables and
its coverage mask, so accepting a move is replacing the current proposal,
and the next step's cache is seeded from that proposal's entries.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .bitset import indices, kth_set_bit
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
    rule_prior_terms,
)

# not called here; kept importable from this module for per-layer tracing
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
        if not self.t0 > 1.0:
            raise ValueError("t0 must exceed 1")
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
    when an add-condition step first narrows that rule."""

    rules: RuleSet
    score: Score
    rule_cache: dict[Rule, RuleEntry]
    union_mask: int
    action: str
    growth: dict[int, _GrowthTable] = field(default_factory=dict, repr=False, compare=False)


@dataclass
class SearchState:
    """Mutable state of one annealing chain: the current proposal, the best
    one seen in any chain so far, and the pruning bounds."""

    current: Proposal
    best: Proposal
    bounds: BoundState
    rng: random.Random
    t: int = 0
    chain: int = 0
    stall_streak: int = 0


class _GrowthTable:
    """Scores every narrowing of rule ``mi`` of a proposal by one new
    condition, from counts instead of masks.

    Narrowing rule ``mi`` changes only which of the rows it alone covers
    stay covered, so the table holds the positive and negative counts of
    those rows per (feature, value) and the counts the other rules cover.
    A move's confusion is those counts plus the sums over its values.  Its
    prior adds the same floats in the same order as ``_Scorer.posterior``
    does for the materialized rule set: the count prior and the terms of
    the rules before ``mi``, the grown rule's ``rule_prior_terms``, then
    the terms of the rules after ``mi``.  So a move's score equals the
    materialized rule set's exactly.
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

        # counts over the rows rule mi alone covers, from one bincount of
        # codes offset per feature, positive rows shifted past the negatives
        vocab_sizes = data.vocab_sizes
        offsets = np.cumsum((0,) + vocab_sizes[:-1])
        n_codes = sum(vocab_sizes)
        only = indices(self.parent_mask & ~others)
        codes = data.rows[only] + offsets
        codes[data.labels[only]] += n_codes
        counts = np.bincount(codes.ravel(), minlength=2 * n_codes).tolist()
        self.neg = [counts[o : o + v] for o, v in zip(offsets, vocab_sizes)]
        self.pos = [counts[n_codes + o : n_codes + o + v] for o, v in zip(offsets, vocab_sizes)]

        used = rule.features
        self.free = [j for j, v in enumerate(vocab_sizes) if v >= 2 and j not in used]
        self.priors: dict[tuple[int, int], float] = {}
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
            # a condition's prior terms depend on how many values it holds,
            # not which
            grown = Rule(self.rule.conditions + (Condition(feature, tuple(range(n_values))),))
            length_term, dm_term = rule_prior_terms(grown, self.hyper, self.data.vocab_sizes)
            prior = self.head_prior + length_term
            prior += dm_term
            for term in self.tail_terms:
                prior += term
            self.priors[feature, n_values] = prior
        return prior

    def posterior(self, feature: int, values: tuple[int, ...]) -> float:
        pos, neg = self.pos[feature], self.neg[feature]
        tp = self.tp + sum(map(pos.__getitem__, values))
        fp = self.fp + sum(map(neg.__getitem__, values))
        data = self.data
        return self.prior(feature, len(values)) + log_likelihood_counts(
            tp, fp, data.n_neg - fp, data.n_pos - tp, self.hyper
        )


class _Growth(NamedTuple):
    """An add-condition move: rule ``table.mi`` narrowed by the condition
    ``feature`` in ``values`` (sorted, a proper subset of the vocabulary)."""

    table: _GrowthTable
    feature: int
    values: tuple[int, ...]

    def edit(self) -> tuple[Rule, ...]:
        """The rule set the move makes, with the grown rule at ``table.mi``."""
        t = self.table
        grown = Rule(t.rule.conditions + (Condition(self.feature, self.values),))
        return _replace_rule(t.rules, t.mi, grown)


class _Scorer:
    """Scores candidates, rule tuples and add-condition moves; lives for
    one step.

    A rule tuple is scored from per-rule cache entries seeded with the
    current rules' entries: the rule-count prior plus its rules' cached
    terms (added in ``log_prior``'s order, so the float is the one
    ``scoring.score`` returns) plus the likelihood of the union of their
    masks.  A rule not seen this step costs a mask and a
    ``rule_prior_terms`` call; ``known`` holds masks the edit builders
    already computed, so its entry reuses them instead of calling
    ``rule_mask``.  An add-condition move is scored by its growth table,
    which gives the same float from counts.
    """

    def __init__(self, entries: dict[Rule, RuleEntry], data: Dataset, hyper: Hyperparams) -> None:
        self.entries = dict(entries)
        self.known: dict[Rule, int] = {}
        self.data = data
        self.hyper = hyper

    def _prior_and_union(self, rules: tuple[Rule, ...]) -> tuple[float, int]:
        entries = self.entries
        prior = log_rule_count_prior(len(rules), self.hyper)
        union = 0
        for rule in rules:
            entry = entries.get(rule)
            if entry is None:
                mask = self.known.get(rule)
                if mask is None:
                    mask = rule_mask(rule, self.data)
                entry = entries[rule] = (
                    mask, *rule_prior_terms(rule, self.hyper, self.data.vocab_sizes)
                )
            union |= entry[0]
            prior += entry[1]
            prior += entry[2]
        return prior, union

    def posterior(self, candidate: tuple[Rule, ...] | _Growth) -> float:
        if candidate.__class__ is _Growth:
            return candidate.table.posterior(candidate.feature, candidate.values)
        prior, union = self._prior_and_union(candidate)
        data = self.data
        tp = (union & data.pos_mask).bit_count()
        fp = union.bit_count() - tp
        return prior + log_likelihood_counts(tp, fp, data.n_neg - fp, data.n_pos - tp, self.hyper)

    def proposal(self, candidate: tuple[Rule, ...] | _Growth, action: str) -> Proposal:
        rules = candidate
        if candidate.__class__ is _Growth:
            table = candidate.table
            rules = candidate.edit()
            # the grown rule's rows: its parent's AND the new condition's
            self.known[rules[table.mi]] = table.parent_mask & condition_mask(
                self.data, candidate.feature, candidate.values
            )
        prior, union = self._prior_and_union(rules)
        conf = confusion_from_mask(union, self.data)
        score = Score.of(prior, log_likelihood(conf, self.hyper), conf)
        cache = {rule: self.entries[rule] for rule in rules}
        return Proposal(RuleSet(rules), score, cache, union, action)


def random_ruleset(data: Dataset, rng: random.Random) -> RuleSet:
    """1-3 random rules of 1-3 conditions with random proper value sets."""
    eligible = [j for j, v in enumerate(data.vocab_sizes) if v >= 2]
    if not eligible:
        raise ValueError("no feature has at least two values; nothing to search")
    rules = []
    for _ in range(rng.randint(1, 3)):
        feats = rng.sample(eligible, rng.randint(1, min(3, len(eligible))))
        conds = []
        for j in feats:
            vocab = data.vocab_sizes[j]
            size = rng.randint(1, vocab - 1)
            conds.append(Condition(j, tuple(rng.sample(range(vocab), size))))
        rules.append(Rule(tuple(conds)))
    return normalize(RuleSet(tuple(rules)), data.vocab_sizes)


def _start_chain(
    data: Dataset,
    hyper: Hyperparams,
    rng: random.Random,
    state: SearchState | None = None,
    runlog: RunLog | None = None,
) -> SearchState:
    """Make a random rule set the current state of chain ``state.chain``: a
    new state for chain 0, or ``state`` restarted at t = 0 with its best and
    bounds kept.  The runlog gets the chain's ``chain_start`` record, then an
    ``improve`` record when the start is the new best."""
    start = _Scorer({}, data, hyper).proposal(random_ruleset(data, rng).rules, "start")
    improved = state is None or start.score.log_posterior > state.best.score.log_posterior
    if state is None:
        state = SearchState(start, start, initial_bounds(data, hyper), rng)
    else:
        state.current, state.t, state.stall_streak = start, 0, 0
        if improved:
            state.best = start
    state.bounds = update_bounds(state.bounds, start.score.log_posterior)
    if runlog is not None:
        runlog.emit(event="chain_start", chain=state.chain, log_posterior=start.score.log_posterior)
        if improved:
            runlog.improvement(state)
    return state


def init_state(
    data: Dataset,
    hyper: Hyperparams,
    cfg: SearchConfig,
    rng: random.Random | None = None,
    runlog: RunLog | None = None,
) -> SearchState:
    """Fresh chain state from a random rule set; bounds seeded with its score."""
    if data.n_pos == 0 or data.n_neg == 0:
        raise DegenerateLabelError("training data needs both positive and negative examples")
    if rng is None:
        rng = random.Random(f"mars-search:{cfg.random_seed}")
    return _start_chain(data, hyper, rng, runlog=runlog)


def sample_misclassified(state: SearchState, data: Dataset) -> tuple[int, bool] | None:
    """Uniform draw from the rows the current rule set misclassifies.

    Returns (row_index, label) or None when training accuracy is 1.0.
    Covered XOR positive is exactly the misclassified set (false positives
    plus false negatives).
    """
    mis = state.current.union_mask ^ data.pos_mask
    count = mis.bit_count()
    if count == 0:
        return None
    idx = kth_set_bit(mis, state.rng.randrange(count))
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
    progress, others = [], []
    for mi, rule in enumerate(rules):
        conds = rule.conditions
        for ci, cond in enumerate(conds):
            j = cond.feature_id
            vocab = data.vocab_sizes[j]
            have = set(cond.values)
            target = int(xrow[j])
            for v in range(vocab):
                if v in have:
                    continue
                if cond.n_values + 1 < vocab:
                    grown = Rule(conds[:ci] + (Condition(j, cond.values + (v,)),) + conds[ci + 1 :])
                else:
                    # the full vocabulary is always true: the condition goes,
                    # and the rule with it when it was the only one
                    rest = conds[:ci] + conds[ci + 1 :]
                    grown = Rule(rest) if rest else None
                bucket = progress if v == target else others
                bucket.append(_replace_rule(rules, mi, grown))
    # prefer growths that move toward covering the sampled example
    return progress or others


def _edits_remove_condition(rules) -> list[tuple[Rule, ...]]:
    edits = []
    for mi, rule in enumerate(rules):
        for ci in range(len(rule.conditions)):
            rest = rule.conditions[:ci] + rule.conditions[ci + 1 :]
            # deleting the lone condition deletes the rule
            edits.append(_replace_rule(rules, mi, Rule(rest) if rest else None))
    return edits


def _edits_add_rule(
    rules,
    data: Dataset,
    xrow,
    rng: random.Random,
    budget: int,
    bounds: BoundState,
    known: dict[Rule, int],
) -> list[tuple[Rule, ...]]:
    """Up to ``budget`` new rules seeded from the example; the mask of each
    admitted rule is recorded in ``known``."""
    if bounds.m_cap is not None and len(rules) >= bounds.m_cap:
        return []
    eligible = [j for j, v in enumerate(data.vocab_sizes) if v >= 2]
    if not eligible:
        return []
    existing = set(rules)
    edits: list[tuple[Rule, ...]] = []
    seen: set[Rule] = set()
    max_feats = min(3, len(eligible))
    attempts = 0
    while len(edits) < budget and attempts < 3 * budget:
        attempts += 1
        feats = rng.sample(eligible, rng.randint(1, max_feats))
        conds = []
        for j in feats:
            vocab = data.vocab_sizes[j]
            want = int(xrow[j])
            extra = rng.randint(0, vocab - 2)
            if extra:
                spare = [v for v in range(vocab) if v != want]
                conds.append(Condition(j, (want, *rng.sample(spare, extra))))
            else:
                conds.append(Condition(j, (want,)))
        cand = Rule(tuple(conds))
        if cand in seen or cand in existing:
            continue
        seen.add(cand)
        mask = rule_mask(cand, data)
        if mask.bit_count() < bounds.min_support:
            continue
        known[cand] = mask
        edits.append(rules + (cand,))
    return edits


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
    for mi, rule in enumerate(current.rules.rules):
        if not current.rule_cache[rule][0] & bit:
            continue  # only rules that cover the sampled negative example
        table = current.growth.get(mi)
        if table is None:
            table = current.growth[mi] = _GrowthTable(current, mi, data, hyper)
        collisions = table.collisions
        for j in table.free:
            vocab = data.vocab_sizes[j]
            want = int(xrow[j])
            everything = tuple(range(vocab))
            variants = [everything[:want] + everything[want + 1 :]]
            for _ in range(2):
                size = rng.randint(1, vocab - 1)
                variants.append(tuple(sorted(rng.sample(range(vocab), size))))
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
) -> Proposal | None:
    """One proposal for a sampled misclassified example, or for None when
    training accuracy is 1.0.

    A labelled example draws its first action uniformly from the branch
    matching its label, then tries the branch's other actions in shuffled
    order.  With no example only complexity-reducing moves can still
    improve the posterior, so the simplify actions are tried in shuffled
    order.  The first action with a neighbor gives the proposal; None (a
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
            edits = _edits_add_rule(
                rules, data, xrow, rng, cfg.neighbor_budget, state.bounds, scorer.known
            )
        elif action == "add_condition":
            edits = _growth_moves(current, data, hyper, idx, xrow, rng)
        else:
            edits = _edits_remove_rule(rules)
        if not edits:
            continue
        if len(edits) > cfg.neighbor_budget:
            edits = rng.sample(edits, cfg.neighbor_budget)
        # edits are normalized, so equal tuples are the equal rule sets; equal
        # moves are the equal rule sets, and no move equals a rule tuple.  No
        # edit is the current rule set: each changes the rule count or puts
        # in a rule the set does not hold.
        candidates = list(dict.fromkeys(edits))
        if rng.random() < cfg.explore_prob:
            chosen = rng.choice(candidates)
        else:
            # max() keeps the first of tied candidates
            chosen = max(candidates, key=scorer.posterior)
        return scorer.proposal(chosen, action)
    return None


def _accepts(rng: random.Random, delta: float, temp: float) -> bool:
    """Annealing acceptance: probability min(1, exp(delta / temp))."""
    if delta >= 0:
        return True
    return rng.random() < math.exp(delta / temp)


def anneal_step(
    state: SearchState,
    data: Dataset,
    hyper: Hyperparams,
    cfg: SearchConfig,
    runlog: RunLog | None = None,
) -> SearchState:
    """One Markov-chain step: propose, track best, accept-or-reject."""
    prop = propose(state, sample_misclassified(state, data), data, hyper, cfg)
    if prop is None:
        state.stall_streak += 1
        if runlog is not None:
            runlog.emit(event="stall", chain=state.chain, t=state.t)
        state.t += 1
        return state
    state.stall_streak = 0

    # the best-so-far tracks every evaluated proposal, accepted or not
    if prop.score.log_posterior > state.best.score.log_posterior:
        state.best = prop
        state.bounds = update_bounds(state.bounds, prop.score.log_posterior)
        if runlog is not None:
            runlog.improvement(state)

    delta = prop.score.log_posterior - state.current.score.log_posterior
    if _accepts(state.rng, delta, temperature(cfg, state.t)):
        state.current = prop
    state.t += 1
    return state


def run(
    data: Dataset, hyper: Hyperparams, cfg: SearchConfig
) -> tuple[RuleSet, Score, RunLog]:
    """Best rule set over ``n_restarts + 1`` sequential annealing chains.

    Twenty consecutive stalls (no legal neighbor anywhere) abort a chain
    early and consume the next restart slot.  Deterministic for a fixed
    config, including the JSON-lines RunLog.
    """
    runlog = RunLog()
    rng = random.Random(f"mars-search:{cfg.random_seed}")
    state = init_state(data, hyper, cfg, rng=rng, runlog=runlog)
    for chain in range(cfg.n_restarts + 1):
        if chain:
            state.chain = chain
            _start_chain(data, hyper, rng, state, runlog)
        for _ in range(cfg.n_iter):
            anneal_step(state, data, hyper, cfg, runlog)
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
