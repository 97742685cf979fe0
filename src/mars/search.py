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

Every chain, chain 0 and each restart alike, starts in ``_start_chain``
from one to three random rules that ``random_ruleset`` draws, each of one
to three random features with a random proper subset of its vocabulary.
The start is the best when it is chain 0's or beats the best so far.

Inside the search, chain starts included, a rule has one form, the
(feature, sorted values) pairs of its conditions in feature order
(``model.Pairs``); a proposal keeps its rules as a tuple of them, and
builds a ``RuleSet`` only when a new best is logged or returned.  Every
neighbor is a one-rule change of the current ``Proposal``: rule ``mi``
replaced, deleted, or, at ``mi`` equal to the rule count, a rule appended,
and ``Proposal.of`` appends a start's rules one edit at a time.
``Proposal.edit`` takes the new rule's pairs, gets its mask from
``data.rule_mask``, the one rule-mask builder, and resolves a new rule
equal to another current rule as ``normalize`` does, so every edit makes
a normalized rule set, and equal edits make equal rule sets.

A neighbor, a candidate, is plain data that holds no proposal: an edit
``(mi, pairs, k, mask)`` or a growth ``(table, feature, x)``.  Only the
current proposal looks inside one: ``posterior_of``, the one scorer,
scores either kind, and ``apply`` applies it, so the step loop treats
every candidate alike.  An edit is scored and applied from the same
pieces: one ``_splice`` puts the new rule's entry into the entries, and
its pairs into the rules, ``scoring.prior_of_entries`` sums the entries'
prior, and ``scoring.log_likelihood`` scores the confusion counted from
the other rules' cached union OR the new rule's mask.  ``scoring.score``
calls the same two functions, so an edit's posterior is the float it gives
the rule set the edit makes.  Add-condition moves are growths, scored from
counts instead, so that a step scores its narrowings without building a
mask for each: a rule's ``_GrowthTable`` packs, per (feature, value), the
value's bit and the positive and negative rows among those the rule alone
covers into one int, so a value set is the sum ``x`` of its values' ints
and carries its counts; its prior comes from ``prior_of_entries``.  A
growth's score is read from its table's ``scores``, and the table's
``score`` computes only the ones missing there.  A table follows from
the rules alone, so it is built whole, once per chain, for each (rules,
rule index) a step narrows, and kept in the chain's growth memo, where a
rule set the chain comes back to finds it.  The proposal applies a growth
as the edit it makes, its values decoded from ``x``.

The search draws its value sets and its samples with two samplers of its
own, ``_ValueSets.pick`` and ``_sample``, each a partial Fisher–Yates
shuffle on ``getrandbits``; its other integers come from ``Random``'s
``randrange``, ``randint``, ``choice`` and ``shuffle``, and only the
explore and acceptance coin flips call ``Random.random``.  A value set of
an n-value vocabulary has a size uniform over 1..n-1, and its values are a
uniform subset of that size; ``pick`` returns the sum of the entries of
the values it draws, packed ints for a growth and one-hot ints for a chain
start's rules.  A test pins both samplers, draw for draw, to a reference
partial shuffle.

A chain's state is two proposals, the current one and the best one: a
proposal carries its rules, its ``Score`` (with its ``Confusion``), its
rules' entries, its coverage mask and its chain's growth memo, so
accepting a move is replacing the current proposal.  Each chain starts
with an empty memo, so one run keeps at most one chain's tables at a time
beside the best's.  The state also owns the run's RNG, which
``init_state`` seeds from ``cfg.random_seed`` and every chain draws from,
the config, and its runlog, which every chain writes to; the step
functions take the state alone.

The chain keeps few of its steps, so a step builds a ``Proposal`` only for
a move it keeps.  ``propose`` returns a ``Pick``: the chosen candidate, its
action and its posterior, the very float it was ranked by.  An exploit
pick is the first candidate, in the order the action listed them, that
reaches the highest posterior, the one ``max()`` would return.  The step
compares that float with the best and current posteriors, and the current
proposal applies the pick's candidate once when it is a new best or
accepted; a rejected step builds nothing.  A proposal also lists its
misclassified rows once, the first time a step samples an example from
it, and serves that list to every later step until a move is accepted.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

from .bounds import BoundState, initial_bounds, update_bounds
from .data import Dataset, indices, rule_mask
from .errors import DegenerateLabelError
from .model import Condition, Pairs, Rule, RuleSet
from .scoring import (
    Hyperparams,
    RuleEntry,
    Score,
    confusion_from_mask,
    log_likelihood,
    prior_of_entries,
    prior_terms_from_counts,
)

# not called here; kept importable from this module for per-layer tracing
from .data import kth_set_bit  # noqa: F401
from .model import is_normalized, normalize  # noqa: F401
from .scoring import log_prior, update_confusion  # noqa: F401

POSITIVE_ACTIONS = ("add_value", "remove_condition", "add_rule")
NEGATIVE_ACTIONS = ("add_condition", "remove_rule")
SIMPLIFY_ACTIONS = ("remove_condition", "remove_rule")

STALL_RESTART_AFTER = 20

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

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())


def _splice(seq: tuple, mi: int, new, k: int | None) -> tuple:
    """``seq`` with item ``mi`` replaced by ``new``: None deletes it, and
    ``mi == len(seq)`` appends ``new``.  ``k``, when not None, is a later
    item equal to ``new``, which is dropped."""
    if new is None:
        return seq[:mi] + seq[mi + 1 :]
    if k is None:
        return seq[:mi] + (new,) + seq[mi + 1 :]
    return seq[:mi] + (new,) + seq[mi + 1 : k] + seq[k + 1 :]


@dataclass(eq=False)
class Proposal:
    """A rule set scored on ``data`` under ``hyper``.  ``keys`` holds each
    of its rules as its (feature, values) pairs, the one form the search
    keeps rules in, and ``index`` each rule's index by its pairs;
    ``entries`` holds the entry of each rule, in rule order, and
    ``union_mask`` the rows they cover.  The ``score`` is computed from
    those here.  ``rules`` builds the ``RuleSet`` once, when first read:
    only a new best's ``improve`` record and ``run``'s result read it.
    ``misclassified`` lists the rows it misclassifies, in ascending order,
    when a step first samples an example from it.  ``memo`` is its chain's
    growth memo, which every proposal applied from this one shares, and
    ``growth`` the memo's growth tables of these rules, by rule index: a
    chain that comes back to a rule set finds them there.  A proposal
    scores a candidate, a one-rule change of it, with ``posterior_of`` and
    applies it with ``apply``, the only two methods that look inside a
    candidate.  A proposal compares by identity."""

    keys: tuple[Pairs, ...]
    entries: tuple[RuleEntry, ...]
    union_mask: int
    data: Dataset = field(repr=False)
    hyper: Hyperparams = field(repr=False)
    score: Score = field(init=False)
    memo: dict[tuple[Pairs, ...], dict[int, _GrowthTable]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        conf = confusion_from_mask(self.union_mask, self.data)
        self.score = Score.of(
            prior_of_entries(self.entries, self.hyper),
            log_likelihood(conf.tp, conf.fp, conf.tn, conf.fn, self.hyper),
            conf,
        )
        self.index = {key: k for k, key in enumerate(self.keys)}
        self._others: dict[int, int] = {}
        self.growth = self.memo.setdefault(self.keys, {})

    @classmethod
    def of(cls, keys: Sequence[Pairs], data: Dataset, hyper: Hyperparams) -> Proposal:
        """The proposal of the rules ``keys``, each its (feature, sorted
        values) pairs in feature order, none holding a whole vocabulary: the
        empty proposal with each rule appended in turn by ``edit``, which
        drops a rule equal to an earlier one, as ``normalize`` does, in a
        growth memo of its own."""
        prop = cls((), (), 0, data, hyper)
        for pairs in keys:
            prop = prop.apply(prop.edit(len(prop.keys), pairs))
        return prop

    @cached_property
    def misclassified(self) -> list[int]:
        return indices(self.union_mask ^ self.data.pos_mask)

    @cached_property
    def rules(self) -> RuleSet:
        return RuleSet(
            tuple(Rule(tuple(Condition(j, values) for j, values in key)) for key in self.keys)
        )

    def others(self, mi: int) -> int:
        """The rows every rule but rule ``mi`` covers (all of them, for
        ``mi`` equal to the rule count); computed once per index."""
        mask = self._others.get(mi)
        if mask is None:
            mask = 0
            for k, entry in enumerate(self.entries):
                if k != mi:
                    mask |= entry[0]
            self._others[mi] = mask
        return mask

    def edit(self, mi: int, pairs: Pairs | None) -> _Edit:
        """The edit putting the rule ``pairs`` at index ``mi``, its rows
        from ``rule_mask``: None deletes rule ``mi``, and ``mi`` equal to
        the rule count appends.

        A new rule equal to another rule ``k`` is resolved as ``normalize``
        resolves duplicates, keeping the first copy.  When ``k`` comes
        before ``mi``, or right after it, what is left is rule ``mi``
        deleted, and the edit is that deletion; otherwise the edit drops
        the later copy at ``k``."""
        k = None if pairs is None else self.index.get(pairs)
        if k is not None and (k < mi or k == mi + 1):
            pairs = k = None
        mask = 0 if pairs is None else rule_mask(pairs, self.data)
        return _Edit(mi, pairs, k, mask)

    def _entry(self, edit: _Edit) -> RuleEntry | None:
        if edit.pairs is None:
            return None
        counts = [(j, len(values)) for j, values in edit.pairs]
        return (edit.mask, *prior_terms_from_counts(counts, self.hyper))

    def posterior_of(self, c: Candidate) -> float:
        """The posterior of the rule set candidate ``c`` makes of this one."""
        if c.__class__ is tuple:
            table, feature, x = c
            score = table.scores[feature].get(x)
            return table.score(feature, x) if score is None else score
        data, hyper = self.data, self.hyper
        prior = prior_of_entries(_splice(self.entries, c.mi, self._entry(c), c.k), hyper)
        union = self.others(c.mi) | c.mask
        tp = (union & data.pos_mask).bit_count()
        fp = union.bit_count() - tp
        return prior + log_likelihood(tp, fp, data.n_neg - fp, data.n_pos - tp, hyper)

    def apply(self, c: Candidate) -> Proposal:
        """The rule set candidate ``c`` makes of this one, scored.  A growth
        is applied as the edit it makes, its values decoded from its sum."""
        if c.__class__ is tuple:
            table, feature, x = c
            values = _values(x, self.data.vocab_sizes[feature])
            c = self.edit(table.mi, tuple(sorted([*table.key, (feature, values)])))
        mi, k = c.mi, c.k
        return Proposal(
            _splice(self.keys, mi, c.pairs, k),
            _splice(self.entries, mi, self._entry(c), k),
            self.others(mi) | c.mask,
            self.data,
            self.hyper,
            memo=self.memo,
        )


class _Edit(NamedTuple):
    """A one-rule edit of a proposal, built by ``Proposal.edit``: rule
    ``mi`` replaced by the rule ``pairs`` gives, which covers the rows of
    ``mask`` (None and 0 delete rule ``mi``), with the later copy at ``k``
    dropped when ``k`` is not None.  It holds no proposal: the one it was
    built from scores and applies it.  Edits of one proposal are equal when
    they make the same rule set, that is when their ``(mi, pairs, k)`` are
    equal; the mask follows from those."""

    mi: int
    pairs: Pairs | None
    k: int | None
    mask: int


@dataclass
class SearchState:
    """Mutable state of one annealing chain: the current proposal, the best
    one seen in any chain so far, and the pruning bounds, with the RNG
    every chain of the run draws from, the run's config and the runlog
    every chain writes.  The data and hyperparameters are the current
    proposal's."""

    current: Proposal
    best: Proposal
    bounds: BoundState
    rng: random.Random
    cfg: SearchConfig
    t: int = 0
    chain: int = 0
    stall_streak: int = 0
    runlog: RunLog = field(default_factory=RunLog)


class _GrowthTable:
    """Scores every narrowing of rule ``mi`` of a rule set by one new
    condition, from counts instead of masks.  It follows from the rules
    alone: a chain builds it once, when a step first narrows rule ``mi`` of
    those rules, and keeps it in its growth memo.

    Narrowing rule ``mi`` changes only which of the rows it alone covers
    stay covered.  So ``free`` lists, per free feature ``j`` (one the rule
    lacks, of two values or more), its vocabulary size ``lo``, one packed
    int per value ``v``, ``pos << hi | neg << lo | 1 << v``, and their sum:
    pos and neg count the positive and negative rows of the value's mask in
    ``Dataset.value_masks`` among the rows the rule alone covers, and ``hi``
    is ``lo`` plus the row count's bit length, so no field of a sum of
    entries carries into the next.  A value set is the sum ``x`` of its
    values' entries, which ``pick`` draws: the low field holds its values
    as bits, the others its counts.  A move's confusion is the counts
    ``tp`` and ``fp`` the other rules cover plus those, and its prior is
    ``prior_of_entries`` of the rules' ``entries`` with the grown rule's
    terms, from its (feature, value count) pairs, spliced in at ``mi``.  So
    a move's score equals that of the rule set it makes exactly.  ``score``
    computes one and keeps it in ``scores`` (one dict per feature, keyed by
    ``x``), which ``Proposal.posterior_of`` reads first, and its prior in
    ``priors``.  ``collisions`` maps a ``(feature, x)`` whose grown rule is
    another of the rules to that rule's pairs.  The table holds no
    proposal, and reads the entries for their prior terms only.
    """

    def __init__(self, prop: Proposal, mi: int) -> None:
        data = self.data = prop.data
        self.mi, self.key, self.entries, self.hyper = mi, prop.keys[mi], prop.entries, prop.hyper
        others = prop.others(mi)
        self.tp = (others & data.pos_mask).bit_count()
        self.fp = others.bit_count() - self.tp
        width = data.n_rows.bit_length()
        used = {j for j, _ in self.key}
        # the rows rule mi alone covers
        only = prop.entries[mi][0] & ~others
        pos_only = only & data.pos_mask
        self.free = []
        for j, masks in enumerate(data.value_masks):
            lo = len(masks)
            if lo < 2 or j in used:
                continue
            hi = lo + width
            packed = []
            for v, m in enumerate(masks):
                pos = (pos_only & m).bit_count()
                packed.append(pos << hi | ((only & m).bit_count() - pos) << lo | 1 << v)
            self.free.append((j, lo, packed, sum(packed)))
        self.pick = _ValueSets(max((lo for _, lo, _, _ in self.free), default=0)).pick
        self.priors: dict[tuple[int, int], float] = {}
        self.scores: list[dict[int, float]] = [{} for _ in data.vocab_sizes]
        self.collisions: dict[tuple[int, int], Pairs] = {}
        for other in prop.keys:
            extra = set(other).difference(self.key)
            if len(extra) == 1 and len(other) == len(self.key) + 1:
                ((j, values),) = extra
                packed = next(p for f, _, p, _ in self.free if f == j)
                self.collisions[j, sum(packed[v] for v in values)] = other

    def score(self, feature: int, x: int) -> float:
        """The posterior of the growth ``(self, feature, x)``, kept in ``scores``."""
        data, hyper = self.data, self.hyper
        lo, width = data.vocab_sizes[feature], data.n_rows.bit_length()
        n_values = (x & (1 << lo) - 1).bit_count()
        prior = self.priors.get((feature, n_values))
        if prior is None:
            # the grown rule's pairs in feature order, as Rule sorts them
            grown = sorted([*((j, len(values)) for j, values in self.key), (feature, n_values)])
            entry = (0, *prior_terms_from_counts(grown, hyper))
            prior = self.priors[feature, n_values] = prior_of_entries(
                _splice(self.entries, self.mi, entry, None), hyper
            )
        tp = self.tp + (x >> lo + width)
        fp = self.fp + (x >> lo & (1 << width) - 1)
        score = self.scores[feature][x] = prior + log_likelihood(
            tp, fp, data.n_neg - fp, data.n_pos - tp, hyper
        )
        return score


def _values(x: int, vocab: int) -> tuple[int, ...]:
    """The values whose bits the low ``vocab`` bits of ``x`` hold, ascending."""
    return tuple(v for v in range(vocab) if x >> v & 1)


# an edit, or a growth (table, feature, x) as ``_growth_moves`` builds it
Candidate = _Edit | tuple


class Pick(NamedTuple):
    """The candidate ``propose`` chose through ``action``, with its
    posterior as the current proposal's ``posterior_of`` gave it: the
    ``log_posterior`` of the proposal that the current one makes when it
    applies the candidate."""

    candidate: Candidate
    action: str
    log_posterior: float


def _sample(getrandbits, population: Sequence, k: int) -> list:
    """``k`` distinct items of ``population``, 0 <= k <= len(population), in
    the order drawn: a partial Fisher–Yates shuffle of a copy, which draws
    each index uniformly below the pool's size by rejection on
    ``getrandbits`` and moves the pool's last item into the drawn slot."""
    n = len(population)
    pool = list(population)
    result = []
    for m in range(n, n - k, -1):
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        result.append(pool[j])
        pool[j] = pool[m - 1]
    return result


class _ValueSets:
    """Draws random proper value sets of vocabularies of up to ``size``
    values, reading each index draw's bit length from ``index_bits``: at
    each i the bit length of a draw of an index in 0..i,
    ``(i + 1).bit_length()``."""

    __slots__ = ("index_bits",)

    def __init__(self, size: int) -> None:
        self.index_bits = [(i + 1).bit_length() for i in range(size)]

    def pick(self, getrandbits, entries: list[int], n: int) -> int:
        """The sum of the entries of a random proper value set of an
        ``n``-value vocabulary, n >= 2, whose value v has the entry
        ``entries[v]``: its size uniform over 1..n-1, its values a uniform
        subset of that size, drawn as ``_sample`` draws them.  The partial
        shuffle adds each drawn entry to the sum and moves the pool's last
        entry into its slot."""
        index_bits = self.index_bits
        last = n - 1
        # the set's size less one, uniform over 0..n-2
        bits = index_bits[n - 2]
        k = getrandbits(bits)
        while k >= last:
            k = getrandbits(bits)
        pool = entries[:n]
        total = 0
        for m in range(last, last - k - 1, -1):
            # an index uniform over 0..m
            bits = index_bits[m]
            j = getrandbits(bits)
            while j > m:
                j = getrandbits(bits)
            total += pool[j]
            pool[j] = pool[m]
        return total


def random_ruleset(data: Dataset, rng: random.Random) -> list[Pairs]:
    """1-3 random rules of 1-3 conditions with random proper value sets,
    each as its (feature, sorted values) pairs in feature order.  A rule may
    repeat an earlier one, which ``Proposal.of`` drops."""
    eligible = [j for j, v in enumerate(data.vocab_sizes) if v >= 2]
    if not eligible:
        raise ValueError("no feature has at least two values; nothing to search")
    bits = rng.getrandbits
    # one-hot entries: a picked set's sum holds its values as bits
    one_hot = [1 << v for v in range(max(data.vocab_sizes))]
    pick = _ValueSets(len(one_hot)).pick
    keys = []
    for _ in range(rng.randint(1, 3)):
        conds = []
        for j in _sample(bits, eligible, rng.randint(1, min(3, len(eligible)))):
            vocab = data.vocab_sizes[j]
            conds.append((j, _values(pick(bits, one_hot, vocab), vocab)))
        conds.sort()  # by feature: the features are distinct
        keys.append(tuple(conds))
    return keys


def _record_best(state: SearchState, prop: Proposal) -> None:
    """Make ``prop`` the best: the bounds take its posterior, and the runlog
    gets an ``improve`` record of it."""
    posterior = prop.score.log_posterior
    state.best, state.bounds = prop, update_bounds(state.bounds, posterior)
    state.runlog.emit(event="improve", chain=state.chain, t=state.t, log_posterior=posterior,
                      **prop.rules.sizes(), min_support=state.bounds.min_support,
                      m_cap=state.bounds.m_cap)


def _start_chain(state: SearchState) -> SearchState:
    """Make a random rule set the current state of chain ``state.chain``,
    at t = 0, drawn from the state's RNG on its current proposal's data.
    The runlog gets the chain's ``chain_start`` record; the start is then
    recorded as the best when it is chain 0's or beats the best."""
    data, hyper = state.current.data, state.current.hyper
    start = Proposal.of(random_ruleset(data, state.rng), data, hyper)
    state.current, state.t, state.stall_streak = start, 0, 0
    posterior = start.score.log_posterior
    state.runlog.emit(event="chain_start", chain=state.chain, log_posterior=posterior)
    if not state.chain or posterior > state.best.score.log_posterior:
        _record_best(state, start)
    return state


def init_state(data: Dataset, hyper: Hyperparams, cfg: SearchConfig) -> SearchState:
    """Chain 0's state, started by ``_start_chain`` as every restart is.
    The state owns the run's RNG, seeded from ``cfg.random_seed``, its
    config and its runlog, and starts from the initial bounds; the empty
    rule set stands in as current and best until chain 0's start replaces
    both."""
    hyper.check_features(data.n_features)
    if data.n_pos == 0 or data.n_neg == 0:
        raise DegenerateLabelError("training data needs both positive and negative examples")
    empty = Proposal((), (), 0, data, hyper)
    rng = random.Random(f"mars-search:{cfg.random_seed}")
    return _start_chain(SearchState(empty, empty, initial_bounds(data, hyper), rng, cfg))


def sample_misclassified(state: SearchState) -> tuple[int, bool] | None:
    """Uniform draw from the rows the current rule set misclassifies.

    Returns (row_index, label) or None when training accuracy is 1.0.
    The current proposal's ``misclassified`` lists those rows, covered XOR
    positive, once, and ``rng.choice`` draws the row from it.
    """
    current = state.current
    rows = current.misclassified
    if not rows:
        return None
    idx = state.rng.choice(rows)
    return idx, bool(current.data.labels[idx])


# ---------------------------------------------------------------------------
# neighbor generation: each neighbor is a one-rule edit of the proposal
# ---------------------------------------------------------------------------

def _edits_add_value(prop: Proposal, xrow) -> list[_Edit]:
    """Grow each condition that rejects the example by the example's value.

    ``propose`` passes only false negatives: no rule covers the example, so
    every rule has a condition that rejects it and gives at least one edit."""
    vocab_sizes = prop.data.vocab_sizes
    edits = []
    for mi, key in enumerate(prop.keys):
        for ci, (j, values) in enumerate(key):
            v = xrow[j]
            if v in values:
                continue
            if len(values) + 1 < vocab_sizes[j]:
                grown = key[:ci] + ((j, tuple(sorted((*values, v)))),) + key[ci + 1 :]
            else:
                # the full vocabulary is always true: the condition goes,
                # and the rule with it when it was the only one
                grown = key[:ci] + key[ci + 1 :] or None
            edits.append(prop.edit(mi, grown))
    return edits


def _edits_remove_condition(prop: Proposal) -> list[_Edit]:
    # deleting the lone condition deletes the rule
    return [
        prop.edit(mi, key[:ci] + key[ci + 1 :] or None)
        for mi, key in enumerate(prop.keys)
        for ci in range(len(key))
    ]


def _seed_moves(
    current: Proposal, xrow, rng: random.Random, budget: int, bounds: BoundState
) -> list[_Edit]:
    """Up to ``budget`` new rules seeded from the example, as edits that
    append them: each condition holds the example's value and a sample of
    the spare ones.  A seed equal to an earlier seed or a current rule is
    skipped, and one covering fewer rows than the support floor is not
    admitted; the rule-count cap gates the action entirely."""
    n_rules = len(current.keys)
    if bounds.m_cap is not None and n_rules >= bounds.m_cap:
        return []
    vocab_sizes = current.data.vocab_sizes
    eligible = [j for j, v in enumerate(vocab_sizes) if v >= 2]
    seen = set(current.index)
    seeds: list[_Edit] = []
    max_feats = min(3, len(eligible))
    bits = rng.getrandbits
    attempts = 0
    while len(seeds) < budget and attempts < 3 * budget:
        attempts += 1
        conds = []
        for j in _sample(bits, eligible, rng.randint(1, max_feats)):
            # the example's value, and a sample of the vocabulary's others
            v, vocab = xrow[j], vocab_sizes[j]
            values = _sample(bits, [*range(v), *range(v + 1, vocab)], rng.randrange(vocab - 1))
            values.append(v)
            values.sort()
            conds.append((j, tuple(values)))
        conds.sort()  # by feature: the features are distinct
        key = tuple(conds)
        if key in seen:
            continue
        seen.add(key)
        seed = current.edit(n_rules, key)
        if seed.mask.bit_count() >= bounds.min_support:
            seeds.append(seed)
    return seeds


def _growth_moves(current: Proposal, idx: int, xrow, rng: random.Random) -> list[Candidate]:
    """Narrow each rule covering example ``idx`` by one condition on a
    feature it lacks: the vocabulary minus the example's value (excluding
    it at the smallest possible coverage loss) and two random value sets.
    A move is the growth ``(table, feature, x)``: rule ``table.mi``, whose
    growth table it is, narrowed by the condition ``feature`` in the value
    set whose packed entries sum to ``x``.  A move whose grown rule is
    another current rule comes as the edit it makes."""
    moves: list[Candidate] = []
    bit = 1 << idx
    bits = rng.getrandbits
    for mi, entry in enumerate(current.entries):
        if not entry[0] & bit:
            continue  # only rules that cover the sampled negative example
        table = current.growth.get(mi)
        if table is None:
            table = current.growth[mi] = _GrowthTable(current, mi)
        collisions, pick = table.collisions, table.pick
        for j, vocab, packed, total in table.free:
            # the vocabulary minus the example's value, then two random sets
            without = total - packed[xrow[j]]
            for x in (without, pick(bits, packed, vocab), pick(bits, packed, vocab)):
                other = collisions.get((j, x)) if collisions else None
                moves.append((table, j, x) if other is None else current.edit(mi, other))
    return moves


def _edits_remove_rule(prop: Proposal) -> list[_Edit]:
    return [prop.edit(mi, None) for mi in range(len(prop.keys))]


# ---------------------------------------------------------------------------
# proposal selection
# ---------------------------------------------------------------------------

def propose(state: SearchState, example: tuple[int, bool] | None) -> Pick | None:
    """One pick for a sampled misclassified example, or for None when
    training accuracy is 1.0.

    A labelled example draws its first action uniformly from the branch
    matching its label, then tries the branch's other actions in shuffled
    order.  With no example only complexity-reducing moves can still
    improve the posterior, so the simplify actions are tried in shuffled
    order.  The first action with a neighbor gives the pick; None (a
    stall) is returned when none has any.  The pick is a uniform random
    candidate with probability ``explore_prob``, else the first candidate
    of the highest posterior.  The current proposal's ``posterior_of``
    scores every candidate, edit or growth alike: ``propose`` never looks
    inside one.
    """
    rng, cfg, current = state.rng, state.cfg, state.current
    if example is None:
        order = list(SIMPLIFY_ACTIONS)
        rng.shuffle(order)
    else:
        idx, is_positive = example
        xrow = current.data.rows[idx].tolist()  # its value codes as ints
        actions = list(POSITIVE_ACTIONS if is_positive else NEGATIVE_ACTIONS)
        first = actions.pop(rng.randrange(len(actions)))
        rng.shuffle(actions)
        order = [first, *actions]
    for action in order:
        if action == "add_value":
            edits = _edits_add_value(current, xrow)
        elif action == "remove_condition":
            edits = _edits_remove_condition(current)
        elif action == "add_rule":
            edits = _seed_moves(current, xrow, rng, cfg.neighbor_budget, state.bounds)
        elif action == "add_condition":
            edits = _growth_moves(current, idx, xrow, rng)
        else:
            edits = _edits_remove_rule(current)
        if not edits:
            continue
        if len(edits) > cfg.neighbor_budget:
            edits = _sample(rng.getrandbits, edits, cfg.neighbor_budget)
        # No candidate is the current rule set: each changes the rule count
        # or puts in a rule the set does not hold.
        if rng.random() < cfg.explore_prob:
            # equal edits are the equal rule sets, and so are equal growths;
            # no growth equals an edit (a growth that makes another current
            # rule comes as an edit)
            candidates = list(dict.fromkeys(edits))
            chosen = rng.choice(candidates)
            return Pick(chosen, action, current.posterior_of(chosen))
        # the first candidate of the highest posterior, as max() picks: a
        # copy comes after its first, so the copies need not be dropped
        chosen, posterior = None, -math.inf
        posterior_of = current.posterior_of
        for c in edits:
            score = posterior_of(c)
            if score > posterior or chosen is None:
                chosen, posterior = c, score
        return Pick(chosen, action, posterior)
    return None


def _accepts(rng: random.Random, delta: float, temp: float) -> bool:
    """Annealing acceptance: probability min(1, exp(delta / temp))."""
    if delta >= 0:
        return True
    return rng.random() < math.exp(delta / temp)


def anneal_step(state: SearchState) -> SearchState:
    """One Markov-chain step: propose, track best, accept-or-reject.  The
    pick becomes a ``Proposal`` only when it is a new best or accepted.
    Stalls and new bests go to ``state.runlog``."""
    pick = propose(state, sample_misclassified(state))
    if pick is None:
        state.stall_streak += 1
        state.runlog.emit(event="stall", chain=state.chain, t=state.t)
        state.t += 1
        return state
    state.stall_streak = 0

    # the best-so-far tracks every pick, accepted or not
    improved = pick.log_posterior > state.best.score.log_posterior
    delta = pick.log_posterior - state.current.score.log_posterior
    # an uphill pick is accepted without reading the schedule
    accepted = delta >= 0 or _accepts(state.rng, delta, temperature(state.cfg, state.t))
    if improved or accepted:
        prop = state.current.apply(pick.candidate)
        if improved:
            _record_best(state, prop)
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
            _start_chain(state)
        for _ in range(cfg.n_iter):
            anneal_step(state)
            if state.stall_streak >= STALL_RESTART_AFTER:
                runlog.emit(event="stall_restart", chain=chain, t=state.t)
                break
    best = state.best
    runlog.emit(
        event="done",
        log_posterior=best.score.log_posterior,
        **best.rules.sizes(),
        **asdict(best.score.confusion),
    )
    return best.rules, best.score, runlog
