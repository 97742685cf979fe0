"""Rule and rule-set algebra for multi-value rule classifiers.

A condition pairs one feature with a set of interchangeable values and is
satisfied when the observation's value is in that set.  A rule is a
conjunction of conditions, at most one per feature.  A rule set classifies
an observation as positive when at least one of its rules covers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

# a rule as the (feature, sorted values) pairs of its conditions, in feature
# order: the form the search edits rules in
Pairs = tuple[tuple[int, tuple[int, ...]], ...]

# the counts that measure a rule set's size, as RuleSet names them: rules,
# conditions, values (the sum of |V| over conditions) and distinct features;
# the runlog, the CLI and the sweep report these, in this order
SIZES = ("n_rules", "n_conditions", "n_values", "n_features")


@dataclass(frozen=True)
class Condition:
    """One feature paired with the set of value indices it accepts."""

    feature_id: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(sorted(set(self.values)))
        if not vals:
            raise ValueError(f"condition on feature {self.feature_id} has no values")
        if vals[0] < 0:
            raise ValueError(f"negative value index in condition on feature {self.feature_id}")
        object.__setattr__(self, "values", vals)

    @property
    def n_values(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Rule:
    """Conjunction of conditions, canonically sorted, one per feature."""

    conditions: tuple[Condition, ...]

    def __post_init__(self) -> None:
        conds = tuple(sorted(self.conditions, key=lambda c: c.feature_id))
        if not conds:
            raise ValueError("a rule needs at least one condition")
        feats = [c.feature_id for c in conds]
        if len(set(feats)) != len(feats):
            raise ValueError("duplicate feature in rule; merge value sets first")
        object.__setattr__(self, "conditions", conds)

    @classmethod
    def of(cls, conditions: Mapping[int, Iterable[int]]) -> "Rule":
        """Build from ``{feature_id: values}``; merges nothing, just sugar."""
        return cls(tuple(Condition(j, tuple(vs)) for j, vs in conditions.items()))

    @property
    def features(self) -> tuple[int, ...]:
        return tuple(c.feature_id for c in self.conditions)

    @property
    def pairs(self) -> Pairs:
        return tuple((c.feature_id, c.values) for c in self.conditions)

    @property
    def n_items(self) -> int:
        """Total number of (feature, value) items; the rule's length."""
        return sum(c.n_values for c in self.conditions)


@dataclass(frozen=True)
class RuleSet:
    """Rules in order.  Which rows the set classifies positive does not
    depend on that order, but equality, the model file and the index of the
    first covering rule do."""

    rules: tuple[Rule, ...] = ()

    @property
    def n_rules(self) -> int:
        return len(self.rules)

    @property
    def n_conditions(self) -> int:
        return sum(len(r.conditions) for r in self.rules)

    @property
    def n_values(self) -> int:
        """Total value count across all conditions (sum of |V| per condition)."""
        return sum(r.n_items for r in self.rules)

    @property
    def feature_ids(self) -> frozenset[int]:
        return frozenset(j for r in self.rules for j in r.features)

    @property
    def n_features(self) -> int:
        return len(self.feature_ids)

    def sizes(self) -> dict[str, int]:
        """The rule set's size as ``{name: count}`` for each name in ``SIZES``,
        in that order."""
        return {name: getattr(self, name) for name in SIZES}


def first_covering_rule(ruleset: RuleSet, rows: np.ndarray) -> np.ndarray:
    """Per row of an encoded (N, n_features) matrix, the index of the first
    rule that covers it, or -1 when none does.

    A row is classified positive exactly when its entry is >= 0, so the
    empty rule set predicts every row negative.  Value indices of -1 match
    no condition.
    """
    hit = np.full(rows.shape[0], -1, dtype=np.intp)
    # later rules first, so an earlier covering rule overwrites a later one
    for k in range(len(ruleset.rules) - 1, -1, -1):
        covered = np.ones(rows.shape[0], dtype=bool)
        for cond in ruleset.rules[k].conditions:
            covered &= np.isin(rows[:, cond.feature_id], cond.values)
        hit[covered] = k
    return hit


def normalize(ruleset: RuleSet, vocab_sizes: Sequence[int]) -> RuleSet:
    """Canonicalize a rule set.

    Conditions that grew to a feature's full vocabulary are always true and
    are deleted; rules emptied that way are dropped (a tautological rule
    would make the classifier constant-positive); duplicate rules are
    deduplicated, keeping first occurrence order.
    """
    out: list[Rule] = []
    for rule in ruleset.rules:
        kept = []
        for cond in rule.conditions:
            vocab = vocab_sizes[cond.feature_id]
            if cond.values[-1] >= vocab:
                raise ValueError(
                    f"condition on feature {cond.feature_id} indexes past its vocabulary"
                )
            if cond.n_values < vocab:
                kept.append(cond)
        if kept:
            out.append(Rule(tuple(kept)))
    return RuleSet(tuple(dict.fromkeys(out)))


def is_normalized(ruleset: RuleSet, vocab_sizes: Sequence[int]) -> bool:
    """True when ``normalize`` would return the rule set unchanged."""
    return normalize(ruleset, vocab_sizes) == ruleset
