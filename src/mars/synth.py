"""Synthetic planted-truth data and the (beta_M, beta_L) trade-off sweep.

Features are i.i.d. uniform on [0, 1); the planted ground truth is a small
set of rules whose conditions are random numeric ranges, and a row is
labeled positive exactly when some planted rule covers it.  The sweep
trains one model per (beta_M, beta_L) grid cell on a 75/25 split and
records hold-out error and model-size metrics per replicate.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .data import RawTable, discretize, encode_with_specs, parse_labels
from .model import RuleSet, first_covering_rule
from .scoring import Hyperparams
from .search import SearchConfig, run

log = logging.getLogger(__name__)

LABEL_COLUMN = "label"


@dataclass(frozen=True)
class SynthSpec:
    n_rows: int = 5000
    n_features: int = 15
    n_rules: int = 3
    max_conditions: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rows < 1 or self.n_features < 1 or self.n_rules < 1:
            raise ValueError("n_rows, n_features and n_rules must be positive")
        if not 1 <= self.max_conditions <= self.n_features:
            raise ValueError("max_conditions must lie in [1, n_features]")


@dataclass(frozen=True)
class SweepSpec:
    beta_grid: tuple[float, ...] = (1.0, 100.0, 10000.0)
    train_fraction: float = 0.75
    replicates: int = 5

    def __post_init__(self) -> None:
        if not self.beta_grid:
            raise ValueError("beta_grid must be non-empty")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.replicates < 1:
            raise ValueError("replicates must be positive")


@dataclass(frozen=True)
class PlantedCondition:
    feature: int
    lo: float
    hi: float


@dataclass(frozen=True)
class PlantedRule:
    """Conjunction of numeric range conditions over raw feature values."""

    conditions: tuple[PlantedCondition, ...]

    def coverage(self, table: np.ndarray) -> np.ndarray:
        hit = np.ones(len(table), dtype=bool)
        for c in self.conditions:
            col = table[:, c.feature]
            hit &= (col >= c.lo) & (col < c.hi)
        return hit


def derived_seed(*parts) -> int:
    """Stable child seed from a master seed and arbitrary tags."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _draw_rule(rng: np.random.Generator, spec: SynthSpec) -> PlantedRule:
    k = int(rng.integers(1, spec.max_conditions + 1))
    feats = rng.choice(spec.n_features, size=k, replace=False)
    conds = []
    for j in feats:
        lo, hi = np.sort(rng.random(2))
        conds.append(PlantedCondition(int(j), float(lo), float(hi)))
    return PlantedRule(tuple(conds))


def generate(spec: SynthSpec) -> tuple[RawTable, tuple[PlantedRule, ...]]:
    """Feature matrix, labels, and the planted ground-truth rules.

    Rules are redrawn (logged) while the planted set covers 0% or 100% of
    the rows, so the labels are never degenerate.
    """
    rng = np.random.default_rng(spec.seed)
    table = rng.random((spec.n_rows, spec.n_features))
    rules = [_draw_rule(rng, spec) for _ in range(spec.n_rules)]
    for _ in range(1000):
        per_rule = [r.coverage(table) for r in rules]
        union = np.logical_or.reduce(per_rule)
        n_cov = int(union.sum())
        if 0 < n_cov < spec.n_rows:
            break
        if n_cov == 0:
            log.info("planted rules cover no rows; redrawing all")
            rules = [_draw_rule(rng, spec) for _ in range(spec.n_rules)]
        else:
            widest = int(np.argmax([c.sum() for c in per_rule]))
            log.info("planted rules cover every row; redrawing rule %d", widest)
            rules[widest] = _draw_rule(rng, spec)
    else:
        raise RuntimeError("could not plant a non-degenerate rule set")

    labels = union.astype(int)
    names = tuple(f"f{j:02d}" for j in range(spec.n_features)) + (LABEL_COLUMN,)
    rows = [tuple(table[i]) + (int(labels[i]),) for i in range(spec.n_rows)]
    return RawTable(names=names, rows=rows, label_column=LABEL_COLUMN), tuple(rules)


@dataclass
class SweepRecord:
    beta_m: float
    beta_l: float
    replicate: int
    holdout_error: float
    n_conditions: int
    n_features: int
    wall_time_s: float
    rules: RuleSet = field(default_factory=RuleSet, repr=False)


def _split_indices(n: int, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.random.default_rng(seed).permutation(n)
    cut = int(round(n * train_fraction))
    return order[:cut], order[cut:]


def _subset(table: RawTable, idx: np.ndarray) -> RawTable:
    return RawTable(
        names=table.names,
        rows=[table.rows[i] for i in idx],
        label_column=table.label_column,
    )


def error_rate(rules: RuleSet, rows: np.ndarray, labels: np.ndarray) -> float:
    preds = first_covering_rule(rules, rows) >= 0
    return float((preds != labels).mean())


def _run_cell(args) -> SweepRecord:
    (table, truth_seed, beta_m, beta_l, replicate, base, cfg, n_bins, train_fraction) = args
    t_start = time.perf_counter()
    train_idx, test_idx = _split_indices(len(table.rows), train_fraction, truth_seed)
    train = discretize(_subset(table, train_idx), n_bins=n_bins)
    hyper = replace(base, beta_m=beta_m, beta_l=beta_l)
    job_cfg = replace(cfg, random_seed=derived_seed(cfg.random_seed, beta_m, beta_l, replicate))
    rules, _, _ = run(train, hyper, job_cfg)

    test = _subset(table, test_idx)
    test_rows = encode_with_specs(test, train.features)
    test_labels = parse_labels(test.columns()[LABEL_COLUMN], LABEL_COLUMN)
    holdout = error_rate(rules, test_rows, test_labels)
    return SweepRecord(
        beta_m=beta_m,
        beta_l=beta_l,
        replicate=replicate,
        holdout_error=holdout,
        n_conditions=rules.n_values,
        n_features=rules.n_features,
        wall_time_s=time.perf_counter() - t_start,
        rules=rules,
    )


def sweep(
    spec: SynthSpec,
    grid: SweepSpec,
    base_hyper: Hyperparams,
    cfg: SearchConfig,
    n_bins: int = 10,
    jobs: int = 1,
) -> list[SweepRecord]:
    """All (beta_M, beta_L) cells x replicates; one trained model each.

    Replicate r reuses one generated dataset across every cell so cells
    are comparable.  The reported ``n_conditions`` is the total value
    count of the model (the sum of |V| over all conditions).
    """
    tasks = []
    for replicate in range(grid.replicates):
        data_seed = derived_seed(spec.seed, "dataset", replicate)
        table, _ = generate(replace(spec, seed=data_seed))
        for beta_m in grid.beta_grid:
            for beta_l in grid.beta_grid:
                tasks.append(
                    (table, data_seed, beta_m, beta_l, replicate, base_hyper, cfg,
                     n_bins, grid.train_fraction)
                )
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_cell, tasks))
    else:
        records = [_run_cell(t) for t in tasks]
    records.sort(key=lambda r: (r.beta_m, r.beta_l, r.replicate))
    return records


def cell_means(records: list[SweepRecord]) -> dict[tuple[float, float], dict[str, float]]:
    """Per-(beta_M, beta_L) averages over replicates."""
    cells: dict[tuple[float, float], list[SweepRecord]] = {}
    for r in records:
        cells.setdefault((r.beta_m, r.beta_l), []).append(r)
    return {
        key: {
            "holdout_error": float(np.mean([r.holdout_error for r in rs])),
            "n_conditions": float(np.mean([r.n_conditions for r in rs])),
            "n_features": float(np.mean([r.n_features for r in rs])),
        }
        for key, rs in cells.items()
    }


def write_metrics_csv(path, records: list[SweepRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["beta_M", "beta_L", "replicate", "holdout_error", "n_conditions",
             "n_features", "wall_time_s"]
        )
        for r in records:
            writer.writerow(
                [r.beta_m, r.beta_l, r.replicate, f"{r.holdout_error:.6f}",
                 r.n_conditions, r.n_features, f"{r.wall_time_s:.3f}"]
            )


def write_table_csv(path, table: RawTable) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        for row in table.rows:
            writer.writerow([f"{c:.9f}" if isinstance(c, float) else c for c in row])
