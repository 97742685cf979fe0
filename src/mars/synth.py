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
from dataclasses import dataclass, replace

import numpy as np

from .data import N_BINS, SCHEMES, RawTable, discretize, encode_with_specs, parse_labels
from .errors import DegenerateLabelError, MarsError
from .model import SIZES, RuleSet, first_covering_rule
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
        if self.n_features < 1 or self.n_rules < 1:
            raise ValueError("n_features and n_rules must be positive")
        if self.n_rows < 2:
            # a lone row cannot carry both labels
            raise ValueError(f"n_rows must be at least 2, got {self.n_rows}")
        if not 1 <= self.max_conditions <= self.n_features:
            raise ValueError("max_conditions must lie in [1, n_features]")


# share of a sweep table's rows that go to training; the rest are the holdout
TRAIN_FRACTION = 0.75


@dataclass(frozen=True)
class SweepSpec:
    beta_grid: tuple[float, ...] = (1.0, 100.0, 10000.0)
    replicates: int = 5

    def __post_init__(self) -> None:
        if not self.beta_grid:
            raise ValueError("beta_grid must be non-empty")
        if self.replicates < 1:
            raise ValueError("replicates must be positive")


def train_size(n_rows: int) -> int:
    """Rows of an ``n_rows`` table that go to training; the rest are the
    holdout.  Of two rows or more the train split gets at least one, so
    only the holdout can be empty: then this raises ValueError."""
    cut = int(round(n_rows * TRAIN_FRACTION))
    if cut == n_rows:
        raise ValueError(
            f"{n_rows} rows at train fraction {TRAIN_FRACTION:g} leave the holdout split empty"
        )
    return cut


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

    The table holds the text ``mars gen`` writes: each feature value to 9
    decimals and the label as "0" or "1".

    Rules are redrawn (logged) while the planted set covers 0% or 100% of
    the rows, so the labels are never degenerate; after 1000 redraws that
    leave it so, MarsError.
    """
    rng = np.random.default_rng(spec.seed)
    table = rng.random((spec.n_rows, spec.n_features))
    rules = [_draw_rule(rng, spec) for _ in range(spec.n_rules)]
    per_rule = [r.coverage(table) for r in rules]
    for _ in range(1000):
        union = np.logical_or.reduce(per_rule)
        n_cov = int(union.sum())
        if 0 < n_cov < spec.n_rows:
            break
        if n_cov == 0:
            log.info("planted rules cover no rows; redrawing all")
            rules = [_draw_rule(rng, spec) for _ in range(spec.n_rules)]
            per_rule = [r.coverage(table) for r in rules]
        else:
            widest = int(np.argmax(np.count_nonzero(per_rule, axis=1)))
            log.info("planted rules cover every row; redrawing rule %d", widest)
            rules[widest] = _draw_rule(rng, spec)
            per_rule[widest] = rules[widest].coverage(table)
    else:
        raise MarsError(f"could not plant {spec.n_rules} rules that cover some but not all "
                        f"of {spec.n_rows} rows")

    names = tuple(f"f{j:02d}" for j in range(spec.n_features)) + (LABEL_COLUMN,)
    rows = [tuple(f"{x:.9f}" for x in values) + ("1" if hit else "0",)
            for values, hit in zip(table.tolist(), union.tolist())]
    return RawTable(names=names, rows=rows, label_column=LABEL_COLUMN), tuple(rules)


@dataclass
class SweepRecord:
    beta_m: float
    beta_l: float
    replicate: int
    holdout_error: float
    rules: RuleSet  # the cell's learned model
    wall_time_s: float


def _split_indices(n: int, cut: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.random.default_rng(seed).permutation(n)
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
    (train, test_rows, test_labels, beta_m, beta_l, replicate, base, cfg) = args
    t_start = time.perf_counter()
    hyper = replace(base, beta_m=beta_m, beta_l=beta_l)
    job_cfg = replace(cfg, random_seed=derived_seed(cfg.random_seed, beta_m, beta_l, replicate))
    rules, _, _ = run(train, hyper, job_cfg)
    return SweepRecord(
        beta_m=beta_m,
        beta_l=beta_l,
        replicate=replicate,
        holdout_error=error_rate(rules, test_rows, test_labels),
        rules=rules,
        wall_time_s=time.perf_counter() - t_start,
    )


def sweep(
    spec: SynthSpec,
    grid: SweepSpec,
    base_hyper: Hyperparams,
    cfg: SearchConfig,
    n_bins: int = N_BINS,
    scheme: str = SCHEMES[0],
    jobs: int = 1,
) -> list[SweepRecord]:
    """All (beta_M, beta_L) cells x replicates; one trained model each.

    Replicate r reuses one generated dataset across every cell so cells
    are comparable: its train split is binned once with ``discretize`` at
    ``n_bins`` and ``scheme``, and its holdout encoded once, before any
    cell runs; a record's ``wall_time_s`` is its cell's search and holdout
    scoring.  Each record keeps its cell's learned ``rules``;
    ``cell_means`` and the metrics CSV report their ``RuleSet.sizes()``, one
    count per name in ``model.SIZES``, in that order.  Before any search runs, a row
    count that leaves the holdout split empty raises ValueError, and a
    train split holding a single class raises DegenerateLabelError.
    At most ``jobs`` worker processes run, and none when there is one cell.
    """
    n_train = train_size(spec.n_rows)
    tasks = []
    for replicate in range(grid.replicates):
        data_seed = derived_seed(spec.seed, "dataset", replicate)
        table, _ = generate(replace(spec, seed=data_seed))
        train_idx, test_idx = _split_indices(len(table.rows), n_train, data_seed)
        if len({table.rows[i][-1] for i in train_idx}) < 2:  # generate puts the label last
            raise DegenerateLabelError(
                f"replicate {replicate}: the {n_train}-row train split holds a single class"
            )
        train = discretize(_subset(table, train_idx), n_bins=n_bins, scheme=scheme)
        test = _subset(table, test_idx).columns()
        test_rows = encode_with_specs(test, train.features, range(len(train.features)))
        test_labels = parse_labels(test[LABEL_COLUMN], LABEL_COLUMN)
        for beta_m in grid.beta_grid:
            for beta_l in grid.beta_grid:
                tasks.append(
                    (train, test_rows, test_labels, beta_m, beta_l, replicate, base_hyper, cfg)
                )
    # the fork pool starts every worker at once, whether or not it gets a cell
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
            **{name: float(np.mean([r.rules.sizes()[name] for r in rs])) for name in SIZES},
        }
        for key, rs in cells.items()
    }


def write_metrics_csv(path, records: list[SweepRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta_M", "beta_L", "replicate", "holdout_error", *SIZES, "wall_time_s"])
        for r in records:
            writer.writerow(
                [r.beta_m, r.beta_l, r.replicate, f"{r.holdout_error:.6f}",
                 *r.rules.sizes().values(), f"{r.wall_time_s:.3f}"]
            )


def write_table_csv(path, table: RawTable) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        writer.writerows(table.rows)
