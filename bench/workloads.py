"""Workload inputs, reference posteriors and independent output checks.

Everything the benchmark compares the program against is computed here
from the raw generated values, never from the program's own encoding:
holdout labels come from the planted rules, predictions are recomputed
from the model JSON by matching raw floats against interval bounds and
raw strings against category names.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from mars import cli
from mars.data import MISSING, RawTable, discretize
from mars.model import Condition, Rule, RuleSet, normalize
from mars.scoring import Hyperparams, score
from mars.synth import PlantedCondition, PlantedRule

import oracles

LABEL = "label"
N_FEATURES = 15
N_RULES = 3
N_CATEGORIES = 30
BLANK_FRACTION = 0.02
UNSEEN_FRACTION = 0.01

# The training instance of every workload is this fixed generator seed, and
# training uses the default search seed: search quality and per-step cost
# then compare like for like across commits.  The run's --seed draws the
# holdout rows (and, for categorical-20k, their blanks and unseen categories).
TRAIN_GEN_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    holdout_rows: int
    train_flags: tuple[str, ...]
    cycles: int  # measured cycles per run, at least
    setup_reps: int  # extra set-up-only train commands per cycle
    predict_reps: int  # predict commands per cycle
    categorical: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-5k", 5000, 20_000, (), cycles=2, setup_reps=4, predict_reps=6),
        Workload("categorical-20k", 20_000, 20_000, ("--iters", "4000"), cycles=3,
                 setup_reps=3, predict_reps=5, categorical=True),
    )
}


def tiny(w: Workload) -> Workload:
    """Same workload at smoke-test size."""
    return replace(w, rows=1000, holdout_rows=300, train_flags=("--iters", "100"),
                   cycles=2, setup_reps=1, predict_reps=2)


def _is_categorical_column(j: int) -> bool:
    # every other feature: f01, f03, ...
    return j % 2 == 1


def category_of(x: float) -> str:
    return f"c{min(int(x * N_CATEGORIES), N_CATEGORIES - 1):02d}"


@dataclass
class Inputs:
    train_csv: Path
    holdout_csv: Path
    truth: tuple[PlantedRule, ...]
    names: tuple[str, ...]
    holdout_cells: list[list[str]]  # raw feature cells as written
    holdout_labels: np.ndarray


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def make_inputs(w: Workload, seed: int, work: Path) -> Inputs:
    """Training CSV from ``mars gen`` at the fixed generator seed; holdout
    rows drawn from ``seed`` and labelled by the planted rules."""
    gen_csv = work / "gen.csv"
    truth_json = work / "truth.json"
    argv = ["gen", "--rows", str(w.rows), "--features", str(N_FEATURES),
            "--rules", str(N_RULES), "--seed", str(TRAIN_GEN_SEED),
            "--out", str(gen_csv), "--truth", str(truth_json)]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError("mars gen failed")
    header, rows = _read_csv(gen_csv)
    names = tuple(header[:-1])
    fid = {n: j for j, n in enumerate(names)}
    truth = tuple(
        PlantedRule(tuple(PlantedCondition(fid[c["feature"]], c["lo"], c["hi"]) for c in rule))
        for rule in json.loads(truth_json.read_text())
    )

    rng = np.random.default_rng([seed, 7919])
    raw = np.round(rng.random((w.holdout_rows, N_FEATURES)), 9)
    labels = np.logical_or.reduce([r.coverage(raw) for r in truth])
    cells = [[f"{x:.9f}" for x in row] for row in raw]

    if w.categorical:
        train_rng = random.Random(f"categorical-train:{TRAIN_GEN_SEED}")
        rows = [_recode(row, train_rng, unseen=False) for row in rows]
        hold_rng = random.Random(f"categorical-holdout:{seed}")
        cells = [_recode(row, hold_rng, unseen=True) for row in cells]
        train_csv = work / "train.csv"
        _write_csv(train_csv, header, rows)
    else:
        train_csv = gen_csv
    holdout_csv = work / "holdout.csv"
    _write_csv(holdout_csv, header, ([*c, int(y)] for c, y in zip(cells, labels)))
    return Inputs(train_csv, holdout_csv, truth, names, cells, labels)


def _recode(row: list[str], rng: random.Random, unseen: bool) -> list[str]:
    out = list(row)
    for j in range(N_FEATURES):
        if not _is_categorical_column(j):
            continue
        u = rng.random()
        if u < BLANK_FRACTION:
            out[j] = ""
        elif unseen and u < BLANK_FRACTION + UNSEEN_FRACTION:
            out[j] = f"new{rng.randrange(N_CATEGORIES):02d}"
        else:
            out[j] = category_of(float(row[j]))
    return out


# ---------------------------------------------------------------------------
# reference posteriors
# ---------------------------------------------------------------------------

@dataclass
class Reference:
    data: object  # mars.data.Dataset of the training CSV
    hyper: Hyperparams
    truth_log_posterior: float
    empty_log_posterior: float


def _bin_midpoints(spec) -> list[float | None]:
    """Raw-scale midpoint of each vocabulary entry (None for MISSING)."""
    if spec.kind == "numeric":
        return [(lo + hi) / 2 for lo, hi in spec.intervals]
    out = []
    for cat in spec.categories:
        if cat == MISSING:
            out.append(None)
        else:
            k = int(cat[1:])
            out.append((k + 0.5) / N_CATEGORIES)
    return out


def bin_planted(truth, data) -> RuleSet:
    """The planted rules in the discretizer's vocabulary.

    Binning rule: a bin (or category) joins a condition [lo, hi) when its
    raw-scale midpoint lies in [lo, hi); when no midpoint does, the one bin
    nearest to the interval's centre joins.  MISSING never joins.
    Full-vocabulary conditions and duplicate rules are then normalized away.
    """
    rules = []
    for planted in truth:
        conds = []
        for c in planted.conditions:
            mids = _bin_midpoints(data.features[c.feature])
            vals = [v for v, m in enumerate(mids) if m is not None and c.lo <= m < c.hi]
            if not vals:
                centre = (c.lo + c.hi) / 2
                vals = [min((v for v, m in enumerate(mids) if m is not None),
                            key=lambda v: abs(mids[v] - centre))]
            conds.append(Condition(c.feature, tuple(vals)))
        rules.append(Rule(tuple(conds)))
    return normalize(RuleSet(tuple(rules)), data.vocab_sizes)


def reference(inputs: Inputs) -> Reference:
    """Posterior of the binned planted truth and of the empty rule set,
    under the default hyperparameters that ``mars train`` uses."""
    data = discretize(RawTable.from_csv(inputs.train_csv, label_column=LABEL))
    hyper = Hyperparams.defaults(data.n_features)
    truth_rules = bin_planted(inputs.truth, data)
    return Reference(
        data=data,
        hyper=hyper,
        truth_log_posterior=score(truth_rules, data, hyper).log_posterior,
        empty_log_posterior=score(RuleSet(()), data, hyper).log_posterior,
    )


# ---------------------------------------------------------------------------
# independent predictor and output checks
# ---------------------------------------------------------------------------

class RawPredictor:
    """Applies a model JSON document to raw CSV cells.

    Numeric cells are matched against the stored interval bounds (values
    below the first or above the last interval fall into the boundary
    interval); categorical cells against the category strings, with blank
    and unseen cells taking the MISSING entry when the vocabulary has one.
    """

    def __init__(self, doc: dict, names: tuple[str, ...]) -> None:
        col = {n: k for k, n in enumerate(names)}
        self.features = doc["features"]
        index = {f["name"]: i for i, f in enumerate(self.features)}
        self.rules = [
            [(col[name], index[name], frozenset(values)) for name, values in rule]
            for rule in doc["rules"]
        ]

    def _value(self, fi: int, cell: str) -> int:
        f = self.features[fi]
        if f["kind"] == "numeric":
            x = float(cell)
            ivs = f["intervals"]
            if x < ivs[0][0]:
                return 0
            for v, (lo, hi) in enumerate(ivs):
                if lo <= x < hi:
                    return v
            return len(ivs) - 1
        cats = f["values"]
        key = cell.strip()
        if key in ("", "?") or key not in cats:
            return cats.index(MISSING) if MISSING in cats else -1
        return cats.index(key)

    def predict(self, cells: list[str]) -> tuple[int, int]:
        """(prediction, index of the first covering rule or -1)."""
        for k, rule in enumerate(self.rules):
            if all(self._value(fi, cells[c]) in values for c, fi, values in rule):
                return 1, k
        return 0, -1


def expected_predictions(doc: dict, inputs: Inputs) -> list[tuple[int, int]]:
    pred = RawPredictor(doc, inputs.names)
    return [pred.predict(cells) for cells in inputs.holdout_cells]


def read_predictions(path: Path) -> list[tuple[int, int]]:
    header, rows = _read_csv(path)
    if header != ["prediction", "rule_index"]:
        raise ValueError(f"unexpected predictions header {header}")
    return [(int(p), int(k)) for p, k in rows]


def model_ruleset(doc: dict) -> RuleSet:
    fid = {f["name"]: i for i, f in enumerate(doc["features"])}
    return RuleSet(tuple(
        Rule(tuple(Condition(fid[name], tuple(values)) for name, values in rule))
        for rule in doc["rules"]
    ))


def rescore(doc: dict, ref: Reference) -> tuple[float, tuple[int, int, int, int]]:
    """Log-posterior and confusion of the model's rules by the test oracles."""
    rules = model_ruleset(doc)
    conf = oracles.oracle_confusion(rules, ref.data.rows, ref.data.labels)
    lp = oracles.oracle_log_prior(rules, ref.hyper, ref.data.vocab_sizes)
    ll = oracles.oracle_log_likelihood(*conf, ref.hyper)
    return lp + ll, conf


def posterior_matches(recorded: float, recomputed: float) -> bool:
    return math.isclose(recorded, recomputed, rel_tol=0.0, abs_tol=1e-6)
