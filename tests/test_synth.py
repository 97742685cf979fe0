"""Planted-truth sweep: determinism of the records it returns, and the
model sizes it reports."""

import csv
import dataclasses
import logging

import pytest

import mars.synth as synth
from mars import cli
from mars.data import SCHEMES, RawTable, discretize, encode_with_specs, parse_labels
from mars.errors import DegenerateLabelError
from mars.model import Rule, RuleSet
from mars.scoring import Hyperparams
from mars.search import SearchConfig
from mars.synth import TRAIN_FRACTION, SweepSpec, SynthSpec, derived_seed, sweep, train_size

from oracles import oracle_confusion


def test_sweep_is_deterministic():
    spec = SynthSpec(n_rows=200, n_features=4, n_rules=1, max_conditions=2, seed=3)
    grid = SweepSpec(beta_grid=(1.0, 100.0), replicates=2)
    cfg = SearchConfig(n_iter=60, n_restarts=0, random_seed=5)
    base = Hyperparams.defaults(spec.n_features)

    def records():
        # wall time is the one field that may differ between calls
        return [dataclasses.replace(r, wall_time_s=0.0)
                for r in sweep(spec, grid, base, cfg, n_bins=4, jobs=1)]

    first = records()
    assert len(first) == 8
    assert [(r.beta_m, r.beta_l, r.replicate) for r in first] == sorted(
        (r.beta_m, r.beta_l, r.replicate) for r in first
    )
    assert records() == first


@pytest.mark.parametrize("scheme", SCHEMES)
def test_holdout_error_is_the_recounted_error_of_the_records_rules(scheme):
    # rebuild each replicate's split as sweep does, then recount the
    # holdout errors of the record's rules row by row
    spec = SynthSpec(n_rows=200, n_features=4, n_rules=2, max_conditions=2, seed=3)
    grid = SweepSpec(beta_grid=(1.0, 100.0), replicates=2)
    records = sweep(spec, grid, Hyperparams.defaults(spec.n_features),
                    SearchConfig(n_iter=60, n_restarts=0, random_seed=5), n_bins=4, scheme=scheme)
    holdouts = []
    for replicate in range(grid.replicates):
        data_seed = derived_seed(spec.seed, "dataset", replicate)
        table, _ = synth.generate(dataclasses.replace(spec, seed=data_seed))
        train_idx, test_idx = synth._split_indices(spec.n_rows, train_size(spec.n_rows), data_seed)
        label = synth.LABEL_COLUMN
        train = discretize(RawTable(table.names, [table.rows[i] for i in train_idx], label),
                           n_bins=4, scheme=scheme)
        test = RawTable(table.names, [table.rows[i] for i in test_idx]).columns()
        holdouts.append((encode_with_specs(test, train.features, range(len(train.features))),
                         parse_labels(test[label], label)))
    assert len(records) == 8
    for r in records:
        rows, labels = holdouts[r.replicate]
        _, fp, _, fn = oracle_confusion(r.rules, rows, labels)
        assert r.holdout_error == (fp + fn) / len(labels)
    assert any(r.holdout_error for r in records) and any(r.rules.rules for r in records)


def test_one_row_cannot_hold_both_labels():
    with pytest.raises(ValueError, match="n_rows"):
        SynthSpec(n_rows=1)
    table, _ = synth.generate(SynthSpec(n_rows=2, n_features=2, max_conditions=2, seed=0))
    assert sorted(row[-1] for row in table.rows) == ["0", "1"]


def test_generated_table_is_the_table_gen_writes(tmp_path):
    """``mars sweep`` trains on ``generate``'s table and ``mars gen`` writes
    it: the two must be the same text, cell for cell."""
    table, _ = synth.generate(SynthSpec(n_rows=50, n_features=3, max_conditions=2, seed=4))
    path = tmp_path / "gen.csv"
    synth.write_table_csv(path, table)
    assert table == RawTable.from_csv(path, label_column=synth.LABEL_COLUMN)


def test_a_redraw_counts_only_the_redrawn_rules_coverage(monkeypatch, caplog):
    # this spec's planted rules cover every row on four draws before they
    # plant: each redraw replaces one rule, and only its coverage is counted
    calls = []
    coverage = synth.PlantedRule.coverage

    def counted(rule, table):
        calls.append(rule)
        return coverage(rule, table)

    monkeypatch.setattr(synth.PlantedRule, "coverage", counted)
    spec = SynthSpec(n_rows=100, n_features=1, n_rules=6, max_conditions=1, seed=8)
    with caplog.at_level(logging.INFO, logger=synth.__name__):
        synth.generate(spec)
    redraws = [r.getMessage() for r in caplog.records if "redrawing" in r.getMessage()]
    assert len(redraws) == 4 and all("redrawing rule" in m for m in redraws)
    assert len(calls) <= spec.n_rules + len(redraws)


def test_sweep_rejects_an_empty_split_before_any_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("search ran")

    monkeypatch.setattr(synth, "run", no_search)
    grid = SweepSpec(beta_grid=(1.0,), replicates=1)
    for n_rows in range(2, 10):
        spec = SynthSpec(n_rows=n_rows, n_features=2, max_conditions=2, seed=0)
        cut = int(round(n_rows * TRAIN_FRACTION))
        if 0 < cut < n_rows:
            assert train_size(n_rows) == cut
            continue
        with pytest.raises(ValueError, match="split empty"):
            sweep(spec, grid, Hyperparams.defaults(2), SearchConfig(n_iter=5))
    # of two rows or more the train split is never empty: only the holdout is
    with pytest.raises(ValueError, match="2 rows at train fraction 0.75 leave the holdout split"):
        train_size(2)


def test_sweep_rejects_a_single_class_train_split_before_any_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("search ran")

    monkeypatch.setattr(synth, "run", no_search)
    # the 2-row train split of this 3-row table holds one class
    spec = SynthSpec(n_rows=3, n_features=15, n_rules=3, max_conditions=4, seed=0)
    with pytest.raises(DegenerateLabelError, match="replicate 0: the 2-row train split"):
        sweep(spec, SweepSpec(beta_grid=(1.0,), replicates=1), Hyperparams.defaults(15),
              SearchConfig(n_iter=5))


def test_sweep_starts_no_more_workers_than_cells(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(synth, "ProcessPoolExecutor", SerialPool)
    spec = SynthSpec(n_rows=60, n_features=2, n_rules=1, max_conditions=1, seed=1)
    cfg = SearchConfig(n_iter=5, n_restarts=0)
    base = Hyperparams.defaults(2)
    for replicates, expected in [(1, []), (2, [2]), (3, [3])]:
        started.clear()
        grid = SweepSpec(beta_grid=(1.0,), replicates=replicates)
        assert len(sweep(spec, grid, base, cfg, n_bins=4, jobs=16)) == replicates
        assert started == expected


def test_sweep_in_two_processes_matches_one():
    spec = SynthSpec(n_rows=200, n_features=4, n_rules=1, max_conditions=2, seed=3)
    grid = SweepSpec(beta_grid=(1.0, 100.0), replicates=1)
    cfg = SearchConfig(n_iter=50, n_restarts=0, random_seed=5)
    base = Hyperparams.defaults(spec.n_features)

    def records(jobs):
        return [dataclasses.replace(r, wall_time_s=0.0)
                for r in sweep(spec, grid, base, cfg, n_bins=4, jobs=jobs)]

    assert records(2) == records(1)


def test_sweep_records_rule_condition_and_value_counts_apart(monkeypatch, tmp_path, capsys):
    # every cell learns this model: 2 rules, 3 conditions, 6 values, 3 features
    rules = RuleSet((Rule.of({0: [0, 1], 2: [3]}), Rule.of({1: [1, 2, 3]})))
    monkeypatch.setattr(synth, "run", lambda *args: (rules, None, None))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--rows", "80", "--features", "3", "--rules", "1", "--max-conditions", "1",
            "--grid", "1,100", "--replicates", "2", "--bins", "4", "--out", str(out)]
    assert cli.main(argv) == 0

    header, *rows = csv.reader(out.read_text().splitlines())
    assert header == ["beta_M", "beta_L", "replicate", "holdout_error", "n_rules",
                      "n_conditions", "n_values", "n_features", "wall_time_s"]
    assert len(rows) == 8
    assert {tuple(row[4:8]) for row in rows} == {("2", "3", "6", "3")}
    printed = capsys.readouterr().out.splitlines()[1:]
    assert len(printed) == 4
    assert all(line.endswith(" rules=2.0 conditions=3.0 values=6.0 features=3.0")
               for line in printed)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sweep_bins_every_cell_with_the_given_bins_and_scheme(monkeypatch, tmp_path, scheme):
    # a sweep bins each replicate's train split once, as mars train bins its
    # CSV from the same --bins and --scheme
    calls = []

    def recording(table, **settings):
        calls.append(settings)
        return discretize(table, **settings)

    monkeypatch.setattr(synth, "discretize", recording)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--rows", "400", "--replicates", "1", "--grid", "1,100", "--iters", "50",
            "--bins", "6", "--scheme", scheme, "--out", str(out)]
    assert cli.main(argv) == 0
    assert calls == [{"n_bins": 6, "scheme": scheme}]
