"""Command-line behaviour: predict/evaluate on a tiny trained model, and
every user input error ending in an error line and exit code."""

import codecs
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mars
from mars import cli
from mars.data import MISSING, FeatureSpec, RawTable, encode_with_specs
from mars.model import Condition, Rule, RuleSet, first_covering_rule
from mars.model_io import load_model, save_model
from mars.scoring import Hyperparams, score
from mars.search import RunLog

from oracles import rule_covers

SRC = str(Path(mars.__file__).resolve().parents[1])


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def mars_command(*argv, env=None):
    """``mars ARGV`` as a fresh interpreter runs it: ``subprocess`` keyword
    arguments for the command and its environment."""
    path = [SRC, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p), **(env or {})}
    return {"args": [sys.executable, "-m", "mars.cli", *map(str, argv)], "env": env}


def run_mars(*argv, env=None):
    """``mars ARGV`` in a fresh interpreter, as a user runs it."""
    return subprocess.run(**mars_command(*argv, env=env), capture_output=True, text=True,
                          timeout=120)


def assert_clean_error(proc, code, *fragments):
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    for fragment in fragments:
        assert fragment in proc.stderr


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A model trained on a numeric column, a categorical column with
    blanks, and a noise column; label = (x < 0.5 and c in {a, b})."""
    tmp = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(300):
        x = float(rng.random())
        c = ["a", "b", "c", ""][rng.integers(4)]
        rows.append([f"{x:.6f}", c, f"{rng.random():.6f}", int(x < 0.5 and c in ("a", "b"))])
    train = write_csv(tmp / "train.csv", ["x", "c", "noise", "y"], rows)
    model = tmp / "model.json"
    argv = ["train", str(train), "--label", "y", "--out", str(model),
            "--iters", "300", "--restarts", "0", "--bins", "4"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    (tmp / "train.stdout").write_text(stdout.getvalue())
    assert load_model(model).rules.n_rules >= 1
    return tmp, model


def test_train_prints_the_saved_model_sizes(trained):
    tmp, model = trained
    sizes = load_model(model).rules.sizes()
    printed = (tmp / "train.stdout").read_text().splitlines()
    assert printed[-1] == (f"rules: {sizes['n_rules']}  conditions: {sizes['n_conditions']}  "
                           f"values: {sizes['n_values']}  features: {sizes['n_features']}")


def test_train_prints_the_majority_class_rate(trained):
    tmp, _ = trained
    with open(tmp / "train.csv", newline="") as fh:
        labels = [row["y"] for row in csv.DictReader(fh)]
    rate = max(labels.count("0"), labels.count("1")) / len(labels)
    printed = (tmp / "train.stdout").read_text().splitlines()
    at = next(i for i, line in enumerate(printed) if line.startswith("training accuracy:"))
    assert printed[at + 1] == f"majority-class rate: {rate:.4f}"


def test_train_warns_below_the_majority_class_rate(trained, tmp_path, monkeypatch, capsys,
                                                   caplog):
    """A model less accurate than predicting the majority class, such as the
    complement of the planted rule, is reported with both numbers."""
    tmp, _ = trained

    def inverted_run(data, hyper, cfg):
        # x >= 0.5 covers only negatives: the planted rule needs x < 0.5
        vocab = data.vocab_sizes[0]
        rules = RuleSet((Rule((Condition(0, tuple(range(vocab // 2, vocab))),)),))
        return rules, score(rules, data, hyper), RunLog()

    monkeypatch.setattr(cli, "run", inverted_run)
    argv = ["train", tmp / "train.csv", "--label", "y", "--out", tmp_path / "m.json"]
    assert cli.main([str(a) for a in argv]) == 0
    printed = capsys.readouterr().out.splitlines()
    accuracy = next(line for line in printed if line.startswith("training accuracy:")).split()[2]
    rate = next(line for line in printed if line.startswith("majority-class rate:")).split()[2]
    assert float(accuracy) < float(rate)
    (warning,) = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert f"training accuracy {accuracy} is below the majority-class rate {rate}" in warning


def test_train_warns_when_the_model_covers_every_row_or_none(tmp_path, monkeypatch, capsys,
                                                             caplog):
    """A model that covers every training row, or none, predicts one class
    everywhere: its accuracy is the rate of that class.  On this planted
    instance, 99% positive, a 500-step search ends in a rule set that
    covers every row."""
    csv_path = tmp_path / "probe.csv"
    argv = ["gen", "--rows", "1000", "--rules", "6", "--max-conditions", "2", "--seed", "9",
            "--out", csv_path]
    assert cli.main([str(a) for a in argv]) == 0
    train = ["train", csv_path, "--label", "label", "--out", tmp_path / "m.json"]
    capsys.readouterr()
    assert cli.main([str(a) for a in [*train, "--iters", "500"]]) == 0
    printed = capsys.readouterr().out
    assert "tn=0 fn=0" in printed and "covers" not in printed
    (warning,) = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert "the model covers all training rows" in warning

    def empty_run(data, hyper, cfg):
        rules = RuleSet(())
        return rules, score(rules, data, hyper), RunLog()

    caplog.clear()
    monkeypatch.setattr(cli, "run", empty_run)
    assert cli.main([str(a) for a in train]) == 0
    assert "tp=0 fp=0" in capsys.readouterr().out
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert any("the model covers no training rows" in w for w in warnings)


def holdout_rows():
    # unseen category "z", blank and "?" cells, out-of-range numerics
    return [
        ["0.1", "a", "0.5", 1],
        ["0.2", "z", "0.5", 0],
        ["0.3", "", "0.5", 0],
        ["", "b", "0.5", 0],
        ["?", "a", "?", 0],
        ["-4", "b", "9", 1],
        ["7", "a", "0.5", 0],
        ["0.9", "c", "0.1", 0],
    ]


def test_predict_matches_rule_covers_on_unseen_and_blank_cells(trained, tmp_path, capsys):
    _, model = trained
    holdout = write_csv(tmp_path / "h.csv", ["x", "c", "noise", "y"], holdout_rows())
    out = tmp_path / "pred.csv"
    assert cli.main(["predict", str(model), str(holdout), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "prediction,rule_index"
    got = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]

    m = load_model(model)
    columns = RawTable.from_csv(holdout).columns()
    rows = encode_with_specs(columns, m.features, range(len(m.features)))
    expected = []
    for row in rows:
        hit = next((k for k, r in enumerate(m.rules.rules) if rule_covers(r, row)), -1)
        expected.append((int(hit >= 0), hit))
    assert got == expected
    assert any(p for p, _ in got) and not all(p for p, _ in got)

    # without --out the same CSV goes to stdout
    capsys.readouterr()
    assert cli.main(["predict", str(model), str(holdout)]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_evaluate_accuracy_equals_predictions(trained, tmp_path, capsys):
    _, model = trained
    rows = holdout_rows()
    holdout = write_csv(tmp_path / "h.csv", ["x", "c", "noise", "y"], rows)
    out = tmp_path / "pred.csv"
    assert cli.main(["predict", str(model), str(holdout), "--out", str(out)]) == 0
    preds = [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    accuracy = np.mean([p == r[-1] for p, r in zip(preds, rows)])
    capsys.readouterr()
    assert cli.main(["evaluate", str(model), str(holdout)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"rows: {len(rows)}"
    assert printed[1] == f"accuracy: {accuracy:.4f}"
    sizes = load_model(model).rules.sizes()
    assert printed[2:] == [f"rules: {sizes['n_rules']}", f"conditions: {sizes['n_conditions']}",
                           f"values: {sizes['n_values']}", f"features: {sizes['n_features']}"]


def test_evaluate_transposes_the_holdout_once(trained, tmp_path, monkeypatch, capsys):
    """The encoder and the label parser read the one ``columns()`` dict."""
    _, model = trained
    holdout = write_csv(tmp_path / "h.csv", ["x", "c", "noise", "y"], holdout_rows())
    assert cli.main(["evaluate", str(model), str(holdout)]) == 0
    expected = capsys.readouterr().out
    calls = []

    def counted(self, _orig=RawTable.columns):
        calls.append(self)
        return _orig(self)

    monkeypatch.setattr(RawTable, "columns", counted)
    assert cli.main(["evaluate", str(model), str(holdout)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == expected


def with_bom(path, header, rows):
    """``write_csv`` behind a UTF-8 byte-order mark, as spreadsheet programs
    save "CSV UTF-8"."""
    write_csv(path, header, rows)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return path


def test_csv_with_a_byte_order_mark_reads_as_without(trained, tmp_path, capsys):
    tmp, model = trained
    header, *rows = csv.reader(io.StringIO((tmp / "train.csv").read_text()))
    # the label column first: its name once read as "\ufeffy"
    train = with_bom(tmp_path / "t.csv", header[-1:] + header[:-1], [r[-1:] + r[:-1] for r in rows])
    bom_model = tmp_path / "m.json"
    argv = ["train", str(train), "--label", "y", "--out", str(bom_model),
            "--iters", "300", "--restarts", "0", "--bins", "4"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert load_model(bom_model).features == load_model(model).features
    assert load_model(bom_model).rules == load_model(model).rules

    # a feature column first: its name once read as "\ufeffx", missing from the model
    holdout = write_csv(tmp_path / "h.csv", ["x", "c", "noise", "y"], holdout_rows())
    bom_holdout = with_bom(tmp_path / "hb.csv", ["x", "c", "noise", "y"], holdout_rows())
    capsys.readouterr()
    assert cli.main(["predict", str(model), str(holdout)]) == 0
    plain = capsys.readouterr().out
    assert cli.main(["predict", str(model), str(bom_holdout)]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize(
    "values, code",
    [(["1.0", "1.0000000000000002"], 2), (["0", "5e-324", "1e-323"], 0), (["-1e308", "1e308"], 2)],
    ids=["one-ulp-range", "subnormal-range", "overflowing-range"],
)
def test_equal_width_binning_of_extreme_ranges_is_no_traceback(tmp_path, values, code):
    # these once ended in an "empty interval" ValueError from FeatureSpec
    train = write_csv(tmp_path / "t.csv", ["x", "y"], [[v, y] for v in values for y in (0, 1)])
    out = tmp_path / "m.json"
    proc = run_mars("train", train, "--label", "y", "--out", out, "--iters", "20")
    if code:
        assert_clean_error(proc, code, "column 'x'")
        assert not out.exists()
    else:
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        # ten equal-width bins of a range two subnormals wide collapse to two
        assert load_model(out).features[0].intervals == ((0.0, 5e-324), (5e-324, 1e-323))


@pytest.mark.parametrize("bins", ["5", "10", "25"])
@pytest.mark.parametrize("ones", [20, 380], ids=["5%-ones", "95%-ones"])
def test_equal_frequency_binning_of_a_skewed_column_trains(tmp_path, capsys, ones, bins):
    # every inner quantile of the 0/1 column is one value; it once collapsed
    train = write_csv(tmp_path / "t.csv", ["b", "y"], [[int(i < ones), i % 2] for i in range(400)])
    out = tmp_path / "m.json"
    argv = ["train", train, "--label", "y", "--out", out, "--iters", "20",
            "--scheme", "frequency", "--bins", bins]
    assert cli.main([str(a) for a in argv]) == 0
    assert load_model(out).features[0].intervals == ((0.0, 0.5), (0.5, 1.0))


def test_predict_missing_model_column_exits_4(trained, tmp_path):
    _, model = trained
    holdout = write_csv(tmp_path / "h.csv", ["x", "noise"], [["0.1", "0.2"]])
    assert_clean_error(run_mars("predict", model, holdout), 4, "column(s): c")
    assert_clean_error(run_mars("evaluate", model, holdout, "--label", "x"), 4, "column(s): c")


def test_non_numeric_cell_in_numeric_column_exits_2(trained, tmp_path):
    _, model = trained
    rows = holdout_rows()
    rows[2][0] = "abc"
    holdout = write_csv(tmp_path / "h.csv", ["x", "c", "noise", "y"], rows)
    assert_clean_error(run_mars("predict", model, holdout), 2, "'x'", "abc")
    assert_clean_error(run_mars("evaluate", model, holdout), 2, "'x'", "abc")


@pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
@pytest.mark.parametrize(
    "cell, fragment",
    [(b"\xff", "not UTF-8 text"), (b"a" * 131073, "field larger than field limit")],
    ids=["non-utf8", "long-cell"],
)
def test_unreadable_csv_exits_2(trained, tmp_path, command, cell, fragment):
    _, model = trained
    path = tmp_path / "bad.csv"
    path.write_bytes(b"x,c,noise,y\n0.1,a,0.2,1\n0.3," + cell + b",0.4,0\n")
    argv = {
        "train": ["train", path, "--label", "y", "--out", tmp_path / "m.json", "--iters", "20"],
        "predict": ["predict", model, path],
        "evaluate": ["evaluate", model, path],
    }[command]
    assert_clean_error(run_mars(*argv), 2, str(path), fragment)


def test_evaluate_header_only_csv_exits_2(trained, tmp_path):
    _, model = trained
    holdout = write_csv(tmp_path / "h.csv", ["x", "c", "noise", "y"], [])
    proc = run_mars("evaluate", model, holdout)
    assert_clean_error(proc, 2, "no data rows")
    assert "Warning" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize(
    "flags, config, fragment",
    [
        (["--iters", "0"], None, "n_iter"),
        (["--alpha-m", "-1"], None, "alpha_m"),
        (["--hyper-config", "{cfg}"], "beta_m = abc\n", "beta_m"),
        (["--hyper-config", "{cfg}"], None, "cannot read"),  # the file does not exist
        # one value per feature: theta only
        (["--hyper-config", "{cfg}"], "beta_m = 1,2\n", "beta_m"),
        (["--hyper-config", "{cfg}"], "theta = 1,2\n", "theta has 2 entries for 3 features"),
        # non-finite values: inf once reached bounds.update_bounds as a traceback
        (["--alpha-pos", "inf"], None, "alpha_pos"),
        (["--beta-m", "inf"], None, "beta_m"),
        (["--beta-l", "inf"], None, "beta_l"),
        (["--alpha-l", "nan"], None, "alpha_l"),
        (["--theta", "inf"], None, "theta"),
        (["--hyper-config", "{cfg}"], "theta = 1,1,inf\n", "theta"),
        # finite but so large that a derived constant of the prior or the
        # likelihood is not a finite float: these once ended in an
        # OverflowError from lgamma or a math domain error from log(0)
        (["--alpha-l", "1e308"], None, "invalid hyperparameter"),
        (["--theta", "1e308"], None, "invalid hyperparameter"),
        (["--beta-l", "1e308"], None, "invalid hyperparameter"),  # log(0) in the prior
        (["--alpha-pos", "1e308"], None, "invalid hyperparameter"),
        (["--beta-l", "1e16"], None, "invalid hyperparameter"),  # log(0) in the prior
        (["--hyper-config", "{cfg}"], "alpha_l = 1e308\n", "invalid hyperparameter"),
        (["--t0", "inf"], None, "invalid search setting"),
    ],
)
def test_bad_flag_or_config_is_an_error_not_a_traceback(trained, tmp_path, flags, config,
                                                         fragment):
    tmp, _ = trained
    cfg = tmp_path / "hyper.cfg"
    if config is not None:
        cfg.write_text(config)
    argv = ["train", tmp / "train.csv", "--label", "y", "--out", tmp_path / "m.json",
            "--iters", "20", *(f.format(cfg=cfg) for f in flags)]
    assert_clean_error(run_mars(*argv), 1, fragment)
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "flags", [["--alpha-m", "1e-17"], ["--alpha-m", "1e-300"], ["--beta-neg", "5e-324"]]
)
def test_tiny_valid_hyperparameter_trains(trained, tmp_path, flags):
    # these once ended in a math domain error from the pruning bounds
    tmp, _ = trained
    out = tmp_path / "m.json"
    proc = run_mars("train", tmp / "train.csv", "--label", "y", "--out", out, "--iters", "20",
                    *flags)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert out.exists()


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--beta-m", "1e308"], {"beta_m": 1e308}),
        (["--alpha-l", "2000", "--beta-l", "1"], {"alpha_l": 2000.0, "beta_l": 1.0}),
    ],
)
def test_hyperparameter_with_a_large_omega_trains(trained, tmp_path, flags, expected):
    # log(omega) is about 717 and 1387 here: finite, though exp(log(omega))
    # overflows; the bounds read only log(omega)
    tmp, _ = trained
    out = tmp_path / "m.json"
    proc = run_mars("train", tmp / "train.csv", "--label", "y", "--out", out, "--iters", "20",
                    *flags)
    assert proc.returncode == 0, proc.stderr
    hyper = load_model(out).hyper
    assert {key: getattr(hyper, key) for key in expected} == expected


def test_sweep_with_a_single_class_train_split_exits_3(tmp_path):
    # the 3-row table holds both labels; its 2-row train split does not
    out = tmp_path / "sweep.csv"
    proc = run_mars("sweep", "--rows", "3", "--iters", "5", "--replicates", "1", "--grid", "1",
                    "--out", out)
    assert_clean_error(proc, 3, "2-row train split holds a single class")
    assert not out.exists()


def test_non_utf8_hyper_config_is_an_error_not_a_traceback(trained, tmp_path):
    tmp, _ = trained
    cfg = tmp_path / "hyper.cfg"
    cfg.write_bytes(b"beta_m = \xff\n")
    argv = ["train", tmp / "train.csv", "--label", "y", "--out", tmp_path / "m.json",
            "--iters", "20", "--hyper-config", cfg]
    assert_clean_error(run_mars(*argv), 1, "cannot read hyperparameter file")


def test_hyper_config_sets_theta_per_feature(trained, tmp_path):
    tmp, _ = trained
    cfg = tmp_path / "hyper.cfg"
    cfg.write_text("theta = 0.5, 2, 1  # x, c, noise\nbeta_m = 7\n")
    model = tmp_path / "m.json"
    argv = ["train", str(tmp / "train.csv"), "--label", "y", "--out", str(model),
            "--iters", "20", "--hyper-config", str(cfg)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    hyper = load_model(model).hyper
    assert hyper.theta == (0.5, 2.0, 1.0)
    assert hyper.beta_m == 7.0


def test_hyper_config_with_a_byte_order_mark(trained, tmp_path):
    # its first key once read as "\ufeffalpha_m", an unknown hyperparameter
    tmp, _ = trained
    cfg = tmp_path / "hyper.cfg"
    cfg.write_text("alpha_m = 2\n", encoding="utf-8-sig")
    model = tmp_path / "m.json"
    argv = ["train", str(tmp / "train.csv"), "--label", "y", "--out", str(model),
            "--iters", "20", "--hyper-config", str(cfg)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert load_model(model).hyper.alpha_m == 2.0


def test_train_help_offers_one_flag_per_hyperparameter(capsys):
    # mars sweep takes beta_M and beta_L from --grid, and offers the rest
    names = [f.name for f in fields(Hyperparams)]
    for command, offered in (("train", names),
                             ("sweep", [n for n in names if n not in ("beta_m", "beta_l")])):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--help"])
        assert info.value.code == 0
        listed = re.findall(r"^\s+(--[a-z][a-z-]*)", capsys.readouterr().out, re.M)
        hyper_flags = [flag for flag in listed if flag[2:].replace("-", "_") in names]
        assert sorted(hyper_flags) == sorted("--" + name.replace("_", "-") for name in offered)


@pytest.mark.parametrize("flag", ["--beta-m", "--beta-l"])
def test_sweep_has_no_beta_m_or_beta_l_flag(tmp_path, flag):
    out = tmp_path / "sweep.csv"
    proc = run_mars("sweep", "--rows", "50", "--replicates", "1", "--grid", "1", "--iters", "5",
                    flag, "5", "--out", out)
    assert proc.returncode == 2
    assert f"unrecognized arguments: {flag} 5" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("key", ["beta_m", "beta_l"])
def test_sweep_hyper_config_setting_a_grid_beta_exits_1_before_generating(monkeypatch, capsys,
                                                                          tmp_path, key):
    from mars import synth

    def no_data(*args):
        raise AssertionError("data generated")

    monkeypatch.setattr(synth, "generate", no_data)
    cfg = tmp_path / "hyper.cfg"
    cfg.write_text(f"alpha_m = 2\n{key} = 7\n")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--rows", "50", "--hyper-config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid hyperparameter") and key in err and "--grid" in err
    assert not out.exists()


def test_flag_defaults_are_the_library_defaults():
    import inspect

    from mars import synth
    from mars.data import discretize
    from mars.search import SearchConfig

    parser = cli.build_parser()
    binning = inspect.signature(discretize).parameters
    for argv in (["train", "data.csv", "--label", "y", "--out", "m.json"],
                 ["sweep", "--out", "s.csv"]):
        args = parser.parse_args(argv)
        assert cli._settings(cli._SEARCH_FLAGS, args) == SearchConfig()
        assert (args.bins, args.scheme) == (binning["n_bins"].default, binning["scheme"].default)
    for argv in (["gen", "--out", "g.csv"], ["sweep", "--out", "s.csv"]):
        args = parser.parse_args(argv)
        assert cli._settings(cli._SYNTH_FLAGS, args, seed=args.seed) == synth.SynthSpec()
    grid = synth.SweepSpec()
    assert tuple(float(b) for b in args.grid.split(",")) == grid.beta_grid
    assert args.replicates == grid.replicates
    sweep = inspect.signature(synth.sweep).parameters
    assert (sweep["n_bins"].default, sweep["scheme"].default) == (args.bins, args.scheme)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--rows", "0"],
        ["gen", "--max-conditions", "99"],
        ["sweep", "--grid", "1,x"],
        ["sweep", "--replicates", "0"],
        ["sweep", "--grid", "1,0"],
        ["sweep", "--grid", "1,1e308"],
        ["gen", "--rows", "1"],
        ["sweep", "--rows", "1"],
        # 75% of 2 rows rounds to both: the holdout would be empty
        ["sweep", "--rows", "2", "--iters", "5"],
        ["gen", "--seed", "-1", "--rows", "10"],
    ],
)
def test_bad_gen_or_sweep_setting_is_an_error_not_a_traceback(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert_clean_error(run_mars(*argv, "--out", out), 1, "invalid")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_sweep_with_fewer_than_one_job_exits_1_before_generating(monkeypatch, capsys, tmp_path,
                                                                  jobs):
    from mars import synth

    def no_data(*args):
        raise AssertionError("data generated")

    monkeypatch.setattr(synth, "generate", no_data)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--rows", "50", "--jobs", jobs, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: invalid sweep setting: --jobs must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "sweep"])
def test_planting_that_fails_is_an_error_not_a_traceback(monkeypatch, capsys, tmp_path,
                                                         command):
    from mars import synth

    # a rule that covers every row: no redraw can leave some rows uncovered
    whole = synth.PlantedRule((synth.PlantedCondition(0, 0.0, 1.0),))
    monkeypatch.setattr(synth, "_draw_rule", lambda rng, spec: whole)
    out = tmp_path / "out.csv"
    argv = {"gen": ["gen", "--rows", "50", "--out", str(out)],
            "sweep": ["sweep", "--rows", "50", "--replicates", "1", "--grid", "1",
                      "--iters", "10", "--out", str(out)]}[command]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: could not plant 3 rules that cover some but not all of 50 rows\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["alpha_l", "theta", "beta_l"])
def test_model_with_overflowing_hyperparameter_exits_5(trained, tmp_path, key):
    tmp, model = trained
    doc = json.loads(Path(model).read_text())
    hp = doc["hyperparams"]
    hp[key] = [1e308] * len(hp["theta"]) if key == "theta" else 1e308
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    assert_clean_error(run_mars("predict", bad, tmp / "train.csv"), 5, "corrupt model file")


@pytest.mark.parametrize("label", [None, ["y"], 3], ids=["null", "list", "number"])
def test_model_with_a_non_string_label_exits_5(trained, tmp_path, label):
    tmp, model = trained
    doc = json.loads(Path(model).read_text())
    doc["label"] = label
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    assert_clean_error(run_mars("evaluate", bad, tmp / "train.csv"), 5, "is not a string")


def test_bins_out_of_range_is_an_error_not_a_traceback(trained, tmp_path):
    """--bins below 2 or past 1000 fails before any data is read or
    allocated; 1000 itself trains."""
    tmp, _ = trained
    model, sweep = tmp_path / "m.json", tmp_path / "sweep.csv"
    for bins in ("1", "1001", "1000000000"):
        argv = ["train", tmp / "train.csv", "--label", "y", "--out", model, "--bins", bins]
        assert_clean_error(run_mars(*argv), 1, "--bins", "1000")
        assert not model.exists()
        argv = ["sweep", "--rows", "50", "--bins", bins, "--out", sweep]
        assert_clean_error(run_mars(*argv), 1, "--bins", "1000")
        assert not sweep.exists()
    argv = ["train", tmp / "train.csv", "--label", "y", "--out", model, "--bins", "1000",
            "--iters", "5"]
    proc = run_mars(*argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(model.read_text())["training"]["discretization"]["n_bins"] == 1000


@pytest.mark.parametrize(
    "command, flag",
    [("gen", "--out"), ("gen", "--truth"), ("train", "--out"), ("train", "--runlog"),
     ("predict", "--out"), ("sweep", "--out")],
)
def test_output_in_missing_directory_is_an_error_not_a_traceback(trained, tmp_path, command,
                                                                 flag):
    tmp, model = trained
    missing = tmp_path / "no" / "such" / "file"
    outputs = {"--out": tmp_path / "out", "--truth": tmp_path / "truth.json",
               "--runlog": tmp_path / "runlog.jsonl"}
    outputs[flag] = missing
    argv = {
        "gen": ["gen", "--rows", "20", "--out", outputs["--out"], "--truth", outputs["--truth"]],
        "train": ["train", tmp / "train.csv", "--label", "y", "--iters", "5",
                  "--out", outputs["--out"], "--runlog", outputs["--runlog"]],
        "predict": ["predict", model, tmp / "train.csv", "--out", outputs["--out"]],
        "sweep": ["sweep", "--rows", "50", "--replicates", "1", "--grid", "1,100",
                  "--iters", "5", "--out", outputs["--out"]],
    }[command]
    assert_clean_error(run_mars(*argv), 1, str(missing), "does not exist")
    assert not any(path.exists() for path in outputs.values())


@pytest.mark.parametrize(
    "command, flag",
    [("gen", "--out"), ("gen", "--truth"), ("train", "--out"), ("train", "--runlog"),
     ("predict", "--out"), ("sweep", "--out")],
)
def test_output_symlink_into_a_missing_directory_fails_before_any_data(
        trained, tmp_path, monkeypatch, capsys, command, flag):
    from mars import synth

    def no_data(*args, **kwargs):
        raise AssertionError("data read or generated")

    for owner, name in ((RawTable, "from_csv"), (cli, "load_model"), (synth, "generate")):
        monkeypatch.setattr(owner, name, no_data)
    tmp, model = trained
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "no" / "x")
    outputs = {"--out": tmp_path / "out", "--truth": tmp_path / "truth.json",
               "--runlog": tmp_path / "runlog.jsonl"}
    outputs[flag] = link
    argv = {
        "gen": ["gen", "--rows", "20", "--out", outputs["--out"], "--truth", outputs["--truth"]],
        "train": ["train", tmp / "train.csv", "--label", "y", "--iters", "5",
                  "--out", outputs["--out"], "--runlog", outputs["--runlog"]],
        "predict": ["predict", model, tmp / "train.csv", "--out", outputs["--out"]],
        "sweep": ["sweep", "--rows", "50", "--replicates", "1", "--grid", "1,100",
                  "--iters", "5", "--out", outputs["--out"]],
    }[command]
    assert cli.main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {link}: directory ") and "does not exist" in err
    assert not any(path.exists() for path in outputs.values())


@pytest.mark.parametrize(
    "command, role",
    [("gen", "--out"), ("train", "csv"), ("train", "--out"), ("train", "--runlog"),
     ("train", "--hyper-config"), ("predict", "model"), ("predict", "csv"),
     ("predict", "--out"), ("sweep", "--out")],
)
def test_a_symlink_loop_fails_before_any_data(trained, tmp_path, monkeypatch, capsys, command,
                                             role):
    from mars import synth

    def no_data(*args, **kwargs):
        raise AssertionError("data read or generated")

    for owner, name in ((RawTable, "from_csv"), (cli, "load_model"), (synth, "generate")):
        monkeypatch.setattr(owner, name, no_data)
    tmp, model = trained
    loop = tmp_path / "loopA"
    loop.symlink_to(tmp_path / "loopB")
    (tmp_path / "loopB").symlink_to(loop)
    paths = {"csv": tmp / "train.csv", "model": model, "--out": tmp_path / "out",
             "--runlog": tmp_path / "runlog.jsonl", "--hyper-config": tmp_path / "hyper.cfg"}
    paths["--hyper-config"].write_text("beta_m = 7\n")
    paths[role] = loop
    argv = {
        "gen": ["gen", "--rows", "20", "--out", paths["--out"]],
        "train": ["train", paths["csv"], "--label", "y", "--iters", "5", "--out", paths["--out"],
                  "--runlog", paths["--runlog"], "--hyper-config", paths["--hyper-config"]],
        "predict": ["predict", paths["model"], paths["csv"], "--out", paths["--out"]],
        "sweep": ["sweep", "--rows", "50", "--replicates", "1", "--grid", "1,100",
                  "--iters", "5", "--out", paths["--out"]],
    }[command]
    assert cli.main([str(a) for a in argv]) == 1
    verb = "write" if role in ("--out", "--runlog") else "read"
    assert capsys.readouterr().err.startswith(f"error: cannot {verb} {loop}: ")
    assert not any(paths[r].exists() for r in ("--out", "--runlog"))


@pytest.mark.parametrize(
    "command, flag",
    [("gen", "--out"), ("gen", "--truth"), ("train", "--out"), ("train", "--runlog"),
     ("predict", "--out"), ("sweep", "--out")],
)
def test_output_name_the_os_rejects_is_an_error_not_a_traceback(trained, tmp_path, command,
                                                                flag):
    tmp, model = trained
    too_long = tmp_path / ("x" * 300)
    outputs = {"--out": tmp_path / "out", "--truth": tmp_path / "truth.json",
               "--runlog": tmp_path / "runlog.jsonl"}
    outputs[flag] = too_long
    argv = {
        "gen": ["gen", "--rows", "20", "--out", outputs["--out"], "--truth", outputs["--truth"]],
        "train": ["train", tmp / "train.csv", "--label", "y", "--iters", "5",
                  "--out", outputs["--out"], "--runlog", outputs["--runlog"]],
        "predict": ["predict", model, tmp / "train.csv", "--out", outputs["--out"]],
        "sweep": ["sweep", "--rows", "50", "--replicates", "1", "--grid", "1,100",
                  "--iters", "5", "--out", outputs["--out"]],
    }[command]
    assert_clean_error(run_mars(*argv), 1, f"cannot write {too_long}")
    assert not any(path.exists() for path in outputs.values() if path != too_long)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize(
    "command, flag",
    [("gen", "--out"), ("gen", "--truth"), ("train", "--out"), ("train", "--runlog"),
     ("predict", "--out"), ("sweep", "--out"), ("show", "stdout"), ("predict", "stdout"),
     ("evaluate", "stdout"), ("gen", "stdout"), ("train", "stdout")],
)
def test_a_write_that_fails_is_an_error_not_a_traceback(trained, tmp_path, command, flag):
    # every write to /dev/full fails with ENOSPC, as on a full disk
    tmp, model = trained
    outputs = {"--out": tmp_path / "out", "--truth": tmp_path / "truth.json",
               "--runlog": tmp_path / "runlog.jsonl"}
    outputs[flag] = "/dev/full"
    # predict writes its predictions to standard output when it has no --out
    predict_out = [] if flag == "stdout" else ["--out", outputs["--out"]]
    argv = {
        "gen": ["gen", "--rows", "20", "--out", outputs["--out"], "--truth", outputs["--truth"]],
        # as many steps as the fixture's model took, so that it warns of nothing
        "train": ["train", tmp / "train.csv", "--label", "y", "--iters", "300", "--bins", "4",
                  "--out", outputs["--out"], "--runlog", outputs["--runlog"]],
        "predict": ["predict", model, tmp / "train.csv", *predict_out],
        "sweep": ["sweep", "--rows", "50", "--replicates", "1", "--grid", "100",
                  "--iters", "5", "--out", outputs["--out"]],
        "show": ["show", model],
        "evaluate": ["evaluate", model, tmp / "train.csv"],
    }[command]
    if flag != "stdout":
        proc = run_mars(*argv)
        assert_clean_error(proc, 1)
        assert proc.stderr == "error: cannot write /dev/full: No space left on device\n"
        return
    # unbuffered, the first write fails; buffered, the flush at the end does
    for unbuffered in ("1", ""):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(**mars_command(*argv, env={"PYTHONUNBUFFERED": unbuffered}),
                                  stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
        assert_clean_error(proc, 1)
        assert proc.stderr == "error: cannot write standard output: No space left on device\n"


def test_train_checks_output_paths_before_searching(trained, tmp_path, monkeypatch, capsys):
    tmp, _ = trained

    def search_must_not_run(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "run", search_must_not_run)
    out = tmp_path / "m.json"
    for flags in (["--out", tmp_path / "no" / "m.json"],
                  ["--out", out, "--runlog", tmp_path / "no" / "r.jsonl"],
                  ["--out", tmp_path]):
        argv = ["train", tmp / "train.csv", "--label", "y", *flags]
        assert cli.main([str(a) for a in argv]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["train", "{csv}", "--label", "y", "--out", "{new}", "--runlog", "{new}"],
         "as --runlog: it is also --out"),
        (["train", "{csv}", "--label", "y", "--out", "{csv}"], "the training CSV"),
        (["train", "{csv}", "--label", "y", "--out", "{new}", "--runlog", "{csv_alias}"],
         "the training CSV"),
        (["train", "{csv}", "--label", "y", "--hyper-config", "{hyper}", "--out", "{hyper}"],
         "--hyper-config"),
        (["predict", "{model}", "{csv}", "--out", "{csv}"], "the input CSV"),
        (["predict", "{model}", "{csv}", "--out", "{model}"], "the model"),
        (["gen", "--rows", "20", "--out", "{new}", "--truth", "{new}"],
         "as --truth: it is also --out"),
        (["sweep", "--rows", "50", "--replicates", "1", "--grid", "1,100", "--iters", "5",
          "--hyper-config", "{hyper}", "--out", "{hyper}"], "--hyper-config"),
    ],
    ids=["train-runlog-is-out", "train-out-is-csv", "train-runlog-is-csv-by-another-path",
         "train-out-is-hyper-config", "predict-out-is-csv", "predict-out-is-model",
         "gen-truth-is-out", "sweep-out-is-hyper-config"],
)
def test_output_that_is_an_input_or_another_output_is_an_error(trained, tmp_path, capsys,
                                                               argv, fragment):
    tmp, model = trained
    (tmp_path / "sub").mkdir()
    paths = {
        "csv": tmp_path / "train.csv",
        "csv_alias": tmp_path / "sub" / ".." / "train.csv",
        "model": tmp_path / "model.json",
        "hyper": tmp_path / "hyper.txt",
        "new": tmp_path / "new.out",
    }
    paths["csv"].write_bytes((tmp / "train.csv").read_bytes())
    paths["model"].write_bytes(model.read_bytes())
    paths["hyper"].write_text("alpha_m = 1\n")
    before = {name: paths[name].read_bytes() for name in ("csv", "model", "hyper")}
    assert cli.main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and fragment in err
    assert {name: paths[name].read_bytes() for name in before} == before
    assert not paths["new"].exists()


def test_train_and_gen_outputs_do_not_depend_on_hash_seed(trained, tmp_path):
    """Runlog, model, generated data and the sweep CSV (less its wall
    times) are byte-identical whatever the PYTHONHASHSEED; the training CSV
    has a categorical column, and the sweep runs its cells in two worker
    processes."""
    tmp, _ = trained
    outputs = set()
    for seed in ("0", "1", "2"):
        d = tmp_path / seed
        d.mkdir()
        env = {"PYTHONHASHSEED": seed}
        gen = run_mars("gen", "--rows", "200", "--features", "5", "--seed", "3",
                       "--out", d / "gen.csv", "--truth", d / "truth.json", env=env)
        assert gen.returncode == 0, gen.stderr
        train = run_mars("train", tmp / "train.csv", "--label", "y", "--iters", "200",
                         "--bins", "4", "--out", d / "m.json", env=env)
        assert train.returncode == 0, train.stderr
        sweep = run_mars("sweep", "--rows", "200", "--features", "4", "--rules", "1",
                         "--max-conditions", "2", "--grid", "1,100", "--replicates", "1",
                         "--iters", "200", "--bins", "4", "--jobs", "2",
                         "--out", d / "sweep.csv", env=env)
        assert sweep.returncode == 0, sweep.stderr
        sweep_rows = [row[:-1] for row in csv.reader((d / "sweep.csv").read_text().splitlines())]
        assert sweep_rows[0] == ["beta_M", "beta_L", "replicate", "holdout_error", "n_rules",
                                 "n_conditions", "n_values", "n_features"]
        files = ("gen.csv", "truth.json", "m.json", "m.json.runlog.jsonl")
        outputs.add((tuple((d / name).read_bytes() for name in files),
                     tuple(map(tuple, sweep_rows))))
    assert len(outputs) == 1


def test_predict_into_a_closed_pipe_exits_1_without_a_traceback(trained, tmp_path):
    """``mars predict ... | head -1``: the reader closes the pipe while more
    than a pipe buffer of predictions is still to be written."""
    _, model = trained
    rows = holdout_rows() * 4000
    holdout = write_csv(tmp_path / "big.csv", ["x", "c", "noise", "y"], rows)
    command = mars_command("predict", model, holdout)
    with subprocess.Popen(**command, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"prediction,rule_index\r\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert proc.returncode == 1
    assert stderr == b""


def test_literal_missing_marker_cell_is_missing_in_training(tmp_path):
    # a categorical cell spelled like the missing entry, and no blank cell
    rows = [["a", "0.1", 1], ["b", "0.5", 0], [MISSING, "0.9", 1], ["a", "0.2", 0]]
    train = write_csv(tmp_path / "train.csv", ["c", "x", "label"], rows)
    model = tmp_path / "m.json"
    proc = run_mars("train", train, "--label", "label", "--out", model, "--iters", "20",
                    "--bins", "2")
    assert proc.returncode == 0, proc.stderr
    assert load_model(model).features[0].categories == ("a", "b", MISSING)


def test_csv_with_only_the_label_column_exits_2(tmp_path):
    train = write_csv(tmp_path / "train.csv", ["label"], [[1], [0], [1]])
    out = tmp_path / "m.json"
    assert_clean_error(run_mars("train", train, "--label", "label", "--out", out), 2,
                       "no feature columns")
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_cell_in_numeric_training_column_exits_2(tmp_path, cell):
    rows = [["0.1", 1], [cell, 0], ["0.5", 1], ["0.7", 0]]
    train = write_csv(tmp_path / "train.csv", ["x", "label"], rows)
    out = tmp_path / "m.json"
    assert_clean_error(run_mars("train", train, "--label", "label", "--out", out), 2,
                       "column 'x'", f"non-finite value {cell!r}")
    assert not out.exists()


@pytest.fixture
def reads_only_c(tmp_path):
    """A model over x, c, k and noise whose one rule reads c alone: c in {a, b}."""
    features = [
        FeatureSpec("x", intervals=((0.0, 0.5), (0.5, 1.0))),
        FeatureSpec("c", categories=("a", "b", "c", MISSING)),
        FeatureSpec("k", categories=("p", "q")),
        FeatureSpec("noise", intervals=((0.0, 0.5), (0.5, 1.0))),
    ]
    model = tmp_path / "reads_c.json"
    rules = RuleSet((Rule.of({1: [0, 1]}),))
    save_model(model, features, rules, Hyperparams.defaults(4), "y", {})
    return model


def unread_rows():
    return [["0.1", "a", "p", "0.5", 1], ["7", "c", "q", "-3", 0], ["", "b", "p", "?", 1],
            ["0.6", "zz", "q", "0.2", 0], ["0.2", "", "p", "nan", 0]]


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_unread_numeric_column_is_still_checked(reads_only_c, tmp_path, capsys, command):
    rows = unread_rows()
    rows[3][3] = "abc"
    bad = write_csv(tmp_path / "bad.csv", ["x", "c", "k", "noise", "y"], rows)
    assert cli.main([command, str(reads_only_c), str(bad)]) == 2
    assert capsys.readouterr().err == "error: column 'noise': non-numeric value 'abc'\n"

    short = write_csv(tmp_path / "short.csv", ["x", "c", "k", "y"],
                      [row[:3] + row[4:] for row in unread_rows()])
    assert cli.main([command, str(reads_only_c), str(short)]) == 4
    assert capsys.readouterr().err == (
        "error: input is missing model feature column(s): noise\n")


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_text_in_an_unread_categorical_column_changes_no_prediction(reads_only_c, tmp_path,
                                                                    capsys, command):
    header = ["x", "c", "k", "noise", "y"]
    plain = write_csv(tmp_path / "plain.csv", header, unread_rows())
    odd_texts = ["never seen", "", MISSING, "ünï, \"quoted\"", "1e400"]
    odd = write_csv(tmp_path / "odd.csv", header,
                    [row[:2] + [text] + row[3:] for row, text in zip(unread_rows(), odd_texts)])
    assert cli.main([command, str(reads_only_c), str(plain)]) == 0
    expected = capsys.readouterr().out
    assert cli.main([command, str(reads_only_c), str(odd)]) == 0
    assert capsys.readouterr().out == expected

    m = load_model(reads_only_c)
    encoded = encode_with_specs(RawTable.from_csv(odd).columns(), m.features,
                                range(len(m.features)))
    hit = first_covering_rule(m.rules, encoded)
    assert hit.tolist() == [0, -1, 0, -1, -1]
    if command == "predict":
        assert expected.splitlines() == ["prediction,rule_index", "1,0", "0,-1", "1,0", "0,-1",
                                         "0,-1"]
