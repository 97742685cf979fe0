"""Command-line behaviour: predict/evaluate on a tiny trained model, and
every user input error ending in an error line and exit code."""

import contextlib
import csv
import io
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
from mars.data import MISSING, RawTable, encode_with_specs
from mars.model import rule_covers
from mars.model_io import load_model
from mars.scoring import Hyperparams

SRC = str(Path(mars.__file__).resolve().parents[1])


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def run_mars(*argv, env=None):
    """``mars ARGV`` in a fresh interpreter, as a user runs it."""
    path = [SRC, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p), **(env or {})}
    return subprocess.run(
        [sys.executable, "-m", "mars.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


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
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert load_model(model).rules.n_rules >= 1
    return tmp, model


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
    rows = encode_with_specs(RawTable.from_csv(holdout), m.features)
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
        (["--hyper-config", "{cfg}"], "beta_m = 1,2\n", "beta_m"),  # one value per feature: theta only
        (["--hyper-config", "{cfg}"], "theta = 1,2\n", "theta has 2 entries for 3 features"),
        # non-finite values: inf once reached bounds.update_bounds as a traceback
        (["--alpha-pos", "inf"], None, "alpha_pos"),
        (["--beta-m", "inf"], None, "beta_m"),
        (["--beta-l", "inf"], None, "beta_l"),
        (["--alpha-l", "nan"], None, "alpha_l"),
        (["--theta", "inf"], None, "theta"),
        (["--hyper-config", "{cfg}"], "theta = 1,1,inf\n", "theta"),
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


def test_train_help_offers_one_flag_per_hyperparameter(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["train", "--help"])
    assert info.value.code == 0
    listed = re.findall(r"^\s+(--[a-z][a-z-]*)", capsys.readouterr().out, re.M)
    names = [f.name for f in fields(Hyperparams)]
    hyper_flags = [flag for flag in listed if flag[2:].replace("-", "_") in names]
    assert sorted(hyper_flags) == sorted("--" + name.replace("_", "-") for name in names)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--rows", "0"],
        ["gen", "--max-conditions", "99"],
        ["sweep", "--grid", "1,x"],
        ["sweep", "--replicates", "0"],
    ],
)
def test_bad_gen_or_sweep_setting_is_an_error_not_a_traceback(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert_clean_error(run_mars(*argv, "--out", out), 1, "invalid")
    assert not out.exists()


def test_bins_below_two_is_an_error_not_a_traceback(trained, tmp_path):
    tmp, _ = trained
    out = tmp_path / "m.json"
    argv = ["train", tmp / "train.csv", "--label", "y", "--out", out, "--bins", "1"]
    assert_clean_error(run_mars(*argv), 1, "--bins")
    assert not out.exists()
    out = tmp_path / "sweep.csv"
    assert_clean_error(run_mars("sweep", "--rows", "50", "--bins", "1", "--out", out), 1, "--bins")
    assert not out.exists()


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


def test_train_and_gen_outputs_do_not_depend_on_hash_seed(trained, tmp_path):
    """Runlog, model and generated data are byte-identical whatever the
    PYTHONHASHSEED; the training CSV has a categorical column."""
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
        files = ("gen.csv", "truth.json", "m.json", "m.json.runlog.jsonl")
        outputs.add(tuple((d / name).read_bytes() for name in files))
    assert len(outputs) == 1


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
