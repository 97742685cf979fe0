"""Command-line interface: train, predict, evaluate, show, sweep, gen."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

from . import synth
from .data import MAX_BINS, N_BINS, SCHEMES, RawTable, discretize, encode_with_specs, parse_labels
from .errors import DataFormatError, MarsError
from .model import SIZES, first_covering_rule
from .model_io import load_model, render_rules, save_model, training_metadata
from .scoring import HYPER_KEYS, Hyperparams
from .search import SearchConfig, run

log = logging.getLogger(__name__)

# a hyperparameter declared as a tuple takes one value per feature
_PER_FEATURE_KEYS = frozenset(f.name for f in fields(Hyperparams) if f.type.startswith("tuple"))
# mars sweep sets these in each grid cell, from --grid
_GRID_KEYS = ("beta_m", "beta_l")


def _labeled_sizes(counts) -> list[tuple[str, float]]:
    """``(label, count)`` per name in ``SIZES``, labeled without its
    ``n_`` prefix, as train, evaluate and sweep print a model's size."""
    return [(name.removeprefix("n_"), counts[name]) for name in SIZES]


# The flags that set a dataclass's fields, as (dataclass, name in errors,
# {dest: (field, help)}): each flag is --dest with "-" for "_", and takes its
# default and its type from the field's default.
_SEARCH_FLAGS = SearchConfig, "search", {
    "seed": ("random_seed", "random seed (default %(default)s)"),
    "iters": ("n_iter", "annealing steps per chain"),
    "t0": ("t0", "initial temperature"),
    "explore": ("explore_prob", "exploration probability"),
    "restarts": ("n_restarts", "extra chains beyond the first"),
    "neighbor_budget": ("neighbor_budget", "max neighbors evaluated per action"),
}
_SYNTH_FLAGS = synth.SynthSpec, "synthetic data", {
    "rows": ("n_rows", "rows per generated table"),
    "features": ("n_features", "feature columns, each uniform on [0, 1)"),
    "rules": ("n_rules", "planted rules; a row is positive when one covers it"),
    "max_conditions": ("max_conditions", "most conditions in a planted rule"),
}


def _add_flags(p: argparse.ArgumentParser, table) -> None:
    cls, _, flags = table
    defaults = cls()
    for dest, (name, text) in flags.items():
        default = getattr(defaults, name)
        p.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default,
                       help=text)


def _settings(table, args, **given):
    """The table's dataclass, of the fields its flags map from ``args`` and
    of ``given``; a value it rejects is a MarsError naming the table."""
    cls, what, flags = table
    values = {name: getattr(args, dest) for dest, (name, _) in flags.items()}
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise MarsError(f"invalid {what} setting: {exc}") from exc


def _add_hyper_flags(p: argparse.ArgumentParser, grid_keys=()) -> None:
    """--hyper-config, and a flag per hyperparameter not in ``grid_keys``."""
    p.add_argument("--hyper-config", default=None,
                   help="flat key=value file overriding hyperparameter defaults")
    defaults = Hyperparams.defaults(1)
    for key in HYPER_KEYS:
        if key in grid_keys:
            continue
        value = getattr(defaults, key)
        shown = f"{value[0]:g} per feature" if key in _PER_FEATURE_KEYS else value
        p.add_argument("--" + key.replace("_", "-"), type=float, default=None,
                       help=f"hyperparameter {key} (default {shown})")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bins", type=int, default=N_BINS,
                   help=f"intervals per numeric feature, 2 to {MAX_BINS}")
    p.add_argument("--scheme", choices=SCHEMES, default=SCHEMES[0],
                   help="numeric binning scheme")


def _check_bins(args) -> None:
    if not 2 <= args.bins <= MAX_BINS:
        raise MarsError(
            f"invalid data setting: --bins must lie in [2, {MAX_BINS}], got {args.bins}"
        )


def _resolve(path: str, verb: str) -> Path:
    """``path`` with its symlinks followed.  A symlink loop, on which
    Python 3.11's ``Path.resolve`` raises RuntimeError, is a MarsError."""
    try:
        return Path(path).resolve()
    except (OSError, RuntimeError) as exc:
        raise MarsError(f"cannot {verb} {path}: {exc}") from exc


def _check_writable(outputs: dict[str, str | None], inputs: dict[str, str | None]) -> None:
    """Fail before any file is read when an input or output path cannot be
    resolved, when an output file cannot be created, or when an output is an
    input or another output: writing it would destroy that file.  Both maps
    go from a role, such as ``--out``, to a path or None."""
    claimed = {_resolve(path, "read"): role for role, path in inputs.items() if path is not None}
    for role, path in outputs.items():
        if path is None:
            continue
        resolved = _resolve(path, "write")
        try:
            if resolved.is_dir():
                raise MarsError(f"cannot write {path}: it is a directory")
            # the resolved parent: a symlink may point into a directory that is missing
            if not resolved.parent.is_dir():
                raise MarsError(f"cannot write {path}: directory {resolved.parent} does not exist")
        except OSError as exc:  # a name the OS refuses, say one too long
            raise MarsError(f"cannot write {path}: {exc.strerror}") from exc
        other = claimed.setdefault(resolved, role)
        if other != role:
            raise MarsError(f"cannot write {path} as {role}: it is also {other}")


@contextmanager
def _writing(path: str):
    """A failed write of ``path``, as to a full disk, is a MarsError."""
    try:
        yield
    except OSError as exc:
        raise MarsError(f"cannot write {path}: {exc.strerror}") from exc


def _drop_stdout() -> None:
    """Point stdout at /dev/null, so that the interpreter's final flush of
    what could not be written cannot raise again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@contextmanager
def _stdout():
    """Standard output for what a command prints, flushed at the end: a
    failed write, as to a full disk, is a MarsError.  A closed pipe is left
    to ``entrypoint``."""
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        _drop_stdout()
        raise MarsError(f"cannot write standard output: {exc.strerror}") from exc


def _parse_hyper_file(path) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise MarsError(f"cannot read hyperparameter file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise MarsError(f"{path}:{lineno}: expected key=value, got {line.rstrip()!r}")
        key, _, value = text.partition("=")
        key = key.strip().lower()
        if key not in HYPER_KEYS:
            raise MarsError(f"{path}:{lineno}: unknown hyperparameter {key!r}")
        try:
            if key in _PER_FEATURE_KEYS and "," in value:
                out[key] = tuple(float(v) for v in value.split(","))
            else:
                out[key] = float(value)
        except ValueError:
            raise MarsError(f"{path}:{lineno}: {key} is not a number: {value.strip()!r}") from None
    return out


def _hyperparams(args, n_features: int, grid_keys=()) -> Hyperparams:
    """The defaults, overridden by --hyper-config and then by the flags; the
    file may not set a key in ``grid_keys``."""
    overrides = _parse_hyper_file(args.hyper_config) if args.hyper_config else {}
    for key in grid_keys:
        if key in overrides:
            raise MarsError(f"invalid hyperparameter: {args.hyper_config} sets {key}, "
                            "which mars sweep takes from --grid")
    overrides.update({k: v for k in HYPER_KEYS if (v := getattr(args, k, None)) is not None})
    try:
        return Hyperparams.defaults(n_features, **overrides)
    except ValueError as exc:
        raise MarsError(f"invalid hyperparameter: {exc}") from exc


def cmd_train(args) -> int:
    cfg = _settings(_SEARCH_FLAGS, args)
    _check_bins(args)
    runlog_path = args.runlog or (str(args.out) + ".runlog.jsonl")
    _check_writable(
        {"--out": args.out, "--runlog": runlog_path},
        {"the training CSV": args.csv, "--hyper-config": args.hyper_config},
    )
    table = RawTable.from_csv(args.csv, label_column=args.label)
    data = discretize(table, n_bins=args.bins, scheme=args.scheme)
    hyper = _hyperparams(args, data.n_features)
    rules, best, runlog = run(data, hyper, cfg)

    meta = training_metadata(cfg.random_seed, cfg.n_iter, best, data.n_rows)
    meta["discretization"] = {"n_bins": args.bins, "scheme": args.scheme}
    with _writing(args.out):
        save_model(args.out, data.features, rules, hyper, data.label_name, meta)
    with _writing(runlog_path):
        runlog.write(runlog_path)

    conf = best.confusion
    majority = max(conf.n_pos, conf.n_neg) / (conf.n_pos + conf.n_neg)
    with _stdout():
        print(f"model written to {args.out}")
        print(f"runlog written to {runlog_path}")
        print(f"training accuracy: {conf.accuracy:.4f} "
              f"(tp={conf.tp} fp={conf.fp} tn={conf.tn} fn={conf.fn})")
        print(f"majority-class rate: {majority:.4f}")
        if conf.accuracy < majority:
            log.warning("training accuracy %.4f is below the majority-class rate %.4f: the "
                        "search may have ended in a rule set that covers the negatives; try "
                        "another --seed or more --restarts", conf.accuracy, majority)
        if conf.tn == conf.fn == 0 or conf.tp == conf.fp == 0:
            log.warning("the model covers %s training rows, so it predicts one class for "
                        "every row; if a rule set should do better, try another --seed or "
                        "more --restarts", "all" if conf.tn == conf.fn == 0 else "no")
        print(f"log-posterior: {best.log_posterior:.6f}")
        print("  ".join(f"{label}: {n}" for label, n in _labeled_sizes(rules.sizes())))
    return 0


def cmd_predict(args) -> int:
    _check_writable({"--out": args.out}, {"the model": args.model, "the input CSV": args.csv})
    model = load_model(args.model)
    table = RawTable.from_csv(args.csv)
    rows = encode_with_specs(table.columns(), model.features, model.rules.feature_ids)
    hit = first_covering_rule(model.rules, rows)
    preds = [("prediction", "rule_index"), *zip((hit >= 0).astype(int).tolist(), hit.tolist())]
    if not args.out:
        with _stdout():
            csv.writer(sys.stdout).writerows(preds)
        return 0
    with _writing(args.out), open(args.out, "w", newline="") as sink:
        csv.writer(sink).writerows(preds)
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    label = args.label or model.label_name
    table = RawTable.from_csv(args.csv, label_column=label)
    columns = table.columns()
    rows = encode_with_specs(columns, model.features, model.rules.feature_ids)
    labels = parse_labels(columns[label], label)
    if labels.size == 0:
        raise DataFormatError(f"{args.csv}: no data rows")
    preds = first_covering_rule(model.rules, rows) >= 0
    accuracy = float((preds == labels).mean())
    with _stdout():
        print(f"rows: {len(labels)}")
        print(f"accuracy: {accuracy:.4f}")
        for label, n in _labeled_sizes(model.rules.sizes()):
            print(f"{label}: {n}")
    return 0


def cmd_show(args) -> int:
    model = load_model(args.model)
    with _stdout():
        sys.stdout.write(render_rules(model))
    return 0


def cmd_gen(args) -> int:
    spec = _settings(_SYNTH_FLAGS, args, seed=args.seed)
    if spec.seed < 0:
        # numpy seeds a generator from non-negative integers only; a sweep
        # takes any seed, as it seeds each replicate with a hash of it
        raise MarsError(
            f"invalid synthetic data setting: --seed must be non-negative, got {spec.seed}"
        )
    _check_writable({"--out": args.out, "--truth": args.truth}, {})
    table, truth = synth.generate(spec)
    with _writing(args.out):
        synth.write_table_csv(args.out, table)
    if args.truth:
        doc = [
            [{"feature": table.names[c.feature], "lo": c.lo, "hi": c.hi} for c in r.conditions]
            for r in truth
        ]
        with _writing(args.truth), open(args.truth, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    with _stdout():
        print(f"wrote {len(table.rows)} rows to {args.out}")
        if args.truth:
            print(f"wrote ground truth to {args.truth}")
    return 0


def cmd_sweep(args) -> int:
    spec = _settings(_SYNTH_FLAGS, args, seed=args.seed)
    try:
        grid = synth.SweepSpec(
            beta_grid=tuple(float(b) for b in args.grid.split(",")),
            replicates=args.replicates,
        )
        synth.train_size(spec.n_rows)
    except ValueError as exc:
        raise MarsError(f"invalid sweep setting: {exc}") from exc
    if args.jobs < 1:
        raise MarsError("invalid sweep setting: --jobs must be at least 1")
    _check_writable({"--out": args.out}, {"--hyper-config": args.hyper_config})
    base = _hyperparams(args, args.features, _GRID_KEYS)
    try:
        for beta_m in grid.beta_grid:
            for beta_l in grid.beta_grid:
                replace(base, beta_m=beta_m, beta_l=beta_l)
    except ValueError as exc:
        raise MarsError(f"invalid hyperparameter in --grid: {exc}") from exc
    cfg = _settings(_SEARCH_FLAGS, args)
    _check_bins(args)
    records = synth.sweep(spec, grid, base, cfg, n_bins=args.bins, scheme=args.scheme,
                          jobs=args.jobs)
    with _writing(args.out):
        synth.write_metrics_csv(args.out, records)
    with _stdout():
        print(f"wrote {len(records)} sweep rows to {args.out}")
        for (bm, bl), stats in sorted(synth.cell_means(records).items()):
            sizes = " ".join(f"{label}={n:.1f}" for label, n in _labeled_sizes(stats))
            print(f"beta_M={bm:g} beta_L={bl:g}: error={stats['holdout_error']:.4f} {sizes}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mars",
        description="Learn and apply multi-value rule set classifiers.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="verbose logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="learn a model from a labeled CSV")
    p.add_argument("csv")
    p.add_argument("--label", required=True, help="name of the binary label column")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--runlog", default=None, help="JSON-lines run log path")
    _add_data_flags(p)
    _add_hyper_flags(p)
    _add_flags(p, _SEARCH_FLAGS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify rows with a trained model")
    p.add_argument("model")
    p.add_argument("csv")
    p.add_argument("--out", default=None, help="predictions CSV (default stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="accuracy and size metrics on a labeled CSV")
    p.add_argument("model")
    p.add_argument("csv")
    p.add_argument("--label", default=None, help="label column (default: from model)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("show", help="print the model's rules")
    p.add_argument("model")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("gen", help="generate planted-truth synthetic data")
    _add_flags(p, _SYNTH_FLAGS)
    p.add_argument("--seed", type=int, default=synth.SynthSpec().seed)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None, help="ground-truth rules JSON path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="trade-off sweep over (beta_M, beta_L)")
    _add_flags(p, _SYNTH_FLAGS)
    grid = synth.SweepSpec()
    p.add_argument("--grid", default=",".join(f"{b:g}" for b in grid.beta_grid),
                   help="comma-separated values; a model is trained for each "
                        "(beta_M, beta_L) pair of them")
    p.add_argument("--replicates", type=int, default=grid.replicates,
                   help="generated tables; each trains a model per grid cell")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out", required=True, help="metrics CSV path")
    _add_data_flags(p)
    _add_hyper_flags(p, _GRID_KEYS)
    _add_flags(p, _SEARCH_FLAGS)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except MarsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe, as ``| head`` does
        _drop_stdout()
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
