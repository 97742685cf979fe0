"""Command-line interface: train, predict, evaluate, show, sweep, gen."""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import synth
from .data import RawTable, discretize, encode_with_specs, parse_labels
from .errors import DataFormatError, MarsError
from .model import first_covering_rule
from .model_io import load_model, render_rules, save_model, training_metadata
from .scoring import HYPER_KEYS, Hyperparams
from .search import SearchConfig, run

log = logging.getLogger(__name__)

# a hyperparameter declared as a tuple takes one value per feature
_PER_FEATURE_KEYS = frozenset(f.name for f in fields(Hyperparams) if f.type.startswith("tuple"))


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--iters", type=int, default=10_000, help="annealing steps per chain")
    p.add_argument("--t0", type=float, default=100.0, help="initial temperature")
    p.add_argument("--explore", type=float, default=0.1, help="exploration probability")
    p.add_argument("--restarts", type=int, default=1, help="extra chains beyond the first")
    p.add_argument("--neighbor-budget", type=int, default=50,
                   help="max neighbors evaluated per action")


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hyper-config", default=None,
                   help="flat key=value file overriding hyperparameter defaults")
    for key in HYPER_KEYS:
        flag = "--" + key.replace("_", "-")
        p.add_argument(flag, type=float, default=None, help=f"hyperparameter {key}")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bins", type=int, default=10, help="intervals per numeric feature")
    p.add_argument("--scheme", choices=("width", "frequency"), default="width",
                   help="numeric binning scheme")


def _search_config(args) -> SearchConfig:
    try:
        return SearchConfig(
            n_iter=args.iters,
            t0=args.t0,
            explore_prob=args.explore,
            random_seed=args.seed,
            n_restarts=args.restarts,
            neighbor_budget=args.neighbor_budget,
        )
    except ValueError as exc:
        raise MarsError(f"invalid search setting: {exc}") from exc


def _check_bins(args) -> None:
    if args.bins < 2:
        raise MarsError(f"invalid data setting: --bins must be at least 2, got {args.bins}")


def _check_writable(*paths) -> None:
    """Fail before any work is done when an output file cannot be created."""
    for path in paths:
        if path is None:
            continue
        if Path(path).is_dir():
            raise MarsError(f"cannot write {path}: it is a directory")
        parent = Path(path).parent
        if not parent.is_dir():
            raise MarsError(f"cannot write {path}: directory {parent} does not exist")


def _parse_hyper_file(path) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
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


def _hyperparams(args, n_features: int) -> Hyperparams:
    overrides = {}
    if getattr(args, "hyper_config", None):
        overrides.update(_parse_hyper_file(args.hyper_config))
    for key in HYPER_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    try:
        return Hyperparams.defaults(n_features, **overrides)
    except ValueError as exc:
        raise MarsError(f"invalid hyperparameter: {exc}") from exc


def cmd_train(args) -> int:
    cfg = _search_config(args)
    _check_bins(args)
    runlog_path = args.runlog or (str(args.out) + ".runlog.jsonl")
    _check_writable(args.out, runlog_path)
    table = RawTable.from_csv(args.csv, label_column=args.label)
    data = discretize(table, n_bins=args.bins, scheme=args.scheme)
    hyper = _hyperparams(args, data.n_features)
    rules, best, runlog = run(data, hyper, cfg)

    meta = training_metadata(cfg.random_seed, cfg.n_iter, best, data.n_rows)
    meta["discretization"] = {"n_bins": args.bins, "scheme": args.scheme}
    save_model(args.out, data.features, rules, hyper, data.label_name, meta)
    runlog.write(runlog_path)

    conf = best.confusion
    print(f"model written to {args.out}")
    print(f"runlog written to {runlog_path}")
    print(f"training accuracy: {conf.accuracy:.4f} "
          f"(tp={conf.tp} fp={conf.fp} tn={conf.tn} fn={conf.fn})")
    print(f"log-posterior: {best.log_posterior:.6f}")
    print(f"rules: {rules.n_rules}  conditions: {rules.n_conditions}  "
          f"values: {rules.n_values}  features: {rules.n_features}")
    return 0


def cmd_predict(args) -> int:
    _check_writable(args.out)
    model = load_model(args.model)
    table = RawTable.from_csv(args.csv)
    hit = first_covering_rule(model.rules, encode_with_specs(table, model.features))
    preds = zip((hit >= 0).astype(int).tolist(), hit.tolist())
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(sink)
        writer.writerow(["prediction", "rule_index"])
        writer.writerows(preds)
    finally:
        if args.out:
            sink.close()
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    label = args.label or model.label_name
    table = RawTable.from_csv(args.csv, label_column=label)
    rows = encode_with_specs(table, model.features)
    labels = parse_labels(table.columns()[label], label)
    if labels.size == 0:
        raise DataFormatError(f"{args.csv}: no data rows")
    preds = first_covering_rule(model.rules, rows) >= 0
    accuracy = float((preds == labels).mean())
    rules = model.rules
    print(f"rows: {len(labels)}")
    print(f"accuracy: {accuracy:.4f}")
    print(f"rules: {rules.n_rules}")
    print(f"conditions: {rules.n_conditions}")
    print(f"values: {rules.n_values}")
    print(f"features: {rules.n_features}")
    return 0


def cmd_show(args) -> int:
    model = load_model(args.model)
    sys.stdout.write(render_rules(model))
    return 0


def _synth_spec(args) -> synth.SynthSpec:
    try:
        return synth.SynthSpec(
            n_rows=args.rows,
            n_features=args.features,
            n_rules=args.rules,
            max_conditions=args.max_conditions,
            seed=args.seed,
        )
    except ValueError as exc:
        raise MarsError(f"invalid synthetic data setting: {exc}") from exc


def cmd_gen(args) -> int:
    spec = _synth_spec(args)
    _check_writable(args.out, args.truth)
    table, truth = synth.generate(spec)
    synth.write_table_csv(args.out, table)
    print(f"wrote {len(table.rows)} rows to {args.out}")
    if args.truth:
        import json

        doc = [
            [{"feature": table.names[c.feature], "lo": c.lo, "hi": c.hi} for c in r.conditions]
            for r in truth
        ]
        with open(args.truth, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote ground truth to {args.truth}")
    return 0


def cmd_sweep(args) -> int:
    spec = _synth_spec(args)
    try:
        grid = synth.SweepSpec(
            beta_grid=tuple(float(b) for b in args.grid.split(",")),
            replicates=args.replicates,
        )
    except ValueError as exc:
        raise MarsError(f"invalid sweep setting: {exc}") from exc
    base = _hyperparams(args, args.features)
    cfg = _search_config(args)
    _check_bins(args)
    _check_writable(args.out)
    records = synth.sweep(spec, grid, base, cfg, n_bins=args.bins, jobs=args.jobs)
    synth.write_metrics_csv(args.out, records)
    print(f"wrote {len(records)} sweep rows to {args.out}")
    for (bm, bl), stats in sorted(synth.cell_means(records).items()):
        print(
            f"beta_M={bm:g} beta_L={bl:g}: error={stats['holdout_error']:.4f} "
            f"values={stats['n_conditions']:.1f} features={stats['n_features']:.1f}"
        )
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
    _add_search_flags(p)
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
    p.add_argument("--rows", type=int, default=5000)
    p.add_argument("--features", type=int, default=15)
    p.add_argument("--rules", type=int, default=3)
    p.add_argument("--max-conditions", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None, help="ground-truth rules JSON path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="trade-off sweep over (beta_M, beta_L)")
    p.add_argument("--rows", type=int, default=5000)
    p.add_argument("--features", type=int, default=15)
    p.add_argument("--rules", type=int, default=3)
    p.add_argument("--max-conditions", type=int, default=4)
    p.add_argument("--grid", default="1,100,10000", help="comma-separated beta values")
    p.add_argument("--replicates", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out", required=True, help="metrics CSV path")
    _add_data_flags(p)
    _add_hyper_flags(p)
    _add_search_flags(p)
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
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
