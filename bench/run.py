"""MARS benchmark: train/predict speed and MAP-search quality.

    python3 bench/run.py --workload synth-5k --seed 1 --seconds 20 --trace 0

Generates the workload's inputs, then runs measured cycles of
``mars train`` / ``mars predict`` / ``mars evaluate`` (``bench/cycle.py``,
one fresh process each, serial search, ``MARS_THREADS`` unset) until
``--seconds`` have passed and the workload's minimum ran.  Consecutive cycles
run under different ``PYTHONHASHSEED`` values and must write byte-identical
models and runlogs.  Every output is checked against independent
recomputations (``bench/workloads.py``); a failed check counts the
operation as failed, it does not end the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced cycle and prints the per-layer metrics from the
traced one's spans.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See ``bench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import Spans  # noqa: E402

CYCLE_TIMEOUT_S = 170.0
RUN_BUDGET_S = 150.0  # no new cycle starts once a run is this old
DEFAULT_ITERS = 10_000

UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "search_ms_per_step": "ms",
    "predict_rows_per_s": "rows/s",
    "best_log_posterior": "nats",
    "truth_gap": "nats",
    "train_accuracy": "fraction",
    "holdout_accuracy": "fraction",
    "peak_rss_mb": "MB",
}


class Cycle:
    """One child process's outcome plus the parent's verdict on it."""

    def __init__(self, index: int, plan: list[str], result: dict | None, out_dir: Path) -> None:
        self.index = index
        self.plan = plan  # the operations the cycle runs, in order
        self.result = result
        self.out_dir = out_dir
        self.failed: set[int] = set()  # indices into plan
        self.notes: list[str] = []

    @property
    def clean(self) -> bool:
        return self.result is not None and not self.failed


def run_cycle(index: int, w: wl.Workload, inputs: wl.Inputs, work: Path, trace: bool,
              timeout: float) -> Cycle:
    """One cycle in a fresh process; every cycle after the first skips
    ``mars evaluate``, every traced one the extra set-ups and predicts."""
    out_dir = work / f"cycle{index}"
    predict_reps = 1 if trace else w.predict_reps
    evaluate = index == 0
    plan = ["train"] + ["predict"] * predict_reps + ["evaluate"] * evaluate
    spec = {
        "out_dir": str(out_dir),
        "train_csv": str(inputs.train_csv),
        "holdout_csv": str(inputs.holdout_csv),
        "label": wl.LABEL,
        "train_flags": list(w.train_flags),
        "setup_reps": 0 if trace else w.setup_reps,
        "predict_reps": predict_reps,
        "evaluate": evaluate,
        "trace": trace,
        "result": str(work / f"result{index}.json"),
    }
    spec_path = work / f"spec{index}.json"
    spec_path.write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if k != "MARS_THREADS"}
    # a different hash seed for every cycle: outputs must not depend on it
    env["PYTHONHASHSEED"] = str(index + 1)
    cycle = Cycle(index, plan, None, out_dir)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "cycle.py"), str(spec_path)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        cycle.notes.append(f"cycle {index}: timed out after {timeout:.0f} s")
        return cycle
    if proc.returncode == 0:
        cycle.result = json.loads(Path(spec["result"]).read_text())
    if proc.stderr.strip():
        cycle.notes.append(f"cycle {index} stderr:\n{proc.stderr.strip()}")
    return cycle


def read_runlog(path: Path, n_iter: int) -> tuple[list[dict], int, int]:
    """Records, annealing steps taken (from chain_start/stall_restart), and
    the global step whose proposal became the final best (0 when the
    initial random rule set was never beaten)."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    steps: dict[int, int] = {}
    best_at = 0
    for r in records:
        if r["event"] == "chain_start":
            steps[r["chain"]] = n_iter
        elif r["event"] == "stall_restart":
            steps[r["chain"]] = r["t"]
        elif r["event"] == "improve" and steps:
            best_at = sum(n for c, n in steps.items() if c < r["chain"]) + r["t"] + 1
    return records, sum(steps.values()), best_at


def n_iter_of(flags: tuple[str, ...]) -> int:
    if "--iters" in flags:
        return int(flags[flags.index("--iters") + 1])
    return DEFAULT_ITERS


class Checker:
    """Checks every cycle's outputs; caches recomputations per model digest."""

    def __init__(self, inputs: wl.Inputs, ref: wl.Reference) -> None:
        self.inputs = inputs
        self.ref = ref
        self.digests: tuple[str, str] | None = None
        self.doc: dict | None = None
        self.expected: list[tuple[int, int]] | None = None
        self.train_accuracy = self.holdout_accuracy = float("nan")

    def _first_model(self, cycle: Cycle) -> None:
        doc = json.loads((cycle.out_dir / "model.json").read_text())
        self.doc = doc
        self.expected = wl.expected_predictions(doc, self.inputs)
        preds = np.array([p for p, _ in self.expected], dtype=bool)
        self.holdout_accuracy = float((preds == self.inputs.holdout_labels).mean())
        lp, conf = wl.rescore(doc, self.ref)
        tp, fp, tn, fn = conf
        self.train_accuracy = (tp + tn) / (tp + fp + tn + fn)
        recorded = doc["training"]
        self.rescore_ok = (
            wl.posterior_matches(recorded["log_posterior"], lp)
            and recorded["confusion"] == {"tp": tp, "fp": fp, "tn": tn, "fn": fn}
        )
        self.rescore_note = (
            f"recorded log-posterior {recorded['log_posterior']!r} confusion "
            f"{recorded['confusion']}, oracle {lp!r} {conf}"
        )

    def check(self, cycle: Cycle) -> None:
        ops = cycle.result["ops"] if cycle.result else []
        for k in range(len(cycle.plan)):
            if k >= len(ops) or not ops[k][1]:
                cycle.failed.add(k)
        if 0 not in cycle.failed:
            r = cycle.result
            digests = (r["model_sha256"], r["runlog_sha256"])
            if self.digests is None:
                self.digests = digests
                self._first_model(cycle)
            if digests != self.digests:
                cycle.failed.add(0)
                cycle.notes.append(f"cycle {cycle.index}: model/runlog digest {digests} "
                                   f"differs from the first cycle's {self.digests}")
            elif not self.rescore_ok:
                cycle.failed.add(0)
                cycle.notes.append(f"cycle {cycle.index}: oracle re-score mismatch: "
                                   f"{self.rescore_note}")
        if 0 in cycle.failed:
            # nothing after a failed train can be checked
            cycle.failed.update(range(len(cycle.plan)))
            return

        predicts = [k for k, op in enumerate(cycle.plan) if op == "predict"]
        for i, k in enumerate(predicts):
            if k in cycle.failed:
                continue
            got = wl.read_predictions(cycle.out_dir / f"predictions{i}.csv")
            bad = sum(1 for a, b in zip(got, self.expected) if a != b)
            bad += abs(len(got) - len(self.expected))
            if bad:
                cycle.failed.add(k)
                cycle.notes.append(f"cycle {cycle.index}: predict {i}: {bad} rows differ")
        if "evaluate" in cycle.plan and cycle.plan.index("evaluate") not in cycle.failed:
            text = cycle.result["evaluate_stdout"]
            acc = re.search(r"^accuracy: ([0-9.]+)$", text, re.M)
            rows = re.search(r"^rows: (\d+)$", text, re.M)
            if (acc is None or rows is None
                    or int(rows.group(1)) != len(self.expected)
                    or abs(float(acc.group(1)) - self.holdout_accuracy) > 5e-5):
                cycle.failed.add(cycle.plan.index("evaluate"))
                cycle.notes.append(f"cycle {cycle.index}: evaluate printed {text!r}, "
                                   f"expected accuracy {self.holdout_accuracy:.6f}")


def end_to_end(cycles: list[Cycle], checker: Checker, ref: wl.Reference, w: wl.Workload) -> dict:
    """Times are medians over the run's samples; rates are total work over
    total time, which averages over the machine's fast and slow spells
    where a median of a few samples would jump between them."""
    ok = [c for c in cycles if c.clean]
    # clean cycles share one runlog digest, so one step count
    _, steps, _ = read_runlog(ok[0].out_dir / "runlog.jsonl", n_iter_of(w.train_flags))
    predict_s = [s for c in ok for s in c.result["predict_s"]]
    best = checker.doc["training"]["log_posterior"]
    return {
        "setup_s": statistics.median(s for c in ok for s in c.result["setup_s"]),
        "train_s": statistics.median(c.result["train_s"] for c in ok),
        "search_ms_per_step": sum(c.result["search_s"] for c in ok) * 1e3 / (steps * len(ok)),
        "predict_rows_per_s": w.holdout_rows * len(predict_s) / sum(predict_s),
        "best_log_posterior": best,
        "truth_gap": ref.truth_log_posterior - best,
        "train_accuracy": checker.train_accuracy,
        "holdout_accuracy": checker.holdout_accuracy,
        "peak_rss_mb": statistics.median(c.result["peak_rss_mb"] for c in ok),
    }


def per_layer(untraced: Cycle, traced: Cycle, ref: wl.Reference, w: wl.Workload,
              failed_fraction: float) -> dict:
    """Per-layer metrics from the traced cycle's spans: (value, unit)."""
    n_iter = n_iter_of(w.train_flags)
    records, steps, best_at = read_runlog(traced.out_dir / "runlog.jsonl", n_iter)
    sp = Spans(traced.out_dir / "spans.npz")
    stalls = sum(1 for r in records if r["event"] == "stall")

    def ms_per_step(name):
        return sp.self_s(name) * 1e3 / steps, "ms/step"

    def calls_per_step(name):
        return sp.calls(name) / steps, "calls/step"

    step_ms = sp.durations("search.anneal_step") * 1e3
    traced_ms = sp.durations("search.run").sum() * 1e3 / steps
    # same digest, so the same step count
    untraced_ms = untraced.result["search_s"] * 1e3 / steps
    bounds = traced.result.get("bounds", {})
    m = {
        "data.from_csv_s": (sp.self_s("data.from_csv", "op.train"), "s"),
        "data.discretize_s": (sp.self_s("data.discretize", "op.train"), "s"),
        "data.mask_build_s": (sp.self_s("data.mask_build", "op.train"), "s"),
        "data.encode_s": (sp.self_s("data.encode", "op.predict"), "s"),
        "cli.predict_self_s": (sp.self_s("cli.predict", "op.predict"), "s"),
        "model_io.save_s": (sp.self_s("model_io.save", "op.train"), "s"),
        "model_io.load_s": (sp.self_s("model_io.load", "op.predict"), "s"),
        "search.steps": (steps, "steps"),
        "search.step_samples": (int(step_ms.size), "count"),
        "search.step_ms_p50": (float(np.percentile(step_ms, 50)), "ms"),
        "search.step_ms_p99": (float(np.percentile(step_ms, 99)), "ms"),
        "search.propose_self_ms": ms_per_step("search.propose"),
        "search.step_self_ms": ms_per_step("search.anneal_step"),
        "model.normalize_ms": ms_per_step("model.normalize"),
        "model.normalize_calls": calls_per_step("model.normalize"),
        "model.is_normalized_ms": ms_per_step("model.is_normalized"),
        "scoring.log_prior_ms": ms_per_step("scoring.log_prior"),
        "scoring.log_prior_calls": calls_per_step("scoring.log_prior"),
        "scoring.log_likelihood_ms": ms_per_step("scoring.log_likelihood"),
        "scoring.confusion_from_mask_ms": ms_per_step("scoring.confusion_from_mask"),
        "data.rule_mask_ms": ms_per_step("data.rule_mask"),
        "data.rule_mask_calls": calls_per_step("data.rule_mask"),
        "bitset.kth_set_bit_ms": ms_per_step("bitset.kth_set_bit"),
        "bitset.indices_ms": ms_per_step("bitset.indices"),
        "scoring.update_confusion_ms": ms_per_step("scoring.update_confusion"),
        # _accept calls update_confusion exactly once per accepted proposal
        "search.accept_ratio": (sp.calls("scoring.update_confusion") / max(steps - stalls, 1),
                                "ratio"),
        "search.stall_ratio": (stalls / steps, "ratio"),
        "search.improve_events": (sum(1 for r in records if r["event"] == "improve"), "count"),
        "search.steps_to_best": (best_at, "steps"),
        "data.rule_mask_calls_per_candidate": (
            sp.calls("data.rule_mask") / max(sp.calls("scoring.log_prior"), 1), "ratio"),
        "bounds.update_calls": (sp.calls("bounds.update_bounds"), "count"),
        "bounds.min_support_final": (bounds.get("min_support") or 0, "rows"),
        "bounds.m_cap_final": (bounds.get("m_cap") or 0, "rules"),
        "trace.overhead_ratio": (traced_ms / untraced_ms, "ratio"),
        "ref.truth_log_posterior": (ref.truth_log_posterior, "nats"),
        "ref.empty_log_posterior": (ref.empty_log_posterior, "nats"),
        "failed_fraction": (failed_fraction, "fraction"),
    }
    return {k: (float(v), u) for k, (v, u) in m.items()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes (bench/test_bench.py)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_begin = time.perf_counter()
    w = wl.WORKLOADS[args.workload]
    if args.tiny:
        w = wl.tiny(w)
    work = BENCH / ".work" / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = wl.make_inputs(w, args.seed, work)
        ref = wl.reference(inputs)
        checker = Checker(inputs, ref)
        cycles: list[Cycle] = []

        def next_cycle(trace: bool) -> Cycle:
            left = CYCLE_TIMEOUT_S - (time.perf_counter() - t_begin)
            cycle = run_cycle(len(cycles), w, inputs, work, trace, max(left, 1.0))
            checker.check(cycle)
            cycles.append(cycle)
            return cycle

        if args.trace:
            untraced = next_cycle(False)
            traced = next_cycle(True)
        else:
            t_measure = time.perf_counter()
            while len(cycles) < w.cycles or (
                time.perf_counter() - t_measure < args.seconds
                and time.perf_counter() - t_begin < RUN_BUDGET_S
            ):
                next_cycle(False)

        attempted = sum(len(c.plan) for c in cycles)
        failed = sum(len(c.failed) for c in cycles)
        for c in cycles:
            for note in c.notes:
                print(note, file=sys.stderr)
        metrics = {}
        if args.trace:
            if untraced.clean and traced.clean:
                metrics = per_layer(untraced, traced, ref, w, failed / attempted)
        elif any(c.clean for c in cycles):
            metrics = {k: (v, UNITS[k]) for k, v in end_to_end(cycles, checker, ref, w).items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {w.name}  seed {args.seed}  cycles {len(cycles)}  "
          f"truth {ref.truth_log_posterior:.4f}  empty {ref.empty_log_posterior:.4f} nats")
    for c in cycles:
        if c.result is not None and "search_s" in c.result:
            r = c.result
            print(f"  cycle {c.index}: setup {' '.join(f'{s:.3f}' for s in r['setup_s'])} s  "
                  f"train {r['train_s']:.3f} s  search {r['search_s']:.3f} s  "
                  f"predict {' '.join(f'{s:.3f}' for s in r['predict_s'])} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
