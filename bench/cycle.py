"""One measured cycle of a workload: ``mars train``, ``predict`` and ``evaluate``.

Run as ``python3 bench/cycle.py SPEC.json`` by ``bench/run.py``, one fresh
process per cycle so that every cycle starts as a user's command would and
can run under its own ``PYTHONHASHSEED``.  The commands are called
in-process through ``mars.cli.main``; the search is serial.  A cycle runs
``setup_reps`` set-up-only trains, one full train, ``predict_reps``
predicts and, if asked, one evaluate.  It writes its timings, exit
statuses and output digests to the spec's result path and, when traced,
its spans to ``spans.npz`` in its output directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mars import cli  # noqa: E402

from tracing import Tracer  # noqa: E402  (bench/ is this script's directory)


class _SetupDone(Exception):
    """Raised in place of the search to end a set-up-only ``mars train``."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _call(argv: list[str]) -> tuple[bool, float, str]:
    """(succeeded, wall seconds, captured stdout) of one ``mars`` command."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            ok = cli.main(argv) == 0
    except Exception:
        traceback.print_exc()
        ok = False
    return ok, time.perf_counter() - t0, out.getvalue()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    model = out_dir / "model.json"
    runlog = out_dir / "runlog.jsonl"
    train_argv = ["train", spec["train_csv"], "--label", spec["label"], "--out", str(model),
                  "--runlog", str(runlog), *spec["train_flags"]]
    result: dict = {"setup_s": []}

    real_run = cli.run
    search_span: list[float] = []

    def stop_before_search(*args, **kwargs):
        search_span.append(time.perf_counter())
        raise _SetupDone

    def timed_run(*args, **kwargs):
        search_span.append(time.perf_counter())
        try:
            return real_run(*args, **kwargs)
        finally:
            search_span.append(time.perf_counter())

    # set-up only: the train command up to the point where search would start
    cli.run = stop_before_search
    for _ in range(spec["setup_reps"]):
        search_span.clear()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(train_argv)
        except _SetupDone:
            result["setup_s"].append(search_span[0] - t0)

    tracer = Tracer() if spec["trace"] else None
    if tracer is None:
        cli.run = timed_run
    else:
        cli.run = real_run
        tracer.install()
    ops: list[tuple[str, bool]] = []
    traced = tracer.span if tracer else (lambda name: contextlib.nullcontext())

    search_span.clear()
    t_train = time.perf_counter()
    with traced("op.train"):
        ok, result["train_s"], _ = _call(train_argv)
    ops.append(("train", ok))
    result["predict_s"] = []
    for i in range(spec["predict_reps"]):
        with traced("op.predict"):
            ok, seconds, _ = _call(["predict", str(model), spec["holdout_csv"],
                                    "--out", str(out_dir / f"predictions{i}.csv")])
        ops.append(("predict", ok))
        result["predict_s"].append(seconds)
    if spec["evaluate"]:
        with traced("op.evaluate"):
            ok, result["evaluate_s"], result["evaluate_stdout"] = _call(
                ["evaluate", str(model), spec["holdout_csv"]])
        ops.append(("evaluate", ok))
    cli.run = real_run

    if tracer is None:
        if len(search_span) == 2:
            result["setup_s"].append(search_span[0] - t_train)
            result["search_s"] = search_span[1] - search_span[0]
    else:
        tracer.uninstall()
        tracer.save(out_dir / "spans.npz")
        bounds = tracer.last_result.get("bounds.update_bounds")
        if bounds is not None:
            result["bounds"] = {"min_support": bounds.min_support, "m_cap": bounds.m_cap}
    result["ops"] = ops
    if ops[0][1]:
        result["model_sha256"] = _sha256(model)
        result["runlog_sha256"] = _sha256(runlog)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
