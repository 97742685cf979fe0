"""In-memory span recorder that interposes on the program's public functions.

Each wrapped call records one span: name, start, end and the span that was
open when it began (its parent).  Spans are kept in flat arrays and
written out once, at the end of the traced run, as an ``.npz`` file;
``Spans`` loads them and sums self time (duration minus the part covered
by child spans) per name.  The wrappers only time and count: they
pass arguments and results through untouched, so a traced run must leave
the same runlog as an untraced one.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name): every public function the benchmark times,
# patched where its caller looks it up.
TARGETS = (
    ("mars.cli", "discretize", "data.discretize"),
    ("mars.data", "Dataset", "data.mask_build"),
    ("mars.cli", "encode_with_specs", "data.encode"),
    ("mars.cli", "save_model", "model_io.save"),
    ("mars.cli", "load_model", "model_io.load"),
    ("mars.cli", "run", "search.run"),
    ("mars.cli", "cmd_predict", "cli.predict"),
    ("mars.search", "anneal_step", "search.anneal_step"),
    ("mars.search", "propose", "search.propose"),
    ("mars.search", "normalize", "model.normalize"),
    ("mars.search", "is_normalized", "model.is_normalized"),
    ("mars.search", "log_prior", "scoring.log_prior"),
    ("mars.search", "log_likelihood", "scoring.log_likelihood"),
    ("mars.search", "confusion_from_mask", "scoring.confusion_from_mask"),
    ("mars.search", "rule_mask", "data.rule_mask"),
    ("mars.search", "kth_set_bit", "bitset.kth_set_bit"),
    ("mars.search", "indices", "bitset.indices"),
    ("mars.search", "update_confusion", "scoring.update_confusion"),
    ("mars.search", "update_bounds", "bounds.update_bounds"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.last_result: dict[str, object] = {}
        self._undo: list = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, keep_result: bool = False):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep_result:
                self.last_result[name] = out
            return out

        return traced

    def install(self) -> None:
        """Interpose on every target, plus ``RawTable.from_csv``."""
        import importlib

        from mars.data import RawTable

        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            setattr(mod, attr, self.wrap(name, orig, keep_result=(name == "bounds.update_bounds")))
            self._undo.append((mod, attr, orig))
        descriptor = RawTable.__dict__["from_csv"]
        RawTable.from_csv = staticmethod(self.wrap("data.from_csv", RawTable.from_csv))
        self._undo.append((RawTable, "from_csv", descriptor))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class Spans:
    """Loaded spans with per-span self time and root (operation) span."""

    def __init__(self, path) -> None:
        with np.load(path) as z:
            self.names = [str(n) for n in z["names"]]
            self.name_id = z["name_id"]
            self.parent = z["parent"]
            dur = z["end"] - z["start"]
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self.duration = dur
        self.self_time = dur - covered
        root = np.where(has_parent, self.parent, np.arange(len(dur)))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root = root

    def _select(self, name: str, op: str | None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        sel = self.name_id == self.names.index(name)
        if op is not None:
            sel &= self.name_id[self.root] == self.names.index(op)
        return sel

    def self_s(self, name: str, op: str | None = None) -> float:
        return float(self.self_time[self._select(name, op)].sum())

    def calls(self, name: str, op: str | None = None) -> int:
        return int(self._select(name, op).sum())

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self._select(name, None)]
