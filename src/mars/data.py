"""Tabular ingestion: column typing, discretization, encoded datasets.

Numeric columns are binned into intervals over the observed training range
(equal-width by default, equal-frequency as a variant) and then treated as
categorical; categorical columns pass through with their observed
vocabulary.  Missing categorical cells become an explicit vocabulary entry
so rules can reason about missingness.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .bitset import indices, mask_from_bools
from .errors import DataFormatError, DegenerateLabelError, FeatureMismatchError
from .model import Rule, RuleSet

MISSING = "⟨missing⟩"

_TRUE_LABELS = {"1", "1.0", "true", "yes"}
_FALSE_LABELS = {"0", "0.0", "false", "no"}


@dataclass(frozen=True)
class FeatureSpec:
    """One feature's identity and vocabulary.

    ``kind`` is "categorical" (``categories`` holds the value strings) or
    "numeric" (``intervals`` holds ordered, contiguous [lo, hi) bounds that
    cover the observed training range).
    """

    feature_id: int
    name: str
    kind: str
    categories: tuple[str, ...] | None = None
    intervals: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "categorical":
            if not self.categories:
                raise ValueError(f"feature {self.name!r}: empty vocabulary")
            if len(set(self.categories)) != len(self.categories):
                raise ValueError(f"feature {self.name!r}: duplicate vocabulary entry")
        elif self.kind == "numeric":
            if not self.intervals:
                raise ValueError(f"feature {self.name!r}: no intervals")
            for (lo, hi) in self.intervals:
                if not lo < hi:
                    raise ValueError(f"feature {self.name!r}: empty interval [{lo}, {hi})")
            for (_, hi), (lo2, _) in zip(self.intervals, self.intervals[1:]):
                if hi != lo2:
                    raise ValueError(f"feature {self.name!r}: intervals not contiguous")
        else:
            raise ValueError(f"feature {self.name!r}: unknown kind {self.kind!r}")

    @property
    def vocab_size(self) -> int:
        return len(self.categories) if self.kind == "categorical" else len(self.intervals)

    @cached_property
    def _edges(self) -> np.ndarray:
        return np.array([iv[0] for iv in self.intervals] + [self.intervals[-1][1]])

    @cached_property
    def _category_index(self) -> dict[str, int]:
        # an entry spelled like a missing cell ("", "?") is never matched
        return {v: k for k, v in enumerate(self.categories) if not _is_missing(v)}

    def encode(self, cell) -> int:
        """Map one raw cell to a value index, as ``encode_column`` does."""
        return int(self.encode_column([cell])[0])

    def encode_column(self, cells: Sequence) -> np.ndarray:
        """Map a column of raw cells to value indices (int32); the rules are
        those of ``encode_with_specs``."""
        if self.kind == "numeric":
            return self._encode_numeric(cells)
        default = self._category_index.get(MISSING, -1)
        get = self._category_index.get
        return np.array(
            [get(c if c.__class__ is str else _category_key(c), default) for c in cells],
            dtype=np.int32,
        )

    def _encode_numeric(self, cells: Sequence) -> np.ndarray:
        n = len(cells)
        try:
            values = np.fromiter(map(float, cells), dtype=float, count=n)
        except (TypeError, ValueError):
            pass  # float() rejects every missing cell: find them below
        else:
            return self._interval_codes(values)
        missing = np.fromiter(map(_is_missing, cells), dtype=bool, count=n)
        values = np.zeros(n)
        values[~missing] = [_parse_float(c, self.name) for c, m in zip(cells, missing) if not m]
        codes = self._interval_codes(values)
        codes[missing] = -1
        return codes

    def _interval_codes(self, values: np.ndarray) -> np.ndarray:
        codes = np.searchsorted(self._edges, values, side="right") - 1
        return np.clip(codes, 0, self.vocab_size - 1).astype(np.int32)


def _is_missing(cell) -> bool:
    if cell is None:
        return True
    if isinstance(cell, str):
        return cell.strip() in ("", "?")
    return False


def _category_key(cell) -> str | None:
    return None if cell is None else str(cell)


def _parse_float(cell, column: str) -> float:
    try:
        return float(cell)
    except (TypeError, ValueError):
        raise DataFormatError(f"column {column!r}: non-numeric value {cell!r}") from None


@dataclass
class RawTable:
    """Row-major table of raw cells (strings from CSV, or numbers)."""

    names: tuple[str, ...]
    rows: list[tuple]
    label_column: str | None = None

    @classmethod
    def from_csv(cls, path, label_column: str | None = None) -> "RawTable":
        try:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                try:
                    header = next(reader)
                except StopIteration:
                    raise DataFormatError(f"{path}: empty file") from None
                names = tuple(h.strip() for h in header)
                rows: list[tuple] = []
                for lineno, cells in enumerate(reader, start=2):
                    if not cells:
                        continue
                    if len(cells) != len(names):
                        raise DataFormatError(
                            f"{path}: row {lineno}: expected {len(names)} cells, got {len(cells)}"
                        )
                    rows.append(tuple(c.strip() for c in cells))
        except OSError as exc:
            raise DataFormatError(f"cannot read {path}: {exc}") from exc
        if len(set(names)) != len(names):
            raise DataFormatError(f"{path}: duplicate column names in header")
        if label_column is not None and label_column not in names:
            raise DataFormatError(f"{path}: no column named {label_column!r}")
        return cls(names=names, rows=rows, label_column=label_column)

    def column(self, name: str) -> list:
        idx = self.names.index(name)
        return [row[idx] for row in self.rows]


class Dataset:
    """Encoded observations plus per-(feature, value) coverage bitmasks.

    Immutable after construction: the arrays are marked read-only and every
    operation on a Dataset is a pure read, so instances can be shared
    freely across threads.
    """

    def __init__(
        self,
        features: Sequence[FeatureSpec],
        rows: np.ndarray,
        labels: np.ndarray,
        label_name: str = "label",
    ) -> None:
        self.features = tuple(features)
        self.rows = np.ascontiguousarray(rows, dtype=np.int32)
        self.labels = np.ascontiguousarray(labels, dtype=bool)
        self.label_name = label_name
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.features):
            raise ValueError("rows must be (N, n_features)")
        if self.labels.shape != (self.rows.shape[0],):
            raise ValueError("labels must be (N,)")
        self.vocab_sizes = tuple(f.vocab_size for f in self.features)
        for j, vocab in enumerate(self.vocab_sizes):
            col = self.rows[:, j]
            if col.size and (col.min() < 0 or col.max() >= vocab):
                raise ValueError(f"row value out of range for feature {j}")
        self.n_rows = int(self.rows.shape[0])
        self.n_pos = int(self.labels.sum())
        self.n_neg = self.n_rows - self.n_pos
        self.pos_mask = mask_from_bools(self.labels)
        self.full_mask = (1 << self.n_rows) - 1
        self.neg_mask = self.full_mask ^ self.pos_mask
        self.value_masks: tuple[tuple[int, ...], ...] = tuple(
            tuple(mask_from_bools(self.rows[:, j] == v) for v in range(vocab))
            for j, vocab in enumerate(self.vocab_sizes)
        )
        self.rows.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n_features(self) -> int:
        return len(self.features)


def condition_mask(data: Dataset, feature_id: int, values: Iterable[int]) -> int:
    mask = 0
    per_value = data.value_masks[feature_id]
    for v in values:
        mask |= per_value[v]
    return mask


def rule_mask(rule: Rule, data: Dataset) -> int:
    mask = data.full_mask
    for cond in rule.conditions:
        mask &= condition_mask(data, cond.feature_id, cond.values)
        if not mask:
            break
    return mask


def union_mask(ruleset: RuleSet, data: Dataset) -> int:
    mask = 0
    for rule in ruleset.rules:
        mask |= rule_mask(rule, data)
    return mask


def coverage(rule: Rule, data: Dataset) -> frozenset[int]:
    """Row indices the rule covers."""
    return frozenset(indices(rule_mask(rule, data)))


def support(rule: Rule, data: Dataset) -> int:
    """Number of rows the rule covers; equals ``len(coverage(rule, data))``."""
    return rule_mask(rule, data).bit_count()


def parse_label(cell, column: str) -> bool:
    text = str(cell).strip().lower()
    if text in _TRUE_LABELS:
        return True
    if text in _FALSE_LABELS:
        return False
    raise DegenerateLabelError(
        f"label column {column!r} has non-binary value {cell!r} (use 0/1, true/false or yes/no)"
    )


def discretize(table: RawTable, n_bins: int = 10, scheme: str = "width") -> Dataset:
    """Encode a raw table into a Dataset, binning numeric columns.

    ``scheme`` is "width" (equal-width bins over the observed min/max) or
    "frequency" (quantile bins; duplicate quantiles are collapsed, so the
    vocabulary may end up smaller than ``n_bins``).
    """
    if n_bins < 2:
        raise ValueError("n_bins must be at least 2")
    if scheme not in ("width", "frequency"):
        raise ValueError(f"unknown discretization scheme {scheme!r}")
    if table.label_column is None:
        raise DataFormatError("table has no label column set")

    labels = np.array([parse_label(c, table.label_column) for c in table.column(table.label_column)])
    if labels.size == 0:
        raise DataFormatError("table has no data rows")
    if labels.all() or not labels.any():
        raise DegenerateLabelError(
            f"label column {table.label_column!r} has a single class; need both 0 and 1"
        )

    feature_names = [n for n in table.names if n != table.label_column]
    specs: list[FeatureSpec] = []
    encoded: list[np.ndarray] = []
    for fid, name in enumerate(feature_names):
        raw = table.column(name)
        spec, codes = _build_feature(fid, name, raw, n_bins, scheme)
        specs.append(spec)
        encoded.append(codes)

    rows = np.stack(encoded, axis=1) if encoded else np.zeros((labels.size, 0), dtype=np.int32)
    return Dataset(specs, rows, labels, label_name=table.label_column)


def _build_feature(fid: int, name: str, raw: list, n_bins: int, scheme: str):
    present = [c for c in raw if not _is_missing(c)]
    has_missing = len(present) < len(raw)
    numeric_values = _try_floats(present)

    if numeric_values is not None:
        if has_missing:
            raise DataFormatError(
                f"column {name!r}: numeric column contains missing values; impute or drop it"
            )
        values = np.asarray(numeric_values, dtype=float)
        if values.size == 0 or values.min() == values.max():
            raise DataFormatError(f"column {name!r} has a single distinct value")
        edges = _bin_edges(values, n_bins, scheme, name)
        intervals = tuple((float(edges[i]), float(edges[i + 1])) for i in range(len(edges) - 1))
        spec = FeatureSpec(fid, name, "numeric", intervals=intervals)
        return spec, spec._interval_codes(values)

    as_text = [MISSING if _is_missing(c) else str(c) for c in raw]
    vocab = sorted(set(as_text) - {MISSING})
    if has_missing:
        vocab.append(MISSING)
    if len(vocab) < 2:
        raise DataFormatError(f"column {name!r} has a single distinct value")
    spec = FeatureSpec(fid, name, "categorical", categories=tuple(vocab))
    return spec, spec.encode_column(raw)


def _try_floats(cells: list) -> list[float] | None:
    out = []
    for c in cells:
        if isinstance(c, (int, float)) and not isinstance(c, bool):
            out.append(float(c))
            continue
        try:
            out.append(float(str(c)))
        except ValueError:
            return None
    return out


def _bin_edges(values: np.ndarray, n_bins: int, scheme: str, name: str) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if scheme == "width":
        return np.linspace(lo, hi, n_bins + 1)
    edges = np.unique(np.quantile(values, np.linspace(0.0, 1.0, n_bins + 1)))
    if len(edges) < 3:
        raise DataFormatError(
            f"column {name!r}: equal-frequency binning collapsed to a single interval"
        )
    return edges


def encode_with_specs(table: RawTable, features: Sequence[FeatureSpec]) -> np.ndarray:
    """Encode a raw table against existing feature specs, matching by name.

    Returns an (N, n_features) int32 matrix of value indices, one column per
    spec.  Cell rules:

    - a numeric cell is parsed with ``float()`` and falls in the interval
      [lo, hi) that holds it; values outside the training range clamp into
      the first or last interval, and nan into the last; a blank or ``?``
      cell (or None) becomes -1; any other cell ``float()`` rejects raises
      DataFormatError naming the column;
    - a categorical cell maps to its vocabulary entry; blank, ``?`` and
      unseen values map to the missing entry when the vocabulary has one,
      else to -1.

    -1 is matched by no condition.  Raises FeatureMismatchError listing
    any model feature absent from the table.
    """
    missing = [f.name for f in features if f.name not in table.names]
    if missing:
        raise FeatureMismatchError(
            "input is missing model feature column(s): " + ", ".join(sorted(missing))
        )
    rows = np.empty((len(table.rows), len(features)), dtype=np.int32)
    columns = dict(zip(table.names, zip(*table.rows)))  # empty when the table has no rows
    for k, f in enumerate(features):
        rows[:, k] = f.encode_column(columns.get(f.name, ()))
    return rows
