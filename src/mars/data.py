"""Tabular ingestion: column typing, discretization, encoded datasets.

Numeric columns are binned into intervals over the observed training range
(equal-width by default, equal-frequency as a variant) and then treated as
categorical; categorical columns pass through with their observed
vocabulary.  Missing categorical cells become an explicit vocabulary entry
so rules can reason about missingness: a blank or ``?`` cell (or None),
and in a categorical column a cell spelled ``⟨missing⟩`` itself.

Training and prediction share one parser per kind of cell: ``parse_numbers``
decides that a training column is numeric and encodes numeric columns;
``FeatureSpec.encode_column`` gives training and prediction codes alike;
``parse_labels`` reads every label column.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Sequence

import numpy as np

from .bitset import indices, mask_from_bools
from .errors import DataFormatError, DegenerateLabelError, FeatureMismatchError
from .model import Rule, RuleSet

MISSING = "⟨missing⟩"

_LABELS = {"1": True, "1.0": True, "true": True, "yes": True,
           "0": False, "0.0": False, "false": False, "no": False}
_BOOLS = frozenset((bool, np.bool_))


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
            if not all(isinstance(c, str) for c in self.categories):
                raise ValueError(f"feature {self.name!r}: a vocabulary entry is not a string")
            if len(set(self.categories)) != len(self.categories):
                raise ValueError(f"feature {self.name!r}: duplicate vocabulary entry")
        elif self.kind == "numeric":
            if not self.intervals:
                raise ValueError(f"feature {self.name!r}: no intervals")
            for (lo, hi) in self.intervals:
                if any(isinstance(b, bool) or not isinstance(b, (int, float)) for b in (lo, hi)):
                    raise ValueError(f"feature {self.name!r}: an interval bound is not a number")
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

    def encode_column(self, cells: Sequence) -> np.ndarray:
        """Map a column of raw cells to value indices (int32); the rules are
        those of ``encode_with_specs``."""
        if self.kind == "numeric":
            values, missing = parse_numbers(cells, self.name)
            codes = self._interval_codes(values)
            codes[missing] = -1
            return codes
        default = self._category_index.get(MISSING, -1)
        get = self._category_index.get
        return np.array(
            [get(c if c.__class__ is str else _category_key(c), default) for c in cells],
            dtype=np.int32,
        )

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


def parse_numbers(cells: Sequence, column: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a column of raw cells as numbers: (values, missing mask).

    A missing cell reads as 0.0; any other cell is read with ``float()``,
    and DataFormatError names the first one it rejects, or a bool."""
    n = len(cells)
    missing = np.zeros(n, dtype=bool)
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=n)
    except (TypeError, ValueError):
        pass  # float() rejects every missing cell: find them below
    else:
        # float() reads a bool as 0 or 1: only then look for bool cells
        if not ((values == 0) | (values == 1)).any() or _BOOLS.isdisjoint(map(type, cells)):
            return values, missing
    values = np.zeros(n)
    for i, cell in enumerate(cells):
        if _is_missing(cell):
            missing[i] = True
            continue
        try:
            if type(cell) in _BOOLS:
                raise TypeError
            values[i] = float(cell)
        except (TypeError, ValueError):
            raise DataFormatError(f"column {column!r}: non-numeric value {cell!r}") from None
    return values, missing


def parse_labels(cells: Sequence, column: str) -> np.ndarray:
    """Read a binary label column (1/true/yes or 0/false/no, any case),
    parsing each distinct cell text once; DegenerateLabelError otherwise."""
    texts = list(map(str, cells))
    value = {t: _LABELS.get(t.strip().lower()) for t in set(texts)}
    if None in value.values():
        cell = next(c for c, t in zip(cells, texts) if value[t] is None)
        raise DegenerateLabelError(
            f"label column {column!r} has non-binary value {cell!r} (use 0/1, true/false or yes/no)"
        )
    return np.fromiter(map(value.__getitem__, texts), dtype=bool, count=len(texts))


@dataclass
class RawTable:
    """Row-major table of raw cells (strings from CSV, or numbers)."""

    names: tuple[str, ...]
    rows: list[tuple]
    label_column: str | None = None

    @classmethod
    def from_csv(cls, path, label_column: str | None = None) -> "RawTable":
        try:
            with open(path, newline="", encoding="utf-8") as fh:
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
        except UnicodeDecodeError:
            raise DataFormatError(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:
            raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None
        if len(set(names)) != len(names):
            raise DataFormatError(f"{path}: duplicate column names in header")
        if label_column is not None and label_column not in names:
            raise DataFormatError(f"{path}: no column named {label_column!r}")
        return cls(names=names, rows=rows, label_column=label_column)

    def columns(self) -> dict[str, tuple]:
        """Every column's cells by name: one transpose of the rows."""
        cells = list(zip(*self.rows)) or [()] * len(self.names)
        return dict(zip(self.names, cells))


class Dataset:
    """Encoded observations plus per-(feature, value) coverage bitmasks.

    Immutable after construction: the arrays are marked read-only and every
    operation on a Dataset is a pure read.
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
        self.value_masks: tuple[tuple[int, ...], ...] = tuple(
            tuple(mask_from_bools(self.rows[:, j] == v) for v in range(vocab))
            for j, vocab in enumerate(self.vocab_sizes)
        )
        self.rows.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n_features(self) -> int:
        return len(self.features)


def condition_mask(data: Dataset, feature_id: int, values: Collection[int]) -> int:
    """Rows whose value of the feature is one of ``values``.

    A feature's value masks partition the rows, so when ``values`` holds
    more than half the vocabulary the mask is the full mask less the values
    left out: fewer ORs over N-bit ints."""
    per_value = data.value_masks[feature_id]
    if 2 * len(values) <= len(per_value):
        mask = 0
        for v in values:
            mask |= per_value[v]
        return mask
    mask = data.full_mask
    for v in set(range(len(per_value))).difference(values):
        mask ^= per_value[v]
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
    feature_names = [n for n in table.names if n != table.label_column]
    if not feature_names:
        raise DataFormatError(f"table has no feature columns besides {table.label_column!r}")

    columns = table.columns()
    labels = parse_labels(columns[table.label_column], table.label_column)
    if labels.size == 0:
        raise DataFormatError("table has no data rows")
    if labels.all() or not labels.any():
        raise DegenerateLabelError(
            f"label column {table.label_column!r} has a single class; need both 0 and 1"
        )

    specs, encoded = zip(*(
        _build_feature(fid, name, columns[name], n_bins, scheme)
        for fid, name in enumerate(feature_names)
    ))
    return Dataset(specs, np.stack(encoded, axis=1), labels, label_name=table.label_column)


def _build_feature(fid: int, name: str, raw: Sequence, n_bins: int, scheme: str):
    try:
        values, missing = parse_numbers(raw, name)
    except DataFormatError:
        pass  # a cell that is not a number: the column is categorical
    else:
        if missing.any():
            raise DataFormatError(
                f"column {name!r}: numeric column contains missing values; impute or drop it"
            )
        finite = np.isfinite(values)
        if not finite.all():
            cell = raw[int(finite.argmin())]
            raise DataFormatError(f"column {name!r}: non-finite value {cell!r}; impute or drop it")
        if values.min() == values.max():
            raise DataFormatError(f"column {name!r} has a single distinct value")
        edges = _bin_edges(values, n_bins, scheme, name)
        intervals = tuple((float(edges[i]), float(edges[i + 1])) for i in range(len(edges) - 1))
        spec = FeatureSpec(fid, name, "numeric", intervals=intervals)
        return spec, spec._interval_codes(values)

    # keyed by text, as encode_column looks cells up, so 0 and False stay apart
    keys = {c if c.__class__ is str else _category_key(c) for c in raw}
    missing_keys = {k for k in keys if k == MISSING or _is_missing(k)}
    vocab = sorted(keys - missing_keys)
    if missing_keys:
        vocab.append(MISSING)
    if len(vocab) < 2:
        raise DataFormatError(f"column {name!r} has a single distinct value")
    spec = FeatureSpec(fid, name, "categorical", categories=tuple(vocab))
    return spec, spec.encode_column(raw)


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
    spec, from ``FeatureSpec.encode_column``.  Cell rules:

    - a numeric cell, read by ``parse_numbers``, falls in the interval
      [lo, hi) that holds it; values outside the training range clamp into
      the first or last interval, and nan into the last; a blank or ``?``
      cell (or None) becomes -1; a bool or any other cell ``float()``
      rejects raises DataFormatError naming the column and the cell;
    - a categorical cell maps to its vocabulary entry by its text; blank,
      ``?``, a literal ``⟨missing⟩`` and unseen values map to the missing
      entry when the vocabulary has one, else to -1.

    -1 is matched by no condition.  Raises FeatureMismatchError listing
    any model feature absent from the table.
    """
    missing = [f.name for f in features if f.name not in table.names]
    if missing:
        raise FeatureMismatchError(
            "input is missing model feature column(s): " + ", ".join(sorted(missing))
        )
    rows = np.empty((len(table.rows), len(features)), dtype=np.int32)
    columns = table.columns()
    for k, f in enumerate(features):
        rows[:, k] = f.encode_column(columns[f.name])
    return rows
