"""Tabular ingestion: column typing, discretization, encoded datasets.

Numeric columns are binned into intervals over the observed training range
(equal-width, or equal-frequency with every inner edge halfway between two
training values) and then treated as categorical; categorical columns pass
through with their observed vocabulary.  Missing categorical cells become
an explicit vocabulary entry so rules can reason about missingness: a blank
or ``?`` cell, and in a categorical column a cell spelled ``⟨missing⟩``
itself.  Every cell is the text a CSV holds.

Training and prediction share one parser per kind of cell: ``parse_numbers``
decides that a training column is numeric and encodes numeric columns;
``FeatureSpec.encode_column`` gives training and prediction codes alike;
``parse_labels`` reads every label column.  Prediction encodes only the
columns a rule set reads (``encode_with_specs``): other columns hold -1, and
an unread numeric column is still parsed, so a bad cell fails as before.

Row sets are Python ints, bit n for row n (``Dataset.value_masks``,
``rule_mask``): AND/OR/XOR and ``int.bit_count`` run at C speed on whole
machine words, which keeps the search's inner loop cheap from toy scale
(N < 100) to desk scale (N ~ 10^5).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from .errors import DataFormatError, DegenerateLabelError, FeatureMismatchError
from .model import Pairs

MISSING = "⟨missing⟩"

# numeric binning: the bin count ``discretize`` uses unless told otherwise,
# the most it accepts (equal-width binning makes that many intervals
# whatever the data), and the schemes it accepts, its default first
N_BINS = 10
MAX_BINS = 1000
SCHEMES = ("width", "frequency")

_LABELS = {"1": True, "1.0": True, "true": True, "yes": True,
           "0": False, "0.0": False, "false": False, "no": False}


@dataclass(frozen=True)
class FeatureSpec:
    """One feature's name and vocabulary: ``categories`` holds a
    categorical feature's value strings, ``intervals`` a numeric feature's
    ordered, contiguous [lo, hi) bounds that cover the observed training
    range.  A spec holds exactly one of the two; its feature id is its
    position in the feature list.
    """

    name: str
    categories: tuple[str, ...] | None = None
    intervals: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"feature name {self.name!r} is not a string")
        if (self.categories is None) == (self.intervals is None):
            raise ValueError(f"feature {self.name!r}: give either categories or intervals")
        if self.kind == "categorical":
            if not self.categories:
                raise ValueError(f"feature {self.name!r}: empty vocabulary")
            if not all(isinstance(c, str) for c in self.categories):
                raise ValueError(f"feature {self.name!r}: a vocabulary entry is not a string")
            if len(set(self.categories)) != len(self.categories):
                raise ValueError(f"feature {self.name!r}: duplicate vocabulary entry")
        else:
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

    @property
    def kind(self) -> str:
        return "categorical" if self.categories is not None else "numeric"

    @property
    def vocab_size(self) -> int:
        return len(self.categories) if self.kind == "categorical" else len(self.intervals)

    def encode_column(self, cells: Sequence[str]) -> np.ndarray:
        """Map a column of raw cells to value indices (int32); the rules are
        those of ``encode_with_specs``."""
        if self.kind == "numeric":
            values, missing = parse_numbers(cells, self.name)
            codes = self._interval_codes(values)
            codes[missing] = -1
            return codes
        # an entry spelled like a missing cell ("", "?") is never matched
        get = {v: k for k, v in enumerate(self.categories) if not _is_missing(v)}.get
        default = get(MISSING, -1)
        return np.array([get(c, default) for c in cells], dtype=np.int32)

    def _interval_codes(self, values: np.ndarray) -> np.ndarray:
        edges = np.array([iv[0] for iv in self.intervals] + [self.intervals[-1][1]])
        codes = np.searchsorted(edges, values, side="right") - 1
        return np.clip(codes, 0, self.vocab_size - 1).astype(np.int32)


def _is_missing(cell: str) -> bool:
    return cell.strip() in ("", "?")


def parse_numbers(cells: Sequence[str], column: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a column of cells as numbers: (values, missing mask).

    A missing cell reads as 0.0; any other cell is read with ``float()``,
    and DataFormatError names the first one it rejects."""
    n = len(cells)
    missing = np.zeros(n, dtype=bool)
    try:
        return np.fromiter(map(float, cells), dtype=float, count=n), missing
    except ValueError:
        pass  # float() rejects every missing cell: find them below
    values = np.zeros(n)
    for i, cell in enumerate(cells):
        if _is_missing(cell):
            missing[i] = True
            continue
        try:
            values[i] = float(cell)
        except ValueError:
            raise DataFormatError(f"column {column!r}: non-numeric value {cell!r}") from None
    return values, missing


def parse_labels(cells: Sequence[str], column: str) -> np.ndarray:
    """Read a binary label column (1/true/yes or 0/false/no, any case),
    parsing each distinct cell text once; DegenerateLabelError otherwise."""
    value = {t: _LABELS.get(t.strip().lower()) for t in set(cells)}
    if None in value.values():
        cell = next(c for c in cells if value[c] is None)
        raise DegenerateLabelError(
            f"label column {column!r} has non-binary value {cell!r} (use 0/1, true/false or yes/no)"
        )
    return np.fromiter(map(value.__getitem__, cells), dtype=bool, count=len(cells))


@dataclass
class RawTable:
    """Row-major table of cells, each the text a CSV holds."""

    names: tuple[str, ...]
    rows: list[tuple[str, ...]]
    label_column: str | None = None

    @classmethod
    def from_csv(cls, path, label_column: str | None = None) -> "RawTable":
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                reader = csv.reader(fh)
                try:
                    header = next(reader)
                except StopIteration:
                    raise DataFormatError(f"{path}: empty file") from None
                names = tuple(h.strip() for h in header)
                rows: list[tuple[str, ...]] = []
                for lineno, cells in enumerate(reader, start=2):
                    if not cells:
                        continue
                    if len(cells) != len(names):
                        raise DataFormatError(
                            f"{path}: row {lineno}: expected {len(names)} cells, got {len(cells)}"
                        )
                    rows.append(tuple(map(str.strip, cells)))
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

    def columns(self) -> dict[str, tuple[str, ...]]:
        """Every column's cells by name: one transpose of the rows."""
        cells = list(zip(*self.rows)) or [()] * len(self.names)
        return dict(zip(self.names, cells))


def mask_from_bools(flags: np.ndarray) -> int:
    """Pack a boolean vector into a bitmask with bit n set iff flags[n]."""
    packed = np.packbits(np.ascontiguousarray(flags, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def indices(mask: int) -> list[int]:
    """Sorted list of set-bit positions."""
    packed = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(packed, bitorder="little")).tolist()


def kth_set_bit(mask: int, k: int) -> int:
    """Position of the k-th (0-based) set bit of ``mask``."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k >= mask.bit_count():
        raise ValueError("k exceeds the number of set bits")
    return indices(mask)[k]


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
    ) -> None:
        self.features = tuple(features)
        self.rows = np.ascontiguousarray(rows, dtype=np.int32)
        self.labels = np.ascontiguousarray(labels, dtype=bool)
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


def rule_mask(pairs: Pairs, data: Dataset) -> int:
    """Rows the rule ``pairs`` covers, the rule given as the (feature,
    values) pairs of its conditions: the AND over its conditions of the
    rows each accepts, which are the OR of its values' masks.  Every rule
    mask is built here, the search's included."""
    mask = data.full_mask
    for j, values in pairs:
        per_value = data.value_masks[j]
        accepted = 0
        for v in values:
            accepted |= per_value[v]
        mask &= accepted
        if not mask:
            break
    return mask


def discretize(table: RawTable, n_bins: int = N_BINS, scheme: str = SCHEMES[0]) -> Dataset:
    """Encode a raw table into a Dataset, binning numeric columns.

    ``scheme`` is "width" or "frequency"; both put the first edge at the
    training minimum and the last at the maximum.  "width" spaces the edges
    evenly, so an interval may hold no training row.  "frequency" cuts at
    quantiles rounded up to training values: with the n training values
    sorted, inner edge i lies halfway across the gap below the value at
    position ceil(i * (n - 1) / n_bins), so that value starts an interval.
    When that value is the minimum, the edge crosses the gap above it; when
    halfway rounds onto the gap's lower value, the edge is the upper one.
    So every interval holds a training row, and n distinct values give
    ``n_bins`` intervals whenever ``n_bins < n``.  Both schemes collapse
    duplicate edges, so the vocabulary may end up smaller than ``n_bins``.
    """
    if not 2 <= n_bins <= MAX_BINS:
        raise ValueError(f"n_bins must lie in [2, {MAX_BINS}]")
    if scheme not in SCHEMES:
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
        _build_feature(name, columns[name], n_bins, scheme) for name in feature_names
    ))
    return Dataset(specs, np.stack(encoded, axis=1), labels)


def _build_feature(name: str, raw: Sequence[str], n_bins: int, scheme: str):
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
        spec = FeatureSpec(name, intervals=intervals)
        return spec, spec._interval_codes(values)

    keys = set(raw)
    missing_keys = {k for k in keys if k == MISSING or _is_missing(k)}
    vocab = sorted(keys - missing_keys)
    if missing_keys:
        vocab.append(MISSING)
    if len(vocab) < 2:
        raise DataFormatError(f"column {name!r} has a single distinct value")
    spec = FeatureSpec(name, categories=tuple(vocab))
    return spec, spec.encode_column(raw)


def _bin_edges(values: np.ndarray, n_bins: int, scheme: str, name: str) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi - lo == math.inf:
        raise DataFormatError(f"column {name!r}: the range [{lo}, {hi}] is too wide to bin")
    if scheme == "width":
        edges = np.unique(np.linspace(lo, hi, n_bins + 1))
    else:
        # inner edge i cuts halfway across the gap below the sorted training
        # value at position ceil(i * (n - 1) / n_bins), or above the minimum
        # when that value is the minimum; a halfway point that rounds onto the
        # gap's lower value moves up onto its upper one
        seen = np.unique(values)
        q = np.sort(values)[-(-np.arange(1, n_bins) * (len(values) - 1) // n_bins)]
        k = np.clip(np.searchsorted(seen, q), 1, len(seen) - 1)
        a, b = seen[k - 1], seen[k]
        mid = a + (b - a) / 2
        edges = np.unique([lo, *np.where(mid > a, mid, b), hi])
    if len(edges) < 3:
        raise DataFormatError(
            f"column {name!r}: equal-{scheme} binning collapsed to a single interval"
        )
    return edges


def encode_with_specs(
    columns: dict[str, tuple[str, ...]], features: Sequence[FeatureSpec], used: Collection[int]
) -> np.ndarray:
    """Encode a raw table, given as its ``RawTable.columns()``, against
    existing feature specs, matching by name.

    Returns an (N, n_features) int32 matrix of value indices, one column per
    spec.  Only the features whose ids (their positions in ``features``) are
    in ``used`` are encoded, by ``FeatureSpec.encode_column``: pass a rule
    set's ``feature_ids``, or ``range(len(features))`` for every column.
    Every other column holds -1.  The input is checked as if every column
    were encoded: each model feature must be present, and each numeric
    column, read or not, goes through ``parse_numbers`` in feature order, so
    the same first bad cell raises.  An unread categorical column is not
    looked at: no cell there can fail.  Cell rules:

    - a numeric cell, read by ``parse_numbers``, falls in the interval
      [lo, hi) that holds it; values outside the training range clamp into
      the first or last interval, and nan into the last; a blank or ``?``
      cell becomes -1; any other cell ``float()`` rejects raises
      DataFormatError naming the column and the cell;
    - a categorical cell maps to its vocabulary entry by its text; blank,
      ``?``, a literal ``⟨missing⟩`` and unseen values map to the missing
      entry when the vocabulary has one, else to -1.

    -1 is matched by no condition.  Raises FeatureMismatchError listing
    any model feature absent from the table.
    """
    missing = [f.name for f in features if f.name not in columns]
    if missing:
        raise FeatureMismatchError(
            "input is missing model feature column(s): " + ", ".join(sorted(missing))
        )
    n_rows = len(next(iter(columns.values()), ()))
    rows = np.full((n_rows, len(features)), -1, dtype=np.int32)
    for k, f in enumerate(features):
        if k in used:
            rows[:, k] = f.encode_column(columns[f.name])
        elif f.kind == "numeric":
            parse_numbers(columns[f.name], f.name)
    return rows
