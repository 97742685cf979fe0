"""Ingestion and discretization: binning arithmetic, vocabularies, errors."""

import numpy as np
import pytest

from mars.data import (
    MISSING,
    RawTable,
    discretize,
    encode_with_specs,
)
from mars.errors import DataFormatError, DegenerateLabelError, FeatureMismatchError


def table_of(names, rows, label="y"):
    return RawTable(names=tuple(names), rows=[tuple(r) for r in rows], label_column=label)


def test_equal_width_bin_arithmetic():
    # observed range [0, 1], 10 bins: 0.35 falls in bin 3 = [0.3, 0.4)
    rows = [[x, x2, 0 if x < 0.5 else 1] for x, x2 in [(0.0, 1.0), (1.0, 0.0), (0.35, 0.2)]]
    data = discretize(table_of(["a", "b", "y"], rows), n_bins=10)
    spec = data.features[0]
    assert spec.kind == "numeric"
    assert spec.vocab_size == 10
    lo, hi = spec.intervals[3]
    assert lo == pytest.approx(0.3) and hi == pytest.approx(0.4)
    assert data.rows[2, 0] == 3
    assert data.rows[0, 0] == 0
    assert data.rows[1, 0] == 9  # the max lands in the last bin


def test_categorical_passthrough_vocabulary():
    rows = [["CA", 1], ["TX", 0], ["CA", 1]]
    data = discretize(table_of(["state", "y"], rows), n_bins=10)
    spec = data.features[0]
    assert spec.kind == "categorical"
    assert spec.categories == ("CA", "TX")
    assert list(data.rows[:, 0]) == [0, 1, 0]


def test_binarized_item_count_matches_bins_times_features():
    # 50 numeric features x 10 bins = 500 feature-value items
    rng = np.random.default_rng(0)
    n, j = 120, 50
    mat = rng.random((n, j))
    labels = (mat[:, 0] > 0.5).astype(int)
    rows = [tuple(mat[i]) + (labels[i],) for i in range(n)]
    names = [f"f{k}" for k in range(j)] + ["y"]
    data = discretize(table_of(names, rows), n_bins=10)
    assert sum(data.vocab_sizes) == 500


def test_missing_categorical_becomes_vocab_entry():
    rows = [["CA", 1], ["?", 0], ["TX", 1], ["", 0]]
    data = discretize(table_of(["state", "y"], rows), n_bins=10)
    spec = data.features[0]
    assert spec.categories == ("CA", "TX", MISSING)
    assert list(data.rows[:, 0]) == [0, 2, 1, 2]


def test_single_distinct_value_column_rejected_with_name():
    rows = [["CA", 1], ["CA", 0]]
    with pytest.raises(DataFormatError, match="state"):
        discretize(table_of(["state", "y"], rows), n_bins=10)


def test_constant_numeric_column_rejected():
    rows = [[1.5, "x", 1], [1.5, "y", 0]]
    with pytest.raises(DataFormatError, match="num"):
        discretize(table_of(["num", "cat", "y"], rows), n_bins=10)


def test_non_binary_label_rejected():
    rows = [["a", 2], ["b", 0]]
    with pytest.raises(DegenerateLabelError):
        discretize(table_of(["f", "y"], rows), n_bins=10)


def test_single_class_label_rejected():
    rows = [["a", 1], ["b", 1]]
    with pytest.raises(DegenerateLabelError):
        discretize(table_of(["f", "y"], rows), n_bins=10)


def test_missing_numeric_rejected():
    rows = [[0.5, 1], ["?", 0], [0.7, 1]]
    with pytest.raises(DataFormatError, match="impute"):
        discretize(table_of(["x", "y"], rows), n_bins=10)


def test_discretize_is_deterministic():
    rng = np.random.default_rng(5)
    rows = [
        (float(rng.random()), ["a", "b", "c"][rng.integers(3)], int(rng.integers(2)))
        for _ in range(60)
    ]
    t = table_of(["num", "cat", "y"], rows)
    d1 = discretize(t, n_bins=7)
    d2 = discretize(t, n_bins=7)
    assert d1.features == d2.features
    assert np.array_equal(d1.rows, d2.rows)
    assert np.array_equal(d1.labels, d2.labels)
    assert d1.value_masks == d2.value_masks


def test_equal_frequency_scheme_collapses_duplicates():
    values = [0.0] * 10 + [float(v) for v in range(1, 11)]
    rows = [(v, int(v > 2)) for v in values]
    data = discretize(table_of(["x", "y"], rows), n_bins=5, scheme="frequency")
    spec = data.features[0]
    assert spec.kind == "numeric"
    assert 2 <= spec.vocab_size <= 5


def test_bad_n_bins_rejected():
    rows = [[0.1, 1], [0.9, 0]]
    with pytest.raises(ValueError):
        discretize(table_of(["x", "y"], rows), n_bins=1)


def test_out_of_range_numeric_clamps_at_predict_time():
    rows = [[0.0, 1], [1.0, 0], [0.5, 1]]
    data = discretize(table_of(["x", "y"], rows), n_bins=4)
    spec = data.features[0]
    assert spec.encode(-3.0) == 0
    assert spec.encode(99.0) == spec.vocab_size - 1
    assert spec.encode(0.5) == 2


@pytest.mark.parametrize(
    "cell, code",
    [
        (-3.0, 0),  # below the training range: first interval
        (99.0, 3),  # above it: last interval
        (0.5, 2),
        (0.25, 1),  # an edge belongs to the interval it opens
        (1, 3),  # the training maximum closes the last interval
        (np.float64(0.3), 1),
        (float("nan"), 3),
        ("nan", 3),
        ("0.6", 2),
        (" 0.6 ", 2),
        ("1e3", 3),
        ("-1e-3", 0),
        ("1_0", 3),
        ("", -1),
        ("?", -1),
        (" ? ", -1),
        (None, -1),
    ],
)
def test_numeric_cell_encoding(cell, code):
    rows = [[0.0, 1], [1.0, 0], [0.5, 1]]
    spec = discretize(table_of(["x", "y"], rows), n_bins=4).features[0]
    assert spec.encode(cell) == code
    # the same cell in a column of numbers and in a column with blanks
    for others, codes in (([0.1, 0.9], [0, 3]), (["", 0.9], [-1, 3])):
        table = RawTable(names=("x",), rows=[(c,) for c in [*others, cell]])
        assert list(encode_with_specs(table, [spec])[:, 0]) == [*codes, code]


def test_non_numeric_cell_in_numeric_column_names_the_column():
    rows = [[0.0, 1], [1.0, 0], [0.5, 1]]
    spec = discretize(table_of(["f03", "y"], rows), n_bins=4).features[0]
    table = RawTable(names=("f03",), rows=[("0.5",), ("",), ("abc",)])
    with pytest.raises(DataFormatError, match="f03.*abc"):
        encode_with_specs(table, [spec])


@pytest.mark.parametrize("with_missing", [True, False])
def test_blank_and_unseen_categoricals_encode_column_wise(with_missing):
    train = [["CA", 1], ["TX", 0]] + ([["", 1]] if with_missing else [])
    spec = discretize(table_of(["state", "y"], train), n_bins=4).features[0]
    default = spec.categories.index(MISSING) if with_missing else -1
    cells = ["TX", "NV", "", "?", None, "CA", " CA", MISSING]
    table = RawTable(names=("state",), rows=[(c,) for c in cells])
    expected = [1, default, default, default, default, 0, default, default]
    assert list(encode_with_specs(table, [spec])[:, 0]) == expected
    assert [spec.encode(c) for c in cells] == expected


def test_training_codes_equal_encoding_the_training_table():
    rng = np.random.default_rng(2)
    rows = [
        (float(rng.random()), str(rng.integers(5)), ["a", "b", "", "?"][rng.integers(4)],
         int(rng.integers(2)))
        for _ in range(80)
    ]
    table = table_of(["num", "digits", "cat", "y"], rows)
    for scheme in ("width", "frequency"):
        data = discretize(table, n_bins=6, scheme=scheme)
        assert np.array_equal(encode_with_specs(table, data.features), data.rows)


def test_unseen_categorical_maps_to_missing_entry():
    rows = [["CA", 1], ["?", 0], ["TX", 0]]
    data = discretize(table_of(["state", "y"], rows), n_bins=4)
    spec = data.features[0]
    assert spec.encode("NV") == spec.categories.index(MISSING)


def test_unseen_categorical_without_missing_entry_matches_no_condition():
    rows = [["CA", 1], ["TX", 0]]
    data = discretize(table_of(["state", "y"], rows), n_bins=4)
    assert data.features[0].encode("NV") == -1


def test_encode_with_specs_reports_missing_columns():
    rows = [["CA", 0.2, 1], ["TX", 0.8, 0]]
    data = discretize(table_of(["state", "x", "y"], rows), n_bins=4)
    new = RawTable(names=("state",), rows=[("CA",)])
    with pytest.raises(FeatureMismatchError, match="x"):
        encode_with_specs(new, data.features)


def test_encode_with_specs_on_a_table_without_rows():
    rows = [["CA", 0.2, 1], ["TX", 0.8, 0]]
    data = discretize(table_of(["state", "x", "y"], rows), n_bins=4)
    empty = RawTable(names=("x", "state"), rows=[])
    encoded = encode_with_specs(empty, data.features)
    assert encoded.shape == (0, 2) and encoded.dtype == np.int32


def test_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,y\n0.5,CA,1\n0.25,TX,0\n0.75,CA,1\n")
    table = RawTable.from_csv(path, label_column="y")
    assert table.names == ("a", "b", "y")
    data = discretize(table, n_bins=2)
    assert data.n_rows == 3
    assert data.n_pos == 2


def test_csv_missing_label_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataFormatError, match="label"):
        RawTable.from_csv(path, label_column="label")


def test_csv_ragged_row_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,y\n1,2,1\n1,2\n")
    with pytest.raises(DataFormatError, match="row 3"):
        RawTable.from_csv(path, label_column="y")
