"""Ingestion and discretization: binning arithmetic, vocabularies, errors."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mars.data import (
    MISSING,
    Dataset,
    FeatureSpec,
    RawTable,
    _bin_edges,
    condition_mask,
    discretize,
    encode_with_specs,
)
from mars.errors import DataFormatError, DegenerateLabelError, FeatureMismatchError

from oracles import make_dataset


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
    assert spec.encode_column([-3.0, 99.0, 0.5]).tolist() == [0, spec.vocab_size - 1, 2]


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
    assert spec.encode_column([cell]).tolist() == [code]
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
    # a bool is not a number, as in training, with or without a blank cell
    for cells in ([0.5, True], [0.5, "", np.False_]):
        with pytest.raises(DataFormatError, match="f03.*(True|False)"):
            encode_with_specs(RawTable(names=("f03",), rows=[(c,) for c in cells]), [spec])


@pytest.mark.parametrize("with_missing", [True, False])
def test_blank_and_unseen_categoricals_encode_column_wise(with_missing):
    train = [["CA", 1], ["TX", 0]] + ([["", 1]] if with_missing else [])
    spec = discretize(table_of(["state", "y"], train), n_bins=4).features[0]
    default = spec.categories.index(MISSING) if with_missing else -1
    cells = ["TX", "NV", "", "?", None, "CA", " CA", MISSING]
    table = RawTable(names=("state",), rows=[(c,) for c in cells])
    expected = [1, default, default, default, default, 0, default, default]
    assert list(encode_with_specs(table, [spec])[:, 0]) == expected
    assert [spec.encode_column([c])[0] for c in cells] == expected


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
    assert spec.encode_column(["NV"]).tolist() == [spec.categories.index(MISSING)]


def test_unseen_categorical_without_missing_entry_matches_no_condition():
    rows = [["CA", 1], ["TX", 0]]
    data = discretize(table_of(["state", "y"], rows), n_bins=4)
    assert data.features[0].encode_column(["NV"]).tolist() == [-1]


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


# -- the previous ingest code, kept as the reference for discretize ----------
# Verbatim but for the two marked lines, and for reusing the helpers it
# called that are unchanged (FeatureSpec, _bin_edges).


def _ref_is_missing(cell) -> bool:
    if cell is None:
        return True
    if isinstance(cell, str):
        return cell.strip() in ("", "?")
    return False


def _ref_parse_label(cell, column: str) -> bool:
    text = str(cell).strip().lower()
    if text in {"1", "1.0", "true", "yes"}:
        return True
    if text in {"0", "0.0", "false", "no"}:
        return False
    raise DegenerateLabelError(
        f"label column {column!r} has non-binary value {cell!r} (use 0/1, true/false or yes/no)"
    )


def _ref_try_floats(cells):
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


def _ref_build_feature(fid, name, raw, n_bins, scheme, literal_is_missing, finite_only):
    present = [c for c in raw if not _ref_is_missing(c)]
    has_missing = len(present) < len(raw)
    numeric_values = _ref_try_floats(present)

    if numeric_values is not None:
        if has_missing:
            raise DataFormatError(
                f"column {name!r}: numeric column contains missing values; impute or drop it"
            )
        values = np.asarray(numeric_values, dtype=float)
        if finite_only and not np.isfinite(values).all():  # the second marked line
            raise DataFormatError(f"column {name!r}: non-finite value "
                                  f"{present[np.isfinite(values).argmin()]!r}; impute or drop it")
        if values.size == 0 or values.min() == values.max():
            raise DataFormatError(f"column {name!r} has a single distinct value")
        edges = _bin_edges(values, n_bins, scheme, name)
        intervals = tuple((float(edges[i]), float(edges[i + 1])) for i in range(len(edges) - 1))
        spec = FeatureSpec(fid, name, "numeric", intervals=intervals)
        return spec, spec._interval_codes(values)

    as_text = [MISSING if _ref_is_missing(c) else str(c) for c in raw]
    vocab = sorted(set(as_text) - {MISSING})
    if has_missing or (literal_is_missing and MISSING in as_text):  # the marked line
        vocab.append(MISSING)
    if len(vocab) < 2:
        raise DataFormatError(f"column {name!r} has a single distinct value")
    spec = FeatureSpec(fid, name, "categorical", categories=tuple(vocab))
    return spec, spec.encode_column(raw)


def reference_discretize(table, n_bins, scheme, literal_is_missing=False, finite_only=False):
    def column(name):
        idx = table.names.index(name)
        return [row[idx] for row in table.rows]

    labels = np.array([_ref_parse_label(c, table.label_column) for c in column(table.label_column)])
    if labels.size == 0:
        raise DataFormatError("table has no data rows")
    if labels.all() or not labels.any():
        raise DegenerateLabelError(
            f"label column {table.label_column!r} has a single class; need both 0 and 1"
        )
    feature_names = [n for n in table.names if n != table.label_column]
    specs, encoded = [], []
    for fid, name in enumerate(feature_names):
        spec, codes = _ref_build_feature(fid, name, column(name), n_bins, scheme,
                                         literal_is_missing, finite_only)
        specs.append(spec)
        encoded.append(codes)
    return Dataset(specs, np.stack(encoded, axis=1), labels, label_name=table.label_column)


def outcome(build):
    try:
        data = build()
    except Exception as exc:  # the comparison covers the exception raised
        return type(exc), str(exc)
    return data.features, data.rows.tolist(), data.labels.tolist()


finite = st.floats(-1e6, 1e6)
cell_kinds = {
    "numbers": st.one_of(
        st.integers(-1000, 1000), finite, finite.map(np.float64), st.sampled_from([0, 1, 0.0, -0.0])
    ),
    "numeric text": st.one_of(
        finite.map(repr), finite.map(lambda x: f" {x:.3f} "), st.integers(-9, 9).map(str),
        st.sampled_from(["nan", "inf", "-inf", "1_0", "1e3"]),
    ),
    "special floats": st.sampled_from([float("nan"), float("inf"), np.float64("-inf")]),
    "missing": st.sampled_from(["", " ", "?", " ? ", None]),
    "text": st.sampled_from(["a", "b", " a", "CA", "x1", "1e", "True", "None"]),
    "bools": st.sampled_from([True, False, np.True_, np.False_]),
    "marker": st.just(MISSING),
}
negatives = st.sampled_from([0, "0", "No", False, 0.0, " false "])
positives = st.sampled_from([1, "1", " yes", True, 1.0, "TRUE"])
non_labels = st.sampled_from(["2", -0.0, "", None, "maybe"])


@st.composite
def raw_tables(draw):
    n_rows = draw(st.integers(1, 8))
    names = ["y"]
    # both classes in most tables, so that the feature columns are reached
    label_cells = negatives | positives | non_labels if draw(st.integers(0, 4)) == 0 else (
        negatives | positives)
    columns = [[draw(negatives), draw(positives),
                *draw(st.lists(label_cells, min_size=n_rows, max_size=n_rows))][:n_rows]]
    for j in range(draw(st.integers(1, 3))):
        kinds = draw(st.sets(st.sampled_from(sorted(cell_kinds)), min_size=1, max_size=3))
        cells = st.one_of(*(cell_kinds[k] for k in sorted(kinds)))
        columns.append(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
        names.append(f"f{j}")
    table = RawTable(names=tuple(names), rows=list(zip(*columns)), label_column="y")
    return table, draw(st.integers(2, 5)), draw(st.sampled_from(["width", "frequency"]))


# the reference re-runs the old binning of nan/inf cells, which warns
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(raw_tables())
@example((RawTable(names=("c", "x", "label"), label_column="label", rows=[
    ("a", 0.1, 1), ("b", 0.5, 0), (MISSING, 0.9, 1), ("a", 0.2, 0)]), 2, "width"))
@example((RawTable(names=("c", "y"), label_column="y", rows=[
    (0, 1), (False, 0), ("", 1), (MISSING, 0)]), 2, "width"))
@example((RawTable(names=("x", "y"), label_column="y", rows=[
    ("0.1", 1), ("nan", 0), ("0.5", 1), ("0.7", 0)]), 2, "width"))
def test_discretize_matches_the_previous_ingest(case):
    """Same features, codes and labels as the previous code, or the same
    exception type and message, but for the two intended changes.  A
    literal MISSING cell in a categorical column is a missing cell: the
    previous code left the missing entry out of the vocabulary when no
    blank cell was there, then crashed in Dataset or found a single
    distinct value.  A non-finite number in a numeric column is a
    DataFormatError naming it: the previous code crashed building an
    interval from it, or blamed the binning or a single distinct value."""
    table, n_bins, scheme = case
    expected = outcome(lambda: reference_discretize(table, n_bins, scheme, True, True))
    assert outcome(lambda: discretize(table, n_bins, scheme)) == expected
    finite_any = outcome(lambda: reference_discretize(table, n_bins, scheme, True))
    if finite_any != expected:
        assert expected[0] is DataFormatError and "non-finite value" in expected[1]
        assert finite_any[0] is ValueError and "empty interval" in finite_any[1] or (
            finite_any[0] is DataFormatError
            and ("binning collapsed" in finite_any[1] or "single distinct value" in finite_any[1])
        )
    before = outcome(lambda: reference_discretize(table, n_bins, scheme))
    if before != finite_any:
        assert any(MISSING in row for row in table.rows)
        assert before[0] in (ValueError, DataFormatError)
        assert "row value out of range" in before[1] or "single distinct value" in before[1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_condition_mask_equals_or_of_value_masks(draw):
    # past half the vocabulary the mask is built from the values left out
    vocab_sizes = draw.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    rows = draw.draw(st.lists(
        st.tuples(*(st.integers(0, v - 1) for v in vocab_sizes)), min_size=1, max_size=150
    ))
    data = make_dataset(vocab_sizes, rows, [i % 2 for i in range(len(rows))])
    j = draw.draw(st.integers(0, len(vocab_sizes) - 1))
    values = draw.draw(st.lists(st.integers(0, vocab_sizes[j] - 1), max_size=10))
    plain = 0
    for v in values:
        plain |= data.value_masks[j][v]
    assert condition_mask(data, j, tuple(values)) == plain
