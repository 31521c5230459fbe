"""Tests for CSV ingestion, splits, scaling, and the bundled tasks."""
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interaction_lab import (
    DomainError,
    SchemaError,
    TabularDataset,
    ValidationError,
    apply_standardization,
    bundled_dataset,
    load_dataset_csv,
    make_conjunction_task,
    make_pairwise_task,
    resolve_dataset,
    split_dataset,
    standardize,
    write_dataset_csv,
)


def _toy():
    feats = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    return TabularDataset(feats, np.array([0, 1, 1, 0]), ("a", "b"),
                          "label", ("no", "yes"))


def test_dataset_validation():
    with pytest.raises(ValidationError):
        TabularDataset(np.zeros((2, 2)), np.array([0]), ("a", "b"), "y", ("0", "1"))
    with pytest.raises(ValidationError):
        TabularDataset(np.zeros((2, 2)), np.array([0, 2]), ("a", "b"), "y", ("0", "1"))
    with pytest.raises(ValidationError):
        TabularDataset(np.array([[np.inf, 0.0]]), np.array([0]), ("a", "b"), "y", ("0",))
    with pytest.raises(ValidationError):
        TabularDataset(np.zeros((1, 2)), np.array([0]), ("a",), "y", ("0",))


def test_take_reorders_rows():
    ds = _toy()
    sub = ds.take([2, 0])
    assert np.array_equal(sub.features, ds.features[[2, 0]])
    assert np.array_equal(sub.labels, [1, 0])
    assert sub.label_values == ds.label_values


def test_csv_round_trip_is_byte_stable(tmp_path):
    ds = _toy()
    path = tmp_path / "toy.csv"
    write_dataset_csv(path, ds, meta={"source": "unit"})
    first = path.read_bytes()
    write_dataset_csv(path, ds, meta={"source": "unit"})
    assert path.read_bytes() == first
    loaded = load_dataset_csv(path, "label")
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.feature_names == ds.feature_names
    assert loaded.label_values == ds.label_values


def _reads_back(dataset, meta=None):
    """Write the dataset; unless the writer refuses it, it loads back equal."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "data.csv"
        try:
            write_dataset_csv(path, dataset, meta)
        except SchemaError:
            return False
        loaded = load_dataset_csv(path, dataset.label_name)
    assert loaded.features.shape == dataset.features.shape
    assert loaded.features.tobytes() == dataset.features.tobytes()
    assert loaded.feature_names == dataset.feature_names
    assert ([loaded.label_values[k] for k in loaded.labels]
            == [dataset.label_values[k] for k in dataset.labels])
    return True


def test_quoted_names_and_labels_read_back():
    feats = np.array([[1.0, -0.0], [2.5, 1e-320]])
    assert _reads_back(TabularDataset(feats, np.array([0, 0]), ("a,b", 'q"x'), "label",
                                      ("x,y",)), meta=None)
    assert _reads_back(TabularDataset(feats, np.array([1, 0]), ("a\nb", "#c"), '"y"',
                                      ("1,5", "a\nb")), meta={"seed": 3})


# texts a CSV dialect can get wrong, plus any text
_TEXT = st.sampled_from(["", "x,y", 'q"x', "a,b", "#", "#a", " a", "a ", "\r", "\n", "a\r\nb",
                         "a\rb", '"', "1", "1.0", "01", "-2e3", "nan", "inf", "label",
                         "\x00", "\ufeff", "\ufeffa"]) | st.text(
    st.sampled_from(',"\r\n# \t\x00a1.e-') | st.characters(), max_size=6)


@st.composite
def _datasets(draw):
    names = draw(st.lists(_TEXT, max_size=4))
    values = draw(st.lists(_TEXT, min_size=1, max_size=3))
    rows = draw(st.integers(0, 4))
    cells = st.floats(allow_nan=False, allow_infinity=False)
    feats = np.array(draw(st.lists(st.lists(cells, min_size=len(names), max_size=len(names)),
                                   min_size=rows, max_size=rows)), dtype=float)
    labels = draw(st.lists(st.integers(0, len(values) - 1), min_size=rows, max_size=rows))
    return TabularDataset(feats.reshape(rows, len(names)), np.array(labels, dtype=int),
                          tuple(names), draw(_TEXT), tuple(values))


@settings(max_examples=300, deadline=None)
@example(dataset=TabularDataset(np.zeros((1, 2)), np.array([0]), ("a", "b"), "label", ("x,y",)),
         meta=None)
@example(dataset=TabularDataset(np.zeros((1, 2)), np.array([0]), ("a,b", "c"), "label", ("y",)),
         meta=None)
@given(dataset=_datasets(), meta=st.none() | st.just({"source": "unit"}))
def test_written_datasets_read_back_or_are_refused(dataset, meta):
    _reads_back(dataset, meta)


def test_loader_errors_name_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1.0,2.0,yes\n1.0,oops,no\n")
    with pytest.raises(SchemaError, match="row 2.*'b'.*'oops'"):
        load_dataset_csv(path, "label")
    path.write_text("a,b,label\n1.0,inf,yes\n")
    with pytest.raises(SchemaError, match="row 1.*non-finite"):
        load_dataset_csv(path, "label")
    path.write_text("a,b,label\n1.0,2.0\n")
    with pytest.raises(SchemaError, match="row 1.*expected 3 cells"):
        load_dataset_csv(path, "label")
    path.write_text("a,b,label\n1.0,2.0,\n")
    with pytest.raises(SchemaError, match="row 1.*empty label"):
        load_dataset_csv(path, "label")


def test_loader_parses_each_cell_as_float_does(tmp_path):
    cells = [[" 1.5", "2e-3 ", "-0.0"], ["1_000.25", "\t7E+2", "0"],
             ["3.141592653589793", "1e-320", "  -2.5e10  "]]
    path = tmp_path / "cells.csv"
    path.write_text("a,b,c,label\n" + "".join(",".join(row) + ",y\n" for row in cells))
    loaded = load_dataset_csv(path, "label")
    expected = np.array([[float(cell) for cell in row] for row in cells])
    assert loaded.features.tobytes() == expected.tobytes()


@pytest.mark.parametrize("header, rows, message", [
    ("a,b,label", ["1,2,y", "1,oops,y", "inf,2,y"],
     "row 2: column 'b' has non-numeric cell 'oops'"),
    ("a,b,label", ["1,2,y", "nan,2,y", "1,oops,y"], "row 2: column 'a' has non-finite cell 'nan'"),
    ("a,b,label", ["1,2,y", "1,2", "1,2,"], "row 2: expected 3 cells, got 2"),
    ("a,b,label", ["1,2, ", "1,2"], "row 1: empty label cell"),
    ("a,b,label", ["1,2,y", "x,2,", "1,2,y"], "row 2: column 'a' has non-numeric cell 'x'"),
    ("a,b,label", ["1,2,y", "1,-inf,", "1,2,y"], "row 2: column 'b' has non-finite cell '-inf'"),
    ("a,label,b", ["1,y,2", "1,,oops", "z,y,2"], "row 2: empty label cell"),
    ("a,label,b", ["1,y,2", "inf,,2"], "row 2: column 'a' has non-finite cell 'inf'"),
])
def test_loader_reports_the_first_bad_cell(tmp_path, header, rows, message):
    # row-major order: earlier rows first, then the leftmost cell of the row
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(SchemaError) as info:
        load_dataset_csv(path, "label")
    assert str(info.value) == message


def test_loader_structural_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        load_dataset_csv(path, "label")
    path.write_text("a,a,label\n1,2,x\n")
    with pytest.raises(SchemaError, match="duplicate column"):
        load_dataset_csv(path, "label")
    path.write_text("a,b,target\n1,2,x\n")
    with pytest.raises(SchemaError, match="no column 'label'"):
        load_dataset_csv(path, "label")
    path.write_text("a,b,label\n")
    with pytest.raises(SchemaError, match="no data rows"):
        load_dataset_csv(path, "label")
    with pytest.raises(ValidationError, match="cannot read"):
        load_dataset_csv(tmp_path / "missing.csv", "label")


def test_loader_reads_over_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeff# a=b\r\nlabel,x\r\n1,0.5\r\n0,2\r\n".encode("utf-8"))
    ds = load_dataset_csv(path, "label")
    assert ds.feature_names == ("x",)
    assert ds.features.tolist() == [[0.5], [2.0]]


def test_label_order_numeric_vs_lexicographic(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("a,label\n1,10\n2,9\n3,10\n")
    ds = load_dataset_csv(path, "label")
    assert ds.label_values == ("9", "10")
    assert np.array_equal(ds.labels, [1, 0, 1])
    path.write_text("a,label\n1,b\n2,a\n3,b\n")
    ds = load_dataset_csv(path, "label")
    assert ds.label_values == ("a", "b")
    assert np.array_equal(ds.labels, [1, 0, 1])


def test_standardize_and_apply():
    ds = _toy()
    scaled, mean, std = standardize(ds)
    assert np.allclose(scaled.features.mean(axis=0), 0.0)
    assert np.allclose(scaled.features.std(axis=0), 1.0)
    again = apply_standardization(ds, mean, std)
    assert np.array_equal(again.features, scaled.features)
    with pytest.raises(DomainError):
        apply_standardization(ds, mean[:1], std[:1])
    with pytest.raises(DomainError):
        apply_standardization(ds, mean, np.zeros_like(std))


def test_standardize_constant_column():
    feats = np.array([[1.0, 5.0], [1.0, 7.0]])
    ds = TabularDataset(feats, np.array([0, 1]), ("a", "b"), "y", ("0", "1"))
    scaled, _, std = standardize(ds)
    assert std[0] == 1.0
    assert np.all(np.isfinite(scaled.features))


def test_split_dataset_partitions_rows():
    ds = bundled_dataset("pairs")
    train, val = split_dataset(ds, 0.25, seed=3)
    assert train.num_rows + val.num_rows == ds.num_rows
    assert val.num_rows == round(0.25 * ds.num_rows)
    joined = np.vstack([train.features, val.features])
    assert np.array_equal(np.sort(joined, axis=0), np.sort(ds.features, axis=0))
    t2, v2 = split_dataset(ds, 0.25, seed=3)
    assert np.array_equal(train.features, t2.features)
    assert np.array_equal(val.features, v2.features)
    t3, _ = split_dataset(ds, 0.25, seed=4)
    assert not np.array_equal(train.features, t3.features)
    with pytest.raises(ValidationError):
        split_dataset(ds, 0.0, seed=0)
    with pytest.raises(ValidationError):
        split_dataset(ds, 1.0, seed=0)


def test_split_keeps_at_least_one_row_per_side():
    ds = _toy()
    train, val = split_dataset(ds, 0.01, seed=0)
    assert val.num_rows == 1 and train.num_rows == 3


def test_pairwise_task_shapes_and_balance():
    ds = make_pairwise_task(600, 10, 6, seed=5)
    assert ds.num_rows == 600 and ds.num_features == 10
    assert ds.num_classes == 2
    rate = ds.labels.mean()
    assert 0.3 < rate < 0.7
    again = make_pairwise_task(600, 10, 6, seed=5)
    assert np.array_equal(ds.features, again.features)
    assert np.array_equal(ds.labels, again.labels)
    with pytest.raises(ValidationError):
        make_pairwise_task(600, 10, 46, seed=5)
    with pytest.raises(ValidationError):
        make_pairwise_task(600, 10, 6, seed=5, conjunction_degree=1)
    with pytest.raises(ValidationError):
        make_pairwise_task(600, 10, 6, seed=5, label_noise=0.5)


def test_conjunction_task_balance():
    ds = make_conjunction_task(2000, 12, 8, seed=6)
    rate = ds.labels.mean()
    # threshold calibrates the AND to roughly even classes
    assert 0.35 < rate < 0.65
    with pytest.raises(ValidationError):
        make_conjunction_task(100, 12, 1, seed=0)


def test_label_noise_flips_labels():
    clean = make_pairwise_task(500, 8, 4, seed=9)
    noisy = make_pairwise_task(500, 8, 4, seed=9, label_noise=0.2)
    assert np.array_equal(clean.features, noisy.features)
    flipped = (clean.labels != noisy.labels).mean()
    assert 0.1 < flipped < 0.3


def test_bundled_presets_are_frozen():
    pairs = bundled_dataset("pairs")
    assert pairs.num_rows == 768 and pairs.num_features == 12
    conj = bundled_dataset("conjunction")
    assert conj.num_rows == 768 and conj.num_features == 12
    again = bundled_dataset("pairs")
    assert np.array_equal(pairs.features, again.features)
    with pytest.raises(ValidationError):
        bundled_dataset("mystery")


@pytest.mark.parametrize("name, features_sha, labels_sha", [
    ("pairs", "543407d85197f3e277fb0fa5e1cec90c3044412f89aff74b3f543a7ec15fd5bf",
     "b1464d08b388e15d0cde98ef21449ce0dfffad53afe7bcd0869f8a08a329fb6d"),
    ("conjunction", "0bd9718afe0e6dfe70790889804770dd9c33c3a0e18ec90d6690cc35f86923ec",
     "c3aad582d630e673715a94fec6ced661151ec035a10b578a41e2944992644036"),
])
def test_bundled_presets_keep_their_bytes(name, features_sha, labels_sha):
    # every trained model and byte-compared artifact starts from these rows
    data = bundled_dataset(name)
    assert hashlib.sha256(data.features.astype("<f8").tobytes()).hexdigest() == features_sha
    assert hashlib.sha256(data.labels.astype("<i8").tobytes()).hexdigest() == labels_sha


def test_resolve_dataset(tmp_path):
    ds = resolve_dataset("bundled:conjunction")
    assert ds.num_rows == 768
    path = tmp_path / "toy.csv"
    write_dataset_csv(path, _toy())
    loaded = resolve_dataset(str(path))
    assert loaded.num_rows == 4
