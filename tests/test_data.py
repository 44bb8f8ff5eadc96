"""The columnar CSV loader against the per-cell reference loader."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolattice import DataError, FeatureSpec, load_dataset, load_pair_dataset
from scalar_reference import reference_load_dataset, reference_load_pair_dataset

MISSING_TOKENS = ["", "NA", "-999"]
# numbers, tokens and text that float() reads in its own ways or rejects
CELLS = [
    "0.5", "1", "0", "-2.25", "-0.0", "3e-8", "nan", "NaN", "-nan", "inf", "-inf",
    "1e400", " 1.5", "1_0", "abc", "", "NA", "-999", "x,y", "a b", "1.5.2",
]
LABELS = ["0", "1", "0.25", "1.0", "", "NA", "nan", "x,y"]


def write_lines(path, header, records):
    """``records`` are cell lists, or None for a blank line."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for record in records:
            if record is None:
                fh.write("\r\n")
            else:
                writer.writerow(record)


def load_both(loader, reference, path, *args, **kwargs):
    """(result, error message) of the loader and of the reference."""
    out = []
    for fn in (loader, reference):
        try:
            out.append((fn(path, *args, **kwargs), None))
        except DataError as e:
            out.append((None, str(e)))
    return out


def assert_same_columns(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert isinstance(g, np.ndarray)
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
        else:
            assert isinstance(g, list)
            assert g == w


@st.composite
def feature_specs(draw):
    kinds = draw(st.lists(st.sampled_from(["continuous", "categorical"]), min_size=1, max_size=3))
    return [FeatureSpec(f"f{d}", kind) for d, kind in enumerate(kinds)]


@st.composite
def records(draw, width, cells):
    """Rows of ``width`` cells, some a cell short or long, with blank lines."""
    out = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            out.append(None)
            continue
        row = [draw(cells(k)) for k in range(width)]
        skew = draw(st.sampled_from([0] * 12 + [-1, 1]))
        out.append(row[:-1] if skew < 0 else row + ["1"] * skew)
    return out


@st.composite
def row_files(draw):
    specs = draw(feature_specs())
    names = [s.name for s in specs] + ["y"] + draw(st.sampled_from([[], ["z"], ["z", "z"]]))
    header = draw(st.permutations(names))
    if draw(st.booleans()):
        header = [" " + header[0]] + header[1:]  # header names are stripped

    def cells(k):
        pool = LABELS if header[k] == "y" else CELLS
        return st.sampled_from(["0.5", "1", "-2.25", "7"] * 3 + pool)

    return specs, header, draw(records(len(header), cells))


@settings(max_examples=300, deadline=None)
@given(
    row_files(),
    st.sampled_from(MISSING_TOKENS),
    st.sampled_from(["y", "nolabel", None]),
    st.booleans(),
)
def test_row_layout_matches_the_reference(file, missing_token, label, require):
    specs, header, lines = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_lines(path, header, lines)
        (got, got_err), (want, want_err) = load_both(
            load_dataset, reference_load_dataset, path, specs, label,
            missing_token=missing_token, require_labels=require,
        )
    assert got_err == want_err
    if want is not None:
        assert_same_columns(got.columns, want.columns)
        if want.labels is None:
            assert got.labels is None
        else:
            assert got.labels.tobytes() == want.labels.tobytes()
            assert got.labels.shape == want.labels.shape


@st.composite
def suffix_files(draw):
    specs = draw(feature_specs())
    names = [s.name + side for s in specs for side in "+-"]
    if draw(st.booleans()):
        names.remove(draw(st.sampled_from(names)))  # a side without a column
    header = draw(st.permutations(names + draw(st.sampled_from([[], ["z", "z"]]))))
    return specs, header, draw(records(len(header), lambda k: st.sampled_from(CELLS)))


@settings(max_examples=200, deadline=None)
@given(suffix_files(), st.sampled_from(MISSING_TOKENS))
def test_suffix_pair_layout_matches_the_reference(file, missing_token):
    specs, header, lines = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.csv"
        write_lines(path, header, lines)
        (got, got_err), (want, want_err) = load_both(
            load_pair_dataset, reference_load_pair_dataset, path, specs,
            missing_token=missing_token,
        )
    assert got_err == want_err
    if want is not None:
        assert_same_columns(got.plus_columns, want.plus_columns)
        assert_same_columns(got.minus_columns, want.minus_columns)


@st.composite
def two_row_files(draw):
    """Pairs of rows under ids p0, p1, ... in shuffled order; some files
    break a pair (a third row, a lost row, labels that are not 0 and 1)."""
    specs = draw(feature_specs())
    header = draw(st.permutations([s.name for s in specs] + ["pid", "won"]))
    n_pairs = draw(st.integers(0, 5))
    rows = []
    for p in range(n_pairs):
        marks = draw(st.sampled_from([("1", "0"), ("0", "1")] * 6 + [("1", "1"), ("0", "1.0")]))
        copies = draw(st.sampled_from([2] * 10 + [1, 3]))
        for k in range(copies):
            cells = {"pid": f"p{p}", "won": marks[k % 2]}
            for s in specs:
                cells[s.name] = draw(st.sampled_from(["0.5", "1", "-2.25", "7"] * 4 + CELLS))
            rows.append([cells[h] for h in header])
    rows = draw(st.permutations(rows))
    lines = []
    for row in rows:
        if draw(st.integers(0, 9)) == 0:
            lines.append(None)
        lines.append(row)
    return specs, header, lines


@settings(max_examples=300, deadline=None)
@given(two_row_files(), st.sampled_from(MISSING_TOKENS))
def test_two_row_pair_layout_matches_the_reference(file, missing_token):
    specs, header, lines = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "duels.csv"
        write_lines(path, header, lines)
        (got, got_err), (want, want_err) = load_both(
            load_pair_dataset, reference_load_pair_dataset, path, specs,
            pair_id_column="pid", label_column="won", missing_token=missing_token,
        )
    assert got_err == want_err
    if want is not None:
        assert_same_columns(got.plus_columns, want.plus_columns)
        assert_same_columns(got.minus_columns, want.minus_columns)


def test_first_bad_pair_cell_is_reported_from_the_preferred_side(tmp_path):
    # file order meets "b" first, but "a" sits on the preferred row
    path = tmp_path / "duels.csv"
    write_lines(path, ["pid", "won", "x"], [["p0", "0", "b"], ["p0", "1", "a"]])
    with pytest.raises(DataError, match="'a' is not a number"):
        load_pair_dataset(path, [FeatureSpec("x")], pair_id_column="pid", label_column="won")


def test_empty_file_needs_a_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty file, expected a header row"):
        load_dataset(path, [FeatureSpec("x")])


class TestDuplicateHeaders:
    def test_duplicate_feature_column(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_lines(path, ["x", "x", "y"], [["1", "5", "0"], ["2", "6", "1"]])
        with pytest.raises(DataError, match=r"dup\.csv: column 'x' appears more than once"):
            load_dataset(path, [FeatureSpec("x")], "y")

    def test_duplicate_label_column(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_lines(path, ["x", "y", "y"], [["1", "5", "0"]])
        with pytest.raises(DataError, match="column 'y' appears more than once"):
            load_dataset(path, [FeatureSpec("x")], "y")

    def test_duplicate_suffix_column(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_lines(path, ["x+", "x-", "x-"], [["1", "5", "0"]])
        with pytest.raises(DataError, match="column 'x-' appears more than once"):
            load_pair_dataset(path, [FeatureSpec("x")])

    def test_duplicate_pair_id_column(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_lines(path, ["pid", "pid", "won", "x"], [["a", "a", "1", "1"], ["a", "a", "0", "2"]])
        with pytest.raises(DataError, match="column 'pid' appears more than once"):
            load_pair_dataset(path, [FeatureSpec("x")], pair_id_column="pid", label_column="won")

    def test_names_equal_after_stripping_are_duplicates(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_lines(path, ["x", " x", "y"], [["1", "5", "0"]])
        with pytest.raises(DataError, match="column 'x' appears more than once"):
            load_dataset(path, [FeatureSpec("x")], "y")

    def test_unread_duplicates_are_allowed(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_lines(path, ["x", "note", "note", "y"], [["1", "a", "b", "0"]])
        data = load_dataset(path, [FeatureSpec("x")], "y")
        assert data.columns[0].tolist() == [1.0]
