import csv
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from batchdesign import data_io
from batchdesign.data_io import (
    INTERCEPT_NAME,
    expand_interactions,
    read_dataset,
    write_table_csv,
    write_weights_csv,
)
from batchdesign.errors import EmptyInput, ParseError

from helpers import write_weights_csv_reference


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_read_features_and_response(tmp_path):
    path = _write(tmp_path, "a,b,y\n1,2,0\n3,4,1\n")
    ds = read_dataset(path, response_col="y")
    assert np.allclose(ds.Z, [[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(ds.y, [0.0, 1.0])
    assert ds.feature_names == ("a", "b")
    assert ds.response_name == "y"


def test_read_without_response_and_intercept(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n\n3,4\n")
    ds = read_dataset(path, add_intercept=True)
    assert ds.y is None
    assert ds.feature_names == (INTERCEPT_NAME, "a", "b")
    assert np.allclose(ds.Z, [[1.0, 1.0, 2.0], [1.0, 3.0, 4.0]])


def test_read_errors_name_the_cell(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,oops\n")
    with pytest.raises(ParseError, match=r"row 3, column 'b'.*'oops'"):
        read_dataset(path)
    path = _write(tmp_path, "a,b\n1,inf\n")
    with pytest.raises(ParseError, match="non-finite"):
        read_dataset(path)


def test_read_structural_errors(tmp_path):
    with pytest.raises(EmptyInput):
        read_dataset(_write(tmp_path, ""))
    with pytest.raises(EmptyInput):
        read_dataset(_write(tmp_path, "a,b\n"))
    with pytest.raises(ParseError, match="duplicate"):
        read_dataset(_write(tmp_path, "a,a\n1,2\n"))
    with pytest.raises(ParseError, match="response column"):
        read_dataset(_write(tmp_path, "a,b\n1,2\n"), response_col="y")
    with pytest.raises(ParseError, match="row 3 has 3 cells"):
        read_dataset(_write(tmp_path, "a,b\n1,2\n1,2,3\n"))


def test_expand_interactions():
    Z = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    names = ("a", "b", "c")
    Z2, names2 = expand_interactions(Z, names, "a:b, b:c")
    assert names2 == ("a", "b", "c", "a:b", "b:c")
    assert np.allclose(Z2[:, 3], [2.0, 20.0])
    assert np.allclose(Z2[:, 4], [6.0, 30.0])
    same, same_names = expand_interactions(Z, names, None)
    assert same is Z and same_names == names
    with pytest.raises(ParseError, match="bad interaction term"):
        expand_interactions(Z, names, "a:b:c")
    with pytest.raises(ParseError, match="not in"):
        expand_interactions(Z, names, "a:zzz")


def test_write_weights_roundtrip(tmp_path):
    path = tmp_path / "weights.csv"
    weights = np.array([0.5, 0.25, 0.25, 0.0])
    scores = np.array([1.0, 2.0, 3.0, 4.0]) / 3.0
    write_weights_csv(path, weights, scores, selected=[0, 2])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["index"] for r in rows] == ["0", "1", "2", "3"]
    assert [int(r["selected"]) for r in rows] == [1, 0, 1, 0]
    # full precision round trips
    assert float(rows[1]["score"]) == scores[1]
    assert float(rows[0]["weight"]) == 0.5


def test_write_table_handles_missing_cells(tmp_path):
    path = tmp_path / "table.csv"
    write_table_csv(path, ["method", "value"], [["x", 1.0 / 3.0], ["y", None]])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "value"]
    assert rows[1][0] == "x" and float(rows[1][1]) == 1.0 / 3.0
    assert rows[2] == ["y", ""]


# --- the fast body parse against the cell-by-cell scan ----------------------

def _scan_only(path, **kwargs):
    """read_dataset with numpy's parser refusing, so that _scan_rows reads the body."""
    with mock.patch.object(data_io.np, "loadtxt", side_effect=ValueError("refused")):
        return read_dataset(path, **kwargs)


def _outcome(read, path, **kwargs):
    try:
        ds = read(path, **kwargs)
    except (ParseError, EmptyInput) as exc:
        return type(exc), str(exc)
    y = None if ds.y is None else (ds.y.shape, ds.y.tobytes())
    return ds.Z.shape, ds.Z.dtype, ds.Z.tobytes(), y, ds.feature_names, ds.response_name


_BAD_TOKENS = ("oops", "1_0", "\u0661", "nan", "-NaN", "inf", "+Inf", "-infinity",
               "1e999", "0x10", '"1"2', '1"2"', "", " ", "1 2", "--1")


@st.composite
def _cells(draw):
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from(_BAD_TOKENS))
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    text = draw(st.sampled_from([repr(x), "%.17g" % x, "%.6e" % x, "%d" % x]))
    if draw(st.booleans()) and not text.startswith("-"):
        text = draw(st.sampled_from("+-")) + text
    text = draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " "]))
    if draw(st.integers(0, 3)) == 0:
        text = '"' + text + '"'
    return text


@st.composite
def _csv_files(draw):
    ncol = draw(st.integers(1, 4))
    header = [f"c{j}" for j in range(ncol)]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 11))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", ",", ", ,", "   ", "\t"])))
            continue
        width = ncol
        if kind == 1:
            width = draw(st.sampled_from([max(ncol - 1, 0), ncol + 1]))
        row = ",".join(draw(_cells()) for _ in range(width))
        if kind == 2:
            row += ","
        lines.append(row)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    if draw(st.booleans()):
        text = "\ufeff" + text
    response = draw(st.none() | st.sampled_from(header))
    return text, response, draw(st.booleans())


@given(_csv_files())
def test_fast_parse_matches_the_scan(tmp_path_factory, case):
    text, response, intercept = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    kwargs = {"response_col": response, "add_intercept": intercept}
    assert _outcome(read_dataset, path, **kwargs) == _outcome(_scan_only, path, **kwargs)


def test_short_rows_that_agree_are_rejected(tmp_path):
    # loadtxt reads this as a one-column table
    with pytest.raises(ParseError, match="row 2 has 1 cells, header has 2"):
        read_dataset(_write(tmp_path, "a,b\n1\n"))


@pytest.mark.parametrize("token", ["nan", "inf", "infinity", "+Inf"])
def test_non_finite_tokens_are_rejected(tmp_path, token):
    # loadtxt returns these as values
    with pytest.raises(ParseError, match=f"row 3, column 'b': non-finite value '{re.escape(token)}'"):
        read_dataset(_write(tmp_path, f"a,b\n1,2\n3,{token}\n"))


@pytest.mark.parametrize("response", [None, "b"])
def test_header_only_file_is_empty_and_silent(tmp_path, response):
    # loadtxt warns on a body without rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyInput, match="no data rows"):
            read_dataset(_write(tmp_path, "a,b\n\n"), response_col=response)


@pytest.mark.parametrize("text,want", [
    ("a,b\n1,2\n,\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("a,b\n1,2\n   \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("a,b\n1_0,2\n", [[10.0, 2.0]]),
    ("a,b\n\u0661,\u0662.5\n", [[1.0, 2.5]]),
])
def test_cells_only_float_reads_are_accepted(tmp_path, text, want):
    # loadtxt rejects each of these files
    ds = read_dataset(_write(tmp_path, text))
    assert ds.Z.tolist() == want


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes("\ufeffy,a\r\n1,2\r\n0,4\r\n".encode("utf-8"))
    ds = read_dataset(path, response_col="y")
    assert ds.feature_names == ("a",)
    assert ds.y.tolist() == [1.0, 0.0] and ds.Z.tolist() == [[2.0], [4.0]]


_WRITER_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e-300,
                     0.1, 1 / 3, 9007199254740993.0, 1.2345678901234567e-5]),
)


@given(st.lists(st.tuples(_WRITER_FLOATS, _WRITER_FLOATS, st.booleans()), max_size=30))
def test_weights_writer_bytes_match_csv_writer(tmp_path_factory, rows):
    weights = np.array([r[0] for r in rows], dtype=float)
    scores = np.array([r[1] for r in rows], dtype=float)
    selected = [i for i, r in enumerate(rows) if r[2]]
    out = tmp_path_factory.mktemp("weights")
    write_weights_csv(out / "fast.csv", weights, scores, selected)
    write_weights_csv_reference(out / "ref.csv", weights, scores, selected)
    assert (out / "fast.csv").read_bytes() == (out / "ref.csv").read_bytes()
