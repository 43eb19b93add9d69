"""CSV ingestion and artifact writers.

Input files are plain CSV in UTF-8, with or without a byte-order mark, and a
header row.  Every feature cell must parse as a finite float; the first
offending cell is reported by row number and column name so the user can fix
the file rather than guess.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, ParseError

INTERCEPT_NAME = "(intercept)"


@dataclass(frozen=True)
class Dataset:
    Z: np.ndarray
    y: np.ndarray | None
    feature_names: tuple[str, ...]
    response_name: str | None = None


def _parse_cell(text: str, row: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"row {row}, column {col!r}: cannot parse {text!r} as a number") from None
    if not np.isfinite(value):
        raise ParseError(f"row {row}, column {col!r}: non-finite value {text!r}")
    return value


def _scan_rows(path, rows, header: list[str]) -> np.ndarray:
    """Parse the body cell by cell: the reference grammar.

    Blank rows are skipped; the first short or long row, unreadable cell or
    non-finite value raises ``ParseError`` naming its row and column.
    """
    vals = []
    for lineno, row in enumerate(rows, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ParseError(f"{path}: row {lineno} has {len(row)} cells, header has {len(header)}")
        vals.append([_parse_cell(c.strip(), lineno, header[j]) for j, c in enumerate(row)])
    if not vals:
        raise EmptyInput(f"{path}: no data rows")
    return np.asarray(vals, dtype=float)


def read_dataset(path, response_col: str | None = None,
                 add_intercept: bool = False) -> Dataset:
    """Load a feature matrix (and optional response column) from CSV.

    Row numbers in error messages are 1-based and count the header, matching
    what a text editor shows.  The body goes through numpy's C parser; any
    file it rejects, or reads into a shape or value the cell scan would not,
    is parsed again by ``_scan_rows``, which either reads it or names the
    first bad row or cell.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInput(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise ParseError(f"{path}: duplicate column names in header")
        if response_col is not None and response_col not in header:
            raise ParseError(f"{path}: response column {response_col!r} not in header {header}")
        y_pos = header.index(response_col) if response_col is not None else None

        try:
            # a body without data rows warns; the row check below rejects it
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                Z = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2,
                               comments=None, quotechar='"')
            ok = Z.shape[0] > 0 and Z.shape[1] == len(header) and np.isfinite(Z).all()
        except ValueError:
            ok = False
        if not ok:
            fh.seek(0)
            rows = csv.reader(fh)
            next(rows)
            Z = _scan_rows(path, rows, header)

    names = [h for j, h in enumerate(header) if j != y_pos]
    y = None
    if y_pos is not None:
        y = Z[:, y_pos].copy()
        Z = np.delete(Z, y_pos, axis=1)
    if add_intercept:
        Z = np.hstack([np.ones((Z.shape[0], 1)), Z])
        names = [INTERCEPT_NAME, *names]
    return Dataset(Z=Z, y=y, feature_names=tuple(names), response_name=response_col)


def expand_interactions(Z: np.ndarray, names, spec: str | None):
    """Append product columns named 'a:b' for a spec like "a:b,c:d"."""
    names = tuple(names)
    if not spec:
        return Z, names
    col = {name: j for j, name in enumerate(names)}
    extra, extra_names = [], []
    for term in spec.split(","):
        term = term.strip()
        if not term:
            continue
        parts = [t.strip() for t in term.split(":")]
        if len(parts) != 2 or not all(parts):
            raise ParseError(f"bad interaction term {term!r}; expected 'col:col'")
        for name in parts:
            if name not in col:
                raise ParseError(f"interaction column {name!r} not in {list(names)}")
        a, b = parts
        extra.append(Z[:, col[a]] * Z[:, col[b]])
        extra_names.append(f"{a}:{b}")
    if not extra:
        return Z, names
    return np.column_stack([Z, *extra]), names + tuple(extra_names)


def write_weights_csv(path, weights: np.ndarray, scores: np.ndarray,
                      selected) -> None:
    """One row per candidate: index, relaxed weight, leverage score, and
    whether the point made the rounded sample."""
    sel = np.zeros(len(weights), dtype=int)
    sel[np.asarray(list(selected), dtype=int)] = 1
    with open(path, "w", newline="") as fh:
        fh.write("index,weight,score,selected\r\n")
        rows = zip(range(len(weights)), weights.tolist(), scores.tolist(), sel.tolist())
        fh.writelines("%d,%.17g,%.17g,%d\r\n" % row for row in rows)


def write_table_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(["" if v is None else (f"{v:.17g}" if isinstance(v, float) else v)
                             for v in row])
