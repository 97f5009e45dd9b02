"""CSV ingestion and atomic, deterministic file output.

Input files are UTF-8 with a header row.  All columns except the cluster
column must parse as finite floats; an empty cell in any of them drops the
row with a warning count, while non-numeric garbage or a non-finite value
(nan, inf, -Infinity) is an error naming the row and column, and so is a
cluster label holding a NUL character.  Output files are written to a
temporary file in the target directory and renamed into place, so readers
never observe a partial file.  The draws and grid writers yield their text
in chunks, which are written as they are formatted, so a file's whole text
is never held in memory.
"""

from __future__ import annotations

import csv
import math
import os
import secrets
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .dataset import PanelDataset
from .errors import DataError

# Draw rows formatted per chunk of a draws file.
ROWS_PER_CHUNK = 256


@dataclass(frozen=True)
class LoadReport:
    """What load_csv did: kept rows and per-column dropped-row counts."""

    n_rows: int
    n_dropped: int
    dropped_by_column: dict


def load_csv(path: str, cluster_column: str | None = None) -> tuple[PanelDataset, LoadReport]:
    """Read a CSV into a PanelDataset.

    cluster_column (kept as labels, not parsed) groups rows into clusters in
    file order; without it every row is its own cluster.  Every other column
    is numeric and required: rows with an empty cell are dropped and
    counted; unparseable or non-finite cells, and cluster labels holding a
    NUL character, raise DataError with the location.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        if cluster_column is not None and cluster_column not in header:
            raise DataError(f"{path}: cluster column {cluster_column!r} not in header")
        numeric_names = [h for h in header if h != cluster_column]
        col_idx = {h: i for i, h in enumerate(header)}
        rows: list[list[float]] = []
        clusters: list = []
        dropped: dict[str, int] = {}
        n_dropped = 0
        for r, rec in enumerate(reader, start=2):  # header is line 1
            if len(rec) != len(header):
                raise DataError(f"{path}: line {r} has {len(rec)} cells, expected {len(header)}")
            vals = []
            drop_cols = []
            for name in numeric_names:
                cell = rec[col_idx[name]].strip()
                if cell == "":
                    drop_cols.append(name)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan  # reported below, like nan and inf cells
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}: line {r}, column {name!r}: {cell!r} is not a finite number"
                    )
                vals.append(value)
            if drop_cols:
                n_dropped += 1
                for c in drop_cols:
                    dropped[c] = dropped.get(c, 0) + 1
                continue
            label = rec[col_idx[cluster_column]].strip() if cluster_column else r - 2
            if cluster_column and "\x00" in label:
                # numpy's fixed-width strings drop trailing NULs: "a" and "a\x00" would merge.
                raise DataError(
                    f"{path}: line {r}, column {cluster_column!r}: {label!r} contains a NUL character"
                )
            rows.append(vals)
            clusters.append(label)
        if not rows:
            raise DataError(f"{path}: no usable data rows")
    mat = np.array(rows, dtype=float)
    columns = {name: mat[:, j] for j, name in enumerate(numeric_names)}
    data = PanelDataset(columns, np.array(clusters))
    return data, LoadReport(n_rows=len(rows), n_dropped=n_dropped, dropped_by_column=dropped)


def atomic_write_chunks(path: str, chunks: Iterable[str]) -> None:
    """Write text chunks to path via a temp file and rename; partial files never land.

    Each chunk is written as the iterator produces it, so a file's whole
    text is never held.  The temp file is created with mode 0666 so the
    kernel applies the umask, as open() would (mkstemp's 0600 would leave
    every output private); O_EXCL keeps an existing file from being reused.
    If writing or the iterator fails, the temp file is removed and an
    existing file at path keeps its bytes.  A path that cannot be written
    raises DataError.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}.part")
    try:
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def atomic_write_text(path: str, text: str) -> None:
    """atomic_write_chunks of one whole text (the JSON files and report.txt).

    perfbench's tracer wraps this function by name and counts the bytes of
    its text argument, so it keeps taking one str.
    """
    atomic_write_chunks(path, (text,))


def check_writable_directory(directory: str) -> None:
    """Raise DataError unless atomic_write_chunks could write into directory; create nothing.

    The directory itself if it exists, else its nearest existing ancestor,
    must be a directory this process may write to.
    """
    existing = os.path.abspath(directory)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not (os.path.isdir(existing) and os.access(existing, os.W_OK | os.X_OK)):
        raise DataError(f"cannot write {directory}: {existing} is not a writable directory")


def format_float(x: float) -> str:
    """Shortest round-trip repr, the same on every platform; nan, inf and -inf as spelled."""
    return repr(float(x))


def draws_csv_chunks(draws: np.ndarray) -> Iterator[str]:
    """Draw matrix as CSV with header draw_index,stat_1,...,stat_d, ROWS_PER_CHUNK rows per chunk."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    yield "draw_index," + ",".join(f"stat_{j + 1}" for j in range(draws.shape[1])) + "\n"
    for start in range(0, len(draws), ROWS_PER_CHUNK):
        rows = draws[start : start + ROWS_PER_CHUNK].tolist()
        yield "".join([f"{b}," + ",".join(map(format_float, row)) + "\n" for b, row in enumerate(rows, start)])


def read_draws_csv(path: str) -> np.ndarray:
    """Read a draws CSV back into a B x d float matrix (NaN rows preserved); B may be 0.

    A ragged row or a cell that is not a number is a DataError naming the line.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "draw_index":
            raise DataError(f"{path}: not a draws file (header must start with draw_index)")
        rows = []
        for rec in reader:
            if len(rec) != len(header):
                raise DataError(f"{path}: line {reader.line_num} has {len(rec)} fields, not {len(header)}")
            row = []
            for name, cell in zip(header[1:], rec[1:]):
                try:
                    row.append(float(cell))  # "nan" too: a failed draw is a NaN row
                except ValueError:
                    raise DataError(
                        f"{path}: line {reader.line_num}, column {name!r}: {cell!r} is not a number"
                    ) from None
            rows.append(row)
    return np.array(rows, dtype=float).reshape(len(rows), len(header) - 1)


def grid_csv_chunks(x: np.ndarray, y: np.ndarray, density: np.ndarray) -> Iterator[str]:
    """Flattened grid as CSV with header x,y,density (x outer, y inner), one x per chunk."""
    ys = list(map(format_float, y.tolist()))
    yield "x,y,density\n"
    for xi, row in zip(map(format_float, x.tolist()), density):
        yield "".join([f"{xi},{yj},{format_float(v)}\n" for yj, v in zip(ys, row.tolist())])
