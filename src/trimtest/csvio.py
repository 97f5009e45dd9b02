"""CSV ingestion and atomic, deterministic file output.

Input files are UTF-8 with a header row.  All columns except the cluster
column must parse as finite floats; an empty cell in any of them drops the
row with a warning count, while non-numeric garbage or a non-finite value
(nan, inf, -Infinity) is an error naming the row and column, and so is a
cluster label holding a NUL character.  Output files are written to a
temporary file in the target directory and renamed into place, so readers
never observe a partial file.
"""

from __future__ import annotations

import csv
import math
import os
import secrets
from dataclasses import dataclass

import numpy as np

from .dataset import PanelDataset
from .errors import DataError


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


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file and rename; partial files never land.

    The temp file is created with mode 0666 so the kernel applies the
    umask, as open() would (mkstemp's 0600 would leave every output
    private); O_EXCL keeps an existing file from being reused.  A path
    that cannot be written raises DataError.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}.part")
    try:
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def check_writable_directory(directory: str) -> None:
    """Raise DataError unless atomic_write_text could write into directory; create nothing.

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


def draws_csv_text(draws: np.ndarray) -> str:
    """Draw matrix as CSV with header draw_index,stat_1,...,stat_d."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    lines = ["draw_index," + ",".join(f"stat_{j + 1}" for j in range(draws.shape[1]))]
    lines += [f"{b}," + ",".join(map(format_float, row.tolist())) for b, row in enumerate(draws)]
    return "\n".join(lines) + "\n"


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


def grid_csv_text(x: np.ndarray, y: np.ndarray, density: np.ndarray) -> str:
    """Flattened grid as CSV with header x,y,density (x outer, y inner)."""
    # Values are boxed and lines joined one x at a time.  Boxing the whole grid
    # at once, or holding all its line strings, raised peak RSS by 0.3-0.6 MB.
    ys = list(map(format_float, y.tolist()))
    rows = ["x,y,density\n"]
    for xi, row in zip(map(format_float, x.tolist()), density):
        rows.append("".join([f"{xi},{yj},{format_float(v)}\n" for yj, v in zip(ys, row.tolist())]))
    return "".join(rows)
