"""The one record layout of the corpus, partition and samples files::

    # <kind> 1
    # <key> <value>           header lines, in order; a key may repeat
    <id> <int> <float> ...    one record per line; the id is the row index

Floats are written with ``repr``. A file loads only if writing what was read gives it back.
The writer formats a block of rows at a time and the reader parses a line at a time, so
neither holds a whole file's text."""

from __future__ import annotations

import math
from itertools import accumulate, chain, zip_longest
from pathlib import Path

import numpy as np

RECORDS_VERSION = 1
_BLOCK_ROWS = 256  # records checked and formatted at a time
_CHUNK_BYTES = 1 << 16  # bytes read at a time while counting lines


def _record(i: int, k: int, row: list[float]) -> str:
    return " ".join([str(i), str(k), *map(repr, row)])


def _float_blocks(n: int, floats: list[np.ndarray]):
    """(first row, rows) of each block of rows, the float arrays' columns side by side."""
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        yield start, np.hstack([np.empty((stop - start, 0)), *(a[start:stop] for a in floats)])


def write_records(
    path: str | Path, kind: str, header: list[tuple[str, object]], ints: np.ndarray,
    *floats: np.ndarray,
) -> None:
    """Write ``# <kind> 1``, a ``# <key> <value>`` line per header pair, and
    record i as ``i ints[i]`` followed by row i of each float array in turn.
    Non-finite floats are refused before the file is opened."""
    ints = np.asarray(ints, dtype=np.int64)
    floats = [np.asarray(array, dtype=np.float64) for array in floats]
    for start, rows in _float_blocks(len(ints), floats):
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            row = start + int(np.argmin(finite))
            raise ValueError(f"{path}: record {row} has a non-finite value")
    with open(path, "w", encoding="utf-8") as out:
        lines = [f"# {kind} {RECORDS_VERSION}"] + [f"# {key} {value}" for key, value in header]
        out.write("\n".join(lines) + "\n")
        for start, rows in _float_blocks(len(ints), floats):
            stop = start + len(rows)
            out.write("\n".join(map(_record, range(start, stop), ints[start:stop].tolist(),
                                    rows.tolist())))
            out.write("\n")


def check_header(path: str | Path, header: list[tuple[str, str]], written: list) -> None:
    """Refuse a header read from ``path`` unless its writer builds it for what was read."""
    for got, want in zip_longest(header, [(key, str(value)) for key, value in written]):
        if got != want:
            raise ValueError(f"{path}: header {got} is not in the written form {want}")


def _line_count(f) -> tuple[int, bool]:
    """The number of lines of the binary file ``f`` and whether it ends in a
    newline (an empty file does), counted a chunk at a time; ``f`` is left at its start."""
    count, last = 0, b"\n"
    while chunk := f.read(_CHUNK_BYTES):
        count += chunk.count(b"\n")
        last = chunk[-1:]
    f.seek(0)
    return count + (last != b"\n"), last == b"\n"


def _lines(path: str | Path, f):
    """(number, text) of each line of the binary file ``f``, split at b"\\n" only."""
    for number, raw in enumerate(f, 1):
        try:  # with its newline, so a cut multi-byte sequence reads as the whole file would
            yield number, raw.decode().removesuffix("\n")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: line {number}: not UTF-8: {exc.reason}") from exc


def _parse(line: str, row: int, n: int, size: int) -> tuple[int, list[float]]:
    """The integer and the ``size`` floats of record ``row`` of ``n``, refused
    unless the line is the one the writer makes of them."""
    fields = line.split()
    if len(fields) != 2 + size:
        raise ValueError(f"{len(fields)} fields, expected {2 + size}")
    try:
        sid, k, values = int(fields[0]), int(fields[1]), list(map(float, fields[2:]))
    except ValueError as exc:
        raise ValueError(f"token not in the written form: {exc}") from None
    if not 0 <= sid < n:
        raise ValueError(f"sample id {sid} out of range [0, {n})")
    if sid < row:
        raise ValueError(f"duplicated sample id {sid}")
    if sid > row:
        raise ValueError(f"sample ids must be dense from 0 in order, got {sid}")
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite value")
    if line != _record(sid, k, values):
        raise ValueError("token not in the written form")
    return k, values


def _read_rows(path: str | Path, records, ints: np.ndarray, floats: list[np.ndarray]) -> None:
    """Parse each numbered record line into its row of ``ints`` and of ``floats``."""
    ends = list(accumulate(array.shape[1] for array in floats))
    columns = [slice(end - array.shape[1], end) for array, end in zip(floats, ends)]
    size = ends[-1] if ends else 0
    for row, (number, line) in enumerate(records):
        try:
            ints[row], values = _parse(line, row, len(ints), size)
            for array, cols in zip(floats, columns):
                array[row] = values[cols]
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from exc


def read_records(
    path: str | Path, kind: str, widths: tuple[str, ...] = (), keys: tuple[str, ...] = ()
) -> tuple[list[tuple[str, str]], np.ndarray, list[np.ndarray]]:
    """The header pairs, the integer column and the float arrays of a record
    file: one (n, w) array per key of ``widths``, in order, whose integer
    header value is w. ``keys`` names further header keys the file must carry."""
    with open(path, "rb") as f:
        total, ends = _line_count(f)
        lines = _lines(path, f)
        first = f"# {kind} {RECORDS_VERSION}"
        if next(lines, (1, ""))[1] != first:
            raise ValueError(f"{path}: not a {kind} file: the first line is not {first!r}")
        if not ends:
            raise ValueError(f"{path}: line {total}: no newline at the end of the file")
        header, records = [], iter(())
        for number, line in lines:
            if not line.startswith("#"):
                records = chain([(number, line)], lines)
                break
            header.append(line.removeprefix("# ").partition(" ")[::2])
        meta = dict(header)
        missing = [key for key in (*widths, *keys) if key not in meta]
        if missing:
            raise ValueError(f"{path}: missing header key {missing[0]!r}")

        n = total - 1 - len(header)
        try:
            floats = [np.empty((n, int(meta[key]))) for key in widths]
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: header: {exc}") from exc
        ints = np.empty(n, dtype=np.int64)
        _read_rows(path, records, ints, floats)
    return header, ints, floats
