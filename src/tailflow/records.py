"""The one record layout of the corpus, partition and samples files::

    # <kind> 1
    # <key> <value>           header lines, in order; a key may repeat
    <id> <int> <float> ...    one record per line; the id is the row index

Floats are written with ``repr``. A file loads only if writing what was read gives it back."""

from __future__ import annotations

from itertools import zip_longest
from pathlib import Path

import numpy as np

RECORDS_VERSION = 1


def _record(i: int, k: int, row: list[float]) -> str:
    return " ".join([str(i), str(k), *map(repr, row)])


def write_records(
    path: str | Path, kind: str, header: list[tuple[str, object]], ints: np.ndarray,
    floats: np.ndarray | None = None,
) -> None:
    """Write ``# <kind> 1``, a ``# <key> <value>`` line per header pair, and
    record i as ``i ints[i] floats[i]...``. Non-finite floats are refused."""
    ints = np.asarray(ints, dtype=np.int64)
    floats = np.empty((len(ints), 0)) if floats is None else np.asarray(floats, dtype=np.float64)
    finite = np.isfinite(floats).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: record {int(np.argmin(finite))} has a non-finite value")
    lines = [f"# {kind} {RECORDS_VERSION}"] + [f"# {key} {value}" for key, value in header]
    lines += map(_record, range(len(ints)), ints.tolist(), floats.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def check_header(path: str | Path, header: list[tuple[str, str]], written: list) -> None:
    """Refuse a header read from ``path`` unless its writer builds it for what was read."""
    for got, want in zip_longest(header, [(key, str(value)) for key, value in written]):
        if got != want:
            raise ValueError(f"{path}: header {got} is not in the written form {want}")


def read_records(
    path: str | Path, kind: str, width: tuple[str, ...] = (), keys: tuple[str, ...] = ()
) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray]:
    """The header pairs, the integer column and the (n, width) float array
    of a record file. ``width`` names the header keys whose integer values
    add up to the floats per record; ``keys`` names further header keys the
    file must carry."""
    data = Path(path).read_bytes()
    try:
        lines = data.decode().removesuffix("\n").split("\n")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8: {exc.reason}") from exc
    first = f"# {kind} {RECORDS_VERSION}"
    if lines[0] != first:
        raise ValueError(f"{path}: not a {kind} file: the first line is not {first!r}")
    if not data.endswith(b"\n"):
        raise ValueError(f"{path}: line {len(lines)}: no newline at the end of the file")
    start = 1
    while start < len(lines) and lines[start].startswith("#"):
        start += 1
    header = [line.removeprefix("# ").partition(" ")[::2] for line in lines[1:start]]
    meta = dict(header)
    missing = [key for key in (*width, *keys) if key not in meta]
    if missing:
        raise ValueError(f"{path}: missing header key {missing[0]!r}")

    n = len(lines) - start
    where = f"{path}: header"
    try:
        size = sum(int(meta[key]) for key in width)
        ints, floats = np.empty(n, dtype=np.int64), np.empty((n, size))
        for row, line in enumerate(lines[start:]):
            where = f"{path}: line {start + row + 1}"
            fields = line.split()
            if len(fields) != 2 + size:
                raise ValueError(f"{len(fields)} fields, expected {2 + size}")
            try:
                sid, k, values = int(fields[0]), int(fields[1]), list(map(float, fields[2:]))
            except ValueError as exc:
                raise ValueError(f"token not in the written form: {exc}") from None
            ints[row] = k
            floats[row] = values
            if not 0 <= sid < n:
                raise ValueError(f"sample id {sid} out of range [0, {n})")
            if sid < row:
                raise ValueError(f"duplicated sample id {sid}")
            if sid > row:
                raise ValueError(f"sample ids must be dense from 0 in order, got {sid}")
            if not np.isfinite(floats[row]).all():
                raise ValueError("non-finite value")
            if line != _record(sid, k, values):
                raise ValueError("token not in the written form")
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc
    return header, ints, floats
