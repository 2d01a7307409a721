"""The one record layout of the corpus, partition and samples files::

    # <kind> 1
    # <key> <value>           header lines, in order; a key may repeat
    <id> <int> <float> ...    one record per line; the id is the row index

Floats are written with ``repr`` (shortest round trip), so a text round trip
is lossless. ``read_records`` rejects, naming the file and, for a record
fault, the line: a wrong kind, version or width, a missing header key, ids
that are not the row index, non-finite floats, and the token forms that
``int()`` and ``float()`` take but the writer never writes: non-ASCII
digits, ``_``, a ``+`` that does not follow ``e``, an uppercase exponent
(``2.0E0``) and leading zeros (``01``, ``02.0``).
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

RECORDS_VERSION = 1
_LEADING_ZERO = re.compile(r" -?0[0-9]")  # searched in " " + line


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
    for i, (k, row) in enumerate(zip(ints.tolist(), floats.tolist())):
        lines.append(" ".join([str(i), str(k), *map(repr, row)]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_records(
    path: str | Path, kind: str, width: tuple[str, ...] = (), keys: tuple[str, ...] = ()
) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray]:
    """The header pairs, the integer column and the (n, width) float array
    of a record file. ``width`` names the header keys whose integer values
    add up to the floats per record; ``keys`` names further header keys the
    file must carry."""
    lines = Path(path).read_text().splitlines()
    first = f"# {kind} {RECORDS_VERSION}"
    if not lines or lines[0] != first:
        raise ValueError(f"{path}: not a {kind} file: the first line is not {first!r}")
    header = []
    start = 1
    while start < len(lines) and lines[start].startswith("#"):
        key, _, value = lines[start][1:].strip().partition(" ")
        header.append((key, value))
        start += 1
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
            # int() and float() also take non-ASCII digits, '_', a leading '+', 'E'
            # and leading zeros ('01', '02.0'; not 'e-05'); 'Inf' and 'NaN' fail as non-finite
            if (not line.isascii() or "_" in line or "+" in line and "+" in line.replace("e+", "")
                    or "E" in line or _LEADING_ZERO.search(" " + line)):
                raise ValueError("token not in the written form: non-ASCII, '_', a '+' not "
                                 "after 'e', 'E' or a leading zero")
            fields = line.split()
            if len(fields) != 2 + size:
                raise ValueError(f"{len(fields)} fields, expected {2 + size}")
            sid = int(fields[0])
            ints[row] = int(fields[1])
            floats[row] = [float(token) for token in fields[2:]]
            if not 0 <= sid < n:
                raise ValueError(f"sample id {sid} out of range [0, {n})")
            if sid < row:
                raise ValueError(f"duplicated sample id {sid}")
            if sid > row:
                raise ValueError(f"sample ids must be dense from 0 in order, got {sid}")
            if not np.isfinite(floats[row]).all():
                raise ValueError("non-finite value")
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc
    return header, ints, floats
