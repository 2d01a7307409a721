"""Diversity and quality metrics on feature vectors.

Implements kNN-radius Coverage, the retrieval-based diversity score (unique
1-NN retrievals against the train and test sets, the test score normalized
by the train score so memorization is not rewarded), and the Fréchet
distance between Gaussians fitted to two feature sets.

Distances are plain Euclidean, ``sqrt(sum((a - b)**2))``, and every one in
this module comes from one kernel, ``_distance_matrix``; the brute-force
reference loops the tests use compute the same sum, so the two agree
exactly. numpy sums fewer than 8 terms left to right, so below 8 features
the kernel adds the squared differences one column at a time, in that
order; from 8 on, numpy sums pairwise, so the kernel keeps the broadcast
sum there. At desk scale the "features" are the data vectors themselves.

``evaluate`` holds no generated x reference matrix. Every pairwise scan
here, and the seed-pair scan of ``partition.py``, takes as many rows per
block as ``_SCAN_BYTES`` (1 MiB) holds, so its memory does not grow with
the row count. ``_nearest`` passes a block of generated rows at a time
through the kernel and keeps the first argmin of each generated row, which
both retrieval scores read, and a running minimum down each reference
column, which coverage reads. The k-NN radii come from the train rows, a
block of them at a time against the whole set with the block's own
diagonal set to inf. Each per-class row computes its own blocks from the
class's rows. Each value is exact: ``(a - b)**2`` equals ``(b - a)**2``, a
kernel entry does not depend on the other rows, neither a minimum nor a
k-th smallest value depends on the order of its inputs, and each argmin
still runs along a whole generated row, so the first of tied minima wins.
The public metric functions and ``evaluate`` share one implementation of
each metric. Samples files use the record layout of ``records.py``.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, UndefinedMetricError
from .records import check_header, read_records, write_records

__all__ = [
    "FeatureSet",
    "MetricReport",
    "knn_radius",
    "knn_radii",
    "coverage",
    "irs",
    "retrieval_ids",
    "irs_adjusted",
    "adjusted_score",
    "frechet_distance",
    "evaluate",
    "save_samples",
    "load_features",
]

SAMPLES_FORMAT = "tailflow-samples"
METRICS_VERSION = 1

DEFAULT_K = 5


@dataclass
class FeatureSet:
    """Feature vectors with aligned integer ids and an optional class column."""

    vectors: np.ndarray  # (N, F)
    ids: np.ndarray  # (N,)
    tag: str = "real"  # real | generated | train | test
    classes: np.ndarray | None = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be 2-D (N, F)")
        if len(self.ids) != len(self.vectors):
            raise ValueError("ids misaligned with vectors")
        if self.classes is not None:
            self.classes = np.asarray(self.classes, dtype=np.int64)
            if len(self.classes) != len(self.vectors):
                raise ValueError("classes misaligned with vectors")

    def __len__(self) -> int:
        return len(self.vectors)

    def subset(self, mask: np.ndarray) -> "FeatureSet":
        return FeatureSet(
            vectors=self.vectors[mask],
            ids=self.ids[mask],
            tag=self.tag,
            classes=None if self.classes is None else self.classes[mask],
        )


def _require_nonempty(*sets: FeatureSet) -> None:
    for s in sets:
        if len(s) == 0:
            raise InsufficientDataError(f"empty {s.tag} feature set")


_SCAN_BYTES = 1 << 20  # bytes of one block of a pairwise scan: half of a core's 2 MiB L2
_PAIRWISE_TERMS = 8  # numpy sums fewer terms than this in order; from here on, pairwise


def _block_rows(row_bytes: int) -> int:
    """Rows per block of a scan whose rows take ``row_bytes`` bytes each: as
    many as ``_SCAN_BYTES`` holds, and at least one, whatever the row count;
    rows against an empty set take no bytes and form one block."""
    return max(1, _SCAN_BYTES // max(row_bytes, 1))


def _distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` and ``b``, built a step
    of rows of ``a`` at a time; the values do not depend on the blocking.

    A step is the rows whose squared differences over max(F, 8) features
    fill ``_SCAN_BYTES``. From ``_PAIRWISE_TERMS`` features on, that is the
    broadcast temporary, summed over the contiguous F axis: numpy's pairwise
    sum keeps 8 partial sums there, an order a column loop does not
    reproduce. Below 8 features the squared differences are added into the
    step one column at a time: the order in which a sum over the F axis adds
    them, so each entry equals that sum bit for bit. A column's differences
    are the step filled with ``a``'s column, minus ``b``'s column as a
    contiguous row; numpy passes one operand of that through its iterator
    buffer, where ``subtract.outer`` passes both. One scratch array, an
    eighth of the budget, holds a column's term, so the step's output and
    term stay in cache together and the kernel's scratch, numpy's buffer
    included, stays within a quarter of the budget."""
    width = a.shape[1]
    if b.shape[1] != width:
        raise ValueError(f"feature widths differ: {width} and {b.shape[1]}")
    out = np.empty((len(a), len(b)))
    by_column = 0 < width < _PAIRWISE_TERMS
    step = _block_rows(8 * len(b) * max(width, _PAIRWISE_TERMS))
    if by_column:
        columns = np.ascontiguousarray(b.T)
        term = np.empty((min(step, len(a)), len(b))) if width > 1 else None
    for start in range(0, len(a), step):
        rows = slice(start, start + step)
        block = out[rows]
        if by_column:
            for f in range(width):
                part = term[: len(block)] if f else block
                part[...] = a[rows, f, None]
                part -= columns[f]
                part *= part
                if f:
                    block += part
        else:
            diff = a[rows, None, :] - b[None, :, :]
            diff *= diff
            diff.sum(axis=2, out=block)
        np.sqrt(block, out=block)
    return out


def _knn_radii(vectors: np.ndarray, k: int) -> np.ndarray:
    """Distance from each row to its k-th nearest other row, a block of rows
    at a time, with the block's own diagonal set to inf."""
    n = len(vectors)
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k + 1:
        raise InsufficientDataError(f"need at least {k + 1} points for k = {k}, have {n}")
    radii = np.empty(n)
    step = _block_rows(8 * n)
    for start in range(0, n, step):
        block = _distance_matrix(vectors[start : start + step], vectors)
        np.fill_diagonal(block[:, start:], np.inf)
        block.partition(k - 1, axis=1)
        radii[start : start + len(block)] = block[:, k - 1]
        del block  # freed before the next block is allocated: one block live at a time
    return radii


def _nearest(generated: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each generated row's nearest reference row (the first of
    tied minima) and each reference row's distance to its nearest generated
    row, from a block of generated rows at a time."""
    nearest = np.empty(len(generated), dtype=np.int64)
    closest = np.full(len(reference), np.inf)
    step = _block_rows(8 * len(reference))
    for start in range(0, len(generated), step):
        block = _distance_matrix(generated[start : start + step], reference)
        nearest[start : start + len(block)] = block.argmin(axis=1)
        np.minimum(closest, block.min(axis=0), out=closest)
        del block  # freed before the next block is allocated: one block live at a time
    return nearest, closest


def _irs(nearest_ids: np.ndarray, ref_ids: np.ndarray) -> float:
    """Fraction of reference ids retrieved as some generated row's 1-NN."""
    return len(np.unique(nearest_ids)) / len(ref_ids)


def knn_radii(fset: FeatureSet, k: int) -> np.ndarray:
    """Distance from each member to its k-th nearest other member."""
    return _knn_radii(fset.vectors, k)


def knn_radius(x: np.ndarray, fset: FeatureSet, k: int) -> float:
    """Distance from ``x`` to its k-th nearest neighbor in the set, excluding
    ``x`` itself (one exactly-equal entry is removed when present)."""
    x = np.asarray(x, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    dists = _distance_matrix(x[None, :], fset.vectors)[0]
    matches = np.flatnonzero((fset.vectors == x[None, :]).all(axis=1))
    dists = np.delete(dists, matches[:1])
    if len(dists) < k:
        raise InsufficientDataError(f"need {k} other points, have {len(dists)}")
    return float(np.partition(dists, k - 1)[k - 1])


def coverage(real: FeatureSet, generated: FeatureSet, k: int = DEFAULT_K) -> float:
    """Fraction of real points whose k-NN-radius ball contains at least one
    generated point."""
    _require_nonempty(real, generated)
    closest = _nearest(generated.vectors, real.vectors)[1]
    return float((closest <= _knn_radii(real.vectors, k)).mean())


def retrieval_ids(generated: FeatureSet, reference: FeatureSet) -> np.ndarray:
    """1-NN reference id for each generated vector (first minimum wins)."""
    _require_nonempty(generated, reference)
    return reference.ids[_nearest(generated.vectors, reference.vectors)[0]]


def irs(generated: FeatureSet, reference: FeatureSet) -> float:
    """Fraction of reference ids retrieved as some generated vector's 1-NN."""
    return _irs(retrieval_ids(generated, reference), reference.ids)


def adjusted_score(test_score: float, train_score: float) -> float:
    """Test retrieval score normalized by the train score."""
    if train_score <= 0.0:
        raise UndefinedMetricError("adjusted retrieval score undefined: train score is 0")
    return test_score / train_score


def irs_adjusted(generated: FeatureSet, train: FeatureSet, test: FeatureSet) -> float:
    """Retrieval score against the test set normalized by the train-set score,
    so memorizing the train set is not rewarded."""
    return adjusted_score(irs(generated, test), irs(generated, train))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    sym = (mat + mat.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[None, :]) @ vecs.T


def frechet_distance(a: FeatureSet, b: FeatureSet) -> float:
    """Squared 2-Wasserstein distance between Gaussians fitted to the sets:
    ``|mu_a - mu_b|^2 + tr(S_a + S_b - 2 (S_a^1/2 S_b S_a^1/2)^1/2)``.

    The matrix square roots use eigendecomposition of the symmetrized
    product with eigenvalues clamped at 0 (the clamp is the only
    regularization; a warning reports when it bites).
    """
    if len(a) < 2 or len(b) < 2:
        raise InsufficientDataError("Fréchet distance needs at least 2 points per set")
    mu_a = a.vectors.mean(axis=0)
    mu_b = b.vectors.mean(axis=0)
    cov_a = np.atleast_2d(np.cov(a.vectors, rowvar=False))
    cov_b = np.atleast_2d(np.cov(b.vectors, rowvar=False))
    root_a = _psd_sqrt(cov_a)
    inner = root_a @ cov_b @ root_a
    vals = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    floor = -1e-10 * max(1.0, float(np.abs(vals).max(initial=0.0)))
    if vals.min(initial=0.0) < floor:
        warnings.warn(
            f"clamped negative eigenvalues (min {vals.min():.3e}) in Fréchet square root",
            RuntimeWarning,
        )
    trace_sqrt = np.sqrt(np.clip(vals, 0.0, None)).sum()
    mean_term = float(((mu_a - mu_b) ** 2).sum())
    fd = mean_term + float(np.trace(cov_a) + np.trace(cov_b)) - 2.0 * float(trace_sqrt)
    return max(fd, 0.0)


_FIELDS = ("coverage", "irs_train", "irs_test", "irs_adjusted", "frechet")


@dataclass
class MetricReport:
    """Aggregate and per-class metric values plus skip reasons."""

    coverage: float
    irs_train: float
    irs_test: float
    irs_adjusted: float | None
    frechet: float | None
    k: int
    per_class: dict[int, dict[str, float | None]] = field(default_factory=dict)
    skipped: dict[int, str] = field(default_factory=dict)
    macro: dict[str, float | None] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "format_version": METRICS_VERSION,
            "k": self.k,
            "coverage": self.coverage,
            "irs_train": self.irs_train,
            "irs_test": self.irs_test,
            "irs_adjusted": self.irs_adjusted,
            "frechet": self.frechet,
            "per_class": {str(c): v for c, v in sorted(self.per_class.items())},
            "skipped": {str(c): r for c, r in sorted(self.skipped.items())},
            "macro": self.macro,
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        text = json.dumps(self.to_json_dict(), sort_keys=True, indent=2, allow_nan=False)
        return text + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["class"] + list(_FIELDS) + ["skipped_reason"])

        def fmt(v):
            return "" if v is None else repr(v)

        writer.writerow(["all"] + [fmt(getattr(self, f)) for f in _FIELDS] + [""])
        for c in sorted(set(self.per_class) | set(self.skipped)):
            if c in self.skipped:
                writer.writerow([c] + [""] * len(_FIELDS) + [self.skipped[c]])
            else:
                row = self.per_class[c]
                writer.writerow([c] + [fmt(row[f]) for f in _FIELDS] + [""])
        writer.writerow(["macro"] + [fmt(self.macro.get(f)) for f in _FIELDS] + [""])
        return buf.getvalue()


def _classes_of(fset: FeatureSet) -> np.ndarray:
    if fset.classes is None:
        raise ValueError(f"{fset.tag} set has no class labels")
    return fset.classes


def _row(
    generated: FeatureSet, train: FeatureSet, test: FeatureSet, k: int
) -> dict[str, float | None]:
    """One report row, from the set's generated rows against its train and test rows."""
    nearest, closest = _nearest(generated.vectors, train.vectors)
    row: dict[str, float | None] = {
        "coverage": float((closest <= _knn_radii(train.vectors, k)).mean()),
        "irs_train": _irs(train.ids[nearest], train.ids),
        "irs_test": None,
        "irs_adjusted": None,
        "frechet": frechet_distance(train, generated) if len(generated) >= 2 else None,
    }
    if len(test) > 0:
        row["irs_test"] = _irs(test.ids[_nearest(generated.vectors, test.vectors)[0]], test.ids)
        row["irs_adjusted"] = adjusted_score(row["irs_test"], row["irs_train"])
    return row


def evaluate(
    generated: FeatureSet,
    real_train: FeatureSet,
    real_test: FeatureSet,
    k: int = DEFAULT_K,
) -> MetricReport:
    """Aggregate plus per-class metrics.

    Coverage and Fréchet distance are computed against the train set;
    retrieval scores run independently against train and test. A class needs
    at least k+1 train members (the radius precondition) and at least one
    generated member; otherwise it is reported as skipped and excluded from
    the macro average. The macro average is the unweighted mean over
    non-skipped classes, per field, ignoring undefined entries.
    """
    _require_nonempty(generated, real_train, real_test)
    gen_cls = _classes_of(generated)
    train_cls = _classes_of(real_train)
    test_cls = _classes_of(real_test)

    report = MetricReport(
        **_row(generated, real_train, real_test, k),
        k=k,
        metadata={"distance": "euclidean", "coverage_reference": "train"},
    )

    all_classes = sorted(set(train_cls.tolist()) | set(gen_cls.tolist()) | set(test_cls.tolist()))
    for c in all_classes:
        train_c, gen_c = real_train.subset(train_cls == c), generated.subset(gen_cls == c)
        if len(train_c) < k + 1:
            report.skipped[c] = f"fewer than k+1={k + 1} train members ({len(train_c)})"
            continue
        if len(gen_c) == 0:
            report.skipped[c] = "no generated samples"
            continue
        report.per_class[c] = _row(gen_c, train_c, real_test.subset(test_cls == c), k)

    for f in _FIELDS:
        values = [row[f] for row in report.per_class.values() if row[f] is not None]
        report.macro[f] = float(np.mean(values)) if values else None
    return report


def _samples_header(vectors: np.ndarray) -> list[tuple[str, object]]:
    return [("dimension", vectors.shape[1])]


def save_samples(path: str | Path, vectors: np.ndarray, class_ids: np.ndarray) -> None:
    """Write generated vectors as records: class id, then the vector."""
    vectors = np.asarray(vectors, dtype=np.float64)
    write_records(path, SAMPLES_FORMAT, _samples_header(vectors), class_ids, vectors)


def load_features(path: str | Path, tag: str) -> FeatureSet:
    """Read a samples file as a feature set, with its class column."""
    header, classes, vectors = read_records(path, SAMPLES_FORMAT, ("dimension",))
    check_header(path, header, _samples_header(vectors))
    return FeatureSet(vectors=vectors, ids=np.arange(len(vectors)), tag=tag, classes=classes)
