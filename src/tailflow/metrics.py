"""Diversity and quality metrics on feature vectors.

Implements kNN-radius Coverage, the retrieval-based diversity score (unique
1-NN retrievals against the train and test sets, the test score normalized
by the train score so memorization is not rewarded), and the Fréchet
distance between Gaussians fitted to two feature sets.

Distances are plain Euclidean, computed as ``sqrt(sum((a - b)**2))`` both in
the vectorized paths and in the brute-force reference loops the tests use,
so the two paths agree exactly (not just within tolerance). At desk scale
the "features" are the data vectors themselves.

``evaluate`` builds three distance matrices and reads every value of its
report from them: train x train (diagonal set to inf once, for the k-NN
radii), train x generated (coverage; its transpose is generated x train,
since ``(a - b)**2`` equals ``(b - a)**2`` exactly) and generated x test.
Each per-class row reads ``np.ix_`` slices of the same three matrices. The
public metric functions and ``evaluate`` share one implementation of each
metric, written on distance matrices.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import InsufficientDataError, UndefinedMetricError

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
SAMPLES_VERSION = 1
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


_ROW_BLOCK = 256  # rows per block of _distance_matrix: a block x m x F temporary


def _distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` and ``b``, built
    ``_ROW_BLOCK`` rows of ``a`` at a time. Each entry is reduced over the
    same contiguous F axis as one full broadcast would be, so the values do
    not depend on the blocking."""
    out = np.empty((len(a), len(b)))
    for start in range(0, len(a), _ROW_BLOCK):
        stop = start + _ROW_BLOCK
        diff = a[start:stop, None, :] - b[None, :, :]
        diff *= diff
        diff.sum(axis=2, out=out[start:stop])
        np.sqrt(out[start:stop], out=out[start:stop])
    return out


def _knn_radii(self_dists: np.ndarray, k: int) -> np.ndarray:
    """k-th smallest entry of each row of a set's self-distance matrix whose
    diagonal is inf: the distance to the k-th nearest other member."""
    n = len(self_dists)
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k + 1:
        raise InsufficientDataError(f"need at least {k + 1} points for k = {k}, have {n}")
    return np.partition(self_dists, k - 1, axis=1)[:, k - 1]


def _coverage(radii: np.ndarray, real_to_gen: np.ndarray) -> float:
    """Fraction of real rows with some generated point within their radius."""
    return float((real_to_gen.min(axis=1) <= radii).mean())


def _nearest_ids(gen_to_ref: np.ndarray, ref_ids: np.ndarray) -> np.ndarray:
    """1-NN reference id of each generated row; the first minimum wins."""
    return ref_ids[np.argmin(gen_to_ref, axis=1)]


def _irs(gen_to_ref: np.ndarray, ref_ids: np.ndarray) -> float:
    """Fraction of reference ids retrieved as some generated row's 1-NN."""
    return len(np.unique(_nearest_ids(gen_to_ref, ref_ids))) / len(ref_ids)


def knn_radii(fset: FeatureSet, k: int) -> np.ndarray:
    """Distance from each member to its k-th nearest other member."""
    dists = _distance_matrix(fset.vectors, fset.vectors)
    np.fill_diagonal(dists, np.inf)
    return _knn_radii(dists, k)


def knn_radius(x: np.ndarray, fset: FeatureSet, k: int) -> float:
    """Distance from ``x`` to its k-th nearest neighbor in the set, excluding
    ``x`` itself (one exactly-equal entry is removed when present)."""
    x = np.asarray(x, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    diff = fset.vectors - x[None, :]
    dists = np.sqrt((diff * diff).sum(axis=1))
    matches = np.flatnonzero((fset.vectors == x[None, :]).all(axis=1))
    if len(matches) > 0:
        dists = np.delete(dists, matches[0])
    if len(dists) < k:
        raise InsufficientDataError(f"need {k} other points, have {len(dists)}")
    return float(np.partition(dists, k - 1)[k - 1])


def coverage(real: FeatureSet, generated: FeatureSet, k: int = DEFAULT_K) -> float:
    """Fraction of real points whose k-NN-radius ball contains at least one
    generated point."""
    _require_nonempty(real, generated)
    return _coverage(knn_radii(real, k), _distance_matrix(real.vectors, generated.vectors))


def retrieval_ids(generated: FeatureSet, reference: FeatureSet) -> np.ndarray:
    """1-NN reference id for each generated vector (first minimum wins)."""
    _require_nonempty(generated, reference)
    return _nearest_ids(_distance_matrix(generated.vectors, reference.vectors), reference.ids)


def irs(generated: FeatureSet, reference: FeatureSet) -> float:
    """Fraction of reference ids retrieved as some generated vector's 1-NN."""
    _require_nonempty(generated, reference)
    return _irs(_distance_matrix(generated.vectors, reference.vectors), reference.ids)


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


def _classes_of(fset: FeatureSet, class_map: Mapping[tuple[str, int], int] | None) -> np.ndarray:
    if class_map is not None:
        return np.array([class_map[(fset.tag, int(i))] for i in fset.ids], dtype=np.int64)
    if fset.classes is None:
        raise ValueError(f"{fset.tag} set has no class labels and no class_map was given")
    return fset.classes


def _row(
    train_train: np.ndarray,
    train_gen: np.ndarray,
    gen_test: np.ndarray,
    train: FeatureSet,
    generated: FeatureSet,
    test_ids: np.ndarray,
    k: int,
) -> dict[str, float | None]:
    """One report row, read from the set's three distance matrices (train x
    train with an inf diagonal, train x generated, generated x test)."""
    row: dict[str, float | None] = {
        "coverage": _coverage(_knn_radii(train_train, k), train_gen),
        "irs_train": _irs(train_gen.T, train.ids),
        "irs_test": None,
        "irs_adjusted": None,
        "frechet": frechet_distance(train, generated) if len(generated) >= 2 else None,
    }
    if len(test_ids) > 0:
        row["irs_test"] = _irs(gen_test, test_ids)
        row["irs_adjusted"] = adjusted_score(row["irs_test"], row["irs_train"])
    return row


def evaluate(
    generated: FeatureSet,
    real_train: FeatureSet,
    real_test: FeatureSet,
    k: int = DEFAULT_K,
    class_map: Mapping[tuple[str, int], int] | None = None,
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
    gen_cls = _classes_of(generated, class_map)
    train_cls = _classes_of(real_train, class_map)
    test_cls = _classes_of(real_test, class_map)

    train_train = _distance_matrix(real_train.vectors, real_train.vectors)
    np.fill_diagonal(train_train, np.inf)
    train_gen = _distance_matrix(real_train.vectors, generated.vectors)
    gen_test = _distance_matrix(generated.vectors, real_test.vectors)

    report = MetricReport(
        **_row(train_train, train_gen, gen_test, real_train, generated, real_test.ids, k),
        k=k,
        metadata={"distance": "euclidean", "coverage_reference": "train"},
    )

    all_classes = sorted(set(train_cls.tolist()) | set(gen_cls.tolist()) | set(test_cls.tolist()))
    for c in all_classes:
        tr = np.flatnonzero(train_cls == c)
        ge = np.flatnonzero(gen_cls == c)
        te = np.flatnonzero(test_cls == c)
        if len(tr) < k + 1:
            report.skipped[c] = f"fewer than k+1={k + 1} train members ({len(tr)})"
            continue
        if len(ge) == 0:
            report.skipped[c] = "no generated samples"
            continue
        report.per_class[c] = _row(
            train_train[np.ix_(tr, tr)], train_gen[np.ix_(tr, ge)], gen_test[np.ix_(ge, te)],
            real_train.subset(tr), generated.subset(ge), real_test.ids[te], k,
        )

    for f in _FIELDS:
        values = [row[f] for row in report.per_class.values() if row[f] is not None]
        report.macro[f] = float(np.mean(values)) if values else None
    return report


def save_samples(path: str | Path, vectors: np.ndarray, class_ids: np.ndarray) -> None:
    """Write generated vectors as line-delimited records (id class x...)."""
    path = Path(path)
    vectors = np.asarray(vectors, dtype=np.float64)
    lines = [f"# {SAMPLES_FORMAT} {SAMPLES_VERSION}", f"# dimension {vectors.shape[1]}"]
    for i, (v, c) in enumerate(zip(vectors, class_ids)):
        lines.append(f"{i} {int(c)} " + " ".join(repr(float(x)) for x in v))
    path.write_text("\n".join(lines) + "\n")


def load_features(path: str | Path, tag: str) -> FeatureSet:
    """Read a corpus or samples file as a feature set (data vectors as
    features, with the class column attached)."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    head = lines[0]
    if head.startswith(f"# {SAMPLES_FORMAT} "):
        dim = None
        for line in lines[1:]:
            if line.startswith("# dimension"):
                dim = int(line.split()[-1])
                break
        if dim is None:
            raise ValueError(f"{path}: missing dimension header")
        records = [line.split() for line in lines[1:] if line.strip() and not line.startswith("#")]
        ids = np.array([int(r[0]) for r in records])
        classes = np.array([int(r[1]) for r in records])
        vectors = np.array([[float(v) for v in r[2 : 2 + dim]] for r in records])
        return FeatureSet(vectors=vectors, ids=ids, tag=tag, classes=classes)
    from .datagen import load_corpus

    corpus = load_corpus(path)
    return FeatureSet(
        vectors=corpus.x_matrix(),
        ids=np.arange(len(corpus)),
        tag=tag,
        classes=corpus.class_ids(),
    )
