"""Seeded synthetic long-tail corpora.

Classes are isotropic Gaussian blobs in a low-dimensional data space; class
frequencies follow a long-tail profile with one dominant "healthy" class.
Each sample also carries a deterministic embedding surrogate: a fixed random
unit vector per class plus per-sample jitter, standing in for a text/label
encoder. Only the induced similarity structure matters downstream.

A corpus is three row-aligned arrays: ``x`` (n, dimension) data rows,
``embeddings`` (n, embedding_dim) and ``labels`` (n,) int64 class ids. The
sample id is the row index, so ids are dense from 0 by construction;
``generate_corpus`` groups the rows by class in spec order.

``save_corpus`` and ``load_corpus`` store a corpus in the record layout of
``records.py``: the corpus facts and one ``# class`` line per spec as the
header, and per sample its class id, data row and embedding row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .records import check_header, read_records, write_records
from .seeding import rng_for, rngs_for

__all__ = [
    "ClassSpec",
    "Corpus",
    "generate_corpus",
    "label_embedding",
    "chest_longtail_specs",
    "tail8_specs",
    "blob_specs",
    "save_corpus",
    "load_corpus",
    "CHEST_LONGTAIL_COUNTS",
]

CORPUS_FORMAT = "tailflow-corpus"

DEFAULT_EMBEDDING_DIM = 16
DEFAULT_NOISE_SCALE = 0.05

# Train-split label frequencies of a public single-label chest X-ray
# long-tail benchmark; the default corpus mirrors these ratios.
CHEST_LONGTAIL_COUNTS: tuple[tuple[str, int], ...] = (
    ("no_finding", 53260),
    ("lung_opacity", 7927),
    ("cardiomegaly", 5113),
    ("atelectasis", 4539),
    ("pleural_effusion", 3832),
    ("support_devices", 3279),
    ("edema", 2395),
    ("pneumonia", 2195),
    ("pneumothorax", 1172),
    ("lung_lesion", 1036),
    ("fracture", 791),
    ("enlarged_cardiomediastinum", 638),
    ("consolidation", 609),
    ("pleural_other", 254),
    ("aortic_calcification", 207),
    ("tortuous_aorta", 175),
    ("pneumoperitoneum", 32),
    ("subcutaneous_emphysema", 27),
    ("pneumomediastinum", 12),
)


@dataclass(frozen=True)
class ClassSpec:
    """One synthetic class: an isotropic Gaussian blob with a sample budget."""

    class_id: int
    mean: tuple[float, ...]
    scale: float
    count: int
    is_healthy: bool = False

    def validate(self, dimension: int) -> None:
        """Raise ValueError naming the bad field as a config key spells it."""
        key = f"class.{self.class_id}"
        if self.count < 1:
            raise ValueError(f"{key}.count: must be >= 1, got {self.count}")
        if not 0 < self.scale < math.inf:  # nan fails too
            raise ValueError(f"{key}.scale: must be finite and > 0, got {self.scale!r}")
        if len(self.mean) != dimension:
            raise ValueError(f"{key}.mean: {len(self.mean)} values for dimension {dimension}")
        if not all(map(math.isfinite, self.mean)):
            raise ValueError(f"{key}.mean: must be finite, got {self.mean!r}")


def _validate_specs(specs: list[ClassSpec], dimension: int) -> None:
    """Every class valid, and at most one of them healthy."""
    healthy = [c.class_id for c in specs if c.is_healthy]
    if len(healthy) > 1:
        raise ValueError(f"class.{healthy[1]}.healthy: at most one class may be healthy, "
                         f"and class {healthy[0]} is")
    for c in specs:
        c.validate(dimension)


@dataclass
class Corpus:
    """Row i of ``x``, ``embeddings`` and ``labels`` is sample i."""

    x: np.ndarray  # (n, dimension)
    embeddings: np.ndarray  # (n, embedding_dim)
    labels: np.ndarray  # (n,) int64 class ids
    classes: list[ClassSpec]
    dimension: int
    seed: int
    embedding_dim: int = DEFAULT_EMBEDDING_DIM
    noise_scale: float = DEFAULT_NOISE_SCALE

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def x_matrix(self) -> np.ndarray:
        return self.x

    def embedding_matrix(self) -> np.ndarray:
        return self.embeddings

    def class_ids(self) -> np.ndarray:
        return self.labels

    def class_counts(self) -> dict[int, int]:
        return {c.class_id: int(np.count_nonzero(self.labels == c.class_id)) for c in self.classes}

    def healthy_class_id(self) -> int | None:
        for c in self.classes:
            if c.is_healthy:
                return c.class_id
        return None

    def validate(self) -> None:
        known = [c.class_id for c in self.classes]
        if len(set(known)) != len(known):
            raise ValueError("duplicate class ids in spec")
        _validate_specs(self.classes, self.dimension)
        if not 0 <= self.noise_scale < math.inf:  # NaN too
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        counts = self.class_counts()
        # known ids are distinct, so the counts miss a row only if its label
        # names no class; np.isin would first copy the labels
        if sum(counts.values()) != len(self.labels):
            unknown = np.flatnonzero(~np.isin(self.labels, known))
            raise ValueError(f"sample {unknown[0]} has unknown class {self.labels[unknown[0]]}")
        for c in self.classes:
            if counts[c.class_id] != c.count:
                raise ValueError(
                    f"class {c.class_id}: {counts[c.class_id]} samples, spec says {c.count}"
                )


def _unit_class_vector(class_id: int, seed: int, dim: int) -> np.ndarray:
    v = rng_for(seed, "label-embedding", class_id).standard_normal(dim)
    return v / np.linalg.norm(v)


def label_embedding(
    class_id: int, num_classes: int, seed: int, dim: int = DEFAULT_EMBEDDING_DIM
) -> np.ndarray:
    """Fixed random unit vector for a class label.

    Deterministic per (class_id, seed); distinct classes get distinct
    directions almost surely. ``num_classes`` only bounds the valid range.
    """
    if not 0 <= class_id < num_classes:
        raise ValueError(f"class_id {class_id} out of range [0, {num_classes})")
    return _unit_class_vector(class_id, seed, dim)


def generate_corpus(
    spec: list[ClassSpec],
    dimension: int,
    seed: int,
    embedding_dim: int = DEFAULT_EMBEDDING_DIM,
    noise_scale: float = DEFAULT_NOISE_SCALE,
) -> Corpus:
    """Draw a corpus from class blobs; bit-identical for fixed (spec, seed).

    Sample i's embedding is its class's unit vector plus ``noise_scale``
    times the draws of its own stream ``rng_for(seed, "embedding-jitter", i)``;
    the streams come from one batched derivation, one Generator at a time.
    """
    if not spec:
        raise ValueError("empty class spec")
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    _validate_specs(spec, dimension)

    n = sum(c.count for c in spec)
    x = np.empty((n, dimension))
    embeddings = np.empty((n, embedding_dim))
    jitter = rngs_for(seed, "embedding-jitter", ids=range(n))
    start = 0
    for c in spec:
        rows = slice(start, start + c.count)
        mean = np.asarray(c.mean, dtype=np.float64)
        draws = rng_for(seed, "class-draw", c.class_id).standard_normal((c.count, dimension))
        x[rows] = mean[None, :] + c.scale * draws
        # in place: * and + commute exactly, so these are base + noise_scale * draws
        for row, rng in zip(embeddings[rows], jitter):
            rng.standard_normal(out=row)
        embeddings[rows] *= noise_scale
        embeddings[rows] += _unit_class_vector(c.class_id, seed, embedding_dim)
        start += c.count
    corpus = Corpus(
        x=x,
        embeddings=embeddings,
        labels=np.repeat([c.class_id for c in spec], [c.count for c in spec]).astype(np.int64),
        classes=list(spec),
        dimension=dimension,
        seed=seed,
        embedding_dim=embedding_dim,
        noise_scale=noise_scale,
    )
    corpus.validate()
    return corpus


def _circle_means(num_classes: int, dimension: int, radius: float) -> list[tuple[float, ...]]:
    """Class 0 at the origin, the rest spread on a circle in the first two dims."""
    means = []
    for c in range(num_classes):
        m = [0.0] * dimension
        if c > 0 and dimension >= 2:
            ang = 2.0 * math.pi * (c - 1) / max(num_classes - 1, 1)
            m[0] = radius * math.cos(ang)
            m[1] = radius * math.sin(ang)
        elif c > 0:
            m[0] = radius * (1.0 + (c - 1) / max(num_classes - 1, 1))
        means.append(tuple(m))
    return means


def _scaled_counts(raw: list[float], total: int) -> list[int]:
    s = sum(raw)
    return [max(1, round(total * r / s)) for r in raw]


def _longtail_specs(
    weights: list[float], scale: float, total: int, dimension: int
) -> list[ClassSpec]:
    """``total`` samples split by ``weights``, at least one per class; class 0
    is healthy at the origin and the rest sit on the radius-4 circle."""
    means = _circle_means(len(weights), dimension, 4.0)
    return [
        ClassSpec(class_id=i, mean=means[i], scale=scale, count=n, is_healthy=(i == 0))
        for i, n in enumerate(_scaled_counts(weights, total))
    ]


def chest_longtail_specs(total: int = 2000, dimension: int = 2) -> list[ClassSpec]:
    """Default corpus spec: chest X-ray benchmark ratios scaled to ``total``.
    The no-finding class is class 0; the 18 pathology classes follow by
    descending count."""
    return _longtail_specs([n for _, n in CHEST_LONGTAIL_COUNTS], 0.5, total, dimension)


def tail8_specs(total: int = 2000, dimension: int = 2) -> list[ClassSpec]:
    """8-class long-tail spec: 60% healthy head, four tail classes < 2% each."""
    # these sum to exactly 1.0, so each count is max(1, round(total * r))
    ratios = [0.60, 0.13, 0.11, 0.10, 0.015, 0.015, 0.015, 0.015]
    return _longtail_specs(ratios, 0.45, total, dimension)


def blob_specs(num_blobs: int, per_blob: int) -> list[ClassSpec]:
    """Equal-size, well-separated 2-D blobs on a radius-6 circle, none healthy."""
    means = _circle_means(num_blobs + 1, 2, 6.0)[1:]  # drop the origin class
    return [
        ClassSpec(class_id=c, mean=m, scale=0.25, count=per_blob) for c, m in enumerate(means)
    ]


def _corpus_header(corpus: Corpus) -> list[tuple[str, object]]:
    header = [
        ("dimension", corpus.dimension),
        ("embedding_dim", corpus.embedding_dim),
        ("noise_scale", repr(float(corpus.noise_scale))),
        ("seed", corpus.seed),
    ]
    for c in corpus.classes:
        mean = ",".join(repr(float(m)) for m in c.mean)
        spec = f"{c.class_id} count={c.count} scale={float(c.scale)!r} healthy={int(c.is_healthy)}"
        header.append(("class", f"{spec} mean={mean}"))
    return header


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    write_records(path, CORPUS_FORMAT, _corpus_header(corpus), corpus.labels, corpus.x,
                  corpus.embeddings)


def _class_spec(value: str) -> ClassSpec:
    """A ``# class`` header value: ``<id> count=.. scale=.. healthy=.. mean=..``."""
    cid, *fields = value.split()
    kv = dict(f.split("=", 1) for f in fields)
    for key in ("count", "scale", "healthy", "mean"):
        if key not in kv:
            raise ValueError(f"class {cid}: missing {key}=")
    return ClassSpec(
        class_id=int(cid),
        mean=tuple(float(v) for v in kv["mean"].split(",")),
        scale=float(kv["scale"]),
        count=int(kv["count"]),
        is_healthy=bool(int(kv["healthy"])),
    )


def load_corpus(path: str | Path) -> Corpus:
    header, labels, (x, embeddings) = read_records(
        path, CORPUS_FORMAT, ("dimension", "embedding_dim"), ("noise_scale", "seed")
    )
    meta = dict(header)
    dim = int(meta["dimension"])
    try:
        corpus = Corpus(
            x=x,
            embeddings=embeddings,
            labels=labels,
            classes=[_class_spec(value) for key, value in header if key == "class"],
            dimension=dim,
            seed=int(meta["seed"]),
            embedding_dim=int(meta["embedding_dim"]),
            noise_scale=float(meta["noise_scale"]),
        )
        corpus.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    check_header(path, header, _corpus_header(corpus))
    return corpus
