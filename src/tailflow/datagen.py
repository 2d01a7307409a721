"""Seeded synthetic long-tail corpora.

Classes are isotropic Gaussian blobs in a low-dimensional data space; class
frequencies follow a long-tail profile with one dominant "healthy" class.
Each sample also carries a deterministic embedding surrogate: a fixed random
unit vector per class plus per-sample jitter, standing in for a text/label
encoder. Only the induced similarity structure matters downstream.

Corpus files are line-delimited plain text (one sample per line) with a
versioned ``#``-header; floats are written with ``repr`` so round trips are
lossless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import rng_for

__all__ = [
    "ClassSpec",
    "SampleRecord",
    "Corpus",
    "generate_corpus",
    "label_embedding",
    "text_embedding_surrogate",
    "chest_longtail_specs",
    "tail8_specs",
    "blob_specs",
    "save_corpus",
    "load_corpus",
    "CHEST_LONGTAIL_COUNTS",
]

CORPUS_FORMAT = "tailflow-corpus"
CORPUS_VERSION = 1

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
        if self.count < 1:
            raise ValueError(f"class {self.class_id}: count must be >= 1")
        if self.scale <= 0:
            raise ValueError(f"class {self.class_id}: scale must be > 0")
        if len(self.mean) != dimension:
            raise ValueError(
                f"class {self.class_id}: mean has dimension {len(self.mean)}, expected {dimension}"
            )


@dataclass
class SampleRecord:
    """One training sample with its embedding surrogate."""

    sample_id: int
    x: np.ndarray
    class_id: int
    embedding: np.ndarray


@dataclass
class Corpus:
    samples: list[SampleRecord]
    classes: list[ClassSpec]
    dimension: int
    seed: int
    embedding_dim: int = DEFAULT_EMBEDDING_DIM
    noise_scale: float = DEFAULT_NOISE_SCALE

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def x_matrix(self) -> np.ndarray:
        return np.stack([s.x for s in self.samples])

    def embedding_matrix(self) -> np.ndarray:
        return np.stack([s.embedding for s in self.samples])

    def class_ids(self) -> np.ndarray:
        return np.array([s.class_id for s in self.samples], dtype=np.int64)

    def class_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {c.class_id: 0 for c in self.classes}
        for s in self.samples:
            counts[s.class_id] += 1
        return counts

    def healthy_class_id(self) -> int | None:
        for c in self.classes:
            if c.is_healthy:
                return c.class_id
        return None

    def validate(self) -> None:
        known = {c.class_id for c in self.classes}
        if len(known) != len(self.classes):
            raise ValueError("duplicate class ids in spec")
        if sum(c.is_healthy for c in self.classes) > 1:
            raise ValueError("at most one class may be healthy")
        for c in self.classes:
            c.validate(self.dimension)
        counts = self.class_counts()
        for c in self.classes:
            if counts[c.class_id] != c.count:
                raise ValueError(
                    f"class {c.class_id}: {counts[c.class_id]} samples, spec says {c.count}"
                )
        for i, s in enumerate(self.samples):
            if s.sample_id != i:
                raise ValueError("sample ids must be dense from 0 in order")
            if s.class_id not in known:
                raise ValueError(f"sample {i} has unknown class {s.class_id}")


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


def text_embedding_surrogate(
    sample: SampleRecord,
    noise_scale: float,
    seed: int,
    dim: int = DEFAULT_EMBEDDING_DIM,
) -> np.ndarray:
    """Per-sample embedding: class unit vector plus Gaussian jitter.

    With noise_scale = 0 this equals the class label embedding exactly.
    Deterministic per (sample_id, seed).
    """
    return _jittered(_unit_class_vector(sample.class_id, seed, dim), noise_scale, seed,
                     sample.sample_id)


def _jittered(base: np.ndarray, noise_scale: float, seed: int, sample_id: int) -> np.ndarray:
    """A new array: ``base`` plus the sample's own Gaussian jitter stream."""
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be >= 0, got {noise_scale}")
    if noise_scale == 0:
        return base.copy()
    jitter = rng_for(seed, "embedding-jitter", sample_id).standard_normal(len(base))
    return base + noise_scale * jitter


def generate_corpus(
    spec: list[ClassSpec],
    dimension: int,
    seed: int,
    embedding_dim: int = DEFAULT_EMBEDDING_DIM,
    noise_scale: float = DEFAULT_NOISE_SCALE,
) -> Corpus:
    """Draw a corpus from class blobs; bit-identical for fixed (spec, seed)."""
    if not spec:
        raise ValueError("empty class spec")
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if sum(c.is_healthy for c in spec) > 1:
        raise ValueError("at most one class may be healthy")
    for c in spec:
        c.validate(dimension)

    samples: list[SampleRecord] = []
    sid = 0
    for c in spec:
        mean = np.asarray(c.mean, dtype=np.float64)
        draws = rng_for(seed, "class-draw", c.class_id).standard_normal((c.count, dimension))
        xs = mean[None, :] + c.scale * draws
        base = _unit_class_vector(c.class_id, seed, embedding_dim)
        for i in range(c.count):
            embedding = _jittered(base, noise_scale, seed, sid)
            samples.append(SampleRecord(sid, xs[i], c.class_id, embedding))
            sid += 1
    corpus = Corpus(
        samples=samples,
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


def _scaled_counts(raw: list[int], total: int) -> list[int]:
    s = sum(raw)
    return [max(1, round(total * r / s)) for r in raw]


def chest_longtail_specs(
    total: int = 2000, dimension: int = 2, scale: float = 0.5, radius: float = 4.0
) -> list[ClassSpec]:
    """Default corpus spec: chest X-ray benchmark ratios scaled to ``total``.

    The dominant no-finding class is class 0 (healthy, at the origin);
    the 18 pathology classes sit on a circle, ordered by descending count.
    """
    raw = [n for _, n in CHEST_LONGTAIL_COUNTS]
    counts = _scaled_counts(raw, total)
    means = _circle_means(len(raw), dimension, radius)
    return [
        ClassSpec(class_id=i, mean=means[i], scale=scale, count=counts[i], is_healthy=(i == 0))
        for i in range(len(raw))
    ]


def tail8_specs(
    total: int = 2000, dimension: int = 2, scale: float = 0.45, radius: float = 4.0
) -> list[ClassSpec]:
    """8-class long-tail spec: 60% healthy head, four tail classes < 2% each."""
    ratios = [0.60, 0.13, 0.11, 0.10, 0.015, 0.015, 0.015, 0.015]
    counts = [max(1, round(total * r)) for r in ratios]
    means = _circle_means(8, dimension, radius)
    return [
        ClassSpec(class_id=i, mean=means[i], scale=scale, count=counts[i], is_healthy=(i == 0))
        for i in range(8)
    ]


def blob_specs(
    num_blobs: int,
    per_blob: int,
    dimension: int = 2,
    scale: float = 0.25,
    radius: float = 6.0,
) -> list[ClassSpec]:
    """Equal-size, well-separated blobs (no healthy class); for clustering tests."""
    means = []
    for c in range(num_blobs):
        ang = 2.0 * math.pi * c / num_blobs
        m = [0.0] * dimension
        m[0] = radius * math.cos(ang)
        if dimension >= 2:
            m[1] = radius * math.sin(ang)
        means.append(tuple(m))
    return [
        ClassSpec(class_id=c, mean=means[c], scale=scale, count=per_blob, is_healthy=False)
        for c in range(num_blobs)
    ]


def _fmt_floats(values: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in values)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    path = Path(path)
    lines = [f"# {CORPUS_FORMAT} {CORPUS_VERSION}"]
    lines.append(f"# dimension {corpus.dimension}")
    lines.append(f"# embedding_dim {corpus.embedding_dim}")
    lines.append(f"# noise_scale {corpus.noise_scale!r}")
    lines.append(f"# seed {corpus.seed}")
    for c in corpus.classes:
        mean = ",".join(repr(m) for m in c.mean)
        lines.append(
            f"# class {c.class_id} count={c.count} scale={c.scale!r} "
            f"healthy={int(c.is_healthy)} mean={mean}"
        )
    for s in corpus.samples:
        lines.append(f"{s.sample_id} {s.class_id} {_fmt_floats(s.x)} {_fmt_floats(s.embedding)}")
    path.write_text("\n".join(lines) + "\n")


def load_corpus(path: str | Path) -> Corpus:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith(f"# {CORPUS_FORMAT} "):
        raise ValueError(f"{path}: not a {CORPUS_FORMAT} file")
    version = int(lines[0].split()[-1])
    if version != CORPUS_VERSION:
        raise ValueError(f"{path}: unsupported corpus version {version}")

    meta: dict[str, str] = {}
    classes: list[ClassSpec] = []
    samples: list[SampleRecord] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("# class "):
            parts = line.split()
            cid = int(parts[2])
            kv = dict(p.split("=", 1) for p in parts[3:])
            mean = tuple(float(v) for v in kv["mean"].split(","))
            classes.append(
                ClassSpec(
                    class_id=cid,
                    mean=mean,
                    scale=float(kv["scale"]),
                    count=int(kv["count"]),
                    is_healthy=bool(int(kv["healthy"])),
                )
            )
        elif line.startswith("#"):
            parts = line[1:].split(None, 1)
            if len(parts) == 2:
                meta[parts[0]] = parts[1].strip()
        else:
            fields = line.split()
            dim = int(meta["dimension"])
            edim = int(meta["embedding_dim"])
            if len(fields) != 2 + dim + edim:
                raise ValueError(f"{path}: bad record width {len(fields)}")
            samples.append(
                SampleRecord(
                    sample_id=int(fields[0]),
                    class_id=int(fields[1]),
                    x=np.array([float(v) for v in fields[2 : 2 + dim]]),
                    embedding=np.array([float(v) for v in fields[2 + dim :]]),
                )
            )
    corpus = Corpus(
        samples=samples,
        classes=classes,
        dimension=int(meta["dimension"]),
        seed=int(meta["seed"]),
        embedding_dim=int(meta["embedding_dim"]),
        noise_scale=float(meta["noise_scale"]),
    )
    corpus.validate()
    return corpus
