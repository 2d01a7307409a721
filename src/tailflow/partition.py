"""Sample-wise partitioning and conflict scoring.

A partition is a static total map from sample ids to expert ids. The quality
of a partition is the expected pairwise conflict ``1 - cos(u, v)`` between
within-cluster pairs, measured on embedding surrogates or on a supplied
row-aligned array, such as per-sample gradients. Partitioners provided:

* label tiers (head / medium / tail frequency bands, plus a dedicated
  expert for the healthy class when K = 4),
* bisecting 2-means on embeddings in cosine geometry, descending the same
  conflict objective,
* uniform random and single-expert controls.

Tie-breaking everywhere prefers the lowest sample/class/expert id, so every
partitioner is bit-reproducible.

Conflict is computed in closed form, with no m x m Gram matrix: for unit
rows u_1..u_m the mean pairwise conflict is
1 - (|sum u_i|^2 - sum |u_i|^2) / (m (m - 1)), as for the concept vectors of
spherical k-means, so scoring, the objective and the peel step cost O(m E).
Only the 2-means seed pair needs every pair; it is scanned in blocks of
``_PAIR_BLOCK`` rows, so bisecting k-means holds O(N E + _PAIR_BLOCK N)
memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .datagen import Corpus
from .errors import DegenerateInputError, InsufficientDataError
from .seeding import rng_for

__all__ = [
    "Partition",
    "ConflictScore",
    "pairwise_conflict",
    "partition_conflict",
    "label_tier_partition",
    "bisecting_kmeans_partition",
    "random_partition",
    "single_partition",
    "class_to_expert",
    "composition_report",
    "save_partition",
    "load_partition",
]

PARTITION_FORMAT = "tailflow-partition"
PARTITION_VERSION = 1

METHOD_LABEL_TIER = "label-tier"
METHOD_EMBEDDING_KMEANS = "embedding-kmeans"
METHOD_RANDOM = "random"
METHOD_SINGLE = "single"
_METHODS = (METHOD_LABEL_TIER, METHOD_EMBEDDING_KMEANS, METHOD_RANDOM, METHOD_SINGLE)

# cap on the 2-means iterations of one bisection
MAX_ITERS = 50


@dataclass
class Partition:
    """Total map sample_id -> expert_id, with per-expert class composition."""

    assignments: np.ndarray  # int64, indexed by sample_id
    num_experts: int
    method: str
    composition: list[dict[int, int]]

    def members(self, expert_id: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == expert_id)

    def expert_sizes(self) -> list[int]:
        return [int(np.sum(self.assignments == k)) for k in range(self.num_experts)]

    def validate(self, corpus: Corpus) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if len(self.assignments) != len(corpus):
            raise ValueError("assignments do not cover the corpus exactly")
        if self.num_experts < 1:
            raise ValueError("num_experts must be >= 1")
        if self.method == METHOD_SINGLE and self.num_experts != 1:
            raise ValueError("single method implies one expert")
        if self.assignments.min() < 0 or self.assignments.max() >= self.num_experts:
            raise ValueError("expert id out of range")
        if sum(sum(h.values()) for h in self.composition) != len(corpus):
            raise ValueError("composition does not sum to corpus size")


@dataclass
class ConflictScore:
    """Mean pairwise conflict per cluster and overall (pair-weighted)."""

    per_cluster: list[float]
    overall: float
    pair_count: int


def _build(corpus: Corpus, assignments: np.ndarray, num_experts: int, method: str) -> Partition:
    class_ids = corpus.class_ids()
    composition: list[dict[int, int]] = []
    for k in range(num_experts):
        ids, counts = np.unique(class_ids[assignments == k], return_counts=True)
        composition.append({int(c): int(n) for c, n in zip(ids, counts)})
    part = Partition(
        assignments=assignments.astype(np.int64),
        num_experts=num_experts,
        method=method,
        composition=composition,
    )
    part.validate(corpus)
    return part


def pairwise_conflict(u: np.ndarray, v: np.ndarray) -> float:
    """``1 - cos(u, v)``, in [0, 2]. Undefined (raises) for zero-norm input."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1 or u.size < 1:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateInputError("cosine undefined for zero-norm vector")
    return float(1.0 - np.dot(u, v) / (nu * nv))


def _normalized_rows(vectors: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateInputError(f"zero-norm {what} vector")
    return vectors / norms[:, None]


def _mean_conflict(unit: np.ndarray) -> float:
    """Mean ``1 - cos`` over the unordered pairs of ``unit``'s m >= 2 rows.
    The diagonal is taken out as the rows' squared norms, not as m."""
    m = len(unit)
    total = unit.sum(axis=0)
    return float(1.0 - (total @ total - np.einsum("ij,ij->", unit, unit)) / (m * (m - 1)))


def _cluster_conflict(unit: np.ndarray) -> float:
    """Mean conflict of one cluster's unit rows, clipped to [0, 2]; 0 for
    fewer than two rows."""
    if len(unit) < 2:
        return 0.0
    return float(np.clip(_mean_conflict(unit), 0.0, 2.0))


def _cluster_conflicts(blocks: Iterable[np.ndarray]) -> ConflictScore:
    """Per-cluster conflict of each block of unit rows, and their mean
    weighted by within-cluster pair count."""
    per_cluster: list[float] = []
    weighted = 0.0
    total_pairs = 0
    for unit in blocks:
        value = _cluster_conflict(unit)
        pairs = len(unit) * (len(unit) - 1) // 2
        per_cluster.append(value)
        weighted += value * pairs
        total_pairs += pairs
    overall = weighted / total_pairs if total_pairs > 0 else 0.0
    return ConflictScore(per_cluster=per_cluster, overall=float(overall), pair_count=total_pairs)


def partition_conflict(
    corpus: Corpus, partition: Partition, vectors: np.ndarray | None = None
) -> ConflictScore:
    """Exact mean conflict over all unordered within-cluster pairs.

    ``vectors`` holds one row per corpus sample, such as per-sample
    gradients; it defaults to the corpus embedding surrogates. Clusters of
    size < 2 contribute zero pairs and a value of 0.
    """
    vectors = corpus.embedding_matrix() if vectors is None else np.asarray(vectors, float)
    if len(vectors) != len(corpus):
        raise ValueError(f"{len(vectors)} vector rows for a corpus of {len(corpus)} samples")
    unit = _normalized_rows(vectors, "input")
    return _cluster_conflicts(unit[partition.members(k)] for k in range(partition.num_experts))


def _tier_boundaries(counts: list[int], tiers: int) -> list[int]:
    """Greedy sweep over descending counts: close a tier when taking the next
    class would land farther from the adaptive per-tier target."""
    bounds: list[int] = []
    i = 0
    remaining_total = sum(counts)
    for t in range(tiers):
        remaining_tiers = tiers - t
        if remaining_tiers == 1:
            bounds.append(len(counts))
            break
        target = remaining_total / remaining_tiers
        cum = 0
        while True:
            left = len(counts) - i
            if left <= remaining_tiers - 1:
                break
            c = counts[i]
            if cum > 0 and abs(cum + c - target) > abs(cum - target):
                break
            cum += c
            i += 1
        bounds.append(i)
        remaining_total -= cum
    return bounds


def label_tier_partition(corpus: Corpus, num_experts: int = 4) -> Partition:
    """Head/medium/tail frequency tiers; the healthy class gets its own
    expert (the last one) when ``num_experts`` is 4.

    Classes are atomic: each maps wholly to one tier. Tiers are contiguous
    bands of the descending-count order, with boundaries chosen greedily so
    tier totals are as balanced as possible.
    """
    if num_experts not in (3, 4):
        raise ValueError(f"label tiers support K in {{3, 4}}, got {num_experts}")
    healthy = corpus.healthy_class_id()
    if num_experts == 4 and healthy is None:
        raise ValueError("K = 4 label tiers require a designated healthy class")
    tiered = [c for c in corpus.classes if not (num_experts == 4 and c.class_id == healthy)]
    if len(tiered) < 3:
        raise InsufficientDataError("fewer non-healthy classes than tiers")

    tiered.sort(key=lambda c: (-c.count, c.class_id))
    bounds = _tier_boundaries([c.count for c in tiered], 3)
    class_to_tier: dict[int, int] = {}
    start = 0
    for tier, end in enumerate(bounds):
        for c in tiered[start:end]:
            class_to_tier[c.class_id] = tier
        start = end
    if num_experts == 4:
        class_to_tier[healthy] = 3

    assignments = np.empty(len(corpus), dtype=np.int64)
    for cid, tier in class_to_tier.items():
        assignments[corpus.labels == cid] = tier
    return _build(corpus, assignments, num_experts, METHOD_LABEL_TIER)


_PAIR_BLOCK = 256  # rows per block of the seed-pair scan: a block x n working set


def _max_conflict_pair(unit: np.ndarray) -> tuple[int, int]:
    """Indices i < j of the most-conflicting pair of rows; first occurrence
    in row-major order wins (lowest i, then lowest j)."""
    n = unit.shape[0]
    best, best_i, best_j = -np.inf, 0, 1
    for start in range(0, n - 1, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, n)
        conf = unit[start:stop] @ unit[start:].T
        np.subtract(1.0, conf, out=conf)
        # j <= i lies in the block's leading square only
        conf[:, : stop - start][np.tri(stop - start, dtype=bool)] = -np.inf
        flat = int(np.argmax(conf))
        if conf.flat[flat] > best:  # strict: an earlier block keeps a tie
            best = conf.flat[flat]
            r, c = divmod(flat, n - start)
            best_i, best_j = start + r, start + c
        del conf  # freed before the next block is allocated: one block live at a time
    return best_i, best_j


def _two_means_cosine(unit: np.ndarray) -> np.ndarray:
    """Cosine 2-means seeded at the maximal-conflict pair. Returns 0/1 labels."""
    n = unit.shape[0]
    i, j = _max_conflict_pair(unit)
    centroids = np.stack([unit[i], unit[j]])
    labels: np.ndarray | None = None
    for _ in range(MAX_ITERS):
        sims = unit @ centroids.T  # (n, 2)
        new_labels = (sims[:, 1] > sims[:, 0]).astype(np.int64)  # tie -> side 0
        if len(np.unique(new_labels)) < 2:
            break  # keep previous non-degenerate labels
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        means = np.stack([unit[labels == 0].mean(axis=0), unit[labels == 1].mean(axis=0)])
        norms = np.linalg.norm(means, axis=1)
        if np.any(norms < 1e-12):
            break
        centroids = means / norms[:, None]
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
        labels[j] = 1
    return labels


def bisecting_kmeans_partition(
    corpus: Corpus,
    num_experts: int,
    return_history: bool = False,
) -> Partition | tuple[Partition, list[float]]:
    """Bisect the most-conflicting cluster with cosine 2-means until
    ``num_experts`` clusters exist.

    The algorithm is deterministic and takes no seed: 2-means is seeded at
    the maximal-conflict pair within the cluster being split. A split is
    accepted only if the overall objective does not increase; the fallback
    peels off the single highest-conflict sample, which provably never
    increases the pair-weighted objective. ``return_history`` also returns
    the objective after every bisection.
    """
    n = len(corpus)
    if num_experts < 1:
        raise ValueError("num_experts must be >= 1")
    if num_experts > n:
        raise InsufficientDataError(f"K = {num_experts} exceeds corpus size {n}")

    unit = _normalized_rows(corpus.embedding_matrix(), "embedding")
    clusters: list[np.ndarray] = [np.arange(n)]
    history = [_cluster_conflicts(unit[c] for c in clusters).overall]

    while len(clusters) < num_experts:
        # the most-conflicting cluster; ties -> larger, then lower first id
        scored = [
            (-_mean_conflict(unit[c]), -len(c), int(c[0]), idx)
            for idx, c in enumerate(clusters) if len(c) >= 2
        ]
        target_idx = min(scored)[3]
        members = clusters[target_idx]

        labels = _two_means_cosine(unit[members])
        left, right = members[labels == 0], members[labels == 1]
        candidate = clusters[:target_idx] + clusters[target_idx + 1 :] + [left, right]
        new_obj = _cluster_conflicts(unit[c] for c in candidate).overall
        if new_obj > history[-1] + 1e-12:
            # peel the sample with the largest mean conflict to the rest;
            # this never increases the pair-weighted objective
            rows = unit[members]
            row_mean = (len(members) - rows @ rows.sum(axis=0)) / (len(members) - 1)
            worst = int(np.argmax(row_mean))
            left = np.delete(members, worst)
            right = members[worst : worst + 1]
            candidate = clusters[:target_idx] + clusters[target_idx + 1 :] + [left, right]
            new_obj = _cluster_conflicts(unit[c] for c in candidate).overall
        clusters = candidate
        history.append(new_obj)

    clusters.sort(key=lambda c: int(c[0]))
    assignments = np.empty(n, dtype=np.int64)
    for k, members in enumerate(clusters):
        assignments[members] = k
    part = _build(corpus, assignments, num_experts, METHOD_EMBEDDING_KMEANS)
    if return_history:
        return part, history
    return part


def random_partition(corpus: Corpus, num_experts: int, seed: int) -> Partition:
    """Uniform independent expert per sample, deterministic per seed."""
    if num_experts < 1:
        raise ValueError("num_experts must be >= 1")
    rng = rng_for(seed, "random-partition")
    assignments = rng.integers(0, num_experts, size=len(corpus), dtype=np.int64)
    return _build(corpus, assignments, num_experts, METHOD_RANDOM)


def single_partition(corpus: Corpus) -> Partition:
    """Everything in expert 0 (the single-expert control)."""
    return _build(corpus, np.zeros(len(corpus), dtype=np.int64), 1, METHOD_SINGLE)


def class_to_expert(partition: Partition, corpus: Corpus) -> dict[int, int]:
    """Majority expert per class (ties -> lowest expert id)."""
    mapping: dict[int, int] = {}
    class_ids = corpus.class_ids()
    for c in corpus.classes:
        mask = class_ids == c.class_id
        experts, counts = np.unique(partition.assignments[mask], return_counts=True)
        order = sorted(zip(-counts, experts))
        mapping[c.class_id] = int(order[0][1])
    return mapping


def composition_report(partition: Partition, corpus: Corpus) -> dict:
    """JSON-ready per-expert class histogram report."""
    sizes = partition.expert_sizes()
    total = len(corpus)
    report = {
        "format_version": PARTITION_VERSION,
        "method": partition.method,
        "num_experts": partition.num_experts,
        "geometry": "cosine",
        "total_samples": total,
        "experts": {
            str(k): {
                "size": sizes[k],
                "share": sizes[k] / total,
                "class_counts": {str(c): n for c, n in sorted(partition.composition[k].items())},
            }
            for k in range(partition.num_experts)
        },
    }
    return report


def save_partition(partition: Partition, path: str | Path) -> None:
    path = Path(path)
    lines = [f"# {PARTITION_FORMAT} {PARTITION_VERSION}"]
    lines.append(f"# method {partition.method}")
    lines.append(f"# experts {partition.num_experts}")
    for sid, k in enumerate(partition.assignments):
        lines.append(f"{sid} {int(k)}")
    path.write_text("\n".join(lines) + "\n")


def load_partition(path: str | Path, corpus: Corpus) -> Partition:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith(f"# {PARTITION_FORMAT} "):
        raise ValueError(f"{path}: not a {PARTITION_FORMAT} file")
    version = int(lines[0].split()[-1])
    if version != PARTITION_VERSION:
        raise ValueError(f"{path}: unsupported partition version {version}")
    method = None
    num_experts = None
    pairs: list[tuple[int, int]] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("# method"):
            method = line.split()[-1]
        elif line.startswith("# experts"):
            num_experts = int(line.split()[-1])
        elif not line.startswith("#"):
            sid, k = line.split()
            pairs.append((int(sid), int(k)))
    if method is None or num_experts is None:
        raise ValueError(f"{path}: missing method/experts header")
    assignments = np.full(len(pairs), -1, dtype=np.int64)
    for sid, k in pairs:
        if not 0 <= sid < len(pairs):
            raise ValueError(f"{path}: sample id {sid} out of range [0, {len(pairs)})")
        if assignments[sid] != -1:
            raise ValueError(f"{path}: duplicated sample id {sid}")
        assignments[sid] = k
    return _build(corpus, assignments, num_experts, method)
