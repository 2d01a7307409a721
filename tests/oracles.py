"""Independent brute-force reference implementations.

Deliberately written as plain double loops (no shared code with the
library) so they can certify the accelerated paths. Per-pair distances use
np.sqrt(np.sum(diff**2)) on 1-D arrays, the same elementwise reduction the
vectorized paths perform, so agreement is exact, not approximate.
"""

from __future__ import annotations

import math

import numpy as np

from tailflow.seeding import rng_for


def dist(a: np.ndarray, b: np.ndarray) -> float:
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt(np.sum(d * d)))


def knn_radius_brute(x: np.ndarray, points: np.ndarray, k: int, exclude: int | None = None) -> float:
    ds = [dist(x, p) for i, p in enumerate(points) if i != exclude]
    ds.sort()
    return ds[k - 1]


def self_radii_brute(points: np.ndarray, k: int) -> list[float]:
    return [knn_radius_brute(points[i], points, k, exclude=i) for i in range(len(points))]


def coverage_brute(real: np.ndarray, gen: np.ndarray, k: int) -> float:
    radii = self_radii_brute(real, k)
    hits = 0
    for i in range(len(real)):
        if any(dist(real[i], g) <= radii[i] for g in gen):
            hits += 1
    return hits / len(real)


def retrieval_brute(gen: np.ndarray, ref: np.ndarray) -> list[int]:
    out = []
    for g in gen:
        best, best_d = 0, dist(g, ref[0])
        for j in range(1, len(ref)):
            d = dist(g, ref[j])
            if d < best_d:
                best, best_d = j, d
        out.append(best)
    return out


def irs_brute(gen: np.ndarray, ref: np.ndarray) -> float:
    return len(set(retrieval_brute(gen, ref))) / len(ref)


def frechet_diagonal_closed_form(
    mu_a: np.ndarray, var_a: np.ndarray, mu_b: np.ndarray, var_b: np.ndarray
) -> float:
    mean_term = float(np.sum((np.asarray(mu_a) - np.asarray(mu_b)) ** 2))
    cov_term = float(np.sum((np.sqrt(var_a) - np.sqrt(var_b)) ** 2))
    return mean_term + cov_term


def mean_pairwise_conflict_brute(vectors: np.ndarray) -> float:
    n = len(vectors)
    if n < 2:
        return 0.0
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            u, v = vectors[i], vectors[j]
            total += 1.0 - float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return total / (n * (n - 1) / 2)


def partition_objective_brute(vectors: np.ndarray, assignments: np.ndarray, K: int) -> float:
    """Pair-weighted mean within-cluster conflict."""
    weighted = 0.0
    pairs_total = 0
    for k in range(K):
        members = np.flatnonzero(assignments == k)
        m = len(members)
        if m < 2:
            continue
        value = mean_pairwise_conflict_brute(vectors[members])
        weighted += value * (m * (m - 1) // 2)
        pairs_total += m * (m - 1) // 2
    return weighted / pairs_total if pairs_total else 0.0


def diagonal_design(mu: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Point set whose sample mean is mu and sample covariance is exactly
    diagonal: mu +- spread_i e_i for each coordinate i."""
    mu = np.asarray(mu, dtype=np.float64)
    f = len(mu)
    points = []
    for i in range(f):
        e = np.zeros(f)
        e[i] = spread[i]
        points.append(mu + e)
        points.append(mu - e)
    return np.stack(points)


def diagonal_design_variance(spread: np.ndarray, f: int) -> np.ndarray:
    """Sample variance (ddof=1) of diagonal_design along each coordinate."""
    n = 2 * f
    return 2.0 * np.asarray(spread, dtype=np.float64) ** 2 / (n - 1)


def _matvec(w: np.ndarray, v) -> list[float]:
    return [sum(float(w[i, j]) * float(v[j]) for j in range(w.shape[1])) for i in range(w.shape[0])]


def _add(*vectors) -> list[float]:
    return [sum(parts) for parts in zip(*vectors)]


_ACT = {
    "gelu": lambda v: 0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))),
    "relu": lambda v: max(v, 0.0),
}


def forward_reference(
    backbone: dict[str, np.ndarray],
    adapters: dict[int, tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    t: float,
    c: np.ndarray,
    nonlinearity: str = "gelu",
) -> np.ndarray:
    """Velocity for one sample, straight from the model's defining formula.

    h_0 = W_in x + W_time tau(t) + W_cond c + b_in with tau(t) the sin/cos
    features at frequencies 1000^(i / (half - 1)); each block l maps
    h -> h + F_l(h) + W2 sigma(W1 h) with F_l(h) = U gelu(V h + c_l) + e_l;
    the output is W_out h_L + b_out. ``adapters`` maps a block id to the
    routed expert's (W1, W2); blocks without an entry have no adapter term.
    """
    half = backbone["w_time"].shape[1] // 2
    freqs = [math.exp(i * math.log(1000.0) / max(half - 1, 1)) for i in range(half)]
    tau = [math.sin(t * f) for f in freqs] + [math.cos(t * f) for f in freqs]
    h = _add(_matvec(backbone["w_in"], x), _matvec(backbone["w_time"], tau),
             _matvec(backbone["w_cond"], c), backbone["b_in"])
    num_blocks = sum(1 for name in backbone if name.endswith(".v"))
    for l in range(num_blocks):
        a = _add(_matvec(backbone[f"block{l}.v"], h), backbone[f"block{l}.c"])
        f = _add(_matvec(backbone[f"block{l}.u"], [_ACT["gelu"](v) for v in a]),
                 backbone[f"block{l}.e"])
        parts = [h, f]
        if l in adapters:
            w1, w2 = adapters[l]
            parts.append(_matvec(w2, [_ACT[nonlinearity](v) for v in _matvec(w1, h)]))
        h = _add(*parts)
    return np.array(_add(_matvec(backbone["w_out"], h), backbone["b_out"]))


def euler_reference(velocity, x0: np.ndarray, steps: int) -> np.ndarray:
    """Explicit Euler from t = 0 to 1: x <- x + (1/steps) v(x, i/steps)."""
    x = np.array(x0, dtype=np.float64)
    dt = 1.0 / steps
    for i in range(steps):
        x = x + dt * velocity(x, i / steps)
    return x


def text_embedding_surrogate(
    sample_id: int, class_id: int, noise_scale: float, seed: int, dim: int = 16
) -> np.ndarray:
    """Sample ``sample_id``'s embedding row, drawn on its own: its class's unit
    vector plus ``noise_scale`` times the draws of its jitter stream
    ``rng_for(seed, "embedding-jitter", sample_id)``."""
    base = rng_for(seed, "label-embedding", class_id).standard_normal(dim)
    base = base / np.linalg.norm(base)
    if noise_scale == 0:
        return base
    return base + noise_scale * rng_for(seed, "embedding-jitter", sample_id).standard_normal(dim)
