"""Conditional flow-matching model with per-expert residual adapters.

The backbone is a small vector-input residual MLP: the noisy data vector,
a sinusoidal time embedding, and the conditioning vector are projected into
a shared hidden state, which passes through L feedforward blocks with skip
connections and out to a velocity prediction. Each block's output is

    h_{l+1} = h_l + F_l(h_l) + A_{k,l}(h_l)

where F_l is the frozen base block and A_{k,l}(h) = W2 sigma(W1 h) is the
two-layer residual adapter owned by expert k at block l (blocks outside the
placement have no A term). Experts are selected by a precomputed partition:
routing is a pure lookup, there is no gate. Up-projections start at zero,
so a freshly adapted model reproduces the frozen backbone bit for bit.

Training uses the rectified flow objective: x_t = (1-t) x0 + t x1 with
velocity target x1 - x0 and squared error loss. ``sample_batch`` is the one
sampler: it integrates the learned velocity field with Euler steps from
t = 0 to t = 1, optionally blending conditional and unconditional
predictions (v = v_u + s (v_c - v_u)); scales 0 and 1 collapse exactly to
the pure unconditional / conditional trajectories.

All adapters live in two stacked arrays: ``AdapterStack.w1`` has shape
(K, P, r, d) and ``w2`` (K, P, d, r), for K experts, the P adapted blocks in
placement order, adapter width r and hidden width d. ``w1[k, j]`` is the
down-projection of expert k at block ``placement[j]``; the number of experts
and the width are read off these shapes. ``LossGradients`` holds two arrays
of the same shapes, so an SGD step is one subtraction per tensor.

Forward and backward passes are hand-written numpy, one of each, and each
runs once per batch: ``_forward`` (behind ``model_forward``, the sampler and
the probe) and ``_backward``. ``_route`` sorts the rows by expert once, with
a stable sort, so each expert owns one contiguous slice of the batch. The
shared backbone runs on all rows, and an adapted block adds expert k's
W2 sigma(W1 h) to its own slice, one matmul per routed expert, the way
S-LoRA and Punica serve many adapters in one batch. The backward returns,
per adapted block, the factors whose products are the adapter gradients;
``flow_matching_loss`` sums them over each expert's slice and
``per_sample_probe_gradients`` keeps one outer product per sample. Experts
that route no sample of a batch get exact-zero gradients, and the backbone
gets gradients only when it is explicitly unfrozen, which the fine-tuning
contract forbids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractViolationError
from .seeding import rng_for

__all__ = [
    "BackboneConfig",
    "AdapterStack",
    "ModelState",
    "LossGradients",
    "init_backbone",
    "init_adapters",
    "resolve_placement",
    "model_forward",
    "flow_matching_loss",
    "sgd_step",
    "sample_batch",
    "per_sample_probe_gradients",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1

Slices = list[tuple[int, slice]]  # (k, rows) per routed expert, see _route

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # x * (0.5 (1 + erf)) equals 0.5 x (1 + erf) bit for bit; the backward reuses the cdf
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    return x * cdf, cdf


def _gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def _relu(x: np.ndarray) -> tuple[np.ndarray, None]:
    return np.maximum(x, 0.0), None


def _relu_grad(x: np.ndarray, _) -> np.ndarray:
    return (x > 0.0).astype(np.float64)


# name -> (forward returning (value, saved), gradient from (input, saved))
_ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "gelu": (_gelu, _gelu_grad),
    "relu": (_relu, _relu_grad),
}


@dataclass(frozen=True)
class BackboneConfig:
    data_dim: int
    hidden_dim: int = 64
    num_blocks: int = 4
    cond_dim: int = 16
    time_embed_dim: int = 8

    def validate(self) -> None:
        for name in ("data_dim", "hidden_dim", "num_blocks", "cond_dim", "time_embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.time_embed_dim % 2 != 0:
            raise ValueError("time_embed_dim must be even (sin/cos pairs)")

    @property
    def ff_dim(self) -> int:
        return 2 * self.hidden_dim


@dataclass
class AdapterStack:
    placement: tuple[int, ...]
    nonlinearity: str
    w1: np.ndarray  # (num_experts, len(placement), adapter_dim, hidden_dim)
    w2: np.ndarray  # (num_experts, len(placement), hidden_dim, adapter_dim)

    @property
    def num_experts(self) -> int:
        return self.w1.shape[0]

    @property
    def adapter_dim(self) -> int:
        return self.w1.shape[2]

    def validate(self, config: BackboneConfig) -> None:
        if self.nonlinearity not in _ACTIVATIONS:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        P, d = len(self.placement), config.hidden_dim
        if self.w1.ndim != 4 or self.w1.shape[1:] != (P, self.adapter_dim, d):
            raise ValueError(f"bad w1 shape {self.w1.shape}")
        if self.w2.shape != (self.num_experts, P, d, self.adapter_dim):
            raise ValueError(f"bad w2 shape {self.w2.shape}")

    def parameter_count(self) -> int:
        return self.w1.size + self.w2.size


@dataclass
class ModelState:
    config: BackboneConfig
    backbone: dict[str, np.ndarray]
    adapters: AdapterStack | None = None
    frozen: bool = True


@dataclass
class LossGradients:
    """Adapter gradients shaped like the stack's ``w1`` and ``w2`` (None
    without adapters); experts that routed no sample hold exact zeros.
    Backbone gradients exist only when the backbone is unfrozen."""

    w1: np.ndarray | None
    w2: np.ndarray | None
    backbone: dict[str, np.ndarray] | None = None


def resolve_placement(num_blocks: int, spec: str | Sequence[int]) -> tuple[int, ...]:
    """Placement spec: "all", "none", "last:<m>", or explicit block ids."""
    if isinstance(spec, str):
        if spec == "all":
            return tuple(range(num_blocks))
        if spec == "none":
            return ()
        if spec.startswith("last:"):
            m = int(spec.split(":", 1)[1])
            if not 0 <= m <= num_blocks:
                raise ValueError(f"last:{m} out of range for {num_blocks} blocks")
            return tuple(range(num_blocks - m, num_blocks))
        blocks = tuple(int(b) for b in spec.split(","))
    else:
        blocks = tuple(int(b) for b in spec)
    if any(not 0 <= b < num_blocks for b in blocks):
        raise ValueError(f"block id out of range in placement {blocks}")
    return tuple(sorted(set(blocks)))


def init_backbone(config: BackboneConfig, seed: int) -> dict[str, np.ndarray]:
    config.validate()
    rng = rng_for(seed, "backbone-init")
    d, ff = config.hidden_dim, config.ff_dim

    def w(shape, fan_in):
        return rng.standard_normal(shape) / math.sqrt(fan_in)

    # zero-init output head and damped residual branches keep activations
    # near the input scale at init, so plain SGD stays stable on raw
    # (unnormalized) data vectors
    params = {
        "w_in": w((d, config.data_dim), config.data_dim),
        "b_in": np.zeros(d),
        "w_time": w((d, config.time_embed_dim), config.time_embed_dim),
        "w_cond": w((d, config.cond_dim), config.cond_dim),
        "w_out": np.zeros((config.data_dim, d)),
        "b_out": np.zeros(config.data_dim),
    }
    damp = config.num_blocks
    for l in range(config.num_blocks):
        params[f"block{l}.v"] = w((ff, d), d)
        params[f"block{l}.c"] = np.zeros(ff)
        params[f"block{l}.u"] = w((d, ff), ff) / damp
        params[f"block{l}.e"] = np.zeros(d)
    return params


def init_adapters(
    config: BackboneConfig,
    num_experts: int,
    adapter_dim: int,
    placement: str | Sequence[int] = "all",
    nonlinearity: str = "gelu",
    seed: int = 0,
) -> AdapterStack:
    """Zero-init up-projections: a fresh stack is an exact identity add-on."""
    if num_experts < 1 or adapter_dim < 1:
        raise ValueError("num_experts and adapter_dim must be positive")
    blocks = resolve_placement(config.num_blocks, placement)
    d = config.hidden_dim
    w1 = np.empty((num_experts, len(blocks), adapter_dim, d))
    for k in range(num_experts):
        for j, l in enumerate(blocks):
            w1[k, j] = rng_for(seed, "adapter-init", k, l).standard_normal((adapter_dim, d))
    stack = AdapterStack(
        placement=blocks,
        nonlinearity=nonlinearity,
        w1=w1 / math.sqrt(d),
        w2=np.zeros((num_experts, len(blocks), d, adapter_dim)),
    )
    stack.validate(config)
    return stack


def time_features(t: np.ndarray, dim: int) -> np.ndarray:
    half = dim // 2
    freqs = np.exp(np.arange(half) * (math.log(1000.0) / max(half - 1, 1)))
    ang = np.asarray(t, dtype=np.float64)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def _route(state: ModelState, expert_ids, n: int) -> tuple[np.ndarray | slice, Slices]:
    """Stable sort of n rows by expert, and each routed expert's contiguous
    slice of the sorted rows. Without adapters expert ids are ignored and
    there are no slices."""
    if state.adapters is None:
        return slice(None), []
    if expert_ids is None:
        raise ValueError("expert_ids required when adapters are attached")
    ids = np.asarray(expert_ids)
    if ids.shape != (n,):
        raise ValueError(f"expert_ids shape {ids.shape}, expected ({n},)")
    K = state.adapters.num_experts
    if ids.dtype.kind not in "iu" or np.any((ids < 0) | (ids >= K)):
        raise ValueError(f"expert ids {np.unique(ids)} out of range for {K} experts")
    slices, start = [], 0
    for k, count in enumerate(np.bincount(ids, minlength=K).tolist()):
        if count:
            slices.append((k, slice(start, start + count)))
        start += count
    # with one routed expert the stable sort is the identity
    return (slice(None) if len(slices) == 1 else np.argsort(ids, kind="stable")), slices


def _segment_matmul(x: np.ndarray, weights: np.ndarray, slices: Slices) -> np.ndarray:
    """``x[rows] @ weights[k]`` per routed expert; the slices tile the rows."""
    if len(slices) == 1:
        return x @ weights[slices[0][0]]
    out = np.empty((len(x), weights.shape[2]))
    for k, rows in slices:
        out[rows] = x[rows] @ weights[k]
    return out


def _forward(
    state: ModelState, X: np.ndarray, T: np.ndarray, C: np.ndarray, slices: Slices
) -> tuple[np.ndarray, dict]:
    """The batched forward over rows sorted by expert (see ``_route``): the
    velocity predictions and the cache ``_backward`` reads."""
    cfg = state.config
    p = state.backbone
    stack = state.adapters
    tau = time_features(T, cfg.time_embed_dim)
    h = X @ p["w_in"].T + tau @ p["w_time"].T + C @ p["w_cond"].T + p["b_in"]
    cache = {"X": X, "tau": tau, "C": C, "h": [h], "blocks": [], "slices": slices}
    for l in range(cfg.num_blocks):
        a = h @ p[f"block{l}.v"].T + p[f"block{l}.c"]
        g, cdf = _gelu(a)
        f = g @ p[f"block{l}.u"].T + p[f"block{l}.e"]
        entry = {"a": a, "g": g, "cdf": cdf}
        if stack is not None and l in stack.placement:
            j = stack.placement.index(l)
            act, _ = _ACTIVATIONS[stack.nonlinearity]
            y = _segment_matmul(h, stack.w1[:, j].transpose(0, 2, 1), slices)
            z, saved = act(y)
            entry.update(y=y, z=z, saved=saved)
            h = h + f + _segment_matmul(z, stack.w2[:, j].transpose(0, 2, 1), slices)
        else:
            h = h + f
        cache["blocks"].append(entry)
        cache["h"].append(h)
    return h @ p["w_out"].T + p["b_out"], cache


def _backward(
    state: ModelState,
    cache: dict,
    d_out: np.ndarray,
    backbone_grads: dict[str, np.ndarray] | None,
) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, ...]]]:
    """Backpropagate ``d_out`` through one forward cache.

    Accumulates backbone gradients into ``backbone_grads`` when given.
    Returns ``(dh, factors)``: ``dh`` is the gradient at the input hidden
    state, and ``factors[j] = (dh_l, z_l, dy_l, h_in_l)`` for the adapted
    block l = ``placement[j]``. Row i's adapter gradients are the outer
    products dW2 = dh_l[i] z_l[i]^T and dW1 = dy_l[i] h_in_l[i]^T.
    """
    cfg = state.config
    p = state.backbone
    stack, slices = state.adapters, cache["slices"]

    h_last = cache["h"][-1]
    if backbone_grads is not None:
        backbone_grads["w_out"] += d_out.T @ h_last
        backbone_grads["b_out"] += d_out.sum(axis=0)
    dh = d_out @ p["w_out"]

    factors: dict[int, tuple[np.ndarray, ...]] = {}
    for l in reversed(range(cfg.num_blocks)):
        entry = cache["blocks"][l]
        h_in = cache["h"][l]
        dg = dh @ p[f"block{l}.u"]
        da = dg * _gelu_grad(entry["a"], entry["cdf"])
        if backbone_grads is not None:
            backbone_grads[f"block{l}.u"] += dh.T @ entry["g"]
            backbone_grads[f"block{l}.e"] += dh.sum(axis=0)
            backbone_grads[f"block{l}.v"] += da.T @ h_in
            backbone_grads[f"block{l}.c"] += da.sum(axis=0)
        dh_ff = da @ p[f"block{l}.v"]

        dh_ad = 0.0
        if "y" in entry:
            j = stack.placement.index(l)
            _, act_grad = _ACTIVATIONS[stack.nonlinearity]
            dz = _segment_matmul(dh, stack.w2[:, j], slices)
            dy = dz * act_grad(entry["y"], entry["saved"])
            factors[j] = (dh, entry["z"], dy, h_in)
            dh_ad = _segment_matmul(dy, stack.w1[:, j], slices)

        dh = dh + dh_ff + dh_ad

    if backbone_grads is not None:
        backbone_grads["w_in"] += dh.T @ cache["X"]
        backbone_grads["b_in"] += dh.sum(axis=0)
        backbone_grads["w_time"] += dh.T @ cache["tau"]
        backbone_grads["w_cond"] += dh.T @ cache["C"]
    return dh, factors


def model_forward(
    state: ModelState,
    X: np.ndarray,
    T: np.ndarray,
    C: np.ndarray,
    expert_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Velocity predictions for a batch; samples may belong to different
    experts, in any order.

    X is (n, data_dim), T holds n times in [0, 1], C is (n, cond_dim) and
    ``expert_ids`` (required when adapters are attached) holds n expert ids;
    one sample may be passed as 1-D X and C.
    """
    cfg = state.config
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    T = np.atleast_1d(np.asarray(T, dtype=np.float64))
    C = np.atleast_2d(np.asarray(C, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != cfg.data_dim:
        raise ValueError(f"X shape {X.shape}, expected (n, {cfg.data_dim})")
    if C.ndim != 2 or C.shape[1] != cfg.cond_dim:
        raise ValueError(f"C shape {C.shape}, expected (n, {cfg.cond_dim})")
    if T.shape != (len(X),) or len(C) != len(X):
        raise ValueError(f"row counts differ: X {X.shape}, T {T.shape}, C {C.shape}")
    if not np.all((T >= 0.0) & (T <= 1.0)):
        raise ValueError(f"t must be in [0, 1], got values in [{T.min()}, {T.max()}]")
    order, slices = _route(state, expert_ids, len(X))
    out = np.empty((len(X), cfg.data_dim))
    out[order] = _forward(state, X[order], T[order], C[order], slices)[0]
    return out


def flow_matching_loss(
    state: ModelState,
    batch,
    seed: int,
    cond_dropout: float = 0.0,
) -> tuple[float, LossGradients]:
    """Rectified-flow loss and gradients for one ``training.TrainBatch``.

    Per sample: t ~ U[0,1], x0 ~ N(0,I), x_t = (1-t) x0 + t x1, target
    velocity x1 - x0, squared error averaged over the batch and data
    dimensions. Draw order is fixed (t, then x0, then the conditioning
    dropout mask) so runs are reproducible. With a frozen backbone the
    returned gradients cover adapters only.
    """
    if state.adapters is not None and not state.frozen:
        raise ContractViolationError(
            "adapter fine-tuning requires a frozen backbone; unfreeze only for "
            "the no-adapter full-training control"
        )
    cfg = state.config
    experts, x1, cond = batch.experts, batch.x, batch.cond
    n = len(experts)

    rng = rng_for(seed, "flow-loss")
    t = rng.uniform(0.0, 1.0, size=n)
    x0 = rng.standard_normal((n, cfg.data_dim))
    if cond_dropout > 0.0:
        drop = rng.uniform(0.0, 1.0, size=n) < cond_dropout
        cond = cond.copy()
        cond[drop] = 0.0

    x_t = (1.0 - t)[:, None] * x0 + t[:, None] * x1
    v_target = x1 - x0

    order, slices = _route(state, experts, n)
    v_pred, cache = _forward(state, x_t[order], t[order], cond[order], slices)
    resid = v_pred - v_target[order]
    loss = float((resid * resid).mean())
    d_pred = 2.0 * resid / resid.size

    backbone_grads = None if state.frozen else {
        name: np.zeros_like(arr) for name, arr in state.backbone.items()
    }
    _, factors = _backward(state, cache, d_pred, backbone_grads)
    stack = state.adapters
    grad_w1 = None if stack is None else np.zeros_like(stack.w1)
    grad_w2 = None if stack is None else np.zeros_like(stack.w2)
    for j, (dh, z, dy, h_in) in factors.items():
        for k, rows in slices:
            grad_w2[k, j] += dh[rows].T @ z[rows]
            grad_w1[k, j] += dy[rows].T @ h_in[rows]
    return loss, LossGradients(w1=grad_w1, w2=grad_w2, backbone=backbone_grads)


def sgd_step(state: ModelState, grads: LossGradients, lr: float) -> None:
    """In-place plain SGD update. Frozen backbones are never touched."""
    if state.adapters is not None:
        state.adapters.w1 -= lr * grads.w1
        state.adapters.w2 -= lr * grads.w2
    if grads.backbone is not None:
        if state.frozen:
            raise ContractViolationError("backbone gradients supplied for a frozen backbone")
        for name, g in grads.backbone.items():
            state.backbone[name] -= lr * g


def _euler_integrate(
    x: np.ndarray,
    steps: int,
    velocity: Callable[[np.ndarray, float], np.ndarray],
) -> np.ndarray:
    dt = 1.0 / steps
    for i in range(steps):
        t = i / steps
        x = x + dt * velocity(x, t)
    return x


def _velocity_fn(
    state: ModelState, cond: np.ndarray, slices: Slices, guidance_scale: float
) -> Callable[[np.ndarray, float], np.ndarray]:
    null = np.zeros_like(cond)

    def v(x, t, c):
        n = len(x)
        return _forward(state, x, np.full(n, t), np.tile(c, (n, 1)), slices)[0]

    # scales 0 and 1 must collapse exactly, not just up to rounding
    if guidance_scale == 1.0:
        return lambda x, t: v(x, t, cond)
    if guidance_scale == 0.0:
        return lambda x, t: v(x, t, null)

    def blended(x, t):
        vu = v(x, t, null)
        return vu + guidance_scale * (v(x, t, cond) - vu)

    return blended


def sample_batch(
    state: ModelState,
    cond: np.ndarray,
    expert_id: int | None,
    guidance_scale: float,
    steps: int,
    count: int,
    seed: int,
) -> np.ndarray:
    """Euler-integrate ``count`` trajectories from seeded noise to data."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if guidance_scale < 0:
        raise ValueError("guidance_scale must be >= 0")
    cond = np.asarray(cond, dtype=np.float64)
    if cond.shape != (state.config.cond_dim,):
        raise ValueError(f"cond shape {cond.shape}, expected ({state.config.cond_dim},)")
    # every row goes to one expert: a single slice, already in order
    _, slices = _route(state, None if expert_id is None else np.full(count, expert_id), count)
    x0 = rng_for(seed, "sample-noise").standard_normal((count, state.config.data_dim))
    return _euler_integrate(x0, steps, _velocity_fn(state, cond, slices, guidance_scale))


def per_sample_probe_gradients(
    state: ModelState,
    x1: np.ndarray,
    cond: np.ndarray,
    t_draws: np.ndarray,
    x0_draws: np.ndarray,
) -> np.ndarray:
    """Per-sample flow-loss gradients with respect to a shared probe adapter.

    The state must hold a single-expert adapter stack (the probe). Every
    sample is evaluated at the same (t, x0) draws and its gradient averaged
    over them, so gradients are comparable across samples. Returns one
    gradient row per sample: for each block in placement order, the
    row-major flattened w1 gradient, then the w2 gradient.
    """
    if state.adapters is None or state.adapters.num_experts != 1:
        raise ValueError("probe gradients need a single-expert adapter stack")
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    cond = np.atleast_2d(np.asarray(cond, dtype=np.float64))
    n = len(x1)
    slices = [(0, slice(0, n))]
    total = np.zeros((n, state.adapters.parameter_count()))
    for t_val, x0 in zip(t_draws, x0_draws):
        x_t = (1.0 - t_val) * x0[None, :] + t_val * x1
        v_target = x1 - x0[None, :]
        out, cache = _forward(state, x_t, np.full(n, t_val), cond, slices)
        # per-sample loss: mean over dimensions only
        d_out = 2.0 * (out - v_target) / state.config.data_dim
        _, factors = _backward(state, cache, d_out, None)
        offset = 0
        for j in range(len(state.adapters.placement)):
            dh, z, dy, h_in = factors[j]
            for grad in (np.einsum("ni,nj->nij", dy, h_in), np.einsum("ni,nj->nij", dh, z)):
                size = grad.shape[1] * grad.shape[2]  # grad[0] is absent when n = 0
                total[:, offset : offset + size] += grad.reshape(n, size)
                offset += size
    return total / len(t_draws)


def save_checkpoint(state: ModelState, path: str | Path) -> None:
    path = Path(path)
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "config": {
            "data_dim": state.config.data_dim,
            "hidden_dim": state.config.hidden_dim,
            "num_blocks": state.config.num_blocks,
            "cond_dim": state.config.cond_dim,
            "time_embed_dim": state.config.time_embed_dim,
        },
        "frozen": state.frozen,
        "adapters": None
        if state.adapters is None
        else {
            "num_experts": state.adapters.num_experts,
            "adapter_dim": state.adapters.adapter_dim,
            "placement": list(state.adapters.placement),
            "nonlinearity": state.adapters.nonlinearity,
        },
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    for name, arr in state.backbone.items():
        arrays[f"backbone/{name}"] = arr
    if state.adapters is not None:
        for k in range(state.adapters.num_experts):
            for j, l in enumerate(state.adapters.placement):
                arrays[f"adapter/{k}/{l}/w1"] = state.adapters.w1[k, j]
                arrays[f"adapter/{k}/{l}/w2"] = state.adapters.w2[k, j]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str | Path) -> ModelState:
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta["format_version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['format_version']}")
        config = BackboneConfig(**meta["config"])
        backbone = {
            name[len("backbone/") :]: data[name] for name in data.files if name.startswith("backbone/")
        }
        adapters = None
        if meta["adapters"] is not None:
            am = meta["adapters"]
            num_experts, placement = am["num_experts"], tuple(am["placement"])

            def stacked(name: str, dims: tuple[int, int]) -> np.ndarray:
                slots = [data[f"adapter/{k}/{l}/{name}"]
                         for k in range(num_experts) for l in placement]
                if any(a.shape != dims for a in slots):
                    raise ValueError(f"checkpoint adapter {name}: expected shape {dims}")
                return np.array(slots).reshape((num_experts, len(placement)) + dims)

            r, d = am["adapter_dim"], config.hidden_dim
            adapters = AdapterStack(
                placement, am["nonlinearity"], stacked("w1", (r, d)), stacked("w2", (d, r))
            )
            adapters.validate(config)
    return ModelState(config=config, backbone=backbone, adapters=adapters, frozen=meta["frozen"])
