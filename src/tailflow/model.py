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
sampler and holds its whole Euler loop, x <- x + dt v from seeded noise at
t = 0 to t = 1. At guidance scale s, v = v_u + s (v_c - v_u) from two n-row
forwards, unconditional (zero conditioning) and conditional; one 2n-row
forward would round differently. Scales 1 and 0 run only the conditional or
only the unconditional forward, so they give those trajectories bit for bit.

All adapters live in two stacked arrays: ``AdapterStack.w1`` has shape
(K, P, r, d) and ``w2`` (K, P, d, r), for K experts, the P adapted blocks in
placement order, adapter width r and hidden width d. ``w1[k, j]`` is the
down-projection of expert k at block ``placement[j]``; the number of experts
and the width are read off these shapes. ``LossGradients`` holds two arrays
of the same shapes, so an SGD step is one subtraction per tensor.

Forward and backward passes are hand-written numpy, one of each, and each
runs once per batch: ``_forward`` (behind ``model_forward``, the sampler and
the probe) and ``_backward``. The forward is the input projection
``_embed``, then the block loop ``_run_blocks``. ``_route`` sorts the rows
by expert once, with a stable sort, so each expert owns one contiguous slice
of the batch. The shared backbone runs on all rows, and an adapted block
adds expert k's W2 sigma(W1 h) to its own slice, one matmul per routed
expert, the way S-LoRA and Punica serve many adapters in one batch. The
backward returns, per adapted block, the factors whose products are the
adapter gradients; the loss core ``_loss`` multiplies them out over each
expert's slice and ``per_sample_probe_gradients`` keeps one outer product
per sample. Experts that route no sample of a batch get exact-zero
gradients, and the backbone gets gradients only when it is explicitly
unfrozen, which the fine-tuning contract forbids.

``_loss_inputs`` takes a block of steps' draws and batches on a leading axis
and computes at once what reads no trained weight: x_t, targets, the sort
by expert and, over a frozen backbone, the forward up to the first adapted
block's backbone branch (a stacked matmul runs the per-step gemm, so each
step keeps its bits). ``flow_matching_loss`` is a block of one step.

The GELU's ``erf`` is scipy's compiled ufunc, loaded from the extension
module ``scipy.special._special_ufuncs`` alone. Importing the scipy.special
package would also import numpy.f2py, numpy.testing and numpy.ma, since
array_api_compat's ``clone_module`` touches every lazy numpy submodule; that
doubles a process's start-up time and adds 15 MB. The module is kept in
``sys.modules`` under its own name, so a later ``import scipy.special``
reuses it and ``scipy.special.erf`` is the same object.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

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

CHECKPOINT_VERSION = 2

Slices = list[tuple[int, slice]]  # (k, rows) per routed expert, see _route

_UFUNCS = "scipy.special._special_ufuncs"


def _load_erf() -> np.ufunc:
    """scipy's own ``erf`` ufunc from its extension module, without the
    scipy.special package (see the module docstring). A scipy without the
    module, or without ``erf`` in it, gets the package import."""
    module = sys.modules.get(_UFUNCS)
    if module is None:
        scipy = importlib.util.find_spec("scipy")  # a top-level name: located, not imported
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            _UFUNCS, [os.path.join(p, "special") for p in scipy.submodule_search_locations])
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_UFUNCS] = module
    erf = getattr(module, "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


erf = _load_erf()

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # x * (0.5 (1 + erf)) equals 0.5 x (1 + erf) bit for bit; the backward reuses the cdf
    cdf = x / _SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def _gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    # cdf + x * pdf with pdf = exp(-0.5 x x) / sqrt(2 pi), in place
    grad = -0.5 * x
    grad *= x
    np.exp(grad, out=grad)
    grad *= _INV_SQRT_2PI
    grad *= x
    grad += cdf
    return grad


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
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
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
        if any(type(block) is not int for block in self.placement):
            raise ValueError(f"placement {self.placement} holds a block that is not an int")
        if self.placement != resolve_placement(config.num_blocks, self.placement):
            raise ValueError(f"placement {self.placement} is not sorted distinct blocks")
        P, d = len(self.placement), config.hidden_dim
        if self.w1.ndim != 4 or self.w1.shape[1:] != (P, self.adapter_dim, d):
            raise ValueError(f"bad w1 shape {self.w1.shape}, expected (K, {P}, r, {d})")
        if self.num_experts < 1 or self.adapter_dim < 1:
            raise ValueError("num_experts and adapter_dim must be positive")
        expected = (self.num_experts, P, d, self.adapter_dim)
        if self.w2.shape != expected:
            raise ValueError(f"bad w2 shape {self.w2.shape}, expected {expected}")

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
    return tuple(sorted(set(_placement_blocks(num_blocks, spec))))


def _placement_blocks(num_blocks: int, spec: str | Sequence[int]) -> Sequence[int]:
    """The checked blocks of a placement spec; "all" and "last:<m>" stay a range."""
    if isinstance(spec, str) and spec in ("all", "none"):
        return range(num_blocks if spec == "all" else 0)
    if isinstance(spec, str) and spec.startswith("last:"):
        m = int(spec[5:])
        if not 0 <= m <= num_blocks:
            raise ValueError(f"last:{m} out of range for {num_blocks} blocks")
        return range(num_blocks - m, num_blocks)
    blocks = tuple(int(b) for b in (spec.split(",") if isinstance(spec, str) else spec))
    if any(not 0 <= b < num_blocks for b in blocks):
        raise ValueError(f"block id out of range in placement {blocks}")
    return blocks


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
    """Sinusoidal features of times of any shape, along a new last axis."""
    ang = np.asarray(t, dtype=np.float64)[..., None] * _freqs(dim // 2)
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


@functools.lru_cache(maxsize=16)  # one entry per time_embed_dim in use
def _freqs(half: int) -> np.ndarray:
    freqs = np.exp(np.arange(half) * (math.log(1000.0) / max(half - 1, 1)))
    freqs.flags.writeable = False
    return freqs


def _route(
    state: ModelState, expert_ids, shape: tuple[int, int]
) -> tuple[np.ndarray | None, list[Slices]]:
    """The stable sort by expert of each row of a (steps, n) block of expert
    ids, and each routed expert's contiguous slice of each sorted row.
    Without adapters expert ids are ignored: no sort (None) and no slices."""
    if state.adapters is None:
        return None, [[] for _ in range(shape[0])]
    if expert_ids is None:
        raise ValueError("expert_ids required when adapters are attached")
    ids = np.asarray(expert_ids)
    if ids.shape != shape:
        raise ValueError(f"expert_ids shape {ids.shape}, expected {shape}")
    K = state.adapters.num_experts
    if ids.dtype.kind not in "iu" or np.any((ids < 0) | (ids >= K)):
        raise ValueError(f"expert ids {np.unique(ids)} out of range for {K} experts")
    counts = (ids[..., None] == np.arange(K)).sum(axis=1)
    slices = [[(k, slice(end - count, end)) for k, (count, end) in enumerate(zip(cs, es)) if count]
              for cs, es in zip(counts.tolist(), counts.cumsum(axis=1).tolist())]
    return np.argsort(ids, axis=1, kind="stable"), slices


def _segment_matmul(x: np.ndarray, weights: np.ndarray, slices: Slices) -> np.ndarray:
    """``x[rows] @ weights[k]`` per routed expert; the slices tile the rows."""
    if len(slices) == 1:
        return x @ weights[slices[0][0]]
    out = np.empty((len(x), weights.shape[2]))
    for k, rows in slices:
        np.matmul(x[rows], weights[k], out=out[rows])
    return out


def _embed(state: ModelState, X: np.ndarray, tau: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The input projection of rows of any leading shape."""
    p = state.backbone
    h = X @ p["w_in"].T
    h += tau @ p["w_time"].T
    h += C @ p["w_cond"].T
    h += p["b_in"]
    return h


def _forward(
    state: ModelState, X: np.ndarray, T: np.ndarray, C: np.ndarray, slices: Slices
) -> tuple[np.ndarray, dict]:
    """The batched forward over rows sorted by expert (see ``_route``): the
    velocity predictions and the cache ``_backward`` reads."""
    tau = time_features(T, state.config.time_embed_dim)
    return _run_blocks(state, _embed(state, X, tau, C), slices, {"X": X, "tau": tau, "C": C})


def _run_blocks(
    state: ModelState, h: np.ndarray, slices: Slices, cache: dict,
    first: int = 0, frozen_sum: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """``_forward`` from block ``first``'s input ``h`` on; ``cache`` holds the
    forward's inputs. ``frozen_sum`` is block ``first``'s h + F(h) if known."""
    p = state.backbone
    stack = state.adapters
    cache.update(h=[None] * first + [h], blocks=[{}] * first, slices=slices)
    for l in range(first, state.config.num_blocks):
        entry, f = {}, frozen_sum if l == first else None
        if f is None:
            entry["a"], entry["g"], entry["cdf"], f = _backbone_block(p, l, h)
        if stack is not None and l in stack.placement:
            j = stack.placement.index(l)
            act, _ = _ACTIVATIONS[stack.nonlinearity]
            y = _segment_matmul(h, stack.w1[:, j].transpose(0, 2, 1), slices)
            z, saved = act(y)
            entry.update(y=y, z=z, saved=saved)
            f = f + _segment_matmul(z, stack.w2[:, j].transpose(0, 2, 1), slices)
        h = f
        cache["blocks"].append(entry)
        cache["h"].append(h)
    out = h @ p["w_out"].T
    out += p["b_out"]
    return out, cache


def _backbone_block(p: dict[str, np.ndarray], l: int, h: np.ndarray):
    """Block l's backbone branch on rows of any leading shape: its
    pre-activation, GELU and cdf, and the residual sum h + F_l(h)."""
    a = h @ p[f"block{l}.v"].T
    a += p[f"block{l}.c"]
    g, cdf = _gelu(a)
    f = g @ p[f"block{l}.u"].T
    f += p[f"block{l}.e"]
    f += h
    return a, g, cdf, f


def _backward(
    state: ModelState,
    cache: dict,
    d_out: np.ndarray,
    backbone_grads: dict[str, np.ndarray] | None,
) -> dict[int, tuple[np.ndarray, ...]]:
    """Backpropagate ``d_out`` through one forward cache.

    Accumulates backbone gradients into ``backbone_grads`` when given;
    without them the pass stops at the lowest adapted block, below which
    nothing is read. Returns ``factors[j] = (dh_l, z_l, dy_l, h_in_l)`` for
    the adapted block l = ``placement[j]``. Row i's adapter gradients are the
    outer products dW2 = dh_l[i] z_l[i]^T and dW1 = dy_l[i] h_in_l[i]^T.
    """
    cfg = state.config
    p = state.backbone
    stack, slices = state.adapters, cache["slices"]
    placement = () if stack is None else stack.placement
    bottom = 0 if backbone_grads is not None else min(placement, default=cfg.num_blocks)

    h_last = cache["h"][-1]
    if backbone_grads is not None:
        backbone_grads["w_out"] += d_out.T @ h_last
        backbone_grads["b_out"] += d_out.sum(axis=0)
    dh = d_out @ p["w_out"]

    factors: dict[int, tuple[np.ndarray, ...]] = {}
    for l in reversed(range(bottom, cfg.num_blocks)):
        entry = cache["blocks"][l]
        h_in = cache["h"][l]
        if "y" in entry:
            j = stack.placement.index(l)
            _, act_grad = _ACTIVATIONS[stack.nonlinearity]
            dy = _segment_matmul(dh, stack.w2[:, j], slices)
            dy *= act_grad(entry["y"], entry["saved"])
            factors[j] = (dh, entry["z"], dy, h_in)
            if backbone_grads is None and l == bottom:
                break

        da = dh @ p[f"block{l}.u"]
        da *= _gelu_grad(entry["a"], entry["cdf"])
        if backbone_grads is not None:
            backbone_grads[f"block{l}.u"] += dh.T @ entry["g"]
            backbone_grads[f"block{l}.e"] += dh.sum(axis=0)
            backbone_grads[f"block{l}.v"] += da.T @ h_in
            backbone_grads[f"block{l}.c"] += da.sum(axis=0)
        dh_next = da @ p[f"block{l}.v"]
        dh_next += dh  # dh + dh_ff, then + dh_ad; dh itself may be an adapter factor
        if "y" in entry:
            dh_next += _segment_matmul(dy, stack.w1[:, j], slices)
        dh = dh_next

    if backbone_grads is not None:
        backbone_grads["w_in"] += dh.T @ cache["X"]
        backbone_grads["b_in"] += dh.sum(axis=0)
        backbone_grads["w_time"] += dh.T @ cache["tau"]
        backbone_grads["w_cond"] += dh.T @ cache["C"]
    return factors


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
    order, [slices] = _route(state, None if expert_ids is None else np.asarray(expert_ids)[None],
                             (1, len(X)))
    order = slice(None) if order is None else order[0]
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
    draws = _draws(rng_for(seed, "flow-loss"), len(batch.experts), state.config.data_dim,
                   cond_dropout)
    step = (*draws, batch.x, batch.cond, batch.experts)
    return _loss(state, _loss_inputs(state, *(np.asarray(a)[None] for a in step)), 0)


def _draws(rng: np.random.Generator, n: int, data_dim: int, cond_dropout: float):
    """One step's t, x0 and conditioning keep mask, drawn in that order; no
    mask is drawn without dropout."""
    t = rng.uniform(0.0, 1.0, size=n)
    x0 = rng.standard_normal((n, data_dim))
    if cond_dropout > 0.0:
        return t, x0, rng.uniform(0.0, 1.0, size=n) >= cond_dropout
    return t, x0, np.ones(n, dtype=bool)


@dataclass
class _Steps:
    """A block of B loss steps of n rows, each step's rows sorted by expert."""

    x_t: np.ndarray  # (B, n, data_dim)
    t: np.ndarray  # (B, n)
    cond: np.ndarray  # (B, n, cond_dim), dropped rows zeroed
    target: np.ndarray  # (B, n, data_dim)
    slices: list[Slices]
    # projected: the first adapted block, its input h and h + F(h)
    first: int = 0
    h: np.ndarray | None = None
    frozen_sum: np.ndarray | None = None


def _loss_inputs(
    state: ModelState, t, x0, keep, x1, cond, experts, project: bool = False
) -> _Steps:
    """What of a block of steps' losses reads no trained weight (see the
    module docstring), from their draws and batches stacked as (B, n, ...)
    arrays; the forward's frozen prefix only with ``project``."""
    if state.adapters is not None and not state.frozen:
        raise ContractViolationError(
            "adapter fine-tuning requires a frozen backbone; unfreeze only for "
            "the no-adapter full-training control"
        )
    x_t = (1.0 - t)[..., None] * x0 + t[..., None] * x1
    target = x1 - x0
    cond = np.where(keep[..., None], cond, 0.0)
    order, slices = _route(state, experts, t.shape)
    if order is not None:
        rows = np.arange(len(order))[:, None]
        x_t, t, cond, target = (a[rows, order] for a in (x_t, t, cond, target))
    steps = _Steps(x_t, t, cond, target, slices)
    if project:  # the last block stands in for the first adapted one if none is
        steps.first = min(state.adapters.placement, default=state.config.num_blocks - 1)
        steps.h = _embed(state, x_t, time_features(t, state.config.time_embed_dim), cond)
        for l in range(steps.first):
            steps.h = _backbone_block(state.backbone, l, steps.h)[3]
        steps.frozen_sum = _backbone_block(state.backbone, steps.first, steps.h)[3]
    return steps


def _loss(state: ModelState, steps: _Steps, b: int) -> tuple[float, LossGradients]:
    """Step b's loss and gradients, from the weights as they are now."""
    slices = steps.slices[b]
    if steps.h is None:
        resid, cache = _forward(state, steps.x_t[b], steps.t[b], steps.cond[b], slices)
    else:
        resid, cache = _run_blocks(state, steps.h[b], slices, {}, steps.first,
                                   steps.frozen_sum[b])
    resid -= steps.target[b]
    loss = float((resid * resid).sum() / resid.size)
    resid *= 2.0  # the loss's gradient, 2 resid / size
    resid /= resid.size

    backbone_grads = None if state.frozen else {
        name: np.zeros_like(arr) for name, arr in state.backbone.items()
    }
    factors = _backward(state, cache, resid, backbone_grads)
    stack = state.adapters
    grad_w1 = None if stack is None else np.zeros(stack.w1.shape)
    grad_w2 = None if stack is None else np.zeros(stack.w2.shape)
    for j, (dh, z, dy, h_in) in factors.items():
        for k, rows in slices:
            np.matmul(dh[rows].T, z[rows], out=grad_w2[k, j])
            np.matmul(dy[rows].T, h_in[rows], out=grad_w1[k, j])
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
    if not 0 <= guidance_scale < math.inf:  # NaN fails both comparisons
        raise ValueError(f"guidance_scale must be finite and >= 0, got {guidance_scale}")
    cond = np.asarray(cond, dtype=np.float64)
    if cond.shape != (state.config.cond_dim,):
        raise ValueError(f"cond shape {cond.shape}, expected ({state.config.cond_dim},)")
    # every row goes to one expert: a single slice, already in order
    _, [slices] = _route(state, None if expert_id is None else np.full((1, count), expert_id),
                         (1, count))
    x = rng_for(seed, "sample-noise").standard_normal((count, state.config.data_dim))
    null, c = np.zeros((count, len(cond))), np.tile(cond, (count, 1))
    dt = 1.0 / steps
    for i in range(steps):
        t = np.full(count, i / steps)
        # scales 0 and 1 must collapse exactly, not just up to rounding: one forward each
        if guidance_scale == 1.0:
            v = _forward(state, x, t, c, slices)[0]
        else:
            v = vu = _forward(state, x, t, null, slices)[0]
            if guidance_scale != 0.0:
                v = vu + guidance_scale * (_forward(state, x, t, c, slices)[0] - vu)
        x = x + dt * v
    return x


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
        factors = _backward(state, cache, d_out, None)
        offset = 0
        for j in range(len(state.adapters.placement)):
            dh, z, dy, h_in = factors[j]
            for grad in (np.einsum("ni,nj->nij", dy, h_in), np.einsum("ni,nj->nij", dh, z)):
                size = grad.shape[1] * grad.shape[2]  # grad[0] is absent when n = 0
                total[:, offset : offset + size] += grad.reshape(n, size)
                offset += size
    return total / len(t_draws)


def _checkpoint_arrays(state: ModelState) -> dict[str, np.ndarray]:
    stack = state.adapters
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(state.config),
        "frozen": state.frozen,
        "adapters": None if stack is None
        else {"placement": list(stack.placement), "nonlinearity": stack.nonlinearity},
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    arrays.update({f"backbone/{name}": arr for name, arr in state.backbone.items()})
    if stack is not None:
        arrays.update({"adapter/w1": stack.w1, "adapter/w2": stack.w2})
    return arrays


def save_checkpoint(state: ModelState, path: str | Path) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **_checkpoint_arrays(state))


def load_checkpoint(path: str | Path) -> ModelState:
    """The state ``save_checkpoint`` wrote, if writing that state gives back the
    ``meta`` blob byte for byte and float64 arrays of the writer's names and shapes,
    and ``AdapterStack.validate`` takes its adapters; else a ``ValueError`` naming the file."""
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            if meta["format_version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {meta['format_version']}")
            config = BackboneConfig(**meta["config"])  # TypeError on an unknown field
            state = ModelState(config, init_backbone(config, 0), frozen=bool(meta["frozen"]))
            if meta["adapters"] is not None:
                am = meta["adapters"]
                state.adapters = AdapterStack(tuple(am["placement"]), am["nonlinearity"],
                                              data["adapter/w1"], data["adapter/w2"])
                state.adapters.validate(config)
            written = _checkpoint_arrays(state)
            for name in sorted(written.keys() ^ set(data.files)):
                raise ValueError(f"array {name!r} is "
                                 + ("missing" if name in written else "not in this config"))
            if data["meta"].tobytes() != written["meta"].tobytes():
                raise ValueError(f"meta is not in the written form {bytes(written['meta'])!r}")
            for name, want in written.items():
                got = data[name]
                if name != "meta" and got.dtype != np.float64:
                    raise ValueError(f"array {name!r} has dtype {got.dtype}, expected float64")
                if got.shape != want.shape:
                    raise ValueError(f"array {name!r} has shape {got.shape}, "
                                     f"expected {want.shape}")
            state.backbone = {name: data[f"backbone/{name}"] for name in state.backbone}
            return state
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
