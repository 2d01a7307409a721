"""Fine-tuning loop, expert-aware batch assembly, and conflict probes.

Batches are uniform draws from the corpus; with resampling enabled, the
last ``quota`` slots are replaced by round-robin draws from expert clusters
so that every non-empty expert is represented each step. Priority goes to
experts missing from the current batch, then to those with the lowest
cumulative utilization (ties to the lowest expert id); an empty cluster's
turn is skipped with a warning. The guarantee that each batch covers all
experts is structural whenever quota >= K - 1 (the default 3 with K = 4).

Gradient-conflict instrumentation measures per-sample loss gradients in the
parameter space of one shared probe adapter, so gradients from different
samples are comparable; per-expert parameter spaces would be disjoint and
the comparison vacuous. All samples share the same (t, noise) probe draws.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .datagen import Corpus, SampleRecord
from .errors import ContractViolationError
from .model import (
    ModelState,
    flow_matching_loss,
    init_adapters,
    per_sample_probe_gradients,
    sgd_step,
)
from .partition import (
    ConflictScore,
    Partition,
    _cluster_conflict,
    _cluster_conflicts,
    _normalized_rows,
)
from .seeding import derive_seed, rng_for

__all__ = [
    "TrainBatch",
    "UtilizationLedger",
    "ConflictTrace",
    "assemble_batch",
    "train",
    "pretrain_backbone",
    "measure_conflict_reduction",
    "ledger_json",
    "traces_csv",
]

LEDGER_VERSION = 1


@dataclass
class TrainBatch:
    samples: list[tuple[SampleRecord, int]]
    resampled_flags: list[bool]
    batch_size: int

    def __post_init__(self):
        if len(self.samples) != self.batch_size or len(self.resampled_flags) != self.batch_size:
            raise ValueError("batch fields misaligned with batch_size")

    def expert_ids(self) -> np.ndarray:
        return np.array([k for _, k in self.samples], dtype=np.int64)


@dataclass
class UtilizationLedger:
    per_expert_counts: dict[int, int]
    total: int = 0

    @classmethod
    def empty(cls, num_experts: int) -> "UtilizationLedger":
        return cls(per_expert_counts={k: 0 for k in range(num_experts)}, total=0)

    def add(self, expert_ids: np.ndarray) -> None:
        for k in expert_ids:
            self.per_expert_counts[int(k)] += 1
        self.total += len(expert_ids)

    def percentages(self) -> dict[int, float]:
        if self.total == 0:
            return {k: 0.0 for k in self.per_expert_counts}
        return {k: 100.0 * n / self.total for k, n in self.per_expert_counts.items()}

    def gap(self) -> float:
        pct = list(self.percentages().values())
        return max(pct) - min(pct)


@dataclass
class ConflictTrace:
    step: int
    per_cluster_conflict: list[float]
    cross_cluster_conflict: float


def assemble_batch(
    corpus: Corpus,
    partition: Partition,
    batch_size: int,
    resample: bool = False,
    quota: int = 3,
    rng: np.random.Generator | None = None,
    ledger: UtilizationLedger | None = None,
) -> TrainBatch:
    """Draw one batch; see the module docstring for the resampling rule."""
    if rng is None:
        raise ValueError("assemble_batch needs an explicit Generator")
    n = len(corpus)
    K = partition.num_experts
    if not resample:
        idx = rng.integers(0, n, size=batch_size)
        samples = [(corpus.samples[i], int(partition.assignments[i])) for i in idx]
        return TrainBatch(samples=samples, resampled_flags=[False] * batch_size,
                          batch_size=batch_size)

    if batch_size < K:
        raise ValueError(f"resampling needs batch_size >= K ({batch_size} < {K})")
    if quota > batch_size:
        raise ValueError("quota exceeds batch size")

    base = batch_size - quota
    idx = list(rng.integers(0, n, size=base))
    batch_counts = {k: 0 for k in range(K)}
    for i in idx:
        batch_counts[int(partition.assignments[i])] += 1

    cumulative = ledger.per_expert_counts if ledger is not None else {k: 0 for k in range(K)}
    clusters = {k: partition.members(k) for k in range(K)}
    # priority: absent-from-batch first, then least cumulative use, then id
    order = sorted(range(K), key=lambda k: (batch_counts[k], cumulative.get(k, 0), k))

    flags = [False] * base
    pos = 0
    filled = 0
    skipped = 0
    while filled < quota:
        k = order[pos % K]
        pos += 1
        if len(clusters[k]) == 0:
            skipped += 1
            if skipped >= K:  # every cluster empty is impossible; quota turn exhausted
                warnings.warn("round-robin found only empty clusters", RuntimeWarning)
                break
            warnings.warn(f"round-robin skipped empty expert cluster {k}", RuntimeWarning)
            continue
        skipped = 0
        members = clusters[k]
        idx.append(int(members[rng.integers(0, len(members))]))
        flags.append(True)
        filled += 1

    samples = [(corpus.samples[i], int(partition.assignments[i])) for i in idx]
    return TrainBatch(samples=samples, resampled_flags=flags, batch_size=len(samples))


def _probe_state(backbone_state: ModelState, seed: int, probe_dim: int = 8) -> ModelState:
    """Frozen backbone plus one shared probe adapter on the last block.

    Both projections are drawn non-zero so the loss actually depends on them.
    """
    cfg = backbone_state.config
    stack = init_adapters(
        cfg, num_experts=1, adapter_dim=probe_dim,
        placement="last:1", nonlinearity="gelu", seed=derive_seed(seed, "probe-w1"),
    )
    rng = rng_for(seed, "probe-w2")
    for p in stack.params.values():
        p.w2 = rng.standard_normal(p.w2.shape) / np.sqrt(p.w2.shape[1])
    return ModelState(config=cfg, backbone=backbone_state.backbone, adapters=stack, frozen=True)


def _probe_draws(cfg_data_dim: int, seed: int, num_draws: int) -> tuple[np.ndarray, np.ndarray]:
    rng = rng_for(seed, "probe-draws")
    t = rng.uniform(0.05, 0.95, size=num_draws)
    x0 = rng.standard_normal((num_draws, cfg_data_dim))
    return t, x0


def _gradient_rows(
    probe: ModelState, corpus: Corpus, sample_ids: np.ndarray,
    t_draws: np.ndarray, x0_draws: np.ndarray,
    cache: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    missing = [int(s) for s in sample_ids if cache is None or s not in cache]
    if missing:
        x1 = np.stack([corpus.samples[s].x for s in missing])
        cond = np.stack([corpus.samples[s].embedding for s in missing])
        rows = per_sample_probe_gradients(probe, x1, cond, t_draws, x0_draws)
        if cache is None:
            return rows
        for s, row in zip(missing, rows):
            cache[s] = row
    return np.stack([cache[int(s)] for s in sample_ids])


def _conflict_trace(
    probe: ModelState, corpus: Corpus, partition: Partition, step: int,
    probe_size: int, t_draws: np.ndarray, x0_draws: np.ndarray, seed: int,
) -> ConflictTrace:
    chosen: list[np.ndarray] = []
    for k in range(partition.num_experts):
        members = partition.members(k)
        if len(members) >= 2:
            take = min(probe_size, len(members))
            sel = rng_for(seed, "trace-members", step, k).choice(members, size=take, replace=False)
            chosen.append(np.sort(sel))
        else:
            chosen.append(members)
    all_ids = np.concatenate([c for c in chosen if len(c)]) if chosen else np.array([], int)
    unit = _normalized_rows(
        _gradient_rows(probe, corpus, all_ids, t_draws, x0_draws), "probe gradient"
    )
    # all_ids lists the chosen members cluster by cluster
    blocks = np.split(unit, np.cumsum([len(c) for c in chosen])[:-1])
    per_cluster = [_cluster_conflict(b) for b in blocks]
    # cross-cluster pairs are all pairs minus within-cluster pairs
    all_pairs = len(unit) * (len(unit) - 1) / 2
    within = [len(b) * (len(b) - 1) / 2 for b in blocks]
    cross = 0.0
    if all_pairs > sum(within):
        cross_sum = all_pairs * _cluster_conflict(unit) - np.dot(within, per_cluster)
        cross = float(np.clip(cross_sum / (all_pairs - sum(within)), 0.0, 2.0))
    return ConflictTrace(step=step, per_cluster_conflict=per_cluster, cross_cluster_conflict=cross)


def train(
    state: ModelState,
    corpus: Corpus,
    partition: Partition,
    steps: int,
    batch_size: int,
    resample: bool,
    lr: float,
    seed: int,
    quota: int = 3,
    cond_dropout: float = 0.1,
    trace_interval: int = 0,
    trace_probe_size: int = 6,
    probe_draws: int = 4,
) -> tuple[ModelState, UtilizationLedger, list[ConflictTrace]]:
    """SGD fine-tuning of the adapters over a frozen backbone.

    Deterministic per (corpus, partition, config, seed): final parameters,
    ledger, and traces are bit-reproducible. Conflict traces are recorded
    every ``trace_interval`` steps (0 disables them).
    """
    if not state.frozen:
        raise ContractViolationError("train() requires a frozen backbone")
    if state.adapters is None:
        raise ContractViolationError("train() requires initialized adapters")
    state = ModelState(
        config=state.config,
        backbone=state.backbone,
        adapters=copy.deepcopy(state.adapters),
        frozen=True,
    )
    ledger = UtilizationLedger.empty(partition.num_experts)
    traces: list[ConflictTrace] = []

    probe = None
    t_draws = x0_draws = None
    if trace_interval > 0:
        probe = _probe_state(state, derive_seed(seed, "trace-probe"))
        t_draws, x0_draws = _probe_draws(
            state.config.data_dim, derive_seed(seed, "trace-draws"), probe_draws
        )

    rng = rng_for(seed, "batches")
    for step in range(steps):
        batch = assemble_batch(corpus, partition, batch_size, resample, quota, rng, ledger)
        _, grads = flow_matching_loss(
            state, batch, seed=derive_seed(seed, "loss", step), cond_dropout=cond_dropout
        )
        sgd_step(state, grads, lr)
        ledger.add(batch.expert_ids())
        if trace_interval > 0 and (step + 1) % trace_interval == 0:
            traces.append(
                _conflict_trace(
                    probe, corpus, partition, step + 1, trace_probe_size,
                    t_draws, x0_draws, derive_seed(seed, "trace"),
                )
            )
    return state, ledger, traces


def pretrain_backbone(
    state: ModelState,
    corpus: Corpus,
    steps: int,
    batch_size: int,
    lr: float,
    seed: int,
    cond_dropout: float = 0.1,
) -> ModelState:
    """Full (unfrozen, adapter-free) training of the backbone itself; the
    result is frozen and serves as the pre-trained base for fine-tuning."""
    if state.adapters is not None:
        raise ContractViolationError("pretraining runs without adapters")
    work = ModelState(
        config=state.config,
        backbone={k: v.copy() for k, v in state.backbone.items()},
        adapters=None,
        frozen=False,
    )
    from .partition import single_partition

    part = single_partition(corpus)
    rng = rng_for(seed, "batches")
    for step in range(steps):
        batch = assemble_batch(corpus, part, batch_size, False, 0, rng, None)
        _, grads = flow_matching_loss(
            work, batch, seed=derive_seed(seed, "loss", step), cond_dropout=cond_dropout
        )
        sgd_step(work, grads, lr)
    work.frozen = True
    return work


def measure_conflict_reduction(
    state: ModelState,
    corpus: Corpus,
    partitions: list[Partition],
    probe_size: int = 8,
    seed: int = 0,
    probe_draws: int = 8,
) -> list[ConflictScore]:
    """Within-cluster gradient conflict for each partition, in the shared
    probe-adapter space. Returns one score per input partition (same order).

    Per cluster, up to ``probe_size`` members are drawn; gradients are cached
    by sample id, so identical samples appearing under several partitions
    contribute identical gradient rows and the scores are comparable.
    """
    probe = _probe_state(state, derive_seed(seed, "probe"))
    t_draws, x0_draws = _probe_draws(
        state.config.data_dim, derive_seed(seed, "draws"), probe_draws
    )
    cache: dict[int, np.ndarray] = {}
    scores: list[ConflictScore] = []
    for pidx, part in enumerate(partitions):
        blocks: list[np.ndarray] = []
        for k in range(part.num_experts):
            members = part.members(k)
            if len(members) < 2:
                blocks.append(members)  # fewer than two rows: value 0, no pairs
                continue
            take = min(probe_size, len(members))
            sel = np.sort(
                rng_for(seed, "select", pidx, k).choice(members, size=take, replace=False)
            )
            rows = _gradient_rows(probe, corpus, sel, t_draws, x0_draws, cache)
            blocks.append(_normalized_rows(rows, "probe gradient"))
        scores.append(_cluster_conflicts(blocks))
    return scores


def ledger_json(ledger: UtilizationLedger) -> str:
    payload = {
        "format_version": LEDGER_VERSION,
        "per_expert_counts": {str(k): n for k, n in sorted(ledger.per_expert_counts.items())},
        "total": ledger.total,
        "percent": {str(k): v for k, v in sorted(ledger.percentages().items())},
        "gap": ledger.gap(),
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def traces_csv(traces: list[ConflictTrace], num_experts: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step"] + [f"cluster_{k}" for k in range(num_experts)] + ["cross_cluster"])
    for tr in traces:
        writer.writerow(
            [tr.step]
            + [repr(v) for v in tr.per_cluster_conflict]
            + [repr(tr.cross_cluster_conflict)]
        )
    return buf.getvalue()
