"""Fine-tuning loop, expert-aware batch assembly, and conflict probes.

Batches are uniform draws from the corpus; with resampling enabled, the
last ``quota`` slots are replaced by round-robin draws from expert clusters
so that every non-empty expert is represented each step. Priority goes to
experts missing from the current batch, then to those with the lowest
cumulative utilization (ties to the lowest expert id); an empty cluster's
turn is skipped with a warning. The guarantee that each batch covers all
experts is structural whenever quota >= K - 1 (the default 3 with K = 4).

Conflict probes measure per-sample loss gradients in the parameter space of
one shared probe adapter at shared (t, noise) draws, so the gradients of
different samples are comparable; per-expert spaces would be disjoint.
Training traces and ``measure_conflict_reduction`` select each cluster's
probed members by one rule and take their gradients in one call per
cluster, with no cache.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .datagen import Corpus
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
    single_partition,
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

# conflict probes: the probe adapter's width and the (t, noise) draws each
# gradient is averaged over; traces in training use fewer members and draws
PROBE_DIM = 8
PROBE_DRAWS = 8
TRACE_PROBE_SIZE = 6
TRACE_PROBE_DRAWS = 4


@dataclass
class TrainBatch:
    """Row i is corpus sample ``samples[i]``, routed to ``experts[i]``; ``x``
    and ``cond`` hold that sample's data row and embedding."""

    samples: np.ndarray  # (n,) int64 corpus row indices
    experts: np.ndarray  # (n,) int64 expert ids
    resampled_flags: np.ndarray  # (n,) bool
    x: np.ndarray  # (n, dimension)
    cond: np.ndarray  # (n, embedding_dim)

    @classmethod
    def gather(
        cls, corpus: Corpus, partition: Partition, samples, resampled_flags
    ) -> "TrainBatch":
        idx = np.asarray(samples, dtype=np.int64)
        return cls(idx, partition.assignments[idx], np.asarray(resampled_flags, dtype=bool),
                   corpus.x[idx], corpus.embeddings[idx])


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
        return TrainBatch.gather(corpus, partition, idx, np.zeros(batch_size, dtype=bool))

    if batch_size < K:
        raise ValueError(f"resampling needs batch_size >= K ({batch_size} < {K})")
    if quota > batch_size:
        raise ValueError("quota exceeds batch size")

    base = batch_size - quota
    drawn = rng.integers(0, n, size=base)
    batch_counts = np.bincount(partition.assignments[drawn], minlength=K)

    cumulative = ledger.per_expert_counts if ledger is not None else {k: 0 for k in range(K)}
    clusters = {k: partition.members(k) for k in range(K)}
    # priority: absent-from-batch first, then least cumulative use, then id
    order = sorted(range(K), key=lambda k: (batch_counts[k], cumulative.get(k, 0), k))

    extra: list[int] = []
    pos = 0
    skipped = 0
    while len(extra) < quota:
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
        extra.append(int(members[rng.integers(0, len(members))]))

    idx = np.concatenate([drawn, np.array(extra, dtype=np.int64)])
    return TrainBatch.gather(corpus, partition, idx, np.arange(len(idx)) >= base)


def _probe(
    backbone_state: ModelState, seed: int, draws_seed: int, num_draws: int
) -> tuple[ModelState, np.ndarray, np.ndarray]:
    """Frozen backbone plus one shared probe adapter on the last block, and
    the (t, noise) draws that every probed sample shares.

    Both projections are drawn non-zero so the loss actually depends on them.
    """
    cfg = backbone_state.config
    stack = init_adapters(
        cfg, num_experts=1, adapter_dim=PROBE_DIM,
        placement="last:1", nonlinearity="gelu", seed=derive_seed(seed, "probe-w1"),
    )
    stack.w2 = rng_for(seed, "probe-w2").standard_normal(stack.w2.shape) / np.sqrt(PROBE_DIM)
    probe = ModelState(config=cfg, backbone=backbone_state.backbone, adapters=stack, frozen=True)
    rng = rng_for(draws_seed, "probe-draws")
    t = rng.uniform(0.05, 0.95, size=num_draws)
    return probe, t, rng.standard_normal((num_draws, cfg.data_dim))


def _probe_blocks(
    probe: ModelState, corpus: Corpus, partition: Partition, probe_size: int,
    t_draws: np.ndarray, x0_draws: np.ndarray, seed: int, *labels,
) -> list[np.ndarray]:
    """Unit probe-gradient rows of each cluster's probed members, by expert.

    Cluster k probes up to ``probe_size`` members drawn without replacement
    from ``rng_for(seed, *labels, k)``, in sorted order; a cluster with fewer
    than two members probes them all. One gradient call per cluster.
    """
    if probe_size < 2:
        raise ValueError(f"probe_size must be >= 2 to form a pair, got {probe_size}")
    blocks = []
    for k in range(partition.num_experts):
        ids = partition.members(k)
        if len(ids) >= 2:
            take = min(probe_size, len(ids))
            ids = np.sort(rng_for(seed, *labels, k).choice(ids, size=take, replace=False))
        rows = per_sample_probe_gradients(
            probe, corpus.x[ids], corpus.embeddings[ids], t_draws, x0_draws
        )
        blocks.append(_normalized_rows(rows, "probe gradient"))
    return blocks


def _conflict_trace(
    probe: ModelState, corpus: Corpus, partition: Partition, step: int,
    probe_size: int, t_draws: np.ndarray, x0_draws: np.ndarray, seed: int,
) -> ConflictTrace:
    blocks = _probe_blocks(
        probe, corpus, partition, probe_size, t_draws, x0_draws, seed, "trace-members", step
    )
    within = _cluster_conflicts(blocks)
    unit = np.concatenate(blocks)
    # cross-cluster pairs are all pairs minus within-cluster pairs
    all_pairs = len(unit) * (len(unit) - 1) // 2
    cross = 0.0
    if all_pairs > within.pair_count:
        cross_sum = all_pairs * _cluster_conflict(unit) - within.overall * within.pair_count
        cross = float(np.clip(cross_sum / (all_pairs - within.pair_count), 0.0, 2.0))
    return ConflictTrace(step, within.per_cluster, cross)


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
    state = replace(state, adapters=copy.deepcopy(state.adapters))
    ledger = UtilizationLedger.empty(partition.num_experts)
    traces: list[ConflictTrace] = []

    if trace_interval > 0:
        probe, t_draws, x0_draws = _probe(
            state, derive_seed(seed, "trace-probe"), derive_seed(seed, "trace-draws"),
            TRACE_PROBE_DRAWS,
        )

    rng = rng_for(seed, "batches")
    for step in range(steps):
        batch = assemble_batch(corpus, partition, batch_size, resample, quota, rng, ledger)
        loss, grads = flow_matching_loss(
            state, batch, seed=derive_seed(seed, "loss", step), cond_dropout=cond_dropout
        )
        if not math.isfinite(loss):
            raise FloatingPointError(f"fine-tuning diverged: loss {loss!r} at step {step}")
        sgd_step(state, grads, lr)
        ledger.add(batch.experts)
        if trace_interval > 0 and (step + 1) % trace_interval == 0:
            traces.append(
                _conflict_trace(
                    probe, corpus, partition, step + 1, TRACE_PROBE_SIZE,
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
    work = replace(state, backbone={k: v.copy() for k, v in state.backbone.items()}, frozen=False)
    part = single_partition(corpus)
    rng = rng_for(seed, "batches")
    for step in range(steps):
        batch = assemble_batch(corpus, part, batch_size, False, 0, rng, None)
        loss, grads = flow_matching_loss(
            work, batch, seed=derive_seed(seed, "loss", step), cond_dropout=cond_dropout
        )
        if not math.isfinite(loss):
            raise FloatingPointError(f"pretraining diverged: loss {loss!r} at step {step}")
        sgd_step(work, grads, lr)
    work.frozen = True
    return work


def measure_conflict_reduction(
    state: ModelState,
    corpus: Corpus,
    partitions: list[Partition],
    probe_size: int = 8,
    seed: int = 0,
) -> list[ConflictScore]:
    """Within-cluster gradient conflict for each partition, in the shared
    probe-adapter space. Returns one score per input partition (same order).

    Per cluster, up to ``probe_size`` (at least 2) members are probed. Every
    partition shares the probe adapter and its (t, noise) draws, so the scores
    are comparable, and a score depends only on its own partition, its
    position in ``partitions`` and ``seed``.
    """
    probe, t_draws, x0_draws = _probe(
        state, derive_seed(seed, "probe"), derive_seed(seed, "draws"), PROBE_DRAWS
    )
    return [
        _cluster_conflicts(
            _probe_blocks(probe, corpus, part, probe_size, t_draws, x0_draws, seed, "select", pidx)
        )
        for pidx, part in enumerate(partitions)
    ]


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
