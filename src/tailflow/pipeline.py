"""The five experiment stages, their runs, and run comparison.

``STAGES`` holds the one body of each stage, in run order: datagen ->
partition -> train -> sample -> evaluate. ``run_pipeline`` runs them all
inside an output directory; ``run_stage`` runs one, reading its inputs from
that directory. Either way each finished stage is recorded in
``<out>/manifest.json`` (config hash, root seed, artifact names and content
hashes, wall-clock seconds), and a run is fully reproducible from (config,
root seed). Any stage failure raises ``StageError`` naming the stage;
artifacts written so far are retained.

A pre-training phase inside the train stage fits the backbone itself
(unfrozen, no adapters) and then freezes it, standing in for the large
pre-trained model that fine-tuning starts from.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, class_specs_from_config
from .datagen import Corpus, generate_corpus, label_embedding, load_corpus, save_corpus
from .errors import SchemaMismatchError, StageError
from .metrics import evaluate, load_features, save_samples
from .model import (
    BackboneConfig,
    ModelState,
    init_adapters,
    init_backbone,
    load_checkpoint,
    sample_batch,
    save_checkpoint,
)
from .partition import (
    Partition,
    bisecting_kmeans_partition,
    class_to_expert,
    composition_report,
    label_tier_partition,
    load_partition,
    random_partition,
    save_partition,
    single_partition,
)
from .seeding import derive_seed
from .training import ledger_json, pretrain_backbone, traces_csv, train

__all__ = [
    "RunManifest",
    "run_pipeline",
    "run_stage",
    "compare_runs",
    "build_partition",
    "pretrained_backbone",
    "ARTIFACTS",
]

MANIFEST_VERSION = 1

ARTIFACTS = {
    "datagen": ("train_corpus.txt", "test_corpus.txt"),
    "partition": ("partition.txt", "composition.json"),
    "train": ("checkpoint.npz", "ledger.json", "conflict_trace.csv"),
    "sample": ("generated.txt",),
    "evaluate": ("metrics.json", "metrics.csv"),
}


@dataclass
class RunManifest:
    config_hash: str
    root_seed: int
    stages: dict[str, dict] = field(default_factory=dict)
    out_dir: str = "."
    format_version: int = MANIFEST_VERSION

    def artifact(self, stage: str, name: str) -> Path:
        if stage not in self.stages:
            raise ValueError(f"{Path(self.out_dir, 'manifest.json')}: stage {stage!r} has not run")
        return Path(self.out_dir) / self.stages[stage]["artifacts"][name]

    def to_json(self) -> str:
        payload = {
            "format_version": self.format_version,
            "config_hash": self.config_hash,
            "root_seed": self.root_seed,
            "stages": self.stages,
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        path = Path(path)
        payload = json.loads(path.read_text())
        if payload["format_version"] != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {payload['format_version']}")
        return cls(
            config_hash=payload["config_hash"],
            root_seed=payload["root_seed"],
            stages=payload["stages"],
            out_dir=str(path.parent),
        )


def build_partition(corpus: Corpus, method: str, num_experts: int, seed: int) -> Partition:
    if method == "label-tier":
        return label_tier_partition(corpus, num_experts)
    if method == "embedding-kmeans":
        return bisecting_kmeans_partition(corpus, num_experts)
    if method == "random":
        return random_partition(corpus, num_experts, seed)
    if method == "single":
        return single_partition(corpus)
    raise ValueError(f"unknown partition method {method!r}")


@dataclass
class RunContext:
    """What a stage reads: the config, the run directory, the root seed, and
    whatever earlier stages of this process already made. A stage loads an
    input from ``out`` only when the context does not hold it."""

    cfg: ExperimentConfig
    out: Path
    root: int
    corpus: Corpus | None = None
    partition: Partition | None = None
    state: ModelState | None = None

    def train_corpus(self) -> Corpus:
        if self.corpus is None:
            self.corpus = load_corpus(self.out / "train_corpus.txt")
        return self.corpus

    def expert_partition(self) -> Partition:
        if self.partition is None:
            self.partition = load_partition(self.out / "partition.txt", self.train_corpus())
        return self.partition

    def trained_state(self) -> ModelState:
        if self.state is None:
            self.state = load_checkpoint(self.out / "checkpoint.npz")
        return self.state


def pretrained_backbone(cfg: ExperimentConfig, corpus: Corpus, root: int) -> ModelState:
    """The frozen base model: a backbone shaped by ``cfg`` and pre-trained on
    ``corpus``. The train stage fine-tunes it; analyze-conflicts probes it."""
    config = BackboneConfig(
        data_dim=cfg.corpus_dimension,
        hidden_dim=cfg.backbone_hidden_dim,
        num_blocks=cfg.backbone_blocks,
        cond_dim=cfg.corpus_embedding_dim,
        time_embed_dim=cfg.backbone_time_embed_dim,
    )
    state = ModelState(
        config=config,
        backbone=init_backbone(config, derive_seed(root, "backbone")),
        adapters=None,
        frozen=False,
    )
    return pretrain_backbone(
        state, corpus, cfg.train_pretrain_steps, cfg.train_batch_size,
        cfg.train_pretrain_lr, derive_seed(root, "pretrain"),
        cond_dropout=cfg.train_cond_dropout,
    )


# The stage bodies look the package functions up as module globals when
# called, so a caller that replaces ``pipeline.train`` (say) sees every call.


def _datagen(ctx: RunContext) -> None:
    # train and test corpora share the class profile, not draws
    cfg = ctx.cfg

    def split(name: str, size: int) -> Corpus:
        corpus = generate_corpus(
            class_specs_from_config(cfg, size), cfg.corpus_dimension,
            derive_seed(ctx.root, f"datagen-{name}"),
            cfg.corpus_embedding_dim, cfg.corpus_noise_scale,
        )
        save_corpus(corpus, ctx.out / f"{name}_corpus.txt")
        return corpus

    ctx.corpus = split("train", cfg.corpus_size)
    split("test", cfg.corpus_test_size)


def _partition(ctx: RunContext) -> None:
    cfg, corpus = ctx.cfg, ctx.train_corpus()
    part = build_partition(
        corpus, cfg.partition_method, cfg.partition_experts, derive_seed(ctx.root, "partition")
    )
    save_partition(part, ctx.out / "partition.txt")
    report = composition_report(part, corpus)
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    (ctx.out / "composition.json").write_text(text + "\n")
    ctx.partition = part


def _train(ctx: RunContext) -> None:
    cfg, root, out = ctx.cfg, ctx.root, ctx.out
    corpus, part = ctx.train_corpus(), ctx.expert_partition()
    state = pretrained_backbone(cfg, corpus, root)
    state.adapters = init_adapters(
        state.config, part.num_experts, cfg.adapter_dim, cfg.adapter_placement,
        cfg.adapter_nonlinearity, derive_seed(root, "adapters"),
    )
    trained, ledger, traces = train(
        state, corpus, part,
        steps=cfg.train_steps, batch_size=cfg.train_batch_size,
        resample=cfg.train_resample, lr=cfg.train_lr,
        seed=derive_seed(root, "train"), quota=cfg.train_quota,
        cond_dropout=cfg.train_cond_dropout, trace_interval=cfg.train_trace_interval,
    )
    save_checkpoint(trained, out / "checkpoint.npz")
    (out / "ledger.json").write_text(ledger_json(ledger))
    (out / "conflict_trace.csv").write_text(traces_csv(traces, part.num_experts))
    ctx.state = trained


def _sample(ctx: RunContext) -> None:
    cfg, corpus = ctx.cfg, ctx.train_corpus()
    experts = class_to_expert(ctx.expert_partition(), corpus)
    trained = ctx.trained_state()
    vectors = []
    classes = []
    for spec in corpus.classes:
        cond = label_embedding(
            spec.class_id, corpus.num_classes, corpus.seed, corpus.embedding_dim
        )
        xs = sample_batch(
            trained, cond, experts[spec.class_id], cfg.sample_guidance_scale,
            cfg.sample_steps, cfg.sample_per_class,
            derive_seed(ctx.root, "sample", spec.class_id),
        )
        vectors.append(xs)
        classes.extend([spec.class_id] * cfg.sample_per_class)
    save_samples(ctx.out / "generated.txt", np.vstack(vectors), np.array(classes))


def _evaluate(ctx: RunContext) -> None:
    out = ctx.out
    generated = load_features(out / "generated.txt", tag="generated")
    train_feats = load_features(out / "train_corpus.txt", tag="train")
    test_feats = load_features(out / "test_corpus.txt", tag="test")
    report = evaluate(generated, train_feats, test_feats, k=ctx.cfg.metrics_k)
    (out / "metrics.json").write_text(report.to_json())
    (out / "metrics.csv").write_text(report.to_csv())


# Run order; each stage writes exactly the files ARTIFACTS names for it.
STAGES = {
    "datagen": _datagen,
    "partition": _partition,
    "train": _train,
    "sample": _sample,
    "evaluate": _evaluate,
}


def _run(ctx: RunContext, manifest: RunManifest, name: str) -> None:
    started = time.perf_counter()
    try:
        STAGES[name](ctx)
    except Exception as exc:
        raise StageError(name, str(exc)) from exc
    names = ARTIFACTS[name]
    manifest.stages[name] = {
        "artifacts": {n: n for n in names},
        "sha256": {n: hashlib.sha256((ctx.out / n).read_bytes()).hexdigest() for n in names},
        "seconds": time.perf_counter() - started,
    }
    manifest.save(ctx.out / "manifest.json")


def _start(
    cfg: ExperimentConfig, out_dir: str | Path, seed: int | None
) -> tuple[RunContext, RunManifest]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    root = cfg.root_seed if seed is None else seed
    manifest = RunManifest(config_hash=cfg.hash(), root_seed=root, out_dir=str(out))
    return RunContext(cfg, out, root), manifest


def run_pipeline(
    cfg: ExperimentConfig, out_dir: str | Path, seed: int | None = None
) -> RunManifest:
    """Run every stage under ``out_dir`` into a fresh manifest; returns it."""
    ctx, manifest = _start(cfg, out_dir, seed)
    for name in STAGES:
        _run(ctx, manifest, name)
    return manifest


def run_stage(
    cfg: ExperimentConfig, out_dir: str | Path, name: str, seed: int | None = None
) -> RunManifest:
    """Run one stage, reading its inputs from ``out_dir``, and record it in
    that directory's manifest. A manifest made with another config or root
    seed is refused with ``StageError``."""
    ctx, manifest = _start(cfg, out_dir, seed)
    path = ctx.out / "manifest.json"
    if path.exists():
        recorded = RunManifest.load(path)
        if (recorded.config_hash, recorded.root_seed) != (manifest.config_hash, ctx.root):
            raise StageError(
                name,
                f"{path} records config {recorded.config_hash[:12]} and seed "
                f"{recorded.root_seed}; this run has config {manifest.config_hash[:12]} "
                f"and seed {ctx.root}",
            )
        manifest = recorded
    _run(ctx, manifest, name)
    return manifest


def compare_runs(manifests: list[RunManifest], labels: list[str] | None = None) -> str:
    """One CSV row per run: aggregate and macro metrics plus utilization gap."""
    if len(manifests) < 2:
        raise ValueError("need at least two manifests to compare")
    rows = []
    schema = None
    for idx, man in enumerate(manifests):
        metrics = json.loads(man.artifact("evaluate", "metrics.json").read_text())
        ledger = json.loads(man.artifact("train", "ledger.json").read_text())
        key = (metrics["format_version"], metrics["k"])
        if schema is None:
            schema = key
        elif key != schema:
            raise SchemaMismatchError(f"metric schema {key} differs from {schema}")
        label = labels[idx] if labels else Path(man.out_dir).name
        rows.append(
            [
                label,
                metrics["coverage"],
                metrics["irs_adjusted"],
                metrics["frechet"],
                metrics["macro"]["coverage"],
                metrics["macro"]["irs_adjusted"],
                metrics["macro"]["frechet"],
                ledger["gap"],
            ]
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "run",
            "coverage",
            "irs_adjusted",
            "frechet",
            "macro_coverage",
            "macro_irs_adjusted",
            "macro_frechet",
            "utilization_gap",
        ]
    )
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()
