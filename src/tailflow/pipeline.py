"""The five experiment stages, their runs, and run comparison.

``STAGES`` holds the one body of each stage, in run order: datagen ->
partition -> train -> sample -> evaluate. ``run_pipeline`` runs them all
inside an output directory; ``run_stage`` runs one, reading its inputs from
that directory. Either way each finished stage is recorded in
``<out>/manifest.json`` (config hash, root seed, the sha256 of each
artifact, wall-clock seconds), and a run is fully reproducible from (config,
root seed). Any stage failure raises ``StageError`` naming the stage;
artifacts written so far are retained.

The train and sample stages write out the run recipe: ``pretrained_backbone``
fits the backbone itself (unfrozen, no adapters) and freezes it, standing in
for a large pre-trained model; ``fine_tune`` and ``sample_classes`` follow.
Their seeds are arguments, so each caller keeps its own seed labels.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, class_specs_from_config
from .datagen import (
    ClassSpec,
    Corpus,
    _unit_class_vector,
    generate_corpus,
    load_corpus,
    save_corpus,
)
from .errors import SchemaMismatchError, StageError
from .metrics import FeatureSet, evaluate, load_features, save_samples
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
from .training import (
    ConflictTrace,
    UtilizationLedger,
    ledger_json,
    pretrain_backbone,
    traces_csv,
    train,
)

__all__ = [
    "RunManifest",
    "run_pipeline",
    "run_stage",
    "open_run",
    "compare_runs",
    "build_partition",
    "pretrained_backbone",
    "fine_tune",
    "sample_classes",
    "ARTIFACTS",
]

MANIFEST_VERSION = 2

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

    def read_artifact(self, stage: str, name: str) -> bytes:
        """The artifact's bytes, checked against the sha256 recorded for it."""
        path = Path(self.out_dir, "manifest.json")
        if stage not in self.stages:
            raise ValueError(f"{path}: stage {stage!r} has not run")
        data = (Path(self.out_dir) / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != self.stages[stage]["sha256"][name]:
            raise ValueError(f"{path}: {name} does not match its recorded sha256")
        return data

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
        """The manifest saved at ``path``; a ``ValueError`` naming the file if
        it is not a JSON object, lacks a key, has another format version or
        has a stage entry that no run writes."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())  # JSONDecodeError is a ValueError
            if not isinstance(payload, dict):
                raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
            if payload["format_version"] != MANIFEST_VERSION:
                raise ValueError(f"unsupported manifest version {payload['format_version']!r}")
            manifest = cls(payload["config_hash"], payload["root_seed"], payload["stages"],
                           out_dir=str(path.parent))
            _check_stages(manifest.stages)
            return manifest
        except KeyError as exc:
            raise ValueError(f"{path}: missing key {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


_DIGEST = re.compile("[0-9a-f]{64}")


def _keys(value: object) -> list[str] | str:
    """A JSON object's sorted keys, or the type name of any other value."""
    return sorted(value) if isinstance(value, dict) else type(value).__name__


def _check_stages(stages: object) -> None:
    """Refuse a ``stages`` map other than the one ``_run`` writes: per finished
    stage, ``sha256`` holding a digest of each of its ``ARTIFACTS``, and ``seconds``."""
    if not isinstance(stages, dict):
        raise ValueError(f"stages: expected an object, got {_keys(stages)}")
    for name, entry in stages.items():
        if name not in ARTIFACTS:
            raise ValueError(f"stage {name!r}: not one of {', '.join(ARTIFACTS)}")
        if _keys(entry) != ["seconds", "sha256"]:
            raise ValueError(f"stage {name!r}: expected keys ['seconds', 'sha256'], "
                             f"got {_keys(entry)}")
        digests, seconds = entry["sha256"], entry["seconds"]
        if _keys(digests) != sorted(ARTIFACTS[name]):
            raise ValueError(f"stage {name!r}: sha256: expected keys "
                             f"{sorted(ARTIFACTS[name])}, got {_keys(digests)}")
        for artifact, digest in digests.items():
            if not isinstance(digest, str) or not _DIGEST.fullmatch(digest):
                raise ValueError(f"stage {name!r}: sha256: {artifact}: expected 64 lowercase "
                                 f"hex digits, got {digest!r}")
        # json.loads reads NaN, which save would then refuse after the stage has run
        if type(seconds) is not int and not (type(seconds) is float and math.isfinite(seconds)):
            raise ValueError(f"stage {name!r}: seconds: expected a finite number, "
                             f"got {seconds!r}")


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
    test: Corpus | None = None
    partition: Partition | None = None
    state: ModelState | None = None
    generated: FeatureSet | None = None

    def train_corpus(self) -> Corpus:
        if self.corpus is None:
            self.corpus = load_corpus(self.out / "train_corpus.txt")
        return self.corpus

    def test_corpus(self) -> Corpus:
        if self.test is None:
            self.test = load_corpus(self.out / "test_corpus.txt")
        return self.test

    def expert_partition(self) -> Partition:
        if self.partition is None:
            self.partition = load_partition(self.out / "partition.txt", self.train_corpus())
        return self.partition

    def trained_state(self) -> ModelState:
        if self.state is None:
            self.state = load_checkpoint(self.out / "checkpoint.npz")
        return self.state

    def generated_features(self) -> FeatureSet:
        if self.generated is None:
            self.generated = load_features(self.out / "generated.txt", tag="generated")
        return self.generated


# The recipe and the stage bodies look the package functions up as module globals
# when called, so a caller that replaces ``pipeline.train`` (say) sees every call.


def pretrained_backbone(
    cfg: ExperimentConfig, corpus: Corpus, init_seed: int, seed: int
) -> ModelState:
    """The frozen base model: a backbone shaped by ``cfg``, drawn from
    ``init_seed`` and pre-trained on ``corpus`` under ``seed``. The train
    stage fine-tunes it; analyze-conflicts probes it."""
    config = BackboneConfig(
        data_dim=cfg.corpus_dimension,
        hidden_dim=cfg.backbone_hidden_dim,
        num_blocks=cfg.backbone_blocks,
        cond_dim=cfg.corpus_embedding_dim,
        time_embed_dim=cfg.backbone_time_embed_dim,
    )
    state = ModelState(
        config=config,
        backbone=init_backbone(config, init_seed),
        adapters=None,
        frozen=False,
    )
    return pretrain_backbone(
        state, corpus, cfg.train_pretrain_steps, cfg.train_batch_size,
        cfg.train_pretrain_lr, seed, cond_dropout=cfg.train_cond_dropout,
    )


def fine_tune(
    cfg: ExperimentConfig, base: ModelState, corpus: Corpus, part: Partition,
    init_seed: int, seed: int,
) -> tuple[ModelState, UtilizationLedger, list[ConflictTrace]]:
    """``cfg``'s adapters, one per expert of ``part`` drawn from ``init_seed``, trained
    under ``seed`` over ``base``'s frozen backbone; ``base`` itself is left as it was."""
    adapters = init_adapters(
        base.config, part.num_experts, cfg.adapter_dim, cfg.adapter_placement, seed=init_seed
    )
    return train(
        ModelState(config=base.config, backbone=base.backbone, adapters=adapters, frozen=True),
        corpus, part, steps=cfg.train_steps, batch_size=cfg.train_batch_size,
        resample=cfg.train_resample, lr=cfg.train_lr, seed=seed, quota=cfg.train_quota,
        cond_dropout=cfg.train_cond_dropout, trace_interval=cfg.train_trace_interval,
    )


def sample_classes(
    cfg: ExperimentConfig, state: ModelState, corpus: Corpus, part: Partition,
    counts: list[int], root: int, label: str,
) -> tuple[np.ndarray, np.ndarray]:
    """``counts[i]`` rows of class ``corpus.classes[i]`` from its expert, guided by its unit
    vector under ``derive_seed(root, label, class_id)``; returns the rows and their class ids."""
    experts = class_to_expert(part, corpus)
    rows = [
        sample_batch(
            state, _unit_class_vector(spec.class_id, corpus.seed, corpus.embedding_dim),
            experts[spec.class_id], cfg.sample_guidance_scale, cfg.sample_steps, count,
            derive_seed(root, label, spec.class_id),
        )
        for spec, count in zip(corpus.classes, counts)
    ]
    return np.vstack(rows), np.repeat([spec.class_id for spec in corpus.classes], counts)


def _datagen(ctx: RunContext) -> None:
    # train and test corpora share the class profile, not draws
    cfg = ctx.cfg

    def split(name: str, specs: list[ClassSpec]) -> Corpus:
        corpus = generate_corpus(
            specs, cfg.corpus_dimension, derive_seed(ctx.root, f"datagen-{name}"),
            cfg.corpus_embedding_dim, cfg.corpus_noise_scale,
        )
        save_corpus(corpus, ctx.out / f"{name}_corpus.txt")
        return corpus

    ctx.corpus = split("train", class_specs_from_config(cfg))
    ctx.test = split("test", class_specs_from_config(cfg, cfg.corpus_test_size))


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
    base = pretrained_backbone(cfg, corpus, derive_seed(root, "backbone"),
                               derive_seed(root, "pretrain"))
    trained, ledger, traces = fine_tune(
        cfg, base, corpus, part, derive_seed(root, "adapters"), derive_seed(root, "train")
    )
    save_checkpoint(trained, out / "checkpoint.npz")
    (out / "ledger.json").write_text(ledger_json(ledger))
    (out / "conflict_trace.csv").write_text(traces_csv(traces, part.num_experts))
    ctx.state = trained


def _sample(ctx: RunContext) -> None:
    cfg, corpus, part = ctx.cfg, ctx.train_corpus(), ctx.expert_partition()
    rows, classes = sample_classes(
        cfg, ctx.trained_state(), corpus, part, [cfg.sample_per_class] * corpus.num_classes,
        ctx.root, "sample",
    )
    save_samples(ctx.out / "generated.txt", rows, classes)
    # the rows load_features would read back: records round-trip through repr
    ctx.generated = FeatureSet(rows, np.arange(len(rows)), "generated", classes)


def _features(corpus: Corpus, tag: str) -> FeatureSet:
    return FeatureSet(corpus.x_matrix(), np.arange(len(corpus)), tag, corpus.class_ids())


def _evaluate(ctx: RunContext) -> None:
    out = ctx.out
    report = evaluate(
        ctx.generated_features(),
        _features(ctx.train_corpus(), "train"), _features(ctx.test_corpus(), "test"),
        k=ctx.cfg.metrics_k,
    )
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


def _sha256(path: Path) -> str:
    """The file's sha256, read a chunk at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def _run(ctx: RunContext, manifest: RunManifest, name: str) -> None:
    started = time.perf_counter()
    try:
        STAGES[name](ctx)
    except Exception as exc:
        raise StageError(name, str(exc)) from exc
    manifest.stages[name] = {
        "sha256": {n: _sha256(ctx.out / n) for n in ARTIFACTS[name]},
        "seconds": time.perf_counter() - started,
    }
    manifest.save(ctx.out / "manifest.json")


def _start(
    cfg: ExperimentConfig, out_dir: str | Path, seed: int | None
) -> tuple[RunContext, RunManifest]:
    root = cfg.seed if seed is None else seed
    if root < 0:  # before the output directory is made
        raise ValueError(f"seed: must be >= 0, got {root}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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


def open_run(
    cfg: ExperimentConfig, out_dir: str | Path, name: str, seed: int | None = None
) -> tuple[RunContext, RunManifest]:
    """The context and manifest of the run in ``out_dir``, for step ``name``
    to read from. A manifest made with another config or root seed is
    refused with ``StageError``."""
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
    return ctx, manifest


def run_stage(
    cfg: ExperimentConfig, out_dir: str | Path, name: str, seed: int | None = None
) -> RunManifest:
    """Run one stage on the run in ``out_dir`` (see ``open_run``) and record it."""
    ctx, manifest = open_run(cfg, out_dir, name, seed)
    _run(ctx, manifest, name)
    return manifest


# the metrics.json fields a comparison row reports, aggregate and macro
_COMPARED = ("coverage", "irs_adjusted", "frechet")


def compare_runs(manifests: list[RunManifest], labels: list[str] | None = None) -> str:
    """One CSV row per run: aggregate and macro metrics plus utilization gap,
    labelled by ``labels`` (one per manifest) or else by run directory name.
    Each artifact read is first checked against its manifest's sha256."""
    if len(manifests) < 2:
        raise ValueError("need at least two manifests to compare")
    if labels is not None and len(labels) != len(manifests):
        raise ValueError(f"{len(labels)} labels for {len(manifests)} manifests")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["run", *_COMPARED, *(f"macro_{f}" for f in _COMPARED), "utilization_gap"])
    schema = None
    for idx, man in enumerate(manifests):
        metrics = json.loads(man.read_artifact("evaluate", "metrics.json"))
        ledger = json.loads(man.read_artifact("train", "ledger.json"))
        key = (metrics["format_version"], metrics["k"])
        if schema is None:
            schema = key
        elif key != schema:
            raise SchemaMismatchError(f"metric schema {key} differs from {schema}")
        label = Path(man.out_dir).name if labels is None else labels[idx]
        row = [label, *(metrics[f] for f in _COMPARED)]
        row += [*(metrics["macro"][f] for f in _COMPARED), ledger["gap"]]
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()
