"""The three benchmark workloads: inputs, one operation, and its output check.

Each workload is built from a seed, a size ("full" for measurement, "tiny"
for the smoke check) and a scratch directory. ``run()`` is the timed
operation; ``check()`` validates its output and raises ``CheckFailed``. The
first checked output is the reference every later repeat with the same seed
must match.

Every call into tailflow goes through a module attribute looked up at call
time (``training.train(...)``), so the tracer's wrappers see these calls the
same way they see the package's own calls.
"""

from __future__ import annotations

import json
import math
import shutil
import warnings
from pathlib import Path

import numpy as np

import tailflow.cli as cli
import tailflow.datagen as datagen
import tailflow.metrics as metrics
import tailflow.model as model
import tailflow.partition as partition
import tailflow.pipeline as pipeline
import tailflow.training as training
from tailflow.config import ExperimentConfig, class_specs_from_config
from tailflow.seeding import derive_seed

# Tolerance between repeats of the conflict scores (ROADMAP item 2).
CONFLICT_TOL = 1e-12


class CheckFailed(Exception):
    """An operation's output failed its check."""


def _strict_json(text: str):
    def reject(token):
        raise CheckFailed(f"non-finite JSON value {token}")

    return json.loads(text, parse_constant=reject)


class PipelineDefault:
    """``tailflow pipeline`` on the default ExperimentConfig: the typical user
    run, and the only workload with file I/O, config parsing and manifest
    hashing."""

    name = "pipeline-default"

    def __init__(self, seed: int, size: str, workdir: Path):
        cfg = ExperimentConfig()
        if size == "tiny":
            cfg = ExperimentConfig(
                corpus_size=200, corpus_test_size=120, train_pretrain_steps=60,
                train_steps=50, sample_per_class=6, sample_steps=8, metrics_k=3,
            )
        self.seed = seed
        self.workdir = workdir
        self.config_path = workdir / "experiment.cfg"
        self.config_path.write_text(cfg.to_text())
        self.reference: bytes | None = None
        self.runs = 0
        self.out: Path | None = None

    def run(self):
        self.runs += 1
        self.out = self.workdir / f"run-{self.runs}"
        argv = ["pipeline", "--config", str(self.config_path), "--seed", str(self.seed),
                "--out", str(self.out)]
        return cli.main(argv)

    def check(self, code) -> dict:
        try:
            if code != 0:
                raise CheckFailed(f"tailflow pipeline exited with {code}")
            raw = (self.out / "metrics.json").read_bytes()
            report = _strict_json(raw.decode())
            values = [report["coverage"], report["macro"]["coverage"]]
            values += [row["coverage"] for row in report["per_class"].values()]
            if not all(0.0 <= v <= 1.0 for v in values):
                raise CheckFailed("coverage outside [0, 1]")
            if self.reference is None:
                self.reference = raw
            elif raw != self.reference:
                raise CheckFailed("metrics.json differs from the first run with this seed")
            stages = json.loads((self.out / "manifest.json").read_text())["stages"]
            return {f"pipeline.{s}_s": stages[s]["seconds"] for s in pipeline.ARTIFACTS}
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    @staticmethod
    def fault():
        """Wrap evaluate so the report it returns has an impossible coverage."""
        real = pipeline.evaluate

        def broken(*args, **kwargs):
            report = real(*args, **kwargs)
            report.coverage = 1.5
            return report

        pipeline.evaluate = broken


class Tail8ExpertsVsSingle:
    """Criterion 8's experts-vs-single comparison for one seed, rebuilt from
    the public API: fine-tune steps, guided sampling and evaluate dominate,
    with no partition search and no disk I/O."""

    name = "tail8-experts-vs-single"

    SIZES = {
        # corpus, pretrain steps, fine-tune steps, samples per class, Euler steps
        "full": (2000, 100, 2000, 200, 32),
        "tiny": (200, 20, 50, 10, 4),
    }

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.corpus_size, self.pretrain_steps, self.steps, self.per_class, self.euler = (
            self.SIZES[size]
        )
        self.cfg = model.BackboneConfig(
            data_dim=2, hidden_dim=32, num_blocks=2, cond_dim=16, time_embed_dim=8
        )

    def run(self):
        seed, cfg = self.seed, self.cfg
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            corpus = datagen.generate_corpus(
                datagen.tail8_specs(self.corpus_size), 2, seed=derive_seed(seed, "corpus")
            )
            test = datagen.generate_corpus(
                datagen.tail8_specs(self.corpus_size), 2, seed=derive_seed(seed, "test")
            )
            base = model.ModelState(
                config=cfg, backbone=model.init_backbone(cfg, derive_seed(seed, "bb")),
                adapters=None, frozen=False,
            )
            base = training.pretrain_backbone(
                base, corpus, self.pretrain_steps, 8, 0.01, derive_seed(seed, "pre")
            )
            arms = {}
            for arm, (experts, width) in {"experts": (4, 8), "single": (1, 32)}.items():
                if experts == 1:
                    part = partition.single_partition(corpus)
                else:
                    part = partition.label_tier_partition(corpus, experts)
                st = model.ModelState(
                    config=cfg, backbone=base.backbone,
                    adapters=model.init_adapters(cfg, experts, width, "all", "gelu",
                                                 derive_seed(seed, "ad")),
                    frozen=True,
                )
                trained, _, _ = training.train(
                    st, corpus, part, steps=self.steps, batch_size=8, resample=False,
                    lr=0.03, seed=derive_seed(seed, "tr"),
                )
                c2e = partition.class_to_expert(part, corpus)
                vecs, cls = [], []
                for spec in corpus.classes:
                    cond = datagen.label_embedding(spec.class_id, 8, corpus.seed, 16)
                    vecs.append(model.sample_batch(
                        trained, cond, c2e[spec.class_id], 3.0, self.euler, self.per_class,
                        derive_seed(seed, "s", spec.class_id),
                    ))
                    cls.extend([spec.class_id] * self.per_class)
                gen = _features(np.vstack(vecs), "generated", np.array(cls))
                train_feats = _features(corpus.x_matrix(), "train", corpus.class_ids())
                test_feats = _features(test.x_matrix(), "test", test.class_ids())
                report = metrics.evaluate(gen, train_feats, test_feats, k=5)
                arms[arm] = (st.adapters.parameter_count(), report)
        return arms

    def check(self, arms) -> dict:
        if arms["experts"][0] != arms["single"][0]:
            raise CheckFailed("the two arms have different adapter parameter counts")
        for arm, (_, report) in arms.items():
            try:
                json.dumps(report.to_json_dict(), allow_nan=False)
            except ValueError as exc:
                raise CheckFailed(f"{arm} report is not finite") from exc
            if report.irs_adjusted is None or report.frechet is None:
                raise CheckFailed(f"{arm} report lacks an aggregate value")
        return {}

    @staticmethod
    def fault():
        """Wrap evaluate so its report carries a NaN."""
        real = metrics.evaluate

        def broken(*args, **kwargs):
            report = real(*args, **kwargs)
            report.irs_adjusted = math.nan
            return report

        metrics.evaluate = broken


def _features(vectors, tag, classes):
    return metrics.FeatureSet(vectors, np.arange(len(vectors)), tag, classes)


class Conflicts6k:
    """``tailflow analyze-conflicts`` in-process on a 6000-sample corpus:
    bisecting k-means and per-sample probe gradients dominate, while the
    sampler and evaluate are bypassed."""

    name = "conflicts-6k"

    SIZES = {
        # corpus, pretrain steps, probe size
        "full": (6000, 100, 64),
        "tiny": (300, 20, 8),
    }
    METHODS = (("embedding-kmeans", 8), ("random", 8), ("label-tier", 4), ("single", 1))

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        corpus_size, pretrain_steps, self.probe_size = self.SIZES[size]
        self.cfg = ExperimentConfig(corpus_size=corpus_size, train_pretrain_steps=pretrain_steps)
        self.reference: list[list[float]] | None = None

    def run(self):
        cfg, root = self.cfg, self.seed
        corpus = datagen.generate_corpus(
            class_specs_from_config(cfg), cfg.corpus_dimension,
            derive_seed(root, "datagen-train"), cfg.corpus_embedding_dim,
            cfg.corpus_noise_scale,
        )
        bb = model.BackboneConfig(
            data_dim=cfg.corpus_dimension, hidden_dim=cfg.backbone_hidden_dim,
            num_blocks=cfg.backbone_blocks, cond_dim=cfg.corpus_embedding_dim,
            time_embed_dim=cfg.backbone_time_embed_dim,
        )
        state = model.ModelState(
            config=bb, backbone=model.init_backbone(bb, derive_seed(root, "backbone")),
            adapters=None, frozen=False,
        )
        state = training.pretrain_backbone(
            state, corpus, cfg.train_pretrain_steps, cfg.train_batch_size,
            cfg.train_pretrain_lr, derive_seed(root, "pretrain"),
            cond_dropout=cfg.train_cond_dropout,
        )
        parts = [
            pipeline.build_partition(corpus, method, k, derive_seed(root, method))
            for method, k in self.METHODS
        ]
        return training.measure_conflict_reduction(
            state, corpus, parts, probe_size=self.probe_size, seed=derive_seed(root, "conflict")
        )

    def check(self, scores) -> dict:
        values = [[s.overall] + list(s.per_cluster) for s in scores]
        if not all(0.0 <= v <= 2.0 for row in values for v in row):
            raise CheckFailed("conflict score outside [0, 2]")
        if self.reference is None:
            self.reference = values
        elif [len(r) for r in values] != [len(r) for r in self.reference] or any(
            abs(a - b) > CONFLICT_TOL
            for row, ref in zip(values, self.reference) for a, b in zip(row, ref)
        ):
            raise CheckFailed("conflict scores differ from the first run with this seed")
        return {}

    @staticmethod
    def fault():
        """Wrap the conflict measurement so one score leaves [0, 2]."""
        real = training.measure_conflict_reduction

        def broken(*args, **kwargs):
            scores = real(*args, **kwargs)
            scores[0].overall = 2.5
            return scores

        training.measure_conflict_reduction = broken


WORKLOADS = {w.name: w for w in (PipelineDefault, Tail8ExpertsVsSingle, Conflicts6k)}
