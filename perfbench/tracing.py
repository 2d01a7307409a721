"""Per-layer spans recorded from outside the package.

``Tracer.install()`` replaces each function in ``WRAPPED`` with a wrapper
under the name its caller looks up (``tailflow.pipeline.train`` is what
``run_pipeline`` calls, ``tailflow.training.flow_matching_loss`` what the
train loop calls). Each call records a span: name, start, end and parent.
Spans stay in memory; ``finish_iteration()`` reduces one iteration's spans
to the per-layer figures and ``dump()`` writes them all out at the end.
Nothing inside the package changes.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "pipeline", "datagen", "partition", "model", "training", "seeding", "metrics")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(pos, name):
    return lambda args, kwargs, result: {
        "datagen.io.bytes": os.path.getsize(_arg(args, kwargs, pos, name))
    }


def _rows(key, pos, name):
    def count(args, kwargs, result):
        x = _arg(args, kwargs, pos, name)
        return {key: len(x) if getattr(x, "ndim", 2) > 1 else 1}

    return count


def _corpus_samples(args, kwargs, result):
    return {"datagen.generate_corpus.samples": len(result)}


# (module, attribute, counter or None, measure allocation peak)
WRAPPED = [
    ("tailflow.cli", "main", None, False),
    ("tailflow.cli", "run_pipeline", None, False),
    ("tailflow.pipeline", "generate_corpus", _corpus_samples, False),
    ("tailflow.pipeline", "save_corpus", _file_bytes(1, "path"), False),
    ("tailflow.pipeline", "build_partition", None, False),
    ("tailflow.pipeline", "bisecting_kmeans_partition", None, True),
    ("tailflow.pipeline", "label_tier_partition", None, False),
    ("tailflow.pipeline", "random_partition", None, False),
    ("tailflow.pipeline", "single_partition", None, False),
    ("tailflow.pipeline", "pretrain_backbone", None, False),
    ("tailflow.pipeline", "train", None, False),
    ("tailflow.pipeline", "sample_batch", None, False),
    ("tailflow.pipeline", "save_samples", _file_bytes(0, "path"), False),
    ("tailflow.pipeline", "load_features", _file_bytes(0, "path"), False),
    ("tailflow.pipeline", "evaluate", None, True),
    ("tailflow.datagen", "generate_corpus", _corpus_samples, False),
    ("tailflow.partition", "label_tier_partition", None, False),
    ("tailflow.partition", "single_partition", None, False),
    ("tailflow.training", "assemble_batch", None, False),
    ("tailflow.training", "flow_matching_loss",
     lambda a, k, r: {"model.flow_matching_loss.rows": len(_arg(a, k, 1, "batch").samples)},
     False),
    ("tailflow.training", "sgd_step", None, False),
    ("tailflow.training", "derive_seed", None, False),
    ("tailflow.training", "per_sample_probe_gradients",
     _rows("model.per_sample_probe_gradients.rows", 1, "x1"), False),
    ("tailflow.training", "train", None, False),
    ("tailflow.training", "pretrain_backbone", None, False),
    ("tailflow.training", "measure_conflict_reduction", None, False),
    ("tailflow.model", "model_forward", _rows("model.model_forward.rows", 1, "X"), False),
    ("tailflow.model", "sample_batch", None, False),
    ("tailflow.metrics", "evaluate", None, True),
    ("tailflow.metrics", "coverage", None, False),
    ("tailflow.metrics", "knn_radii", None, False),
    ("tailflow.metrics", "irs", None, False),
    ("tailflow.metrics", "irs_adjusted", None, False),
    ("tailflow.metrics", "frechet_distance", None, False),
    ("tailflow.metrics", "_distance_matrix",
     lambda a, k, r: {"metrics.distance_pairs": len(a[0]) * len(a[1])}, False),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.finished: list[list[tuple[str, float, float, int]]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for modname, attr, counter, peak in WRAPPED:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, counter, peak))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def finish_iteration(self) -> dict[str, float]:
        """Per-layer figures of the spans recorded since the last call; the
        spans are kept for ``dump()``."""
        figures = self._layer_metrics()
        self.finished.append(list(self.spans))
        self.spans.clear()
        self.counts.clear()
        self.peaks.clear()
        return figures

    def _wrap(self, fn, counter, peak):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack, counts, peaks = self.spans, self._stack, self.counts, self.peaks
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            tracing_mem = peak and not tracemalloc.is_tracing()
            if tracing_mem:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if tracing_mem:
                    top = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    peaks[name] = max(peaks[name], top / 1e6)
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    counts[key] += n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _layer_metrics(self) -> dict[str, float]:
        total = defaultdict(float)
        calls = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        train_self = 0.0
        train_steps = 0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            self_time[name.split(".", 1)[0]] += end - start - child[idx]
            if name == "training.train":
                train_self += end - start - child[idx]
            elif name == "model.flow_matching_loss" and parent >= 0 \
                    and self.spans[parent][0] == "training.train":
                train_steps += 1

        def per_call_us(name):
            return 1e6 * total[name] / calls[name] if calls[name] else 0.0

        forward_rows = self.counts["model.model_forward.rows"]
        io_names = ("datagen.save_corpus", "metrics.load_features", "metrics.save_samples")
        out = {
            "datagen.generate_corpus.s": total["datagen.generate_corpus"],
            "datagen.generate_corpus.samples": self.counts["datagen.generate_corpus.samples"],
            "datagen.io.s": sum(total[n] for n in io_names),
            "datagen.io.bytes": self.counts["datagen.io.bytes"],
            "partition.bisecting_kmeans_partition.s": total["partition.bisecting_kmeans_partition"],
            "partition.bisecting_kmeans_partition.peak_mb":
                self.peaks["partition.bisecting_kmeans_partition"],
            "training.train.s": total["training.train"],
            "training.steps_per_s":
                train_steps / total["training.train"] if total["training.train"] else 0.0,
            "training.pretrain_backbone.s": total["training.pretrain_backbone"],
            "training.assemble_batch.us": per_call_us("training.assemble_batch"),
            "training.assemble_batch.calls": calls["training.assemble_batch"],
            "training.loop_other_us": 1e6 * train_self / train_steps if train_steps else 0.0,
            "training.measure_conflict_reduction.s": total["training.measure_conflict_reduction"],
            "seeding.derive_seed.us": per_call_us("seeding.derive_seed"),
            "seeding.derive_seed.calls": calls["seeding.derive_seed"],
            "model.flow_matching_loss.us": per_call_us("model.flow_matching_loss"),
            "model.flow_matching_loss.calls": calls["model.flow_matching_loss"],
            "model.flow_matching_loss.rows": self.counts["model.flow_matching_loss.rows"],
            "model.sgd_step.us": per_call_us("model.sgd_step"),
            "model.sample_batch.s": total["model.sample_batch"],
            "model.model_forward.us": per_call_us("model.model_forward"),
            "model.model_forward.calls": calls["model.model_forward"],
            "model.model_forward.rows_per_call":
                forward_rows / calls["model.model_forward"] if calls["model.model_forward"] else 0.0,
            "model.per_sample_probe_gradients.s": total["model.per_sample_probe_gradients"],
            "model.per_sample_probe_gradients.rows":
                self.counts["model.per_sample_probe_gradients.rows"],
            "metrics.evaluate.s": total["metrics.evaluate"],
            "metrics.evaluate.peak_mb": self.peaks["metrics.evaluate"],
            "metrics.knn_radii.s": total["metrics.knn_radii"],
            "metrics.coverage.s": total["metrics.coverage"],
            "metrics.irs.s": total["metrics.irs"],
            "metrics.frechet_distance.s": total["metrics.frechet_distance"],
            "metrics.distance_pairs": self.counts["metrics.distance_pairs"],
        }
        out.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
        return out

    def dump(self, path: Path) -> None:
        """Write the spans of every finished iteration, one JSON object a
        line; ``parent`` indexes the same iteration's spans (-1: none)."""
        with open(path, "w") as fh:
            for iteration, spans in enumerate(self.finished):
                for name, start, end, parent in spans:
                    fh.write(json.dumps({"iteration": iteration, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
