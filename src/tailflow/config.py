"""Experiment configuration: a versioned, diff-able plain-text format.

One ``key = value`` assignment per line; dots nest sections
(``train.steps = 500``). Values are ints, floats, booleans, bare strings,
or comma-separated lists. ``#`` starts a comment. Two configs hash
identically exactly when their parsed content is identical, regardless of
key order or formatting.
"""

from __future__ import annotations

import hashlib
import operator
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .datagen import ClassSpec, chest_longtail_specs, tail8_specs
from .model import _ACTIVATIONS
from .partition import _METHODS

__all__ = [
    "CONFIG_VERSION",
    "parse_config_text",
    "canonical_config_text",
    "config_hash",
    "ExperimentConfig",
    "load_experiment_config",
    "class_specs_from_config",
]

CONFIG_VERSION = 1

# corpus.profile -> the class specs it builds from (size, dimension)
_PROFILES = {"chest-longtail": chest_longtail_specs, "tail8": tail8_specs}


def _parse_scalar(raw: str):
    raw = raw.strip()
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _int_value(key: str, value) -> int:
    # int(value) would truncate 2.9 to 2 and turn true into 1
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key}: expected an integer, got {value!r}")
    return value


def _float_value(key: str, value) -> float:
    # float(value) would turn true into 1.0 and not name the key of a bad string
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key}: expected a number, got {value!r}")
    return float(value)


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_parse_scalar(part) for part in raw.split(",") if part.strip() != ""]
    return _parse_scalar(raw)


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_render_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_text(text: str) -> dict[str, object]:
    """Flat dict of dotted keys to parsed values."""
    result: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in result:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        result[key] = _parse_value(raw)
    return result


def canonical_config_text(flat: dict[str, object]) -> str:
    return "".join(f"{key} = {_render_value(flat[key])}\n" for key in sorted(flat))


def config_hash(flat: dict[str, object]) -> str:
    return hashlib.sha256(canonical_config_text(flat).encode("utf-8")).hexdigest()


@dataclass
class ExperimentConfig:
    """Typed view of a full experiment; every field round-trips losslessly."""

    seeds: list[int] = field(default_factory=lambda: [0])

    corpus_profile: str = "chest-longtail"
    corpus_size: int = 2000
    corpus_test_size: int = 1000
    corpus_dimension: int = 2
    corpus_embedding_dim: int = 16
    corpus_noise_scale: float = 0.05

    partition_method: str = "label-tier"
    partition_experts: int = 4

    backbone_hidden_dim: int = 32
    backbone_blocks: int = 2
    backbone_time_embed_dim: int = 8

    adapter_dim: int = 16
    adapter_placement: str = "all"
    adapter_nonlinearity: str = "gelu"

    train_pretrain_steps: int = 300
    train_pretrain_lr: float = 0.01
    train_steps: int = 500
    train_batch_size: int = 8
    train_lr: float = 0.02
    train_resample: bool = False
    train_quota: int = 3
    train_cond_dropout: float = 0.1
    train_trace_interval: int = 0

    sample_steps: int = 16
    sample_guidance_scale: float = 5.0
    sample_per_class: int = 50

    metrics_k: int = 5

    explicit_classes: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_flat(cls, flat: dict[str, object]) -> "ExperimentConfig":
        version = flat.get("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {version}")
        cfg = cls()
        for key, value in flat.items():
            if key == "version":
                continue
            if key.startswith("class."):
                cfg.explicit_classes[key] = value
                continue
            if key not in _KEYS:
                raise ValueError(f"unknown config key {key!r}")
            attr = _KEYS[key]
            if attr == "seeds":
                values = value if isinstance(value, list) else [value]
                cfg.seeds = [_int_value(key, v) for v in values]
            else:
                current = getattr(cfg, attr)
                if isinstance(current, bool):
                    if not isinstance(value, bool):
                        raise ValueError(f"{key}: expected true/false, got {value!r}")
                    setattr(cfg, attr, value)
                elif isinstance(current, int):
                    setattr(cfg, attr, _int_value(key, value))
                elif isinstance(current, float):
                    setattr(cfg, attr, _float_value(key, value))
                else:
                    setattr(cfg, attr, str(value))
        cfg.validate()
        return cfg

    def to_flat(self) -> dict[str, object]:
        flat: dict[str, object] = {"version": CONFIG_VERSION, "seeds": list(self.seeds)}
        for key, attr in _KEYS.items():
            if key == "seeds":
                continue
            flat[key] = getattr(self, attr)
        flat.update(self.explicit_classes)
        return flat

    def to_text(self) -> str:
        return canonical_config_text(self.to_flat())

    def hash(self) -> str:
        return config_hash(self.to_flat())

    @property
    def root_seed(self) -> int:
        return self.seeds[0]

    def validate(self) -> None:
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        for op, bound, keys in _BOUNDS:
            for key in keys:
                value = getattr(self, _KEYS[key])
                if not _COMPARE[op](value, bound):  # nan fails every comparison
                    raise ValueError(f"{key}: must be {op} {bound}, got {value!r}")
        for key in self.explicit_classes:
            if not _CLASS_KEY.fullmatch(key):
                raise ValueError(f"{key}: expected class.<int >= 0>.<mean|scale|count|healthy>")
        if self.train_quota > self.train_batch_size:
            raise ValueError("train.quota exceeds train.batch_size")
        if self.partition_method not in _METHODS:
            raise ValueError(f"partition.method: unknown method {self.partition_method!r}")
        if self.adapter_nonlinearity not in _ACTIVATIONS:
            raise ValueError(f"adapter.nonlinearity: unknown {self.adapter_nonlinearity!r}")
        if not self.explicit_classes and self.corpus_profile not in _PROFILES:
            raise ValueError(f"corpus.profile: unknown profile {self.corpus_profile!r}")


# dotted config key -> field name: the field name with its first "_" as "."
_KEYS = {
    f.name.replace("_", ".", 1): f.name
    for f in fields(ExperimentConfig)
    if f.name != "explicit_classes"
}

# the bounds of the numeric keys: (comparison, bound, the keys it applies to)
_BOUNDS = (
    (">=", 1, ("corpus.size", "corpus.test_size", "corpus.dimension", "corpus.embedding_dim",
               "partition.experts", "backbone.hidden_dim", "backbone.blocks",
               "backbone.time_embed_dim", "adapter.dim", "train.batch_size", "sample.steps",
               "sample.per_class", "metrics.k")),
    (">=", 0, ("corpus.noise_scale", "train.pretrain_steps", "train.steps", "train.quota",
               "train.trace_interval", "train.cond_dropout", "sample.guidance_scale")),
    ("<=", 1, ("train.cond_dropout",)),
    (">", 0, ("train.lr", "train.pretrain_lr")),
)
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}

# an explicit class key: class.<id>.<attribute>, with a canonical decimal id
_CLASS_KEY = re.compile(r"class\.(0|[1-9][0-9]*)\.(mean|scale|count|healthy)")


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    return ExperimentConfig.from_flat(parse_config_text(Path(path).read_text()))


def class_specs_from_config(cfg: ExperimentConfig, total: int | None = None) -> list[ClassSpec]:
    """Class specs from a named profile or explicit ``class.<id>.*`` keys."""
    total = cfg.corpus_size if total is None else total
    if cfg.explicit_classes:
        by_id: dict[int, dict[str, object]] = {}
        for key, value in cfg.explicit_classes.items():
            _, cid, attr = key.split(".", 2)
            by_id.setdefault(int(cid), {})[attr] = value
        specs = []
        for cid in sorted(by_id):
            entry = by_id[cid]
            missing = [attr for attr in ("mean", "scale", "count") if attr not in entry]
            if missing:
                raise ValueError(f"class.{cid}.{missing[0]}: required key missing")
            mean = entry["mean"]
            mean = tuple(
                _float_value(f"class.{cid}.mean", m)
                for m in (mean if isinstance(mean, list) else [mean])
            )
            healthy = entry.get("healthy", False)
            if not isinstance(healthy, bool):
                raise ValueError(f"class.{cid}.healthy: expected true/false, got {healthy!r}")
            specs.append(
                ClassSpec(
                    class_id=cid,
                    mean=mean,
                    scale=_float_value(f"class.{cid}.scale", entry["scale"]),
                    count=_int_value(f"class.{cid}.count", entry["count"]),
                    is_healthy=healthy,
                )
            )
        return specs
    if cfg.corpus_profile not in _PROFILES:
        raise ValueError(f"corpus.profile: unknown profile {cfg.corpus_profile!r}")
    return _PROFILES[cfg.corpus_profile](total, cfg.corpus_dimension)
