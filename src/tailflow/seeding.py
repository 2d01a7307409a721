"""Deterministic seed derivation.

All randomness in a run flows from one root seed. Child streams are derived
by hashing string/int labels into extra SeedSequence entropy words, so each
stage (and each sample, class, step, ...) gets an independent, reproducible
stream: ``rng_for(root, "train")``, ``rng_for(root, "embed", sample_id)``.
Changing any label or the root changes the stream; nothing else does.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = ["child_seed_sequence", "rng_for", "derive_seed"]


@functools.lru_cache(maxsize=256)  # the program's string labels are a few dozen names
def _str_word(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _label_word(label: str | int) -> int:
    if isinstance(label, bool):
        raise TypeError("bool labels are ambiguous; use int or str")
    if isinstance(label, int):
        if label < 0:
            raise ValueError(f"negative label {label}")
        return label
    return _str_word(label)


def child_seed_sequence(root: int, *labels: str | int) -> np.random.SeedSequence:
    """SeedSequence for the stream named by ``labels`` under ``root``."""
    if root < 0:
        raise ValueError(f"root seed must be non-negative, got {root}")
    return np.random.SeedSequence([root] + [_label_word(lab) for lab in labels])


def rng_for(root: int, *labels: str | int) -> np.random.Generator:
    """Fresh Generator for the stream named by ``labels`` under ``root``."""
    return np.random.default_rng(child_seed_sequence(root, *labels))


def derive_seed(root: int, *labels: str | int) -> int:
    """Collapse a child stream to a single integer seed (for APIs taking ints)."""
    return int(child_seed_sequence(root, *labels).generate_state(1, np.uint64)[0] >> 1)
