"""Deterministic seed derivation.

All randomness in a run flows from one root seed. Child streams are derived
by hashing string/int labels into extra SeedSequence entropy words, so each
stage (and each sample, class, step, ...) gets an independent, reproducible
stream: ``rng_for(root, "train")``, ``rng_for(root, "embed", sample_id)``.
Changing any label or the root changes the stream; nothing else does.

One stream goes through numpy's ``SeedSequence``: ``rng_for``,
``derive_seed`` and ``child_seed_sequence``. Many streams that differ only in
a last int label, one per sample or per train step, go through ``rngs_for``
and ``derive_seeds``; many that differ only in their root, one per train
step's loss seed, go through ``rngs_for_roots``. These run SeedSequence's
``mix_entropy`` and ``generate_state`` (O'Neill's ``seed_seq``: fixed uint32
arithmetic) on a whole block of ``BLOCK`` entropy rows in one numpy pass, so
each row gets exactly the stream that ``rng_for`` and ``derive_seed`` give
it; the single-stream functions are the tests' oracle.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from collections.abc import Iterable, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["child_seed_sequence", "rng_for", "derive_seed", "rngs_for", "derive_seeds",
           "rngs_for_roots", "BLOCK"]

BLOCK = 1024  # rows per pass of the batched path; it holds a few arrays of this length

# SeedSequence's pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF


@functools.lru_cache(maxsize=256)  # the program's string labels are a few dozen names
def _str_word(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _label_word(label: str | int) -> int:
    if isinstance(label, bool):
        raise TypeError("bool labels are ambiguous; use int or str")
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"negative label {label}")
        return int(label)
    if not isinstance(label, str):
        raise TypeError(f"label {label!r} is neither an int nor a str")
    return _str_word(label)


def _entropy(root: int, labels: tuple[str | int, ...]) -> list[int]:
    if root < 0:
        raise ValueError(f"root seed must be non-negative, got {root}")
    return [root] + [_label_word(lab) for lab in labels]


def child_seed_sequence(root: int, *labels: str | int) -> np.random.SeedSequence:
    """SeedSequence for the stream named by ``labels`` under ``root``."""
    return np.random.SeedSequence(_entropy(root, labels))


def rng_for(root: int, *labels: str | int) -> np.random.Generator:
    """Fresh Generator for the stream named by ``labels`` under ``root``."""
    return np.random.default_rng(child_seed_sequence(root, *labels))


def derive_seed(root: int, *labels: str | int) -> int:
    """Collapse a child stream to a single integer seed (for APIs taking ints)."""
    return int(child_seed_sequence(root, *labels).generate_state(1, np.uint64)[0] >> 1)


def rngs_for(root: int, *labels: str | int, ids: Sequence[int]) -> Iterator[np.random.Generator]:
    """``rng_for(root, *labels, i)`` for each ``i`` in ``ids``, one at a time.
    The root and labels are checked at the call, each id as its block is reached."""
    return _generators(_states(_entropy(root, labels), ids, [], 4))


def derive_seeds(root: int, *labels: str | int, ids: Sequence[int]) -> Iterator[int]:
    """``derive_seed(root, *labels, i)`` for each ``i`` in ``ids``, checked as
    ``rngs_for`` checks them."""
    states = _states(_entropy(root, labels), ids, [], 1)
    return (seed for state in states for seed in (state[:, 0] >> 1).tolist())


def rngs_for_roots(roots: Iterable[int], *labels: str | int) -> Iterator[np.random.Generator]:
    """``rng_for(r, *labels)`` for each root ``r`` in ``roots``, one at a time; the
    roots are read and checked ``BLOCK`` at a time, so they may come from
    ``derive_seeds``."""
    return _generators(_states([], roots, [_label_word(label) for label in labels], 4))


def _generators(states: Iterator[np.ndarray]) -> Iterator[np.random.Generator]:
    return (np.random.Generator(np.random.PCG64(_Words(row))) for state in states for row in state)


class _Words(ISeedSequence):
    """A seed sequence that hands a PCG64 its four precomputed uint64 words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _states(
    prefix: list[int], values: Iterable[int], suffix: list[int], n_words: int
) -> Iterator[np.ndarray]:
    """``SeedSequence(prefix + [v] + suffix).generate_state(n_words, np.uint64)``
    for the values, ``BLOCK`` at a time: each block as a (block, n_words) array."""
    head, tail = ([word for value in part for word in _words(value)] for part in (prefix, suffix))
    values = iter(values)
    while block := list(itertools.islice(values, BLOCK)):
        yield _generate_state(_mix_entropy(*_rows(head, block, tail)), n_words)


def _words(value: int) -> list[int]:
    """An int as SeedSequence takes it: little-endian uint32 words, 0 as [0]."""
    words = [value & _MASK]
    while value := value >> 32:
        words.append(value & _MASK)
    return words


def _rows(head: list[int], values: list[int], tail: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The entropy ``head + words(v) + tail`` of each value as a column of a
    (width, n) uint32 array, zero past a column's length, and the n lengths."""
    values = np.array([_label_word(v) for v in values], dtype=object)
    middle = [values & _MASK]
    lengths = np.full(len(values), len(head) + 1)
    while (values := values >> 32).any():  # values of 2**32 and more take more words
        lengths += values != 0
        middle.append(values & _MASK)
    entropy = np.zeros((len(head) + len(middle) + len(tail), len(lengths)), np.uint32)
    entropy[: len(head)] = np.array(head, np.uint32)[:, None]
    entropy[len(head): len(head) + len(middle)] = middle
    columns = np.arange(len(lengths))
    for word in tail:  # the tail starts where each column's value ends
        entropy[lengths, columns] = word
        lengths += 1
    return entropy, lengths


def _mix_entropy(entropy: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's pool of four uint32 words for each column of ``entropy``.
    The hash constant depends only on the word position, so one pass serves
    every column; a column's words stop at its length."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK
        value *= hash_const
        value ^= value >> 16
        return value

    width = len(entropy)
    pool = [hashmix(entropy[i] if i < width else np.zeros_like(lengths, np.uint32))
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, width):
        live = lengths > src
        for dst in range(_POOL):
            pool[dst] = np.where(live, _mix(pool[dst], hashmix(entropy[src])), pool[dst])
    return pool


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    result ^= result >> 16
    return result


def _generate_state(pool: list[np.ndarray], n_words: int) -> np.ndarray:
    """SeedSequence's uint64 output words, one row per pool column: each is
    two uint32 words, the low one first."""
    hash_const = _INIT_B
    state = np.zeros((len(pool[0]), n_words), np.uint64)
    for i in range(2 * n_words):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK
        value *= hash_const
        value ^= value >> 16
        state[:, i // 2] |= value.astype(np.uint64) << 32 * (i % 2)
    return state
