import hashlib
from unittest.mock import patch

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import tailflow.seeding as seeding
from tailflow.seeding import (
    _label_word,
    _str_word,
    child_seed_sequence,
    derive_seed,
    derive_seeds,
    rng_for,
    rngs_for,
    rngs_for_roots,
)


def _sha_word(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def test_string_words_are_cached_and_unchanged():
    _str_word.cache_clear()
    for _ in range(3):
        for label in ("loss", "flow-loss", "datagen-train", "é"):
            assert _label_word(label) == _sha_word(label)
    info = _str_word.cache_info()
    assert (info.misses, info.hits) == (4, 8)


def test_int_labels_bypass_the_cache_and_bad_labels_raise():
    _str_word.cache_clear()
    assert _label_word(0) == 0 and _label_word(2**70) == 2**70
    assert _str_word.cache_info().currsize == 0
    with pytest.raises(ValueError, match="negative label -1"):
        _label_word(-1)
    with pytest.raises(TypeError, match="bool labels are ambiguous"):
        _label_word(True)
    for bad in (2.5, np.bool_(True), None, b"loss"):
        with pytest.raises(TypeError, match=f"label {bad!r} is neither an int nor a str"):
            rng_for(1, bad)
        with pytest.raises(TypeError, match=f"label {bad!r} is neither an int nor a str"):
            derive_seed(1, "loss", bad)
        for batched in (rngs_for, derive_seeds):
            with pytest.raises(TypeError, match=f"label {bad!r} is neither an int nor a str"):
                list(batched(1, "loss", ids=[0, bad]))


def test_streams_equal_the_uncached_derivation():
    for step in (0, 1, 7):
        entropy = [11, _sha_word("loss"), step]
        want = int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0] >> 1)
        assert derive_seed(11, "loss", step) == want
    draws = np.random.default_rng(np.random.SeedSequence([3, _sha_word("flow-loss")])).random(4)
    assert np.array_equal(rng_for(3, "flow-loss").random(4), draws)


# ids of one, two and three uint32 words: 0 and 2**32 - 1 take one, 2**32 two, 2**64 + 3 three
_EDGE_IDS = [0, 2**32 - 1, 2**32, 5, 2**64 + 3]


def _check_against_oracle(root, labels, ids):
    seeds = list(derive_seeds(root, *labels, ids=ids))
    assert seeds == [derive_seed(root, *labels, i) for i in ids]
    draws = [rng.random(4) for rng in rngs_for(root, *labels, ids=ids)]
    assert len(draws) == len(ids)
    for i, got in zip(ids, draws):
        assert np.array_equal(got, rng_for(root, *labels, i).random(4))


@pytest.mark.parametrize("root", [0, 2**32 - 1, 2**32, 2**64 + 7])
@pytest.mark.parametrize("labels", [(), ("loss",), ("embedding-jitter", 2**32), (2**70, "é")])
def test_batched_streams_equal_the_oracle_at_word_edges(root, labels):
    _check_against_oracle(root, labels, _EDGE_IDS)


@settings(max_examples=60, deadline=None)
@given(
    root=st.integers(0, 2**70),
    labels=st.lists(st.text(max_size=8) | st.integers(0, 2**70), max_size=3),
    ids=st.lists(st.sampled_from(_EDGE_IDS) | st.integers(0, 2**66), max_size=12),
    block=st.integers(1, 5),
)
def test_batched_streams_equal_the_oracle(root, labels, ids, block):
    with patch.object(seeding, "BLOCK", block):  # whole blocks and a partial last one
        _check_against_oracle(root, labels, ids)


def test_numpy_int_ids_and_labels_are_ints():
    _check_against_oracle(3, ("loss", np.uint64(2**40)), np.arange(3))


def test_no_ids_give_no_streams():
    assert list(derive_seeds(3, "loss", ids=[])) == []
    assert list(rngs_for(3, "loss", ids=range(0))) == []


@pytest.mark.parametrize("root, labels, ids, error, message", [
    (-1, ("loss",), [0], ValueError, "root seed must be non-negative, got -1"),
    (1, ("loss",), [2, -3], ValueError, "negative label -3"),
    (1, (True,), [0], TypeError, "bool labels are ambiguous"),
    (1, ("loss",), [0, True], TypeError, "bool labels are ambiguous"),
])
def test_batched_errors_are_the_oracles(root, labels, ids, error, message):
    with pytest.raises(error, match=message):  # the id that fails is the last
        child_seed_sequence(root, *labels, ids[-1])
    with pytest.raises(error, match=message):
        list(derive_seeds(root, *labels, ids=ids))
    with pytest.raises(error, match=message):
        list(rngs_for(root, *labels, ids=ids))


def test_generators_come_one_at_a_time():
    streams = rngs_for(0, "embedding-jitter", ids=range(10**9))
    assert np.array_equal(next(streams).random(4), rng_for(0, "embedding-jitter", 0).random(4))



@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**40),
    steps=st.integers(0, 9),
    small=st.lists(st.integers(0, 2**32 - 1), max_size=4),
    block=st.integers(1, 4),
)
def test_each_row_has_its_own_root(seed, steps, small, block):
    # train's loss streams are rng_for(derive_seed(seed, "loss", s), "flow-loss");
    # those roots take two words, and one-word roots share their blocks here
    loss_seeds = [derive_seed(seed, "loss", s) for s in range(steps)]
    roots = [r for pair in zip(loss_seeds, small) for r in pair] + loss_seeds[len(small):]
    with patch.object(seeding, "BLOCK", block):
        streams = list(rngs_for_roots(roots, "flow-loss"))
        chained = list(rngs_for_roots(derive_seeds(seed, "loss", ids=range(steps)), "flow-loss"))
    assert len(streams) == len(roots) and len(chained) == steps
    for root, rng in zip(roots, streams):
        assert np.array_equal(rng.random(3), rng_for(root, "flow-loss").random(3))
    for root, rng in zip(loss_seeds, chained):
        assert np.array_equal(rng.random(3), rng_for(root, "flow-loss").random(3))
