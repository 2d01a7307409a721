import hashlib

import numpy as np
import pytest

from tailflow.seeding import _label_word, _str_word, derive_seed, rng_for


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


def test_streams_equal_the_uncached_derivation():
    for step in (0, 1, 7):
        entropy = [11, _sha_word("loss"), step]
        want = int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0] >> 1)
        assert derive_seed(11, "loss", step) == want
    draws = np.random.default_rng(np.random.SeedSequence([3, _sha_word("flow-loss")])).random(4)
    assert np.array_equal(rng_for(3, "flow-loss").random(4), draws)
