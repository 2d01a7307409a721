import numpy as np
import pytest

from tailflow.datagen import (
    CHEST_LONGTAIL_COUNTS,
    ClassSpec,
    chest_longtail_specs,
    generate_corpus,
    label_embedding,
    load_corpus,
    save_corpus,
    tail8_specs,
    text_embedding_surrogate,
)


def test_single_class_corpus():
    spec = [ClassSpec(class_id=0, mean=(0.0, 0.0), scale=1.0, count=3, is_healthy=True)]
    corpus = generate_corpus(spec, 2, seed=7)
    assert len(corpus) == 3
    assert all(s.class_id == 0 for s in corpus.samples)
    assert [s.sample_id for s in corpus.samples] == [0, 1, 2]


def test_generation_is_deterministic():
    spec = chest_longtail_specs(300)
    a = generate_corpus(spec, 2, seed=11)
    b = generate_corpus(spec, 2, seed=11)
    assert np.array_equal(a.x_matrix(), b.x_matrix())
    assert np.array_equal(a.embedding_matrix(), b.embedding_matrix())
    c = generate_corpus(spec, 2, seed=12)
    assert not np.array_equal(a.x_matrix(), c.x_matrix())


def test_default_profile_mirrors_benchmark_ratios():
    corpus = generate_corpus(chest_longtail_specs(2000), 2, seed=0)
    counts = corpus.class_counts()
    n = len(corpus)
    raw = [c for _, c in CHEST_LONGTAIL_COUNTS]
    total_raw = sum(raw)
    # dominant class ~61% of samples, rarest below 0.1%
    assert 0.59 <= counts[0] / n <= 0.62
    assert min(counts.values()) / n < 0.001
    # counts proportional to the benchmark table (scaled, min 1, rounded)
    for cid, r in enumerate(raw):
        assert counts[cid] == max(1, round(2000 * r / total_raw))
    # long-tail shape
    assert max(counts.values()) / min(counts.values()) >= 10


def test_histogram_matches_spec_exactly():
    spec = tail8_specs(500)
    corpus = generate_corpus(spec, 2, seed=3)
    counts = corpus.class_counts()
    for c in spec:
        assert counts[c.class_id] == c.count


def test_label_embedding_deterministic_and_distinct():
    a = label_embedding(3, 10, seed=5)
    b = label_embedding(3, 10, seed=5)
    assert np.array_equal(a, b)
    c = label_embedding(4, 10, seed=5)
    cos = float(a @ c)
    assert cos != 1.0
    assert np.isclose(np.linalg.norm(a), 1.0)


def test_label_embeddings_well_spread_19_classes():
    # exhaustive pairwise check over all 171 class pairs
    vecs = [label_embedding(c, 19, seed=0) for c in range(19)]
    for i in range(19):
        for j in range(i + 1, 19):
            assert float(vecs[i] @ vecs[j]) < 0.9


def test_label_embedding_range_check():
    with pytest.raises(ValueError):
        label_embedding(5, 5, seed=0)
    with pytest.raises(ValueError):
        label_embedding(-1, 5, seed=0)


def test_surrogate_zero_noise_equals_label_embedding():
    corpus = generate_corpus(tail8_specs(50), 2, seed=9, noise_scale=0.0)
    for s in corpus.samples[:10]:
        expected = label_embedding(s.class_id, 8, seed=9, dim=corpus.embedding_dim)
        assert np.array_equal(s.embedding, expected)
        assert np.array_equal(
            text_embedding_surrogate(s, 0.0, 9, corpus.embedding_dim), expected
        )


def test_corpus_embeddings_equal_per_sample_surrogate():
    corpus = generate_corpus(tail8_specs(80), 2, seed=9, noise_scale=0.1)
    for s in corpus.samples:
        expected = text_embedding_surrogate(s, 0.1, 9, corpus.embedding_dim)
        assert np.array_equal(s.embedding, expected)


def test_surrogate_deterministic():
    corpus = generate_corpus(tail8_specs(50), 2, seed=9)
    s = corpus.samples[17]
    a = text_embedding_surrogate(s, 0.1, 9)
    b = text_embedding_surrogate(s, 0.1, 9)
    assert np.array_equal(a, b)


def test_surrogate_within_class_cosine_exceeds_between():
    # full pairwise computation on a 4-class corpus
    specs = [
        ClassSpec(class_id=i, mean=(float(i), 0.0), scale=0.3, count=12, is_healthy=(i == 0))
        for i in range(4)
    ]
    corpus = generate_corpus(specs, 2, seed=21, noise_scale=0.1)
    emb = corpus.embedding_matrix()
    unit = emb / np.linalg.norm(emb, axis=1)[:, None]
    cls = corpus.class_ids()
    within, between = [], []
    for i in range(len(corpus)):
        for j in range(i + 1, len(corpus)):
            cos = float(unit[i] @ unit[j])
            (within if cls[i] == cls[j] else between).append(cos)
    assert np.mean(within) > np.mean(between)


def test_surrogate_negative_noise_rejected():
    corpus = generate_corpus(tail8_specs(20), 2, seed=1)
    with pytest.raises(ValueError):
        text_embedding_surrogate(corpus.samples[0], -0.1, 1)
    with pytest.raises(ValueError):
        generate_corpus(tail8_specs(20), 2, seed=1, noise_scale=-0.1)


def test_generate_corpus_input_validation():
    with pytest.raises(ValueError):
        generate_corpus([], 2, seed=0)
    spec = [ClassSpec(class_id=0, mean=(0.0,), scale=1.0, count=2)]
    with pytest.raises(ValueError):
        generate_corpus(spec, 0, seed=0)
    bad = [ClassSpec(class_id=0, mean=(0.0, 0.0), scale=-1.0, count=2)]
    with pytest.raises(ValueError):
        generate_corpus(bad, 2, seed=0)
    two_healthy = [
        ClassSpec(class_id=0, mean=(0.0, 0.0), scale=1.0, count=2, is_healthy=True),
        ClassSpec(class_id=1, mean=(1.0, 0.0), scale=1.0, count=2, is_healthy=True),
    ]
    with pytest.raises(ValueError):
        generate_corpus(two_healthy, 2, seed=0)


def test_corpus_round_trip_is_lossless(tmp_path):
    corpus = generate_corpus(tail8_specs(120), 2, seed=13)
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert np.array_equal(corpus.x_matrix(), loaded.x_matrix())
    assert np.array_equal(corpus.embedding_matrix(), loaded.embedding_matrix())
    assert corpus.classes == loaded.classes
    assert (corpus.seed, corpus.dimension, corpus.embedding_dim, corpus.noise_scale) == (
        loaded.seed,
        loaded.dimension,
        loaded.embedding_dim,
        loaded.noise_scale,
    )
