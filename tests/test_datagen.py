import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import text_embedding_surrogate

import tailflow.seeding as seeding
from tailflow.datagen import (
    CHEST_LONGTAIL_COUNTS,
    ClassSpec,
    chest_longtail_specs,
    generate_corpus,
    label_embedding,
    load_corpus,
    save_corpus,
    tail8_specs,
)


def test_single_class_corpus():
    spec = [ClassSpec(class_id=0, mean=(0.0, 0.0), scale=1.0, count=3, is_healthy=True)]
    corpus = generate_corpus(spec, 2, seed=7)
    assert len(corpus) == 3
    assert corpus.class_ids().tolist() == [0, 0, 0]
    assert corpus.x_matrix().shape == (3, 2)
    assert corpus.embedding_matrix().shape == (3, corpus.embedding_dim)


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
    for sid, cid in enumerate(corpus.class_ids()[:10].tolist()):
        expected = label_embedding(cid, 8, seed=9, dim=corpus.embedding_dim)
        assert np.array_equal(corpus.embedding_matrix()[sid], expected)
        assert np.array_equal(
            text_embedding_surrogate(sid, cid, 0.0, 9, corpus.embedding_dim), expected
        )


def test_corpus_embeddings_equal_per_sample_surrogate():
    corpus = generate_corpus(tail8_specs(80), 2, seed=9, noise_scale=0.1)
    for sid, cid in enumerate(corpus.class_ids().tolist()):
        expected = text_embedding_surrogate(sid, cid, 0.1, 9, corpus.embedding_dim)
        assert np.array_equal(corpus.embedding_matrix()[sid], expected)


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


@st.composite
def class_specs(draw):
    dimension = draw(st.integers(1, 3))
    coord = st.floats(-1e3, 1e3, allow_nan=False)
    num_classes = draw(st.integers(1, 4))
    healthy = draw(st.integers(-1, num_classes - 1))
    ids = draw(st.lists(st.integers(0, 50), min_size=num_classes, max_size=num_classes,
                        unique=True))
    return dimension, [
        ClassSpec(class_id=cid, mean=tuple(draw(st.lists(coord, min_size=dimension,
                                                         max_size=dimension))),
                  scale=draw(st.floats(1e-3, 10.0)), count=draw(st.integers(1, 5)),
                  is_healthy=(i == healthy))
        for i, cid in enumerate(ids)
    ]


@settings(max_examples=40, deadline=None)
@given(spec=class_specs(), seed=st.integers(0, 2**32 - 1), embedding_dim=st.integers(1, 4),
       noise=st.sampled_from([0.0, 0.05]) | st.floats(1e-6, 2.0))
def test_corpus_round_trip_property(spec, seed, embedding_dim, noise):
    dimension, classes = spec
    corpus = generate_corpus(classes, dimension, seed, embedding_dim, noise)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
    for name in ("x", "embeddings", "labels"):
        a, b = getattr(corpus, name), getattr(loaded, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert loaded.classes == corpus.classes
    assert (loaded.seed, loaded.noise_scale) == (seed, noise)


@pytest.mark.parametrize("edit, message", [
    (lambda fields: ["5"] + fields[1:], "sample ids must be dense from 0"),
    (lambda fields: fields[:1] + ["99"] + fields[2:], "sample 0 has unknown class 99"),
])
def test_load_corpus_rejects_bad_records(tmp_path, edit, message):
    path = tmp_path / "corpus.txt"
    save_corpus(generate_corpus(tail8_specs(40), 2, seed=4), path)
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[first] = " ".join(edit(lines[first].split()))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        load_corpus(path)


def test_generate_corpus_holds_one_jitter_stream_at_a_time():
    # the conflicts-6k corpus: 6,000 samples; a list of all their Generators
    # would add about 3 MB
    spec = chest_longtail_specs(6000)
    tracemalloc.start()
    try:
        corpus = generate_corpus(spec, 2, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = corpus.x.nbytes + corpus.embeddings.nbytes + corpus.labels.nbytes
    assert peak < outputs + 2**20, (peak, outputs)


def test_corpus_embeddings_equal_the_surrogate_across_block_edges(monkeypatch):
    monkeypatch.setattr(seeding, "BLOCK", 7)  # edges inside classes and between them
    corpus = generate_corpus(tail8_specs(80), 2, seed=9, noise_scale=0.1)
    for sid, cid in enumerate(corpus.class_ids().tolist()):
        expected = text_embedding_surrogate(sid, cid, 0.1, 9, corpus.embedding_dim)
        assert np.array_equal(corpus.embedding_matrix()[sid], expected)
