import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tailflow.partition as partition_mod
from oracles import mean_pairwise_conflict_brute, partition_objective_brute
from tailflow.datagen import ClassSpec, blob_specs, chest_longtail_specs, generate_corpus
from tailflow.errors import DegenerateInputError, InsufficientDataError
from tailflow.partition import (
    Partition,
    bisecting_kmeans_partition,
    class_to_expert,
    composition_report,
    label_tier_partition,
    load_partition,
    pairwise_conflict,
    partition_conflict,
    random_partition,
    save_partition,
    single_partition,
)


def make_corpus(specs, seed=0, noise=0.05):
    return generate_corpus(specs, 2, seed=seed, noise_scale=noise)


class TestPairwiseConflict:
    def test_identical_direction(self):
        assert pairwise_conflict(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0

    def test_opposed(self):
        assert pairwise_conflict(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 2.0

    def test_orthogonal(self):
        assert pairwise_conflict(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            pairwise_conflict(np.zeros(2), np.array([1.0, 0.0]))


def corpus_with_embeddings(embeddings, class_ids=None):
    """Tiny corpus whose embeddings are overwritten with the given rows."""
    n = len(embeddings)
    class_ids = class_ids or [0] * n
    num_classes = max(class_ids) + 1
    counts = [class_ids.count(c) for c in range(num_classes)]
    specs = [
        ClassSpec(class_id=c, mean=(0.0, 0.0), scale=1.0, count=counts[c])
        for c in range(num_classes)
    ]
    corpus = generate_corpus(specs, 2, seed=0, embedding_dim=len(embeddings[0]))
    order = sorted(range(n), key=lambda i: class_ids[i])
    corpus.labels[:] = [class_ids[idx] for idx in order]
    corpus.embeddings[:] = [embeddings[idx] for idx in order]
    return corpus


class TestPartitionConflict:
    def test_identical_embeddings_zero(self):
        corpus = corpus_with_embeddings([[1.0, 0.0]] * 6)
        part = random_partition(corpus, 3, seed=1)
        score = partition_conflict(corpus, part)
        assert score.overall == 0.0

    def test_antipodal_construction(self):
        emb = [[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]
        corpus = corpus_with_embeddings(emb)
        by_direction = Partition(
            assignments=np.array([0, 0, 1, 1]), num_experts=2, method="random",
            composition=[{0: 2}, {0: 2}],
        )
        across = Partition(
            assignments=np.array([0, 1, 0, 1]), num_experts=2, method="random",
            composition=[{0: 2}, {0: 2}],
        )
        assert partition_conflict(corpus, by_direction).overall == 0.0
        assert partition_conflict(corpus, across).overall == pytest.approx(2.0, abs=1e-12)

    def test_overall_is_pair_weighted_mean(self):
        corpus = make_corpus(blob_specs(3, 8), seed=5)
        part = random_partition(corpus, 3, seed=2)
        score = partition_conflict(corpus, part)
        emb = corpus.embedding_matrix()
        expected = partition_objective_brute(emb, part.assignments, 3)
        assert score.overall == pytest.approx(expected, rel=1e-10)
        assert all(0.0 <= v <= 2.0 for v in score.per_cluster)

    def test_blob_partition_attains_brute_force_minimum(self):
        # 12 samples, 3 blobs; enumerate all 3^11 assignments (sample 0
        # pinned to cluster 0 by label symmetry) and check the blob-aligned
        # partition reaches the minimum overall conflict
        corpus = make_corpus(blob_specs(3, 4), seed=7)
        emb = corpus.embedding_matrix()
        unit = emb / np.linalg.norm(emb, axis=1)[:, None]
        conflict = 1.0 - unit @ unit.T

        n = 12
        rest = np.array(list(itertools.product(range(3), repeat=n - 1)), dtype=np.int64)
        assignments = np.concatenate([np.zeros((len(rest), 1), dtype=np.int64), rest], axis=1)
        totals = np.zeros(len(rest))
        pair_counts = np.zeros(len(rest))
        for k in range(3):
            mask = (assignments == k).astype(np.float64)
            totals += np.einsum("ai,ij,aj->a", mask, conflict, mask) / 2.0
            m = mask.sum(axis=1)
            pair_counts += m * (m - 1) / 2.0
        overall = totals / pair_counts
        best = overall.min()

        blob_part = Partition(
            assignments=corpus.class_ids(), num_experts=3, method="random",
            composition=[{c: 4} for c in range(3)],
        )
        score = partition_conflict(corpus, blob_part)
        assert score.overall <= best + 1e-12

    def test_supplied_gradients_mode(self):
        corpus = make_corpus(blob_specs(2, 3), seed=1)
        rows = np.stack([np.array([1.0, float(c)]) for c in corpus.class_ids()])
        part = single_partition(corpus)
        score = partition_conflict(corpus, part, vectors=rows)
        assert score.overall == pytest.approx(mean_pairwise_conflict_brute(rows), rel=1e-10)
        with pytest.raises(ValueError, match=f"{len(corpus) - 1} vector rows .* {len(corpus)}"):
            partition_conflict(corpus, part, vectors=rows[1:])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_closed_form_matches_brute_force(self, data):
        n = data.draw(st.integers(2, 24), label="n")
        k = data.draw(st.integers(1, 5), label="k")
        nonzero = st.floats(0.01, 10.0) | st.floats(-10.0, -0.01)
        rows = data.draw(hnp.arrays(np.float64, (n, data.draw(st.integers(1, 6))), elements=nonzero))
        assignments = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        corpus = make_corpus([ClassSpec(class_id=0, mean=(0.0, 0.0), scale=1.0, count=n)])
        part = Partition(assignments=assignments, num_experts=k, method="random", composition=[])
        score = partition_conflict(corpus, part, vectors=rows)
        assert score.overall == pytest.approx(
            partition_objective_brute(rows, assignments, k), abs=1e-12
        )


class TestLabelTiers:
    def test_healthy_class_isolated_in_last_expert(self):
        corpus = make_corpus(chest_longtail_specs(2000))
        part = label_tier_partition(corpus, 4)
        healthy = corpus.healthy_class_id()
        assert set(part.composition[3]) == {healthy}
        assert part.composition[3][healthy] == corpus.class_counts()[healthy]
        for k in range(3):
            assert healthy not in part.composition[k]

    def test_three_nonhealthy_classes_forced_bijection(self):
        specs = [
            ClassSpec(class_id=0, mean=(0.0, 0.0), scale=0.5, count=40, is_healthy=True),
            ClassSpec(class_id=1, mean=(1.0, 0.0), scale=0.5, count=20),
            ClassSpec(class_id=2, mean=(2.0, 0.0), scale=0.5, count=10),
            ClassSpec(class_id=3, mean=(3.0, 0.0), scale=0.5, count=5),
        ]
        part = label_tier_partition(make_corpus(specs), 4)
        assert part.composition[0] == {1: 20}
        assert part.composition[1] == {2: 10}
        assert part.composition[2] == {3: 5}
        assert part.composition[3] == {0: 40}

    def test_tiers_match_exhaustive_contiguous_optimum(self):
        # brute force over every contiguous split of the descending-count
        # order into three frequency bands, minimizing tier-total variance
        corpus = make_corpus(chest_longtail_specs(2000))
        part = label_tier_partition(corpus, 4)
        healthy = corpus.healthy_class_id()
        classes = sorted(
            (c for c in corpus.classes if c.class_id != healthy),
            key=lambda c: (-c.count, c.class_id),
        )
        counts = [c.count for c in classes]
        best_var, best_bounds = None, None
        for b1 in range(1, len(counts) - 1):
            for b2 in range(b1 + 1, len(counts)):
                tiers = (sum(counts[:b1]), sum(counts[b1:b2]), sum(counts[b2:]))
                var = float(np.var(tiers))
                if best_var is None or var < best_var:
                    best_var, best_bounds = var, (b1, b2)
        b1, b2 = best_bounds
        expected = {}
        for i, c in enumerate(classes):
            expected[c.class_id] = 0 if i < b1 else (1 if i < b2 else 2)
        tier_of = {cid: k for k in range(3) for cid in part.composition[k]}
        assert tier_of == expected

    def test_errors(self):
        no_healthy = [ClassSpec(class_id=i, mean=(0.0, 0.0), scale=1.0, count=5) for i in range(4)]
        with pytest.raises(ValueError):
            label_tier_partition(make_corpus(no_healthy), 4)
        too_few = [
            ClassSpec(class_id=0, mean=(0.0, 0.0), scale=1.0, count=5, is_healthy=True),
            ClassSpec(class_id=1, mean=(1.0, 0.0), scale=1.0, count=5),
        ]
        with pytest.raises(InsufficientDataError):
            label_tier_partition(make_corpus(too_few), 4)
        with pytest.raises(ValueError):
            label_tier_partition(make_corpus(chest_longtail_specs(200)), 5)


class TestBisectingKMeans:
    def test_k1_is_single_cluster(self):
        corpus = make_corpus(blob_specs(3, 5))
        part = bisecting_kmeans_partition(corpus, 1)
        assert np.all(part.assignments == 0)

    def test_k_equals_corpus_size_gives_singletons(self):
        corpus = make_corpus(blob_specs(3, 2), seed=4)
        part = bisecting_kmeans_partition(corpus, 6)
        assert sorted(part.expert_sizes()) == [1] * 6

    def test_four_blobs_recovered_and_optimal(self):
        corpus = make_corpus(blob_specs(4, 6), seed=9)
        part, history = bisecting_kmeans_partition(corpus, 4, return_history=True)
        # clusters coincide with blobs
        cls = corpus.class_ids()
        for k in range(4):
            assert len({int(c) for c in cls[part.members(k)]}) == 1
        # monotone objective across bisections
        assert all(history[i + 1] <= history[i] + 1e-12 for i in range(len(history) - 1))
        # objective equals the brute-force optimum over blob-respecting maps
        emb = corpus.embedding_matrix()
        best = None
        for assign in itertools.product(range(4), repeat=4):
            a = np.array([assign[c] for c in cls])
            val = partition_objective_brute(emb, a, 4)
            best = val if best is None else min(best, val)
        assert partition_conflict(corpus, part).overall == pytest.approx(best, abs=1e-12)

    def test_zero_noise_recovers_class_partition(self):
        corpus = generate_corpus(chest_longtail_specs(300), 2, seed=3, noise_scale=0.0)
        part = bisecting_kmeans_partition(corpus, corpus.num_classes)
        cls = corpus.class_ids()
        for k in range(part.num_experts):
            members = part.members(k)
            assert len({int(c) for c in cls[members]}) == 1
        assert len({int(part.assignments[np.flatnonzero(cls == c)[0]]) for c in range(19)}) == 19

    def test_k_larger_than_corpus_rejected(self):
        corpus = make_corpus(blob_specs(2, 2))
        with pytest.raises(InsufficientDataError):
            bisecting_kmeans_partition(corpus, 5)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 2 * partition_mod._PAIR_BLOCK + 40),
        distinct=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=partition_mod._PAIR_BLOCK + 1, distinct=2, seed=0)
    @example(n=2 * partition_mod._PAIR_BLOCK, distinct=3, seed=1)
    def test_blocked_max_conflict_pair_matches_dense(self, n, distinct, seed):
        # few distinct small-integer rows: many exact ties, exact dot products
        rng = np.random.default_rng(seed)
        pool = rng.integers(-2, 3, size=(distinct, 3)).astype(np.float64)
        rows = pool[rng.integers(0, distinct, size=n)]
        conf = 1.0 - rows @ rows.T
        conf[np.tril_indices(n)] = -np.inf
        i, j = np.unravel_index(int(np.argmax(conf)), conf.shape)
        assert partition_mod._max_conflict_pair(rows) == (int(i), int(j))

    def test_memory_stays_linear_in_corpus_size(self):
        # an N x N float64 Gram matrix alone would take 275 MB here
        corpus = make_corpus(chest_longtail_specs(6000), seed=0)
        tracemalloc.start()
        try:
            bisecting_kmeans_partition(corpus, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_seed_pair_scan_memory_stays_one_block(self):
        # one 256 x 20000 float64 block is 39 MiB; a second live block-sized
        # array (1 - product, or the previous block) would double the peak
        unit = np.random.default_rng(0).standard_normal((20_000, 16))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        tracemalloc.start()
        try:
            partition_mod._max_conflict_pair(unit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


class TestRandomPartition:
    def test_k1(self):
        corpus = make_corpus(blob_specs(2, 5))
        assert np.all(random_partition(corpus, 1, seed=0).assignments == 0)

    def test_counts_within_binomial_bound(self):
        # 5 sigma around N/K under Binomial(N, 1/K)
        specs = blob_specs(2, 500)
        corpus = make_corpus(specs, seed=8)
        n, k = 1000, 4
        sigma = np.sqrt(n * (1 / k) * (1 - 1 / k))
        part = random_partition(corpus, k, seed=123)
        for size in part.expert_sizes():
            assert abs(size - n / k) <= 5 * sigma

    def test_seed_determinism_and_variation(self):
        corpus = make_corpus(blob_specs(2, 50))
        a = random_partition(corpus, 4, seed=1)
        b = random_partition(corpus, 4, seed=1)
        c = random_partition(corpus, 4, seed=2)
        assert np.array_equal(a.assignments, b.assignments)
        assert not np.array_equal(a.assignments, c.assignments)


def test_label_partition_beats_random_over_ten_seeds():
    corpus = make_corpus(chest_longtail_specs(2000), seed=0)
    label = label_tier_partition(corpus, 4)
    label_score = partition_conflict(corpus, label).overall
    for seed in range(10):
        rnd = random_partition(corpus, 4, seed=seed)
        assert label_score <= partition_conflict(corpus, rnd).overall


def test_class_to_expert_majority():
    corpus = make_corpus(chest_longtail_specs(500))
    part = label_tier_partition(corpus, 4)
    mapping = class_to_expert(part, corpus)
    assert mapping[0] == 3
    for cid, expert in mapping.items():
        assert cid in part.composition[expert]


def test_composition_report_and_round_trip(tmp_path):
    corpus = make_corpus(chest_longtail_specs(400))
    part = label_tier_partition(corpus, 4)
    report = composition_report(part, corpus)
    assert report["geometry"] == "cosine"
    assert sum(e["size"] for e in report["experts"].values()) == len(corpus)
    json.dumps(report)  # JSON-ready

    path = tmp_path / "partition.txt"
    save_partition(part, path)
    loaded = load_partition(path, corpus)
    assert np.array_equal(part.assignments, loaded.assignments)
    assert loaded.method == part.method and loaded.num_experts == part.num_experts


@pytest.mark.parametrize(
    "bad_id, message",
    [(3, "duplicated sample id 3"), (-1, "sample id -1 out of range"),
     (None, "sample id {n} out of range")],
)
def test_load_partition_rejects_bad_sample_ids(tmp_path, bad_id, message):
    corpus = make_corpus(chest_longtail_specs(400))
    n = len(corpus)
    path = tmp_path / "partition.txt"
    save_partition(label_tier_partition(corpus, 4), path)
    lines = path.read_text().splitlines()
    lines[-1] = f"{n if bad_id is None else bad_id} 1"  # replaces the last sample's line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message.format(n=n)) as info:
        load_partition(path, corpus)
    assert str(path) in str(info.value)
