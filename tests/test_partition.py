import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tailflow.metrics as metrics_mod
import tailflow.partition as partition_mod
from oracles import (
    max_conflict_pair_blocked,
    mean_pairwise_conflict_brute,
    pairwise_conflict,
    partition_objective_brute,
)
from tailflow.datagen import ClassSpec, blob_specs, chest_longtail_specs, generate_corpus
from tailflow.errors import DegenerateInputError, InsufficientDataError
from tailflow.partition import (
    Partition,
    bisecting_kmeans_partition,
    class_to_expert,
    composition_report,
    label_tier_partition,
    load_partition,
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
        by_direction = Partition(assignments=np.array([0, 0, 1, 1]), num_experts=2,
                                 method="random")
        across = Partition(assignments=np.array([0, 1, 0, 1]), num_experts=2, method="random")
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

        blob_part = Partition(assignments=corpus.class_ids(), num_experts=3, method="random")
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
        part = Partition(assignments=assignments, num_experts=k, method="random")
        score = partition_conflict(corpus, part, vectors=rows)
        assert score.overall == pytest.approx(
            partition_objective_brute(rows, assignments, k), abs=1e-12
        )


class TestLabelTiers:
    def test_healthy_class_isolated_in_last_expert(self):
        corpus = make_corpus(chest_longtail_specs(2000))
        part = label_tier_partition(corpus, 4)
        healthy = corpus.healthy_class_id()
        experts = composition_report(part, corpus)["experts"]
        assert experts["3"]["class_counts"] == {str(healthy): corpus.class_counts()[healthy]}
        for k in range(3):
            assert str(healthy) not in experts[str(k)]["class_counts"]

    def test_three_nonhealthy_classes_forced_bijection(self):
        specs = [
            ClassSpec(class_id=0, mean=(0.0, 0.0), scale=0.5, count=40, is_healthy=True),
            ClassSpec(class_id=1, mean=(1.0, 0.0), scale=0.5, count=20),
            ClassSpec(class_id=2, mean=(2.0, 0.0), scale=0.5, count=10),
            ClassSpec(class_id=3, mean=(3.0, 0.0), scale=0.5, count=5),
        ]
        corpus = make_corpus(specs)
        experts = composition_report(label_tier_partition(corpus, 4), corpus)["experts"]
        assert [experts[str(k)]["class_counts"] for k in range(4)] == [
            {"1": 20}, {"2": 10}, {"3": 5}, {"0": 40}
        ]

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
        experts = composition_report(part, corpus)["experts"]
        tier_of = {int(cid): k for k in range(3) for cid in experts[str(k)]["class_counts"]}
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
        n=st.integers(2, 2 * 256 + 40),
        block=st.integers(1, 64),
        distinct=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=256 + 1, block=256, distinct=2, seed=0)
    @example(n=2 * 256, block=256, distinct=3, seed=1)
    def test_blocked_max_conflict_pair_matches_dense(self, n, block, distinct, seed):
        # few distinct small-integer rows: many exact ties, exact dot products;
        # a budget of `block` rows of n floats makes blocks of `block` rows
        rng = np.random.default_rng(seed)
        pool = rng.integers(-2, 3, size=(distinct, 3)).astype(np.float64)
        rows = pool[rng.integers(0, distinct, size=n)]
        conf = 1.0 - rows @ rows.T
        conf[np.tril_indices(n)] = -np.inf
        i, j = np.unravel_index(int(np.argmax(conf)), conf.shape)
        with mock.patch.object(metrics_mod, "_SCAN_BYTES", block * n * 8):
            assert partition_mod._max_conflict_pair(rows) == (int(i), int(j))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 300),
        width=st.sampled_from([1, 16, 512]),
        distinct=st.integers(1, 6),
        jitter=st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-3]),
        budget=st.sampled_from([None, 1, 4096]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, width=1, distinct=1, jitter=0.0, budget=1, seed=0)
    @example(n=2, width=512, distinct=2, jitter=0.0, budget=None, seed=0)
    def test_screened_seed_pair_is_every_blocks_pair(self, n, width, distinct, jitter, budget,
                                                     seed):
        # tie-heavy pools of small integers, exact in float32 too, and unit
        # rows that differ below float32's resolution: the screen must settle
        # every block the float64 maximum or a tie of it can lie in. Budget 1
        # makes one-row blocks and one-column chunks.
        rng = np.random.default_rng(seed)
        pool = rng.integers(-2, 3, size=(distinct, width)).astype(np.float64)
        rows = pool[rng.integers(0, distinct, size=n)]
        if jitter:
            rows = rows + jitter * rng.standard_normal(rows.shape)
            rows /= np.maximum(np.linalg.norm(rows, axis=1), 1e-300)[:, None]
        with mock.patch.object(metrics_mod, "_SCAN_BYTES", budget or metrics_mod._SCAN_BYTES):
            assert partition_mod._max_conflict_pair(rows) == max_conflict_pair_blocked(rows)

    def test_seed_pair_scan_settles_a_block_that_float32_misorders(self):
        # rows 2 and 3 conflict most in float64, by 3.3e-8; their float32
        # entries round down, so the screen puts their block 1.2e-7 behind
        # the block of rows 0 and 1. Only the margin keeps it for the float64
        # step: a margin below that gap returns (0, 1).
        a = np.full(16, 0.25 + 0.49 * 2.0**-25)
        rows = np.zeros((4, 16))
        rows[0, 0], rows[1, 0] = 1.0, -(1.0 + 0.7 * 2.0**-23)
        rows[2], rows[3] = a, -a
        dots, dots32 = rows @ rows.T, (lambda r: r @ r.T)(rows.astype(np.float32))
        assert dots[2, 3] < dots[0, 1] and dots32[2, 3] > dots32[0, 1]
        with mock.patch.object(metrics_mod, "_SCAN_BYTES", 1):
            assert partition_mod._max_conflict_pair(rows) == (2, 3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [0.0, 2.0**-40, 2.0**70, np.inf, np.nan])
    def test_seed_pair_scan_outside_the_screens_range_settles_every_block(self, scale):
        # norms the float32 screen cannot bound, and values that are not
        # finite, leave every block to the float64 code
        rows = np.random.default_rng(2).standard_normal((40, 16))
        rows[::3] = rows[0]
        rows[5] *= scale
        assert partition_mod._max_conflict_pair(rows) == max_conflict_pair_blocked(rows)

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
        # one block is 6 x 20000 float64s (0.96 MB), within the 1 MiB budget;
        # a second live block-sized array (1 - product, or the previous
        # block) would double the peak
        unit = np.random.default_rng(0).standard_normal((20_000, 16))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        tracemalloc.start()
        try:
            partition_mod._max_conflict_pair(unit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * metrics_mod._SCAN_BYTES // 2

    @pytest.mark.parametrize("n", [5_000, 20_000])
    def test_seed_pair_scan_memory_is_flat_in_n(self, n):
        # the same bound of two budgets holds at 5,000 and at 20,000 rows:
        # a block takes fewer rows as n grows, never more bytes
        unit = np.random.default_rng(1).standard_normal((n, 16))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        tracemalloc.start()
        try:
            partition_mod._max_conflict_pair(unit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * metrics_mod._SCAN_BYTES


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
    experts = composition_report(part, corpus)["experts"]
    for cid, expert in mapping.items():
        assert str(cid) in experts[str(expert)]["class_counts"]


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


@st.composite
def _sparse_class_assignments(draw):
    counts = draw(st.tuples(*[st.integers(1, 6)] * 3))
    k = draw(st.integers(1, 5))
    n = sum(counts)
    return counts, k, draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(case=_sparse_class_assignments())
# class 0's two rows go to experts 2 and 1: a tie that expert 1 takes, not the empty expert 0
@example(case=((2, 1, 1), 3, [2, 1, 0, 0]))
def test_class_expert_counts_match_brute_force(case):
    counts, k, assignments = case
    cids = (0, 5, 9)
    corpus = make_corpus([ClassSpec(class_id=c, mean=(float(c), 0.0), scale=0.5, count=m)
                          for c, m in zip(cids, counts)])
    part = Partition(assignments=np.array(assignments, dtype=np.int64), num_experts=k,
                     method="random")
    brute = {(c, e): 0 for c in cids for e in range(k)}
    for c, e in zip(corpus.class_ids().tolist(), assignments):
        brute[c, e] += 1

    experts = composition_report(part, corpus)["experts"]
    assert sorted(experts) == [str(e) for e in range(k)]
    for e in range(k):
        size = sum(brute[c, e] for c in cids)
        assert experts[str(e)]["size"] == size == part.expert_sizes()[e]
        assert experts[str(e)]["share"] == size / len(corpus)
        assert experts[str(e)]["class_counts"] == {str(c): brute[c, e] for c in cids
                                                   if brute[c, e]}
    # the majority expert; a tie goes to the lowest expert id among the tied
    assert class_to_expert(part, corpus) == {
        c: min(range(k), key=lambda e: (-brute[c, e], e)) for c in cids
    }


@settings(max_examples=40, deadline=None)
@given(assignments=hnp.arrays(np.int64, st.integers(1, 60), elements=st.integers(0, 5)),
       extra=st.integers(0, 3))
def test_members_are_each_experts_ascending_ids(assignments, extra):
    # computed once for all experts; experts above the largest id are empty
    part = Partition(assignments=assignments, num_experts=6 + extra, method="random")
    for k in range(part.num_experts):
        members = part.members(k)
        assert members.dtype == np.int64
        assert members.tolist() == np.flatnonzero(assignments == k).tolist()


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
