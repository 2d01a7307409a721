import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tailflow.metrics as metrics_mod
from oracles import (
    coverage_brute,
    dist,
    diagonal_design,
    diagonal_design_variance,
    frechet_diagonal_closed_form,
    irs_brute,
    knn_radius_brute,
    retrieval_brute,
)
from tailflow.errors import InsufficientDataError, UndefinedMetricError
from tailflow.metrics import (
    FeatureSet,
    adjusted_score,
    coverage,
    evaluate,
    frechet_distance,
    irs,
    irs_adjusted,
    knn_radii,
    knn_radius,
    load_features,
    retrieval_ids,
    save_samples,
)


def fs(vectors, tag="real", classes=None):
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    return FeatureSet(vectors=vectors, ids=np.arange(len(vectors)), tag=tag, classes=classes)


class TestKnnRadius:
    def test_line_hand_computation(self):
        points = fs([[0.0], [1.0], [3.0]])
        assert knn_radius(np.array([0.0]), points, k=1) == 1.0
        assert knn_radius(np.array([0.0]), points, k=2) == 3.0

    def test_nonmember_query(self):
        points = fs([[0.0], [1.0], [3.0]])
        assert knn_radius(np.array([2.0]), points, k=1) == 1.0

    def test_accelerated_equals_brute_force_exactly(self):
        # across the radii's row blocks (a budget of 256 rows) and on both
        # sides of the kernel's 8-feature switch; duplicated rows give tied
        # and zero distances, and a run of 12 equal rows across a block
        # boundary gives zero radii
        rng = np.random.default_rng(0)
        block = 256
        n = 2 * block + 3
        for f_dim in (1, 2, 7, 8, 9, 17):
            pts = rng.standard_normal((n, f_dim))
            pts[rng.integers(0, n, 40)] = pts[rng.integers(0, n, 40)]
            pts[block - 6 : block + 6] = pts[block - 6]
            pts[-1] = pts[2 * block]
            feats = fs(pts)
            with mock.patch.object(metrics_mod, "_SCAN_BYTES", block * n * 8):
                radii = knn_radii(feats, k=5)
            assert (radii == 0.0).any()
            assert all(knn_radius(pts[i], feats, k=5) == radii[i] for i in range(n))
            # the O(n) loop oracle on every 16th row and the rows at both block edges
            for i in {*range(0, n, 16), *range(block - 6, block + 6), *range(2 * block - 3, n)}:
                assert radii[i] == knn_radius_brute(pts[i], pts, 5, exclude=i)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            knn_radii(fs([[0.0], [1.0]]), k=2)
        with pytest.raises(InsufficientDataError):
            knn_radius(np.array([0.0]), fs([[0.0], [1.0]]), k=2)
        with pytest.raises(InsufficientDataError, match="have 0"):
            knn_radius(np.array([0.0]), fs(np.empty((0, 1))), k=1)


def _kernel_inputs(rng, n, m, f_dim):
    """Rows for the distance kernel with the entries that test its order of
    additions: duplicated points, -0.0 against 0.0, and magnitudes near
    1e154, whose squares are near the float64 maximum or overflow to inf."""
    a = rng.standard_normal((n, f_dim)) * 10.0
    b = rng.standard_normal((m, f_dim))
    a[n // 2] = -0.0
    a[-1, ::2] = 2e154  # squares overflow to inf
    a[1 % n] = a[0]  # a duplicate within a
    b[0] = a[0]  # a duplicate across the sets: distance exactly 0
    b[1] = b[0]  # a duplicate within b
    b[2] = 0.0
    b[3] = 9e153  # squares near 1e308: finite alone, inf once summed
    return a, b


def test_blocked_distance_matrix_equals_brute_force():
    # a budget of 256 rows of the 5 columns: steps of 32 rows below 8
    # features and of 256 // F rows from 8 on; row counts off the multiples
    # of every step, and a single row; widths on both sides of numpy's
    # 8-term pairwise-sum unrolling
    rng = np.random.default_rng(21)
    block = 256
    for f_dim in (1, 2, 7, 8, 9, 17):
        for n in (2 * block + 3, block // 4 + 1, 1):
            a, b = _kernel_inputs(rng, n, 5, f_dim)
            with np.errstate(over="ignore"), \
                    mock.patch.object(metrics_mod, "_SCAN_BYTES", block * 5 * 8):
                got = metrics_mod._distance_matrix(a, b)
                want = [[dist(a[i], b[j]) for j in range(len(b))] for i in range(n)]
            assert got.shape == (n, len(b))
            assert np.isinf(got).any() and (got == 0.0).any()
            assert all(got[i, j] == want[i][j] for i in range(n) for j in range(len(b)))


def test_mismatched_feature_widths_are_rejected():
    # the column kernel takes its width from the first operand, so a
    # narrower one would otherwise compare only the leading columns
    narrow, wide = fs(np.zeros((6, 2))), fs(np.ones((6, 3)))
    for call in (lambda: irs(narrow, wide), lambda: coverage(wide, narrow, k=2),
                 lambda: knn_radius(np.zeros(2), wide, k=2)):
        with pytest.raises(ValueError, match="feature widths differ: 2 and 3"):
            call()


@pytest.mark.parametrize("n, m, f_dim", [(515, 700, 2), (300, 130, 7), (70, 40, 1)])
def test_column_distance_kernel_allocates_at_most_a_block(n, m, f_dim):
    # below 8 features the kernel holds no step x m x F temporary: what it
    # allocates beyond its output (the term, an eighth of the budget, numpy's
    # buffer and b's transposed columns) stays within a quarter of the
    # budget, and within twice the output when that is smaller
    rng = np.random.default_rng(23)
    a, b = rng.standard_normal((n, f_dim)), rng.standard_normal((m, f_dim))
    metrics_mod._distance_matrix(a, b)
    tracemalloc.start()
    try:
        out = metrics_mod._distance_matrix(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= min(metrics_mod._SCAN_BYTES // 4, 2 * out.nbytes)


def test_irs_train_takes_no_transposed_copy():
    # coarse points, so tied 1-NN distances abound; irs_train reads the row
    # argmin of generated x train blocks, where a transposed copy of the
    # whole matrix would cost n_gen * n_train * 8 bytes
    rng = np.random.default_rng(22)
    train = fs(np.round(rng.standard_normal((600, 2)), 1), "train")
    gen = fs(np.round(rng.standard_normal((3000, 2)), 1), "generated")
    no_test = fs(np.empty((0, 2)), "test")
    tracemalloc.start()
    try:
        row = metrics_mod._row(gen, train, no_test, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(gen) * len(train) * 8 / 2
    assert row["irs_train"] == irs(gen, train)


def test_evaluate_holds_no_generated_by_reference_matrix():
    # generated rows pass through the kernel a block at a time, so the peak
    # stays far below one n_gen x n_train float64 matrix
    rng = np.random.default_rng(25)
    n_gen = n_train = 3000
    train = fs(rng.standard_normal((n_train, 2)), "train", classes=rng.integers(0, 3, n_train))
    gen = fs(rng.standard_normal((n_gen, 2)), "generated", classes=rng.integers(0, 3, n_gen))
    test = fs(rng.standard_normal((200, 2)), "test", classes=rng.integers(0, 3, 200))
    tracemalloc.start()
    try:
        evaluate(gen, train, test, k=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_gen * n_train * 8 / 2


@pytest.mark.parametrize("block", [1, 3])
def test_blocked_metrics_equal_brute_force_under_ties(block):
    # a small grid of coarse points: duplicated rows and tied distances on
    # both sides of every block edge; the first of tied minima still wins.
    # Every scan here runs against the 23 real rows, so a budget of `block`
    # such rows makes blocks of `block` rows
    rng = np.random.default_rng(26)
    real = rng.integers(-2, 3, size=(23, 2)) * 0.5
    gen = rng.integers(-2, 3, size=(17, 2)) * 0.5
    with mock.patch.object(metrics_mod, "_SCAN_BYTES", block * 23 * 8):
        assert coverage(fs(real), fs(gen, "generated"), k=3) == coverage_brute(real, gen, 3)
        assert list(retrieval_ids(fs(gen, "generated"), fs(real))) == retrieval_brute(gen, real)
        assert irs(fs(gen, "generated"), fs(real)) == irs_brute(gen, real)


def test_evaluate_holds_no_train_by_train_matrix():
    # the k-NN radii are taken a block of train rows at a time, so the peak
    # stays far below one n_train x n_train float64 matrix
    rng = np.random.default_rng(24)
    n_train = 3000
    train = fs(rng.standard_normal((n_train, 2)), "train", classes=rng.integers(0, 3, n_train))
    gen = fs(rng.standard_normal((300, 2)), "generated", classes=rng.integers(0, 3, 300))
    test = fs(rng.standard_normal((200, 2)), "test", classes=rng.integers(0, 3, 200))
    tracemalloc.start()
    try:
        evaluate(gen, train, test, k=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_train * n_train * 8 / 2


@pytest.mark.parametrize("n_train", [3_000, 12_000])
def test_evaluate_memory_is_flat_in_train_rows(n_train):
    # the same bound of two budgets holds at 3,000 and at 12,000 train rows:
    # each scan's block takes fewer rows as the reference set grows, never
    # more bytes, and is freed before the next; only the O(n) arrays grow
    rng = np.random.default_rng(27)
    train = fs(rng.standard_normal((n_train, 2)), "train", classes=rng.integers(0, 3, n_train))
    gen = fs(rng.standard_normal((600, 2)), "generated", classes=rng.integers(0, 3, 600))
    test = fs(rng.standard_normal((400, 2)), "test", classes=rng.integers(0, 3, 400))
    tracemalloc.start()
    try:
        evaluate(gen, train, test, k=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * metrics_mod._SCAN_BYTES


class TestCoverage:
    def test_generated_equals_real(self):
        pts = np.random.default_rng(1).standard_normal((20, 3))
        assert coverage(fs(pts), fs(pts, "generated"), k=3) == 1.0

    def test_far_generated_point_covers_nothing(self):
        pts = np.random.default_rng(2).standard_normal((10, 2))
        far = fs([[1e6, 1e6]], "generated")
        assert coverage(fs(pts), far, k=2) == 0.0

    def test_accelerated_equals_brute_force(self):
        rng = np.random.default_rng(3)
        real = rng.standard_normal((30, 2))
        gen = rng.standard_normal((20, 2))
        assert coverage(fs(real), fs(gen, "generated"), k=3) == coverage_brute(real, gen, 3)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(4)
        real = fs(rng.standard_normal((40, 2)))
        gen = fs(rng.standard_normal((15, 2)), "generated")
        values = [coverage(real, gen, k) for k in range(1, 11)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_duplicated_generated_points_do_not_increase(self):
        rng = np.random.default_rng(5)
        real = fs(rng.standard_normal((25, 2)))
        gen = rng.standard_normal((10, 2))
        doubled = fs(np.vstack([gen, gen]), "generated")
        assert coverage(real, doubled, k=3) == coverage(real, fs(gen, "generated"), k=3)


class TestRetrievalScore:
    def test_identity_retrieval(self):
        pts = np.random.default_rng(6).standard_normal((12, 2))
        assert irs(fs(pts, "generated"), fs(pts)) == 1.0

    def test_single_generated_point(self):
        ref = fs(np.random.default_rng(7).standard_normal((10, 2)))
        gen = fs(ref.vectors[4:5], "generated")
        assert irs(gen, ref) == 0.1

    def test_retrieved_id_sets_equal_brute_force(self):
        rng = np.random.default_rng(8)
        gen = rng.standard_normal((25, 2))
        ref = rng.standard_normal((40, 2))
        accel = retrieval_ids(fs(gen, "generated"), fs(ref))
        brute = retrieval_brute(gen, ref)
        assert list(accel) == brute
        assert irs(fs(gen, "generated"), fs(ref)) == irs_brute(gen, ref)

    def test_duplicates_do_not_increase(self):
        rng = np.random.default_rng(9)
        gen = rng.standard_normal((8, 2))
        ref = fs(rng.standard_normal((20, 2)))
        assert irs(fs(np.vstack([gen, gen]), "generated"), ref) == irs(fs(gen, "generated"), ref)

    def test_superset_of_reference_scores_one(self):
        rng = np.random.default_rng(20)
        ref = rng.standard_normal((15, 2))
        gen = np.vstack([ref, rng.standard_normal((5, 2)) + 10.0])
        assert irs(fs(gen, "generated"), fs(ref)) == 1.0

    def test_empty_sets_rejected(self):
        pts = fs([[0.0, 1.0]])
        with pytest.raises(InsufficientDataError):
            irs(FeatureSet(np.empty((0, 2)), np.empty(0, dtype=int), "generated"), pts)

    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(st.integers(0, 9), min_size=1, max_size=40), extra=st.integers(0, 5))
    @example(ids=[4], extra=0)
    def test_irs_counts_distinct_ids_as_np_unique_does(self, ids, extra):
        # a sort and a neighbour compare in place of np.unique; ties and one row
        nearest, ref = np.array(ids), np.arange(10 + extra)
        value = metrics_mod._irs(nearest, ref)
        assert type(value) is float
        assert value == len(np.unique(nearest)) / len(ref)


class TestAdjustedScore:
    def test_train_equals_test(self):
        pts = np.random.default_rng(10).standard_normal((15, 2))
        gen = fs(np.random.default_rng(11).standard_normal((10, 2)), "generated")
        ref = fs(pts)
        assert irs_adjusted(gen, ref, fs(pts, "test")) == 1.0

    def test_memorization_not_rewarded(self):
        # generated memorizes train exactly; the test blob sits elsewhere
        train = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
        test = train + np.array([5.0, 0.0])
        gen = fs(train, "generated")
        value = irs_adjusted(gen, fs(train, "train"), fs(test, "test"))
        # train score 1.0; test 1-NN sets hand-verified: ids {0, 2} -> 0.5
        assert value == pytest.approx(0.5)
        assert value < 1.0

    def test_tiny_sets_hand_computed(self):
        train = fs([[0.0], [1.0], [2.0]], "train")
        test = fs([[0.1], [1.1], [5.0]], "test")
        gen = fs([[0.0], [0.9], [1.9]], "generated")
        # train 1-NNs: 0, 1, 2 -> 3/3; test 1-NNs: 0.1, 1.1, 1.1 -> 2/3
        assert irs(gen, train) == 1.0
        assert irs(gen, test) == pytest.approx(2 / 3)
        assert irs_adjusted(gen, train, test) == pytest.approx(2 / 3)

    def test_zero_train_score_is_undefined_not_zero(self):
        with pytest.raises(UndefinedMetricError):
            adjusted_score(0.5, 0.0)


class TestFrechet:
    def test_identical_sets(self):
        pts = np.random.default_rng(12).standard_normal((30, 4))
        assert frechet_distance(fs(pts), fs(pts, "generated")) < 1e-8

    def test_one_dimensional_mean_shift(self):
        a = np.array([[0.0], [1.0], [-1.0], [0.5], [-0.5]])
        b = a + 3.0
        assert frechet_distance(fs(a), fs(b, "generated")) == pytest.approx(9.0, abs=1e-10)

    def test_diagonal_closed_form(self):
        mu_a, mu_b = np.array([0.0, 1.0]), np.array([2.0, -1.0])
        sa, sb = np.array([1.0, 2.0]), np.array([0.5, 1.5])
        A, B = diagonal_design(mu_a, sa), diagonal_design(mu_b, sb)
        expected = frechet_diagonal_closed_form(
            mu_a, diagonal_design_variance(sa, 2), mu_b, diagonal_design_variance(sb, 2)
        )
        assert frechet_distance(fs(A), fs(B, "generated")) == pytest.approx(expected, abs=1e-8)

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        a, b = fs(rng.standard_normal((25, 3))), fs(rng.standard_normal((30, 3)), "generated")
        assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), abs=1e-10)

    def test_matches_schur_sqrtm_reference(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((60, 4))
        b = rng.standard_normal((50, 4)) * 1.3 + 0.4
        mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
        ca, cb = np.cov(a, rowvar=False), np.cov(b, rowvar=False)
        root = scipy.linalg.sqrtm(ca @ cb)
        expected = float(((mu_a - mu_b) ** 2).sum() + np.trace(ca + cb - 2 * root.real))
        assert frechet_distance(fs(a), fs(b, "generated")) == pytest.approx(expected, abs=1e-10)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            frechet_distance(fs([[0.0, 1.0]]), fs([[1.0, 2.0], [3.0, 1.0]], "generated"))


class TestEvaluate:
    def test_single_class_per_class_equals_aggregate(self):
        rng = np.random.default_rng(15)
        train = fs(rng.standard_normal((20, 2)), "train", classes=np.zeros(20, dtype=int))
        test = fs(rng.standard_normal((10, 2)), "test", classes=np.zeros(10, dtype=int))
        gen = fs(rng.standard_normal((12, 2)), "generated", classes=np.zeros(12, dtype=int))
        report = evaluate(gen, train, test, k=3)
        row = report.per_class[0]
        assert row["coverage"] == report.coverage
        assert row["irs_train"] == report.irs_train
        assert row["irs_test"] == report.irs_test
        assert row["irs_adjusted"] == report.irs_adjusted
        assert row["frechet"] == report.frechet

    def test_class_at_precondition_boundary_is_skipped(self):
        rng = np.random.default_rng(16)
        k = 3
        train_cls = np.array([0] * 20 + [1] * k)  # class 1 has exactly k members
        train = fs(rng.standard_normal((23, 2)), "train", classes=train_cls)
        test = fs(rng.standard_normal((8, 2)), "test", classes=np.zeros(8, dtype=int))
        gen_cls = np.array([0] * 10 + [1] * 5)
        gen = fs(rng.standard_normal((15, 2)), "generated", classes=gen_cls)
        report = evaluate(gen, train, test, k=k)
        assert 1 in report.skipped and 1 not in report.per_class
        assert "k+1" in report.skipped[1]

    def test_macro_average_is_hand_mean(self):
        rng = np.random.default_rng(17)
        per = 12
        train_cls = np.repeat([0, 1, 2], per)
        train = fs(rng.standard_normal((3 * per, 2)) + train_cls[:, None] * 4.0, "train",
                   classes=train_cls)
        test_cls = np.repeat([0, 1, 2], 6)
        test = fs(rng.standard_normal((18, 2)) + test_cls[:, None] * 4.0, "test",
                  classes=test_cls)
        gen_cls = np.repeat([0, 1, 2], 8)
        gen = fs(rng.standard_normal((24, 2)) + gen_cls[:, None] * 4.0, "generated",
                 classes=gen_cls)
        report = evaluate(gen, train, test, k=3)
        for field in ("coverage", "irs_train", "irs_test", "irs_adjusted", "frechet"):
            values = [report.per_class[c][field] for c in (0, 1, 2)]
            assert report.macro[field] == pytest.approx(float(np.mean(values)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_aggregate_and_rows_equal_public_metrics_on_subsets(self, data):
        # rows drawn from a small pool of coarse points: duplicated rows and
        # tied 1-NN distances throughout; class 0 has exactly k+1 train
        # members (kept) and class 1 exactly k (skipped)
        k = data.draw(st.integers(1, 4), label="k")
        f_dim = data.draw(st.sampled_from([1, 2, 3, 8, 9, 17]), label="f_dim")
        n_cls = data.draw(st.integers(2, 4), label="n_cls")
        # one-row blocks, blocks of 24 floats, and the real budget
        budget = data.draw(st.sampled_from([8, 3 * 8 * 8, metrics_mod._SCAN_BYTES]),
                           label="budget")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        pool = rng.integers(-2, 3, size=(int(rng.integers(1, 8)), f_dim)) * 0.5

        def draw_set(tag, counts):
            cls = rng.permutation(np.repeat(np.arange(n_cls), counts))
            return fs(pool[rng.integers(0, len(pool), len(cls))], tag, classes=cls)

        train = draw_set("train", [k + 1, k] + [int(rng.integers(0, 10))
                                                 for _ in range(n_cls - 2)])
        gen = draw_set("generated", [int(rng.integers(1, 8))] + [int(rng.integers(0, 8))
                                                                for _ in range(n_cls - 1)])
        test = draw_set("test", [int(rng.integers(1, 6))] + [int(rng.integers(0, 6))
                                                            for _ in range(n_cls - 1)])
        with mock.patch.object(metrics_mod, "_SCAN_BYTES", budget):
            report = evaluate(gen, train, test, k=k)

        def expected(gen_c, train_c, test_c):
            row = {"coverage": coverage(train_c, gen_c, k), "irs_train": irs(gen_c, train_c),
                   "irs_test": None, "irs_adjusted": None, "frechet": None}
            if len(test_c) > 0:
                row["irs_test"] = irs(gen_c, test_c)
                row["irs_adjusted"] = irs_adjusted(gen_c, train_c, test_c)
            if len(gen_c) >= 2:
                row["frechet"] = frechet_distance(train_c, gen_c)
            return row

        assert {f: getattr(report, f) for f in expected(gen, train, test)} == expected(
            gen, train, test
        )
        assert "k+1" in report.skipped[1]
        # the shared 1-NN helper keeps the first of tied minima
        assert list(retrieval_ids(gen, train)) == retrieval_brute(gen.vectors, train.vectors)
        present = sorted(set(np.concatenate([gen.classes, train.classes, test.classes]).tolist()))
        assert sorted(set(report.per_class) | set(report.skipped)) == present
        for c in present:
            subsets = [s.subset(s.classes == c) for s in (gen, train, test)]
            if len(subsets[1]) < k + 1 or len(subsets[0]) == 0:
                assert c in report.skipped and c not in report.per_class
            else:
                assert report.per_class[c] == expected(*subsets)


def test_report_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    cls = np.repeat([0, 1], 10)
    train = fs(rng.standard_normal((20, 2)), "train", classes=cls)
    test = fs(rng.standard_normal((20, 2)), "test", classes=cls)
    gen = fs(rng.standard_normal((20, 2)), "generated", classes=cls)
    report = evaluate(gen, train, test, k=3)
    text = report.to_json()
    assert text == evaluate(gen, train, test, k=3).to_json()
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0].startswith("class,coverage")

    report.frechet = float("nan")
    with pytest.raises(ValueError):
        report.to_json()

    path = tmp_path / "gen.txt"
    save_samples(path, gen.vectors, cls)
    loaded = load_features(path, tag="generated")
    assert np.array_equal(loaded.vectors, gen.vectors)
    assert np.array_equal(loaded.classes, cls)
