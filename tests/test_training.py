import copy
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import tailflow.seeding as seeding
import tailflow.training as training
from oracles import mean_pairwise_conflict_brute

from tailflow.datagen import ClassSpec, chest_longtail_specs, generate_corpus, tail8_specs
from tailflow.errors import ContractViolationError, DegenerateInputError
from tailflow.model import (
    BackboneConfig,
    ModelState,
    flow_matching_loss,
    init_adapters,
    init_backbone,
    sgd_step,
)
from tailflow.partition import (
    label_tier_partition,
    random_partition,
    single_partition,
)
from tailflow.seeding import derive_seed, rng_for
from tailflow.training import (
    UtilizationLedger,
    assemble_batch,
    measure_conflict_reduction,
    pretrain_backbone,
    train,
)

BB = BackboneConfig(data_dim=2, hidden_dim=16, num_blocks=2, cond_dim=16, time_embed_dim=8)


def make_state(corpus, num_experts=4, adapter_dim=8, pretrain=60, seed=0, config=BB):
    state = ModelState(config=config, backbone=init_backbone(config, seed), adapters=None,
                       frozen=False)
    state = pretrain_backbone(state, corpus, pretrain, 8, 0.01, seed)
    state.adapters = init_adapters(config, num_experts, adapter_dim, "all", "gelu", seed)
    return state


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(chest_longtail_specs(600), 2, seed=5)


@pytest.fixture(scope="module")
def partition(corpus):
    return label_tier_partition(corpus, 4)


class TestAssembleBatch:
    def test_resampled_batches_cover_every_expert(self, corpus, partition):
        rng = rng_for(0, "batches")
        ledger = UtilizationLedger.empty(4)
        for _ in range(1000):
            batch = assemble_batch(corpus, partition, 8, True, 3, rng, ledger)
            ledger.add(batch.experts)
            assert len(set(batch.experts.tolist())) == 4
            assert sum(batch.resampled_flags) <= 3
            assert len(batch.samples) == 8

    def test_batch_size_equal_to_experts_forces_one_each(self, corpus, partition):
        rng = rng_for(1, "batches")
        for _ in range(50):
            batch = assemble_batch(corpus, partition, 4, True, 3, rng, None)
            assert sorted(batch.experts.tolist()) == [0, 1, 2, 3]

    def test_uniform_draws_match_multinomial_law(self):
        # chi-square against uniform over samples
        small = generate_corpus(tail8_specs(40), 2, seed=2)
        part = single_partition(small)
        rng = rng_for(3, "batches")
        counts = np.zeros(len(small))
        draws = 0
        for _ in range(2000):
            batch = assemble_batch(small, part, 8, False, 0, rng)
            np.add.at(counts, batch.samples, 1)
            draws += 8
        expected = draws / len(small)
        stat = float(((counts - expected) ** 2 / expected).sum())
        p = scipy.stats.chi2.sf(stat, df=len(small) - 1)
        assert p > 0.001

    def test_resample_needs_batch_at_least_experts(self, corpus, partition):
        with pytest.raises(ValueError):
            assemble_batch(corpus, partition, 3, True, 3, rng_for(0, "b"), None)

    def test_quota_cannot_exceed_batch(self, corpus, partition):
        with pytest.raises(ValueError):
            assemble_batch(corpus, partition, 4, True, 5, rng_for(0, "b"), None)

    def test_empty_cluster_turn_is_skipped_with_warning(self, corpus):
        # partition with a structurally empty expert
        part = label_tier_partition(corpus, 4)
        forced = part.assignments.copy()
        forced[forced == 2] = 1
        from tailflow.partition import Partition

        lopsided = Partition(assignments=forced, num_experts=4, method="random")
        rng = rng_for(4, "batches")
        with pytest.warns(RuntimeWarning, match="empty expert cluster"):
            batch = assemble_batch(corpus, lopsided, 8, True, 3, rng, None)
        present = set(batch.experts.tolist())
        assert 2 not in present
        assert {0, 1, 3} <= present


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 5), data=st.data())
def test_ledger_matches_brute_force_counts(k, data):
    batches = data.draw(st.lists(st.lists(st.integers(0, k - 1), max_size=9), max_size=6))
    ledger = UtilizationLedger.empty(k)
    seen: list[int] = []
    for batch in [[], *batches]:  # an empty batch first: the empty ledger is checked too
        ledger.add(np.array(batch, dtype=np.int64))
        seen += batch
        counts = [seen.count(e) for e in range(k)]
        pct = {e: 100.0 * counts[e] / len(seen) if seen else 0.0 for e in range(k)}
        assert ledger.counts.tolist() == counts and ledger.total == len(seen)
        assert ledger.percentages() == pct
        assert ledger.gap() == max(pct.values()) - min(pct.values())


class TestTrain:
    def test_zero_steps_is_noop(self, corpus, partition):
        state = make_state(corpus)
        out, ledger, traces = train(state, corpus, partition, steps=0, batch_size=8,
                                    resample=False, lr=0.05, seed=0)
        assert ledger.total == 0 and traces == []
        assert np.array_equal(state.adapters.w1, out.adapters.w1)
        assert np.array_equal(state.adapters.w2, out.adapters.w2)

    def test_ledger_conservation_and_determinism(self, corpus, partition):
        state = make_state(corpus)
        out1, led1, tr1 = train(state, corpus, partition, steps=40, batch_size=8,
                                resample=True, lr=0.05, seed=7, trace_interval=20)
        out2, led2, tr2 = train(state, corpus, partition, steps=40, batch_size=8,
                                resample=True, lr=0.05, seed=7, trace_interval=20)
        assert led1.total == 40 * 8
        assert np.array_equal(led1.counts, led2.counts)
        assert np.array_equal(out1.adapters.w1, out2.adapters.w1)
        assert np.array_equal(out1.adapters.w2, out2.adapters.w2)
        assert len(tr1) == 2
        for a, b in zip(tr1, tr2):
            assert a.step == b.step
            assert a.per_cluster_conflict == b.per_cluster_conflict
            assert a.cross_cluster_conflict == b.cross_cluster_conflict
            assert all(0.0 <= v <= 2.0 for v in a.per_cluster_conflict)
            assert 0.0 <= a.cross_cluster_conflict <= 2.0

    def test_backbone_stays_bit_identical(self, corpus, partition):
        state = make_state(corpus)
        before = {k: v.copy() for k, v in state.backbone.items()}
        out, _, _ = train(state, corpus, partition, steps=30, batch_size=8,
                          resample=False, lr=0.05, seed=1)
        for k in before:
            assert np.array_equal(before[k], out.backbone[k])

    def test_utilization_follows_cluster_shares_without_resampling(self, corpus, partition):
        # the healthy-dominated expert takes the lion's share (~61%)
        state = make_state(corpus)
        _, ledger, _ = train(state, corpus, partition, steps=250, batch_size=8,
                             resample=False, lr=0.05, seed=3)
        pct = ledger.percentages()
        shares = {k: partition.expert_sizes()[k] / len(corpus) * 100 for k in range(4)}
        assert max(pct, key=pct.get) == 3
        assert pct[3] > 50.0
        for k in range(4):
            assert abs(pct[k] - shares[k]) < 6.0

    def test_resampling_shrinks_utilization_gap(self, corpus, partition):
        state = make_state(corpus)
        _, led_off, _ = train(state, corpus, partition, steps=150, batch_size=8,
                              resample=False, lr=0.05, seed=4)
        _, led_on, _ = train(state, corpus, partition, steps=150, batch_size=8,
                             resample=True, lr=0.05, seed=4)
        assert led_on.gap() < led_off.gap()

    def test_step_seeds_come_block_by_block_as_derive_seed_gives_them(
        self, corpus, partition, monkeypatch
    ):
        # 10 steps in blocks of 3: three whole blocks and a partial one
        monkeypatch.setattr(seeding, "BLOCK", 3)
        state = make_state(corpus)
        out, ledger, _ = train(state, corpus, partition, steps=10, batch_size=8,
                               resample=True, lr=0.05, seed=7)
        ref = replace(state, adapters=copy.deepcopy(state.adapters))
        ref_ledger = UtilizationLedger.empty(partition.num_experts)
        rng = rng_for(7, "batches")
        for step in range(10):
            batch = assemble_batch(corpus, partition, 8, True, 3, rng, ref_ledger)
            _, grads = flow_matching_loss(
                ref, batch, seed=derive_seed(7, "loss", step), cond_dropout=0.1
            )
            training.sgd_step(ref, grads, 0.05)
            ref_ledger.add(batch.experts)
        assert np.array_equal(out.adapters.w1, ref.adapters.w1)
        assert np.array_equal(out.adapters.w2, ref.adapters.w2)
        assert np.array_equal(ledger.counts, ref_ledger.counts)

    def test_requires_frozen_backbone_and_adapters(self, corpus, partition):
        state = make_state(corpus)
        state.frozen = False
        with pytest.raises(ContractViolationError):
            train(state, corpus, partition, 1, 8, False, 0.05, 0)
        bare = ModelState(config=BB, backbone=init_backbone(BB, 0), adapters=None, frozen=True)
        with pytest.raises(ContractViolationError):
            train(bare, corpus, partition, 1, 8, False, 0.05, 0)


    @pytest.mark.parametrize("placement, nonlinearity, experts, cond_dropout, resample, steps", [
        ("all", "gelu", 3, 0.1, False, 21),
        ("last:1", "gelu", 3, 0.0, True, 37),
        ("1", "relu", 3, 0.1, True, 16),
        ("all", "relu", 1, 0.0, False, 17),
        ("1", "gelu", 1, 0.1, True, 5),
        ("none", "gelu", 3, 0.1, False, 3),
    ])
    def test_train_equals_the_public_per_step_loop(
        self, corpus, placement, nonlinearity, experts, cond_dropout, resample, steps
    ):
        # three blocks: "1" adapts the middle one, "last:1" the top one; step
        # counts that are and are not whole blocks of training.STEP_BLOCK
        three = replace(BB, num_blocks=3)
        part = single_partition(corpus) if experts == 1 else random_partition(corpus, 3, seed=1)
        state = make_state(corpus, pretrain=20, config=three)
        state.adapters = init_adapters(three, experts, 4, placement, nonlinearity, seed=6)
        out, ledger, traces = train(state, corpus, part, steps, 8, resample, 0.05, seed=11,
                                    cond_dropout=cond_dropout, trace_interval=10)
        ref = replace(state, adapters=copy.deepcopy(state.adapters))
        ref_ledger = UtilizationLedger.empty(part.num_experts)
        rng = rng_for(11, "batches")
        for step in range(steps):
            batch = assemble_batch(corpus, part, 8, resample, 3, rng, ref_ledger)
            _, grads = flow_matching_loss(ref, batch, seed=derive_seed(11, "loss", step),
                                          cond_dropout=cond_dropout)
            sgd_step(ref, grads, 0.05)
            ref_ledger.add(batch.experts)
        assert out.adapters.w1.tobytes() == ref.adapters.w1.tobytes()
        assert out.adapters.w2.tobytes() == ref.adapters.w2.tobytes()
        assert np.array_equal(ledger.counts, ref_ledger.counts)
        assert [trace.step for trace in traces] == list(range(10, steps + 1, 10))

    @pytest.mark.parametrize("steps, batch_size, name", [
        (5, 0, "batch_size"), (5, -3, "batch_size"), (-1, 8, "steps"),
    ])
    def test_bad_step_and_batch_arguments_are_refused_first(
        self, corpus, partition, monkeypatch, steps, batch_size, name
    ):
        # a batch size of 0 used to report "diverged: loss nan at step 0", and
        # negative steps returned the untrained adapters
        state = make_state(corpus, pretrain=1)
        bare = ModelState(config=BB, backbone=init_backbone(BB, 0), adapters=None, frozen=False)

        def no_batches(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(training, "assemble_batch", no_batches)
        with pytest.raises(ValueError, match=f"^{name} must be "):
            train(state, corpus, partition, steps, batch_size, False, 0.05, 0)
        with pytest.raises(ValueError, match=f"^{name} must be "):
            pretrain_backbone(bare, corpus, steps, batch_size, 0.01, 0)


class TestPretrain:
    def test_pretraining_updates_backbone_then_freezes(self, corpus):
        state = ModelState(config=BB, backbone=init_backbone(BB, 9), adapters=None, frozen=False)
        before = {k: v.copy() for k, v in state.backbone.items()}
        out = pretrain_backbone(state, corpus, steps=20, batch_size=8, lr=0.01, seed=2)
        assert out.frozen
        assert any(not np.array_equal(before[k], out.backbone[k]) for k in before)
        # the input state is untouched
        assert all(np.array_equal(before[k], state.backbone[k]) for k in before)

    def test_step_seeds_come_block_by_block_as_derive_seed_gives_them(self, corpus, monkeypatch):
        monkeypatch.setattr(seeding, "BLOCK", 4)
        state = ModelState(config=BB, backbone=init_backbone(BB, 9), adapters=None, frozen=False)
        out = pretrain_backbone(state, corpus, steps=9, batch_size=8, lr=0.01, seed=2)
        ref = replace(state, backbone={k: v.copy() for k, v in state.backbone.items()})
        part = single_partition(corpus)
        rng = rng_for(2, "batches")
        for step in range(9):
            batch = assemble_batch(corpus, part, 8, False, 0, rng, None)
            _, grads = flow_matching_loss(
                ref, batch, seed=derive_seed(2, "loss", step), cond_dropout=0.1
            )
            training.sgd_step(ref, grads, 0.01)
        for k in state.backbone:
            assert np.array_equal(out.backbone[k], ref.backbone[k])

    @pytest.mark.parametrize("steps, cond_dropout", [(37, 0.1), (16, 0.0)])
    def test_pretraining_equals_the_public_per_step_loop(self, corpus, steps, cond_dropout):
        state = ModelState(config=BB, backbone=init_backbone(BB, 9), adapters=None, frozen=False)
        out = pretrain_backbone(state, corpus, steps, 8, 0.01, seed=2, cond_dropout=cond_dropout)
        ref = replace(state, backbone={k: v.copy() for k, v in state.backbone.items()})
        part = single_partition(corpus)
        rng = rng_for(2, "batches")
        for step in range(steps):
            batch = assemble_batch(corpus, part, 8, False, 0, rng, None)
            _, grads = flow_matching_loss(ref, batch, seed=derive_seed(2, "loss", step),
                                          cond_dropout=cond_dropout)
            sgd_step(ref, grads, 0.01)
        for k in state.backbone:
            assert out.backbone[k].tobytes() == ref.backbone[k].tobytes()

    def test_rejects_adapters(self, corpus):
        state = make_state(corpus)
        with pytest.raises(ContractViolationError):
            pretrain_backbone(state, corpus, 5, 8, 0.01, 0)


class TestConflictMeasurement:
    def test_single_partition_equals_global_mean(self, corpus):
        state = make_state(corpus, pretrain=40)
        single = single_partition(corpus)
        # the single-expert control routes every sample to expert 0
        assert single.num_experts == 1 and np.all(single.assignments == 0)
        [score] = measure_conflict_reduction(state, corpus, [single],
                                             probe_size=len(corpus), seed=0)
        # with the probe covering the whole corpus, the single cluster's
        # value is the global mean pairwise conflict by definition
        assert score.per_cluster[0] == score.overall
        assert score.pair_count == len(corpus) * (len(corpus) - 1) // 2

    def test_identical_samples_have_zero_conflict(self):
        specs = [ClassSpec(0, (1.0, 1.0), 1e-12, 4, True)]
        tiny = generate_corpus(specs, 2, seed=0, noise_scale=0.0)
        tiny.x[:] = 1.0
        state = make_state(tiny, num_experts=1, pretrain=30)
        [score] = measure_conflict_reduction(state, tiny, [single_partition(tiny)],
                                             probe_size=4, seed=1)
        assert score.overall == pytest.approx(0.0, abs=1e-12)

    def test_label_partition_conflict_below_random_over_ten_seeds(self, corpus, partition):
        state = make_state(corpus, pretrain=60)
        for seed in range(10):
            rnd = random_partition(corpus, 4, seed=seed)
            label_score, random_score = measure_conflict_reduction(
                state, corpus, [partition, rnd], probe_size=8, seed=seed
            )
            assert label_score.overall < random_score.overall

    def test_conflict_trace_matches_brute_force(self, corpus, monkeypatch):
        # random stand-in gradient rows; cluster 3 has a single member
        assignments = np.arange(len(corpus)) % 3
        assignments[0] = 3
        part = label_tier_partition(corpus, 4)
        part.assignments = assignments
        row_id = {row.tobytes(): i for i, row in enumerate(corpus.x)}
        assert len(row_id) == len(corpus)  # each data row names its sample
        drawn = {"ids": [], "rows": []}

        def fake_rows(probe, x1, cond, t_draws, x0_draws):
            rows = rng_for(0, "fake-rows", len(drawn["rows"])).standard_normal((len(x1), 5))
            drawn["ids"].extend(row_id[row.tobytes()] for row in x1)
            drawn["rows"].append(rows)
            return rows

        monkeypatch.setattr(training, "per_sample_probe_gradients", fake_rows)
        trace = training._conflict_trace(None, corpus, part, 1, 6, None, None, seed=0)
        ids, rows = np.array(drawn["ids"]), np.concatenate(drawn["rows"])
        labels = assignments[ids]
        for k in range(3):
            assert trace.per_cluster_conflict[k] == pytest.approx(
                mean_pairwise_conflict_brute(rows[labels == k]), abs=1e-12
            )
        assert trace.per_cluster_conflict[3] == 0.0
        cross = [
            1.0 - rows[i] @ rows[j] / (np.linalg.norm(rows[i]) * np.linalg.norm(rows[j]))
            for i in range(len(ids)) for j in range(i + 1, len(ids)) if labels[i] != labels[j]
        ]
        assert trace.cross_cluster_conflict == pytest.approx(np.mean(cross), abs=1e-12)

    def test_zero_probe_gradient_is_degenerate(self, corpus, partition, monkeypatch):
        def zero_rows(probe, x1, cond, t_draws, x0_draws):
            return np.zeros((len(x1), 5))

        state = make_state(corpus, pretrain=1)
        monkeypatch.setattr(training, "per_sample_probe_gradients", zero_rows)
        with pytest.raises(DegenerateInputError, match="probe gradient"):
            measure_conflict_reduction(state, corpus, [partition], probe_size=4, seed=0)

    def test_a_score_does_not_depend_on_the_partitions_before_it(self, corpus, partition):
        # the default config's backbone width, at which a gradient row's last
        # bits depend on the other rows of its batch
        wide = BackboneConfig(data_dim=2, hidden_dim=32, num_blocks=2, cond_dim=16,
                              time_embed_dim=8)
        state = make_state(corpus, pretrain=40, config=wide)
        single = single_partition(corpus)
        for seed in range(5):
            rnd = random_partition(corpus, 4, seed=seed)
            after_label = measure_conflict_reduction(state, corpus, [partition, rnd],
                                                     probe_size=64, seed=seed)[1]
            after_single = measure_conflict_reduction(state, corpus, [single, rnd],
                                                      probe_size=64, seed=seed)[1]
            assert after_label == after_single  # per-cluster values and overall, bit for bit

    @pytest.mark.parametrize("probe_size", [1, 0, -3])
    def test_a_probe_without_pairs_is_rejected(self, corpus, partition, probe_size):
        state = make_state(corpus, pretrain=1)
        with pytest.raises(ValueError, match=f"probe_size must be >= 2.*got {probe_size}"):
            measure_conflict_reduction(state, corpus, [partition], probe_size=probe_size)

    def test_scores_are_deterministic(self, corpus, partition):
        state = make_state(corpus)
        a = measure_conflict_reduction(state, corpus, [partition], probe_size=6, seed=3)
        b = measure_conflict_reduction(state, corpus, [partition], probe_size=6, seed=3)
        assert a[0].overall == b[0].overall
        assert a[0].per_cluster == b[0].per_cluster
