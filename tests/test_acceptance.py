"""Acceptance gate: ten criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines. Every
tolerance is pinned here; nothing is deferred to later calibration. The
heavy end-to-end criteria (7, 8) each finish well inside their stated
budgets on commodity hardware.
"""

import itertools
import time
import warnings
from dataclasses import replace

import numpy as np
import scipy.stats

import tailflow.training as training_mod
from oracles import (
    coverage_brute,
    diagonal_design,
    diagonal_design_variance,
    euler_reference,
    frechet_diagonal_closed_form,
    irs_brute,
    knn_radius_brute,
    partition_objective_brute,
    retrieval_brute,
)
from tailflow.config import ExperimentConfig
from tailflow.datagen import blob_specs, chest_longtail_specs, generate_corpus, tail8_specs
from tailflow.metrics import (
    FeatureSet,
    coverage,
    evaluate,
    frechet_distance,
    irs,
    knn_radii,
    knn_radius,
    retrieval_ids,
)
from tailflow.model import (
    BackboneConfig,
    ModelState,
    flow_matching_loss,
    init_adapters,
    init_backbone,
    model_forward,
    sample_batch,
    sgd_step,
)
from tailflow.partition import (
    bisecting_kmeans_partition,
    label_tier_partition,
    partition_conflict,
    random_partition,
    single_partition,
)
from tailflow.pipeline import fine_tune, pretrained_backbone, run_pipeline, sample_classes
from tailflow.seeding import derive_seed, rng_for
from tailflow.training import assemble_batch, measure_conflict_reduction, pretrain_backbone


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {status} - {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def fs(vectors, tag="real", classes=None):
    return FeatureSet(np.atleast_2d(np.asarray(vectors, dtype=np.float64)),
                      np.arange(len(vectors)), tag, classes)


def test_criterion_1_metric_oracle_equivalence():
    started = time.perf_counter()
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        f_dim = int(rng.integers(2, 9))
        n_real = int(rng.integers(60, 121))
        n_gen = int(rng.integers(40, 81))
        real = rng.standard_normal((n_real, f_dim))
        gen = rng.standard_normal((n_gen, f_dim))
        k = int(rng.integers(1, 6))

        real_fs, gen_fs = fs(real), fs(gen, "generated")
        radii = knn_radii(real_fs, k)
        ok &= all(radii[i] == knn_radius_brute(real[i], real, k, exclude=i)
                  for i in range(n_real))
        ok &= knn_radius(real[3], real_fs, k) == radii[3]
        ok &= coverage(real_fs, gen_fs, k) == coverage_brute(real, gen, k)
        ok &= list(retrieval_ids(gen_fs, real_fs)) == retrieval_brute(gen, real)
        ok &= irs(gen_fs, real_fs) == irs_brute(gen, real)

        mu_a = rng.standard_normal(f_dim)
        mu_b = rng.standard_normal(f_dim)
        sa = rng.uniform(0.5, 2.0, f_dim)
        sb = rng.uniform(0.5, 2.0, f_dim)
        got = frechet_distance(fs(diagonal_design(mu_a, sa)),
                               fs(diagonal_design(mu_b, sb), "generated"))
        want = frechet_diagonal_closed_form(
            mu_a, diagonal_design_variance(sa, f_dim),
            mu_b, diagonal_design_variance(sb, f_dim),
        )
        ok &= abs(got - want) < 1e-8
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    report(1, "metric oracle equivalence (exact; Frechet 1e-8)", ok, f"{elapsed:.1f}s")


def test_criterion_2_zero_init_identity():
    cfg = BackboneConfig(data_dim=3, hidden_dim=16, num_blocks=4, cond_dim=8,
                         time_embed_dim=4)
    backbone = init_backbone(cfg, 0)
    backbone["w_out"] = rng_for(0, "head").standard_normal((3, 16)) / 4.0
    bare = ModelState(config=cfg, backbone=backbone, adapters=None, frozen=True)
    rng = rng_for(1, "inputs")
    X = rng.standard_normal((100, 3))
    T = rng.uniform(0, 1, 100)
    C = rng.standard_normal((100, 8))
    base = model_forward(bare, X, T, C)
    ok = True
    for placement, width in (("all", 4), ("last:1", 32)):
        stack = init_adapters(cfg, 3, width, placement, "gelu", seed=2)
        state = ModelState(config=cfg, backbone=backbone, adapters=stack, frozen=True)
        for expert in range(3):
            out = model_forward(state, X, T, C, np.full(100, expert))
            ok &= np.array_equal(out, base)
    report(2, "zero-init adapters reproduce the frozen backbone bit-exactly", ok)


def test_criterion_3_gradient_isolation():
    corpus = generate_corpus(tail8_specs(400), 2, seed=3)
    part = label_tier_partition(corpus, 4)
    cfg = BackboneConfig(data_dim=2, hidden_dim=16, num_blocks=2, cond_dim=16,
                         time_embed_dim=8)
    state = ModelState(config=cfg, backbone=init_backbone(cfg, 4), adapters=None,
                       frozen=False)
    state = pretrain_backbone(state, corpus, 40, 8, 0.01, seed=4)
    state.adapters = init_adapters(cfg, 4, 6, "all", "gelu", seed=5)
    state.adapters.w2 = rng_for(6, "w2").standard_normal(state.adapters.w2.shape) * 0.1
    before = {k: v.copy() for k, v in state.backbone.items()}

    ok = True
    batch_rng = rng_for(7, "batches")
    for _ in range(50):
        batch = assemble_batch(corpus, part, 6, False, 0, batch_rng)
        present = set(batch.experts.tolist())
        _, grads = flow_matching_loss(state, batch, seed=8)
        ok &= grads.backbone is None
        for k in range(4):
            if k in present:
                continue
            ok &= bool(np.all(grads.w1[k] == 0.0))
            ok &= bool(np.all(grads.w2[k] == 0.0))
        sgd_step(state, grads, lr=0.01)
    ok &= all(np.array_equal(before[k], state.backbone[k]) for k in before)
    report(3, "absent-expert adapter gradients and frozen-backbone updates exactly zero", ok)


def test_criterion_4_gradient_correctness():
    cfg = BackboneConfig(data_dim=3, hidden_dim=8, num_blocks=2, cond_dim=4,
                         time_embed_dim=4)
    state = ModelState(config=cfg, backbone=init_backbone(cfg, 9),
                       adapters=init_adapters(cfg, 2, 6, "all", "gelu", 9), frozen=True)
    state.backbone["w_out"] = rng_for(9, "head").standard_normal((3, 8)) / 3.0
    state.adapters.w2 = rng_for(9, "w2").standard_normal(state.adapters.w2.shape) * 0.2

    from tailflow.datagen import ClassSpec

    specs = [ClassSpec(0, (0.0, 0.0, 0.0), 1.0, 4, True),
             ClassSpec(1, (2.0, 0.0, 0.0), 1.0, 4)]
    corpus = generate_corpus(specs, 3, 10, embedding_dim=4, noise_scale=0.1)
    part = random_partition(corpus, 2, seed=11)
    batch = assemble_batch(corpus, part, 5, False, 0, rng_for(12, "b"))

    seed = 13
    _, grads = flow_matching_loss(state, batch, seed=seed)
    h = 1e-5
    worst = 0.0
    for slot in np.ndindex(grads.w1.shape[:2]):
        for name in ("w1", "w2"):
            p = getattr(state.adapters, name)[slot]
            analytic = getattr(grads, name)[slot]
            for idx in itertools.product(range(0, p.shape[0], 3), range(0, p.shape[1], 3)):
                orig = p[idx]
                p[idx] = orig + h
                lp, _ = flow_matching_loss(state, batch, seed=seed)
                p[idx] = orig - h
                lm, _ = flow_matching_loss(state, batch, seed=seed)
                p[idx] = orig
                fd = (lp - lm) / (2 * h)
                if max(abs(fd), abs(analytic[idx])) > 1e-12:
                    worst = max(worst, abs(fd - analytic[idx]) / max(abs(fd), abs(analytic[idx])))
    report(4, "analytic gradients match central finite differences (< 1e-4)", worst < 1e-4,
           f"max rel err {worst:.2e}")


def test_criterion_5_conflict_reduction_premise():
    corpus = generate_corpus(chest_longtail_specs(2000), 2, seed=14)
    cfg = BackboneConfig(data_dim=2, hidden_dim=32, num_blocks=2, cond_dim=16,
                         time_embed_dim=8)
    state = ModelState(config=cfg, backbone=init_backbone(cfg, 15), adapters=None,
                       frozen=False)
    state = pretrain_backbone(state, corpus, 100, 8, 0.01, seed=15)
    label = label_tier_partition(corpus, 4)

    wins = 0
    for seed in range(10):
        rnd = random_partition(corpus, 4, seed=seed)
        label_score, random_score = measure_conflict_reduction(
            state, corpus, [label, rnd], probe_size=8, seed=seed
        )
        wins += label_score.overall < random_score.overall

    zero_noise = generate_corpus(chest_longtail_specs(400), 2, seed=16, noise_scale=0.0)
    km = bisecting_kmeans_partition(zero_noise, zero_noise.num_classes)
    cls = zero_noise.class_ids()
    pure = all(len({int(c) for c in cls[km.members(k)]}) == 1 for k in range(km.num_experts))
    ok = wins == 10 and pure
    report(5, "label partition beats random on gradient conflict 10/10; "
              "zero-noise bisecting k-means recovers classes", ok, f"wins {wins}/10")


def test_criterion_6_bisection_monotonicity_and_optimum():
    noisy = generate_corpus(chest_longtail_specs(500), 2, seed=17, noise_scale=0.15)
    _, history = bisecting_kmeans_partition(noisy, 6, return_history=True)
    monotone = all(history[i + 1] <= history[i] + 1e-12 for i in range(len(history) - 1))

    blobs = generate_corpus(blob_specs(4, 6), 2, seed=18)
    part, hist4 = bisecting_kmeans_partition(blobs, 4, return_history=True)
    monotone &= all(hist4[i + 1] <= hist4[i] + 1e-12 for i in range(len(hist4) - 1))
    emb = blobs.embedding_matrix()
    cls = blobs.class_ids()
    best = min(
        partition_objective_brute(emb, np.array([assign[c] for c in cls]), 4)
        for assign in itertools.product(range(4), repeat=4)
    )
    achieved = partition_conflict(blobs, part).overall
    ok = monotone and abs(achieved - best) < 1e-12
    report(6, "bisection objective non-increasing; 4-blob result equals brute-force optimum",
           ok, f"objective {achieved:.6f} vs optimum {best:.6f}")


_RUN_7 = ExperimentConfig(adapter_dim=8, train_pretrain_steps=200, train_steps=600,
                          train_lr=0.03, sample_guidance_scale=1.0)


def _resample_pair(seed: int, recorder):
    corpus = generate_corpus(chest_longtail_specs(2000), 2, seed=derive_seed(seed, "c"))
    part = label_tier_partition(corpus, 4)
    base = pretrained_backbone(_RUN_7, corpus, derive_seed(seed, "b"), derive_seed(seed, "p"))
    counts = [max(1, round(1200 * c.count / len(corpus))) for c in corpus.classes]
    train_feats = fs(corpus.x_matrix(), "train", corpus.class_ids())
    out = {}
    for resample in (False, True):
        recorder.active = resample
        trained, ledger, _ = fine_tune(replace(_RUN_7, train_resample=resample), base, corpus,
                                       part, derive_seed(seed, "a"), derive_seed(seed, "t"))
        recorder.active = False
        rows, classes = sample_classes(_RUN_7, trained, corpus, part, counts, seed, "s")
        gen = fs(rows, "generated", classes)
        out[resample] = (ledger.gap(), coverage(train_feats, gen, _RUN_7.metrics_k))
    return out


class _BatchRecorder:
    """Wraps assemble_batch to check the expert-presence guarantee on every
    resampled batch of the actual training runs."""

    def __init__(self):
        self.active = False
        self.violations = 0
        self.batches = 0

    def __call__(self, corpus, partition, batch_size, resample=False, quota=3,
                 rng=None, ledger=None):
        batch = assemble_batch(corpus, partition, batch_size, resample, quota, rng, ledger)
        if self.active and resample and batch_size >= partition.num_experts:
            self.batches += 1
            nonempty = {k for k in range(partition.num_experts)
                        if len(partition.members(k)) > 0}
            present = set(batch.experts.tolist())
            if not nonempty <= present:
                self.violations += 1
        return batch


def test_criterion_7_resampling_guarantees(monkeypatch):
    recorder = _BatchRecorder()
    monkeypatch.setattr(training_mod, "assemble_batch", recorder)
    gap_ok = band_ok = 0
    for seed in range(10):
        pair = _resample_pair(seed, recorder)
        gap_off, cov_off = pair[False]
        gap_on, cov_on = pair[True]
        gap_ok += gap_on < gap_off
        band_ok += cov_on >= cov_off - 0.02
    ok = recorder.violations == 0 and recorder.batches == 6000 and gap_ok == 10 and band_ok == 10
    report(7, "resampled batches cover every expert; utilization gap shrinks 10/10; "
              "coverage within 0.02 band 10/10", ok,
           f"batches {recorder.batches}, violations {recorder.violations}, "
           f"gap {gap_ok}/10, band {band_ok}/10")


_RUN_8 = ExperimentConfig(train_pretrain_steps=100, train_steps=2000, train_lr=0.03,
                          sample_steps=32, sample_guidance_scale=3.0, sample_per_class=200)


def _experts_vs_single(seed: int):
    corpus = generate_corpus(tail8_specs(2000), 2, seed=derive_seed(seed, "corpus"))
    test = generate_corpus(tail8_specs(2000), 2, seed=derive_seed(seed, "test"))
    base = pretrained_backbone(_RUN_8, corpus, derive_seed(seed, "bb"), derive_seed(seed, "pre"))
    train_feats = fs(corpus.x_matrix(), "train", corpus.class_ids())
    test_feats = fs(test.x_matrix(), "test", test.class_ids())
    out = {}
    param_counts = {}
    for arm, part, width in (("experts", label_tier_partition(corpus, 4), 8),
                             ("single", single_partition(corpus), 32)):
        cfg = replace(_RUN_8, adapter_dim=width)
        trained, _, _ = fine_tune(cfg, base, corpus, part, derive_seed(seed, "ad"),
                                  derive_seed(seed, "tr"))
        param_counts[arm] = trained.adapters.parameter_count()
        counts = [cfg.sample_per_class] * corpus.num_classes
        rows, classes = sample_classes(cfg, trained, corpus, part, counts, seed, "s")
        rep = evaluate(fs(rows, "generated", classes), train_feats, test_feats, k=cfg.metrics_k)
        tail_coverage = np.mean([rep.per_class[c]["coverage"] for c in (4, 5, 6, 7)])
        out[arm] = (float(tail_coverage), float(rep.irs_adjusted))
    assert param_counts["experts"] == param_counts["single"]
    return out


def _sign_test_p(diffs):
    diffs = [d for d in diffs if d != 0.0]
    wins = sum(d > 0 for d in diffs)
    if not diffs:
        return 1.0
    return float(scipy.stats.binomtest(wins, len(diffs), alternative="greater").pvalue)


def test_criterion_8_end_to_end_directional_gain():
    started = time.perf_counter()
    cov_diffs, irs_diffs = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for seed in range(10):
            r = _experts_vs_single(seed)
            cov_diffs.append(r["experts"][0] - r["single"][0])
            irs_diffs.append(r["experts"][1] - r["single"][1])
    elapsed = time.perf_counter() - started

    cov_median = float(np.median(cov_diffs))
    irs_median = float(np.median(irs_diffs))
    pooled_p = _sign_test_p(cov_diffs + irs_diffs)
    cov_p = _sign_test_p(cov_diffs)
    irs_p = _sign_test_p(irs_diffs)
    ok = cov_median > 0 and irs_median > 0 and pooled_p < 0.05 and elapsed < 600.0
    report(8, "tail coverage and adjusted retrieval medians improve; sign test p < 0.05",
           ok,
           f"cov med {cov_median:+.3f} (p={cov_p:.4f}), "
           f"irs med {irs_median:+.3f} (p={irs_p:.4f}), pooled p={pooled_p:.4f}, "
           f"{elapsed:.0f}s")


def test_criterion_9_cfg_collapse_and_default_scale():
    cfg = BackboneConfig(data_dim=2, hidden_dim=16, num_blocks=2, cond_dim=8,
                         time_embed_dim=4)
    state = ModelState(config=cfg, backbone=init_backbone(cfg, 19),
                       adapters=init_adapters(cfg, 2, 6, "all", "gelu", 19), frozen=True)
    state.backbone["w_out"] = rng_for(19, "head").standard_normal((2, 16)) / 4.0
    state.adapters.w2 = rng_for(19, "w2").standard_normal(state.adapters.w2.shape) * 0.1
    cond = rng_for(20, "cond").standard_normal(8)

    def euler_loop(c):
        # the pure trajectory: explicit Euler over model_forward, expert 1
        x0 = rng_for(21, "sample-noise").standard_normal((1, 2))
        return euler_reference(
            lambda x, t: model_forward(state, x, np.full(len(x), t), np.tile(c, (len(x), 1)),
                                       np.full(len(x), 1)),
            x0, 12,
        )

    exact_one = np.array_equal(sample_batch(state, cond, 1, 1.0, 12, 1, seed=21), euler_loop(cond))
    exact_zero = np.array_equal(
        sample_batch(state, cond, 1, 0.0, 12, 1, seed=21), euler_loop(np.zeros(8))
    )
    default_cfg = ExperimentConfig()
    from tailflow.config import parse_config_text

    parsed = ExperimentConfig.from_flat(parse_config_text(default_cfg.to_text()))
    scale_ok = parsed.sample_guidance_scale == 5.0
    scale5 = sample_batch(state, cond, 1, parsed.sample_guidance_scale, 12, 1, seed=21)
    scale_ok &= bool(np.isfinite(scale5).all())
    ok = exact_one and exact_zero and scale_ok
    report(9, "guidance 1/0 collapse exactly; default scale 5 parses and runs", ok)


def test_criterion_10_pipeline_determinism(tmp_path):
    cfg = ExperimentConfig(
        seeds=[42], corpus_size=200, corpus_test_size=120, train_pretrain_steps=60,
        train_steps=50, sample_per_class=6, sample_steps=8, metrics_k=3,
    )
    run_pipeline(cfg, tmp_path / "a")
    run_pipeline(cfg, tmp_path / "b")
    same = (tmp_path / "a" / "metrics.json").read_bytes() == (
        tmp_path / "b" / "metrics.json"
    ).read_bytes()
    same &= (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()
    report(10, "smoke pipeline reruns yield byte-identical metric reports", same)
