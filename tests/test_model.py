import dataclasses
import importlib.machinery
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailflow.metrics as metrics_mod
import tailflow.model as model_mod
import tailflow.training as training_mod
from oracles import euler_reference, forward_reference, probe_gradients_per_draw
from tailflow.datagen import ClassSpec, generate_corpus
from tailflow.errors import ContractViolationError
from tailflow.model import (
    BackboneConfig,
    ModelState,
    flow_matching_loss,
    init_adapters,
    init_backbone,
    load_checkpoint,
    model_forward,
    per_sample_probe_gradients,
    resolve_placement,
    sample_batch,
    save_checkpoint,
    sgd_step,
)
from tailflow.partition import random_partition
from tailflow.seeding import rng_for
from tailflow.training import assemble_batch


def small_state(num_experts=2, adapter_dim=6, placement="all", hidden=8, blocks=2,
                data_dim=3, cond_dim=4, zero_w2=True, seed=1):
    cfg = BackboneConfig(data_dim=data_dim, hidden_dim=hidden, num_blocks=blocks,
                         cond_dim=cond_dim, time_embed_dim=4)
    state = ModelState(
        config=cfg,
        backbone=init_backbone(cfg, seed),
        adapters=init_adapters(cfg, num_experts, adapter_dim, placement, seed=seed),
        frozen=True,
    )
    # a fresh backbone has a zero output head (nothing to backpropagate
    # through); give it pretrained-like weights
    rng = rng_for(seed, "test-head")
    state.backbone["w_out"] = rng.standard_normal((data_dim, hidden)) / np.sqrt(hidden)
    if not zero_w2:
        # one draw over the stack: the per-(expert, block) draws in k-major order
        state.adapters.w2 = rng_for(seed, "test-w2").standard_normal(state.adapters.w2.shape) * 0.2
    return state


def small_batch(state, n=5, seed=3):
    specs = [
        ClassSpec(0, (0.0,) * state.config.data_dim, 1.0, 4, True),
        ClassSpec(1, (2.0,) + (0.0,) * (state.config.data_dim - 1), 1.0, 4),
    ]
    corpus = generate_corpus(specs, state.config.data_dim, 5,
                             embedding_dim=state.config.cond_dim, noise_scale=0.1)
    part = random_partition(corpus, state.adapters.num_experts, seed=2)
    return assemble_batch(corpus, part, n, False, 0, rng_for(seed, "batch"))


def bare(state):
    return ModelState(config=state.config, backbone=state.backbone, adapters=None)


def small_inputs(state, n=5, seed=0):
    rng = rng_for(seed, "inputs")
    return (rng.standard_normal((n, state.config.data_dim)), rng.uniform(0.0, 1.0, n),
            rng.standard_normal((n, state.config.cond_dim)))


def reference(state, X, T, C, expert_id):
    """Oracle forward of every row, routed to ``expert_id``."""
    adapters = {}
    if state.adapters is not None:
        adapters = {l: (state.adapters.w1[expert_id, j], state.adapters.w2[expert_id, j])
                    for j, l in enumerate(state.adapters.placement)}
    return np.stack([forward_reference(state.backbone, adapters, x, t, c)
                     for x, t, c in zip(X, T, C)])


def routed(state, X, T, C, expert_id):
    return model_forward(state, X, T, C, np.full(len(X), expert_id))


class TestBackboneForward:
    def test_deterministic_and_shaped(self):
        state = bare(small_state())
        x = rng_for(0, "x").standard_normal(3)
        c = rng_for(0, "c").standard_normal(4)
        a = model_forward(state, x, 0.4, c)
        b = model_forward(state, x[None, :], np.array([0.4]), c[None, :])
        assert np.array_equal(a, b)
        assert a.shape == (1, 3)

    def test_shape_and_range_errors(self):
        for state in (bare(small_state()), small_state()):
            X, T, C = small_inputs(state, n=5)
            E = np.zeros(5, dtype=int)
            bad = [
                (np.zeros((5, 2)), T, C, E, "X shape"),
                (X, T, np.zeros((5, 3)), E, "C shape"),
                (X, np.full(5, 1.5), C, E, "t must be in"),
                (X, np.full(5, -0.1), C, E, "t must be in"),
                (X, T[:1], C, E, "row counts differ"),
                (X, T, C[:4], E, "row counts differ"),
            ]
            if state.adapters is not None:
                bad.append((X, T, C, E[:4], "expert_ids shape"))
            for X_, T_, C_, E_, message in bad:
                with pytest.raises(ValueError, match=message):
                    model_forward(state, X_, T_, C_, E_)

    def test_input_jacobian_matches_finite_differences(self):
        # VJP against central differences of a scalar probe w^T f(x)
        state = bare(small_state(zero_w2=False))
        cfg = state.config
        rng = rng_for(7, "jvp")
        x = rng.standard_normal(cfg.data_dim)
        c = rng.standard_normal(cfg.cond_dim)
        w = rng.standard_normal(cfg.data_dim)
        t = 0.3

        out, cache = model_mod._forward(state, x[None, :], np.array([t]), c[None, :], [])
        grads = {name: np.zeros_like(arr) for name, arr in state.backbone.items()}
        model_mod._backward(state, cache, w[None, :], grads)
        dx = grads["b_in"] @ state.backbone["w_in"]  # one row: b_in's gradient is dh
        h = 1e-5
        worst = 0.0
        for i in range(cfg.data_dim):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (model_forward(state, xp, t, c)[0] @ w - model_forward(state, xm, t, c)[0] @ w) / (2 * h)
            rel = abs(fd - dx[i]) / max(abs(fd), abs(dx[i]), 1e-12)
            worst = max(worst, rel)
        assert worst < 1e-4

    @pytest.mark.parametrize("placement", ["all", "0", "last:1"])
    def test_backward_without_backbone_grads_stops_at_lowest_adapted_block(self, placement):
        # the truncated pass skips what lies below the lowest adapted block;
        # its factors equal those of the full pass bit for bit
        state = small_state(placement=placement, blocks=3, zero_w2=False)
        X, T, C = small_inputs(state, n=6)
        slices = [(0, slice(0, 3)), (1, slice(3, 6))]
        _, cache = model_mod._forward(state, X, T, C, slices)
        d_out = rng_for(4, "d-out").standard_normal(X.shape)
        grads = {name: np.zeros_like(arr) for name, arr in state.backbone.items()}
        full = model_mod._backward(state, cache, d_out, grads)
        truncated = model_mod._backward(state, cache, d_out, None)
        assert sorted(truncated) == sorted(full) == list(range(len(state.adapters.placement)))
        for j in full:
            for a, b in zip(truncated[j], full[j]):
                assert np.array_equal(a, b)


class TestAdapterForward:
    """The adapter term W2 gelu(W1 h) as model_forward applies it."""

    def test_zero_up_projection(self):
        state = small_state(zero_w2=True)
        state.adapters.w1 = np.ones_like(state.adapters.w1)
        X, T, C = small_inputs(state)
        for k in range(2):
            assert np.array_equal(routed(state, X, T, C, k), model_forward(bare(state), X, T, C))

    def test_matches_naive_matmul_oracle(self):
        state = small_state(zero_w2=False, seed=11)
        X, T, C = small_inputs(state, seed=11)
        # plain scalar loops; agreement up to accumulation-order rounding
        for k in range(2):
            assert np.allclose(routed(state, X, T, C, k), reference(state, X, T, C, k),
                               rtol=1e-13, atol=1e-13)

    def test_shape_mismatch(self):
        state = small_state()
        stack = state.adapters
        stack.w1 = np.ones(stack.w1.shape[:3] + (state.config.hidden_dim + 1,))
        with pytest.raises(ValueError, match="bad w1 shape"):
            stack.validate(state.config)


class TestBlockForward:
    def test_zero_init_identity_bit_exact(self):
        state = small_state(zero_w2=True)
        X, T, C = small_inputs(state, seed=1)
        base = model_forward(bare(state), X, T, C)
        assert np.allclose(base, reference(bare(state), X, T, C, None), rtol=1e-13, atol=1e-13)
        for k in range(2):
            assert np.array_equal(routed(state, X, T, C, k), base)

    def test_unadapted_block_ignores_expert(self):
        none = small_state(placement="none")
        X, T, C = small_inputs(none, seed=2)
        base = model_forward(bare(none), X, T, C)
        for k in range(2):
            assert np.array_equal(routed(none, X, T, C, k), base)
        # with adapters on the last block only, block 0 adds no adapter term
        last = small_state(placement="last:1", zero_w2=False)
        for k in range(2):
            assert np.allclose(routed(last, X, T, C, k), reference(last, X, T, C, k),
                               rtol=1e-13, atol=1e-13)

    def test_compositional_oracle_per_expert(self):
        state = small_state(zero_w2=False)
        X, T, C = small_inputs(state, seed=3)
        outs = []
        for k in range(2):
            got = routed(state, X, T, C, k)
            assert np.allclose(got, reference(state, X, T, C, k), rtol=1e-13, atol=1e-13)
            outs.append(got)
        assert not np.array_equal(outs[0], outs[1])

    def test_interleaved_experts_match_oracle(self):
        # unsorted ids with expert 3 absent: each row comes back in its own
        # place, through its own expert's adapters
        state = small_state(num_experts=4, zero_w2=False, seed=5)
        X, T, C = small_inputs(state, seed=5)
        experts = np.array([2, 0, 1, 0, 2])
        got = model_forward(state, X, T, C, experts)
        for i, k in enumerate(experts):
            want = reference(state, X[i : i + 1], T[i : i + 1], C[i : i + 1], k)
            assert np.allclose(got[i : i + 1], want, rtol=1e-13, atol=1e-13)

    def test_expert_out_of_range_on_adapted_block(self):
        state = small_state()
        X, T, C = small_inputs(state, n=1)
        for expert in (7, -1):
            with pytest.raises(ValueError, match="out of range"):
                routed(state, X, T, C, expert)


@pytest.mark.parametrize("placement", ["last:1", "0,1"])
def test_probe_gradient_rows_match_finite_differences(placement):
    state = small_state(num_experts=1, placement=placement, zero_w2=False, seed=13)
    x1, _, cond = small_inputs(state, n=4, seed=13)
    rng = rng_for(13, "draws")
    t_draws = rng.uniform(0.05, 0.95, 3)
    x0_draws = rng.standard_normal((3, state.config.data_dim))
    rows = per_sample_probe_gradients(state, x1, cond, t_draws, x0_draws)

    def sample_losses():
        # each sample's probe loss: mean over draws of mean((v - (x1 - x0))^2)
        total = np.zeros(len(x1))
        for t, x0 in zip(t_draws, x0_draws):
            v = routed(state, (1.0 - t) * x0 + t * x1, np.full(len(x1), t), cond, 0)
            total += ((v - (x1 - x0)) ** 2).mean(axis=1)
        return total / len(t_draws)

    # columns: per block in placement order, w1 then w2, each row-major
    h = 1e-5
    columns = []
    for j in range(len(state.adapters.placement)):
        for name in ("w1", "w2"):
            p = getattr(state.adapters, name)[0, j]
            for idx in np.ndindex(p.shape):
                orig = p[idx]
                p[idx] = orig + h
                lp = sample_losses()
                p[idx] = orig - h
                lm = sample_losses()
                p[idx] = orig
                columns.append((lp - lm) / (2 * h))
    fd = np.stack(columns, axis=1)
    assert fd.shape == rows.shape
    scale = np.maximum(np.abs(fd), np.abs(rows))
    checked = scale > 1e-12
    assert checked.mean() > 0.9
    assert np.max(np.abs(fd - rows)[checked] / scale[checked]) < 1e-4


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([0, 1, 2, 64]),
    draws=st.sampled_from([1, 8]),
    placement=st.sampled_from(["last:1", "all"]),
    budget=st.sampled_from([None, 1, 3 * 8 * 64 * 400]),
    seed=st.integers(0, 2**32 - 1),
)
def test_grouped_probe_gradients_equal_one_pass_per_draw(n, draws, placement, budget, seed):
    # groups of draws run as stacked passes, budget 1 makes one draw per
    # group; each draw's rows must keep the bits of a pass of its own
    state = small_state(num_experts=1, placement=placement, zero_w2=False, seed=seed % 97)
    rng = rng_for(seed, "probe-groups")
    x1 = rng.standard_normal((n, state.config.data_dim))
    cond = rng.standard_normal((n, state.config.cond_dim))
    t_draws = rng.uniform(0.05, 0.95, draws)
    x0_draws = rng.standard_normal((draws, state.config.data_dim))
    with mock.patch.object(metrics_mod, "_SCAN_BYTES", budget or metrics_mod._SCAN_BYTES):
        got = per_sample_probe_gradients(state, x1, cond, t_draws, x0_draws)
    want = probe_gradients_per_draw(state, x1, cond, t_draws, x0_draws)
    assert got.shape == want.shape == (n, state.adapters.parameter_count())
    assert got.tobytes() == want.tobytes()


def test_probe_gradients_memory_is_output_plus_one_budget():
    # the probe of analyze-conflicts: 64 rows and 8 draws; the groups of
    # draws hold at most one _SCAN_BYTES beyond the returned rows
    cfg = BackboneConfig(data_dim=2, hidden_dim=32, num_blocks=2, cond_dim=16, time_embed_dim=8)
    state = ModelState(config=cfg, backbone=init_backbone(cfg, 0), adapters=None, frozen=False)
    probe, t_draws, x0_draws = training_mod._probe(state, 1, 2, 8)
    rng = rng_for(5, "probe-memory")
    x1, cond = rng.standard_normal((64, 2)), rng.standard_normal((64, 16))
    tracemalloc.start()
    try:
        rows = per_sample_probe_gradients(probe, x1, cond, t_draws, x0_draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (64, 512)
    assert peak <= rows.nbytes + metrics_mod._SCAN_BYTES


@pytest.mark.parametrize("hidden, n", [(32, 8), (8, 5), (64, 1)])
def test_stacked_frozen_prefix_equals_each_step(hidden, n):
    # train projects a block of steps' inputs, and runs their first backbone
    # branch, in one stacked pass; each step must get the bits of its own pass
    state = small_state(hidden=hidden, blocks=3, data_dim=2, cond_dim=16)
    rng = rng_for(4, "stacked")
    X, T = rng.standard_normal((16, n, 2)), rng.uniform(0.0, 1.0, (16, n))
    C = rng.standard_normal((16, n, 16))
    h = model_mod._embed(state, X, model_mod.time_features(T, 4), C)
    branch = model_mod._backbone_block(state.backbone, 0, h)
    for b in range(16):
        h_b = model_mod._embed(state, X[b], model_mod.time_features(T[b], 4), C[b])
        assert h[b].tobytes() == h_b.tobytes()
        for got, want in zip(branch, model_mod._backbone_block(state.backbone, 0, h_b)):
            assert got[b].tobytes() == want.tobytes()


class TestFlowMatchingLoss:
    def test_perfect_predictor_gives_zero_loss(self, monkeypatch):
        # stub the network with an exact-target predictor reconstructed from
        # the documented draw order (t first, then x0); without adapters no
        # frozen prefix is projected, so the loss runs the whole _forward
        state = small_state()
        batch = small_batch(state, n=6)
        state = bare(state)
        seed = 99
        rng = rng_for(seed, "flow-loss")
        n = len(batch.samples)
        t_all = rng.uniform(0.0, 1.0, size=n)
        x0_all = rng.standard_normal((n, state.config.data_dim))
        x1_all = batch.x
        v_star = x1_all - x0_all
        xt_all = (1.0 - t_all)[:, None] * x0_all + t_all[:, None] * x1_all

        real_forward = model_mod._forward

        def perfect(state_, X, T, C, slices):
            rows = [int(np.flatnonzero(np.isclose(xt_all, x).all(axis=1))[0]) for x in X]
            _, cache = real_forward(state_, X, T, C, slices)
            return v_star[rows], cache

        monkeypatch.setattr(model_mod, "_forward", perfect)
        loss, _ = flow_matching_loss(state, batch, seed=seed)
        assert loss == 0.0

    def test_loss_matches_independent_recomputation(self):
        state = small_state(zero_w2=False)
        batch = small_batch(state, n=6)
        seed = 123
        loss, _ = flow_matching_loss(state, batch, seed=seed)

        rng = rng_for(seed, "flow-loss")
        n = len(batch.samples)
        t = rng.uniform(0.0, 1.0, size=n)
        x0 = rng.standard_normal((n, state.config.data_dim))
        x1 = batch.x
        xt = (1.0 - t)[:, None] * x0 + t[:, None] * x1
        v = model_forward(state, xt, t, batch.cond, batch.experts)
        assert loss == pytest.approx(float(((v - (x1 - x0)) ** 2).mean()), rel=1e-12)

    def test_one_backbone_pass_for_three_experts(self, monkeypatch):
        state = small_state(num_experts=3, zero_w2=False)
        batch = small_batch(state, n=6)
        mixed = dataclasses.replace(batch, experts=np.array([2, 0, 1, 1, 0, 2]))
        calls, real = [], model_mod.time_features

        def counted(t, dim):
            calls.append(np.size(t))
            return real(t, dim)

        monkeypatch.setattr(model_mod, "time_features", counted)
        flow_matching_loss(state, mixed, seed=4)
        assert calls == [6]

    def test_gradient_isolation_for_absent_expert(self):
        state = small_state(num_experts=3, zero_w2=False)
        batch = small_batch(state, n=5)
        # force every sample onto expert 0
        forced = dataclasses.replace(batch, experts=np.zeros_like(batch.experts))
        _, grads = flow_matching_loss(state, forced, seed=5)
        assert np.all(grads.w1[1:] == 0.0)
        assert np.all(grads.w2[1:] == 0.0)
        assert grads.backbone is None
        assert any(np.any(grads.w2[0, j] != 0.0) for j in range(len(state.adapters.placement)))

    def test_analytic_gradients_match_finite_differences(self):
        # d = 8, two blocks, adapter width 6 (also acceptance criterion 4)
        state = small_state(hidden=8, adapter_dim=6, zero_w2=False, seed=21)
        batch = small_batch(state, n=4)
        seed = 31
        _, grads = flow_matching_loss(state, batch, seed=seed)
        h = 1e-5
        worst = 0.0
        for slot in np.ndindex(grads.w1.shape[:2]):
            for name in ("w1", "w2"):
                p = getattr(state.adapters, name)[slot]
                analytic = getattr(grads, name)[slot]
                for idx in [(0, 0), (1, 2), (p.shape[0] - 1, p.shape[1] - 1)]:
                    orig = p[idx]
                    p[idx] = orig + h
                    lp, _ = flow_matching_loss(state, batch, seed=seed)
                    p[idx] = orig - h
                    lm, _ = flow_matching_loss(state, batch, seed=seed)
                    p[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    if max(abs(fd), abs(analytic[idx])) > 1e-12:
                        rel = abs(fd - analytic[idx]) / max(abs(fd), abs(analytic[idx]))
                        worst = max(worst, rel)
        assert worst < 1e-4

    def test_unfrozen_backbone_with_adapters_rejected(self):
        state = small_state()
        state.frozen = False
        with pytest.raises(ContractViolationError):
            flow_matching_loss(state, small_batch(state), seed=0)

    def test_routing_purity(self):
        # outputs depend on the partition only through the sample's own expert
        state = small_state(zero_w2=False)
        batch = small_batch(state, n=4)
        x, c = batch.x, batch.cond
        t = np.full(len(x), 0.5)
        experts_a = np.array([0, 1, 0, 1])
        experts_b = np.array([0, 0, 1, 1])
        out_a = model_forward(state, x, t, c, experts_a)
        out_b = model_forward(state, x, t, c, experts_b)
        assert np.array_equal(out_a[0], out_b[0])
        assert np.array_equal(out_a[3], out_b[3])


class TestSgd:
    def test_updates_only_adapters(self):
        state = small_state(zero_w2=False)
        before = {k: v.copy() for k, v in state.backbone.items()}
        batch = small_batch(state)
        _, grads = flow_matching_loss(state, batch, seed=1)
        sgd_step(state, grads, lr=0.1)
        for k, v in state.backbone.items():
            assert np.array_equal(before[k], v)

    def test_backbone_update_requires_unfrozen(self):
        cfg = BackboneConfig(data_dim=3, hidden_dim=8, num_blocks=1, cond_dim=4,
                             time_embed_dim=4)
        state = ModelState(config=cfg, backbone=init_backbone(cfg, 0), adapters=None,
                           frozen=False)
        batch = small_batch(small_state())
        _, grads = flow_matching_loss(state, batch, seed=2)
        assert grads.backbone is not None
        before = state.backbone["w_out"].copy()
        sgd_step(state, grads, lr=0.1)
        assert not np.array_equal(before, state.backbone["w_out"])


def euler_loop(state, c, expert_id, steps, seed, scale=1.0, count=1):
    """Reference trajectory: explicit Euler over model_forward at conditioning
    c (scale 1), at zeros (scale 0), or blended vu + s (vc - vu) otherwise."""
    x0 = rng_for(seed, "sample-noise").standard_normal((count, state.config.data_dim))
    experts = None if expert_id is None else np.full(count, expert_id)

    def v(x, t, cond):
        return model_forward(state, x, np.full(count, t), np.tile(cond, (count, 1)), experts)

    def velocity(x, t):
        if scale == 1.0:
            return v(x, t, c)
        vu = v(x, t, np.zeros_like(c))
        return vu if scale == 0.0 else vu + scale * (v(x, t, c) - vu)

    return euler_reference(velocity, x0, steps)


class TestSampling:
    def test_scale_one_collapses_to_conditional(self):
        state = small_state(zero_w2=False)
        cond = rng_for(5, "cond").standard_normal(4)
        got = sample_batch(state, cond, 0, guidance_scale=1.0, steps=6, count=1, seed=9)
        ref = euler_loop(state, cond, 0, steps=6, seed=9)
        assert np.array_equal(got, ref)

    def test_scale_zero_collapses_to_unconditional(self):
        state = small_state(zero_w2=False)
        cond = rng_for(5, "cond").standard_normal(4)
        got = sample_batch(state, cond, 0, guidance_scale=0.0, steps=6, count=1, seed=9)
        ref = euler_loop(state, np.zeros(4), 0, steps=6, seed=9)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("scale", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("adapted", [True, False], ids=["expert1", "bare"])
    def test_guided_trajectories_match_the_oracle(self, scale, adapted):
        # several rows over several steps: every blended step, not only the first
        state = small_state(zero_w2=False)
        expert_id = 1 if adapted else None
        if not adapted:
            state = bare(state)
        cond = rng_for(7, "cond").standard_normal(4)
        got = sample_batch(state, cond, expert_id, scale, steps=6, count=3, seed=11)
        ref = euler_loop(state, cond, expert_id, steps=6, seed=11, scale=scale, count=3)
        assert got.shape == (3, 3)
        assert np.array_equal(got, ref)

    def test_single_euler_step_oracle(self):
        state = small_state(zero_w2=False)
        cond = rng_for(6, "cond").standard_normal(4)
        s = 5.0
        seed = 17
        x0 = rng_for(seed, "sample-noise").standard_normal((1, 3))
        null = np.zeros(4)
        vu = model_forward(state, x0, np.array([0.0]), null[None, :], np.array([0]))
        vc = model_forward(state, x0, np.array([0.0]), cond[None, :], np.array([0]))
        expected = x0[0] + (vu[0] + s * (vc[0] - vu[0]))
        got = sample_batch(state, cond, 0, guidance_scale=s, steps=1, count=1, seed=seed)[0]
        assert np.allclose(got, expected, rtol=0, atol=0)

    def test_deterministic_per_seed(self):
        state = small_state(zero_w2=False)
        cond = np.ones(4)
        a = sample_batch(state, cond, 1, 2.0, 5, 7, seed=3)
        b = sample_batch(state, cond, 1, 2.0, 5, 7, seed=3)
        c = sample_batch(state, cond, 1, 2.0, 5, 7, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_invalid_arguments(self):
        state = small_state()
        with pytest.raises(ValueError):
            sample_batch(state, np.zeros(4), 0, 1.0, steps=0, count=1, seed=0)
        with pytest.raises(ValueError):
            sample_batch(state, np.zeros(4), 0, -1.0, steps=4, count=1, seed=0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_guidance_is_refused(self, scale):
        # NaN passes a "< 0" test and would return rows that are all NaN
        with pytest.raises(ValueError, match="guidance_scale must be finite and >= 0"):
            sample_batch(small_state(), np.zeros(4), 0, scale, steps=4, count=2, seed=0)


class TestPlacementParity:
    def test_both_tradeoff_configs_use_one_code_path(self):
        # all-blocks small width vs last-block large width: same stack type,
        # no branching beyond the placement set and width
        cfg = BackboneConfig(data_dim=2, hidden_dim=8, num_blocks=4, cond_dim=4,
                             time_embed_dim=4)
        wide_last = init_adapters(cfg, 2, 32, "last:1", "gelu", 0)
        slim_all = init_adapters(cfg, 2, 4, "all", "gelu", 0)
        assert type(wide_last) is type(slim_all)
        assert wide_last.placement == (3,)
        assert slim_all.placement == (0, 1, 2, 3)
        assert wide_last.parameter_count() == 2 * (32 * 8 + 8 * 32)
        assert slim_all.parameter_count() == 2 * 4 * (4 * 8 + 8 * 4)
        for stack in (wide_last, slim_all):
            state = ModelState(config=cfg, backbone=init_backbone(cfg, 0), adapters=stack)
            out = model_forward(state, np.zeros((2, 2)), np.array([0.1, 0.2]),
                                np.zeros((2, 4)), np.array([0, 1]))
            assert out.shape == (2, 2)

    def test_resolve_placement_forms(self):
        assert resolve_placement(4, "all") == (0, 1, 2, 3)
        assert resolve_placement(4, "none") == ()
        assert resolve_placement(4, "last:2") == (2, 3)
        assert resolve_placement(4, "0,2") == (0, 2)
        assert resolve_placement(4, [3, 1]) == (1, 3)
        with pytest.raises(ValueError):
            resolve_placement(4, "last:9")
        with pytest.raises(ValueError):
            resolve_placement(4, "5")


def test_checkpoint_round_trip(tmp_path):
    state = small_state(zero_w2=False, placement="last:1")
    path = tmp_path / "model.npz"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert loaded.config == state.config
    assert loaded.frozen == state.frozen
    for name in state.backbone:
        assert np.array_equal(state.backbone[name], loaded.backbone[name])
    assert loaded.adapters.placement == state.adapters.placement
    assert np.array_equal(state.adapters.w1, loaded.adapters.w1)
    assert np.array_equal(state.adapters.w2, loaded.adapters.w2)
    X, T, C = small_inputs(state, n=2)
    experts = np.array([0, 1])
    assert np.array_equal(model_forward(state, X, T, C, experts),
                          model_forward(loaded, X, T, C, experts))


def edit_meta(change):
    """A checkpoint edit that applies ``change`` to the decoded meta blob."""
    def edit(arrays):
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        change(meta)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda arrays: arrays.pop("backbone/block1.v"), "array 'backbone/block1.v' is missing"),
    (lambda arrays: arrays.update({"backbone/block9.v": np.zeros((16, 8))}),
     "array 'backbone/block9.v' is not in this config"),
    # (1,) broadcasts against (ff,) and (data_dim,): the forward would run on it
    (lambda arrays: arrays.update({"backbone/block0.c": np.zeros(1)}),
     r"array 'backbone/block0.c' has shape \(1,\), expected \(16,\)"),
    (lambda arrays: arrays.update({"backbone/b_out": np.zeros(1)}),
     r"array 'backbone/b_out' has shape \(1,\), expected \(3,\)"),
    (edit_meta(lambda meta: meta.update(format_version=1)), "unsupported checkpoint version 1"),
    # the backbone has blocks 0 and 1; a placement must be sorted distinct blocks of it
    (edit_meta(lambda meta: meta["adapters"].update(placement=[0, 7])),
     r"block id out of range in placement \(0, 7\)"),
    (edit_meta(lambda meta: meta["adapters"].update(placement=[0, 0])),
     r"placement \(0, 0\) is not sorted distinct blocks"),
    (edit_meta(lambda meta: meta["adapters"].update(placement=[1, 0])),
     r"placement \(1, 0\) is not sorted distinct blocks"),
    (lambda arrays: arrays.pop("adapter/w1"), "adapter/w1 is not a file in the archive"),
    (lambda arrays: arrays.update({"adapter/w2": np.zeros((2, 2, 8, 5))}),
     r"bad w2 shape \(2, 2, 8, 5\), expected \(2, 2, 8, 6\)"),
    (lambda arrays: arrays.update({"adapter/w1": np.zeros((2, 1, 6, 8))}),
     r"bad w1 shape \(2, 1, 6, 8\), expected \(K, 2, r, 8\)"),
    (edit_meta(lambda meta: meta["config"].update(foo=1)), "unexpected keyword argument 'foo'"),
    (edit_meta(lambda meta: meta["config"].update(hidden_dim="8")),
     "hidden_dim must be a positive integer, got '8'"),
    # forms that save_checkpoint never writes: the file loads only if writing
    # the loaded state gives back its meta blob, array names and dtypes
    (lambda arrays: arrays.update({name: arr.astype(np.float32) for name, arr in arrays.items()
                                   if name.startswith("backbone/")}),
     "has dtype float32, expected float64"),
    (lambda arrays: arrays.update({"adapter/w1": arrays["adapter/w1"].astype(np.int64)}),
     "array 'adapter/w1' has dtype int64, expected float64"),
    (lambda arrays: arrays.update({"junk": np.zeros(2)}), "array 'junk' is not in this config"),
    (edit_meta(lambda meta: meta.update(format_version=2.0)), "meta is not in the written form"),
    (edit_meta(lambda meta: meta.update(note="hi")), "meta is not in the written form"),
    (edit_meta(lambda meta: meta.update(frozen="no")), "meta is not in the written form"),
    (edit_meta(lambda meta: meta["adapters"].update(rank=6)), "meta is not in the written form"),
    # stacks whose meta and arrays do round-trip, refused by AdapterStack.validate
    (lambda arrays: arrays.update({"adapter/w1": np.zeros((0, 2, 6, 8)),
                                   "adapter/w2": np.zeros((0, 2, 8, 6))}),
     "num_experts and adapter_dim must be positive"),
    (lambda arrays: arrays.update({"adapter/w1": np.zeros((2, 2, 0, 8)),
                                   "adapter/w2": np.zeros((2, 2, 8, 0))}),
     "num_experts and adapter_dim must be positive"),
    (edit_meta(lambda meta: meta["adapters"].update(placement=[0.0, 1])),
     r"placement \(0.0, 1\) holds a block that is not an int"),
], ids=["missing", "extra", "broadcast-c", "broadcast-b_out", "version-1", "placement-past-blocks",
        "placement-repeated", "placement-unsorted", "missing-w1", "w2-disagrees", "w1-blocks",
        "config-unknown-field", "config-string-value", "backbone-float32", "w1-int64",
        "extra-array", "version-float", "meta-extra-key", "frozen-string", "adapters-extra-key",
        "zero-experts", "zero-width", "placement-float"])
def test_malformed_checkpoint_is_refused_at_load(tmp_path, edit, message):
    path = tmp_path / "model.npz"
    save_checkpoint(small_state(), path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    edit(arrays)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=message) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")


def test_checkpoint_naming_another_nonlinearity_is_refused(tmp_path):
    # a stack written with another activation would run as GELU: refused, not reinterpreted
    path = tmp_path / "model.npz"
    save_checkpoint(small_state(), path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    edit_meta(lambda meta: meta["adapters"].update(nonlinearity="relu"))(arrays)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="meta is not in the written form .*gelu") as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("nonlinearity", ["relu", "GELU", "tanh"])
def test_init_adapters_refuses_any_nonlinearity_but_gelu(nonlinearity):
    cfg = BackboneConfig(data_dim=2, hidden_dim=8, num_blocks=2, cond_dim=4, time_embed_dim=4)
    with pytest.raises(ValueError, match=f"unknown nonlinearity '{nonlinearity}'"):
        init_adapters(cfg, 2, 4, "all", nonlinearity, 0)


def test_init_adapters_refuses_an_empty_stack():
    cfg = BackboneConfig(data_dim=2, hidden_dim=8, num_blocks=2, cond_dim=4, time_embed_dim=4)
    for experts, width in ((0, 4), (2, 0)):
        with pytest.raises(ValueError, match="num_experts and adapter_dim must be positive"):
            init_adapters(cfg, experts, width)


def test_stacked_weights_equal_per_slot_draws():
    # one draw over the stacked shape is the per-(expert, block) draws in
    # k-major, then block order, which the tests' weight draws rely on
    shape = (3, 2, 8, 6)
    rng = rng_for(1, "test-w2")
    per_slot = [rng.standard_normal(shape[2:]) for _ in range(shape[0] * shape[1])]
    assert np.array_equal(rng_for(1, "test-w2").standard_normal(shape),
                          np.array(per_slot).reshape(shape))
    # init_adapters keeps one stream per (expert, block) slot
    cfg = BackboneConfig(data_dim=2, hidden_dim=8, num_blocks=3, cond_dim=4, time_embed_dim=4)
    stack = init_adapters(cfg, 2, 5, "0,2", "gelu", seed=4)
    for k in range(2):
        for j, l in enumerate((0, 2)):
            draw = rng_for(4, "adapter-init", k, l).standard_normal((5, 8)) / math.sqrt(8)
            assert np.array_equal(stack.w1[k, j], draw)
    assert stack.num_experts == 2 and stack.adapter_dim == 5


@settings(max_examples=25, deadline=None)
@given(num_experts=st.integers(1, 4), width=st.integers(1, 9),
       blocks=st.sets(st.integers(0, 2), max_size=3), seed=st.integers(0, 2**16))
def test_checkpoint_round_trip_property(num_experts, width, blocks, seed):
    state = small_state(num_experts, width, sorted(blocks), blocks=3, seed=seed, zero_w2=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        save_checkpoint(state, path)
        with np.load(path) as data:
            keys = [name for name in data.files if name.startswith("adapter/")]
        loaded = load_checkpoint(path)
    placement = state.adapters.placement
    assert keys == ["adapter/w1", "adapter/w2"]
    assert loaded.adapters.placement == placement
    for name in ("w1", "w2"):
        a, b = getattr(state.adapters, name), getattr(loaded.adapters, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    X, T, C = small_inputs(state, n=6, seed=seed)
    experts = np.arange(6) % num_experts
    assert model_forward(state, X, T, C, experts).tobytes() == (
        model_forward(loaded, X, T, C, experts).tobytes()
    )


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports this checkout's tailflow."""
    src = str(Path(model_mod.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_refused_expert_ids_are_named_without_importing_numpy_ma():
    # the distinct bad ids come from a sort, not np.unique, which imports numpy.ma
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from tailflow.model import BackboneConfig, ModelState, init_adapters, init_backbone\n"
        "from tailflow.model import model_forward\n"
        "cfg = BackboneConfig(data_dim=2, hidden_dim=4, num_blocks=1)\n"
        "state = ModelState(cfg, init_backbone(cfg, 0), init_adapters(cfg, 2, 2, 'all', 'gelu', 0))\n"
        "try:\n"
        "    model_forward(state, np.zeros((5, 2)), np.zeros(5), np.zeros((5, 16)),\n"
        "                  np.array([7, 1, -1, 7, 0]))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _fresh_python(code).splitlines() == [
        "expert ids [-1  7] out of range for 2 experts", "False"
    ]


def test_cli_import_leaves_the_scipy_special_package_unimported():
    code = ("import sys, tailflow.cli; "
            "print([m for m in ('scipy.special', 'scipy._lib._array_api') if m in sys.modules])")
    assert _fresh_python(code) == "[]"


def test_erf_is_the_scipy_special_ufunc_when_scipy_special_is_imported_later():
    code = ("import tailflow.model as m, scipy.special, scipy.stats; "
            "print(m.erf is scipy.special.erf)")
    assert _fresh_python(code) == "True"


def test_erf_equals_scipy_special_erf_bit_for_bit():
    import scipy.special

    tiny = np.finfo(np.float64).tiny
    branches = np.array([1.0, 8.0])  # where cephes switches between its expansions
    grid = np.concatenate([
        [0.0, np.inf, np.nan, 5e-324, tiny / 2, tiny, 1e-17, 1e-8],
        np.nextafter(branches, 0.0), branches, np.nextafter(branches, np.inf),
        np.linspace(0.0, 30.0, 3001),
        rng_for(0, "erf-grid").standard_normal(100_000),
    ])
    grid = np.concatenate([grid, -grid])  # -0.0 and the negative half
    assert model_mod.erf(grid).tobytes() == scipy.special.erf(grid).tobytes()


@pytest.mark.parametrize("stub", [None, ""], ids=["no-extension", "extension-without-erf"])
def test_erf_loader_falls_back_to_the_package_import(monkeypatch, tmp_path, stub):
    import scipy.special

    if stub is not None:  # a _special_ufuncs module that defines no erf
        (tmp_path / "special").mkdir()
        (tmp_path / "special" / "_special_ufuncs.py").write_text(stub)
    scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy_spec.submodule_search_locations = [str(tmp_path)]
    real = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *a: scipy_spec if name == "scipy" else real(name, *a))
    monkeypatch.delitem(sys.modules, model_mod._UFUNCS)
    assert model_mod._load_erf() is scipy.special.erf
