"""Fine-tune per-expert residual adapters over a frozen flow-matching model.

The workflow mirrors large-scale practice at desk size: pretrain a small
backbone on the corpus, freeze it, attach one two-layer residual adapter
per expert and block, and fine-tune only the adapters. Routing is a lookup
into the precomputed partition; there is no gate.
"""

import numpy as np

from tailflow import (
    BackboneConfig,
    ModelState,
    chest_longtail_specs,
    generate_corpus,
    init_adapters,
    init_backbone,
    label_tier_partition,
    model_forward,
    pretrain_backbone,
    train,
)

corpus = generate_corpus(chest_longtail_specs(2000), 2, seed=7)
partition = label_tier_partition(corpus, 4)

config = BackboneConfig(data_dim=2, hidden_dim=32, num_blocks=2, cond_dim=16, time_embed_dim=8)
state = ModelState(config=config, backbone=init_backbone(config, 0), adapters=None, frozen=False)
print("pretraining the backbone (unfrozen, no adapters)...")
state = pretrain_backbone(state, corpus, steps=300, batch_size=8, lr=0.01, seed=1)
print(f"backbone frozen: {state.frozen}")

state.adapters = init_adapters(config, num_experts=4, adapter_dim=8, placement="all", seed=2)
print(f"adapter stack: K=4, width 8, blocks {state.adapters.placement}, "
      f"{state.adapters.parameter_count()} trainable parameters")

# zero-init up-projections mean the adapted model IS the backbone at start
x, t, cond = np.ones(2), 0.5, np.ones(16) * 0.1
adapted = model_forward(state, x, np.array([t]), cond, np.array([2]))[0]
bare = ModelState(config=config, backbone=state.backbone, adapters=None)
base = model_forward(bare, x, np.array([t]), cond)[0]
print(f"zero-init identity holds bit-exactly: {np.array_equal(adapted, base)}")

print("\nfine-tuning without resampling...")
tuned, ledger, traces = train(state, corpus, partition, steps=400, batch_size=8,
                              resample=False, lr=0.03, seed=3, trace_interval=100)
pct = ledger.percentages()
print("expert utilization (% of routed samples):",
      {k: round(v, 1) for k, v in pct.items()}, f"gap {ledger.gap():.1f}")

print("\nfine-tuning with round-robin resampling (3 slots per batch)...")
tuned_rs, ledger_rs, _ = train(state, corpus, partition, steps=400, batch_size=8,
                               resample=True, lr=0.03, seed=3)
pct_rs = ledger_rs.percentages()
print("expert utilization:",
      {k: round(v, 1) for k, v in pct_rs.items()}, f"gap {ledger_rs.gap():.1f}")
print(f"resampling shrinks the utilization gap: {ledger_rs.gap() < ledger.gap()}")

print("\ngradient-conflict traces (probe-adapter space):")
for tr in traces:
    cells = " ".join(f"{v:.2f}" for v in tr.per_cluster_conflict)
    print(f"  step {tr.step:4d}: within [{cells}]  across {tr.cross_cluster_conflict:.2f}")
print("within-cluster conflict sits below cross-cluster conflict, which is")
print("exactly the premise the static partition is built on.")
