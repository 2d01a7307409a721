"""Partition samples into expert clusters and score gradient conflict.

The partition objective is the mean pairwise conflict 1 - cos(u, v) over
within-cluster pairs, evaluated on embedding surrogates (the tractable
proxy for gradient alignment). Good partitions group samples whose
embeddings point the same way.
"""

from tailflow import (
    bisecting_kmeans_partition,
    chest_longtail_specs,
    generate_corpus,
    label_tier_partition,
    partition_conflict,
    random_partition,
    single_partition,
)
from tailflow.partition import composition_report

corpus = generate_corpus(chest_longtail_specs(2000), 2, seed=7)

partitions = {
    "single (K=1)": single_partition(corpus),
    "random (K=4)": random_partition(corpus, 4, seed=0),
    "label tiers (K=4)": label_tier_partition(corpus, 4),
    "bisecting k-means (K=4)": bisecting_kmeans_partition(corpus, 4),
}

print("within-cluster embedding conflict (lower is better):")
for name, part in partitions.items():
    score = partition_conflict(corpus, part)
    sizes = part.expert_sizes()
    print(f"  {name:26s} overall {score.overall:.4f}   cluster sizes {sizes}")

print()
print("label tiers isolate the healthy class and balance the rest:")
report = composition_report(partitions["label tiers (K=4)"], corpus)
for k, info in report["experts"].items():
    classes = ", ".join(info["class_counts"])
    print(f"  expert {k}: {info['size']:4d} samples ({info['share']:.1%}) from classes [{classes}]")

print()
print("bisecting k-means descends the objective one split at a time:")
_, history = bisecting_kmeans_partition(corpus, 6, return_history=True)
for i, value in enumerate(history):
    print(f"  {i} cluster(s) split: objective {value:.4f}")
assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

print()
print("with jitter-free embeddings, k-means recovers the label partition:")
clean = generate_corpus(chest_longtail_specs(400), 2, seed=3, noise_scale=0.0)
km = bisecting_kmeans_partition(clean, clean.num_classes)
cls = clean.class_ids()
pure = all(len({int(c) for c in cls[km.members(k)]}) == 1 for k in range(km.num_experts))
print(f"  every cluster is a single class: {pure}")
