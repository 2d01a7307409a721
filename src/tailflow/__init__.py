"""tailflow: a desk-scale laboratory for long-tail generative fine-tuning.

Builds synthetic long-tail corpora, partitions samples to minimize
within-cluster gradient conflict, fine-tunes per-expert residual adapters
inside a frozen flow-matching model with static (routing-free) expert
selection, and evaluates diversity and quality with kNN Coverage,
retrieval scores, and the Fréchet distance.
"""

from .config import ExperimentConfig, load_experiment_config
from .datagen import (
    ClassSpec,
    Corpus,
    blob_specs,
    chest_longtail_specs,
    generate_corpus,
    label_embedding,
    load_corpus,
    save_corpus,
    tail8_specs,
)
from .metrics import (
    FeatureSet,
    MetricReport,
    coverage,
    evaluate,
    frechet_distance,
    irs,
    irs_adjusted,
    knn_radius,
)
from .model import (
    AdapterStack,
    BackboneConfig,
    ModelState,
    flow_matching_loss,
    init_adapters,
    init_backbone,
    load_checkpoint,
    model_forward,
    sample_batch,
    save_checkpoint,
)
from .partition import (
    ConflictScore,
    Partition,
    bisecting_kmeans_partition,
    label_tier_partition,
    pairwise_conflict,
    partition_conflict,
    random_partition,
    single_partition,
)
from .pipeline import RunManifest, compare_runs, run_pipeline, run_stage
from .training import (
    ConflictTrace,
    TrainBatch,
    UtilizationLedger,
    assemble_batch,
    measure_conflict_reduction,
    pretrain_backbone,
    train,
)

__version__ = "0.1.0"
