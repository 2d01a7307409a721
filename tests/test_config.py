from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailflow.config import (
    _BOUNDS,
    _KEYS,
    _PROFILES,
    ExperimentConfig,
    canonical_config_text,
    class_specs_from_config,
    config_hash,
    load_experiment_config,
    parse_config_text,
)
from tailflow.datagen import load_corpus
from tailflow.partition import _METHODS, label_tier_classes
from tailflow.pipeline import run_stage

SAMPLE = """
# smoke experiment
version = 1
seed = 42
corpus.profile = tail8
corpus.size = 400
corpus.test_size = 200
train.steps = 50
train.resample = true
sample.guidance_scale = 5.0
"""


def test_parse_and_types():
    flat = parse_config_text(SAMPLE)
    assert flat["seed"] == 42
    assert flat["corpus.size"] == 400
    assert flat["train.resample"] is True
    assert flat["sample.guidance_scale"] == 5.0
    assert flat["corpus.profile"] == "tail8"


def test_hash_invariant_to_key_order_and_formatting():
    reordered = "\n".join(reversed([l for l in SAMPLE.splitlines() if "=" in l]))
    spaced = reordered.replace(" = ", "   =   ")
    assert config_hash(parse_config_text(SAMPLE)) == config_hash(parse_config_text(spaced))
    changed = SAMPLE.replace("train.steps = 50", "train.steps = 51")
    assert config_hash(parse_config_text(SAMPLE)) != config_hash(parse_config_text(changed))


def test_round_trip_is_lossless():
    cfg = ExperimentConfig.from_flat(parse_config_text(SAMPLE))
    text = cfg.to_text()
    again = ExperimentConfig.from_flat(parse_config_text(text))
    assert again == cfg
    assert again.hash() == cfg.hash()
    assert canonical_config_text(again.to_flat()) == text


def test_defaults_and_root_seed():
    cfg = ExperimentConfig.from_flat(parse_config_text(SAMPLE))
    assert cfg.seed == 42
    assert cfg.sample_guidance_scale == 5.0  # CFG default scale
    assert cfg.metrics_k == 5


def test_unknown_and_duplicate_keys_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig.from_flat(parse_config_text("bogus.key = 1"))
    with pytest.raises(ValueError):
        parse_config_text("a.b = 1\na.b = 2")
    with pytest.raises(ValueError):
        parse_config_text("just a line without equals")


def test_explicit_class_specs():
    text = """
    corpus.dimension = 2
    partition.method = embedding-kmeans
    class.0.mean = 0.0,0.0
    class.0.scale = 0.5
    class.0.count = 30
    class.0.healthy = true
    class.1.mean = 3.0,0.0
    class.1.scale = 0.5
    class.1.count = 10
    """
    cfg = ExperimentConfig.from_flat(parse_config_text(text))
    specs = class_specs_from_config(cfg)
    assert len(specs) == 2
    assert specs[0].is_healthy and specs[0].count == 30
    assert specs[1].mean == (3.0, 0.0)
    # explicit classes round-trip through the flat form
    again = ExperimentConfig.from_flat(cfg.to_flat())
    assert class_specs_from_config(again) == specs


def test_explicit_classes_scale_to_the_test_size(tmp_path):
    text = """
    corpus.test_size = 5
    partition.method = embedding-kmeans
    class.0.mean = 0.0,0.0
    class.0.scale = 0.5
    class.0.count = 40
    class.0.healthy = true
    class.1.mean = 3.0,0.0
    class.1.scale = 0.5
    class.1.count = 10
    """
    cfg = ExperimentConfig.from_flat(parse_config_text(text))
    assert [s.count for s in class_specs_from_config(cfg)] == [40, 10]
    # the test split scales the explicit counts as the profiles do
    test_specs = class_specs_from_config(cfg, cfg.corpus_test_size)
    assert [s.count for s in test_specs] == [4, 1]
    assert [replace(s, count=0) for s in test_specs] == [
        replace(s, count=0) for s in class_specs_from_config(cfg)
    ]
    run_stage(cfg, tmp_path, "datagen")
    assert load_corpus(tmp_path / "train_corpus.txt").class_counts() == {0: 40, 1: 10}
    assert load_corpus(tmp_path / "test_corpus.txt").class_counts() == {0: 4, 1: 1}


def test_profiles(tmp_path):
    cfg = ExperimentConfig(corpus_profile="chest-longtail", corpus_size=500)
    specs = class_specs_from_config(cfg)
    assert len(specs) == 19 and specs[0].is_healthy
    cfg2 = ExperimentConfig(corpus_profile="tail8", corpus_size=500)
    assert len(class_specs_from_config(cfg2)) == 8
    with pytest.raises(ValueError):
        class_specs_from_config(ExperimentConfig(corpus_profile="nope"))

    path = tmp_path / "exp.cfg"
    path.write_text(SAMPLE)
    assert load_experiment_config(path).corpus_size == 400


def test_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(seed=-1).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(train_quota=10, train_batch_size=8).validate()


@pytest.mark.parametrize("text, message", [
    ("train.steps = 2.9", "train.steps: expected an integer, got 2.9"),
    ("metrics.k = true", "metrics.k: expected an integer, got True"),
    ("seed = 4.7", "seed: expected an integer, got 4.7"),
    ("train.lr = true", "train.lr: expected a number, got True"),
    ("train.lr = fast", "train.lr: expected a number, got 'fast'"),
])
def test_integer_keys_reject_non_integers(text, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_flat(parse_config_text(text))


def test_float_keys_accept_integers():
    cfg = ExperimentConfig.from_flat(parse_config_text("train.lr = 1"))
    assert cfg.train_lr == 1.0 and isinstance(cfg.train_lr, float)


# two explicit 2-d classes, less a class.0 key that each row sets first;
# class.1 alone leaves room for the default metrics.k
def _two_classes(first: str) -> str:
    keys = {"class.0.mean": "0.0,0.0", "class.0.scale": "1.0", "class.0.count": "9",
            "class.1.mean": "4.0,0.0", "class.1.scale": "1.0", "class.1.count": "100"}
    keys.pop(first.split(" =")[0], None)
    return "\n".join([first, *(f"{k} = {v}" for k, v in keys.items())])


def _three_classes(*extra: str) -> str:
    return "\n".join([*extra, *(f"class.{c}.mean = {c}.0,0.0\nclass.{c}.scale = 1.0\n"
                                 f"class.{c}.count = 50" for c in range(3))])


@pytest.mark.parametrize("text, message", [
    ("train.lr = -1", "train.lr: must be > 0, got -1.0"),
    ("train.pretrain_lr = 0", "train.pretrain_lr: must be > 0, got 0.0"),
    ("partition.method = bogus", "partition.method: unknown method 'bogus'"),
    # GELU is the adapters' one nonlinearity, so the key is gone
    ("adapter.nonlinearity = tanh", "unknown config key 'adapter.nonlinearity'"),
    ("corpus.profile = nope", "corpus.profile: unknown profile 'nope'"),
    ("sample.steps = 0", "sample.steps: must be >= 1, got 0"),
    ("metrics.k = 0", "metrics.k: must be >= 1, got 0"),
    ("train.cond_dropout = 2", "train.cond_dropout: must be <= 1, got 2.0"),
    ("train.cond_dropout = nan", "train.cond_dropout: must be >= 0, got nan"),
    ("train.steps = -1", "train.steps: must be >= 0, got -1"),
    ("partition.experts = 0", "partition.experts: must be >= 1, got 0"),
    ("train.lr = nan", "train.lr: must be > 0, got nan"),
    ("train.lr = inf", "train.lr: must be finite, got inf"),
    ("train.pretrain_lr = inf", "train.pretrain_lr: must be finite, got inf"),
    ("corpus.noise_scale = inf", "corpus.noise_scale: must be finite, got inf"),
    ("sample.guidance_scale = inf", "sample.guidance_scale: must be finite, got inf"),
    ("sample.guidance_scale = -1", "sample.guidance_scale: must be >= 0, got -1.0"),
    ("class.0.colour = red", "class.0.colour: expected class.<int >= 0>"),
    ("class.x.count = 3", "class.x.count: expected class.<int >= 0>"),
    ("class.0 = 1", "class.0: expected class.<int >= 0>"),
    ("adapter.placement = 0,5", r"adapter.placement: block id out of range in placement \(0, 5\)"),
    ("adapter.placement = 2", r"adapter.placement: block id out of range in placement \(2,\)"),
    ("adapter.placement = last:3", "adapter.placement: last:3 out of range for 2 blocks"),
    ("adapter.placement = 0,x", "adapter.placement: invalid literal for int"),
    ("adapter.placement = last:one", "adapter.placement: invalid literal for int"),
    ("adapter.placement = 0.5", "adapter.placement: invalid literal for int"),
    ("backbone.time_embed_dim = 3", r"backbone.time_embed_dim: must be even \(sin/cos"),
    # the default chest-longtail train split: 2000 rows, the largest class 1217
    ("metrics.k = 1217", "metrics.k: 1217 needs a train class of at least 1218 members; "
                         "the largest has 1217"),
    ("corpus.size = 200\nmetrics.k = 200", "metrics.k: 200 needs a train class of at least 201"),
    ("corpus.profile = tail8\ncorpus.size = 1\nmetrics.k = 1", "metrics.k: 1 needs a train class"),
    ("class.0.mean = 0.0\nclass.0.scale = 1.0\nclass.0.count = 5\n"
     "class.1.mean = 1.0\nclass.1.scale = 1.0\nclass.1.count = 3\ncorpus.dimension = 1",
     "metrics.k: 5 needs a train class of at least 6 members; the largest has 5"),
    ("seed = -1", "seed: must be >= 0, got -1"),
    # a run reads one root seed, so a list is refused as any integer key refuses it
    ("seed = 3,5", r"seed: expected an integer, got \[3, 5\]"),
    ("seeds = 42", "unknown config key 'seeds'"),
    (_two_classes("class.0.count = 0"), "class.0.count: must be >= 1, got 0"),
    # alone, the class is named before metrics.k is checked against it
    ("class.0.count = -5\nclass.0.mean = 0.0,0.0\nclass.0.scale = 1.0",
     "class.0.count: must be >= 1, got -5"),
    (_two_classes("class.0.scale = 0"), "class.0.scale: must be finite and > 0, got 0.0"),
    (_two_classes("class.0.scale = nan"), "class.0.scale: must be finite and > 0, got nan"),
    (_two_classes("class.0.scale = inf"), "class.0.scale: must be finite and > 0, got inf"),
    (_two_classes("class.0.mean = inf,0.0"), r"class.0.mean: must be finite, got \(inf, 0.0\)"),
    (_two_classes("class.0.mean = 0.0,0.0,1.0"), "class.0.mean: 3 values for dimension 2"),
    (_two_classes("corpus.dimension = 3"), "class.0.mean: 2 values for dimension 3"),
    (_two_classes("class.1.healthy = true\nclass.0.healthy = true"),
     "class.1.healthy: at most one class may be healthy, and class 0 is"),
    # resampling puts a row of each of the partition.experts experts in every batch
    ("train.resample = true\ntrain.batch_size = 3\ntrain.quota = 2",
     r"train.batch_size: must be >= partition.experts \(4\) with train.resample = true, got 3"),
    # label tiers: K 3 or 4, a healthy class at K = 4, and three tiered classes
    ("partition.experts = 2", r"partition.method = label-tier: label tiers support K in \{3, 4\}"),
    ("partition.experts = 5", r"partition.method = label-tier: label tiers support K in \{3, 4\}"),
    (_three_classes(), "partition.method = label-tier: K = 4 label tiers require a designated "
                       "healthy class"),
    (_two_classes("partition.experts = 3"),
     "partition.method = label-tier: label tiers need 3 tiered classes, got 2"),
    (_three_classes("class.0.healthy = true"),
     "partition.method = label-tier: label tiers need 3 tiered classes, got 2"),
])
def test_load_rejects_bad_values(text, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_flat(parse_config_text(text))


def test_metrics_k_loads_up_to_the_largest_train_class_minus_one():
    assert ExperimentConfig.from_flat(parse_config_text("metrics.k = 1216")).metrics_k == 1216
    text = ("class.0.mean = 0.0\nclass.0.scale = 1.0\nclass.0.count = 5\nmetrics.k = 4\n"
            "corpus.dimension = 1\npartition.method = single")
    assert ExperimentConfig.from_flat(parse_config_text(text)).metrics_k == 4


def test_resampling_loads_with_one_batch_row_per_expert():
    text = "train.resample = true\ntrain.quota = 1\n"
    cfg = ExperimentConfig.from_flat(parse_config_text(text + "train.batch_size = 4"))
    assert cfg.train_batch_size == cfg.partition_experts == 4
    # single has one expert, whatever partition.experts says
    cfg = ExperimentConfig.from_flat(
        parse_config_text(text + "train.batch_size = 1\npartition.method = single")
    )
    assert cfg.train_batch_size == 1


def test_list_placement_loads_as_its_text_and_round_trips():
    # "0,1" parses as a list; the string key keeps it as text, not a repr
    cfg = ExperimentConfig.from_flat(parse_config_text("adapter.placement = 0,1"))
    assert cfg.adapter_placement == "0,1"
    assert "adapter.placement = 0,1\n" in cfg.to_text()
    again = ExperimentConfig.from_flat(parse_config_text(cfg.to_text()))
    assert again == cfg and again.hash() == cfg.hash()


@pytest.mark.parametrize("line, raw", [
    ("adapter.placement = 0,,1", "0,,1"),
    ("adapter.placement = ,1", ",1"),
    # a one-dimensional mean is written as a scalar
    ("class.0.mean = 1.0,", "1.0,"),
    ("class.0.mean = 1.0, ", "1.0,"),
])
def test_empty_list_elements_are_refused_naming_the_line(line, raw):
    # they were dropped, so "0,,1" ran and was recorded as "0,1"
    key = line.split(" =")[0]
    message = f"line 2: {key}: empty element in list value '{raw}'"
    with pytest.raises(ValueError) as info:
        parse_config_text(f"train.steps = 5\n{line}\n")
    assert str(info.value) == message


def test_a_config_that_is_not_utf8_is_refused_naming_the_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"train.steps = 5\ncorpus.profile = t\xffil8\n")
    with pytest.raises(ValueError) as info:
        load_experiment_config(path)
    assert str(info.value) == f"{path}: not UTF-8: invalid start byte"


CLASS_KEYS = {"class.0.mean": "0.0,0.0", "class.0.scale": "0.5", "class.0.count": "30"}


@pytest.mark.parametrize("key, raw, message", [
    ("class.0.count", "2.9", "class.0.count: expected an integer, got 2.9"),
    ("class.0.scale", "true", "class.0.scale: expected a number, got True"),
    ("class.0.mean", "0.0,north", "class.0.mean: expected a number, got 'north'"),
    ("class.0.healthy", "1", "class.0.healthy: expected true/false, got 1"),
    ("class.0.mean", None, "class.0.mean: required key missing"),
    ("class.0.scale", None, "class.0.scale: required key missing"),
    ("class.0.count", None, "class.0.count: required key missing"),
])
def test_explicit_class_keys_are_typed(key, raw, message):
    keys = dict(CLASS_KEYS, **{key: raw})
    text = "\n".join(f"{k} = {v}" for k, v in keys.items() if v is not None)
    # an unknown profile name is fine when the classes are explicit; the
    # metrics.k check reads the class specs, so a bad key fails at load
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_flat(parse_config_text(text + "\ncorpus.profile = nope"))


_CHOICES = {
    "corpus.profile": sorted(_PROFILES),
    "partition.method": list(_METHODS),
    "adapter.placement": ["all", "none", "last:1", "0", "0,0"],
}
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _values(key, default):
    """Values of one config key, inside its ``_BOUNDS``."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, str):
        return st.sampled_from(_CHOICES[key])
    low, high, exclude_low = None, None, False
    for op, bound, keys in _BOUNDS:
        if key in keys and op == "<=":
            high = bound
        elif key in keys:
            low, exclude_low = bound, op == ">"
    if isinstance(default, int):
        return st.integers(low, high)
    return st.floats(low, high, exclude_min=exclude_low, allow_nan=False, allow_infinity=False)


@st.composite
def configs(draw):
    defaults = ExperimentConfig()
    values = {
        attr: draw(_values(key, getattr(defaults, attr)))
        for key, attr in _KEYS.items() if key != "metrics.k"
    }
    if values["partition_method"] == "label-tier":
        values["partition_experts"] = draw(st.sampled_from([3, 4]))
    if values["train_resample"] and values["partition_method"] != "single":
        # a resampled batch holds a row of each expert
        values["train_batch_size"] = draw(st.integers(values["partition_experts"]))
    values["train_quota"] = draw(st.integers(0, values["train_batch_size"]))
    values["backbone_time_embed_dim"] = 2 * draw(st.integers(1))  # sin/cos pairs: any even >= 2
    classes = {}
    cids = draw(st.sets(st.integers(0, 20), max_size=3))
    if cids:  # every mean holds corpus.dimension values, and at most one class is healthy
        values["corpus_dimension"] = draw(st.integers(1, 3))
        healthy = draw(st.sampled_from([None, *sorted(cids)]))
    for cid in cids:
        # a one-dimensional mean parses as a scalar, a longer one as a list
        dimension = values["corpus_dimension"]
        mean = _FINITE if dimension == 1 else st.lists(_FINITE, min_size=dimension,
                                                        max_size=dimension)
        classes[f"class.{cid}.mean"] = draw(mean)
        classes[f"class.{cid}.scale"] = draw(st.floats(0.0, 10.0, exclude_min=True))
        classes[f"class.{cid}.count"] = draw(st.integers(1, 10**6))
        classes[f"class.{cid}.healthy"] = cid == healthy
    cfg = ExperimentConfig(**values, explicit_classes=classes)
    specs = class_specs_from_config(replace(cfg, corpus_dimension=1))
    try:
        label_tier_classes(specs, cfg.partition_experts)
    except ValueError:  # too few classes for the tiers, or K = 4 without a healthy one
        assume(cfg.partition_method != "label-tier")
    # metrics.k leaves k + 1 members in some class of the train split
    largest = max(s.count for s in specs)
    assume(largest >= 2)
    return replace(cfg, metrics_k=draw(st.integers(1, largest - 1)))


@settings(max_examples=80, deadline=None)
@given(cfg=configs())
def test_config_text_round_trip_property(cfg):
    again = ExperimentConfig.from_flat(parse_config_text(cfg.to_text()))
    assert again == cfg
    assert again.hash() == cfg.hash()
