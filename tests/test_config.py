import pytest

from tailflow.config import (
    ExperimentConfig,
    canonical_config_text,
    class_specs_from_config,
    config_hash,
    load_experiment_config,
    parse_config_text,
)

SAMPLE = """
# smoke experiment
version = 1
seeds = 42,43
corpus.profile = tail8
corpus.size = 400
corpus.test_size = 200
train.steps = 50
train.resample = true
sample.guidance_scale = 5.0
"""


def test_parse_and_types():
    flat = parse_config_text(SAMPLE)
    assert flat["seeds"] == [42, 43]
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
    assert cfg.root_seed == 42
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
        ExperimentConfig(seeds=[]).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(train_quota=10, train_batch_size=8).validate()


@pytest.mark.parametrize("text, message", [
    ("train.steps = 2.9", "train.steps: expected an integer, got 2.9"),
    ("metrics.k = true", "metrics.k: expected an integer, got True"),
    ("seeds = 4.7", "seeds: expected an integer, got 4.7"),
    ("train.lr = true", "train.lr: expected a number, got True"),
    ("train.lr = fast", "train.lr: expected a number, got 'fast'"),
])
def test_integer_keys_reject_non_integers(text, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_flat(parse_config_text(text))


def test_float_keys_accept_integers():
    cfg = ExperimentConfig.from_flat(parse_config_text("train.lr = 1"))
    assert cfg.train_lr == 1.0 and isinstance(cfg.train_lr, float)


@pytest.mark.parametrize("text, message", [
    ("train.lr = -1", "train.lr: must be > 0, got -1.0"),
    ("train.pretrain_lr = 0", "train.pretrain_lr: must be > 0, got 0.0"),
    ("partition.method = bogus", "partition.method: unknown method 'bogus'"),
    ("adapter.nonlinearity = tanh", "adapter.nonlinearity: unknown 'tanh'"),
    ("corpus.profile = nope", "corpus.profile: unknown profile 'nope'"),
    ("sample.steps = 0", "sample.steps: must be >= 1, got 0"),
    ("metrics.k = 0", "metrics.k: must be >= 1, got 0"),
    ("train.cond_dropout = 2", "train.cond_dropout: must be <= 1, got 2.0"),
    ("train.cond_dropout = nan", "train.cond_dropout: must be >= 0, got nan"),
    ("train.steps = -1", "train.steps: must be >= 0, got -1"),
    ("partition.experts = 0", "partition.experts: must be >= 1, got 0"),
    ("train.lr = nan", "train.lr: must be > 0, got nan"),
    ("sample.guidance_scale = -1", "sample.guidance_scale: must be >= 0, got -1.0"),
    ("class.0.colour = red", "class.0.colour: expected class.<int >= 0>"),
    ("class.x.count = 3", "class.x.count: expected class.<int >= 0>"),
    ("class.0 = 1", "class.0: expected class.<int >= 0>"),
])
def test_load_rejects_bad_values(text, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_flat(parse_config_text(text))


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
    # an unknown profile name is fine when the classes are explicit
    cfg = ExperimentConfig.from_flat(parse_config_text(text + "\ncorpus.profile = nope"))
    with pytest.raises(ValueError, match=message):
        class_specs_from_config(cfg)
