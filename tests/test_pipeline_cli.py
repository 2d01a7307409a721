import json
import shutil
import time

import numpy as np
import pytest

from tailflow.cli import main
from tailflow.config import ExperimentConfig
from tailflow.errors import SchemaMismatchError, StageError
from tailflow.pipeline import RunManifest, compare_runs, run_pipeline, run_stage

SMOKE = ExperimentConfig(
    seeds=[42],
    corpus_profile="chest-longtail",
    corpus_size=200,
    corpus_test_size=120,
    train_pretrain_steps=60,
    train_steps=50,
    train_trace_interval=25,
    sample_per_class=6,
    sample_steps=8,
    metrics_k=3,
)

SMOKE_TEXT = SMOKE.to_text()


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    started = time.perf_counter()
    manifest = run_pipeline(SMOKE, out)
    elapsed = time.perf_counter() - started
    return out, manifest, elapsed


class TestPipeline:
    def test_smoke_completes_quickly_with_full_manifest(self, smoke_run):
        out, manifest, elapsed = smoke_run
        assert elapsed < 60.0
        assert set(manifest.stages) == {"datagen", "partition", "train", "sample", "evaluate"}
        for stage, info in manifest.stages.items():
            for name in info["artifacts"].values():
                assert (out / name).exists()
            assert info["seconds"] >= 0.0
        assert (out / "manifest.json").exists()
        loaded = RunManifest.load(out / "manifest.json")
        assert loaded.config_hash == SMOKE.hash()

    def test_reruns_are_byte_identical(self, smoke_run, tmp_path):
        out, _, _ = smoke_run
        again = tmp_path / "again"
        run_pipeline(SMOKE, again)
        for name in ("metrics.json", "metrics.csv", "generated.txt", "ledger.json",
                     "train_corpus.txt", "partition.txt"):
            assert (out / name).read_bytes() == (again / name).read_bytes(), name

    def test_guidance_scale_five_parses_and_runs(self, smoke_run):
        out, _, _ = smoke_run
        assert SMOKE.sample_guidance_scale == 5.0
        metrics = json.loads((out / "metrics.json").read_text())
        assert np.isfinite(metrics["coverage"])

    def test_resample_ablation_differs_only_downstream_of_training(self, smoke_run, tmp_path):
        out, manifest, _ = smoke_run
        flipped = ExperimentConfig(**{**SMOKE.__dict__, "train_resample": True,
                                      "explicit_classes": {}})
        other = run_pipeline(flipped, tmp_path / "flip")
        for stage in ("datagen", "partition"):
            assert manifest.stages[stage]["sha256"] == other.stages[stage]["sha256"]
        assert (
            manifest.stages["train"]["sha256"]["ledger.json"]
            != other.stages["train"]["sha256"]["ledger.json"]
        )
        # the comparison table's utilization-gap column is strictly smaller
        # for the resampled run
        table = compare_runs([manifest, other], labels=["off", "on"])
        rows = {line.split(",")[0]: line.split(",") for line in table.strip().splitlines()[1:]}
        assert float(rows["on"][-1]) < float(rows["off"][-1])

    def test_seed_override_changes_outputs(self, smoke_run, tmp_path):
        out, _, _ = smoke_run
        other = run_pipeline(SMOKE, tmp_path / "seeded", seed=777)
        assert other.root_seed == 777
        assert (out / "metrics.json").read_bytes() != (tmp_path / "seeded" / "metrics.json").read_bytes()


class TestCompare:
    def test_self_comparison_rows_identical(self, smoke_run):
        out, manifest, _ = smoke_run
        table = compare_runs([manifest, manifest], labels=["a", "b"])
        lines = table.strip().splitlines()
        assert lines[0].startswith("run,coverage")
        a = lines[1].split(",", 1)[1]
        b = lines[2].split(",", 1)[1]
        assert a == b

    def test_needs_two_runs(self, smoke_run):
        _, manifest, _ = smoke_run
        with pytest.raises(ValueError):
            compare_runs([manifest])

    def test_schema_mismatch_detected(self, smoke_run, tmp_path):
        out, manifest, _ = smoke_run
        other_cfg = ExperimentConfig(**{**SMOKE.__dict__, "metrics_k": 4,
                                        "explicit_classes": {}})
        other = run_pipeline(other_cfg, tmp_path / "k4")
        with pytest.raises(SchemaMismatchError):
            compare_runs([manifest, other])


class TestCli:
    def test_stagewise_subcommands_chain(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT)
        out = tmp_path / "work"
        for sub in ("generate", "partition", "train", "sample", "evaluate"):
            rc = main([sub, "--config", str(cfg_path), "--out", str(out)])
            assert rc == 0, sub
        for name in ("train_corpus.txt", "test_corpus.txt", "partition.txt",
                     "composition.json", "checkpoint.npz", "ledger.json",
                     "conflict_trace.csv", "generated.txt", "metrics.json", "metrics.csv"):
            assert (out / name).exists(), name
        # stagewise chain reproduces the monolithic pipeline byte for byte
        pipe_out = tmp_path / "pipe"
        rc = main(["pipeline", "--config", str(cfg_path), "--out", str(pipe_out)])
        assert rc == 0
        assert (out / "metrics.json").read_bytes() == (pipe_out / "metrics.json").read_bytes()
        # the stagewise run records every stage with the pipeline's hashes
        stagewise = RunManifest.load(out / "manifest.json")
        piped = RunManifest.load(pipe_out / "manifest.json")
        assert list(stagewise.stages) == list(piped.stages)
        assert set(stagewise.stages) == {"datagen", "partition", "train", "sample", "evaluate"}
        for stage in piped.stages:
            assert stagewise.stages[stage]["sha256"] == piped.stages[stage]["sha256"], stage
        assert main(["compare", str(out / "manifest.json"), str(pipe_out / "manifest.json"),
                     "--out", str(tmp_path / "cmp")]) == 0
        capsys.readouterr()

    def test_stage_refuses_other_config_or_seed(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT)
        out = tmp_path / "work"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["train", "--seed", "7", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "stage 'train' failed" in capsys.readouterr().err
        with pytest.raises(StageError, match="seed 42") as info:
            run_stage(SMOKE, out, "partition", seed=7)
        assert info.value.stage == "partition"
        other = ExperimentConfig(**{**SMOKE.__dict__, "metrics_k": 4, "explicit_classes": {}})
        with pytest.raises(StageError, match="config") as info:
            run_stage(other, out, "partition")
        assert info.value.stage == "partition"
        assert not (out / "partition.txt").exists()
        # a pipeline run starts a fresh manifest instead
        run_pipeline(SMOKE, out, seed=7)
        assert RunManifest.load(out / "manifest.json").root_seed == 7

    def test_analyze_conflicts_emits_table(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT)
        out = tmp_path / "work"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["analyze-conflicts", "--config", str(cfg_path), "--out", str(out)]) == 0
        table = (out / "conflict_comparison.csv").read_text()
        assert table.splitlines()[0] == "partition,within_cluster_conflict,pair_count"
        methods = [line.split(",")[0] for line in table.strip().splitlines()[1:]]
        assert set(methods) == {"label-tier", "embedding-kmeans", "random", "single"}
        capsys.readouterr()

    def test_analyze_conflicts_reports_skipped_methods(self, tmp_path, capsys):
        classes = {}
        for cid, (mean, count) in enumerate([((0.0, 0.0), 80), ((3.0, 0.0), 40),
                                             ((0.0, 3.0), 20), ((3.0, 3.0), 10)]):
            classes.update({f"class.{cid}.mean": list(mean), f"class.{cid}.scale": 0.5,
                            f"class.{cid}.count": count})
        no_healthy = ExperimentConfig(**{**SMOKE.__dict__, "explicit_classes": classes})
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(no_healthy.to_text())
        out = tmp_path / "work"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze-conflicts", "--config", str(cfg_path), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "skipped label-tier: " in err and "healthy" in err
        table = (out / "conflict_comparison.csv").read_text()
        methods = [line.split(",")[0] for line in table.strip().splitlines()[1:]]
        assert methods == ["embedding-kmeans", "random", "single"]

    def test_compare_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT)
        a, b = tmp_path / "a", tmp_path / "b"
        run_pipeline(SMOKE, a)
        run_pipeline(SMOKE, b, seed=7)
        rc = main(["compare", str(a / "manifest.json"), str(b / "manifest.json"),
                   "--out", str(tmp_path / "cmp")])
        assert rc == 0
        table = (tmp_path / "cmp" / "comparison.csv").read_text()
        assert len(table.strip().splitlines()) == 3
        capsys.readouterr()

    def test_compare_names_the_stage_an_unfinished_run_lacks(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", str(cfg_path), "--out", str(a)]) == 0
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(b)]) == 0
        capsys.readouterr()
        rc = main(["compare", str(a / "manifest.json"), str(b / "manifest.json"),
                   "--out", str(tmp_path / "cmp")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'evaluate'" in err and str(a / "manifest.json") in err

    def test_compare_rejects_an_artifact_edited_after_its_run(self, smoke_run, tmp_path, capsys):
        out, _, _ = smoke_run
        edited = tmp_path / "edited"
        shutil.copytree(out, edited)
        metrics = edited / "metrics.json"
        metrics.write_text(metrics.read_text().replace("{", "{ ", 1))
        rc = main(["compare", str(out / "manifest.json"), str(edited / "manifest.json"),
                   "--out", str(tmp_path / "cmp")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(edited / "manifest.json") in err and "metrics.json" in err
        assert not (tmp_path / "cmp").exists()

    def test_usage_error_exit_code(self, capsys):
        assert main(["not-a-command"]) == 1
        assert main(["generate"]) == 1  # missing required flags
        capsys.readouterr()

    def test_stage_failure_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT)
        out = tmp_path / "fresh"
        # evaluate without inputs -> stage failure
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == 2
        capsys.readouterr()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_metrics_fail_the_evaluate_stage(self, tmp_path, capsys):
        # training stays finite, but a guidance scale of 1e300 overflows the
        # sampler; the garbage samples' Frechet distance is NaN
        diverged = ExperimentConfig(**{**SMOKE.__dict__, "sample_guidance_scale": 1e300,
                                       "explicit_classes": {}})
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(diverged.to_text())
        out = tmp_path / "work"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "stage 'evaluate' failed" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()
        assert "evaluate" not in RunManifest.load(out / "manifest.json").stages
        with pytest.raises(StageError) as info:
            run_stage(diverged, out, "evaluate")
        assert info.value.stage == "evaluate"
        assert not (out / "metrics.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("key, message", [
        ("train_pretrain_lr", "pretraining diverged: loss inf at step 2"),
        ("train_lr", "fine-tuning diverged: loss nan at step 3"),
    ])
    def test_diverging_training_fails_the_train_stage(self, tmp_path, capsys, key, message):
        diverged = ExperimentConfig(**{**SMOKE.__dict__, key: 1e8, "explicit_classes": {}})
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(diverged.to_text())
        out = tmp_path / "work"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "stage 'train' failed" in err and message in err
        assert not (out / "checkpoint.npz").exists()
        with pytest.raises(StageError, match=message) as info:
            run_stage(diverged, out, "train")
        assert info.value.stage == "train"
        assert not (out / "checkpoint.npz").exists()

    @pytest.mark.parametrize("size", ["1", "0"])
    def test_analyze_conflicts_rejects_a_probe_without_pairs(self, tmp_path, capsys, size):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT)
        out = tmp_path / "work"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        argv = ["analyze-conflicts", "--config", str(cfg_path), "--out", str(out),
                "--probe-size", size]
        assert main(argv) == 2
        assert f"error: probe_size must be >= 2 to form a pair, got {size}" in capsys.readouterr().err
        assert not (out / "conflict_comparison.csv").exists()

    def test_writes_stay_inside_out_dir(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT)
        out = tmp_path / "only-here"
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert list(cwd.iterdir()) == []
        capsys.readouterr()
