import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tailflow.metrics as metrics_mod
from tailflow.cli import main
from tailflow.config import ExperimentConfig
from tailflow.errors import SchemaMismatchError, StageError
from tailflow.datagen import load_corpus
from tailflow.partition import load_partition
from tailflow.pipeline import (
    ARTIFACTS,
    RunManifest,
    compare_runs,
    fine_tune,
    pretrained_backbone,
    run_pipeline,
    run_stage,
)
from tailflow.training import ledger_json

SMOKE = ExperimentConfig(
    seed=42,
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

# an evaluate stage entry as a run writes it
EVALUATE = {"sha256": {"metrics.json": "0" * 64, "metrics.csv": "f" * 64}, "seconds": 0.5}


def _manifest_text(stages, version=2) -> str:
    return json.dumps({"format_version": version, "config_hash": "c" * 64, "root_seed": 42,
                       "stages": stages})


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
            for name in info["sha256"]:
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

    def test_pipeline_never_reloads_a_corpus(self, smoke_run, tmp_path, monkeypatch):
        # every stage reads the corpora datagen and the rows sample left in the
        # run's context; a lone evaluate reads the rows from generated.txt
        def load_corpus(path):
            raise AssertionError(f"run_pipeline re-read {path}")

        read = []

        def load_features(path, tag):
            read.append(Path(path).name)
            return metrics_mod.load_features(path, tag)

        monkeypatch.setattr("tailflow.pipeline.load_corpus", load_corpus)
        monkeypatch.setattr("tailflow.datagen.load_corpus", load_corpus)
        monkeypatch.setattr("tailflow.pipeline.load_features", load_features)
        run_pipeline(SMOKE, tmp_path)
        assert read == []
        out, _, _ = smoke_run
        assert (tmp_path / "metrics.json").read_bytes() == (out / "metrics.json").read_bytes()
        monkeypatch.undo()
        monkeypatch.setattr("tailflow.pipeline.load_features", load_features)
        run_stage(SMOKE, tmp_path, "evaluate")
        assert read == ["generated.txt"]
        assert (tmp_path / "metrics.json").read_bytes() == (out / "metrics.json").read_bytes()

    def test_fine_tune_leaves_its_base_as_it_was(self, smoke_run):
        # criterion 8 fine-tunes both of its arms from one base
        out, _, _ = smoke_run
        corpus = load_corpus(out / "train_corpus.txt")
        part = load_partition(out / "partition.txt", corpus)
        base = pretrained_backbone(SMOKE, corpus, 1, 2)
        before = {k: v.tobytes() for k, v in base.backbone.items()}
        (first, first_ledger, _), (second, second_ledger, _) = (
            fine_tune(SMOKE, base, corpus, part, 3, 4) for _ in range(2)
        )
        assert first.adapters.w1.tobytes() == second.adapters.w1.tobytes()
        assert first.adapters.w2.tobytes() == second.adapters.w2.tobytes()
        assert ledger_json(first_ledger) == ledger_json(second_ledger)
        assert {k: v.tobytes() for k, v in base.backbone.items()} == before
        assert base.adapters is None

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

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"], []])
    def test_labels_must_match_the_runs(self, smoke_run, labels):
        # too few used to raise a bare IndexError, and extra labels were dropped
        _, manifest, _ = smoke_run
        with pytest.raises(ValueError, match=f"^{len(labels)} labels for 2 manifests$"):
            compare_runs([manifest, manifest], labels=labels)

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

    def test_list_placement_runs_as_all_blocks(self, smoke_run, tmp_path, capsys):
        # "0,1" names both blocks of the smoke backbone, as "all" does
        out, _, _ = smoke_run
        text = SMOKE_TEXT.replace("adapter.placement = all", "adapter.placement = 0,1")
        assert "adapter.placement = 0,1\n" in text
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        for name in ("metrics.json", "generated.txt", "ledger.json"):
            assert (tmp_path / "run" / name).read_bytes() == (out / name).read_bytes(), name
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
        no_healthy = ExperimentConfig(**{**SMOKE.__dict__, "explicit_classes": classes,
                                         "partition_method": "embedding-kmeans"})
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

    def test_analyze_conflicts_refuses_another_runs_directory(self, tmp_path, capsys):
        # the stage subcommands' manifest check: another seed or config is refused
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT)
        other = tmp_path / "other.cfg"
        other.write_text(SMOKE_TEXT.replace("backbone.hidden_dim = 32", "backbone.hidden_dim = 16"))
        out = tmp_path / "work"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        for argv in (["--seed", "7", "--config", str(cfg_path)], ["--config", str(other)]):
            assert main(["analyze-conflicts", *argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "stage 'analyze-conflicts' failed" in err
            assert f"{out / 'manifest.json'} records config" in err
            assert not (out / "conflict_comparison.csv").exists()

    def test_pipeline_runs_sparse_explicit_class_ids(self, tmp_path, capsys):
        # any non-negative class.<id> is allowed, so ids need not be dense
        classes = {"class.0.healthy": True}
        for cid, mean, count in [(0, (0.0, 0.0), 80), (5, (3.0, 0.0), 40),
                                 (7, (0.0, 3.0), 20), (9, (3.0, 3.0), 10)]:
            classes.update({f"class.{cid}.mean": list(mean), f"class.{cid}.scale": 0.5,
                            f"class.{cid}.count": count})
        sparse = ExperimentConfig(**{**SMOKE.__dict__, "explicit_classes": classes})
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(sparse.to_text())
        out = tmp_path / "work"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert list(metrics["per_class"]) == ["0", "5", "7", "9"]
        capsys.readouterr()

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

    @pytest.mark.parametrize("text, reason", [
        ("{}", "missing key 'format_version'"),
        ('{"format_version": 2, "root_seed": 42, "stages": {}}', "missing key 'config_hash'"),
        ("", "Expecting value: line 1 column 1 (char 0)"),
        ("[1]", "expected a JSON object, got list"),
        (_manifest_text({}, version=1), "unsupported manifest version 1"),
        (_manifest_text(5), "stages: expected an object, got int"),
        (_manifest_text({"bogus": EVALUATE}),
         "stage 'bogus': not one of datagen, partition, train, sample, evaluate"),
        (_manifest_text({"evaluate": 5}),
         "stage 'evaluate': expected keys ['seconds', 'sha256'], got int"),
        (_manifest_text({"evaluate": {}}),
         "stage 'evaluate': expected keys ['seconds', 'sha256'], got []"),
        # the version-1 entry, which also named each artifact after itself
        (_manifest_text({"evaluate": {**EVALUATE, "artifacts": {"metrics.json": "metrics.json",
                                                                "metrics.csv": "metrics.csv"}}}),
         "stage 'evaluate': expected keys ['seconds', 'sha256'], "
         "got ['artifacts', 'seconds', 'sha256']"),
        (_manifest_text({"evaluate": {**EVALUATE, "sha256": {"metrics.json": "0" * 64}}}),
         "stage 'evaluate': sha256: expected keys ['metrics.csv', 'metrics.json'], "
         "got ['metrics.json']"),
        (_manifest_text({"evaluate": {**EVALUATE, "sha256": ["0" * 64] * 2}}),
         "stage 'evaluate': sha256: expected keys ['metrics.csv', 'metrics.json'], "
         "got list"),
        (_manifest_text({"evaluate": {**EVALUATE, "sha256": {"metrics.json": "abc",
                                                             "metrics.csv": "f" * 64}}}),
         "stage 'evaluate': sha256: metrics.json: expected 64 lowercase hex digits, got 'abc'"),
        (_manifest_text({"evaluate": {**EVALUATE, "sha256": {"metrics.json": "0" * 64,
                                                             "metrics.csv": "F" * 64}}}),
         f"stage 'evaluate': sha256: metrics.csv: expected 64 lowercase hex digits, "
         f"got '{'F' * 64}'"),
        (_manifest_text({"evaluate": {**EVALUATE, "seconds": "0.5"}}),
         "stage 'evaluate': seconds: expected a finite number, got '0.5'"),
        (_manifest_text({"evaluate": {**EVALUATE, "seconds": float("nan")}}),
         "stage 'evaluate': seconds: expected a finite number, got nan"),
    ], ids=["no-version", "no-config-hash", "empty", "list", "version-1", "stages-int",
            "unknown-stage", "entry-int", "entry-empty", "entry-artifacts", "sha256-missing",
            "sha256-list", "digest-short", "digest-upper", "seconds-str", "seconds-nan"])
    def test_compare_names_a_manifest_it_cannot_read(self, smoke_run, tmp_path, capsys,
                                                     text, reason):
        out, _, _ = smoke_run
        bad = tmp_path / "manifest.json"
        bad.write_text(text)
        with pytest.raises(ValueError) as info:
            RunManifest.load(bad)
        assert str(info.value) == f"{bad}: {reason}"
        rc = main(["compare", str(out / "manifest.json"), str(bad),
                   "--out", str(tmp_path / "cmp")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
        assert not (tmp_path / "cmp").exists()

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

    @pytest.mark.parametrize("change, reason", [
        (lambda meta: meta.update(format_version=1), "unsupported checkpoint version 1"),
        (lambda meta: meta["adapters"].update(placement=[0, 5]), "placement (0, 5)"),
        (lambda meta: meta["config"].update(foo=1), "unexpected keyword argument 'foo'"),
    ], ids=["version-1", "placement", "config-field"])
    def test_sample_stage_refuses_a_malformed_checkpoint(self, smoke_run, tmp_path, capsys,
                                                         change, reason):
        out, _, _ = smoke_run
        edited = tmp_path / "edited"
        shutil.copytree(out, edited)
        path = edited / "checkpoint.npz"
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        change(meta)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT)
        assert main(["sample", "--config", str(cfg_path), "--out", str(edited)]) == 2
        err = capsys.readouterr().err
        assert "stage 'sample' failed" in err and f"{path}: " in err and reason in err

    def test_usage_error_exit_code(self, capsys):
        assert main(["not-a-command"]) == 1
        assert main(["generate"]) == 1  # missing required flags
        capsys.readouterr()

    @pytest.mark.parametrize("argv, config_line, message", [
        (["pipeline", "--seed", "-3"], "", "error: --seed: must be >= 0, got -3"),
        (["generate", "--seed", "-3"], "", "error: --seed: must be >= 0, got -3"),
        (["analyze-conflicts", "--seed", "-3"], "", "error: --seed: must be >= 0, got -3"),
        (["pipeline"], "seed = -1", "error: seed: must be >= 0, got -1"),
        (["pipeline"], "seed = 0,1", "error: seed: expected an integer, got [0, 1]"),
    ])
    def test_negative_seeds_fail_at_load(self, tmp_path, capsys, argv, config_line, message):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT.replace("seed = 42", config_line))
        out = tmp_path / "run"
        assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_overrides_the_config_seed(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT)
        assert "seed = 42\n" in SMOKE_TEXT
        out = tmp_path / "flag"
        assert main(["generate", "--seed", "7", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = RunManifest.load(out / "manifest.json")
        assert (manifest.config_hash, manifest.root_seed) == (SMOKE.hash(), 7)
        seeded = run_stage(replace(SMOKE, seed=7), tmp_path / "seeded", "datagen")
        assert seeded.stages["datagen"]["sha256"] == manifest.stages["datagen"]["sha256"]

    def test_a_config_that_is_not_utf8_fails_at_load(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_bytes(SMOKE_TEXT.encode().replace(b"chest", b"ch\xffst"))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg_path}: not UTF-8: invalid start byte\n"
        assert not out.exists()

    def test_label_tier_preconditions_fail_at_load(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT.replace("partition.experts = 4", "partition.experts = 2"))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
        message = "error: partition.method = label-tier: label tiers support K in {3, 4}, got 2"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_resampling_with_fewer_batch_rows_than_experts_fails_at_load(self, tmp_path, capsys):
        # the train stage would refuse it only after datagen, partition and pretraining
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT.replace("train.resample = false", "train.resample = true")
                            .replace("train.batch_size = 8", "train.batch_size = 3")
                            .replace("train.quota = 3", "train.quota = 2"))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
        message = ("error: train.batch_size: must be >= partition.experts (4) "
                   "with train.resample = true, got 3")
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "analyze-conflicts"])
    def test_a_failed_command_removes_the_out_it_made(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT)
        out = tmp_path / "fresh" / "run"
        # no corpus to read: the stage fails before it writes
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "fresh").exists()

    def test_a_failed_command_keeps_an_out_it_found_or_wrote_to(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT)
        found = tmp_path / "found"
        found.mkdir()
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(found)]) == 2
        assert found.is_dir()

        def fail(*args, **kwargs):
            raise ValueError("no partition")

        monkeypatch.setattr("tailflow.pipeline.build_partition", fail)
        out = tmp_path / "fresh"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert {p.name for p in out.iterdir()} == {"manifest.json", *ARTIFACTS["datagen"]}
        capsys.readouterr()

    def test_run_pipeline_rejects_a_negative_seed_before_making_out(self, tmp_path):
        with pytest.raises(ValueError, match="seed: must be >= 0, got -3"):
            run_pipeline(SMOKE, tmp_path / "run", seed=-3)
        assert not (tmp_path / "run").exists()

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
    def test_analyze_conflicts_rejects_a_probe_without_pairs(
        self, tmp_path, capsys, monkeypatch, size
    ):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMOKE_TEXT)
        out = tmp_path / "work"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()

        def pretrain(*args, **kwargs):
            raise AssertionError("pretrained before the probe size was checked")

        monkeypatch.setattr("tailflow.cli.pretrained_backbone", pretrain)
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


def test_a_run_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma (1.3 MB resident) on its first call; no stage calls it
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(SMOKE_TEXT)
    args = ["--config", str(cfg), "--out", str(tmp_path / "run")]
    code = (f"import sys; from tailflow.cli import main; main(['pipeline', *{args!r}]); "
            f"main(['analyze-conflicts', *{args!r}]); print('numpy.ma' in sys.modules)")
    src = str(Path(metrics_mod.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"
