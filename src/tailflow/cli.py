"""Command-line interface.

Subcommands: generate, partition, train, sample, evaluate,
analyze-conflicts, compare, pipeline. The five stage subcommands each run
one stage of ``tailflow.pipeline`` on the inputs an earlier stage left in
``--out`` and record it in ``--out/manifest.json``. Every subcommand is a
pure function of (files in ``--out``, flags, seed) to files under ``--out``;
nothing is written anywhere else. Exit codes: 0 success, 1 usage error,
2 stage failure. A failed command removes the directories it made for
``--out`` that it left empty.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_experiment_config
from .partition import _METHODS
from .pipeline import (
    ARTIFACTS,
    RunManifest,
    build_partition,
    compare_runs,
    open_run,
    pretrained_backbone,
    run_pipeline,
    run_stage,
)
from .seeding import derive_seed
from .training import measure_conflict_reduction


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="experiment config file")
    sub.add_argument("--seed", type=int, default=None, help="override the config root seed")
    sub.add_argument("--out", required=True, help="output directory")


def _cmd_stage(args) -> int:
    cfg = load_experiment_config(args.config)
    manifest = run_stage(cfg, args.out, args.stage, seed=args.seed)
    written = ", ".join(str(Path(args.out) / name) for name in ARTIFACTS[args.stage])
    print(f"wrote {written} ({manifest.stages[args.stage]['seconds']:.2f} s)")
    return 0


def _cmd_analyze_conflicts(args) -> int:
    if args.probe_size < 2:  # before the pretraining it would waste
        raise ValueError(f"probe_size must be >= 2 to form a pair, got {args.probe_size}")
    cfg = load_experiment_config(args.config)
    ctx, _ = open_run(cfg, args.out, "analyze-conflicts", args.seed)
    corpus = ctx.train_corpus()
    # probe the same frozen base the train stage fine-tunes
    state = pretrained_backbone(cfg, corpus, derive_seed(ctx.root, "backbone"),
                                derive_seed(ctx.root, "pretrain"))
    parts = []
    kept = []
    for method in _METHODS:
        experts = 1 if method == "single" else cfg.partition_experts
        try:
            parts.append(build_partition(corpus, method, experts, derive_seed(ctx.root, method)))
            kept.append(method)
        except ValueError as exc:
            print(f"skipped {method}: {exc}", file=sys.stderr)
    scores = measure_conflict_reduction(
        state, corpus, parts, probe_size=args.probe_size, seed=derive_seed(ctx.root, "conflict")
    )
    table = "partition,within_cluster_conflict,pair_count\n" + "".join(
        f"{method},{score.overall!r},{score.pair_count}\n" for method, score in zip(kept, scores)
    )
    (ctx.out / "conflict_comparison.csv").write_text(table)
    print(table.rstrip())
    return 0


def _cmd_compare(args) -> int:
    manifests = [RunManifest.load(p) for p in args.manifests]
    table = compare_runs(manifests)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "comparison.csv").write_text(table)
    print(table.rstrip())
    return 0


def _cmd_pipeline(args) -> int:
    manifest = run_pipeline(load_experiment_config(args.config), args.out, seed=args.seed)
    print(f"wrote {Path(args.out) / 'manifest.json'} (config {manifest.config_hash[:12]})")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tailflow", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name, stage, text in (
        ("generate", "datagen", "generate train/test corpora"),
        ("partition", "partition", "partition the train corpus into expert clusters"),
        ("train", "train", "pretrain the backbone and fine-tune adapters"),
        ("sample", "sample", "generate vectors from the checkpoint"),
        ("evaluate", "evaluate", "compute diversity/quality metrics"),
    ):
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
        sub.set_defaults(fn=_cmd_stage, stage=stage)

    sub = subs.add_parser("analyze-conflicts", help="compare partitions by gradient conflict")
    _add_common(sub)
    sub.add_argument("--probe-size", type=int, default=8)
    sub.set_defaults(fn=_cmd_analyze_conflicts)

    sub = subs.add_parser("compare", help="tabulate metrics across run manifests")
    sub.add_argument("manifests", nargs="+", help="manifest.json paths")
    sub.add_argument("--out", required=True)
    sub.set_defaults(fn=_cmd_compare)

    sub = subs.add_parser("pipeline", help="run all stages end to end")
    _add_common(sub)
    sub.set_defaults(fn=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    made = [p for p in (out, *out.parents) if not p.exists()]  # deepest first
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:  # before --out is made
            raise ValueError(f"--seed: must be >= 0, got {args.seed}")
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - stage failures map to exit 2
        for path in made:
            if path.is_dir() and not any(path.iterdir()):
                path.rmdir()
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
