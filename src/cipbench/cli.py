"""Command-line entry point: generate / train / eval / export / sweep.

Exit codes are stable: 0 success, 1 configuration error (bad config key,
out-of-range value, bad flag combination, missing input file), 2 runtime
failure (including detected training divergence and running out of
memory).  Every command builds and checks its configuration before it
writes anything, then copies the fully resolved configuration into the
output location so a run is reproducible from that file and its seed alone.
``eval``, ``sweep`` and the trainer's ``eval_every`` score the rows of
``Dataset.eval_mask``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import encoder as enc
from .config import ConfigError, RunConfig, config_help_lines, parse_value
from .data import Table, generate, load_dataset, save_dataset, split, write_csv
from .retrieval import evaluate_run, geometry_report, pool_descriptors, rank
from .trainer import (
    DivergenceError,
    evaluate_map,
    history_to_csv,
    load_checkpoint,
    save_checkpoint,
    train,
)

__all__ = ["entrypoint", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    epilog = "config keys and defaults:\n" + "\n".join(config_help_lines())
    parser = argparse.ArgumentParser(
        prog="cipbench",
        description="Synthetic benchmark for inner-product embedding losses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.epilog, p.formatter_class = epilog, argparse.RawDescriptionHelpFormatter
        p.add_argument("--config", help="key = value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )

    p = sub.add_parser("generate", help="write a synthetic multi-view dataset (CSV, JSON sidecar, rows cache)")
    common(p)
    p.add_argument("--out", help="output directory (default: out_dir config key)")

    p = sub.add_parser("train", help="train on a dataset; writes checkpoint.json and history.csv")
    common(p)
    p.add_argument("--dataset", required=True, help="dataset CSV path")
    p.add_argument("--out", help="output directory (default: out_dir config key)")

    p = sub.add_parser("eval", help="score a checkpoint; writes metrics.json + geometry files")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", help="output directory (default: out_dir config key)")

    p = sub.add_parser("export", help="dump embeddings to CSV for external plotting")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output CSV file")
    p.add_argument("--pooled", action="store_true", help="one row per object instead of per view")

    p = sub.add_parser("sweep", help="train/eval a grid of (lambda, d) settings; writes sweep.csv")
    common(p)
    p.add_argument("--lambdas", required=True, help="comma list, e.g. 0.1,1,10")
    p.add_argument("--ds", default="2", help="comma list of d values")
    p.add_argument("--dataset", help="reuse an existing dataset CSV (default: generate)")
    p.add_argument("--out", help="output directory (default: out_dir config key)")
    return parser


def _resolve(args) -> RunConfig:
    return RunConfig.from_sources(args.config, args.overrides)


def _outdir(args, cfg: RunConfig) -> Path:
    out = Path(args.out) if getattr(args, "out", None) else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_file(path_text: str, what: str) -> Path:
    path = Path(path_text)
    if not path.is_file():
        raise ConfigError(f"{what} {'is not a file' if path.exists() else 'not found'}: {path}")
    return path


def _generate_split(cfg: RunConfig):
    """The configured synthetic dataset with its stratified split."""
    spec = cfg.synthetic_spec()
    if spec.objects_per_class < 2:
        raise ConfigError(f"objects_per_class must be at least 2 to split, got {spec.objects_per_class}")
    return split(generate(spec), cfg.train_fraction, cfg.seed)


def _load_split_dataset(path_text: str, cfg: RunConfig):
    dataset = load_dataset(_require_file(path_text, "dataset"))
    if dataset.split is None:
        dataset = split(dataset, cfg.train_fraction, cfg.seed)
    return dataset


def _check_agreement(args, checkpoint, dataset, classes: bool = False) -> None:
    """The encoder must take the dataset's input dimension and, with
    ``classes``, the checkpoint must hold a centerline for every label."""
    takes = checkpoint.params.layer_dims[0]
    if dataset.input_dim != takes:
        raise ValueError(
            f"{args.checkpoint}: encoder takes {takes} inputs, but {args.dataset} "
            f"has {dataset.input_dim} coordinate columns"
        )
    lines = checkpoint.bank.num_classes
    if classes and dataset.num_classes > lines:
        raise ValueError(
            f"{args.checkpoint}: {lines} centerlines, but {args.dataset} "
            f"has labels up to {dataset.num_classes}"
        )


def cmd_generate(args) -> int:
    cfg = _resolve(args)
    dataset = _generate_split(cfg)
    out = _outdir(args, cfg)
    save_dataset(dataset, out / "dataset.csv")
    cfg.save(out / "config.used.cfg")
    print(f"wrote {dataset.num_views} view rows to {out / 'dataset.csv'}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve(args)
    train_cfg = cfg.train_config()
    dataset = _load_split_dataset(args.dataset, cfg)
    dataset.check_trainable(args.dataset)
    if train_cfg.eval_every:
        dataset.check_scorable(args.dataset)
    out = _outdir(args, cfg)
    cfg.save(out / "config.used.cfg")
    try:
        result = train(dataset, train_cfg)
    except DivergenceError as e:
        print(f"training diverged ({e.signal}): {e}", file=sys.stderr)
        save_checkpoint(e.last_good, out / "checkpoint.last_good.json",
                        meta={"diverged": True, "signal": e.signal, "seed": cfg.seed})
        history_to_csv(e.history, out / "history.csv")
        return EXIT_RUNTIME
    save_checkpoint(result, out / "checkpoint.json", meta={"seed": cfg.seed, "loss": cfg.loss})
    history_to_csv(result.history, out / "history.csv")
    print(f"trained {len(result.history)} epochs; checkpoint at {out / 'checkpoint.json'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    checkpoint = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    dataset = _load_split_dataset(args.dataset, cfg)
    _check_agreement(args, checkpoint, dataset, classes=True)
    dataset.check_scorable(args.dataset)
    out = _outdir(args, cfg)
    cfg.save(out / "config.used.cfg")
    mask = dataset.eval_mask()
    feats, _ = enc.forward_batch(checkpoint.params, dataset.inputs[mask])
    descs, labels, _ = pool_descriptors(feats, dataset.object_ids[mask], dataset.labels[mask])
    summary = evaluate_run(rank(descs, labels), cfg.f1_cutoff, cfg.ndcg_cutoff)
    summary.save_json(out / "metrics.json")
    summary.save_csv(out / "metrics.csv")
    geo = geometry_report(feats, dataset.labels[mask], checkpoint.bank)
    geo.save_json(out / "geometry.json")
    geo.save_cosine_csv(out / "geometry.csv")
    print(
        f"micro MAP {summary.micro.map:.4f}  macro MAP {summary.macro.map:.4f}  "
        f"(skipped {summary.skipped_queries}/{summary.total_queries} queries)"
    )
    return EXIT_OK


def cmd_export(args) -> int:
    cfg = _resolve(args)
    checkpoint = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    dataset = load_dataset(_require_file(args.dataset, "dataset"))
    _check_agreement(args, checkpoint, dataset)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    feats, _ = enc.forward_batch(checkpoint.params, dataset.inputs)
    oids, labels = dataset.object_ids, dataset.labels
    if args.pooled:
        feats, labels, oids = pool_descriptors(feats, oids, labels)
    write_csv(out, ["object_id", "label", *(f"e{i}" for i in range(feats.shape[1]))],
              Table((oids, labels), feats))
    cfg.save(out.with_suffix(out.suffix + ".cfg"))
    print(f"wrote {len(oids)} embedding rows to {out}")
    return EXIT_OK


def _grid_values(text: str, key: str, flag: str) -> list:
    """A sweep flag's comma list, each item parsed and range-checked as
    ``--set key=item`` is but named ``flag``; no value may be listed twice."""
    values = [parse_value(key, item.strip(), flag) for item in text.split(",") if item.strip()]
    if not values:
        raise ConfigError(f"{flag}: the {key} list is empty")
    try:
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"{value} is listed twice")
            RunConfig.from_sources().replace(**{key: value}).loss_config()
    except ConfigError as e:
        raise ConfigError(f"{flag}: {e}") from None
    return values


def cmd_sweep(args) -> int:
    cfg = _resolve(args)
    lambdas = _grid_values(args.lambdas, "lambda", "--lambdas")
    ds = _grid_values(args.ds, "d", "--ds")
    # sweep convergence means "finished with finite loss": keep the
    # non-finite and norm-limit guards but not the geometry-quality
    # collapse check, which extreme lambda/d corners legitimately fail
    point = cfg.replace(centerline_collapse_cosine=2.0)
    grid = [(lam, d, point.replace(lam=lam, d=d).train_config()) for d in ds for lam in lambdas]
    dataset = _load_split_dataset(args.dataset, cfg) if args.dataset else _generate_split(cfg)
    name = args.dataset or "the generated dataset"
    dataset.check_trainable(name)
    dataset.check_scorable(name)
    out = _outdir(args, cfg)
    point.save(out / "config.used.cfg")

    rows = []
    for lam, d, run_cfg in grid:
        try:
            result = train(dataset, run_cfg)
            final_total = result.history[-1]["total"]
            converged = bool(np.isfinite(final_total))
            map_value = evaluate_map(result.params, dataset)
        except DivergenceError as e:
            converged, final_total, map_value = False, float("nan"), float("nan")
            print(f"lambda={lam} d={d}: diverged ({e.signal})", file=sys.stderr)
        rows.append((lam, d, converged, final_total, map_value))

    write_csv(out / "sweep.csv", ["lambda", "d", "converged", "final_total", "map"],
              [[lam, d, int(ok), total, m] for lam, d, ok, total, m in rows])

    for d in ds:
        maps = [m for lam_, d_, ok, _, m in rows if d_ == d and ok]
        if maps:
            print(f"d={d}: MAP range [{min(maps):.4f}, {max(maps):.4f}], spread {max(maps) - min(maps):.4f}")
        else:
            print(f"d={d}: no converged runs")
    print(f"wrote {len(rows)} sweep rows to {out / 'sweep.csv'}")
    return EXIT_OK


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "export": cmd_export,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError, MemoryError) as e:  # numpy's MemoryError names the size it wanted
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
