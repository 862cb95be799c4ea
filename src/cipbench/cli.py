"""Command-line entry point: generate / train / eval / export / sweep.

Exit codes are stable: 0 success, 1 configuration error (bad config key or
value, bad flag combination, missing input file), 2 runtime failure
(including detected training divergence).  Every command copies its fully
resolved configuration into the output location so a run is reproducible
from that file and its seed alone.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import encoder as enc
from .config import ConfigError, RunConfig, config_help_lines
from .data import generate, load_dataset, save_dataset, split
from .retrieval import evaluate_run, geometry_report, pool_descriptors, rank
from .trainer import (
    DivergenceError,
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
        p.add_argument("--config", help="key = value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )

    p = sub.add_parser(
        "generate",
        help="write a synthetic multi-view dataset (CSV + JSON sidecar)",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(p)
    p.add_argument("--out", help="output directory (default: out_dir config key)")

    p = sub.add_parser(
        "train",
        help="train on a dataset; writes checkpoint.json and history.csv",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
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

    p = sub.add_parser(
        "sweep",
        help="train/eval a grid of (lambda, d) settings; writes sweep.csv",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(p)
    p.add_argument("--lambdas", required=True, help="comma list, e.g. 0.1,1,10")
    p.add_argument("--ds", default="2", help="comma list of d values")
    p.add_argument(
        "--loss",
        default="cip",
        help="loss combination trained at each grid point (the sensitivity "
        "protocol trains the combined pull+push loss alone)",
    )
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
        raise ConfigError(f"{what} not found: {path}")
    return path


def _load_split_dataset(path_text: str, cfg: RunConfig):
    dataset = load_dataset(_require_file(path_text, "dataset"))
    if dataset.split is None:
        dataset = split(dataset, cfg.train_fraction, cfg.seed)
    return dataset


def _check_agreement(args, checkpoint, dataset, classes: bool = False) -> None:
    """The encoder must take the dataset's input dimension and, with
    ``classes``, the checkpoint must hold a centerline for every label."""
    takes = checkpoint.params.spec.input_dim
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


def _embed(checkpoint, dataset, mask):
    feats, _ = enc.forward_batch(checkpoint.params, dataset.inputs[mask])
    return feats


def cmd_generate(args) -> int:
    cfg = _resolve(args)
    out = _outdir(args, cfg)
    dataset = generate(cfg.synthetic_spec())
    if cfg.num_classes >= 1 and cfg.objects_per_class >= 2:
        dataset = split(dataset, cfg.train_fraction, cfg.seed)
    save_dataset(dataset, out / "dataset.csv")
    cfg.save(out / "config.used.cfg")
    print(f"wrote {dataset.num_views} view rows to {out / 'dataset.csv'}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve(args)
    out = _outdir(args, cfg)
    cfg.save(out / "config.used.cfg")
    dataset = _load_split_dataset(args.dataset, cfg)
    try:
        result = train(dataset, cfg.train_config())
    except DivergenceError as e:
        print(f"training diverged ({e.signal}): {e}", file=sys.stderr)
        if e.last_good is not None:
            save_checkpoint(e.last_good, out / "checkpoint.last_good.json",
                            meta={"diverged": True, "signal": e.signal, "seed": cfg.seed})
        history_to_csv(e.history, out / "history.csv")
        return EXIT_RUNTIME
    save_checkpoint(result, out / "checkpoint.json", meta={"seed": cfg.seed, "loss": cfg.loss})
    history_to_csv(result.history, out / "history.csv")
    print(f"trained {result.epochs_run} epochs; checkpoint at {out / 'checkpoint.json'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    checkpoint = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    dataset = _load_split_dataset(args.dataset, cfg)
    _check_agreement(args, checkpoint, dataset, classes=True)
    out = _outdir(args, cfg)
    cfg.save(out / "config.used.cfg")
    tags = dataset.view_split_tags()
    mask = tags == "test" if (tags == "test").any() else np.ones(dataset.num_views, bool)
    feats = _embed(checkpoint, dataset, mask)
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
    feats = _embed(checkpoint, dataset, np.ones(dataset.num_views, bool))
    n = feats.shape[1]
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        if args.pooled:
            descs, labels, oids = pool_descriptors(feats, dataset.object_ids, dataset.labels)
            writer.writerow(["object_id", "label"] + [f"e{i}" for i in range(n)])
            for oid, label, row in zip(oids, labels, descs):
                writer.writerow([oid, label] + [format(v, ".17g") for v in row])
            count = len(oids)
        else:
            writer.writerow(["object_id", "label"] + [f"e{i}" for i in range(n)])
            for oid, label, row in zip(dataset.object_ids, dataset.labels, feats):
                writer.writerow([oid, label] + [format(v, ".17g") for v in row])
            count = dataset.num_views
    cfg.save(out.with_suffix(out.suffix + ".cfg"))
    print(f"wrote {count} embedding rows to {out}")
    return EXIT_OK


def _parse_float_list(text: str, what: str) -> list[float]:
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ConfigError(f"{what} list is empty")
    try:
        return [float(p) for p in items]
    except ValueError as e:
        raise ConfigError(f"bad {what} list: {e}") from None


def cmd_sweep(args) -> int:
    cfg = _resolve(args)
    out = _outdir(args, cfg)
    cfg.save(out / "config.used.cfg")
    lambdas = _parse_float_list(args.lambdas, "lambda")
    ds = _parse_float_list(args.ds, "d")
    if args.dataset:
        dataset = _load_split_dataset(args.dataset, cfg)
    else:
        dataset = split(generate(cfg.synthetic_spec()), cfg.train_fraction, cfg.seed)

    rows = []
    for d in ds:
        for lam in lambdas:
            # sweep convergence means "finished with finite loss": keep the
            # non-finite and norm-limit guards but not the geometry-quality
            # collapse check, which extreme lambda/d corners legitimately fail
            run_cfg = RunConfig(
                {**cfg.values, "loss": args.loss, "lambda": lam, "d": d,
                 "centerline_collapse_cosine": 2.0}
            ).train_config()
            try:
                result = train(dataset, run_cfg)
                final_total = result.history[-1]["total"]
                converged = bool(np.isfinite(final_total))
                tags = dataset.view_split_tags()
                mask = tags == "test"
                feats = enc.forward_batch(result.params, dataset.inputs[mask])[0]
                descs, labels, _ = pool_descriptors(
                    feats, dataset.object_ids[mask], dataset.labels[mask]
                )
                map_value = evaluate_run(rank(descs, labels)).micro.map
            except DivergenceError as e:
                converged, final_total, map_value = False, float("nan"), float("nan")
                print(f"lambda={lam} d={d}: diverged ({e.signal})", file=sys.stderr)
            rows.append((lam, d, converged, final_total, map_value))

    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "d", "converged", "final_total", "map"])
        for lam, d, converged, final_total, map_value in rows:
            writer.writerow([lam, d, int(converged), f"{final_total:.10g}", f"{map_value:.10g}"])

    for d in ds:
        maps = [m for lam_, d_, ok, _, m in rows if d_ == d and ok and np.isfinite(m)]
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
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())
