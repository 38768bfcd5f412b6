"""Command-line pipeline: dataset generation, training, evaluation, reports.

    downwash gen    --config cfg.yaml [--set k=v ...] [--out DIR] [--seed N]
    downwash train  --config cfg.yaml ...
    downwash eval   --config cfg.yaml ...
    downwash report --config cfg.yaml ...

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numeric
divergence during training, 5 malformed dataset or model file.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .dataset import FormatError, encode_table, load_dataset, save_dataset, sidecar_path, write_atomic
from .evaluate import benchmark, report_planes, write_report
from .field import make_oracle
from .formations import generate_sweep
from .models import DeepSetModel, LinearAggModel, fit_grid, load_model, save_model
from .rng import stream, substream_seed
from .training import TrainingDivergence, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGENCE = 4
EXIT_FORMAT = 5

MODEL_NAMES = ("naive_linear", "learnt_linear", "learnt_nonlinear")


def cmd_gen(cfg: RunConfig) -> list:
    """Generate every configured dataset; returns the CSV paths.  A dataset
    that ``train`` would refuse (a non-finite value, a neighbour on the
    sufferer) is a ConfigError naming its entry and row.  Each dataset is
    saved into a staging directory beside the datasets as it is generated,
    and the files are renamed into place only after the last one is saved,
    so a refusal leaves the previous run's datasets as they were."""
    out = cfg.output_dir / "datasets"
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".gen-", dir=out) as staging:
        sizes = []
        for i, spec in enumerate(cfg.datasets):
            noise = dataclasses.replace(cfg.noise, seed=substream_seed(cfg.seed, f"dataset:{spec.name}"))
            data = generate_sweep(
                spec.formation,
                spec.sweep,
                spec.oracle,
                cfg.field_params,
                cfg.merge_params if spec.oracle == "merging" else None,
                noise,
            )
            data.metadata["name"] = spec.name
            try:
                save_dataset(data, Path(staging) / f"{spec.name}.csv")
            except ValueError as exc:  # values that load_dataset would refuse; nothing was written
                raise ConfigError(f"datasets[{i}] ({spec.name}): {exc}") from None
            sizes.append(len(data))
        paths = []
        for spec, size in zip(cfg.datasets, sizes):
            paths.append(out / f"{spec.name}.csv")
            for path in (paths[-1], sidecar_path(paths[-1])):
                os.replace(Path(staging) / path.name, path)
            print(f"gen: {spec.name}: {size} records -> {paths[-1]}")
    return paths


def cmd_train(cfg: RunConfig, datasets_dir: Path | None = None) -> list:
    """Fit the naive grid and train both learnt models; returns model paths.

    Every dataset is read and every model fitted before the first file is
    written, so a malformed dataset or a divergence leaves the previous
    run's model files as they were."""
    base = Path(datasets_dir) if datasets_dir else cfg.output_dir / "datasets"
    learnt = (
        ("learnt_linear", LinearAggModel, cfg.linear, "models.linear.train_on"),
        ("learnt_nonlinear", DeepSetModel, cfg.deepset, "models.deepset.train_on"),
    )

    # every dataset name resolves before any file is read
    fit_on = cfg.naive.fit_on
    sweep = cfg.dataset_spec(fit_on, "models.naive.fit_on").sweep
    for _, _, settings, key in learnt:
        for name in settings.train_on:
            cfg.dataset_spec(name, key)
    loaded = {}  # each dataset is read once, however many models use it
    for name in (fit_on, *cfg.linear.train_on, *cfg.deepset.train_on):
        if name not in loaded:
            path = base / f"{name}.csv"
            if not path.exists():
                raise FileNotFoundError(f"dataset {name!r} not found at {path} (run 'gen' first?)")
            loaded[name] = load_dataset(path)

    try:
        grid = fit_grid(loaded[fit_on], sweep, cfg.naive.resolution)
    except ValueError as exc:
        # a well-formed dataset that another config generated (stale data)
        raise FormatError(f"{base / f'{fit_on}.csv'}: cannot fit the naive grid: {exc}") from None
    trained = []
    for name, cls, settings, _ in learnt:
        model = cls.initialised(stream(substream_seed(cfg.seed, f"init:{name}")), settings)
        tcfg = dataclasses.replace(cfg.training, seed=substream_seed(cfg.seed, f"train:{name}"))
        history = train(model, [loaded[ds] for ds in settings.train_on], tcfg)
        model.metadata["trained_on"] = list(settings.train_on)
        trained.append((name, model, history))

    out = cfg.output_dir / "models"
    paths = [out / "naive_linear.json"]
    save_model(grid, paths[0])
    print(f"train: naive_linear fitted on {fit_on} -> {paths[0]}")
    for name, model, history in trained:
        paths.append(out / f"{name}.json")
        save_model(model, paths[-1])
        columns = [np.arange(len(history)), np.array(history, float)]
        write_atomic(out / f"{name}_loss.csv", encode_table(["epoch", "loss"], columns))
        final = history[-1] if history else float("nan")
        print(f"train: {name} on {model.metadata['trained_on']}: final loss {final:.6g} -> {paths[-1]}")
    return paths


def _predictors(cfg: RunConfig, models_dir: Path | None) -> tuple:
    """Each saved model's batch predictor by name, and the configured oracle."""
    base = Path(models_dir) if models_dir else cfg.output_dir / "models"
    predictors = {}
    for name in MODEL_NAMES:
        path = base / f"{name}.json"
        if not path.exists():
            raise FileNotFoundError(f"model {name!r} not found at {path} (run 'train' first?)")
        predictors[name] = load_model(path).predict_batch
    return predictors, make_oracle(cfg.evaluation.oracle, cfg.field_params, cfg.merge_params)


def cmd_eval(cfg: RunConfig, models_dir: Path | None = None) -> list:
    """Benchmark all models against the configured oracle; returns report paths."""
    predictors, truth = _predictors(cfg, models_dir)
    report = benchmark(predictors, truth, cfg.evaluation, cfg.sweep.speed)
    report.config["seed"] = cfg.seed
    out = cfg.output_dir / "reports"
    csv_path = out / "benchmark.csv"
    json_path = out / "benchmark.json"
    report.to_csv(csv_path)
    report.to_json(json_path)
    print(f"eval: {len(report.rows)} rows -> {csv_path}")
    return [csv_path, json_path]


def cmd_report(cfg: RunConfig, models_dir: Path | None = None) -> list:
    """Export the slice and contour CSVs of every model and the ground truth,
    named and written by :func:`downwash.evaluate.write_report`; returns their paths."""
    predictors, truth = _predictors(cfg, models_dir)
    results = report_planes({**predictors, "ground_truth": truth}, cfg.evaluation, cfg.sweep.speed)
    out = cfg.output_dir / "reports"
    paths = write_report(cfg.evaluation, out, *results)
    print(f"report: {len(paths)} files -> {out}")
    return paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="downwash", description="Downwash force-aggregation benchmark pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen", "generate datasets"),
        ("train", "fit/train all models"),
        ("eval", "benchmark models against the oracle"),
        ("report", "export slice/contour CSVs"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="YAML run configuration")
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry, e.g. --set training.epochs=10",
        )
        cmd.add_argument("--out", default=None, help="override output_dir")
        cmd.add_argument("--seed", type=int, default=None, help="override the global seed")
        if name in ("train",):
            cmd.add_argument("--datasets-dir", default=None, help="read datasets from here")
        if name in ("eval", "report"):
            cmd.add_argument("--models-dir", default=None, help="read model files from here")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides, seed=args.seed, output_dir=args.out)
        if args.command == "gen":
            cmd_gen(cfg)
        elif args.command == "train":
            cmd_train(cfg, getattr(args, "datasets_dir", None))
        elif args.command == "eval":
            cmd_eval(cfg, getattr(args, "models_dir", None))
        elif args.command == "report":
            cmd_report(cfg, getattr(args, "models_dir", None))
    except TrainingDivergence as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except FormatError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
