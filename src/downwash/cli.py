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
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, altitude_tag, load_config
from .dataset import FormatError, load_dataset, save_dataset, write_csv
from .evaluate import benchmark, contour_grid, contour_to_csv, slice_profile
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
    """Generate every configured dataset; returns the CSV paths."""
    paths = []
    for spec in cfg.datasets:
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
        path = cfg.output_dir / "datasets" / f"{spec.name}.csv"
        save_dataset(data, path)
        print(f"gen: {spec.name}: {len(data)} records -> {path}")
        paths.append(path)
    return paths


def cmd_train(cfg: RunConfig, datasets_dir: Path | None = None) -> list:
    """Fit the naive grid and train both learnt models; returns model paths."""
    base = Path(datasets_dir) if datasets_dir else cfg.output_dir / "datasets"
    loaded = {}

    def _load(name: str):
        """Each dataset is read once, however many models use it."""
        if name not in loaded:
            path = base / f"{name}.csv"
            if not path.exists():
                raise FileNotFoundError(f"dataset {name!r} not found at {path} (run 'gen' first?)")
            loaded[name] = load_dataset(path)
        return loaded[name]

    out = cfg.output_dir / "models"
    paths = []

    # every dataset name resolves before any file is read or written
    fit_on = cfg.naive.fit_on
    sweep = cfg.dataset_spec(fit_on, "models.naive.fit_on").sweep
    for key, settings in (("models.linear.train_on", cfg.linear), ("models.deepset.train_on", cfg.deepset)):
        for name in settings.train_on:
            cfg.dataset_spec(name, key)
    fit_data = _load(fit_on)  # outside the try: a malformed file keeps its own message
    try:
        grid = fit_grid(fit_data, sweep, cfg.naive.resolution)
    except ValueError as exc:
        # a well-formed dataset that another config generated (stale data)
        raise FormatError(f"{base / f'{fit_on}.csv'}: cannot fit the naive grid: {exc}") from None
    path = out / "naive_linear.json"
    save_model(grid, path)
    print(f"train: naive_linear fitted on {fit_on} -> {path}")
    paths.append(path)

    for name, cls, settings in (
        ("learnt_linear", LinearAggModel, cfg.linear),
        ("learnt_nonlinear", DeepSetModel, cfg.deepset),
    ):
        # the settings fields other than train_on are the initialised() keywords
        architecture = {key: value for key, value in vars(settings).items() if key != "train_on"}
        model = cls.initialised(stream(substream_seed(cfg.seed, f"init:{name}")), **architecture)
        data = [_load(ds) for ds in settings.train_on]
        tcfg = dataclasses.replace(cfg.training, seed=substream_seed(cfg.seed, f"train:{name}"))
        history = train(model, data, tcfg)
        model.metadata["trained_on"] = list(settings.train_on)
        path = out / f"{name}.json"
        save_model(model, path)
        write_csv(
            out / f"{name}_loss.csv",
            [["epoch", "loss"], *([str(epoch), repr(float(loss))] for epoch, loss in enumerate(history))],
        )
        final = history[-1] if history else float("nan")
        print(f"train: {name} on {list(settings.train_on)}: final loss {final:.6g} -> {path}")
        paths.append(path)
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
    report = benchmark(
        predictors,
        list(cfg.evaluation.formations),
        truth,
        cfg.evaluation.altitudes,
        extent=cfg.evaluation.extent,
        resolution=cfg.evaluation.resolution,
        speed=cfg.sweep.speed,
    )
    report.config["oracle"] = cfg.evaluation.oracle
    report.config["seed"] = cfg.seed
    out = cfg.output_dir / "reports"
    csv_path = out / "benchmark.csv"
    json_path = out / "benchmark.json"
    report.to_csv(csv_path)
    report.to_json(json_path)
    print(f"eval: {len(report.rows)} rows -> {csv_path}")
    return [csv_path, json_path]


def cmd_report(cfg: RunConfig, models_dir: Path | None = None) -> list:
    """Export plottable slice-profile and contour CSVs."""
    predictors, truth = _predictors(cfg, models_dir)
    out = cfg.output_dir / "reports"
    paths = []
    for formation in cfg.evaluation.formations:
        for altitude in cfg.evaluation.altitudes:
            tag = f"{formation.label()}_{altitude_tag(altitude)}"
            prof = slice_profile(
                predictors,
                truth,
                formation,
                altitude,
                axis=cfg.evaluation.slice_axis,
                extent=cfg.evaluation.extent,
                resolution=cfg.evaluation.slice_resolution,
                speed=cfg.sweep.speed,
            )
            path = out / f"slice_{tag}.csv"
            prof.to_csv(path)
            paths.append(path)
            for name, predictor in {**predictors, "ground_truth": truth}.items():
                n_ax, e_ax, values = contour_grid(
                    predictor,
                    formation,
                    altitude,
                    extent=cfg.evaluation.extent,
                    resolution=cfg.evaluation.contour_resolution,
                    speed=cfg.sweep.speed,
                )
                cpath = out / f"contour_{tag}_{name}.csv"
                contour_to_csv(n_ax, e_ax, values, cpath)
                paths.append(cpath)
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
