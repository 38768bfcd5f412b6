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
import csv
import dataclasses
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, load_config
from .dataset import FormatError, load_dataset, save_dataset
from .evaluate import benchmark, contour_grid, contour_to_csv, slice_profile
from .field import NoiseParams, make_oracle
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


def _dataset_path(cfg: RunConfig, name: str) -> Path:
    return cfg.output_dir / "datasets" / f"{name}.csv"


def _model_path(cfg: RunConfig, name: str) -> Path:
    return cfg.output_dir / "models" / f"{name}.json"


def cmd_gen(cfg: RunConfig) -> list:
    """Generate every configured dataset; returns the CSV paths."""
    paths = []
    for spec in cfg.datasets:
        noise = NoiseParams(
            sigma_force=cfg.sigma_force,
            sigma_torque=cfg.sigma_torque,
            seed=substream_seed(cfg.seed, f"dataset:{spec.name}"),
        )
        data = generate_sweep(
            spec.formation,
            spec.sweep,
            spec.oracle,
            cfg.field_params,
            cfg.merge_params if spec.oracle == "merging" else None,
            noise,
        )
        data.metadata["name"] = spec.name
        path = _dataset_path(cfg, spec.name)
        save_dataset(data, path)
        print(f"gen: {spec.name}: {len(data)} records -> {path}")
        paths.append(path)
    return paths


def _grid_geometry(sweep):
    """Grid bounds aligned with the sweep: N cells centred on legs, one
    vertical cell per altitude plane."""
    half = sweep.lateral_extent / 2.0
    alts = sorted(set(sweep.altitudes))
    # With one plane there is no altitude step, so the formation spacing
    # stands in.  The fitted table does not depend on it (every record lies on
    # the plane); it only sets how far off the plane a query still reads the
    # plane's values: spacing/2 either way, zero beyond.
    step = (alts[-1] - alts[0]) / (len(alts) - 1) if len(alts) > 1 else sweep.spacing
    vertical = (-alts[-1] - step / 2.0, -alts[0] + step / 2.0)
    return ((-half, half), (-half, half)), vertical, len(alts)


def _write_loss_history(path: Path, history) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(history):
            writer.writerow([str(epoch), repr(float(loss))])


def cmd_train(cfg: RunConfig, datasets_dir: Path | None = None) -> list:
    """Fit the naive grid and train both learnt models; returns model paths."""
    base = Path(datasets_dir) if datasets_dir else cfg.output_dir / "datasets"

    def _load(name: str):
        path = base / f"{name}.csv"
        if not path.exists():
            raise FileNotFoundError(f"dataset {name!r} not found at {path} (run 'gen' first?)")
        return load_dataset(path)

    paths = []

    fit_spec = cfg.dataset_spec(cfg.naive.fit_on)
    lateral, vertical, n_planes = _grid_geometry(fit_spec.sweep)
    grid = fit_grid(
        _load(cfg.naive.fit_on),
        resolution=(*cfg.naive.resolution, n_planes),
        lateral_bounds=lateral,
        vertical_bounds=vertical,
    )
    path = _model_path(cfg, "naive_linear")
    save_model(grid, path)
    print(f"train: naive_linear fitted on {cfg.naive.fit_on} -> {path}")
    paths.append(path)

    for name, settings in (("learnt_linear", cfg.linear), ("learnt_nonlinear", cfg.deepset)):
        rng = stream(substream_seed(cfg.seed, f"init:{name}"))
        if name == "learnt_linear":
            model = LinearAggModel.initialised(rng, hidden=settings.hidden)
        else:
            model = DeepSetModel.initialised(
                rng,
                embed_dim=settings.embed_dim,
                phi_hidden=settings.phi_hidden,
                decoder_hidden=settings.decoder_hidden,
            )
        data = [_load(ds) for ds in settings.train_on]
        tcfg = dataclasses.replace(cfg.training, seed=substream_seed(cfg.seed, f"train:{name}"))
        history, _ = train(model, data, tcfg)
        model.metadata["trained_on"] = list(settings.train_on)
        path = _model_path(cfg, name)
        save_model(model, path)
        _write_loss_history(cfg.output_dir / "models" / f"{name}_loss.csv", history)
        final = history[-1] if history else float("nan")
        print(f"train: {name} on {list(settings.train_on)}: final loss {final:.6g} -> {path}")
        paths.append(path)
    return paths


def _load_models(cfg: RunConfig, models_dir: Path | None):
    base = Path(models_dir) if models_dir else cfg.output_dir / "models"
    models = {}
    for name in MODEL_NAMES:
        path = base / f"{name}.json"
        if not path.exists():
            raise FileNotFoundError(f"model {name!r} not found at {path} (run 'train' first?)")
        models[name] = load_model(path)
    return models


def cmd_eval(cfg: RunConfig, models_dir: Path | None = None) -> list:
    """Benchmark all models against the configured oracle; returns report paths."""
    models = _load_models(cfg, models_dir)
    truth = make_oracle(cfg.evaluation.oracle, cfg.field_params, cfg.merge_params)
    report = benchmark(
        {name: model.predict_batch for name, model in models.items()},
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


def _alt_tag(altitude: float) -> str:
    return f"{altitude:g}".replace(".", "p")


def cmd_report(cfg: RunConfig, models_dir: Path | None = None) -> list:
    """Export plottable slice-profile and contour CSVs."""
    models = _load_models(cfg, models_dir)
    truth = make_oracle(cfg.evaluation.oracle, cfg.field_params, cfg.merge_params)
    predictors = {name: model.predict_batch for name, model in models.items()}
    out = cfg.output_dir / "reports"
    paths = []
    for formation in cfg.evaluation.formations:
        for altitude in cfg.evaluation.altitudes:
            tag = f"{formation.label()}_{_alt_tag(altitude)}"
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
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
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
