"""Benchmark of the four downwash CLI stages: gen, train, eval and report.

Run from the root of a checkout, with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python3 benchmarks/run.py \\
        --workload gen-formations --seed 1 --seconds 30 --trace 0

The workload's run config is written from the seed (see workloads.py).  The
run then repeats equal rounds until ``--seconds`` have passed (at least two
rounds); a round calls ``downwash.cli.main`` in this process once per stage and
checks every output.  Between rounds, at fixed points in the run, a fresh
interpreter imports ``downwash.cli`` and loads the config, which times set-up.

Host speed on a shared machine drifts by tens of percent within a minute, so
every stage and set-up launch is bracketed by a fixed calibration kernel and
its wall time is scaled by ``K_REF / K``.  A rate is the median of the
per-round rates.  Raw wall-clock figures are printed beside the normalised
ones.

With ``--trace 1`` rounds alternate between untraced and traced (spans.py);
the per-layer metrics come from the traced rounds and the tracing overhead is
the ratio of the two kinds of round.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Seconds the calibration kernel took on the reference host (README: K_ref).
K_REF = 0.03916
CALIBRATION_LOOPS = 6000
SETUP_LAUNCHES = 4
TRACE_SETUP_LAUNCHES = 2
MIN_ROUNDS = 2

RATE_METRICS = {
    "gen": ("gen_records_per_s", "records/s"),
    "train": ("train_sample_epochs_per_s", "sample-epochs/s"),
    "eval": ("eval_points_per_s", "points/s"),
    "report": ("report_points_per_s", "points/s"),
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import downwash.cli
t1 = time.perf_counter()
downwash.cli.load_config(sys.argv[2])
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def calibrate() -> float:
    """Seconds for a fixed loop of small numpy ops and float arithmetic, the
    same mix of per-call overhead the pipeline spends its time in."""
    import numpy as np

    x = np.linspace(0.1, 1.0, 6)
    acc = 0.0
    start = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        y = x * (1.0 + 1e-7 * i) + acc
        acc = float(np.exp(-y).sum()) + math.sqrt(i)
        acc -= math.floor(acc)
    return time.perf_counter() - start


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        import workloads
        from downwash import cli

        self.cli = cli
        self.root = root
        out_dir = root / ".bench_out" / workload
        shutil.rmtree(out_dir, ignore_errors=True)
        self.out_dir = out_dir
        self.workload = workloads.Workload(workload, seed, out_dir)
        self.work = self.workload.work()
        self.stages = workloads.STAGES
        self.check_failed = workloads.CheckFailed
        self.tracer = None
        if trace:
            from spans import Tracer

            self.tracer = Tracer()
        self.rounds = []      # successful rounds: {"traced", "stages": {stage: (wall_s, k)}}
        self.setups = []      # (import_s, load_s, k)
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def setup_launch(self) -> None:
        ks = [calibrate(), calibrate()]
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(self.root / "src"), str(self.workload.config_path)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        ks += [calibrate(), calibrate()]
        imported, loaded = (float(v) for v in done.stdout.split())
        self.setups.append((imported, loaded, statistics.median(ks)))

    def run_round(self, traced: bool) -> None:
        self.attempted += 1
        gc.collect()
        walls = {}
        ks = []
        sink = io.StringIO()
        if traced:
            self.tracer.install()
        try:
            ks.append(calibrate())
            for stage in self.stages:
                if traced:
                    self.tracer.stage = stage
                with contextlib.redirect_stdout(sink):
                    start = time.perf_counter()
                    code = self.cli.main(self.workload.argv(stage))
                    walls[stage] = time.perf_counter() - start
                ks.append(calibrate())
                if code != 0:
                    raise RuntimeError(f"downwash {stage} exited with code {code}")
        except Exception:
            self.failed += 1
            print(f"round {self.attempted} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.stage = "-"
        try:
            self.workload.check(len(self.rounds))
        except self.check_failed as exc:
            self.failed += 1
            self.correct = False
            print(f"round {self.attempted} check failed: {exc}", file=sys.stderr)
            return
        # Host speed changes within seconds, so each stage takes the mean of
        # the calibrations that bracket it.
        stages = {st: (walls[st], 0.5 * (ks[i] + ks[i + 1])) for i, st in enumerate(self.stages)}
        self.rounds.append({"traced": traced, "stages": stages})

    def run(self, seconds: float) -> None:
        launches = TRACE_SETUP_LAUNCHES if self.tracer else SETUP_LAUNCHES
        start = time.perf_counter()
        due = [start + (i + 0.5) * seconds / launches for i in range(launches)]
        while self.attempted < MIN_ROUNDS or time.perf_counter() - start < seconds:
            while due and time.perf_counter() >= due[0]:
                due.pop(0)
                self.setup_launch()
            self.run_round(traced=bool(self.tracer) and self.attempted % 2 == 1)
        for _ in due:
            self.setup_launch()


def _norm(wall: float, k: float) -> float:
    return wall * K_REF / k


def end_to_end(bench: Bench) -> dict:
    metrics = {}
    lines = []
    for stage, (name, unit) in RATE_METRICS.items():
        work = bench.work[stage]
        norm = [work / _norm(*r["stages"][stage]) for r in bench.rounds]
        raw = [work / r["stages"][stage][0] for r in bench.rounds]
        metrics[name] = {"value": statistics.median(norm), "unit": unit}
        lines.append((name, unit, quartiles(norm), quartiles(raw), len(norm)))
    norm = [_norm(i + l, k) for i, l, k in bench.setups]
    raw = [i + l for i, l, _ in bench.setups]
    metrics["setup_s"] = {"value": statistics.median(norm), "unit": "s"}
    lines.append(("setup_s", "s", quartiles(norm), quartiles(raw), len(norm)))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    rounds = {"work": bench.work, "rounds": bench.rounds, "setups": bench.setups}
    (bench.out_dir / "rounds.json").write_text(json.dumps(rounds), encoding="utf-8")
    print(f"{'metric':28s} {'unit':16s} {'normalised median [q1, q3]':>34s}   {'raw median [q1, q3]':>34s}   n")
    for name, unit, (n1, n2, n3), (r1, r2, r3), count in lines:
        print(f"{name:28s} {unit:16s} {n2:12.5g} [{n1:9.5g}, {n3:9.5g}]   {r2:12.5g} [{r1:9.5g}, {r3:9.5g}]   {count}")
    print(f"{'peak_rss_mb':28s} {'MB':16s} {rss:12.5g}")
    return metrics


def per_layer(bench: Bench) -> dict:
    t = bench.tracer
    rounds = sum(r["traced"] for r in bench.rounds)
    predict_stages = ("eval", "report")
    gen_records = t.counter("formations.generated_records", ("gen",))
    core_ctors = [f"core.{cls}.__init__" for cls in ("VehicleState", "RelativeState", "Wrench6")]
    oracles = ["field.MergingOracle.__call__", "field.AdditiveOracle.__call__"]
    writers = [
        "evaluate.contour_to_csv",
        "evaluate.SliceProfile.to_csv",
        "evaluate.EvalReport.to_csv",
        "evaluate.EvalReport.to_json",
    ]

    def mean(names, stages=None, scale=1.0):
        names = [names] if isinstance(names, str) else names
        calls = sum(t.calls(n, stages) for n in names)
        return scale * sum(t.total(n, stages) for n in names) / max(calls, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    fwd_rows = t.counter("mlp.forward_rows")
    values = {
        "core.objects_per_record": ("count", ratio(sum(t.calls(n, ("gen",)) for n in core_ctors), gen_records)),
        "core.construct_us_per_record": (
            "us",
            ratio(1e6 * sum(t.total(n, ("gen",)) for n in core_ctors), gen_records),
        ),
        "rng.stream_us": ("us", mean("rng.stream", scale=1e6)),
        "rng.streams_per_record": ("count", ratio(t.calls("rng.stream", ("gen",)), gen_records)),
        "field.oracle_us": ("us", mean(oracles, scale=1e6)),
        "field.oracle_calls": ("count", sum(t.calls(n) for n in oracles) / rounds),
        "field.noise_us": ("us", mean("field.add_noise", scale=1e6)),
        "formations.snapshot_us": ("us", mean("formations.snapshot_at", scale=1e6)),
        "dataset.save_records_per_s": (
            "records/s",
            ratio(t.counter("dataset.saved_records"), t.total("dataset.save_dataset")),
        ),
        "dataset.bytes_per_record": (
            "bytes",
            ratio(t.counter("dataset.saved_bytes"), t.counter("dataset.saved_records")),
        ),
        "dataset.load_records_per_s": (
            "records/s",
            ratio(t.counter("dataset.loaded_records"), t.total("dataset.load_dataset")),
        ),
        "models.features_us": ("us", mean("models.snapshot_features", scale=1e6)),
        "models.predict_us.naive_linear": ("us", mean("models.GridLookupModel.predict", scale=1e6)),
        "models.predict_us.learnt_linear": ("us", mean("models.LinearAggModel.predict", scale=1e6)),
        "models.predict_us.learnt_nonlinear": ("us", mean("models.DeepSetModel.predict", scale=1e6)),
        "models.grid_query_us": ("us", mean("models.GridLookupModel.query", scale=1e6)),
        "models.grid_queries": ("count", t.calls("models.GridLookupModel.query") / rounds),
        "models.fit_grid_s": ("s", mean("models.fit_grid")),
        "models.save_model_s": ("s", mean("models.save_model")),
        "models.load_model_s": ("s", mean("models.load_model")),
        "training.dataset_arrays_s": ("s", mean("training.dataset_arrays")),
        "training.batch_us": ("us", mean("training.batch_loss_and_gradients", scale=1e6)),
        "training.batches": ("count", t.calls("training.batch_loss_and_gradients") / rounds),
        "training.useful_row_ratio": (
            "ratio",
            ratio(t.counter("training.mask_ones"), t.counter("training.mask_cells")),
        ),
        "mlp.rows_per_forward": ("count", ratio(fwd_rows, t.calls("mlp.Mlp.forward_cached"))),
        "mlp.rows_per_forward.train": (
            "count",
            ratio(t.counter("mlp.forward_rows", ("train",)), t.calls("mlp.Mlp.forward_cached", ("train",))),
        ),
        "mlp.rows_per_forward.predict": (
            "count",
            ratio(
                t.counter("mlp.forward_rows", predict_stages),
                t.calls("mlp.Mlp.forward_cached", predict_stages),
            ),
        ),
        "mlp.forward_rows_per_s": ("rows/s", ratio(fwd_rows, t.total("mlp.Mlp.forward_cached"))),
        "mlp.backward_rows_per_s": (
            "rows/s",
            ratio(t.counter("mlp.backward_rows"), t.total("mlp.Mlp.backward")),
        ),
        "mlp.adam_step_us": ("us", mean("mlp.Adam.step", scale=1e6)),
        "evaluate.plane_s": ("s", mean("evaluate.integrated_plane_error")),
        "evaluate.slice_s": ("s", mean("evaluate.slice_profile")),
        "evaluate.contour_s": ("s", mean("evaluate.contour_grid")),
        "evaluate.csv_write_s": ("s", mean(writers)),
    }
    import_ms = [1e3 * _norm(i, k) for i, _, k in bench.setups]
    load_ms = [1e3 * _norm(l, k) for _, l, k in bench.setups]
    values["config.load_config_ms"] = ("ms", statistics.median(load_ms))
    values["cli.import_ms"] = ("ms", statistics.median(import_ms))

    def round_time(r):
        return sum(_norm(*v) for v in r["stages"].values())

    traced = [round_time(r) for r in bench.rounds if r["traced"]]
    plain = [round_time(r) for r in bench.rounds if not r["traced"]]
    values["trace.overhead_pct"] = ("%", 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0))

    print(f"{'span':48s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s} {'mean_us':>10s}")
    for name, calls, total, own, mean_us in t.table()[:30]:
        print(f"{name:48s} {calls:9d} {total:9.4f} {own:9.4f} {mean_us:10.2f}")
    for name, (unit, value) in values.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    (bench.out_dir / "trace.json").write_text(json.dumps(bench.tracer.dump(), indent=1), encoding="utf-8")
    return {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "downwash" / "cli.py").is_file():
        print(f"benchmark: no downwash package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import downwash

    if Path(downwash.__file__).resolve().parent != (src / "downwash").resolve():
        print(f"benchmark: imported downwash from {downwash.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.SHAPES:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(workloads.SHAPES)}", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, bool(args.trace))
    bench.run(args.seconds)
    if not bench.rounds:
        print("benchmark: no round succeeded", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}: {bench.attempted} rounds, {bench.failed} failed")
    quality = bench.workload.quality
    print("D-axis errors: " + ", ".join(f"{k} {v:.4f}" for k, v in quality["d_errors"].items()))
    print("slice peaks: " + ", ".join(f"{k} {v}" for k, v in quality["slice_peaks"].items()))
    metrics = per_layer(bench) if args.trace else end_to_end(bench)
    print(
        json.dumps(
            {"correct": bench.correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
