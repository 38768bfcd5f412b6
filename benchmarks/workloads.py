"""The benchmark's workloads: run configs written from the seed, the work each
CLI stage does, and the checks on every stage's outputs.

Every round of every workload runs the four CLI stages in order, so each
end-to-end rate is defined on each workload; what differs is the config, which
makes one stage carry most of the round:

* ``gen-formations``: the five paper datasets, merging oracle, noise on.  The
  oracle, noise streams, snapshot building and CSV writes dominate.
* ``train-mixed-k``: few small datasets and many epochs; the linear model
  trains on K=1 + K=3 rows (K=1 padded to 3), the deep set on K=2 + K=3.
  Batched MLP forward/backward and Adam dominate.
* ``eval-report``: small datasets, short training, and evaluation of four
  formations including the K=4 probe, with ``eval.resolution`` equal to
  ``eval.contour_resolution``.  Per-snapshot prediction and the noiseless
  oracle dominate.

Checks compare outputs with the scalar reference in ``reference.py`` and with
properties of the method, never with stored copies of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import yaml

import reference
from downwash.core import FormationSnapshot, VehicleState
from downwash.dataset import load_dataset, save_dataset
from downwash.evaluate import count_peaks
from downwash.models import LinearAggModel, load_model

STAGES = ("gen", "train", "eval", "report")
MODELS = ("naive_linear", "learnt_linear", "learnt_nonlinear")
AXES = ("f_n", "f_e", "f_d", "t_pitch", "t_roll", "t_yaw")

PAPER_DATASETS = {
    "single_k1": ("side_by_side", 1),
    "side_by_side_k2": ("side_by_side", 2),
    "stack_k2": ("stack", 2),
    "leader_follower_k3": ("leader_follower", 3),
    "hybrid3_k3": ("hybrid3", 3),
}
FIELD = dict(reference.DEFAULT_FIELD)
MERGE = {"merge_radius": 0.6, "contraction_rate": 0.65, "advect_gain": 0.15}
NOISE = {"sigma_force": 0.025, "sigma_torque": 0.005}
ALTITUDES = [0.3, 0.8, 1.3]
SPACING = 0.5
SPEED = 0.5

# Round make-up per workload.  Sizes are chosen so the named stage carries
# most of a round and every stage lasts long enough to time steadily.
SHAPES = {
    "gen-formations": {
        "datasets": list(PAPER_DATASETS),
        "legs": 2,
        "samples_per_leg": 50,
        "epochs": 4,
        "linear_on": ["single_k1"],
        "deepset_on": ["leader_follower_k3"],
        "eval_formations": [("leader_follower", 3)],
        "resolution": 14,
        "slice_resolution": 61,
    },
    "train-mixed-k": {
        "datasets": ["single_k1", "side_by_side_k2", "leader_follower_k3"],
        "legs": 2,
        "samples_per_leg": 40,
        "epochs": 20,
        "linear_on": ["single_k1", "leader_follower_k3"],
        "deepset_on": ["side_by_side_k2", "leader_follower_k3"],
        "eval_formations": [("leader_follower", 3)],
        "resolution": 14,
        "slice_resolution": 61,
    },
    "eval-report": {
        "datasets": ["single_k1", "side_by_side_k2", "leader_follower_k3"],
        "legs": 2,
        "samples_per_leg": 30,
        "epochs": 3,
        "linear_on": ["single_k1", "leader_follower_k3"],
        "deepset_on": ["side_by_side_k2", "leader_follower_k3"],
        "eval_formations": [
            ("side_by_side", 2),
            ("stack", 2),
            ("leader_follower", 3),
            ("leader_follower", 4),
        ],
        "resolution": 10,
        "slice_resolution": 61,
    },
}
EVAL_ALTITUDE = 1.3

# Checks: every GT_STRIDE-th dataset record and every CONTOUR_STRIDE-th
# contour point is recomputed with the reference; noise statistics must sit
# within NOISE_Z standard errors of the configured sigmas.
GT_STRIDE = 23
CONTOUR_STRIDE = 7
NOISE_Z = 6.0
INVARIANCE_SNAPSHOTS = 6


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _alt_tag(altitude: float) -> str:
    return f"{altitude:g}".replace(".", "p")


class Workload:
    """One workload's config, stage work counts and output checks."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        self.name = name
        self.seed = seed
        self.shape = SHAPES[name]
        self.out = out_dir / "run"
        self.config_path = out_dir / "config.yaml"
        self.first_digests = None
        self.quality = {}
        out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(yaml.safe_dump(self.document(), sort_keys=True), encoding="utf-8")

    # -- config and work -------------------------------------------------

    def document(self) -> dict:
        s = self.shape
        return {
            "seed": self.seed,
            "output_dir": str(self.out),
            "field": FIELD,
            "merge": MERGE,
            "noise": NOISE,
            "sweep": {
                "legs": s["legs"],
                "samples_per_leg": s["samples_per_leg"],
                "altitudes": ALTITUDES,
                "spacing": SPACING,
                "speed": SPEED,
            },
            "datasets": [
                {"name": n, "kind": PAPER_DATASETS[n][0], "k": PAPER_DATASETS[n][1], "oracle": "merging"}
                for n in s["datasets"]
            ],
            "training": {"epochs": s["epochs"], "batch_size": 256},
            "models": {
                "naive": {"fit_on": "single_k1", "resolution": [16, 20]},
                "linear": {"train_on": s["linear_on"]},
                "deepset": {"train_on": s["deepset_on"]},
            },
            "eval": {
                "formations": [{"kind": kind, "k": k} for kind, k in s["eval_formations"]],
                "oracle": "merging",
                "altitudes": [EVAL_ALTITUDE],
                "resolution": s["resolution"],
                "contour_resolution": s["resolution"],
                "slice_resolution": s["slice_resolution"],
            },
        }

    def records_per_dataset(self) -> int:
        return len(ALTITUDES) * self.shape["legs"] * self.shape["samples_per_leg"]

    def work(self) -> dict:
        """Units of work per stage: records, sample-epochs, plane points, report points."""
        s = self.shape
        per = self.records_per_dataset()
        planes = len(s["eval_formations"])  # one altitude
        return {
            "gen": per * len(s["datasets"]),
            "train": per * s["epochs"] * (len(s["linear_on"]) + len(s["deepset_on"])),
            "eval": planes * len(MODELS) * s["resolution"] ** 2,
            "report": planes * (s["slice_resolution"] + s["resolution"] ** 2) * (len(MODELS) + 1),
        }

    def argv(self, stage: str) -> list:
        return [stage, "--config", str(self.config_path)]

    # -- checks ----------------------------------------------------------

    def check(self, round_index: int) -> None:
        """Check every output of one round; raises CheckFailed on a wrong output."""
        digests = {}
        for i, name in enumerate(self.shape["datasets"]):
            path = self.out / "datasets" / f"{name}.csv"
            self._check_dataset(name, path)
            if i == round_index % len(self.shape["datasets"]):
                self._check_resave(path)
            digests[path.name] = _digest(path)
        self._check_training()
        for path in sorted((self.out / "models").iterdir()):
            digests[path.name] = _digest(path)
        self._check_reports()
        if self.first_digests is None:
            self.first_digests = digests
        else:
            changed = sorted(k for k in digests if digests[k] != self.first_digests.get(k))
            _require(not changed, f"rerun with the same seed changed {changed}")

    def _check_dataset(self, name: str, path: Path) -> None:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        header, body = rows[0], rows[1:]
        expected = self.records_per_dataset()
        _require(len(body) == expected, f"{name}: {len(body)} records, expected {expected}")
        col = {h: i for i, h in enumerate(header)}
        k = PAPER_DATASETS[name][1]
        values = np.array([[float(c) for c in row] for row in body])
        truth = values[:, [col[f"gt_{a}"] for a in AXES]]
        measured = values[:, [col[f"meas_{a}"] for a in AXES]]
        _require(bool(np.all(truth[:, 5] == 0.0)), f"{name}: truth yaw is not exactly 0")

        suf = [col[f"suf_{f}"] for f in ("pos_n", "pos_e", "pos_d", "vel_n", "vel_e", "vel_d")]
        nbs = [
            [col[f"nb{i}_{f}"] for f in ("pos_n", "pos_e", "pos_d", "vel_n", "vel_e", "vel_d")]
            for i in range(k)
        ]
        for r in range(0, len(values), GT_STRIDE):
            row = values[r]
            rels = [tuple(float(row[a] - row[b]) for a, b in zip(nb, suf)) for nb in nbs]
            ref = reference.merging(rels, FIELD, MERGE)
            _require(
                reference.close(list(truth[r]), ref),
                f"{name} record {r}: truth {list(truth[r])} != reference {ref}",
            )

        noise = measured - truth
        n = len(noise)
        for axis in range(6):
            sigma = NOISE["sigma_force"] if axis < 3 else NOISE["sigma_torque"]
            mean = float(noise[:, axis].mean())
            std = float(noise[:, axis].std(ddof=1))
            _require(
                abs(mean) <= NOISE_Z * sigma / math.sqrt(n),
                f"{name} {AXES[axis]}: noise mean {mean:.3g} with sigma {sigma} over {n} records",
            )
            _require(
                abs(std / sigma - 1.0) <= NOISE_Z / math.sqrt(2.0 * (n - 1)),
                f"{name} {AXES[axis]}: noise std {std:.4g} against sigma {sigma} over {n} records",
            )

    def _check_resave(self, path: Path) -> None:
        copy = self.out.parent / "resave" / path.name
        save_dataset(load_dataset(path), copy)
        for original, again in ((path, copy), (path.with_suffix(".json"), copy.with_suffix(".json"))):
            _require(original.read_bytes() == again.read_bytes(), f"load/save of {original.name} changed its bytes")

    def _check_training(self) -> None:
        epochs = self.shape["epochs"]
        models_dir = self.out / "models"
        for name in ("learnt_linear", "learnt_nonlinear"):
            with open(models_dir / f"{name}_loss.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            losses = [float(r[1]) for r in rows]
            _require(len(losses) == epochs, f"{name}: {len(losses)} loss rows, expected {epochs}")
            _require(all(math.isfinite(v) for v in losses), f"{name}: non-finite loss")
            _require(losses[-1] < losses[0], f"{name}: loss rose from {losses[0]} to {losses[-1]}")

        models = {name: load_model(models_dir / f"{name}.json") for name in MODELS}
        rng = np.random.default_rng(self.seed)
        for i in range(INVARIANCE_SNAPSHOTS):
            k = 2 + i % 3
            neighbours = [
                VehicleState(
                    position=np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), -rng.uniform(0.2, 1.4)]),
                    velocity=rng.uniform(-0.8, 0.8, size=3),
                )
                for _ in range(k)
            ]
            sufferer = VehicleState(position=np.zeros(3), velocity=np.zeros(3))
            orders = list(itertools.permutations(range(k)))
            for name, model in models.items():
                base = model.predict(FormationSnapshot(sufferer, tuple(neighbours))).vec
                for order in orders[1:7]:
                    again = model.predict(FormationSnapshot(sufferer, tuple(neighbours[j] for j in order))).vec
                    _require(np.array_equal(base, again), f"{name}: prediction depends on neighbour order")
                if isinstance(model, LinearAggModel) and k == 3:
                    parts = sum(model.predict(FormationSnapshot(sufferer, (nb,))).vec for nb in neighbours)
                    _require(
                        bool(np.all(np.abs(parts - base) <= 1e-12 * np.maximum(1.0, np.abs(base)))),
                        f"{name}: K=3 prediction is not the sum of single-neighbour predictions",
                    )

    def _check_reports(self) -> None:
        reports = self.out / "reports"
        with open(reports / "benchmark.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        expected = len(self.shape["eval_formations"]) * len(MODELS)
        _require(len(rows) == expected, f"benchmark.csv has {len(rows)} rows, expected {expected}")
        d_errors = {}
        for row in rows:
            label, model = row["formation"], row["model"]
            _require(row["err_t_yaw"] == "", f"{label}/{model}: yaw error is not NaN")
            errors = [float(row[f"err_{a}"]) for a in AXES[:5]]
            _require(all(math.isfinite(v) for v in errors), f"{label}/{model}: non-finite error {errors}")
            tag = f"{label}_{_alt_tag(float(row['altitude']))}"
            pred = self._contour(reports / f"contour_{tag}_{model}.csv")[:, 2]
            truth = self._contour(reports / f"contour_{tag}_ground_truth.csv")[:, 2]
            ratio = float(np.abs(pred - truth).sum() / np.abs(truth).sum())
            _require(
                abs(ratio - errors[2]) <= 1e-9 * abs(ratio),
                f"{label}/{model}: D error {errors[2]} but contours give {ratio}",
            )
            d_errors[f"{label}/{model}"] = errors[2]

        peaks = {}
        for kind, k in self.shape["eval_formations"]:
            tag = f"{kind}_k{k}_{_alt_tag(EVAL_ALTITUDE)}"
            grid = self._contour(reports / f"contour_{tag}_ground_truth.csv")
            for n, e, f_d in grid[::CONTOUR_STRIDE]:
                ref = reference.merging(
                    reference.formation_rels(kind, k, SPACING, n, e, EVAL_ALTITUDE, SPEED), FIELD, MERGE
                )
                _require(
                    reference.close([f_d], [ref[2]]),
                    f"{tag} ground truth at ({n}, {e}) is {f_d}, reference {ref[2]}",
                )
            with open(reports / f"slice_{tag}.csv", newline="", encoding="utf-8") as fh:
                columns = list(zip(*list(csv.reader(fh))))
            for column in columns[1:]:
                peaks[f"{kind}_k{k}/{column[0]}"] = count_peaks(np.array([float(v) for v in column[1:]]))
        self.quality = {"d_errors": d_errors, "slice_peaks": peaks}

    @staticmethod
    def _contour(path: Path) -> np.ndarray:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        return np.array([[float(c) for c in row] for row in rows])
