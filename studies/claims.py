"""Seed table of the paper's claims: the criterion-5 and criterion-9 pipelines over many seeds.

Runs the two acceptance pipelines that test the paper's claims, one seed at
a time and outside pytest: ``nonlinear_pipeline_at`` (criteria 5a and 5b)
and ``k4_probe_at`` (criterion 9) from ``tests/test_acceptance.py``, the
same functions its tests call at ``SEED``, judged by the same thresholds.

Per seed it records the wall time of each phase, the three D errors and
both 5a ratios, every slice peak count, criterion 9's K=4 error vectors
and its sum-of-singletons gap, and the final training losses of all four
models; then min, median and max of each figure over the seeds, and on how
many seeds each criterion holds.  It is a measurement, not a gate.

It measures the ``downwash`` package on ``PYTHONPATH``; from the root of a
checkout::

    env OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 studies/claims.py --seeds 1-8,42 --out CLAIMS.json

Each seed also prints one markdown row in the layout of ROADMAP item 7's
seed table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_acceptance import (  # noqa: E402
    PEAKS_5B,
    RATIO_5A,
    SUM_OF_SINGLETONS_TOL,
    k4_probe_at,
    nonlinear_pipeline_at,
    sum_of_singletons_gap,
)

from downwash.evaluate import count_peaks  # noqa: E402

MODELS = ("naive_linear", "learnt_linear", "learnt_nonlinear")
SUMMARISED = ("phase_s", "d_error", "ratio_5a", "peaks_5b", "k4_d_error", "final_loss")


class Phases:
    """Wall seconds per named phase, in the order they ran."""

    def __init__(self):
        self.seconds = {}
        self._start = time.perf_counter()

    def done(self, name):
        now = time.perf_counter()
        self.seconds[name] = now - self._start
        self._start = now


def run_seed(seed: int) -> dict:
    """The criterion-5 pipeline and the criterion-9 probe at ``seed``."""
    phases = Phases()
    pipeline = nonlinear_pipeline_at(seed, phases.done)
    probe = k4_probe_at(seed)
    gap = sum_of_singletons_gap(probe["models"]["linear"])
    phases.done("criterion_9")

    d_error = {name: float(err[2]) for name, err in pipeline["errors"].items()}
    deep = d_error["learnt_nonlinear"]
    return {
        "phase_s": phases.seconds,
        "d_error": d_error,
        "ratio_5a": {"naive_over_deepset": d_error["naive_linear"] / deep, "linear_over_deepset": d_error["learnt_linear"] / deep},
        "peaks_5b": {name: count_peaks(col) for name, col in pipeline["profile"].items()},
        "k4_d_error": {name: float(err[2]) for name, err in probe["errors"].items()},
        "k4_errors": {name: [float(x) for x in err[:5]] for name, err in probe["errors"].items()},
        "k4_sum_of_singletons_gap": gap,
        "final_loss": {
            **pipeline["final_loss"],
            **{f"probe_{name}": loss for name, loss in probe["final_loss"].items()},
        },
    }


def holds(row: dict) -> dict:
    """Whether each criterion holds on one seed's row, by the acceptance tests' thresholds."""
    d, peaks = row["d_error"], row["peaks_5b"]
    return {
        "5a": all(d[name] >= RATIO_5A * d["learnt_nonlinear"] for name in ("naive_linear", "learnt_linear")),
        "5b": all(peaks[name] == count for name, count in PEAKS_5B.items()),
        "9": bool(np.all(np.isfinite(list(row["k4_errors"].values()))))
        and row["k4_sum_of_singletons_gap"] < SUM_OF_SINGLETONS_TOL,
    }


def summarise(rows: list) -> dict:
    """Min, median and max over the seeds of every figure in the rows."""
    return {
        group: {
            key: {stat: fn(row[group][key] for row in rows) for stat, fn in (("min", min), ("median", statistics.median), ("max", max))}
            for key in rows[0][group]
        }
        for group in SUMMARISED
    }


def table_row(seed: int, row: dict) -> str:
    """One row in the layout of ROADMAP item 7's seed table (float32 steps)."""
    d, r, p, k4, loss, t = (row[g] for g in ("d_error", "ratio_5a", "peaks_5b", "k4_d_error", "final_loss", "phase_s"))
    return (
        f"| {seed} | f32 | {' / '.join(f'{d[m]:.4f}' for m in MODELS)} "
        f"| {r['naive_over_deepset']:.2f} / {r['linear_over_deepset']:.2f} "
        f"| {'/'.join(str(p[m]) for m in (*MODELS, 'ground_truth'))} "
        f"| {k4['learnt_linear']:.3f} / {k4['learnt_nonlinear']:.3f} "
        f"| {loss['linear']:.5f} / {loss['deepset']:.5f} "
        f"| {t['linear_train']:.1f} / {t['deepset_train']:.1f} |"
    )


def parse_seeds(text: str) -> list:
    """``1-8,42`` -> [1, 2, ..., 8, 42]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-8,42")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    rows = {}
    for seed in args.seeds:
        rows[seed] = run_seed(seed)
        print(table_row(seed, rows[seed]), flush=True)
    verdicts = {seed: holds(row) for seed, row in rows.items()}
    doc = {
        "command": " ".join(["studies/claims.py", *(sys.argv[1:] if argv is None else argv)]),
        "seeds": {str(seed): {**row, "holds": verdicts[seed]} for seed, row in rows.items()},
        "summary": summarise(list(rows.values())),
        "seeds_holding": {name: sum(v[name] for v in verdicts.values()) for name in ("5a", "5b", "9")},
        "seed_count": len(rows),
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
