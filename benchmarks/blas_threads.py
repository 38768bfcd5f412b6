"""One OpenBLAS thread against the default thread count.

    python3 benchmarks/blas_threads.py [--repeats 5]

Run from the root of a checkout.  Each repeat starts two fresh interpreters,
one with ``OPENBLAS_NUM_THREADS=1`` and one without the variable, in
alternating order.  Each times deep-set training for 5 epochs on 4800
leader_follower_k3 records and one 32x32 integrated-plane evaluation of the
deep set against the merging oracle.  Prints the min-max of both timings per
setting.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

CHILD = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
from downwash.evaluate import integrated_plane_error
from downwash.field import DownwashParams, MergeParams, NoiseParams, make_oracle
from downwash.formations import Formation, FormationKind, SweepConfig, generate_sweep
from downwash.models import DeepSetModel
from downwash.rng import stream
from downwash.training import TrainConfig, train

params, merge = DownwashParams(), MergeParams(contraction_rate=0.65)
formation = Formation(FormationKind.LEADER_FOLLOWER, 3)
sweep = SweepConfig(legs=8, samples_per_leg=200)
data = generate_sweep(formation, sweep, "merging", params, merge, NoiseParams(seed=1))
assert len(data) == 4800
model = DeepSetModel.initialised(stream(2))
start = time.perf_counter()
train(model, [data], TrainConfig(epochs=5, seed=3))
trained = time.perf_counter() - start
truth = make_oracle("merging", params, merge)
start = time.perf_counter()
integrated_plane_error(model.predict, truth, formation, 1.3, resolution=32)
plane = time.perf_counter() - start
print(json.dumps({"train_s": trained, "plane_s": plane}))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    src = Path.cwd() / "src"
    if not (src / "downwash").is_dir():
        print(f"no downwash package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    settings = {"one thread": dict(base, OPENBLAS_NUM_THREADS="1"), "default": base}
    results = {name: [] for name in settings}
    for rep in range(args.repeats):
        order = list(settings) if rep % 2 == 0 else list(reversed(settings))
        for name in order:
            done = subprocess.run(
                [sys.executable, "-c", CHILD, str(src)],
                env=settings[name],
                capture_output=True,
                text=True,
                timeout=170,
                check=True,
            )
            results[name].append(json.loads(done.stdout.strip().splitlines()[-1]))
    for name, runs in results.items():
        for key in ("train_s", "plane_s"):
            values = [r[key] for r in runs]
            print(f"{name:10s} {key:8s} {min(values):.3f}-{max(values):.3f} s over {len(values)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
