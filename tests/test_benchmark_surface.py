"""The package names that ``benchmarks/`` uses must keep resolving, and the
calls it makes must keep their shapes.

The benchmark scripts are run against every revision as they stand, and
their own tests are not part of this suite, so a refactor that deletes or
renames a name they use would otherwise go unnoticed until a benchmark
run.  The scan reads the source text, so imports inside strings (the child
program of ``blas_threads.py``) count too.  It sees three forms:
``from downwash.<module> import <names>``; ``from downwash import <module>``
with the ``<module>.<name>`` references that follow it; and dotted
``downwash.<module>.<name>`` references.
"""

import importlib
import inspect
import re
from pathlib import Path

import numpy as np

from downwash.core import FormationSnapshot, VehicleState
from downwash.evaluate import count_peaks, integrated_plane_error
from downwash.field import DownwashParams, MergeParams, NoiseParams, aggregate_merging, make_oracle, merging_batch
from downwash.formations import Formation, FormationKind, SweepConfig, generate_sweep
from downwash.models import (
    DeepSetModel,
    DeepSetSettings,
    LinearAggModel,
    LinearSettings,
    fit_grid,
    load_model,
    save_model,
)
from downwash.rng import stream
from downwash.training import TrainConfig, train

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
FROM_MODULE = re.compile(r"^\s*from downwash\.(\w+) import (\([^)]*\)|[^\n]*)", re.M)
FROM_PACKAGE = re.compile(r"^\s*from downwash import ([\w, ]+)", re.M)
DOTTED = re.compile(r"\bdownwash\.(\w+)\.(\w+)")


def benchmark_imports() -> list:
    """(file, module, name) of every package name that ``benchmarks/*.py`` uses;
    name is None for a module imported whole."""
    found = []
    for path in sorted(BENCHMARKS.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for module, names in FROM_MODULE.findall(text):
            for name in names.strip("()").split(","):
                name = name.split(" as ")[0].strip()
                if name:
                    found.append((path.name, module, name))
        for modules in FROM_PACKAGE.findall(text):
            for module in filter(None, (m.strip() for m in modules.split(","))):
                found.append((path.name, module, None))
                # attribute uses such as self.cli.main, but not strings such as "cli.import_ms"
                for name in re.findall(rf"(?<![\w\"']){module}\.(\w+)", text):
                    found.append((path.name, module, name))
        found += [(path.name, module, name) for module, name in DOTTED.findall(text)]
    return found


def test_every_name_benchmarks_import_resolves():
    found = benchmark_imports()
    # the scan sees module-level imports, imports inside functions and the child source string
    assert ("workloads.py", "models", "load_model") in found
    assert ("test_reference.py", "field", "aggregate_merging") in found
    assert ("blas_threads.py", "training", "train") in found
    # ... and whole-module imports with their attribute uses, and dotted references
    assert ("run.py", "cli", None) in found
    assert ("run.py", "cli", "main") in found
    assert ("run.py", "cli", "load_config") in found
    missing = [
        f"{file}: downwash.{module}" + (f".{name}" if name else "")
        for file, module, name in found
        if not hasattr(importlib.import_module(f"downwash.{module}"), name or "__name__")
    ]
    assert not missing, f"names used by benchmarks/ are gone: {missing}"


def test_calls_benchmarks_make_keep_their_shapes(tmp_path):
    """The calls of ``workloads.py`` and ``test_reference.py`` on every model
    kind they meet, and ``predict_batch`` in ``integrated_plane_error``, the
    call the ``blas_threads.py`` child should make (it passes ``predict``,
    which takes one snapshot, not a batch).  The per-snapshot shims
    ``predict`` and ``aggregate_merging`` must equal the batch functions on
    a batch of one bitwise; no other tier-1 test calls them."""
    params, merge = DownwashParams(), MergeParams(contraction_rate=0.65)
    sweep = SweepConfig(legs=4, samples_per_leg=10)
    k1 = Formation(FormationKind.SIDE_BY_SIDE, 1)
    lf3 = Formation(FormationKind.LEADER_FOLLOWER, 3)
    data = generate_sweep(k1, sweep, "merging", params, merge, NoiseParams(seed=1))
    deepset = DeepSetModel.initialised(stream(2))
    train(deepset, [data], TrainConfig(epochs=1, seed=3))
    models = {
        "grid": fit_grid(data, sweep, (4, 4)),
        "linear": LinearAggModel.initialised(stream(4)),
        "deepset": deepset,
    }

    sufferer = VehicleState(position=np.zeros(3), velocity=np.zeros(3))
    neighbours = [
        VehicleState(position=np.array([0.1 * i, 0.5 * i - 0.4, -0.8]), velocity=np.array([0.0, 0.5, 0.0]))
        for i in range(3)
    ]
    single, triple = FormationSnapshot(sufferer, (neighbours[0],)), FormationSnapshot(sufferer, tuple(neighbours))
    for name, model in models.items():
        save_model(model, tmp_path / f"{name}.json")
        loaded = load_model(tmp_path / f"{name}.json")
        assert isinstance(loaded, LinearAggModel) == (name == "linear")
        for snap in (single, triple):
            vec = loaded.predict(snap).vec
            assert vec.shape == (6,)
            np.testing.assert_array_equal(vec, model.predict(snap).vec)
            assert vec.tobytes() == loaded.predict_batch(snap.features()[None])[0].tobytes()

    for snap in (single, triple):
        vec = aggregate_merging(snap, params, merge).vec
        assert vec.shape == (6,)
        assert vec.tobytes() == merging_batch(snap.features()[None], params, merge)[0].tobytes()
    truth = make_oracle("merging", params, merge)
    feats = np.stack([triple.features(), single.features().repeat(3, axis=0)])
    assert truth(feats).shape == (2, 6)
    errors = integrated_plane_error(models["deepset"].predict_batch, truth, lf3, 1.3, resolution=8)
    assert errors.shape == (6,)
    assert count_peaks(np.array([0.0, 1.0, 0.0])) == 1


def test_one_argument_initialised_builds_the_default_settings():
    """``blas_threads.py`` builds its deep set with ``initialised(stream(2))``:
    the sizes are those of ``LinearSettings()`` and ``DeepSetSettings()``."""
    linear = LinearAggModel.initialised(stream(4))
    deepset = DeepSetModel.initialised(stream(2))
    assert linear.encoder.layer_dims == [6, 64, 64, 6]
    assert (deepset.encoder.layer_dims, deepset.decoder.layer_dims) == ([6, 64, 64, 64], [64, 64, 6])
    assert linear.flat.tobytes() == LinearAggModel.initialised(stream(4), LinearSettings()).flat.tobytes()
    assert deepset.flat.tobytes() == DeepSetModel.initialised(stream(2), DeepSetSettings()).flat.tobytes()


def test_integrated_plane_error_keeps_its_signature():
    """``blas_threads.py`` passes ``resolution=32`` and relies on the other
    defaults, so the parameters and their default values stay as they are."""
    params = inspect.signature(integrated_plane_error).parameters
    assert list(params) == ["predictor", "truth", "formation", "altitude", "extent", "resolution", "speed"]
    defaults = {name: p.default for name, p in params.items() if p.default is not inspect.Parameter.empty}
    assert defaults == {"extent": 2.0, "resolution": 64, "speed": 0.5}
    assert [type(value) for value in defaults.values()] == [float, int, float]
