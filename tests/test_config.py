import dataclasses
import re

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from downwash import config
from downwash.config import ConfigError, RunConfig, apply_override, load_config, parse_config
from downwash.formations import FormationKind

MINIMAL = """
seed: 5
output_dir: out
datasets:
  - {name: single_k1, kind: side_by_side, k: 1, oracle: additive}
"""


def _write(tmp_path, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text, encoding="utf-8")
    return path


def test_minimal_config_fills_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    assert cfg.seed == 5
    assert cfg.field_params.peak_force == 4.0
    assert cfg.sweep.legs == 36
    assert cfg.training.epochs == 200
    assert cfg.datasets[0].name == "single_k1"
    assert cfg.datasets[0].formation.kind is FormationKind.SIDE_BY_SIDE
    assert cfg.evaluation.altitudes == (1.3,)


def test_shipped_configs_parse():
    for name in ("configs/default.yaml", "configs/quick.yaml"):
        cfg = load_config(name)
        assert {d.name for d in cfg.datasets} >= {"single_k1"}
        assert cfg.naive.fit_on in {d.name for d in cfg.datasets}


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(_write(tmp_path, MINIMAL + "\nbogus_section: 1\n"))
    with pytest.raises(ConfigError, match="field: unknown key"):
        load_config(_write(tmp_path, MINIMAL + "\nfield: {peak: 3.0}\n"))
    with pytest.raises(ConfigError, match=r"datasets\[0\]"):
        parse_config(
            yaml.safe_load(MINIMAL.replace("oracle: additive", "oracle: additive, typo: 1"))
        )


def test_semantic_errors_are_path_anchored(tmp_path):
    with pytest.raises(ConfigError, match="sweep.legs"):
        load_config(_write(tmp_path, MINIMAL + "\nsweep: {legs: 1.5}\n"))
    with pytest.raises(ConfigError, match="hybrid3"):
        load_config(
            _write(tmp_path, "datasets:\n  - {name: h, kind: hybrid3, k: 2, oracle: additive}\n")
        )
    with pytest.raises(ConfigError, match="oracle"):
        load_config(_write(tmp_path, "datasets:\n  - {name: a, kind: stack, k: 2, oracle: cfd}\n"))
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(
            _write(
                tmp_path,
                "datasets:\n"
                "  - {name: a, kind: stack, k: 2}\n"
                "  - {name: a, kind: stack, k: 3}\n",
            )
        )


def test_dataset_entries_can_override_sweep(tmp_path):
    text = MINIMAL + "\nsweep: {legs: 10}\n"
    text = text.replace(
        "oracle: additive}", "oracle: additive, legs: 3, samples_per_leg: 7}"
    )
    cfg = load_config(_write(tmp_path, text))
    assert cfg.sweep.legs == 10
    assert cfg.datasets[0].sweep.legs == 3
    assert cfg.datasets[0].sweep.samples_per_leg == 7


def test_overrides_parse_yaml_values():
    doc = yaml.safe_load(MINIMAL)
    apply_override(doc, "training.epochs=7")
    apply_override(doc, "eval.altitudes=[0.3, 0.8]")
    apply_override(doc, "noise.sigma_force=0.0")
    cfg = parse_config(doc)
    assert cfg.training.epochs == 7
    assert cfg.evaluation.altitudes == (0.3, 0.8)
    assert cfg.sigma_force == 0.0


def test_override_without_equals_rejected():
    with pytest.raises(ConfigError, match="section.key=value"):
        apply_override({}, "training.epochs")


def test_seed_and_out_shorthand(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL), seed=99, output_dir="elsewhere")
    assert cfg.seed == 99
    assert str(cfg.output_dir) == "elsewhere"


def test_yaml_syntax_error_wrapped(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "seed: [unclosed"))


def _config_error(override):
    """The ConfigError message for MINIMAL with one override applied."""
    doc = yaml.safe_load(MINIMAL)
    apply_override(doc, override)
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    return str(info.value)


@pytest.mark.parametrize(
    "override, path",
    [
        ("field.peak_force=strong", "field.peak_force"),
        ("merge.merge_radius=[0.6]", "merge.merge_radius"),
        ("noise.sigma_force=low", "noise.sigma_force"),
        ("sweep.altitudes=[0.3, high]", "sweep.altitudes[1]"),
        ("datasets=[{name: a, kind: stack, k: two}]", "datasets[0].k"),
        ("datasets=[{name: a, kind: stack, k: 2, legs: 1.5}]", "datasets[0].legs"),
        ("training.batch_size=64.0", "training.batch_size"),
        ("models.naive.fit_on=3", "models.naive.fit_on"),
        ("models.linear.hidden=[64, wide]", "models.linear.hidden[1]"),
        ("models.deepset.embed_dim=wide", "models.deepset.embed_dim"),
        ("eval.extent=far", "eval.extent"),
        ("eval.formations=[{kind: stack, k: two}]", "eval.formations[0].k"),
    ],
)
def test_wrong_types_name_their_path(override, path):
    assert _config_error(override).startswith(path + ":")


@pytest.mark.parametrize(
    "override, path",
    [
        ("seed=true", "seed"),
        ("training.epochs=true", "training.epochs"),
        ("field.peak_force=true", "field.peak_force"),
        ("eval.altitudes=[true]", "eval.altitudes[0]"),
        ("datasets=[{name: a, kind: stack, k: true}]", "datasets[0].k"),
    ],
)
def test_booleans_are_not_numbers(override, path):
    assert _config_error(override).startswith(path + ":")


@pytest.mark.parametrize(
    "override, path",
    [
        ("training.seed=3", "training"),
        ("models.linear.embed_dim=8", "models.linear"),
        ("eval.formations=[{kind: stack, k: 2, typo: 1}]", "eval.formations[0]"),
    ],
)
def test_keys_outside_the_schema_rejected(override, path):
    assert _config_error(override).startswith(path + ": unknown key")


@pytest.mark.parametrize(
    "override, path",
    [
        ("eval.altitudes=[1.3, 0.0]", "eval.altitudes"),
        ("eval.extent=0.0", "eval.extent"),
        ("eval.resolution=4", "eval.resolution"),
        ("eval.slice_resolution=1", "eval.slice_resolution"),
        ("eval.contour_resolution=0", "eval.contour_resolution"),
    ],
)
def test_eval_bounds_rejected(override, path):
    assert _config_error(override).startswith(path + ":")


def test_grid_baseline_must_fit_on_a_k1_dataset():
    doc = {
        "datasets": [{"name": "lf3", "kind": "leader_follower", "k": 3}],
        "models": {"naive": {"fit_on": "lf3"}},
    }
    with pytest.raises(ConfigError, match=r"^models\.naive\.fit_on: .*k=1.*'lf3' has k=3"):
        parse_config(doc)


@pytest.mark.parametrize(
    "override, path",
    [
        ("eval.altitudes=[.nan]", "eval.altitudes[0]"),
        ("field.peak_force=.inf", "field.peak_force"),
        ("merge.merge_radius=-.inf", "merge.merge_radius"),
        ("noise.sigma_force=.nan", "noise.sigma_force"),
        ("training.learning_rate=.nan", "training.learning_rate"),
        ("sweep.spacing=1" + "0" * 400, "sweep.spacing"),
    ],
)
def test_non_finite_floats_rejected(override, path):
    assert _config_error(override).startswith(path + ": expected a finite number")


# -- fuzzing: any YAML-like document ends in a RunConfig or a ConfigError at a path

_SCHEMA_CLASSES = (
    config.DownwashParams,
    config.MergeParams,
    config.NoiseParams,
    config.SweepConfig,
    config.TrainConfig,
    config.Formation,
    config.DatasetSpec,
    config.NaiveSettings,
    config.LinearSettings,
    config.DeepSetSettings,
    config.EvalSettings,
)
# Schema keys and enumerated values, so fuzzed documents reach past the top level.
_WORDS = sorted(
    {f.name for cls in _SCHEMA_CLASSES for f in dataclasses.fields(cls)}
    | {"seed", "output_dir", "field", "merge", "noise", "models", "eval", "naive", "linear", "deepset"}
    | {"name", "kind", "k", "oracle", "single_k1", "additive", "merging", "n", "e"}
    | {kind.value for kind in FormationKind}
)
_PATHS = ["seed", "field", "field.peak_force", "merge.merge_radius", "noise", "noise.sigma_torque",
          "sweep", "sweep.altitudes", "sweep.legs", "datasets", "training.epochs", "training.beta1",
          "models", "models.naive.fit_on", "models.naive.resolution", "models.linear.hidden",
          "models.deepset", "eval", "eval.formations", "eval.altitudes", "eval.slice_axis"]
_PATH = re.compile(r"^[a-z_0-9]+(\[\d+\])*(\.[a-z_0-9]+(\[\d+\])*)*: ")

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_WORDS),
    st.text(max_size=3),
)
_keys = st.one_of(st.sampled_from(_WORDS), st.text(max_size=3), st.integers(-2, 2), st.none(), st.booleans())
_trees = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_keys, inner, max_size=5)),
    max_leaves=20,
)
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _parses_or_names_a_path(doc):
    try:
        assert isinstance(parse_config(doc), RunConfig)
    except ConfigError as exc:
        assert _PATH.match(str(exc)), str(exc)


@FUZZ
@given(_trees)
def test_fuzzed_documents_parse_or_name_a_path(doc):
    _parses_or_names_a_path(doc)


@FUZZ
@given(st.lists(st.tuples(st.sampled_from(_PATHS), _trees), min_size=1, max_size=3))
def test_fuzzed_overrides_of_a_valid_config_parse_or_name_a_path(assignments):
    doc = yaml.safe_load(MINIMAL)
    for dotted, value in assignments:
        *parents, last = dotted.split(".")
        node = doc
        for key in parents:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[last] = value
    _parses_or_names_a_path(doc)
