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
    assert cfg.noise.sigma_force == 0.0


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


def test_text_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_bytes(MINIMAL.encode("utf-8") + b"note: \xff\n")
    with pytest.raises(ConfigError, match="utf-8"):
        load_config(path)
    # what a non-UTF-8 command-line byte decodes to
    with pytest.raises(ConfigError, match="cannot parse value"):
        apply_override({}, "seed=\udcff")


@pytest.mark.parametrize("name", ["configs/default.yaml", "configs/quick.yaml", None])
def test_chosen_loader_reads_what_the_pure_python_loader_reads(name):
    text = MINIMAL if name is None else open(name, encoding="utf-8").read()
    assert yaml.load(text, Loader=config._LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


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


@pytest.mark.parametrize(
    "override, path",
    [
        ("models.naive.resolution=[0, 50]", "models.naive.resolution"),
        ("models.linear.hidden=[-3]", "models.linear.hidden"),
        ("models.deepset.embed_dim=0", "models.deepset.embed_dim"),
        ("models.deepset.phi_hidden=[64, 0]", "models.deepset.phi_hidden"),
        ("models.deepset.decoder_hidden=[-1]", "models.deepset.decoder_hidden"),
    ],
)
def test_model_sizes_below_one_rejected(override, path):
    assert _config_error(override).startswith(path + ": every size must be >= 1")


@pytest.mark.parametrize(
    "override, message",
    [
        (
            "eval.formations=[{kind: stack, k: 2}, {kind: leader_follower, k: 3},"
            " {kind: leader_follower, k: 3, spacing: 1.0}]",
            "eval.formations[2]: report name 'leader_follower_k3' repeats eval.formations[1]",
        ),
        ("eval.altitudes=[0.8, 1.3, 1.3000001]", "eval.altitudes[2]: report name '1p3' repeats eval.altitudes[1]"),
    ],
)
def test_eval_entries_whose_report_names_collide_rejected(override, message):
    # the spacing and the altitude's seventh digit do not appear in report file names
    assert _config_error(override) == message


def test_grid_baseline_must_fit_on_a_k1_dataset():
    doc = {
        "datasets": [{"name": "lf3", "kind": "leader_follower", "k": 3}],
        "models": {"naive": {"fit_on": "lf3"}},
    }
    with pytest.raises(ConfigError, match=r"^models\.naive\.fit_on: .*k=1.*'lf3' has k=3"):
        parse_config(doc)


@pytest.mark.parametrize("altitudes, even", [([0.3, 0.5, 1.3], False), ([0.3, 0.8, 1.3], True), ([0.2, 0.4, 0.6, 0.8], True)])
def test_grid_baseline_needs_evenly_spaced_altitudes(altitudes, even):
    """The grid has one vertical cell per altitude plane, all of one height."""
    doc = {
        "datasets": [{"name": "x", "kind": "side_by_side", "k": 1, "altitudes": altitudes}],
        "models": {"naive": {"fit_on": "x"}},
    }
    if even:
        assert parse_config(doc).datasets[0].sweep.altitudes == tuple(altitudes)
    else:
        message = "models.naive.fit_on: the grid baseline needs evenly spaced altitudes, 'x' has [0.3, 0.5, 1.3]"
        with pytest.raises(ConfigError) as caught:
            parse_config(doc)
        assert str(caught.value) == message


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


@pytest.mark.parametrize("spelling, hint", [("1e-3", "1.0e-3"), ("2E5", "2.0e+5"), ("5.e3", "5.e+3")])
def test_float_text_yaml_reads_as_a_string_gets_a_spelling_hint(tmp_path, spelling, hint):
    """PyYAML (YAML 1.1) reads an exponent without a point or a sign as text."""
    message = f"training.learning_rate: expected float, got '{spelling}' (YAML 1.1 reads it as text; write {hint})"
    assert _config_error(f"training.learning_rate={spelling}") == message
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, MINIMAL + f"training: {{learning_rate: {spelling}}}\n"))
    assert str(info.value) == message
    assert load_config(_write(tmp_path, MINIMAL), [f"training.learning_rate={hint}"]).training.learning_rate == float(
        spelling
    )
    # text float() cannot read, or reads as a non-finite number, gets no hint
    for text in ("fast", "nan", "1e400"):
        assert _config_error(f"training.learning_rate={text}") == f"training.learning_rate: expected float, got {text!r}"


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


# Pieces of YAML text, so the fuzzed texts reach the parser and the scalar
# constructors: brackets deep enough to pass the depth limit, anchors and
# aliases, tags, and timestamps, numbers and quotes that do not build.
_FRAGMENTS = ["[", "]", "{", "}", ", ", ": ", "- ", "&a ", "*a", "!!int ", "!!float ", "!!timestamp ", "!!binary ",
              "!!str ", "2021-", "13-45", "02-30", "1e999", ".nan", "0x", "7", "x", "'", '"', "\n", "\n  ", "#",
              "[" * 60, "]" * 60]


@FUZZ
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join))
def test_fuzzed_yaml_text_loads_or_is_config_error(tmp_path_factory, text):
    """A seed value as text, given as an override and in a config file: the
    config loads or the reader refuses it, never another exception."""
    base = tmp_path_factory.getbasetemp() / "fuzzed_text"
    base.mkdir(exist_ok=True)
    minimal, path = base / "minimal.yaml", base / "seed.yaml"
    minimal.write_text(MINIMAL, encoding="utf-8")
    path.write_text(f"seed: {text}\n", encoding="utf-8")
    for load in (lambda: load_config(minimal, overrides=[f"seed={text}"]), lambda: load_config(path)):
        try:
            assert isinstance(load(), RunConfig)
        except ConfigError:
            pass
