"""Run configuration: one YAML file, strictly validated, plus dotted overrides.

The schema is the dataclass fields.  Each YAML section is built by
:func:`build` from the fields and annotations of one dataclass
(``DownwashParams``, ``MergeParams``, ``NoiseParams``, ``SweepConfig``,
``TrainConfig``, ``Formation`` and the settings classes below): keys are the
field names, defaults are the field defaults, and range checks live in each
class's ``__post_init__``.  Unknown keys are rejected with the offending path
in the message so typos cannot silently change an experiment.  Report files
are named from ``Formation.label()`` and :func:`altitude_tag`, so no two
``eval.formations`` may share a label and no two ``eval.altitudes`` a tag.  All
randomness derives from the one global seed through named substreams
(dataset:<name>, init:<model>, train:<model>).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import sys
import typing
from dataclasses import MISSING, dataclass
from pathlib import Path
from typing import Literal

import yaml

from .field import DownwashParams, MergeParams, NoiseParams
from .formations import Formation, SweepConfig
from .training import TrainConfig

Oracle = Literal["additive", "merging"]


# libyaml's parser where PyYAML was built with it; both give the same
# documents, the C one about eight times faster.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# The C parser reports text it cannot encode (a lone surrogate from a
# non-UTF-8 command line) as a UnicodeError, not a YAMLError; a config file
# that is not UTF-8 fails to decode with one under either parser.
_YAML_ERRORS = (yaml.YAMLError, UnicodeError)


class ConfigError(Exception):
    """Invalid or unparseable run configuration."""


def _mapping(obj, path: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(obj).__name__}")
    return dict(obj)


def _list(obj, path: str) -> list:
    if not isinstance(obj, (list, tuple)):
        raise ConfigError(f"{path}: expected a list, got {obj!r}")
    return list(obj)


def _value(tp, value, path: str, base: dict | None = None):
    """``value`` checked against the annotation ``tp`` and converted to it;
    ``base`` is passed on to :func:`build` for dataclass values."""
    if typing.get_origin(tp) is tuple:
        items = _list(value, path)
        if not items:
            raise ConfigError(f"{path}: expected a non-empty list")
        item = typing.get_args(tp)[0]
        return tuple(_value(item, v, f"{path}[{i}]", base) for i, v in enumerate(items))
    if typing.get_origin(tp) is Literal or isinstance(tp, enum.EnumMeta):
        choices = typing.get_args(tp) or [member.value for member in tp]
        if value not in choices:
            raise ConfigError(f"{path}: expected one of {list(choices)}, got {value!r}")
        return tp(value) if isinstance(tp, enum.EnumMeta) else value
    if dataclasses.is_dataclass(tp):
        return build(tp, value, path, base)
    if tp is float and type(value) in (int, float):
        # nan, inf and ints beyond the float range all fail this
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if tp is Path and isinstance(value, str):
        return Path(value)
    if type(value) is not tp:
        raise ConfigError(f"{path}: expected {tp.__name__}, got {value!r}")
    return value


@functools.cache
def _hints(cls) -> dict:
    """The resolved field annotations of the dataclass ``cls``."""
    return typing.get_type_hints(cls)


def build(cls, mapping, path: str, base: dict | None = None, skip=()):
    """Instantiate the dataclass ``cls`` from the YAML ``mapping`` at ``path``.

    Each key names a field and its value is checked against the field's
    annotation.  A missing key takes its value from ``base``, then from the
    field default; with neither it is an error.  Fields named in ``skip`` are
    not read from YAML, so their keys count as unknown.  A ``ValueError`` from
    ``cls.__post_init__`` becomes a ``ConfigError`` at ``path``; a message of
    the form ``"<field>: ..."`` is reported at ``path.<field>``.
    """
    section = _mapping(mapping, path)
    hints = _hints(cls)
    kwargs = dict(base or {})
    for f in dataclasses.fields(cls):
        if f.name in skip:
            continue
        if f.name in section:
            kwargs[f.name] = _value(hints[f.name], section.pop(f.name), f"{path}.{f.name}")
        elif f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{f.name}: required key missing")
    if section:
        raise ConfigError(f"{path}: unknown key(s) {sorted(section, key=str)}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        sep = "." if str(exc).split(":")[0] in kwargs else ": "
        raise ConfigError(f"{path}{sep}{exc}") from None


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    formation: Formation
    sweep: SweepConfig
    oracle: Oracle = "merging"


def _require_sizes(settings, *names: str) -> None:
    """A ValueError at the first field of ``names`` (sizes or tuples of sizes) holding one below 1."""
    for name in names:
        sizes = getattr(settings, name)
        if min(sizes if isinstance(sizes, tuple) else (sizes,)) < 1:
            raise ValueError(f"{name}: every size must be >= 1, got {sizes!r}")


@dataclass(frozen=True)
class NaiveSettings:
    fit_on: str = "single_k1"
    resolution: tuple[int, ...] = (36, 50)   # lateral (n, e) cells

    def __post_init__(self):
        if len(self.resolution) != 2:
            raise ValueError("resolution: expected [n_cells, e_cells]")
        _require_sizes(self, "resolution")


@dataclass(frozen=True)
class LinearSettings:
    train_on: tuple[str, ...] = ("single_k1",)
    hidden: tuple[int, ...] = (64, 64)       # encoder hidden sizes

    def __post_init__(self):
        _require_sizes(self, "hidden")


@dataclass(frozen=True)
class DeepSetSettings:
    train_on: tuple[str, ...] = ("leader_follower_k3",)
    embed_dim: int = 64
    phi_hidden: tuple[int, ...] = (64, 64)
    decoder_hidden: tuple[int, ...] = (64,)

    def __post_init__(self):
        _require_sizes(self, "embed_dim", "phi_hidden", "decoder_hidden")


@dataclass(frozen=True)
class EvalSettings:
    formations: tuple[Formation, ...]
    oracle: Oracle = "merging"
    altitudes: tuple[float, ...] = (1.3,)
    extent: float = 2.0
    resolution: int = 64
    slice_axis: Literal["n", "e"] = "e"
    slice_resolution: int = 201
    contour_resolution: int = 64

    def __post_init__(self):
        if min(self.altitudes) <= 0:
            raise ValueError("altitudes: must be > 0")
        if self.extent <= 0:
            raise ValueError("extent: must be > 0")
        if self.resolution < 8:
            raise ValueError("resolution: must be >= 8")
        for name in ("slice_resolution", "contour_resolution"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name}: must be >= 2")


def altitude_tag(altitude: float) -> str:
    """An evaluation altitude as report file names spell it: 1.3 -> ``1p3``."""
    return f"{altitude:g}".replace(".", "p")


@dataclass
class RunConfig:
    seed: int
    output_dir: Path
    field_params: DownwashParams
    merge_params: MergeParams
    noise: NoiseParams
    sweep: SweepConfig
    datasets: list
    training: TrainConfig
    naive: NaiveSettings
    linear: LinearSettings
    deepset: DeepSetSettings
    evaluation: EvalSettings

    def dataset_spec(self, name: str, key: str) -> DatasetSpec:
        """The dataset named ``name``, which the config entry ``key`` names."""
        for spec in self.datasets:
            if spec.name == name:
                return spec
        raise ConfigError(f"{key}: no dataset named {name!r} is configured")


def _dataset(entry, path: str, sweep: SweepConfig) -> DatasetSpec:
    """One flat dataset entry: name, oracle, formation keys, sweep overrides."""
    section = _mapping(entry, path)
    spec = {key: section.pop(key) for key in ("name", "oracle") if key in section}
    formation = {key: section.pop(key) for key in ("kind", "k", "spacing") if key in section}
    return build(
        DatasetSpec,
        spec,
        path,
        {
            "formation": build(Formation, formation, path, {"spacing": sweep.spacing}),
            "sweep": build(SweepConfig, section, path, vars(sweep)),
        },
    )


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed YAML document into a RunConfig."""
    root = _mapping(doc, "config")
    sweep = build(SweepConfig, root.pop("sweep", None), "sweep")
    # cmd_gen derives each dataset's noise seed from the global one.
    noise = build(NoiseParams, root.pop("noise", None), "noise", skip=("seed",))

    datasets = []
    for i, entry in enumerate(_list(root.pop("datasets", []), "datasets")):
        spec = _dataset(entry, f"datasets[{i}]", sweep)
        if spec.name in [d.name for d in datasets]:
            raise ConfigError(f"datasets[{i}].name: duplicate dataset name {spec.name!r}")
        datasets.append(spec)

    models = _mapping(root.pop("models", None), "models")
    evaluation = _mapping(root.pop("eval", None), "eval")
    formations = _value(
        tuple[Formation, ...],
        evaluation.pop("formations", [{"kind": "leader_follower", "k": 3}]),
        "eval.formations",
        {"spacing": sweep.spacing},
    )

    cfg = RunConfig(
        seed=_value(int, root.pop("seed", 0), "seed"),
        output_dir=_value(Path, root.pop("output_dir", "runs/out"), "output_dir"),
        field_params=build(DownwashParams, root.pop("field", None), "field"),
        merge_params=build(MergeParams, root.pop("merge", None), "merge"),
        noise=noise,
        sweep=sweep,
        datasets=datasets,
        # cmd_train derives each model's seed from the global one.
        training=build(TrainConfig, root.pop("training", None), "training", skip=("seed",)),
        naive=build(NaiveSettings, models.pop("naive", None), "models.naive"),
        linear=build(LinearSettings, models.pop("linear", None), "models.linear"),
        deepset=build(DeepSetSettings, models.pop("deepset", None), "models.deepset"),
        evaluation=build(EvalSettings, evaluation, "eval", {"formations": formations}),
    )
    for section, path in ((models, "models"), (root, "config")):
        if section:
            raise ConfigError(f"{path}: unknown key(s) {sorted(section, key=str)}")
    for spec in datasets:
        if spec.name == cfg.naive.fit_on and spec.formation.k != 1:
            raise ConfigError(
                f"models.naive.fit_on: the grid baseline needs a k=1 dataset, {spec.name!r} has k={spec.formation.k}"
            )
    for key, tags in (
        ("formations", [formation.label() for formation in cfg.evaluation.formations]),
        ("altitudes", [altitude_tag(altitude) for altitude in cfg.evaluation.altitudes]),
    ):
        for i, tag in enumerate(tags):
            if tag in tags[:i]:
                raise ConfigError(f"eval.{key}[{i}]: report name {tag!r} repeats eval.{key}[{tags.index(tag)}]")
    return cfg


def apply_override(doc: dict, assignment: str) -> None:
    """Apply one ``section.key=value`` override; the value is parsed as YAML."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form section.key=value")
    dotted, raw = assignment.split("=", 1)
    keys = [k for k in dotted.strip().split(".") if k]
    if not keys:
        raise ConfigError(f"override {assignment!r} has an empty key path")
    try:
        value = yaml.load(raw, Loader=_LOADER)
    except _YAML_ERRORS as exc:
        raise ConfigError(f"override {assignment!r}: cannot parse value ({exc})")
    node = doc
    for key in keys[:-1]:
        nxt = node.get(key)
        if nxt is None:
            nxt = node[key] = {}
        if not isinstance(nxt, dict):
            raise ConfigError(f"override {assignment!r}: {key} is not a mapping")
        node = nxt
    node[keys[-1]] = value


def load_config(path, overrides=(), seed=None, output_dir=None) -> RunConfig:
    """Read, override and validate a YAML run configuration."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_LOADER)
    except _YAML_ERRORS as exc:
        raise ConfigError(f"{path}: {exc}")
    doc = _mapping(doc, "config")
    for assignment in overrides:
        apply_override(doc, assignment)
    if seed is not None:
        doc["seed"] = seed
    if output_dir is not None:
        doc["output_dir"] = str(output_dir)
    return parse_config(doc)
