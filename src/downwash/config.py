"""Run configuration: one YAML file, strictly validated, plus dotted overrides.

The schema is the dataclass fields.  Each YAML section is built by
:func:`build` from the fields and annotations of one dataclass, defined
beside the code it sizes (the model settings in :mod:`downwash.models`,
``EvalSettings`` in :mod:`downwash.evaluate`); only ``DatasetSpec`` and
``RunConfig`` are defined here.  Keys are the field names, defaults are the
field defaults, and range checks live in each class's ``__post_init__``.
Unknown keys are rejected with the offending path in the message so typos
cannot silently change an experiment.  :func:`downwash.evaluate.write_report`
names the report files from ``Formation.label()`` and
:func:`downwash.evaluate.altitude_tag`, so no two ``eval.formations`` may
share a label and no two ``eval.altitudes`` a tag.  All randomness
derives from the one global seed through named substreams (dataset:<name>,
init:<model>, train:<model>).

YAML text, from the file or an override value, may nest at most
:data:`MAX_DEPTH` collections (the shipped configs nest 4).  libyaml builds
nested collections by recursion in C, so about 25 000 levels overflow an 8 MB
stack and end the process; the depth is counted on the parser's events, which
libyaml makes without recursing, before anything is built.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import os
import reprlib
import sys
import typing
from dataclasses import MISSING, dataclass
from pathlib import Path
from typing import Literal

import yaml

from .evaluate import EvalSettings, altitude_tag
from .field import DownwashParams, MergeParams, NoiseParams, Oracle
from .formations import Formation, SweepConfig
from .models import DeepSetSettings, LinearSettings, NaiveSettings, evenly_spaced
from .training import TrainConfig


# libyaml's parser where PyYAML was built with it; both give the same
# documents, the C one about eight times faster.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# The deepest collection nesting config text may have; see the module docstring.
MAX_DEPTH = 100


# The repr a message quotes a config value with: lists and mappings are cut
# off a few levels down, so a value nested thousands deep still makes a
# short message instead of a RecursionError.
_brief = reprlib.Repr()
_brief.maxstring = _brief.maxother = 80


class ConfigError(Exception):
    """Invalid or unparseable run configuration."""


def _load_yaml(text: str, where: str):
    """The YAML document in ``text``, or a ConfigError at ``where``: for text
    that does not parse, nests more than :data:`MAX_DEPTH` collections, or
    holds a scalar PyYAML cannot build (``2021-13-45``, ``!!int x``)."""
    try:
        depth = 0
        for event in yaml.parse(text, Loader=_LOADER):
            depth += isinstance(event, yaml.CollectionStartEvent) - isinstance(event, yaml.CollectionEndEvent)
            if depth > MAX_DEPTH:
                raise yaml.YAMLError(f"collections nested more than {MAX_DEPTH} deep")
        return yaml.load(text, Loader=_LOADER)
    # Besides YAMLError: the constructors raise ValueError, IndexError, ... on
    # malformed scalars, and the C parser raises UnicodeError on text it cannot
    # encode (a lone surrogate from a non-UTF-8 command line).
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _mapping(obj, path: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(obj).__name__}")
    return dict(obj)


def _list(obj, path: str) -> list:
    if not isinstance(obj, (list, tuple)):
        raise ConfigError(f"{path}: expected a list, got {_brief.repr(obj)}")
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
            raise ConfigError(f"{path}: expected one of {list(choices)}, got {_brief.repr(value)}")
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
        raise ConfigError(f"{path}: expected {tp.__name__}, got {_brief.repr(value)}{_float_hint(tp, value)}")
    return value


def _float_hint(tp, value) -> str:
    """For a float field given text that ``float()`` reads as a finite number,
    the spelling YAML 1.1 reads as that float: a point in the mantissa and a
    signed exponent (PyYAML reads ``1e-3`` as text, ``1.0e-3`` as a float)."""
    if tp is not float or not isinstance(value, str):
        return ""
    try:
        number = float(value)
    except ValueError:
        return ""
    mantissa, e, exponent = value.strip().lower().partition("e")
    spelt = (mantissa if "." in mantissa else mantissa + ".0") + e
    spelt += exponent if not e or exponent[:1] in ("+", "-") else "+" + exponent
    if abs(number) <= sys.float_info.max and yaml.load(spelt, Loader=_LOADER) == number:
        return f" (YAML 1.1 reads it as text; write {spelt})"
    return ""


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

    def __post_init__(self):
        # the name is the basename of the dataset's files under <output_dir>/datasets
        if not self.name or any(sep in self.name for sep in ("/", os.sep, os.altsep) if sep):
            raise ValueError(f"name: {self.name!r} is not a file name; it must be non-empty and hold no path separator")


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
        if spec.name == cfg.naive.fit_on and not evenly_spaced(spec.sweep.altitudes):
            raise ConfigError(
                "models.naive.fit_on: the grid baseline needs evenly spaced altitudes,"
                f" {spec.name!r} has {list(spec.sweep.altitudes)}"
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
    name = f"override {_brief.repr(assignment)}"
    if "=" not in assignment:
        raise ConfigError(f"{name} is not of the form section.key=value")
    dotted, raw = assignment.split("=", 1)
    keys = [k for k in dotted.strip().split(".") if k]
    if not keys:
        raise ConfigError(f"{name} has an empty key path")
    value = _load_yaml(raw, f"{name}: cannot parse value")
    node = doc
    for key in keys[:-1]:
        nxt = node.get(key)
        if nxt is None:
            nxt = node[key] = {}
        if not isinstance(nxt, dict):
            raise ConfigError(f"{name}: {key} is not a mapping")
        node = nxt
    node[keys[-1]] = value


def load_config(path, overrides=(), seed=None, output_dir=None) -> RunConfig:
    """Read, override and validate a YAML run configuration."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeError as exc:  # not UTF-8
        raise ConfigError(f"{path}: {exc}")
    doc = _mapping(_load_yaml(text, str(path)), "config")
    for assignment in overrides:
        apply_override(doc, assignment)
    if seed is not None:
        doc["seed"] = seed
    if output_dir is not None:
        doc["output_dir"] = str(output_dir)
    return parse_config(doc)
