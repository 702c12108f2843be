"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes the whole evaluation grid of the paper —
and any scenario beyond it — as data: a list of :class:`ScenarioSpec` entries
(paradigm, workload generator, contention, config overrides, load sweep) plus
run-level knobs (duration, seeds, repeats).  Specs load from Python dicts and
from JSON/TOML files, serialise back to dicts, and expand deterministically
into a flat matrix of :class:`ExperimentPoint` rows for the sweep engine.

The dict form is schema-versioned (``schema_version``) so stored spec files
stay loadable as the format evolves.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.common.config import reject_unknown_fields
from repro.common.errors import ConfigurationError
from repro.workload.generator import ConflictScope

#: Version of the spec dict/file format produced and accepted by this module.
SPEC_SCHEMA_VERSION = 1

def repeat_seed(base_seed: int, repeat: int) -> int:
    """The effective workload seed of repeat ``repeat`` of base seed ``base_seed``.

    Repeat 0 runs with the base seed itself (so single-repeat specs match the
    legacy one-seed behaviour); later repeats derive a decorrelated seed by
    hashing (base_seed, repeat), which, unlike a linear stride, cannot collide
    with another configured base seed's repeats.
    """
    if repeat == 0:
        return base_seed
    digest = hashlib.sha256(f"{base_seed}:{repeat}".encode("utf-8")).hexdigest()
    return int(digest[:12], 16)


def _jsonify(value: Any) -> Any:
    """Spec values as JSON-serialisable primitives (tuples→lists, enums→values)."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


def config_overrides(config: Any, default: Any = None) -> Dict[str, Any]:
    """Express a config dataclass as the override dict that recreates it.

    Returns the (nested) fields of ``config`` that differ from ``default``
    (a freshly constructed instance of the same type when omitted) — the
    inverse of ``with_overrides``, used to turn an explicit ``SystemConfig``
    into the ``system`` section of a scenario spec.
    """
    if not dataclasses.is_dataclass(config):
        raise ConfigurationError(f"{type(config).__name__} is not a config dataclass")
    default = default if default is not None else type(config)()
    overrides: Dict[str, Any] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        base = getattr(default, f.name)
        if value == base:
            continue
        if dataclasses.is_dataclass(value) and dataclasses.is_dataclass(base):
            overrides[f.name] = config_overrides(value, base)
        else:
            overrides[f.name] = _jsonify(value)
    return overrides


def _coerce_loads(value: Any, where: str) -> Tuple[float, ...]:
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{where}: loads must be a list of positive numbers")
    loads = tuple(float(v) for v in value)
    if any(v <= 0 for v in loads):
        raise ConfigurationError(f"{where}: offered loads must be positive")
    return loads


#: Workload keys owned by the scenario/experiment level rather than the
#: ``workload`` overrides dict, so one value can't be specified twice.
_RESERVED_WORKLOAD_KEYS = ("contention", "conflict_scope", "seed")


@dataclass(frozen=True)
class ScenarioSpec:
    """One named cell of the evaluation grid.

    ``system`` and ``workload`` are override dicts applied on top of the
    default :class:`~repro.common.config.SystemConfig` /
    :class:`~repro.workload.generator.WorkloadConfig` (nested dicts allowed,
    e.g. ``{"block_cut": {"max_transactions": 100}}``).  ``contention``,
    ``conflict_scope`` and the per-point seed are first-class fields and must
    not appear again inside ``workload``.
    """

    name: str
    paradigm: str = "OXII"
    generator: str = "accounting"
    contention: float = 0.0
    conflict_scope: str = ConflictScope.WITHIN_APPLICATION.value
    #: Offered-load sweep for this scenario; empty → the experiment default.
    loads: Tuple[float, ...] = ()
    system: Mapping[str, Any] = field(default_factory=dict)
    workload: Mapping[str, Any] = field(default_factory=dict)
    #: Fault schedule for adversarial scenarios: ``{"events": [...]}`` for an
    #: explicit :class:`repro.testing.FaultSchedule` dict, or ``{"random":
    #: {"events": N, ...}}`` for one generated deterministically from each
    #: point's seed.  Empty — fault-free (the performance default).
    faults: Mapping[str, Any] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError("scenario name must be a non-empty string")
        if not self.paradigm:
            raise ConfigurationError(f"scenario {self.name!r}: paradigm must be non-empty")
        object.__setattr__(self, "contention", float(self.contention))
        if not 0.0 <= self.contention <= 1.0:
            raise ConfigurationError(f"scenario {self.name!r}: contention must be in [0, 1]")
        try:
            ConflictScope(self.conflict_scope)
        except ValueError:
            raise ConfigurationError(
                f"scenario {self.name!r}: unknown conflict_scope {self.conflict_scope!r}; "
                f"expected one of {[s.value for s in ConflictScope]}"
            ) from None
        object.__setattr__(self, "loads", _coerce_loads(self.loads, f"scenario {self.name!r}"))
        object.__setattr__(self, "tags", tuple(self.tags))
        for section, mapping in (
            ("system", self.system),
            ("workload", self.workload),
            ("faults", self.faults),
        ):
            if not isinstance(mapping, Mapping):
                raise ConfigurationError(
                    f"scenario {self.name!r}: {section} must be a mapping of overrides"
                )
        if self.faults and not ({"events", "random"} & set(self.faults)):
            raise ConfigurationError(
                f"scenario {self.name!r}: faults must carry 'events' or 'random'"
            )
        reserved = [k for k in _RESERVED_WORKLOAD_KEYS if k in self.workload]
        if reserved:
            raise ConfigurationError(
                f"scenario {self.name!r}: {reserved} are scenario/experiment-level fields; "
                "set them outside the workload overrides"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON/TOML-ready) form of the scenario."""
        return {
            "name": self.name,
            "paradigm": self.paradigm,
            "generator": self.generator,
            "contention": self.contention,
            "conflict_scope": self.conflict_scope,
            "loads": list(self.loads),
            "system": _jsonify(dict(self.system)),
            "workload": _jsonify(dict(self.workload)),
            "faults": _jsonify(dict(self.faults)),
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a scenario from its dict form, rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"scenario must be a mapping, got {type(data).__name__}")
        reject_unknown_fields("scenario", data, {f.name for f in dataclasses.fields(cls)})
        kwargs = dict(data)
        if isinstance(kwargs.get("conflict_scope"), ConflictScope):
            kwargs["conflict_scope"] = kwargs["conflict_scope"].value
        return cls(**kwargs)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, schema-versioned experiment: scenarios × loads × seeds × repeats."""

    name: str
    scenarios: Tuple[ScenarioSpec, ...]
    schema_version: int = SPEC_SCHEMA_VERSION
    description: str = ""
    #: Default offered-load sweep for scenarios that don't set their own.
    loads: Tuple[float, ...] = (1000.0,)
    duration: float = 2.0
    drain: float = 3.0
    warmup_fraction: float = 0.2
    seeds: Tuple[int, ...] = (7,)
    repeats: int = 1
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError("experiment name must be a non-empty string")
        if self.schema_version > SPEC_SCHEMA_VERSION or self.schema_version < 1:
            raise ConfigurationError(
                f"unsupported spec schema_version {self.schema_version}; "
                f"this build reads versions 1..{SPEC_SCHEMA_VERSION}"
            )
        scenarios = tuple(
            s if isinstance(s, ScenarioSpec) else ScenarioSpec.from_dict(s) for s in self.scenarios
        )
        if not scenarios:
            raise ConfigurationError(f"experiment {self.name!r} needs at least one scenario")
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(f"duplicate scenario name(s) {duplicates}")
        object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "loads", _coerce_loads(self.loads, f"experiment {self.name!r}"))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "tags", tuple(self.tags))
        if not self.seeds:
            raise ConfigurationError(f"experiment {self.name!r} needs at least one seed")
        if not float(self.repeats).is_integer():
            raise ConfigurationError(f"repeats must be an integer, got {self.repeats!r}")
        object.__setattr__(self, "repeats", int(self.repeats))
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        # Coerce to float so TOML `duration = 2` and JSON `2.0` are the same
        # spec with the same content hash.
        for numeric in ("duration", "drain", "warmup_fraction"):
            object.__setattr__(self, numeric, float(getattr(self, numeric)))
        if self.duration <= 0 or self.drain < 0:
            raise ConfigurationError("duration must be positive and drain >= 0")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError("warmup_fraction must be in [0, 1)")
        for scenario in scenarios:
            if not scenario.loads and not self.loads:
                raise ConfigurationError(
                    f"scenario {scenario.name!r} has no loads and the experiment sets no default"
                )

    # -------------------------------------------------------------- serialise
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON/TOML-ready) form of the whole experiment."""
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "description": self.description,
            "loads": list(self.loads),
            "duration": self.duration,
            "drain": self.drain,
            "warmup_fraction": self.warmup_fraction,
            "seeds": list(self.seeds),
            "repeats": self.repeats,
            "tags": list(self.tags),
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build an experiment from its dict form, rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"experiment spec must be a mapping, got {type(data).__name__}")
        reject_unknown_fields("experiment", data, {f.name for f in dataclasses.fields(cls)})
        kwargs = dict(data)
        kwargs["scenarios"] = tuple(
            s if isinstance(s, ScenarioSpec) else ScenarioSpec.from_dict(s)
            for s in kwargs.get("scenarios", ())
        )
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".json":
            data = json.loads(path.read_text(encoding="utf-8"))
        elif suffix == ".toml":
            try:
                import tomllib
            except ImportError:  # Python 3.10: stdlib tomllib arrived in 3.11
                try:
                    import tomli as tomllib
                except ImportError:
                    raise ConfigurationError(
                        f"reading {path} needs TOML support: Python 3.11+ (tomllib) or "
                        "the tomli package; alternatively convert the spec to JSON"
                    ) from None
            data = tomllib.loads(path.read_text(encoding="utf-8"))
        else:
            raise ConfigurationError(
                f"unsupported spec file type {suffix!r} for {path}; expected .json or .toml"
            )
        return cls.from_dict(data)

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        """Serialise the spec to JSON; optionally also write it to ``path``."""
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(payload + "\n", encoding="utf-8")
        return payload

    def spec_hash(self) -> str:
        """Stable content hash of the spec (provenance stamp on every result)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # ----------------------------------------------------------------- expand
    def scenario(self, name: str) -> ScenarioSpec:
        """The scenario named ``name``."""
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise ConfigurationError(
            f"unknown scenario {name!r}; expected one of {[s.name for s in self.scenarios]}"
        )

    def expand(self) -> List["ExperimentPoint"]:
        """The deterministic scenario × seed × repeat × load point matrix."""
        points: List[ExperimentPoint] = []
        for scenario in self.scenarios:
            loads = scenario.loads or self.loads
            for seed in self.seeds:
                for repeat in range(self.repeats):
                    point_seed = repeat_seed(seed, repeat)
                    for load in loads:
                        workload = dict(scenario.workload)
                        workload["contention"] = scenario.contention
                        workload["conflict_scope"] = scenario.conflict_scope
                        workload["seed"] = point_seed
                        points.append(
                            ExperimentPoint(
                                index=len(points),
                                experiment=self.name,
                                scenario=scenario.name,
                                paradigm=scenario.paradigm,
                                generator=scenario.generator,
                                offered_load=load,
                                seed=point_seed,
                                base_seed=seed,
                                repeat=repeat,
                                duration=self.duration,
                                drain=self.drain,
                                warmup_fraction=self.warmup_fraction,
                                system=dict(scenario.system),
                                workload=workload,
                                faults=dict(scenario.faults),
                                tags=self.tags + scenario.tags,
                            )
                        )
        return points


@dataclass(frozen=True)
class ExperimentPoint:
    """One fully-resolved measurement: everything a worker needs, picklable."""

    index: int
    experiment: str
    scenario: str
    paradigm: str
    generator: str
    offered_load: float
    #: Effective workload seed of this point (base seed decorrelated by repeat).
    seed: int
    base_seed: int
    repeat: int
    duration: float
    drain: float
    warmup_fraction: float
    system: Mapping[str, Any]
    workload: Mapping[str, Any]
    faults: Mapping[str, Any] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (used by ``bench matrix`` and result rows)."""
        return {
            "index": self.index,
            "experiment": self.experiment,
            "scenario": self.scenario,
            "paradigm": self.paradigm,
            "generator": self.generator,
            "offered_load": self.offered_load,
            "seed": self.seed,
            "base_seed": self.base_seed,
            "repeat": self.repeat,
            "duration": self.duration,
            "drain": self.drain,
            "warmup_fraction": self.warmup_fraction,
            "system": _jsonify(dict(self.system)),
            "workload": _jsonify(dict(self.workload)),
            "faults": _jsonify(dict(self.faults)),
            "tags": list(self.tags),
        }


def single_point_spec(
    name: str,
    paradigm: str,
    offered_load: float,
    contention: float = 0.0,
    conflict_scope: str = ConflictScope.WITHIN_APPLICATION.value,
    system: Optional[Mapping[str, Any]] = None,
    workload: Optional[Mapping[str, Any]] = None,
    duration: float = 2.0,
    drain: float = 20.0,
    warmup_fraction: float = 0.2,
    seed: int = 7,
    generator: str = "accounting",
    tags: Sequence[str] = (),
) -> ExperimentSpec:
    """Convenience: a one-scenario, one-load spec (the ``execute_run`` shape).

    Defaults (duration 2.0, drain 20.0, warmup 0.2) mirror ``execute_run``'s,
    so a spec and a direct call reproduce identical numbers without extra
    arguments.
    """
    scenario = ScenarioSpec(
        name=name,
        paradigm=paradigm,
        generator=generator,
        contention=contention,
        conflict_scope=conflict_scope,
        loads=(offered_load,),
        system=dict(system or {}),
        workload=dict(workload or {}),
        tags=tuple(tags),
    )
    return ExperimentSpec(
        name=name,
        scenarios=(scenario,),
        loads=(offered_load,),
        duration=duration,
        drain=drain,
        warmup_fraction=warmup_fraction,
        seeds=(seed,),
    )
