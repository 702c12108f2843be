"""Pluggable-component registries: paradigms, contracts, workload generators.

The experiment layer resolves every extensible component by name through a
:class:`Registry` instead of hardcoded dicts, so third-party paradigms,
contracts and workload generators plug in without editing core modules::

    from repro.common.registry import register_paradigm

    @register_paradigm("MYPARADIGM")
    class MyDeployment(Deployment):
        ...

    run --spec '{"scenarios": [{"name": "mine", "paradigm": "MYPARADIGM"}]}'

Three module-level registries back the decorators:

* :data:`paradigm_registry` — deployment classes, keyed case-insensitively
  with upper-case canonical names ("OX", "XOV", "OXII", ...).
* :data:`contract_registry` — smart-contract classes taking an application id
  ("accounting", "kvstore", "supply_chain", ...).
* :data:`workload_registry` — workload-generator factories taking a
  ``WorkloadConfig`` ("accounting", ...).

Built-ins self-register at import time (importing :mod:`repro.paradigms`,
:mod:`repro.contracts` or :mod:`repro.workload` populates the corresponding
registry); :func:`ensure_builtins` forces all three imports.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterator, List, Optional, TypeVar

from repro.common.errors import ConfigurationError

T = TypeVar("T")


class Registry(Generic[T]):
    """A named catalogue of pluggable components.

    Names are normalised (paradigms upper-case, everything else lower-case) so
    lookups are case-insensitive.  Registering a *different* object under an
    existing name raises unless ``replace=True``; re-registering the same
    object is a no-op, which keeps module reloads harmless.
    """

    def __init__(self, kind: str, normalise: Callable[[str], str] = str.lower) -> None:
        self.kind = kind
        self._normalise = normalise
        self._entries: Dict[str, T] = {}

    # ----------------------------------------------------------- registration
    def register(self, name: str, obj: Optional[T] = None, *, replace: bool = False):
        """Register ``obj`` under ``name``; usable directly or as a decorator."""
        if not name or not isinstance(name, str):
            raise ConfigurationError(f"{self.kind} name must be a non-empty string, got {name!r}")
        key = self._normalise(name)

        def _add(value: T) -> T:
            existing = self._entries.get(key)
            if existing is not None and existing is not value and not replace:
                raise ConfigurationError(
                    f"{self.kind} {key!r} is already registered; pass replace=True to override"
                )
            self._entries[key] = value
            return value

        if obj is None:
            return _add
        return _add(obj)

    def unregister(self, name: str) -> None:
        """Remove ``name`` from the registry (no-op if absent)."""
        self._entries.pop(self._normalise(name), None)

    # ---------------------------------------------------------------- queries
    def get(self, name: str) -> T:
        """The component registered under ``name`` (case-insensitive)."""
        key = self._normalise(name) if isinstance(name, str) else name
        try:
            return self._entries[key]
        except (KeyError, TypeError):
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; expected one of {self.names()}"
            ) from None

    def names(self) -> List[str]:
        """Registered names, sorted."""
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self._normalise(name) in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)


#: Deployment classes by paradigm name ("OX", "XOV", "OXII", ...).
paradigm_registry: Registry = Registry("paradigm", normalise=str.upper)
#: Smart-contract classes by name ("accounting", "kvstore", "supply_chain", ...).
contract_registry: Registry = Registry("contract")
#: Workload-generator factories by name ("accounting", ...).
workload_registry: Registry = Registry("workload")


def register_paradigm(name: str, cls=None, *, replace: bool = False):
    """Class decorator registering a :class:`Deployment` under ``name``."""
    return paradigm_registry.register(name, cls, replace=replace)


def register_contract(name: str, cls=None, *, replace: bool = False):
    """Class decorator registering a :class:`SmartContract` under ``name``."""
    return contract_registry.register(name, cls, replace=replace)


def register_workload(name: str, factory=None, *, replace: bool = False):
    """Decorator registering a workload-generator factory under ``name``."""
    return workload_registry.register(name, factory, replace=replace)


def ensure_builtins() -> None:
    """Import the built-in paradigms, contracts and workloads so they register."""
    import repro.agents  # noqa: F401
    import repro.contracts  # noqa: F401
    import repro.paradigms  # noqa: F401
    import repro.workload  # noqa: F401
