"""Scenario registry — the declarative catalogue of runnable experiments.

A *scenario* is a named, parameterised experiment whose result is a
plain JSON-serialisable mapping.  Drivers register themselves with the
:func:`register_scenario` decorator::

    @register_scenario("table1", summary="Table 1 detour availability")
    def scenario_table1(seed: int = 0) -> dict:
        ...

The registry is what the campaign runner, the CLI (``python -m repro
campaign list``) and the result store key off: a scenario's name plus a
concrete parameter assignment fully identifies a run.

Scenario functions must

- accept only keyword-able parameters with defaults (so every scenario
  is runnable with zero arguments),
- be deterministic given their parameters (seeds are explicit
  parameters, never ambient state), and
- return a JSON-serialisable mapping (``dict`` of str keys to scalars,
  lists or nested dicts).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

ScenarioFunc = Callable[..., Mapping[str, Any]]


@dataclass(frozen=True)
class Scenario:
    """A registered experiment: name, callable and parameter schema."""

    name: str
    func: ScenarioFunc
    summary: str
    tags: Tuple[str, ...] = ()
    #: Parameter name -> default value, from the function signature.
    defaults: Mapping[str, Any] = field(default_factory=dict)

    @property
    def params(self) -> Tuple[str, ...]:
        return tuple(self.defaults)

    def accepts(self, param: str) -> bool:
        return param in self.defaults

    def bind(self, **overrides: Any) -> Dict[str, Any]:
        """Full parameter assignment: defaults overlaid with *overrides*,
        an ``int`` override of a ``float`` default widened to ``float``."""
        unknown = sorted(set(overrides) - set(self.defaults))
        if unknown:
            raise ConfigurationError(
                f"scenario {self.name!r} does not accept parameter(s) "
                f"{', '.join(unknown)}; accepted: {', '.join(self.params)}"
            )
        bound = dict(self.defaults)
        for name, value in overrides.items():
            widen = type(value) is int and isinstance(bound[name], float)
            bound[name] = float(value) if widen else value
        return bound

    def run(self, **overrides: Any) -> Mapping[str, Any]:
        """Execute the scenario with defaults overlaid by *overrides*."""
        result = self.func(**self.bind(**overrides))
        if not isinstance(result, Mapping):
            raise ConfigurationError(
                f"scenario {self.name!r} returned {type(result).__name__}, "
                "expected a JSON-serialisable mapping"
            )
        return result


_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(
    name: str, summary: str = "", tags: Sequence[str] = ()
) -> Callable[[ScenarioFunc], ScenarioFunc]:
    """Decorator: add a scenario function to the global registry.

    Every parameter of the decorated function must have a default so
    the scenario is runnable as-is; grid axes override per run.
    Re-registering a name replaces the previous entry (so module
    reloads in tests stay idempotent).
    """

    def decorator(func: ScenarioFunc) -> ScenarioFunc:
        signature = inspect.signature(func)
        defaults: Dict[str, Any] = {}
        for param in signature.parameters.values():
            if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                raise ConfigurationError(
                    f"scenario {name!r}: *args/**kwargs parameters are not "
                    "supported"
                )
            if param.default is inspect.Parameter.empty:
                raise ConfigurationError(
                    f"scenario {name!r}: parameter {param.name!r} needs a "
                    "default value"
                )
            defaults[param.name] = param.default
        _REGISTRY[name] = Scenario(
            name=name,
            func=func,
            summary=summary or (inspect.getdoc(func) or "").split("\n")[0],
            tags=tuple(tags),
            defaults=defaults,
        )
        return func

    return decorator


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name (after builtin scenarios are loaded)."""
    load_builtin_scenarios()
    scenario = _REGISTRY.get(name)
    if scenario is None:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ConfigurationError(f"unknown scenario {name!r}; known: {known}")
    return scenario


def iter_scenarios(tags: Optional[Sequence[str]] = None) -> List[Scenario]:
    """All registered scenarios (optionally filtered by tag), by name."""
    load_builtin_scenarios()
    scenarios = sorted(_REGISTRY.values(), key=lambda s: s.name)
    if tags:
        wanted = set(tags)
        scenarios = [s for s in scenarios if wanted & set(s.tags)]
    return scenarios


def load_builtin_scenarios() -> None:
    """Import every module that registers built-in scenarios.

    Registration happens at import time via :func:`register_scenario`,
    so this is idempotent and cheap after the first call.  Worker
    processes call it before executing a run so the registry exists in
    every interpreter.
    """
    import repro.analysis.ablations  # noqa: F401
    import repro.analysis.fig3  # noqa: F401
    import repro.analysis.fig4  # noqa: F401
    import repro.analysis.table1  # noqa: F401
    import repro.campaign.sweeps  # noqa: F401
    import repro.validation.harness  # noqa: F401
