"""String-keyed factory registries.

Eviction policies, minibatch pipelines, engines and scenarios are all selected
by name — from :class:`~repro.core.config.PrefetchConfig` fields, CLI flags,
and benchmark tables.  :class:`Registry` is the one mechanism behind those
lookups: factories register under a canonical name (plus optional aliases) and
are built with ``registry.build(name, **kwargs)``.  Unknown names raise a
``ValueError`` that lists every valid choice, so a typo in a config or CLI
flag is immediately diagnosable.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence


class Registry:
    """A case-insensitive name -> factory mapping with aliases.

    Parameters
    ----------
    kind:
        Human-readable description of what is registered (``"eviction
        policy"``, ``"pipeline"``, ...); used in error messages.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._factories: Dict[str, Callable[..., Any]] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        aliases: Sequence[str] = (),
    ):
        """Register *factory* under *name* (decorator form when factory is omitted)."""

        def _register(fn: Callable[..., Any]) -> Callable[..., Any]:
            key = self._normalize(name)
            if key in self._factories or key in self._aliases:
                raise ValueError(f"{self.kind} {name!r} is already registered")
            self._factories[key] = fn
            for alias in aliases:
                alias_key = self._normalize(alias)
                if alias_key in self._factories or alias_key in self._aliases:
                    raise ValueError(f"{self.kind} alias {alias!r} is already registered")
                self._aliases[alias_key] = key
            return fn

        if factory is not None:
            return _register(factory)
        return _register

    # ------------------------------------------------------------------ #
    def resolve(self, name: str) -> str:
        """Canonical name for *name* (follows aliases); ValueError when unknown."""
        key = self._normalize(name)
        key = self._aliases.get(key, key)
        if key not in self._factories:
            valid = ", ".join(sorted(self._factories))
            raise ValueError(f"unknown {self.kind} {name!r}; valid names: {valid}")
        return key

    def get(self, name: str) -> Callable[..., Any]:
        """The factory registered under *name* (or one of its aliases)."""
        return self._factories[self.resolve(name)]

    def build(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the factory registered under *name*."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> List[str]:
        """Sorted canonical names (aliases excluded)."""
        return sorted(self._factories)

    # ------------------------------------------------------------------ #
    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        key = self._normalize(name)
        return key in self._factories or key in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)

    @staticmethod
    def _normalize(name: str) -> str:
        if not isinstance(name, str) or not name:
            raise ValueError("registry names must be non-empty strings")
        return name.strip().lower()
