"""The gateway's function database.

§III-C: "the gateway maintains a database of available functions per
supported language".  Users upload either a *registered* workload (by
name, from the built-in suite) or a custom callable; the store tracks
per-language availability, mirroring how each language's VM image
must carry the function file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GatewayError, NoSuchFunctionError
from repro.runtimes.registry import RUNTIME_NAMES
from repro.workloads.base import FaasWorkload
from repro.workloads.faas.registry import workload_by_name


@dataclass
class StoredFunction:
    """One uploaded function."""

    name: str
    workload: FaasWorkload
    languages: tuple[str, ...]
    uploads: int = 0

    def supports(self, language: str) -> bool:
        return language in self.languages


@dataclass
class FunctionStore:
    """Name → function mapping with per-language availability."""

    _functions: dict[str, StoredFunction] = field(default_factory=dict)

    def upload_builtin(self, workload_name: str,
                       languages: tuple[str, ...] | None = None) -> StoredFunction:
        """Upload a workload from the built-in suite."""
        workload = workload_by_name(workload_name)
        return self._store(workload, languages)

    def upload_custom(self, workload: FaasWorkload,
                      languages: tuple[str, ...] | None = None) -> StoredFunction:
        """Upload a user-supplied workload object."""
        return self._store(workload, languages)

    def _store(self, workload: FaasWorkload,
               languages: tuple[str, ...] | None) -> StoredFunction:
        langs = tuple(languages) if languages is not None else RUNTIME_NAMES
        unknown = set(langs) - set(RUNTIME_NAMES)
        if unknown:
            raise GatewayError(f"unsupported languages: {sorted(unknown)}")
        existing = self._functions.get(workload.name)
        if existing is not None:
            # a re-upload replaces the function and widens its languages
            existing.workload = workload
            existing.uploads += 1
            existing.languages = tuple(sorted(set(existing.languages) | set(langs)))
            return existing
        stored = StoredFunction(name=workload.name, workload=workload,
                                languages=langs, uploads=1)
        self._functions[workload.name] = stored
        return stored

    def get(self, name: str) -> StoredFunction:
        """Look up an uploaded function."""
        try:
            return self._functions[name]
        except KeyError:
            raise NoSuchFunctionError(
                f"function {name!r} was never uploaded "
                f"(have: {', '.join(sorted(self._functions)) or 'none'})"
            ) from None

    def require_language(self, name: str, language: str) -> StoredFunction:
        """Look up a function and check the language is available."""
        stored = self.get(name)
        if not stored.supports(language):
            raise GatewayError(
                f"function {name!r} is not available for {language!r} "
                f"(has: {', '.join(stored.languages)})"
            )
        return stored

    def names(self) -> list[str]:
        """All uploaded function names, sorted."""
        return sorted(self._functions)

    def __len__(self) -> int:
        return len(self._functions)
