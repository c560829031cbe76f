"""Wall-clock spans around the program's public functions.

The benchmark never edits the program: it replaces a function, for the
length of one pass, with a wrapper that records a span (name, start,
end, parent) and calls the original.  :class:`Patcher` does the
replacing and restoring; :class:`Tracer` keeps the spans; :func:`fold`
turns them into per-name call counts and self times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Iterable, NamedTuple

perf_counter = time.perf_counter


class Target(NamedTuple):
    """One function of the program, addressed the way a reader names it."""

    layer: str       # package in the layer table ("workloads.dbms")
    module: str      # defining module ("repro.workloads.dbms.parser")
    qualname: str    # "parse" or "Executor.select"

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.qualname}"


class Patcher:
    """Replaces functions by wrappers and puts every original back.

    A method is replaced on its class.  A module-level function is
    replaced in every ``repro`` module whose globals hold it, because a
    caller that did ``from m import f`` resolves ``f`` in its own
    module, not in ``m``.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}   # id -> wrapper, kept alive

    def patch(self, patches: Iterable[tuple[Target, Callable]]) -> None:
        """Apply ``(target, make)`` pairs; ``make(original)`` builds the
        wrapper.  Every target module is imported first, so no module
        binds a wrapper by name behind the patcher's back."""
        patches = list(patches)
        for target, _ in patches:
            importlib.import_module(target.module)
        for target, make in patches:
            self._patch(target, make)

    def _patch(self, target: Target, make: Callable) -> None:
        module = sys.modules[target.module]
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            self._set(owner, attr, make(owner.__dict__[attr]))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        self._wrappers[id(value)] = value
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back, newest patch first, and check that
        no module still holds a wrapper."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        for mod in _repro_modules():
            for key, value in vars(mod).items():
                if id(value) in self._wrappers:
                    raise RuntimeError(
                        f"{mod.__name__}.{key} still holds a wrapper")
        self._wrappers.clear()


def _repro_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "repro" and mod is not None]


class Tracer:
    """Records one span per call of each wrapped function.

    Spans are kept in flat arrays (a cluster pass makes ~10^6 of them)
    and folded once the pass ends.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable,
             probe: Callable | None = None) -> Callable:
        """``fn`` recording a span named ``name``; ``probe(args, result)``
        sees every successful call."""
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        return traced

    def fold(self) -> dict[str, tuple[int, float]]:
        return fold((self.names[i] for i in self.name_ids),
                    self.parents, self.starts, self.ends)


def fold(names: Iterable[str], parents, starts, ends
         ) -> dict[str, tuple[int, float]]:
    """Per span name, ``(calls, self seconds)``.

    A span's self time is its duration minus the durations of its
    direct children.  Summing self times, not durations, is what keeps
    a re-entrant function (a select nested in a select) from being
    counted twice.  Spans are columns: span ``i`` has parent index
    ``parents[i]`` (-1 for a root), and every parent precedes its
    children.
    """
    durations = [end - start for start, end in zip(starts, ends)]
    self_times = list(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            self_times[parent] -= durations[index]
    totals: dict[str, tuple[int, float]] = {}
    for name, own in zip(names, self_times):
        calls, total = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, total + own)
    return totals
