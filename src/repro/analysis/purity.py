"""Trial-purity pass: no module-state mutation on the trial path.

``execute_trial`` must be a pure function of its spec — that is the
property that makes serial and parallel runs bit-identical and lets
results be cached by spec content hash (DESIGN.md "Run pipeline").
A function on that path that writes module-level state (a global
counter, a cache keyed on something spec-independent, a registry
mutated at call time) couples one trial's result to how many trials
ran before it, which exactly breaks the guarantee.

The pass walks the project call graph built by
:mod:`repro.analysis.dataflow`:

- entry points are ``execute_trial``/``build_body`` plus every
  function decorated with ``@body_factory(...)``;
- calls are resolved syntactically through import aliases (including
  package ``__init__`` re-exports) and same-module names;
- instantiating a project class marks all its methods reachable
  (coarse, no inheritance resolution), and so does calling a method
  through the class (``Cls.for_language(...)``: an alternate
  constructor instantiates it too);
- a nested ``def`` (the workload-body closures the factories return)
  is reachable whenever its enclosing function is.

Inside reachable functions it reports:

- ``purity/global-write`` (error) — a ``global`` declaration, which
  exists only to rebind module state;
- ``purity/module-state-mutation`` (error) — subscript/attribute
  assignment or a mutating method call (``append``/``update``/...)
  whose base is a module-level name rather than a local;
- ``purity/nonspec-global`` (warning) — reading a module-level
  *variable* (lowercase, rebindable) that isn't a function, class,
  import, or ALL_CAPS constant: state the spec doesn't determine;
- ``purity/memoized`` (warning) — an ``functools.lru_cache``/``cache``
  decorator on a reachable function: process-level memoization is
  only sound when the key fully determines the value, which the
  analyzer cannot prove — review and baseline, or restructure.

Intentional pure-function memo caches (e.g. the RSA keygen cache in
``repro.attest.crypto``, the FaaS op-stream recordings in
``repro.core.launcher``) carry ``# confbench: allow[purity]`` pragmas
with a justification; anything else is a bug.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Project, Rule, Severity
from repro.analysis.dataflow import (
    FunctionUnit,
    SymbolIndex,
    build_index,
    call_targets,
    decorator_names,
    scope_nodes,
)

#: Call-graph roots: the runner's trial function and body resolver.
DEFAULT_ENTRY_POINTS = (
    "repro.core.runner.execute_trial",
    "repro.core.runner.build_body",
)

#: Decorator names that mark a function as a call-graph root.
ENTRY_DECORATORS = frozenset({
    "body_factory",
    "repro.core.runner.body_factory",
})

#: Decorators that introduce process-level memoization.
MEMO_DECORATORS = frozenset({
    "functools.lru_cache", "functools.cache", "lru_cache", "cache",
})

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "appendleft", "popleft",
    "sort", "reverse", "write",
})


class TrialPurityRule(Rule):
    """Checks functions reachable from the trial pipeline for purity."""

    id = "purity"
    severity = Severity.ERROR

    def __init__(self, entry_points: tuple[str, ...] = DEFAULT_ENTRY_POINTS,
                 entry_decorators: frozenset[str] = ENTRY_DECORATORS) -> None:
        self.entry_points = tuple(entry_points)
        self.entry_decorators = frozenset(entry_decorators)

    def check_project(self, project: Project) -> Iterator[Finding]:
        index = build_index(project)
        reachable = self._reachable_units(index)
        for qualname in sorted(reachable):
            unit = index.functions.get(qualname)
            if unit is not None:
                yield from self._check_unit(unit, index)

    # -- reachability -------------------------------------------------

    def _entry_units(self, index: SymbolIndex) -> list[str]:
        entries = [e for e in self.entry_points if e in index.functions]
        for qualname, unit in index.functions.items():
            table = index.import_tables[unit.module.name]
            if decorator_names(unit.node, table) & self.entry_decorators:
                entries.append(qualname)
        return entries

    def _reachable_units(self, index: SymbolIndex) -> set[str]:
        seen: set[str] = set()
        todo = self._entry_units(index)
        while todo:
            qualname = todo.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            unit = index.functions.get(qualname)
            if unit is None:
                continue
            todo.extend(unit.nested)
            todo.extend(call_targets(unit, index))
        return seen

    # -- purity checks ------------------------------------------------

    def _check_unit(self, unit: FunctionUnit,
                    index: SymbolIndex) -> Iterator[Finding]:
        module = unit.module
        table = index.import_tables[module.name]
        globals_kinds = index.module_globals[module.name]
        local = unit.locals

        def is_module_state(name: str) -> bool:
            return name not in local and name in globals_kinds

        def finding(subrule: str, node: ast.AST, message: str,
                    severity: Severity = Severity.ERROR) -> Finding:
            return Finding(
                rule=f"purity/{subrule}", severity=severity,
                path=str(module.path), line=node.lineno,
                col=node.col_offset, message=message,
                symbol=unit.relname,
                module=module.name)

        if decorator_names(unit.node, table) & MEMO_DECORATORS:
            yield finding(
                "memoized", unit.node,
                "lru_cache on the trial path: process-level memoization "
                "is only sound if the key fully determines the value",
                severity=Severity.WARNING)

        for node in scope_nodes(unit.node):
            if isinstance(node, ast.Global):
                yield finding(
                    "global-write", node,
                    f"'global {', '.join(node.names)}' on the trial path: "
                    "rebinding module state makes the trial depend on "
                    "execution history")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    base = _subscript_or_attribute_base(target)
                    if base is None:
                        continue
                    if isinstance(base, ast.Name) and is_module_state(
                            base.id):
                        yield finding(
                            "module-state-mutation", node,
                            f"writes module-level '{base.id}' from the "
                            "trial path; results must be a pure function "
                            "of the spec")
                    else:
                        resolved = table.resolve(base) if not isinstance(
                            base, ast.Name) or base.id not in local else None
                        if resolved and resolved.startswith("repro."):
                            yield finding(
                                "module-state-mutation", node,
                                f"writes attribute of module "
                                f"'{resolved}' from the trial path")
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in MUTATING_METHODS
                        and isinstance(func.value, ast.Name)
                        and is_module_state(func.value.id)):
                    yield finding(
                        "module-state-mutation", node,
                        f"calls {func.value.id}.{func.attr}() on "
                        "module-level state from the trial path")
            elif (isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)
                  and is_module_state(node.id)
                  and globals_kinds.get(node.id) == "var"):
                yield finding(
                    "nonspec-global", node,
                    f"reads module-level variable '{node.id}', state the "
                    "trial spec does not determine",
                    severity=Severity.WARNING)


def _subscript_or_attribute_base(target: ast.expr) -> ast.expr | None:
    """Innermost base of a subscript/attribute store target, else None."""
    node = target
    seen_container = False
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        seen_container = True
        node = node.value
    if isinstance(target, ast.Name) or not seen_container:
        return None
    return node
