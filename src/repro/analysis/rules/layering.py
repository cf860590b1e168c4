"""R006 — everything under ``matching/`` stays engine-free.

PR 5 collapsed all dict-vs-CSR dispatch into ``storage/adapter.py``; the
evaluators (`evaluate_rq`, the general-regex product, join/split match, the
simulation loops, the incremental maintainer) and the ``PathMatcher`` seam
operate through the adapter protocol and must never branch on which engine
is underneath — an ``engine == "csr"`` branch in an evaluator is a layering
regression that differential tests only catch when the branch also changes
answers.  Engine names are compared in ``storage/adapter.py`` and under
``session/`` only; validating a request against ``ENGINES`` or
``DEFAULT_ENGINE`` *by name* compares no literal and stays legal.

The rule covers every module under ``matching/`` except the engine itself
(:data:`ENGINE_MODULES`).  It supersedes the PR 5 grep gate (``"engine =="``
substring search); beyond the literal comparison it also catches what a
substring grep misses:

* reversed comparisons (``"csr" == engine``);
* membership tests against a tuple, list or set literal that holds a string
  constant (``engine in ("auto", "csr")``, ``engine not in ["dict"]``);
* ``getattr(matcher, "csr_engine")`` / ``hasattr(...)`` string dispatch;
* direct ``.csr_engine`` attribute reaches.

``paths.py`` is the adapter-facing seam: its ``PathMatcher`` legitimately
*owns* a ``_csr_engine`` accessor, so attribute checks skip names defined
by the module itself.

Nor do these modules translate between node ids and dense indices: an
evaluator carries the *handles* its matcher's scans gave it and asks the
matcher for ids once, where the result is built.  A reach for a compiled
graph's :data:`TRANSLATIONS` (``.node_index(``, ``.ids[``, ``.indices_of(`` ...)
under ``matching/`` outside :data:`TRANSLATING_MODULES` is a finding.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.core import ModuleInfo, Rule
from repro.analysis.findings import Finding

#: The modules under ``matching/`` that *are* an engine, and so the only
#: ones there the rule leaves alone.
ENGINE_MODULES = ("csr_engine.py",)

#: The engine lives in index space; handles become ids at the seam and in its answer views.
TRANSLATING_MODULES = ENGINE_MODULES + ("paths.py", "result.py")
#: ``CompiledGraph``'s id <-> index surface.
TRANSLATIONS = frozenset({"node_index", "node_id", "ids", "ids_of", "indices_of", "positions_of"})


def _identifier(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_engine_identifier(name: str) -> bool:
    return "engine" in name.lower()


def _holds_string(node: ast.AST) -> bool:
    """A string constant, or a tuple/list/set literal holding one (the
    right-hand side of ``engine in ("auto", "csr")``)."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_holds_string(element) for element in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _locally_defined_names(module: ModuleInfo) -> frozenset:
    names = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return frozenset(names)


class EngineFreeFixpointRule(Rule):
    code = "R006"
    name = "engine-free-fixpoint"
    summary = "matching modules must not branch on the evaluation engine or translate node handles"

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        filename = module.relpath.rsplit("/", 1)[-1]
        if filename in ENGINE_MODULES or not module.in_part("matching"):
            return ()
        findings: List[Finding] = []
        local_names = _locally_defined_names(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                engine_side = any(_is_engine_identifier(_identifier(side)) for side in sides)
                if engine_side and any(_holds_string(side) for side in sides):
                    findings.append(
                        module.finding(
                            node,
                            self.code,
                            "engine-string comparison under matching/; "
                            "dict-vs-CSR dispatch belongs to storage/adapter.py",
                        )
                    )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("getattr", "hasattr") and any(
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and _is_engine_identifier(arg.value)
                    for arg in node.args
                ):
                    findings.append(
                        module.finding(
                            node,
                            self.code,
                            f"{node.func.id}() engine-name indirection under "
                            f"matching/; dispatch through the adapter instead",
                        )
                    )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if node.attr in TRANSLATIONS and filename not in TRANSLATING_MODULES:
                    message = f".{node.attr} under matching/ translates node handles; ask the matcher, once"
                    findings.append(module.finding(node, self.code, message))
                elif "csr_engine" in node.attr and node.attr not in local_names:
                    findings.append(
                        module.finding(
                            node,
                            self.code,
                            f"direct .{node.attr} reach under matching/; "
                            f"only storage/adapter.py may touch the CSR engine",
                        )
                    )
        return findings
