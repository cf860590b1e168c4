"""R004 — memo/cache attributes must be validated against version counters.

PR 2's stale-cache bug is the archetype: ``PathMatcher`` kept BFS memos
across graph mutations with nothing comparing them to the graph's version
counters, so a reused matcher served pre-mutation frontiers.  The repair
convention ever since is that every memo is either *tagged* (entries carry
the version they were computed at, compared on lookup — see
``storage/adapter.py``), *keyed* (the version pair is part of the cache
key — see the semantic cache), or *bound*: it belongs to an object built
over one immutable snapshot, whose owner replaces the object — memos and all
— when the snapshot it holds is a different one (until v2.27.0 the
``CsrEngine``'s memo over a ``CompiledGraph``, replaced by
``OverlayCsrAdapter.engine_handle``).

The rule approximates that contract structurally: for every attribute
``self.X`` with a memo-ish name (``*_memo`` / ``*_cache`` / ``*_memos`` /
``*_caches``) assigned in a class under ``graph/``, ``storage/``,
``matching/`` or ``session/``, *some* function in the scanned project must
reference ``X`` while also touching a version-ish identifier in the same body
— or compare a snapshot by identity (``holder.snapshot is not current``) and
construct the memo's class around the compared name in the same body.  The
validating function is usually in another module (the adapter validates the
matcher's caches and rebuilds the engine), which is why this is a
project-wide pass rather than per-file.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.core import (
    ModuleInfo,
    ProjectInfo,
    Rule,
    dotted_name,
    mentions_version,
    walk_function_body,
)
from repro.analysis.findings import Finding

MEMO_SUFFIXES = ("_memo", "_memos", "_cache", "_caches")


def _is_memo_name(attr: str) -> bool:
    return attr.endswith(MEMO_SUFFIXES)


def _declared_memos(module: ModuleInfo) -> List[Tuple[str, str, ast.AST]]:
    """``(class name, attribute, node)`` for every memo-ish self-assignment."""
    declared: List[Tuple[str, str, ast.AST]] = []
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for func in cls.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in walk_function_body(func):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and _is_memo_name(target.attr)
                    ):
                        declared.append((cls.name, target.attr, node))
    return declared


def _validated_attributes(project: ProjectInfo) -> Set[str]:
    """Memo attribute names referenced in some version-aware function."""
    validated: Set[str] = set()
    for module in project.modules:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            touched = {
                node.attr
                for node in walk_function_body(func)
                if isinstance(node, ast.Attribute) and _is_memo_name(node.attr)
            }
            if touched and mentions_version(func):
                validated.update(touched)
    return validated


def _identity_rebuilt_classes(project: ProjectInfo) -> Set[str]:
    """Names constructed around a value the same function compared by identity.

    ``if engine is None or engine.compiled is not base: engine = Engine(base)``
    is the *bound* convention's validation: the holder is reused only while
    the snapshot it was built over is the current one.  Comparisons with
    ``None`` are existence checks, not validations, and do not count.
    """
    rebuilt: Set[str] = set()
    for module in project.modules:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            compared: Set[str] = set()
            calls: List[ast.Call] = []
            for node in walk_function_body(func):
                if isinstance(node, ast.Call):
                    calls.append(node)
                elif isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
                ):
                    sides = [node.left, *node.comparators]
                    if not any(isinstance(side, ast.Constant) and side.value is None for side in sides):
                        compared.update(side.id for side in sides if isinstance(side, ast.Name))
            for call in calls:
                if any(isinstance(arg, ast.Name) and arg.id in compared for arg in call.args):
                    rebuilt.add((dotted_name(call.func) or "").rpartition(".")[2])
    return rebuilt


class MemoInvalidationRule(Rule):
    code = "R004"
    name = "memo-invalidation"
    summary = (
        "memo/cache attributes in graph/storage/matching/session classes need a "
        "version-comparing validation or invalidation path, or an owner "
        "that rebuilds their class when its snapshot's identity changes"
    )

    def finalize(self, project: ProjectInfo) -> Iterable[Finding]:
        validated = _validated_attributes(project)
        rebuilt = _identity_rebuilt_classes(project)
        findings: List[Finding] = []
        seen: Set[Tuple[str, str, str]] = set()
        for module in project.modules:
            if not module.in_part("graph", "storage", "matching", "session"):
                continue
            for cls_name, attr, node in _declared_memos(module):
                key = (module.relpath, cls_name, attr)
                if key in seen:
                    continue
                seen.add(key)
                if attr not in validated and cls_name not in rebuilt:
                    findings.append(
                        module.finding(
                            node,
                            self.code,
                            f"{cls_name}.{attr} is a memo with no "
                            f"version-counter validation anywhere in the "
                            f"scanned code (stale-answer hazard; tag entries "
                            f"with color_version/edges_version, key them "
                            f"on the version pair, or have the owner rebuild "
                            f"{cls_name} when its snapshot is a different "
                            f"object)",
                        )
                    )
        return findings
