"""The reprolint rule registry.

Rules are instantiated fresh per :func:`repro.analysis.run_lint` call (some
rules accumulate per-project state in ``finalize``).  Codes are stable and
registered in ``pyproject.toml`` under ``[tool.reprolint]``; a retired rule
retires its code, it is never reused.
"""

from __future__ import annotations

from typing import List

from repro.analysis.core import Rule
from repro.analysis.rules.async_safety import AsyncBlockingCallRule
from repro.analysis.rules.drift import DefaultDriftRule
from repro.analysis.rules.exports import ExportConformanceRule
from repro.analysis.rules.isolation import ShardIsolationRule
from repro.analysis.rules.layering import ENGINE_MODULES, EngineFreeFixpointRule
from repro.analysis.rules.memos import MemoInvalidationRule
from repro.analysis.rules.snapshots import SnapshotReleaseRule
from repro.analysis.rules.swallow import ExceptionSwallowRule
from repro.analysis.rules.versions import VersionBumpRule

__all__ = ["ENGINE_MODULES", "RULE_CODES", "all_rules"]

_RULE_CLASSES = (
    VersionBumpRule,
    SnapshotReleaseRule,
    AsyncBlockingCallRule,
    MemoInvalidationRule,
    DefaultDriftRule,
    EngineFreeFixpointRule,
    ExportConformanceRule,
    ExceptionSwallowRule,
    ShardIsolationRule,
)

#: Stable rule codes, in registry order.
RULE_CODES = tuple(cls.code for cls in _RULE_CLASSES)


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in code order."""
    return [cls() for cls in _RULE_CLASSES]
