"""Session facade: one lifecycle for a graph and all of its warm query state.

Public names:

* :class:`~repro.session.session.GraphSession` — owns a
  :class:`~repro.graph.data_graph.DataGraph` plus compiled CSR snapshots,
  version-aware path matchers, incremental watchers and predicate-scan
  memos, behind ``prepare`` / ``execute`` / ``watch`` / ``apply_updates``;
* :class:`~repro.session.session.PreparedQuery` and
  :class:`~repro.session.result.QueryResult`;
* :class:`~repro.session.session.SessionSnapshot` — a pinned, read-only
  view of the session at one version (see :meth:`GraphSession.pin`);
* :data:`~repro.session.result.SCHEMA_VERSION` with
  :func:`~repro.session.result.stamped` /
  :func:`~repro.session.result.check_schema_version` — the wire schema
  stamp shared by results, service envelopes and CLI ``--json`` output;
* :func:`~repro.session.planner.plan_query` and
  :class:`~repro.session.planner.QueryPlan` — the cost-based planner;
* :class:`~repro.session.semantic_cache.SemanticCache` — the
  containment-powered semantic result cache shared by sessions, snapshots
  and the serving layer;
* :func:`~repro.session.session.default_session` — the module-level
  per-graph session the free functions delegate their warm state to;
* :mod:`~repro.session.defaults` — the shared default constants.

Attribute access is lazy (PEP 562): :mod:`repro.session.defaults` is a leaf
module imported by the matching stack at import time, so this package must
not eagerly import :mod:`repro.session.session` (which imports the matching
stack back) or ``import repro`` would cycle.
"""

from __future__ import annotations

from repro.lazy import lazy_exports
from repro.session import defaults  # noqa: F401  (leaf module, safe to expose eagerly)

_EXPORTS = {
    **dict.fromkeys(
        ("GraphSession", "PreparedQuery", "SessionSnapshot", "SessionWatch", "default_session"),
        "repro.session.session",
    ),
    **dict.fromkeys(("QueryResult", "SCHEMA_VERSION", "stamped", "check_schema_version"), "repro.session.result"),
    "SemanticCache": "repro.session.semantic_cache",
    **dict.fromkeys(("QueryPlan", "plan_query"), "repro.session.planner"),
}

__all__ = ["defaults", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
