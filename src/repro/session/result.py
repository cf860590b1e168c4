"""The unified result envelope returned by prepared-query execution.

Every :meth:`PreparedQuery.execute` call — RQ, general RQ or PQ — returns one
:class:`QueryResult`: the underlying answer object plus the plan it ran
under, the engine, wall-clock timings and the session's cache counters at
completion.  The envelope delegates the common ergonomics (truthiness,
length, iteration, ``to_dict``) to the answer so callers can treat all three
query kinds uniformly.

This module is also the home of the **wire schema version**: every
``to_dict`` payload in the result family (:class:`QueryResult`,
:class:`~repro.matching.reachability.ReachabilityResult`,
:class:`~repro.matching.general_rq.GeneralReachabilityResult`,
:class:`~repro.matching.result.PatternMatchResult`) is stamped with
:data:`SCHEMA_VERSION`, and every ``from_dict`` validates it through
:func:`check_schema_version` — one number shared by the service responses
and the CLI ``--json`` paths, so the wire format can evolve compatibly
(readers reject payloads from a future schema instead of misparsing them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.session.planner import QueryPlan

#: Version stamp of every JSON payload the library emits.  Bump on any
#: backwards-incompatible change to the ``to_dict`` family or the service
#: wire envelopes; additive fields do not require a bump.
SCHEMA_VERSION = 1


def stamped(payload: Dict[str, Any]) -> Dict[str, Any]:
    """``payload`` plus the ``schema_version`` stamp (a shallow copy)."""
    envelope = dict(payload)
    envelope["schema_version"] = SCHEMA_VERSION
    return envelope


def check_schema_version(data: Dict[str, Any], what: str = "result") -> Dict[str, Any]:
    """Validate the stamp of one inbound payload (missing = current).

    Raises :class:`~repro.exceptions.ProtocolError` on a version this build
    does not speak; payloads written before the stamp existed (no key) are
    accepted as the current version.
    """
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        from repro.exceptions import ProtocolError

        raise ProtocolError(
            f"unsupported {what} schema_version {version!r}; this build speaks "
            f"version {SCHEMA_VERSION}"
        )
    return data


@dataclass
class QueryResult:
    """One executed query: answer + plan + timings + cache counters.

    Attributes
    ----------
    answer:
        The kind-specific result object
        (:class:`~repro.matching.reachability.ReachabilityResult`,
        :class:`~repro.matching.general_rq.GeneralReachabilityResult` or
        :class:`~repro.matching.result.PatternMatchResult`).
    plan:
        The :class:`~repro.session.planner.QueryPlan` the execution followed.
    engine:
        The engine the answer was actually produced on.
    elapsed_seconds:
        Wall-clock time of this ``execute()`` call (result-cache hits are
        near zero; the underlying evaluation time is in
        ``answer.elapsed_seconds``).
    from_result_cache:
        True when the answer was served from the prepared query's
        version-keyed result memo instead of being re-evaluated.
    cache_decision:
        The semantic-cache outcome of this execution: ``"evaluate"`` (ran
        the plan), ``"cache-exact"`` or ``"cache-containment"`` (served
        from the session's :class:`~repro.session.semantic_cache.SemanticCache`).
    cache_stats:
        Snapshot of the executing matcher's cache counters (empty for
        result-cache hits).
    """

    answer: Any
    plan: QueryPlan
    engine: str = "dict"
    elapsed_seconds: float = 0.0
    from_result_cache: bool = False
    cache_decision: str = "evaluate"
    cache_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Result size: pairs for RQs, total match pairs for PQs."""
        return len(self)

    def __len__(self) -> int:
        return len(self.answer)

    def __bool__(self) -> bool:
        return bool(self.answer)

    def __iter__(self):
        return iter(self.answer)

    def __contains__(self, item) -> bool:
        return item in self.answer

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able view: the answer's ``to_dict`` plus the plan row,
        stamped with :data:`SCHEMA_VERSION`."""
        return stamped(
            {
                "answer": self.answer.to_dict(),
                "plan": self.plan.as_row(),
                "engine": self.engine,
                "elapsed_seconds": self.elapsed_seconds,
                "from_result_cache": self.from_result_cache,
                "cache_decision": self.cache_decision,
            }
        )

    def __repr__(self) -> str:
        return (
            f"QueryResult(kind={self.plan.kind!r}, algorithm={self.plan.algorithm!r}, "
            f"engine={self.engine!r}, size={len(self)}, "
            f"cached={self.from_result_cache})"
        )
