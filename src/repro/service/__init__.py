"""The snapshot-isolated serving layer (service, wire format, client, loadgen).

:class:`GraphService` owns one :class:`~repro.session.session.GraphSession`
and serves it over asyncio HTTP/JSON: reads pin immutable store snapshots
(many concurrent readers), updates apply through the single writer path, and
``watch`` subscriptions stream change events over long-poll or SSE.  See
:mod:`repro.service.wire` for the versioned payload shapes,
:class:`ServiceClient` for the blocking client, and :func:`run_load` for the
load generator that doubles as a snapshot-isolation verifier.
"""

from repro.lazy import lazy_exports

#: Exported name -> defining module, imported on first access (PEP 562): a
#: reader of the wire format does not load asyncio and the HTTP server.
_EXPORTS = {
    **dict.fromkeys(("ServiceCallError", "ServiceClient"), "repro.service.client"),
    **dict.fromkeys(("build_update_plan", "run_load", "verify_observations"), "repro.service.loadgen"),
    **dict.fromkeys(("GraphService", "ServiceConfig", "ServiceHandle"), "repro.service.service"),
    **dict.fromkeys(
        ("SCHEMA_VERSION", "decode_query", "decode_result", "encode_query", "error_envelope", "ok_envelope"),
        "repro.service.wire",
    ),
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
