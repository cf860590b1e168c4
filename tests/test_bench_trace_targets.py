"""The per-layer benchmark patches ``src/`` by name; the names must resolve.

``bench/trace.py`` wraps layer callables from outside the program: functions
by ``(module, name)`` — rebinding the name in every ``repro`` module that
imported it and in upper-case registry dicts — and methods by ``(module,
class, method)`` looked up in the class's own ``vars()``.  A refactor that
renames a target, moves a method onto a base class or captures an evaluator
in a local would leave that layer's spans silently empty.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import trace  # noqa: E402  (read-only: nothing under bench/ changes)

_FUNCTION_TARGETS = sorted({target for targets in trace._FUNCTIONS.values() for target in targets})
_METHOD_TARGETS = [
    (module, cls, tuple(methods) if methods is not None else None)
    for targets in trace._METHODS.values()
    for module, cls, methods in targets
]


@pytest.mark.parametrize("module_name, attribute", _FUNCTION_TARGETS)
def test_function_target_resolves(module_name, attribute):
    assert callable(getattr(importlib.import_module(module_name), attribute))


@pytest.mark.parametrize("module_name, class_name, methods", _METHOD_TARGETS)
def test_method_target_is_defined_on_the_class_itself(module_name, class_name, methods):
    own = vars(getattr(importlib.import_module(module_name), class_name))
    if methods is None:  # every public method: there must be some to wrap
        methods = [key for key, value in own.items()
                   if not key.startswith("_") and isinstance(value, types.FunctionType)]
        assert methods
    for method in methods:
        assert isinstance(own.get(method), types.FunctionType), (class_name, method)


def test_session_reaches_the_traced_layers_through_patchable_names():
    """The session module calls the statistics, planner, canonicaliser and
    evaluators through its own module globals — or, for the PQ algorithms,
    the upper-case registry — which is where the tracer rebinds them."""
    session = importlib.import_module("repro.session.session")
    by_name = {"compute_stats", "plan_query", "canonicalize_query", "evaluate_rq", "evaluate_general_rq"}
    for span in ("graph.stats", "session.plan", "query.canonical", "matching.eval"):
        for module_name, attribute in trace._FUNCTIONS[span]:
            original = getattr(importlib.import_module(module_name), attribute)
            if attribute in by_name:
                assert vars(session).get(attribute) is original, attribute
            else:
                assert original in session._PQ_ALGORITHMS.values(), attribute


def test_pinned_read_on_auto_session_reaches_traced_kernels_and_overlay_adapter(monkeypatch):
    """Served reads run on the CSR array path: with the tracer installed as
    ``bench/run.py --trace 1`` installs it, a pinned read on an ``auto``
    session of 64+ nodes must record spans of an ``OverlayCsrAdapter`` method
    nested in ``SessionSnapshot.execute``, every array-kernel span under one
    of them, and no generic BFS — or ``storage.adapter_*`` and
    ``kernels.calls_per_op`` go blind to them.

    Two reads.  The RQ's whole-query pair search runs on
    ``repro.kernels.expand_origins``, an entry the frozen ``bench/trace.py``
    does not wrap: it is counted here from outside, and its time shows under
    ``storage.adapter`` (ROADMAP 1(d) lists the missing target).  The pattern
    query's refinement fixpoint runs set-level frontiers on
    ``expand_frontier``, which the tracer does wrap."""
    from repro.datasets.youtube import generate_youtube_graph
    from repro.matching import csr_engine
    from repro.query.pq import PatternQuery
    from repro.query.rq import ReachabilityQuery
    from repro.session.session import GraphSession
    from repro.storage.adapter import OverlayCsrAdapter

    overlay_methods = [
        methods for _, cls, methods in trace._METHODS["storage.adapter"] if cls == "OverlayCsrAdapter"
    ]
    assert overlay_methods == [None]  # every public method of the class is wrapped

    origin_calls = []
    expand_origins = csr_engine.expand_origins

    def counted(*args):
        origin_calls.append(args)
        return expand_origins(*args)

    monkeypatch.setattr(csr_engine, "expand_origins", counted)
    pattern = PatternQuery(name="traced")
    pattern.add_node("A", "cat = 'Comedy'")
    pattern.add_node("B", "cat = 'Music'")
    pattern.add_edge("A", "B", "fc.sr^+")
    session = GraphSession(generate_youtube_graph(num_nodes=150, num_edges=500, seed=7))

    def ancestors(tracer, index):
        parent = tracer.spans[index][3]
        while parent >= 0:
            yield tracer.spans[parent][0]
            parent = tracer.spans[parent][3]

    def traced_read(query):
        """``(result, indices of the array-kernel spans)`` of one pinned read."""
        tracer = trace.Tracer()
        with trace.installed(tracer):
            # The wrappers sit in the class's own vars(), where the matcher finds them.
            assert hasattr(vars(OverlayCsrAdapter)["query_pairs"], "__wrapped__")
            with session.pin() as snapshot:
                result = snapshot.execute(query)
                adapter = snapshot._state.matcher("csr")._adapter
        assert result.engine == "csr"
        assert type(adapter) is OverlayCsrAdapter
        names = [span[0] for span in tracer.spans]
        adapter_spans = [i for i, name in enumerate(names) if name == "storage.adapter"]
        assert adapter_spans
        assert all("session.execute" in ancestors(tracer, index) for index in adapter_spans)
        kernel_spans = [i for i, name in enumerate(names) if name == "kernels.array"]
        for index in kernel_spans:
            chain = list(ancestors(tracer, index))
            assert "storage.adapter" in chain and "session.execute" in chain, chain
        assert "kernels.generic_bfs" not in names
        return result, kernel_spans

    result, _ = traced_read(ReachabilityQuery("cat = 'Comedy'", "cat = 'Music'", "fc.sr^+"))
    assert result.answer.pairs
    assert len(origin_calls) == 2  # one kernel pass per atom, inside ``query_pairs``
    result, kernel_spans = traced_read(pattern)
    assert not result.answer.is_empty
    assert kernel_spans


#: The set-level expansion surface ``PathMatcher`` is written on — what the
#: ``storage.adapter`` span counts.  A single start is a singleton set, so the
#: matcher's ``atom_targets`` / ``atom_sources`` / ``targets_from`` /
#: ``sources_to`` / ``edge_pairs`` have no adapter method of their own.
#: ``enter`` is where an adapter names the handle space of one evaluation;
#: translating out of it needs no adapter (``PathMatcher.node_ids`` /
#: ``id_pairs`` ask the token).
_ADAPTER_SURFACE = {
    "enter", "matching_nodes", "set_targets", "set_sources", "backward_closure", "backward_reachable",
    "query_pairs", "product_pairs",
}
#: The one further public function each class defines: the dict engine's BFS
#: and the overlay adapter's engine accessor (both spans at the parent too).
_ADAPTER_EXTRAS = {
    "DictEngineAdapter": {"positive_distances"},
    "OverlayCsrAdapter": {"engine_handle"},
    "PartitionedAdapter": set(),
}


@pytest.mark.parametrize("class_name", sorted(_ADAPTER_EXTRAS))
def test_adapter_defines_surface_in_own_vars(class_name):
    """The tracer wraps the public functions in a class's own ``vars()``: a
    surface method moved onto a shared base would still work and silently
    vanish from ``storage.adapter_*`` — so shared code lives in private
    helpers and every class spells out every public method itself."""
    adapter = importlib.import_module("repro.storage.adapter")
    own = {
        key for key, value in vars(getattr(adapter, class_name)).items()
        if not key.startswith("_") and isinstance(value, types.FunctionType)
    }
    assert own == _ADAPTER_SURFACE | _ADAPTER_EXTRAS[class_name]
    for base in getattr(adapter, class_name).__mro__[1:]:
        inherited = {
            key for key, value in vars(base).items()
            if not key.startswith("_") and isinstance(value, types.FunctionType)
        }
        assert not inherited, (base.__name__, inherited)


def test_pinned_general_rq_records_adapter_spans_inside_the_evaluator():
    """General RQs read through the adapter like every other kind: a pinned
    one, clean or with changes pending in the pinned overlay, shows up as two
    predicate scans and one product search nested in ``matching.eval``, after
    the ``enter`` that names the evaluation's handle space."""
    from repro.datasets.youtube import generate_youtube_graph
    from repro.matching.general_rq import GeneralReachabilityQuery
    from repro.session.session import GraphSession

    graph = generate_youtube_graph(num_nodes=150, num_edges=500, seed=7)
    session = GraphSession(graph, semantic_cache_capacity=0)
    query = GeneralReachabilityQuery("cat = 'Comedy'", "cat = 'Music'", "(fc|sr)+")
    nodes = list(graph.nodes())
    for clean in (True, False):
        if not clean:
            session.apply_updates([("add", nodes[0], nodes[1], "fc")])
        tracer = trace.Tracer()
        with trace.installed(tracer):
            with session.pin() as snapshot:
                assert snapshot.store.is_clean(None) is clean
                result = snapshot.execute(query)
        assert result.engine == "csr" and result.answer.pairs
        (evaluation,) = [i for i, span in enumerate(tracer.spans) if span[0] == "matching.eval"]
        adapter_spans = [span for span in tracer.spans if span[0] == "storage.adapter"]
        # ``enter``, two scans and the product, called by the evaluator itself ...
        assert [span[3] for span in adapter_spans[:4]] == [evaluation] * 4
        # ... and on the array path the product asks for the matcher's engine.
        assert len(adapter_spans) == (5 if clean else 4), tracer.spans


def test_partitioned_read_records_adapter_spans():
    """A read on a ``partitioned`` session, traced as ``--trace 1`` traces,
    shows up as ``storage.adapter`` spans of ``PartitionedAdapter`` methods."""
    from repro.datasets.youtube import generate_youtube_graph
    from repro.query.rq import ReachabilityQuery
    from repro.session.session import GraphSession
    from repro.storage.adapter import PartitionedAdapter

    session = GraphSession(generate_youtube_graph(num_nodes=150, num_edges=500, seed=7), engine="partitioned", shards=2)
    tracer = trace.Tracer()
    with trace.installed(tracer):
        assert hasattr(vars(PartitionedAdapter)["query_pairs"], "__wrapped__")
        result = session.execute(ReachabilityQuery("cat = 'Comedy'", "cat = 'Music'", "fc.sr^+"))
    assert result.engine == "partitioned" and result.answer.pairs
    assert type(session.matcher("partitioned")._adapter) is PartitionedAdapter
    adapter_spans = [span for span in tracer.spans if span[0] == "storage.adapter"]
    assert len(adapter_spans) > 1  # query_pairs and the atom frontiers nested in it
