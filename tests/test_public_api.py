"""Smoke tests for the public API surface, plus the API freeze.

``FROZEN_API`` is the reviewed export surface: adding, removing or renaming
a public name must update this table in the same change (that is the point —
the diff makes API changes explicit instead of incidental).
"""

import importlib

import pytest

import repro

#: module -> exact sorted ``__all__``.  Keep sorted; the test diffs both ways.
FROZEN_API = {
    "repro": [
        "AtomicCondition", "CanonicalQuery", "CompiledGraph", "CsrEngine",
        "DataGraph", "DictStore", "DistanceMatrix", "Edge", "EvaluationError",
        "FRegex", "GeneralReachabilityQuery", "GeneralRegex", "GraphError",
        "GraphService", "GraphSession", "GraphStore",
        "IncrementalPatternMatcher", "OverlayCsrStore", "OverloadedError",
        "PathMatcher", "PatternEdge", "PatternMatchResult", "PatternQuery",
        "Predicate", "PredicateError", "PreparedQuery", "ProtocolError",
        "QueryError", "QueryGenerator", "QueryPlan", "QueryResult",
        "ReachabilityQuery", "ReachabilityResult", "RegexAtom",
        "RegexSyntaxError", "ReproError", "SCHEMA_VERSION", "SemanticCache",
        "ServiceClient", "ServiceConfig", "ServiceError", "SessionSnapshot",
        "SessionWatch", "SnapshotError", "SnapshotGraph", "StoreSnapshot",
        "WILDCARD", "bounded_simulation_match", "build_distance_matrix",
        "canonical_pattern_query", "canonical_regex", "canonicalize_query",
        "compile_graph", "compiled_snapshot", "compute_f_measure",
        "default_session", "evaluate_general_rq", "evaluate_rq", "join_match",
        "language_contains", "language_equal", "minimize_pattern_query",
        "naive_match", "parse_fregex", "plan_query", "pq_containment_mapping",
        "pq_contained_in", "pq_equivalent", "rq_contained_in",
        "rq_equivalent", "split_match", "subgraph_isomorphism_match",
    ],
    "repro.graph": [
        "CompiledGraph", "DataGraph", "DistanceMatrix", "Edge",
        "bfs_distances", "bidirectional_distance", "build_distance_matrix",
        "compile_graph", "compiled_snapshot", "strongly_connected_components",
        "topological_order",
    ],
    "repro.regex": [
        "FRegex", "RegexAtom", "WILDCARD", "atom", "concat",
        "language_contains", "language_equal", "parse_fregex", "plus",
        "syntactic_contains",
    ],
    "repro.query": [
        "AtomicCondition", "CanonicalQuery", "PatternEdge", "PatternQuery",
        "Predicate", "QueryGenerator", "ReachabilityQuery",
        "canonical_pattern_query", "canonical_regex", "canonicalize_query",
        "minimize_pattern_query", "pq_containment_mapping", "pq_contained_in",
        "pq_equivalent", "rq_contained_in", "rq_equivalent",
    ],
    "repro.kernels": [
        "HAVE_NUMPY", "KERNEL_ENV_VAR", "active_kernel_name",
        "bfs_block_frontier", "bitmap", "closure_frontier",
        "expand_frontier", "expand_origins", "neighbors_of", "relation", "select_backend",
    ],
    "repro.matching": [
        "CsrEngine", "LruCache", "PathMatcher", "PatternMatchResult",
        "bounded_simulation_match", "evaluate_rq", "graph_simulation",
        "join_match", "naive_match", "refine_fixpoint", "split_match",
        "subgraph_isomorphism_match",
    ],
    "repro.datasets": [
        "build_essembly_graph", "essembly_query_q1", "essembly_query_q2",
        "generate_synthetic_graph", "generate_terrorism_graph",
        "generate_youtube_graph", "scale_free_stream",
    ],
    "repro.metrics": ["FMeasure", "compute_f_measure"],
    "repro.experiments": ["ExperimentReport", "format_table", "time_call"],
    "repro.session": [
        "GraphSession", "PreparedQuery", "QueryPlan", "QueryResult",
        "SCHEMA_VERSION", "SemanticCache", "SessionSnapshot", "SessionWatch",
        "check_schema_version", "default_session", "defaults", "plan_query",
        "stamped",
    ],
    "repro.storage": [
        "DictStore", "GraphStore", "JOURNAL_CAPACITY", "OverlayCsrStore",
        "PartitionedStore", "SnapshotGraph", "StoreSnapshot",
    ],
    "repro.analysis": [
        "Finding", "LintReport", "ModuleInfo", "ProjectInfo", "RULE_CODES",
        "Rule", "all_rules", "load_baseline", "partition_baseline",
        "run_lint", "save_baseline",
    ],
    "repro.service": [
        "GraphService", "SCHEMA_VERSION", "ServiceCallError", "ServiceClient",
        "ServiceConfig", "ServiceHandle", "build_update_plan", "decode_query",
        "decode_result", "encode_query", "error_envelope", "ok_envelope",
        "run_load", "verify_observations",
    ],
}


class TestPublicApi:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_subpackages_importable(self):
        for module in [
            "repro.graph",
            "repro.kernels",
            "repro.regex",
            "repro.query",
            "repro.matching",
            "repro.datasets",
            "repro.metrics",
            "repro.experiments",
            "repro.session",
            "repro.storage",
            "repro.analysis",
        ]:
            importlib.import_module(module)

    def test_session_package_lazy_attributes(self):
        import repro.session

        assert repro.session.GraphSession is repro.GraphSession
        assert "GraphSession" in dir(repro.session)
        with pytest.raises(AttributeError):
            repro.session.not_a_session_name

    def test_exception_hierarchy(self):
        assert issubclass(repro.RegexSyntaxError, repro.ReproError)
        assert issubclass(repro.GraphError, repro.ReproError)
        assert issubclass(repro.QueryError, repro.ReproError)
        assert issubclass(repro.EvaluationError, repro.ReproError)
        assert issubclass(repro.PredicateError, repro.ReproError)

    def test_end_to_end_mini_workflow(self):
        graph = repro.DataGraph()
        graph.add_node("ann", role="professor")
        graph.add_node("bob", role="student")
        graph.add_edge("ann", "bob", "advises")

        pattern = repro.PatternQuery()
        pattern.add_node("P", {"role": "professor"})
        pattern.add_node("S", {"role": "student"})
        pattern.add_edge("P", "S", "advises")

        result = repro.join_match(pattern, graph)
        assert result.matches_of("P") == {"ann"}
        assert result.matches_of("S") == {"bob"}

    def test_service_exceptions_in_hierarchy(self):
        assert issubclass(repro.SnapshotError, repro.ReproError)
        assert issubclass(repro.ServiceError, repro.ReproError)
        assert issubclass(repro.ProtocolError, repro.ServiceError)
        assert issubclass(repro.OverloadedError, repro.ServiceError)
        assert repro.OverloadedError("x").retryable is True
        assert repro.ReproError("x").retryable is False

    def test_examples_are_importable_scripts(self):
        """The example scripts must at least parse (they are run manually)."""
        import pathlib

        examples_dir = pathlib.Path(__file__).resolve().parent.parent / "examples"
        scripts = sorted(examples_dir.glob("*.py"))
        assert len(scripts) >= 4
        for script in scripts:
            source = script.read_text(encoding="utf-8")
            compile(source, str(script), "exec")


class TestApiFreeze:
    """The export surface is frozen: changes must edit FROZEN_API explicitly."""

    @pytest.mark.parametrize("module_name", sorted(FROZEN_API))
    def test_all_matches_frozen_surface_exactly(self, module_name):
        module = importlib.import_module(module_name)
        exported = sorted(module.__all__)
        frozen = sorted(FROZEN_API[module_name])
        missing = [name for name in frozen if name not in exported]
        extra = [name for name in exported if name not in frozen]
        assert exported == frozen, (
            f"{module_name}.__all__ drifted from the frozen API surface; "
            f"missing={missing} extra={extra} — if the change is intended, "
            f"update FROZEN_API in the same commit"
        )

    @pytest.mark.parametrize("module_name", sorted(FROZEN_API))
    def test_no_duplicate_exports(self, module_name):
        exported = list(importlib.import_module(module_name).__all__)
        assert len(exported) == len(set(exported))

    @pytest.mark.parametrize("module_name", sorted(FROZEN_API))
    def test_every_frozen_name_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in FROZEN_API[module_name]:
            assert getattr(module, name, None) is not None, (
                f"{module_name}.{name} is exported but does not resolve"
            )
