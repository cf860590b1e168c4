"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main
from repro.datasets.essembly import build_essembly_graph
from repro.graph.io import load_json, save_json


@pytest.fixture
def essembly_json(tmp_path):
    path = tmp_path / "essembly.json"
    save_json(build_essembly_graph(), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_rq_requires_regex(self, essembly_json):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rq", essembly_json])


class TestStatsCommand:
    def test_prints_counts(self, essembly_json):
        out = io.StringIO()
        assert main(["stats", essembly_json], out=out) == 0
        text = out.getvalue()
        assert "|V|: 7" in text
        assert "color fa" in text


class TestRqCommand:
    def test_evaluates_paper_q1(self, essembly_json):
        out = io.StringIO()
        code = main(
            [
                "rq",
                essembly_json,
                "--source", "job = 'biologist' & sp = 'cloning'",
                "--target", "job = 'doctor'",
                "--regex", "fa^2.fn",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "4 matching pairs" in text
        assert "C1 -> B1" in text

    def test_limit_truncates_output(self, essembly_json):
        out = io.StringIO()
        main(
            ["rq", essembly_json, "--regex", "_^3", "--limit", "2"],
            out=out,
        )
        assert "more)" in out.getvalue()

    def test_matrix_method(self, essembly_json):
        out = io.StringIO()
        code = main(
            ["rq", essembly_json, "--regex", "fn", "--method", "matrix"], out=out
        )
        assert code == 0
        assert "method=matrix" in out.getvalue()

    def test_engine_flag_engines_agree(self, essembly_json):
        outputs = {}
        for engine in ("dict", "csr", "auto"):
            out = io.StringIO()
            code = main(
                ["rq", essembly_json, "--regex", "fa^2.fn", "--engine", engine, "--limit", "100"],
                out=out,
            )
            assert code == 0
            text = out.getvalue()
            assert f"engine={'csr' if engine == 'auto' else engine}" in text
            outputs[engine] = [line for line in text.splitlines() if "->" in line]
        assert outputs["dict"] == outputs["csr"] == outputs["auto"]

    def test_matrix_method_rejects_csr_engine(self, essembly_json, capsys):
        # The matrix's rows are the csr layers' closures: --engine csr reads
        # it, and an explicit --engine dict is the one refused.
        out = io.StringIO()
        args = ["rq", essembly_json, "--regex", "fn", "--method", "matrix", "--engine"]
        assert main([*args, "csr"], out=out) == 0
        assert "method=matrix, engine=csr" in out.getvalue()
        assert main([*args, "dict"], out=io.StringIO()) == 2
        assert "cannot be combined with a distance matrix" in capsys.readouterr().err


class TestRqSessionFlag:
    def test_session_path_prints_plan_and_same_pairs(self, essembly_json):
        args = [
            "rq",
            essembly_json,
            "--source", "job = 'biologist' & sp = 'cloning'",
            "--target", "job = 'doctor'",
            "--regex", "fa^2.fn",
        ]
        classic, session = io.StringIO(), io.StringIO()
        assert main(args, out=classic) == 0
        assert main([*args, "--session"], out=session) == 0
        text = session.getvalue()
        assert text.startswith("plan[rq]:")
        assert "4 matching pairs" in text
        assert "C1 -> B1" in text
        # Same pair lines as the classic path, planner or not.
        pair_lines = lambda s: [line for line in s.splitlines() if "->" in line]  # noqa: E731
        assert pair_lines(text) == pair_lines(classic.getvalue())

    def test_session_path_rejects_matrix_with_csr_engine_cleanly(self, essembly_json, capsys):
        # Regression: planner QueryErrors must exit 2 with a one-line error,
        # matching the classic path, not a raw traceback.  The matrix reads
        # on csr, so it is --engine dict that the planner refuses.
        args = ["rq", essembly_json, "--regex", "fa", "--session", "--method", "matrix", "--engine"]
        out = io.StringIO()
        assert main([*args, "csr"], out=out) == 0
        assert "engine=csr" in out.getvalue()
        assert main([*args, "dict"]) == 2
        assert "csr engine only" in capsys.readouterr().err

    def test_session_path_honours_method_override(self, essembly_json):
        out = io.StringIO()
        code = main(
            ["rq", essembly_json, "--regex", "fa", "--session", "--method", "matrix"],
            out=out,
        )
        assert code == 0
        assert "algorithm=matrix" in out.getvalue()


class TestPlanCommand:
    def test_explains_without_executing(self, essembly_json):
        out = io.StringIO()
        code = main(["plan", essembly_json, "--regex", "fa^2.fn"], out=out)
        assert code == 0
        text = out.getvalue()
        assert text.startswith("plan[rq]:")
        assert "matching pairs" not in text  # not executed

    def test_execute_flag_runs_the_prepared_query(self, essembly_json):
        out = io.StringIO()
        code = main(
            [
                "plan", essembly_json,
                "--source", "job = 'biologist' & sp = 'cloning'",
                "--target", "job = 'doctor'",
                "--regex", "fa^2.fn",
                "--execute",
            ],
            out=out,
        )
        assert code == 0
        assert "4 matching pairs" in out.getvalue()

    def test_matrix_flag_plans_matrix_method(self, essembly_json):
        # --matrix is gone: only --method matrix attaches and reads a matrix.
        with pytest.raises(SystemExit):
            main(["plan", essembly_json, "--regex", "fa", "--matrix"], out=io.StringIO())
        out = io.StringIO()
        assert main(["plan", essembly_json, "--regex", "fa", "--method", "matrix"], out=out) == 0
        assert "algorithm=matrix" in out.getvalue()
        out = io.StringIO()
        assert main(["plan", essembly_json, "--regex", "fa"], out=out) == 0
        assert "algorithm=bidirectional" in out.getvalue()

    def test_method_matrix_implies_matrix_attachment(self, essembly_json):
        out = io.StringIO()
        assert main(["plan", essembly_json, "--regex", "fa", "--method", "matrix"], out=out) == 0
        assert "method=matrix forced by caller" in out.getvalue()

    def test_general_flag_plans_nfa_product(self, essembly_json):
        out = io.StringIO()
        code = main(
            ["plan", essembly_json, "--regex", "(fa|sa)+", "--general", "--execute"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "plan[general_rq]: algorithm=nfa-product" in text
        assert "matching pairs" in text

    def test_forced_engine_recorded_in_reasons(self, essembly_json):
        out = io.StringIO()
        assert main(["plan", essembly_json, "--regex", "fa", "--engine", "csr"], out=out) == 0
        assert "engine=csr forced by caller" in out.getvalue()

    def test_plan_rejects_matrix_with_csr_engine_cleanly(self, essembly_json, capsys):
        # The matrix reads on csr; an explicit dict engine is refused.
        args = ["plan", essembly_json, "--regex", "fa", "--method", "matrix", "--execute", "--engine"]
        out = io.StringIO()
        assert main([*args, "csr"], out=out) == 0
        assert "engine=csr" in out.getvalue()
        assert main([*args, "dict"]) == 2
        assert "csr engine only" in capsys.readouterr().err

    def test_plan_requires_regex(self, essembly_json):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", essembly_json])


class TestGenerateCommand:
    @pytest.mark.parametrize("dataset", ["youtube", "terrorism", "synthetic"])
    def test_generates_and_roundtrips(self, dataset, tmp_path):
        output = tmp_path / f"{dataset}.json"
        out = io.StringIO()
        code = main(
            ["generate", dataset, str(output), "--nodes", "40", "--edges", "90", "--seed", "3"],
            out=out,
        )
        assert code == 0
        graph = load_json(output)
        assert graph.num_nodes == 40
        assert graph.num_edges > 0


class TestExperimentCommand:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nonsense"])

    def test_exp6_registered_and_engine_aware(self):
        # exp6 is a valid subcommand choice and accepts --engine.
        parser = build_parser()
        args = parser.parse_args(["experiment", "exp6", "--engine", "csr"])
        assert args.name == "exp6"
        assert args.engine == "csr"

    def test_engine_flag_rejected_for_non_engine_experiments(self, capsys):
        code = main(["experiment", "exp2", "--engine", "csr"])
        assert code == 2
        assert "does not compare engines" in capsys.readouterr().err


class TestJsonOutput:
    """--json emits a stable machine-readable schema on every command."""

    def run_json(self, argv):
        import json

        out = io.StringIO()
        code = main(argv, out=out)
        assert code == 0
        return json.loads(out.getvalue())

    def test_stats_json_schema(self, essembly_json):
        payload = self.run_json(["stats", essembly_json, "--json"])
        assert payload["command"] == "stats"
        stats = payload["stats"]
        assert stats["|V|"] == 7
        assert isinstance(stats["color_counts"], dict)
        assert stats["color_counts"]["fa"] >= 1

    def test_rq_json_schema(self, essembly_json):
        payload = self.run_json(
            [
                "rq", essembly_json,
                "--source", "job = 'biologist' & sp = 'cloning'",
                "--target", "job = 'doctor'",
                "--regex", "fa^2.fn",
                "--json",
            ]
        )
        assert payload["command"] == "rq"
        assert payload["session"] is False
        assert payload["plan"] is None
        result = payload["result"]
        assert set(result) == {
            "pairs", "method", "elapsed_seconds", "engine", "schema_version",
        }
        assert result["schema_version"] == 1
        assert ["C1", "B1"] in result["pairs"]
        assert len(result["pairs"]) == 4

    def test_rq_session_json_includes_plan(self, essembly_json):
        payload = self.run_json(
            ["rq", essembly_json, "--regex", "fa", "--session", "--json"]
        )
        assert payload["session"] is True
        plan = payload["plan"]
        assert plan["kind"] == "rq"
        assert plan["engine"] in ("dict", "csr")
        assert plan["store"] in ("dict", "overlay-csr")
        assert isinstance(plan["reasons"], list) and plan["reasons"]
        assert isinstance(plan["features"], dict)
        # One fresh session, one execution: the semantic cache had nothing
        # to serve, and the plan row records that decision.
        assert plan["cache"] == "evaluate"
        assert payload["result"]["pairs"]

    def test_plan_json_schema(self, essembly_json):
        payload = self.run_json(["plan", essembly_json, "--regex", "fa", "--json"])
        assert payload["command"] == "plan"
        assert payload["result"] is None
        plan = payload["plan"]
        for key in (
            "kind", "algorithm", "engine", "store", "method", "use_matrix",
            "maintenance", "unsatisfiable", "cache", "features", "reasons",
        ):
            assert key in plan, key
        assert plan["cache"] in ("evaluate", "cache-exact", "cache-containment")
        assert payload["store_stats"]["store"] in ("dict", "overlay-csr")

    def test_plan_json_execute_reports_result_and_overlay(self, essembly_json):
        payload = self.run_json(
            ["plan", essembly_json, "--regex", "fa", "--engine", "csr", "--execute", "--json"]
        )
        assert payload["plan"]["store"] == "overlay-csr"
        result = payload["result"]
        assert set(result) == {"size", "engine", "elapsed_seconds"}
        assert result["engine"] == "csr"
        # Execution created the overlay store; its occupancy is surfaced.
        stats = payload["store_stats"]
        assert stats["store"] == "overlay-csr"
        assert stats["overlay_edges"] == 0
        assert stats["compactions"] >= 1

    def test_experiment_json_schema(self):
        payload = self.run_json(["experiment", "exp2", "--json"])
        assert payload["command"] == "experiment"
        assert payload["experiment"] == "exp2"
        reports = payload["reports"]
        assert isinstance(reports, list) and reports
        for report in reports:
            assert set(report) == {"name", "description", "rows"}
            assert isinstance(report["rows"], list)
            for row in report["rows"]:
                assert isinstance(row, dict)

    def test_json_output_parses_with_sorted_keys(self, essembly_json):
        import json

        out = io.StringIO()
        assert main(["plan", essembly_json, "--regex", "fa", "--json"], out=out) == 0
        text = out.getvalue()
        assert json.loads(text) == json.loads(text)  # stable, valid JSON
        assert text.lstrip().startswith("{")


class TestIngestCommand:
    @pytest.fixture
    def edge_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text(
            "# stream fixture\n"
            + "".join(f"n{i} n{(i + 1) % 30} c{i % 2}\n" for i in range(30))
        )
        return str(path)

    def test_human_output_reports_layout(self, edge_file):
        out = io.StringIO()
        assert main(["ingest", edge_file, "--shards", "3", "--chunk-edges", "8"], out=out) == 0
        text = out.getvalue()
        assert "ingested 30 edges / 30 nodes" in text
        assert "into 3 shard(s)" in text
        assert "streamed 4 chunk(s), peak 8 triples" in text

    def test_json_envelope(self, edge_file):
        import json

        out = io.StringIO()
        assert main(["ingest", edge_file, "--shards", "2", "--json"], out=out) == 0
        payload = json.loads(out.getvalue())
        assert payload["command"] == "ingest"
        assert payload["schema_version"] == 1
        stats = payload["stats"]
        assert stats["nodes"] == 30 and stats["edges"] == 30
        assert stats["shards"] == 2
        assert stats["chunks"] >= 1 and stats["peak_chunk"] <= 30

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "nope.txt")], out=io.StringIO()) == 2
        assert "ingest" in capsys.readouterr().err

    def test_malformed_line_is_a_structured_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("a b red\nbroken-line\n")
        assert main(["ingest", str(path)], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "repro ingest: error" in err


class TestSchemaVersionStamp:
    def test_every_json_payload_is_stamped(self, essembly_json):
        import json

        for argv in (
            ["stats", essembly_json, "--json"],
            ["rq", essembly_json, "--regex", "fa", "--json"],
            ["plan", essembly_json, "--regex", "fa", "--json"],
        ):
            out = io.StringIO()
            assert main(argv, out=out) == 0
            assert json.loads(out.getvalue())["schema_version"] == 1


class TestStructuredErrors:
    def test_error_line_carries_code_and_retryable(self, essembly_json, capsys):
        # Satellite: CLI errors render the same {code, message, retryable}
        # triple the service's error envelope carries.
        code = main(
            ["rq", essembly_json, "--regex", "fa", "--session",
             "--method", "matrix", "--engine", "dict"],
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error [repro.query.invalid]:" in err
        assert "(retryable=false)" in err


class TestServeCommand:
    def test_parser_defaults(self, essembly_json):
        args = build_parser().parse_args(["serve", essembly_json])
        assert args.port == 0 and args.host == "127.0.0.1"
        assert args.readers == 8 and not args.load_burst

    def test_load_burst_verifies_and_writes_report(self, essembly_json, tmp_path):
        import json

        report_path = tmp_path / "bench-serve.json"
        out = io.StringIO()
        code = main(
            [
                "serve", essembly_json, "--load-burst",
                "--readers", "3", "--duration", "0.5",
                "--update-batches", "6", "--out", str(report_path),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "snapshot isolation: verified" in text
        assert "qps" in text
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["schema_version"] == 1
        assert report["readers"] == 3
        assert report["requests"] > 0
        assert report["updates_applied"] > 0
        for key in ("qps", "latency_p50_ms", "latency_p99_ms"):
            assert isinstance(report[key], (int, float))

    def test_load_burst_json_envelope(self, essembly_json):
        import json

        out = io.StringIO()
        code = main(
            ["serve", essembly_json, "--load-burst", "--readers", "2",
             "--duration", "0.3", "--update-batches", "4", "--json"],
            out=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["command"] == "serve"
        assert payload["schema_version"] == 1
        assert payload["report"]["ok"] is True


class TestLintCommand:
    """``repro lint`` follows the CLI exit-code contract: 0 clean, 1 on
    non-baseline findings, 2 + ``error [code]`` line on internal errors."""

    FIXTURES = __import__("pathlib").Path(__file__).resolve().parent / "fixtures" / "lint"

    def test_clean_tree_exits_zero(self):
        out = io.StringIO()
        code = main(["lint", str(self.FIXTURES / "r008" / "good")], out=out)
        assert code == 0
        assert "0 finding(s)" in out.getvalue()

    def test_findings_exit_one_and_render_locations(self):
        out = io.StringIO()
        code = main(["lint", str(self.FIXTURES / "r008" / "bad")], out=out)
        assert code == 1
        text = out.getvalue()
        assert "R008" in text
        assert "bad/service/conn.py:" in text

    def test_internal_error_exits_two_with_code_line(self, capsys):
        code = main(["lint", "this-path-does-not-exist"])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro lint: error [repro.analysis.failed]:" in err
        assert "(retryable=false)" in err

    def test_unknown_rule_code_exits_two(self, capsys):
        code = main(["lint", str(self.FIXTURES / "r008" / "good"), "--select", "R999"])
        assert code == 2
        assert "error [repro.analysis.failed]" in capsys.readouterr().err

    def test_json_envelope_is_stamped(self):
        import json

        out = io.StringIO()
        code = main(["lint", str(self.FIXTURES / "r005" / "bad"), "--json"], out=out)
        assert code == 1
        payload = json.loads(out.getvalue())
        assert payload["command"] == "lint"
        assert payload["schema_version"] == 1
        assert payload["rules"] == list(
            __import__("repro.analysis", fromlist=["RULE_CODES"]).RULE_CODES
        )
        assert payload["baselined"] == 0
        assert payload["findings"], "expected R005 findings in the bad fixture"
        for finding in payload["findings"]:
            assert set(finding) == {"rule", "path", "line", "col", "message"}

    def test_select_restricts_rules(self):
        import json

        out = io.StringIO()
        code = main(
            ["lint", str(self.FIXTURES / "r003" / "bad"), "--select", "R001", "--json"],
            out=out,
        )
        assert code == 0  # R003's violation is invisible to an R001-only pass
        payload = json.loads(out.getvalue())
        assert payload["rules"] == ["R001"]
        assert payload["findings"] == []

    def test_baseline_grandfathers_findings(self, tmp_path):
        import json

        baseline_path = tmp_path / "baseline.json"
        out = io.StringIO()
        code = main(
            ["lint", str(self.FIXTURES / "r008" / "bad"),
             "--baseline", str(baseline_path), "--write-baseline"],
            out=out,
        )
        assert code == 0
        assert json.loads(baseline_path.read_text())["findings"]

        out = io.StringIO()
        code = main(
            ["lint", str(self.FIXTURES / "r008" / "bad"),
             "--baseline", str(baseline_path), "--json"],
            out=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["findings"] == []
        assert payload["baselined"] > 0

    def test_repo_source_tree_is_clean(self):
        import pathlib

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        out = io.StringIO()
        assert main(["lint", str(src)], out=out) == 0, out.getvalue()
