"""Tests for reprolint (:mod:`repro.analysis`) — framework, rules, baseline.

Each rule gets a fixture pair under ``tests/fixtures/lint/rNNN/``: ``bad/``
holds a minimal violation the rule must fire on, ``good/`` the fixed form it
must stay silent on.  The fixture trees mimic the source layout
(``storage/``, ``service/``, ``matching/`` …) because several rules are
path-scoped.  The suite also locks the framework behaviour (suppressions,
baseline round-trip, rule selection) and gates the real source tree: ``src/``
must lint clean beyond the checked-in baseline.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    RULE_CODES,
    all_rules,
    load_baseline,
    partition_baseline,
    run_lint,
    save_baseline,
)
from repro.analysis.rules.layering import ENGINE_MODULES
from repro.exceptions import AnalysisError, ReproError

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_fixture(rule: str, kind: str):
    return run_lint([FIXTURES / rule.lower() / kind], select=[rule])


class TestRuleFixtures:
    @pytest.mark.parametrize("rule", RULE_CODES)
    def test_bad_fixture_fires(self, rule):
        report = lint_fixture(rule, "bad")
        assert report.findings, f"{rule} found nothing in its bad fixture"
        assert {finding.rule for finding in report.findings} == {rule}
        for finding in report.findings:
            assert finding.line > 0
            assert finding.path.startswith("bad/")
            assert rule in finding.render()

    @pytest.mark.parametrize("rule", RULE_CODES)
    def test_good_fixture_is_clean(self, rule):
        report = lint_fixture(rule, "good")
        assert report.findings == [], [f.render() for f in report.findings]

    def test_r001_names_the_unbumped_methods(self):
        messages = [f.message for f in lint_fixture("R001", "bad").findings]
        assert any("add_edge" in message for message in messages)
        assert any("set_attr" in message for message in messages)

    def test_r002_distinguishes_leak_kinds(self):
        messages = [f.message for f in lint_fixture("R002", "bad").findings]
        assert any("never released" in message for message in messages)
        assert any("discards" in message for message in messages)

    def test_r004_bound_memos_need_an_identity_checking_owner(self):
        # Two conventions, one bad example each: a memo nothing compares to a
        # version, and a memo bound to one snapshot whose owner reuses the
        # holder without checking that the snapshot is still the current one.
        # (The good tree holds the same SnapshotEngine; only its owner's
        # `engine.compiled is not base` rebuild makes it pass.)
        messages = [f.message for f in lint_fixture("R004", "bad").findings]
        assert any("ForgetfulMatcher._frontier_cache" in message for message in messages)
        assert any("SnapshotEngine._expansion_cache" in message for message in messages)

    def test_r004_reaches_the_scan_memo_under_graph_and_storage(self, tmp_path):
        # attrs_version exists to invalidate the predicate scans a holder
        # under graph/ keeps; the rule used to stop at matching/ and session/.
        messages = [f.message for f in lint_fixture("R004", "bad").findings]
        assert any("ScanHolder._scan_cache" in message for message in messages)
        holder = (FIXTURES / "r004" / "bad" / "graph" / "scan_holder.py").read_text()
        for part in ("storage", "elsewhere"):
            (tmp_path / part).mkdir()
            (tmp_path / part / "scan_holder.py").write_text(holder)
        report = run_lint([tmp_path], select=["R004"])
        assert [f.path.split("/")[-2] for f in report.findings] == ["storage"]

    def test_r005_names_the_shadowed_constant(self):
        messages = [f.message for f in lint_fixture("R005", "bad").findings]
        assert any("DEFAULT_ENGINE" in message for message in messages)
        assert any("DEFAULT_CACHE_CAPACITY" in message for message in messages)

    def test_r006_catches_getattr_indirection(self):
        messages = [f.message for f in lint_fixture("R006", "bad").findings]
        assert any("getattr" in message for message in messages)

    def test_r009_names_the_private_attribute(self):
        messages = [f.message for f in lint_fixture("R009", "bad").findings]
        assert any("_frontier_bits" in message for message in messages)
        assert any("_local_index" in message for message in messages)

    def test_r009_allows_self_and_ignores_other_modules(self, tmp_path):
        # `self._shards` inside the orchestrator is the store's own state;
        # the same reach outside storage/partition* is out of scope.
        source = (
            "class Store:\n"
            "    def __init__(self, shards):\n"
            "        self._shards = list(shards)\n"
            "    def fan_out(self):\n"
            "        return len(self._shards)\n"
        )
        inside = tmp_path / "storage" / "partition_util.py"
        inside.parent.mkdir(parents=True)
        inside.write_text(source + "def peek(shard):\n    return shard._bits\n")
        outside = tmp_path / "storage" / "overlay_probe.py"
        outside.write_text("def peek(shard):\n    return shard._bits\n")
        report = run_lint([tmp_path / "storage"], select=["R009"])
        assert [f.path for f in report.findings] == ["storage/partition_util.py"]
        assert "_bits" in report.findings[0].message

    def test_r006_covers_all_of_matching_but_the_engine(self, tmp_path):
        # No allowlist: the same membership test fires in a module the old
        # ten-name list never held (general_rq.py), in one nobody has written
        # yet, and nowhere outside matching/ or in the engine itself.
        bad = FIXTURES / "r006" / "bad" / "matching" / "general_rq.py"
        report = run_lint([bad.parent], select=["R006"])
        assert [f.path for f in report.findings if "comparison" in f.message] == [
            "matching/general_rq.py", "matching/refinement.py",
        ]
        assert ENGINE_MODULES == ("csr_engine.py",)
        for relpath in ("matching/brand_new.py", "matching/csr_engine.py", "storage/adapter.py"):
            target = tmp_path / relpath
            target.parent.mkdir(exist_ok=True)
            target.write_text(bad.read_text())
        report = run_lint([tmp_path], select=["R006"])
        assert [f.path.split("/", 1)[1] for f in report.findings] == ["matching/brand_new.py"]

    @pytest.mark.parametrize(
        "test, fires",
        [
            ('engine in ("auto", "csr")', True),
            ('engine not in ["dict"]', True),
            ('matcher.engine in {"csr"}', True),
            ('"csr" == engine', True),
            ("engine not in ENGINES", False),
            ("engine not in (DEFAULT_ENGINE, matcher.engine)", False),
            ('color in ("a", "b")', False),
        ],
    )
    def test_r006_membership_forms(self, tmp_path, test, fires):
        target = tmp_path / "matching" / "probe.py"
        target.parent.mkdir()
        target.write_text(f"def probe(engine, matcher, color):\n    return {test}\n")
        report = run_lint([tmp_path], select=["R006"])
        assert bool(report.findings) is fires, [f.render() for f in report.findings]


    @pytest.mark.parametrize(
        "relpath, body, fires",
        [
            ("matching/probe.py", "compiled.node_index(node)", True),
            ("matching/probe.py", "space.ids[handle]", True),
            ("matching/probe.py", "space.indices_of(nodes)", True),
            ("matching/probe.py", "set(space.ids_of(handles))", True),
            ("matching/probe.py", "matcher.node_ids(space, handles)", False),
            ("matching/probe.py", "matcher.id_pairs(space, matcher.edge_pairs(a, b, regex, space))", False),
            ("matching/paths.py", "set(space.ids_of(handles))", False),  # the seam
            ("matching/csr_engine.py", "compiled.node_index(node)", False),  # the engine
            ("storage/adapter.py", "compiled.node_index(node)", False),  # not under matching/
        ],
    )
    def test_r006_translation_happens_at_the_seam_only(self, tmp_path, relpath, body, fires):
        # An evaluator carries the handles its matcher's scans gave it; turning
        # them into node ids, or node ids into dense indices, by itself means
        # reading handles of one space in another.
        target = tmp_path / relpath
        target.parent.mkdir()
        arguments = "matcher, compiled, space, handles, nodes, node, handle, a, b, regex"
        target.write_text(f"def probe({arguments}):\n    return {body}\n")
        report = run_lint([tmp_path], select=["R006"])
        assert bool(report.findings) is fires, [f.render() for f in report.findings]
        assert all("translates" in finding.message for finding in report.findings)


class TestSuppressions:
    def _lint_file(self, tmp_path, source):
        target = tmp_path / "service" / "handler.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
        return run_lint([tmp_path / "service"], select=["R003"])

    def test_same_line_suppression(self, tmp_path):
        report = self._lint_file(
            tmp_path,
            "import time\n\n\n"
            "async def handler():\n"
            "    time.sleep(1)  # reprolint: ignore[R003]\n",
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_standalone_comment_covers_next_line(self, tmp_path):
        report = self._lint_file(
            tmp_path,
            "import time\n\n\n"
            "async def handler():\n"
            "    # reprolint: ignore[R003]\n"
            "    time.sleep(1)\n",
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_suppression_is_per_code(self, tmp_path):
        report = self._lint_file(
            tmp_path,
            "import time\n\n\n"
            "async def handler():\n"
            "    time.sleep(1)  # reprolint: ignore[R001]\n",
        )
        assert len(report.findings) == 1
        assert report.suppressed == 0

    def test_multiple_codes_in_one_marker(self, tmp_path):
        report = self._lint_file(
            tmp_path,
            "import time\n\n\n"
            "async def handler():\n"
            "    time.sleep(1)  # reprolint: ignore[R001, R003]\n",
        )
        assert report.findings == []
        assert report.suppressed == 1


class TestBaseline:
    def test_round_trip(self, tmp_path):
        report = lint_fixture("R008", "bad")
        assert report.findings
        baseline_file = tmp_path / "baseline.json"
        save_baseline(baseline_file, report.findings)
        baseline = load_baseline(baseline_file)
        fresh, grandfathered = partition_baseline(report.findings, baseline)
        assert fresh == []
        assert len(grandfathered) == len(report.findings)

    def test_identity_survives_line_drift(self, tmp_path):
        report = lint_fixture("R008", "bad")
        baseline_file = tmp_path / "baseline.json"
        save_baseline(baseline_file, report.findings)
        baseline = load_baseline(baseline_file)
        shifted = [
            type(finding)(
                rule=finding.rule,
                path=finding.path,
                line=finding.line + 40,
                message=finding.message,
            )
            for finding in report.findings
        ]
        fresh, grandfathered = partition_baseline(shifted, baseline)
        assert fresh == []
        assert len(grandfathered) == len(shifted)

    def test_written_file_is_stable_json(self, tmp_path):
        report = lint_fixture("R008", "bad")
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_baseline(first, report.findings)
        save_baseline(second, list(reversed(report.findings)))
        assert first.read_text() == second.read_text()
        document = json.loads(first.read_text())
        assert document["schema"] == 1

    def test_rejects_bad_schema(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"schema": 99, "findings": []}')
        with pytest.raises(AnalysisError):
            load_baseline(bad)

    def test_rejects_malformed_entries(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"schema": 1, "findings": [{"rule": "R001"}]}')
        with pytest.raises(AnalysisError):
            load_baseline(bad)

    def test_rejects_invalid_json(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{nope")
        with pytest.raises(AnalysisError):
            load_baseline(bad)


class TestFramework:
    def test_rule_codes_are_stable(self):
        assert RULE_CODES == (
            "R001", "R002", "R003", "R004",
            "R005", "R006", "R007", "R008",
            "R009",
        )

    def test_all_rules_are_fresh_instances(self):
        first, second = all_rules(), all_rules()
        assert [r.code for r in first] == list(RULE_CODES)
        assert all(a is not b for a, b in zip(first, second))
        for rule in first:
            assert rule.name and rule.summary

    def test_unknown_select_code_raises(self):
        with pytest.raises(AnalysisError) as excinfo:
            run_lint([FIXTURES / "r007" / "good"], select=["R999"])
        assert "R999" in str(excinfo.value)
        assert isinstance(excinfo.value, ReproError)
        assert excinfo.value.code == "repro.analysis.failed"

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError):
            run_lint([FIXTURES / "does-not-exist"])

    def test_unparsable_source_raises(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        with pytest.raises(AnalysisError):
            run_lint([broken])

    def test_single_file_scan(self):
        target = FIXTURES / "r007" / "bad" / "surface.py"
        report = run_lint([target], select=["R007"])
        assert report.files_scanned == 1
        assert report.findings

    def test_findings_are_sorted_and_serialisable(self):
        report = lint_fixture("R001", "bad")
        rendered = [f.render() for f in report.findings]
        assert rendered == sorted(rendered)
        for finding in report.findings:
            payload = finding.to_dict()
            assert set(payload) == {"rule", "path", "line", "col", "message"}
            json.dumps(payload)

    def test_report_to_dict_shape(self):
        report = lint_fixture("R003", "bad")
        payload = report.to_dict()
        assert payload["files_scanned"] == report.files_scanned
        assert payload["rules"] == ["R003"]
        assert len(payload["findings"]) == len(report.findings)


class TestSourceTreeGate:
    """The repo's own source must satisfy its own contracts."""

    def test_src_lints_clean_beyond_baseline(self):
        report = run_lint([REPO_ROOT / "src"])
        baseline = load_baseline(REPO_ROOT / ".reprolint-baseline.json")
        fresh, _ = partition_baseline(report.findings, baseline)
        assert fresh == [], "\n".join(f.render() for f in fresh)

    def test_shipped_baseline_is_empty(self):
        assert load_baseline(REPO_ROOT / ".reprolint-baseline.json") == set()

    def test_src_scan_covers_the_whole_tree(self):
        report = run_lint([REPO_ROOT / "src"])
        assert report.files_scanned >= 85
        assert report.rules == list(RULE_CODES)


class TestPermutationRobustness:
    """Rules judge structure, not layout: reordering clean code stays clean."""

    def test_hypothesis_permutations_of_clean_fixtures(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        import ast
        import itertools
        import random

        from hypothesis import strategies as st

        # rule dir name -> {path under good/: source text}
        fixtures = {}
        for rule_dir in sorted(FIXTURES.glob("r00*")):
            good = rule_dir / "good"
            fixtures[rule_dir.name] = {
                str(path.relative_to(good)): path.read_text(encoding="utf-8")
                for path in sorted(good.rglob("*.py"))
            }
        counter = itertools.count()

        @hypothesis.given(
            rule_name=st.sampled_from(sorted(fixtures)),
            seed=st.integers(min_value=0, max_value=2**16),
            pad=st.integers(min_value=0, max_value=3),
        )
        @hypothesis.settings(max_examples=24, deadline=None)
        def check(rule_name, seed, pad):
            case = tmp_path / f"{rule_name}-{next(counter)}"
            rng = random.Random(seed)
            for relative, source in fixtures[rule_name].items():
                tree = ast.parse(source)
                rng.shuffle(tree.body)  # top-level order is semantically free
                text = ast.unparse(tree) + "\n"
                if pad:
                    text += "\n".join(f"PADDING_{i} = {i}" for i in range(pad)) + "\n"
                target = case / relative
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text, encoding="utf-8")
            code = "R00" + rule_name[3]
            report = run_lint([case], select=[code])
            assert report.findings == [], [f.render() for f in report.findings]

        check()
