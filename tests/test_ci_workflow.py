"""Dry-parse of the CI workflow: keeps .github/workflows/ci.yml loadable.

A malformed workflow fails silently on GitHub (the run simply never starts),
so the tier-1 suite validates the YAML structure and the commands it would
run.  Skipped when PyYAML is unavailable.
"""

import pathlib

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow():
    with WORKFLOW.open(encoding="utf-8") as handle:
        return yaml.safe_load(handle)


class TestCiWorkflow:
    def test_parses_and_triggers_on_main(self, workflow):
        # YAML 1.1 parses the bare key `on` as boolean True.
        triggers = workflow.get("on", workflow.get(True))
        assert triggers is not None
        assert triggers["push"]["branches"] == ["main"]
        assert triggers["pull_request"]["branches"] == ["main"]

    def test_test_job_matrix_and_steps(self, workflow):
        job = workflow["jobs"]["test"]
        assert job["strategy"]["matrix"]["python-version"] == [
            "3.9", "3.10", "3.11", "3.12", "3.13",
        ]
        commands = "\n".join(step.get("run", "") for step in job["steps"])
        assert "pip install -e .[dev]" in commands
        assert "ruff check" in commands
        assert "pytest -x -q" in commands

    def test_quick_job_deselects_slow_suites(self, workflow):
        job = workflow["jobs"]["test"]
        quick = [
            step
            for step in job["steps"]
            if "not slow" in step.get("run", "")
        ]
        assert quick, "non-primary matrix versions must deselect -m slow suites"
        # The quick run must be the NON-primary legs — the primary one runs
        # the full suite under coverage.
        assert all(
            "python-version != '3.12'" in step.get("if", "") for step in quick
        )

    def test_coverage_floor_and_artifact(self, workflow):
        job = workflow["jobs"]["test"]
        commands = "\n".join(step.get("run", "") for step in job["steps"])
        assert "--cov=repro" in commands
        assert "--cov-report=xml" in commands
        # The floor is a concrete percentage (measured baseline minus 1%).
        import re

        floors = re.findall(r"--cov-fail-under=(\d+)", commands)
        assert floors and all(50 <= int(value) <= 100 for value in floors)
        uploads = [
            step
            for step in job["steps"]
            if "upload-artifact" in step.get("uses", "")
        ]
        assert uploads and uploads[0]["with"]["path"] == "coverage.xml"
        assert "3.12" in uploads[0]["if"]

    def test_benchmark_job_runs_session_plan_smoke(self, workflow):
        job = workflow["jobs"]["benchmark-smoke"]
        commands = "\n".join(
            step.get("run", "") for step in job["steps"] if "run" in step
        )
        assert "repro.cli plan" in commands
        assert "--general" in commands
        assert "--session" in commands

    def test_benchmark_job_emits_artifact(self, workflow):
        job = workflow["jobs"]["benchmark-smoke"]
        commands = "\n".join(step.get("run", "") for step in job["steps"])
        assert "--benchmark-json=bench.json" in commands
        assert "--benchmark-min-rounds=1" in commands
        uploads = [step for step in job["steps"] if "upload-artifact" in step.get("uses", "")]
        assert uploads and uploads[0]["with"]["path"] == "bench.json"

    @pytest.mark.parametrize("gate", ["overlay", "serve", "semcache", "kernels", "partition"])
    def test_benchmark_sweep_collects_gate_file(self, workflow, gate):
        # The five files that used to run as steps of their own, each with
        # its own JSON artifact, are collected by the one `pytest benchmarks`
        # sweep: the file exists in the directory that sweep collects, no
        # step ignores it or names it, and there is one sweep and one JSON
        # (with the partition benchmark's full scale armed on it).
        job = workflow["jobs"]["benchmark-smoke"]
        gate_file = f"test_bench_{gate}.py"
        assert (WORKFLOW.parent.parent.parent / "benchmarks" / gate_file).is_file()
        commands = "\n".join(step.get("run", "") for step in job["steps"])
        assert gate_file not in commands
        assert "--ignore" not in commands
        sweeps = [
            step for step in job["steps"]
            if "--benchmark-json" in step.get("run", "")
        ]
        assert len(sweeps) == 1
        assert "python -m pytest benchmarks -q" in sweeps[0]["run"]
        assert "--benchmark-json=bench.json" in sweeps[0]["run"]
        assert sweeps[0]["env"]["REPRO_BENCH_PARTITION"] == "full"
        paths = [
            step["with"]["path"]
            for step in job["steps"]
            if "upload-artifact" in step.get("uses", "")
        ]
        assert paths == ["bench.json", "bench-serve.json"]

    def test_benchmark_job_runs_serve_load_burst(self, workflow):
        # The serving layer is exercised two ways: the pytest-benchmark file
        # (timings; collected by the benchmarks sweep, see the parametrised
        # test above) and the CLI load burst, whose exit code gates the job
        # on the snapshot-isolation verification.
        job = workflow["jobs"]["benchmark-smoke"]
        commands = "\n".join(step.get("run", "") for step in job["steps"])
        assert "repro.cli serve" in commands
        assert "--load-burst" in commands
        assert "--readers 8" in commands
        assert "--out bench-serve.json" in commands

    def test_benchmark_job_uploads_serve_artifact(self, workflow):
        job = workflow["jobs"]["benchmark-smoke"]
        paths = "\n".join(
            step["with"]["path"]
            for step in job["steps"]
            if "upload-artifact" in step.get("uses", "")
        )
        assert "bench-serve.json" in paths

    def test_matrix_matches_pyproject_classifiers(self, workflow):
        # Every interpreter the matrix tests must be advertised as a trove
        # classifier, and vice versa — the two lists drift silently otherwise
        # (3.13 was in the matrix but missing from pyproject for two releases).
        import re

        pyproject = WORKFLOW.parent.parent.parent / "pyproject.toml"
        text = pyproject.read_text(encoding="utf-8")
        classifiers = set(
            re.findall(r'"Programming Language :: Python :: (3\.\d+)"', text)
        )
        matrix = set(workflow["jobs"]["test"]["strategy"]["matrix"]["python-version"])
        assert classifiers == matrix

    def test_no_numpy_leg_exercises_kernel_fallback(self, workflow):
        # Exactly one matrix leg must run without numpy so the pure-python
        # kernel fallback gets full tier-1 coverage; the other legs install
        # the `fast` extra and run the vectorised kernels.
        job = workflow["jobs"]["test"]
        fast_installs = [
            step for step in job["steps"] if ".[fast]" in step.get("run", "")
        ]
        assert fast_installs, "vector-kernel legs must install the fast extra"
        assert all("!=" in step.get("if", "") for step in fast_installs)
        fallback_checks = [
            step
            for step in job["steps"]
            if "active_kernel_name" in step.get("run", "")
        ]
        assert fallback_checks, "the no-numpy leg must assert the python backend"
        excluded = fast_installs[0]["if"].split("!=")[1].strip().strip("'\"")
        assert f"== '{excluded}'" in fallback_checks[0]["if"]

    def test_no_numpy_leg_runs_origin_relation_parity(self, workflow):
        # The quick tier-1 run deselects the `slow` hypothesis suites that pin
        # expand_origins and the origin relation's operators, the engine's
        # relation fold and NFA product and the index-space
        # evaluators; the no-numpy leg must run them by name, on the only
        # backend it has.
        job = workflow["jobs"]["test"]
        fallback_if = next(
            step["if"] for step in job["steps"] if "active_kernel_name" in step.get("run", "")
        )
        parity = [step for step in job["steps"] if "relation_fold" in step.get("run", "")]
        assert len(parity) == 1 and parity[0]["if"] == fallback_if
        command = parity[0]["run"]
        for needle in (
            "tests/test_kernels.py", "tests/test_csr_engine.py", "origins", "nfa_product",
            # The handle-space parity suite is named.
            "tests/test_session_parity.py", "handle_space",
            # The candidate bitmap's algebra, both forms of expand_frontier, the range check.
            "tests/test_store_parity.py", "bitmap",
            # Every single-start read against the set-level read of its singleton.
            "singleton_set",
            # The one-hop read against the oracle's bound-1 frontier.
            "neighbors_of",
        ):
            assert needle in command
        assert "not slow" not in command

    def test_benchmark_job_runs_repo_benchmark_smoke(self, workflow):
        # bench/test_smoke.py is outside pytest's testpaths (tier-1 never
        # collects it), so the benchmark job must run it by path.
        job = workflow["jobs"]["benchmark-smoke"]
        commands = [step.get("run", "").strip() for step in job["steps"]]
        assert "python -m pytest bench -q" in commands

    def test_primary_leg_runs_reprolint_and_uploads_report(self, workflow):
        # reprolint gates the primary leg: `repro lint` exits 1 on any
        # non-baseline finding, and the JSON report must upload even when
        # the step fails so the findings are inspectable as an artifact.
        job = workflow["jobs"]["test"]
        lint_steps = [
            step for step in job["steps"] if "repro.cli lint" in step.get("run", "")
        ]
        assert lint_steps, "the primary leg must run reprolint over src"
        step = lint_steps[0]
        assert "--json" in step["run"]
        assert "lint-report.json" in step["run"]
        assert "3.12" in step.get("if", "")
        uploads = [
            step
            for step in job["steps"]
            if "upload-artifact" in step.get("uses", "")
            and "lint-report.json" in str(step.get("with", {}).get("path", ""))
        ]
        assert uploads, "lint-report.json must upload as an artifact"
        assert "always()" in uploads[0]["if"]
        assert "3.12" in uploads[0]["if"]

    def test_reprolint_rule_registry_matches_pyproject(self, workflow):
        # pyproject's [tool.reprolint] rule list is the reviewed registry;
        # the package's RULE_CODES must match it exactly.
        import re

        from repro.analysis import RULE_CODES

        pyproject = WORKFLOW.parent.parent.parent / "pyproject.toml"
        text = pyproject.read_text(encoding="utf-8")
        section = re.search(r"\[tool\.reprolint\].*?(?=\n\[|\Z)", text, re.DOTALL)
        assert section, "pyproject.toml must carry a [tool.reprolint] section"
        declared = re.findall(r'"(R\d{3})"', section.group(0))
        assert tuple(declared) == RULE_CODES
