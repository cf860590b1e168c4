"""Shared utilities of the experiment harness: timing, averaging, tables."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple


def time_call(func: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``func`` once and return ``(result, elapsed_seconds)``."""
    started = time.perf_counter()
    result = func()
    return result, time.perf_counter() - started


def average_seconds(samples: Iterable[float]) -> float:
    """Arithmetic mean of timing samples (0.0 for an empty iterable)."""
    values = list(samples)
    return statistics.fmean(values) if values else 0.0


def validate_engines(engines: Iterable[str]) -> None:
    """Reject engine names other than ``dict``/``csr`` for report columns."""
    from repro.exceptions import EvaluationError

    for engine in engines:
        if engine not in ("dict", "csr"):
            raise EvaluationError(
                f"unknown engine {engine!r}; expected 'dict' and/or 'csr'"
            )


def engine_column(prefix: str, engine: str) -> str:
    """Report column for one timing series and engine.

    One naming scheme shared by the PQ experiments (exp1, exp4): the dict
    engine keeps the classic cache-mode ``_c`` suffix, the CSR engine gets
    ``_csr`` (``engine_column("t_joinmatch", "csr") == "t_joinmatch_csr"``).
    (exp3 predates this helper and keeps its ``t_bibfs``/``t_bfs`` names for
    the dict columns.)
    """
    return f"{prefix}_c" if engine == "dict" else f"{prefix}_{engine}"


def build_experiment_session(graph: Any, engines: Iterable[str]) -> Any:
    """One warm :class:`~repro.session.session.GraphSession` per experiment.

    The exp3 protocol, shared so exp1/exp4 cannot drift from it: the
    session's per-engine matchers are reused across every query of an
    experiment, and the one-off CSR snapshot compile happens here — outside
    the caller's timed region.  Experiments run their engine-timed variants
    as *prepared queries* on this session, with the semantic cache off: each
    variant of a query evaluates, instead of being served the first one's
    answer and time.
    """
    from repro.graph.csr import compiled_snapshot
    from repro.session.session import GraphSession

    session = GraphSession(graph, semantic_cache_capacity=0)
    for engine in engines:
        session.matcher(engine)
    if "csr" in engines:
        compiled_snapshot(graph)
    return session


def time_pq_search_variants(
    query: Any,
    session: Any,
    engines: Iterable[str],
    join_reference: Any,
    split_reference: Any,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Time JoinMatch/SplitMatch per engine via prepared queries on ``session``.

    Shared by the engine-aware PQ experiments (exp1, exp4) so the timing and
    parity-abort protocol cannot drift between them.  Each (algorithm,
    engine) pair is prepared with forced planner overrides and executed on
    the session's warm matchers; every answer is asserted identical to the
    supplied references.  Returns ``({engine: join_seconds}, {engine:
    split_seconds})`` where the seconds are the underlying evaluation time
    (the envelope's ``answer.elapsed_seconds``, excluding planner glue).
    """
    join_times: Dict[str, float] = {}
    split_times: Dict[str, float] = {}
    for engine in engines:
        join_result = session.prepare(query, algorithm="join", engine=engine).execute()
        split_result = session.prepare(query, algorithm="split", engine=engine).execute()
        if not (
            join_result.answer.same_matches(join_reference)
            and split_result.answer.same_matches(split_reference)
        ):
            raise AssertionError(
                f"PQ evaluation disagrees (engine={engine}); "
                "this indicates a bug in the library"
            )
        join_times[engine] = join_result.answer.elapsed_seconds
        split_times[engine] = split_result.answer.elapsed_seconds
    return join_times, split_times


@dataclass
class ExperimentReport:
    """A named collection of result rows (one row per plotted point)."""

    name: str
    description: str = ""
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def add_row(self, **values: Any) -> Dict[str, Any]:
        self.rows.append(values)
        return values

    def column(self, key: str) -> List[Any]:
        """All values of one column, in row order."""
        return [row.get(key) for row in self.rows]

    def to_table(self) -> str:
        header = f"== {self.name} =="
        if self.description:
            header += f"\n{self.description}"
        return f"{header}\n{format_table(self.rows)}"

    def to_json_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable view (``repro experiment --json`` emits it).

        Row values go through the shared coercion policy
        (:mod:`repro.jsonutil`), so the output always serialises.
        """
        from repro.jsonutil import jsonable_mapping

        return {
            "name": self.name,
            "description": self.description,
            "rows": [jsonable_mapping(row) for row in self.rows],
        }

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def format_table(rows: Sequence[Dict[str, Any]]) -> str:
    """Render rows as a plain-text table (the shape the paper's figures plot)."""
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    widths = {
        column: max(len(column), *(len(fmt(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines = [
        "  ".join(column.ljust(widths[column]) for column in columns),
        "  ".join("-" * widths[column] for column in columns),
    ]
    for row in rows:
        lines.append(
            "  ".join(fmt(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
