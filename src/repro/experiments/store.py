"""JSONL campaign result store and aggregation API.

The scheduler appends one JSON line per completed (or cache-served) job to
a :class:`ResultStore`; :func:`collect_results` folds a stream of records
back into the ``dict[benchmark -> BenchmarkResult]`` shape every existing
table/figure module consumes.  The store is append-only — re-runs append
fresh records and aggregation keeps the newest per (benchmark, config,
seed) — so an interrupted campaign's file is never invalid, merely shorter.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.experiments.codec import (
    run_stats_from_dict,
    trace_stats_from_dict,
)
from repro.harness.runner import BenchmarkResult, ExperimentScale

#: Default result-cache location (relative to the current working
#: directory).  It lives here, not in :mod:`repro.experiments.cache`, so
#: the CLI parser can name it as the ``--cache-dir`` default and
#: ``campaign report``, which reads only the store, loads no cache code.
DEFAULT_CACHE_DIR = Path("results") / "cache"


class ResultStore:
    """An append-only JSONL file of job records."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)

    def append(self, *records: dict[str, Any]) -> None:
        """Append *records*, one line each, in one write."""
        if not records:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            handle.write("".join(
                json.dumps(record, sort_keys=True) + "\n" for record in records
            ))

    def load(self) -> list[dict[str, Any]]:
        """All valid records in file order (bad lines are skipped)."""
        if not self.path.is_file():
            return []
        records = []
        with self.path.open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) and "run_stats" in record:
                    records.append(record)
        return records

    def __len__(self) -> int:
        return len(self.load())


def record_scale(record: dict[str, Any]) -> ExperimentScale:
    scale = record["scale"]
    return ExperimentScale(
        name=scale.get("name", "stored"),
        num_instructions=scale["num_instructions"],
        warmup=scale["warmup"],
    )


def collect_results(
    records: Iterable[dict[str, Any]],
    seed: int | None = None,
    benchmarks: Sequence[str] | None = None,
) -> dict[str, BenchmarkResult]:
    """Fold job *records* into per-benchmark results.

    ``seed`` selects one seed's records from a multi-seed store; it may be
    omitted only when the records hold a single seed.  Records must agree
    on the behavioural scale fields — mixing, say, smoke- and full-scale
    records would silently blend trace and run statistics, so it raises
    instead (filter the records first).  The newest record wins when a
    (benchmark, config, seed) combination appears twice.  Results are
    keyed and ordered by *benchmarks* when given, else by first
    appearance.
    """
    records = list(records)
    if seed is not None:
        records = [r for r in records if r["seed"] == seed]
    if benchmarks is not None:
        wanted = set(benchmarks)
        records = [r for r in records if r["benchmark"] in wanted]
    seeds = {r["seed"] for r in records}
    if len(seeds) > 1:
        raise ValueError(
            f"records span seeds {sorted(seeds)}; pass seed= to select one"
        )
    scales = {
        (r["scale"]["num_instructions"], r["scale"]["warmup"])
        for r in records
    }
    if len(scales) > 1:
        raise ValueError(
            f"records span scales {sorted(scales)} "
            "(num_instructions, warmup); filter to one before aggregating"
        )
    results: dict[str, BenchmarkResult] = {}
    # (benchmark, config) -> its newest record, the only one decoded; a
    # re-assigned key keeps its place, so runs are in first-appearance
    # order.
    newest: dict[tuple[str, str], dict[str, Any]] = {}
    for record in records:
        name = record["benchmark"]
        if name not in results:
            results[name] = BenchmarkResult(
                name=name,
                scale=record_scale(record),
                trace_stats=trace_stats_from_dict(record["trace_stats"]),
            )
        newest[name, record["config_name"]] = record
    for (name, config_name), record in newest.items():
        results[name].runs[config_name] = run_stats_from_dict(
            record["run_stats"]
        )
    if benchmarks is not None:
        results = {
            name: results[name] for name in benchmarks if name in results
        }
    return results
