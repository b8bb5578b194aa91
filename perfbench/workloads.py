"""The benchmark's workloads: what each one prepares, times and checks.

Each workload drives the program only through its public entry points:
``repro.api.resolve_configs``, ``CampaignSpec``/``run_campaign`` and the
``repro`` command line.  A workload's timed *units* (``units`` and
``run_unit``) together make one iteration (``run_once``); each returns its
wall and CPU time and one digest per output, which the gate in ``run.py``
compares with the recorded digests.

Why these three (see README.md for the layer map):

* ``campaign-cold`` is the README/CI sweep: every profile x the standard
  set, two workers, empty cache.  It is the only workload that uses the
  process pool, NoSQ bypassing and SVW, and it writes the cache.
* ``trace-replay`` simulates saved v2 traces on ``conventional`` in one
  process without a cache, so trace decoding is a large share of its time
  and the NoSQ layers and the synthetic generator do no work.
* ``campaign-rerun`` repeats ``repro campaign run`` and ``repro campaign
  report`` in fresh processes against a filled cache; nothing is
  simulated, so it shows per-process costs (import, config registry, key
  hashing, cache reads, store appends, report rendering).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import api
from repro.experiments import (
    CampaignSpec,
    ResultCache,
    ResultStore,
    run_campaign,
)
from repro.experiments.codec import (
    canonical_json,
    run_stats_to_dict,
    trace_stats_to_dict,
)
from repro.harness.runner import (
    ExperimentScale,
    make_trace,
    run_benchmark,
)
from repro.isa.tracefile import save_trace
from repro.workloads.profiles import PROFILES

SRC = Path(__file__).resolve().parent.parent / "src"

#: Profiles replayed by ``trace-replay``: they span Table 5's
#: communication rates (0% to 48% of loads) and include the two
#: memory-bound profiles (mcf, applu) and one heavily partial-word one.
REPLAY_PROFILES = (
    "adpcm.d", "mcf", "crafty", "applu", "twolf", "gzip", "vortex", "mesa.o",
)

#: Trace size of the two campaign workloads: a quarter of smoke scale with
#: smoke's warmup share (37.5%).  A whole sweep then takes a few seconds,
#: so a run holds several iterations; see README.md for why.
CAMPAIGN_SCALE = ExperimentScale("bench", num_instructions=2_000, warmup=750)

#: Trace size of ``trace-replay``: a sixth of full scale with full scale's
#: warmup share (50%).
REPLAY_SCALE = ExperimentScale("replay", num_instructions=10_000,
                               warmup=5_000)

#: Profiles per campaign in one unit of ``campaign-cold``.  A sweep runs as
#: several pooled campaigns of a fraction of a second each, so that each
#: unit's time is taken against the reference loop run right before and
#: after it (see README.md).  Six profiles give each of the two workers
#: three groups.
COLD_CHUNK = 6

_COUNTS = re.compile(r"(\d+) jobs: (\d+) cached, (\d+) executed")


def job_digest(record: dict[str, Any]) -> str:
    """Digest of one job's simulated output (host timings excluded)."""
    payload = {
        "config_name": record["config_name"],
        "seed": record["seed"],
        "run_stats": record["run_stats"],
        "trace_stats": record["trace_stats"],
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:12]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def cpu_clock() -> float:
    """CPU seconds of this process and of every child it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def cli_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@dataclass
class Iteration:
    """One timed unit of a workload."""

    wall_s: float
    #: Output label (``benchmark/config``, or ``report``) -> digest.
    outputs: dict[str, str]
    #: Job records of the jobs it simulated (none for ``campaign-rerun``).
    records: list[dict[str, Any]] = field(default_factory=list)
    #: Checks that failed inside the iteration, one line each.
    problems: list[str] = field(default_factory=list)
    #: CPU seconds of this process and its children in the timed part.
    cpu_s: float = 0.0


def merge(units: list[Iteration]) -> Iteration:
    """One iteration made of several units run back to back."""
    merged = Iteration(sum(u.wall_s for u in units), {},
                       cpu_s=sum(u.cpu_s for u in units))
    for unit in units:
        merged.outputs.update(unit.outputs)
        merged.records.extend(unit.records)
        merged.problems.extend(unit.problems)
    return merged


class ColdCampaign:
    """``campaign-cold``: a whole standard sweep from an empty cache."""

    name = "campaign-cold"
    #: Whether the workload's own iteration shards jobs over a pool.
    pooled = True
    #: The reference its units' CPU times are taken against (``run.py``):
    #: interpreted work in this process and the pool's workers.
    reference = "loop"
    #: In-process passes of the traced run (each pass is long enough).
    trace_passes = 1

    def __init__(self, work: Path, seed: int,
                 profiles: tuple[str, ...] | None = None,
                 scale: ExperimentScale = CAMPAIGN_SCALE,
                 jobs: int = 2, chunk: int = COLD_CHUNK) -> None:
        self.work = work.absolute()
        self.seed = seed
        self.profiles = tuple(profiles or PROFILES)
        self.scale = scale
        self.jobs = jobs
        self.chunk = chunk
        self.configs = "standard"
        self.cache_dir = self.work / "cache"
        self.store_path = self.work / "campaign.jsonl"

    @property
    def benchmarks(self) -> list[str]:
        return list(self.profiles)

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def probe_plan(self) -> dict[str, Any]:
        """What ``setup_probe.py`` plans in a fresh interpreter."""
        return {
            "benchmarks": self.benchmarks,
            "configs": self.configs,
            "scale": [self.scale.name, self.scale.num_instructions,
                      self.scale.warmup],
            "seed": self.seed,
            "cache": str(self.work / "probe-cache"),
            "cli": False,
        }

    def label(self, record: dict[str, Any]) -> str:
        return f"{record['benchmark']}/{record['config_name']}"

    def _cache(self) -> ResultCache | None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        return ResultCache(self.cache_dir)

    def units(self) -> list[tuple[str, ...]]:
        """The benchmarks of each campaign an iteration runs in turn."""
        names = self.benchmarks
        return [tuple(names[i:i + self.chunk])
                for i in range(0, len(names), self.chunk)]

    def run_once(self, jobs: int | None = None) -> Iteration:
        """One iteration: every unit once, back to back."""
        return merge([self.run_unit(unit, jobs) for unit in self.units()])

    def run_unit(self, benchmarks: tuple[str, ...],
                 jobs: int | None = None) -> Iteration:
        cache = self._cache()
        self.store_path.unlink(missing_ok=True)
        start, cpu = time.perf_counter(), cpu_clock()
        spec = CampaignSpec(
            benchmarks=list(benchmarks),
            configs=api.resolve_configs(self.configs),
            scale=self.scale,
            seeds=(self.seed,),
            name=self.name,
        )
        result = run_campaign(
            spec, jobs=self.jobs if jobs is None else jobs, cache=cache,
            store=ResultStore(self.store_path),
        )
        wall = time.perf_counter() - start
        outputs = {self.label(r): job_digest(r) for r in result.records}
        return Iteration(wall, outputs, result.records,
                         cpu_s=cpu_clock() - cpu)

    def run_sweep(self, jobs: int | None = None) -> Iteration:
        """The whole sweep as one campaign, as a user runs it."""
        return self.run_unit(tuple(self.benchmarks), jobs)

    def run_inprocess(self) -> Iteration:
        """The traced run's pass: the whole sweep with one worker."""
        return self.run_sweep(jobs=1)

    def cross_check(self, iteration: Iteration) -> list[str]:
        """Re-simulate one benchmark serially through ``run_benchmark``
        and compare with the campaign's outputs (parallel == serial)."""
        name = random.Random(self.seed).choice(self.profiles)
        result = run_benchmark(
            name, api.resolve_configs(self.configs), self.scale, self.seed
        )
        return _compare_serial(self, name, result, iteration)


class TraceReplay(ColdCampaign):
    """``trace-replay``: saved v2 traces on ``conventional``, inline."""

    name = "trace-replay"
    pooled = False

    def __init__(self, work: Path, seed: int,
                 profiles: tuple[str, ...] = REPLAY_PROFILES,
                 scale: ExperimentScale = REPLAY_SCALE) -> None:
        super().__init__(work, seed, profiles, scale, jobs=1, chunk=1)
        self.configs = "conventional"
        self.trace_dir = self.work / "traces"

    def trace_path(self, profile: str) -> Path:
        return self.trace_dir / f"{profile}.bt"

    @property
    def benchmarks(self) -> list[str]:
        return [f"trace:{self.trace_path(p)}" for p in self.profiles]

    def prepare(self) -> None:
        """Record one trace per profile (untimed)."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        for profile in self.profiles:
            trace = make_trace(profile, self.scale, self.seed)
            save_trace(trace, self.trace_path(profile), version=2)

    def probe_plan(self) -> dict[str, Any]:
        return dict(super().probe_plan(), cache=None)

    def label(self, record: dict[str, Any]) -> str:
        profile = Path(record["benchmark"]).stem
        return f"{profile}/{record['config_name']}"

    def _cache(self) -> ResultCache | None:
        return None

    def cross_check(self, iteration: Iteration) -> list[str]:
        """Simulate one trace from memory, as generated, and compare with
        the run from its saved file (v2 round trip is bit-identical)."""
        name = random.Random(self.seed).choice(self.profiles)
        trace = make_trace(name, self.scale, self.seed)
        result = run_benchmark(
            name, api.resolve_configs(self.configs), self.scale, self.seed,
            trace=trace,
        )
        return _compare_serial(self, name, result, iteration)


def _compare_serial(workload: ColdCampaign, name: str, result: Any,
                    iteration: Iteration) -> list[str]:
    problems = []
    for config_name, stats in result.runs.items():
        label = f"{name}/{config_name}"
        want = job_digest({
            "config_name": config_name,
            "seed": workload.seed,
            "run_stats": run_stats_to_dict(stats),
            "trace_stats": trace_stats_to_dict(result.trace_stats),
        })
        got = iteration.outputs.get(label)
        if got != want:
            problems.append(
                f"{label}: campaign output {got} != serial re-run {want}"
            )
    return problems


class CampaignRerun(ColdCampaign):
    """``campaign-rerun``: fresh-process re-run and report, all cached."""

    name = "campaign-rerun"
    pooled = False
    #: Each unit is two fresh interpreters.
    reference = "startup"
    #: A pass takes a fraction of a second, so the traced run repeats it.
    trace_passes = 5

    def __init__(self, work: Path, seed: int,
                 profiles: tuple[str, ...] | None = None,
                 scale: ExperimentScale = CAMPAIGN_SCALE,
                 jobs: int = 2) -> None:
        super().__init__(work, seed, profiles, scale, jobs,
                         chunk=len(profiles or PROFILES))
        self._all_profiles = profiles is None
        self._pristine = b""

    def _run_args(self, jobs: int) -> list[str]:
        # Without positional benchmarks the CLI sweeps every profile,
        # which is the command users type.
        positional = [] if self._all_profiles else list(self.profiles)
        return [
            "campaign", "run", *positional,
            "-n", str(self.scale.num_instructions),
            "-w", str(self.scale.warmup),
            "--seed", str(self.seed), "--configs", self.configs,
            "--jobs", str(jobs), "--cache-dir", str(self.cache_dir),
            "--store", str(self.store_path), "--quiet",
        ]

    def _report_args(self) -> list[str]:
        return ["campaign", "report", "--store", str(self.store_path)]

    def _cli(self, args: list[str]) -> str:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *args], cwd=self.work,
            env=cli_env(), capture_output=True, text=True,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"repro {' '.join(args[:2])} exited {done.returncode}: "
                f"{done.stderr.strip()}"
            )
        return done.stdout

    def prepare(self) -> None:
        """Fill the cache and the store once (untimed).

        One worker fills the store in spec order.  ``campaign report``
        orders rows by first appearance in the store, so a pooled fill
        (records in completion order) would change the report text from
        one preparation to the next."""
        super().prepare()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.store_path.unlink(missing_ok=True)
        self._cli(self._run_args(1))
        self._pristine = self.store_path.read_bytes()

    def probe_plan(self) -> dict[str, Any]:
        return dict(super().probe_plan(), cache=str(self.cache_dir), cli=True)

    def _restore_store(self) -> None:
        """Put the store back to its prepared contents, so every
        invocation starts from the same store."""
        self.store_path.write_bytes(self._pristine)

    def _iteration(self, wall: float, run_out: str, report: str) -> Iteration:
        problems = []
        match = _COUNTS.search(run_out)
        if match is None:
            problems.append(f"no job counts in campaign run output: {run_out!r}")
            counts = "?"
        else:
            total, hits, executed = (int(g) for g in match.groups())
            counts = f"{total} {hits} {executed}"
            if hits != total or executed != 0:
                problems.append(
                    f"re-run served {hits}/{total} from cache and executed "
                    f"{executed}"
                )
        return Iteration(
            wall, {"report": text_digest(f"{counts}\n{report}")},
            problems=problems,
        )

    def run_unit(self, benchmarks: tuple[str, ...],
                 jobs: int | None = None) -> Iteration:
        """One invocation pair; its one unit is the whole sweep."""
        self._restore_store()
        start, cpu = time.perf_counter(), cpu_clock()
        run_out = self._cli(self._run_args(self.jobs if jobs is None else jobs))
        report = self._cli(self._report_args())
        wall = time.perf_counter() - start
        iteration = self._iteration(wall, run_out, report)
        iteration.cpu_s = cpu_clock() - cpu
        return iteration

    def run_inprocess(self) -> Iteration:
        from repro import cli

        self._restore_store()
        run_out, report = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(run_out):
            status = cli.main(self._run_args(1))
        with contextlib.redirect_stdout(report):
            status = status or cli.main(self._report_args())
        wall = time.perf_counter() - start
        iteration = self._iteration(wall, run_out.getvalue(), report.getvalue())
        if status:
            iteration.problems.append(f"in-process CLI exited {status}")
        return iteration

    def cross_check(self, iteration: Iteration) -> list[str]:
        """After an invocation the store holds the records the filling run
        executed, then the ones the invocation served from the cache;
        both must hold the same results."""
        records = ResultStore(self.store_path).load()
        filled = len(self._pristine.splitlines())
        executed = {self.label(r): job_digest(r) for r in records[:filled]}
        served = {self.label(r): job_digest(r) for r in records[filled:]}
        if not served or served != executed:
            differ = sorted(k for k in executed if served.get(k) != executed[k])
            return [
                f"{len(differ)} of {len(executed)} results served from the "
                f"cache differ from the executed ones; first: {differ[:1]}"
            ]
        return []


WORKLOADS = {
    cls.name: cls for cls in (ColdCampaign, TraceReplay, CampaignRerun)
}
