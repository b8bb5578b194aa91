"""Tests for the campaign engine (spec, cache, scheduler, store, CLI).

The contract under test: campaigns are *bit-identical* to the serial
:func:`run_benchmark` path for any jobs/cache combination, cache hits run
zero simulations, changed inputs miss, and interrupted campaigns resume.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, replace

import pytest

import repro
from repro.cli import main
from repro.experiments import (
    CampaignSpec,
    Job,
    ResultCache,
    ResultStore,
    collect_results,
    job_key,
    plan_campaign,
    run_campaign,
)
from repro.api import sweep
from repro.experiments.cache import CACHE_SCHEMA
from repro.experiments.codec import canonical_json, config_to_dict
from repro.harness.runner import ExperimentScale, run_benchmark
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import Processor

TINY = ExperimentScale("tiny", num_instructions=2_500, warmup=1_000)
BENCHMARKS = ["gzip", "applu"]


def tiny_configs() -> list[MachineConfig]:
    return [MachineConfig.conventional(), MachineConfig.nosq()]


def tiny_spec(**overrides) -> CampaignSpec:
    fields = dict(
        benchmarks=BENCHMARKS, configs=tiny_configs(), scale=TINY,
        seeds=(17,),
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


@pytest.fixture
def run_counter(monkeypatch):
    """Count (and optionally sabotage) Processor.run invocations."""
    calls = []
    original = Processor.run

    def counted(self, trace, warmup=0):
        calls.append(self.config.name)
        return original(self, trace, warmup=warmup)

    monkeypatch.setattr(Processor, "run", counted)
    return calls


def serial_reference():
    return {
        name: run_benchmark(name, tiny_configs(), scale=TINY, seed=17)
        for name in BENCHMARKS
    }


class TestJobKey:
    def job(self, **overrides) -> Job:
        fields = dict(
            benchmark="gzip", config=MachineConfig.nosq(), scale=TINY,
            seed=17,
        )
        fields.update(overrides)
        return Job(**fields)

    def test_stable(self):
        assert job_key(self.job()) == job_key(self.job())

    def test_seed_changes_key(self):
        assert job_key(self.job()) != job_key(self.job(seed=18))

    def test_benchmark_changes_key(self):
        assert job_key(self.job()) != job_key(self.job(benchmark="mcf"))

    def test_any_config_field_changes_key(self):
        deep = MachineConfig.nosq(
            predictor=replace(
                MachineConfig.nosq().bypass_predictor, history_bits=10
            )
        )
        assert job_key(self.job()) != job_key(self.job(config=deep))
        shallow = replace(MachineConfig.nosq(), tssbf_entries=64)
        assert job_key(self.job()) != job_key(self.job(config=shallow))

    def test_scale_numbers_not_label(self):
        renamed = ExperimentScale("other-name", 2_500, 1_000)
        assert job_key(self.job()) == job_key(self.job(scale=renamed))
        longer = ExperimentScale("tiny", 3_000, 1_000)
        assert job_key(self.job()) != job_key(self.job(scale=longer))


@dataclass
class _TupleFieldConfig(MachineConfig):
    """A user-extended machine whose extra field holds a tuple."""

    issue_ports: tuple[int, ...] = (2, 1, 1)


class TestKeyPayload:
    """job_key hashes ``json.dumps`` of a payload that config_to_dict has
    already made plain; the key must equal the SHA-256 of canonical_json
    (which jsonifies again) of that same payload, whatever the config
    holds."""

    @staticmethod
    def canonical_key(job: Job) -> str:
        from repro.traces import source_identity

        payload = {
            "schema": CACHE_SCHEMA,
            "version": repro.__version__,
            "benchmark": job.benchmark,
            "config": config_to_dict(job.config),
            "num_instructions": job.scale.num_instructions,
            "warmup": job.scale.warmup,
            "seed": job.seed,
        }
        source = source_identity(job.benchmark)
        if source is not None:
            payload["source"] = source
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    def check(self, benchmark: str, config: MachineConfig) -> None:
        job = Job(benchmark, config, TINY, 17)
        assert job_key(job) == job_key(job, memo={}) == self.canonical_key(job)

    def test_tuple_field(self):
        config = _TupleFieldConfig(**vars(MachineConfig.nosq()))
        assert isinstance(config_to_dict(config)["issue_ports"], list)
        self.check("gzip", config)

    def test_enum_field(self):
        from repro.api import resolve_config
        from repro.pipeline.config import SchedulerKind

        config = resolve_config("conventional-perfect")
        assert config.scheduler is SchedulerKind.PERFECT
        self.check("gzip", config)

    def test_nested_config(self):
        from repro.api import resolve_config

        self.check("gzip", resolve_config(
            "nosq?bypass.history_bits=10,hierarchy.l1_size=32768"
        ))

    def test_trace_source(self, tmp_path):
        from repro.isa.tracefile import save_trace
        from repro.workloads.generator import generate_trace

        path = tmp_path / "g.bt"
        save_trace(generate_trace("gzip", 600, seed=5), path)
        self.check(f"trace:{path}", MachineConfig.nosq())


class TestKeyMemo:
    """A plan shares one memo across its jobs, which keeps each config's
    JSON text and each benchmark's fixed members; every key built with it
    must equal the one built from the whole payload without it."""

    def test_standard_presets_on_every_kind_of_source(self, tmp_path):
        from repro.api import resolve_configs
        from repro.isa.tracefile import save_trace
        from repro.workloads.generator import generate_trace

        path = tmp_path / "g.bt"
        save_trace(generate_trace("gzip", 600, seed=5), path)
        benchmarks = ("gzip", "zoo.pchase", "prog.memcpy", f"trace:{path}")
        configs = resolve_configs("standard")
        assert len(configs) == 5
        memo: dict = {}
        keys = set()
        for seed in (17, 18):
            for benchmark in benchmarks:
                for config in configs:
                    job = Job(benchmark, config, TINY, seed)
                    key = job_key(job, memo)
                    assert key == TestKeyPayload.canonical_key(job), job
                    keys.add(key)
        assert len(keys) == 2 * len(benchmarks) * len(configs)


class TestKeyStability:
    """Cache keys are what a user's cache is addressed by: any change to
    them silently invalidates every stored result."""

    def test_pinned_keys(self):
        from repro.api import NAMED_SCALES, resolve_config

        smoke = NAMED_SCALES["smoke"]
        assert job_key(Job("gzip", resolve_config("nosq"), smoke, 17)) == (
            "0c93e297f65edc62e584b99ee98b5313c58af326a4d6c3b866e254161d29d85a"
        )
        assert job_key(
            Job("zoo.pchase", resolve_config("conventional"), smoke, 17)
        ) == "97461e3cb5321d2731ddc3a566b687ad47f177129ee233543fb32c99857d7cb4"

    @pytest.fixture
    def mixed_spec(self, tmp_path):
        """Presets, an override and a trace file."""
        from repro.isa.tracefile import save_trace
        from repro.workloads.generator import generate_trace

        path = tmp_path / "g.bt"
        save_trace(generate_trace("gzip", 600, seed=5), path)
        return CampaignSpec(
            benchmarks=["gzip", "zoo.pchase", f"trace:{path}"],
            configs=["nosq", "conventional", "nosq?backend.rob_size=256"],
            scale=TINY, seeds=(17, 18),
        )

    def test_plan_keys_equal_job_key(self, mixed_spec, tmp_path):
        expected = {
            (job.benchmark, job.config.name, job.seed): job_key(job)
            for job in mixed_spec.jobs()
        }
        assert len(set(expected.values())) == len(expected)
        cache = ResultCache(tmp_path / "cache")
        hit_job = next(mixed_spec.jobs())
        cache.put(expected[hit_job.benchmark, hit_job.config.name,
                           hit_job.seed], {"run_stats": {}})
        hits, groups = plan_campaign(mixed_spec, cache)
        planned = {
            (job.benchmark, job.config.name, job.seed): key
            for job, key, _record in hits
        }
        for group in groups:
            for config, key in zip(group.configs, group.keys):
                planned[group.benchmark, config.name, group.seed] = key
        assert len(hits) == 1
        assert planned == expected

    def test_trace_file_hashed_once_per_plan(self, mixed_spec, monkeypatch):
        from repro.traces import source

        hashed = []
        original = source._hash_file

        def counting(path):
            hashed.append(path)
            return original(path)

        monkeypatch.setattr(source, "_hash_file", counting)
        plan_campaign(mixed_spec, cache=None)
        assert len(hashed) == 1
        plan_campaign(mixed_spec, cache=None)
        assert len(hashed) == 2


class TestParallelEqualsSerial:
    def test_two_workers_bit_identical(self, tmp_path):
        reference = serial_reference()
        result = run_campaign(
            tiny_spec(), jobs=2, cache=str(tmp_path / "cache")
        )
        suite = result.suite_results()
        for name in BENCHMARKS:
            assert suite[name].trace_stats == reference[name].trace_stats
            assert suite[name].runs == reference[name].runs

    def test_inline_equals_pool(self, tmp_path):
        inline = run_campaign(tiny_spec(), jobs=1).suite_results()
        pooled = run_campaign(tiny_spec(), jobs=2).suite_results()
        assert {n: r.runs for n, r in inline.items()} == {
            n: r.runs for n, r in pooled.items()
        }

    def test_run_suite_matches_cached_rerun(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = sweep(tiny_configs(), BENCHMARKS, TINY, cache=cache)
        second = sweep(tiny_configs(), BENCHMARKS, TINY, cache=cache)
        assert {n: r.runs for n, r in first.results().items()} == {
            n: r.runs for n, r in second.results().items()
        }
        assert second.hits == len(BENCHMARKS) * len(tiny_configs())


class TestCache:
    def test_second_run_is_pure_cache(self, tmp_path, run_counter):
        cache = ResultCache(tmp_path / "cache")
        first = run_campaign(tiny_spec(), cache=cache)
        assert first.executed == 4 and first.hits == 0
        assert len(run_counter) == 4

        run_counter.clear()
        second = run_campaign(tiny_spec(), cache=cache)
        assert second.executed == 0 and second.hits == 4
        assert run_counter == []   # zero Processor.run calls
        assert {n: r.runs for n, r in second.suite_results().items()} == {
            n: r.runs for n, r in first.suite_results().items()
        }

    def test_changed_seed_misses(self, tmp_path, run_counter):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(tiny_spec(), cache=cache)
        run_counter.clear()
        rerun = run_campaign(tiny_spec(seeds=(18,)), cache=cache)
        assert rerun.hits == 0 and len(run_counter) == 4

    def test_changed_config_misses(self, tmp_path, run_counter):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(tiny_spec(), cache=cache)
        run_counter.clear()
        tweaked = [
            MachineConfig.conventional(),
            replace(MachineConfig.nosq(), drain_penalty=32),
        ]
        rerun = run_campaign(tiny_spec(configs=tweaked), cache=cache)
        # The untouched config hits; the tweaked one re-runs.
        assert rerun.hits == 2 and rerun.executed == 2
        assert run_counter == ["nosq-delay", "nosq-delay"]

    def test_force_reexecutes_but_refreshes(self, tmp_path, run_counter):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(tiny_spec(), cache=cache)
        run_counter.clear()
        forced = run_campaign(tiny_spec(), cache=cache, force=True)
        assert forced.executed == 4 and len(run_counter) == 4

    def test_entry_bytes_unchanged(self, tmp_path):
        """put() writes the bytes ``json.dump(record, sort_keys=True)``
        always wrote, so entries stay readable by every version."""
        record = {
            "run_stats": {"cycles": 1234, "ipc": 1.25},
            "config_name": "nosq-delay?rob_size=256",
            "scale": {"name": "tiny", "num_instructions": 2500},
            "trace_stats": {"loads": [1, 2, 3], "label": "caf\u00e9 \"q\""},
            "cached": False,
        }
        cache = ResultCache(tmp_path / "cache")
        cache.put("ab" * 32, record)
        expected = io.StringIO()
        json.dump(record, expected, sort_keys=True)
        written = cache.path("ab" * 32).read_bytes()
        assert written == expected.getvalue().encode()
        assert cache.get("ab" * 32) == record

    def test_accepts_path_objects(self, tmp_path):
        """sweep()/run_campaign take any os.PathLike for cache and store."""
        first = sweep(
            tiny_configs(), BENCHMARKS, TINY,
            cache=tmp_path / "cache", store=tmp_path / "campaign.jsonl",
        )
        second = sweep(
            tiny_configs(), BENCHMARKS, TINY,
            cache=tmp_path / "cache", store=tmp_path / "campaign.jsonl",
        )
        assert first.campaign.executed == 4
        assert second.campaign.hits == 4 and second.campaign.executed == 0
        assert len(ResultStore(tmp_path / "campaign.jsonl").load()) == 8

    def test_hits_reach_the_store_in_one_write(self, tmp_path, monkeypatch):
        cache, path = ResultCache(tmp_path / "cache"), tmp_path / "s.jsonl"
        run_campaign(tiny_spec(), cache=cache, store=path)
        filled = path.read_text().splitlines()
        writes = []
        original = ResultStore.append

        def counted(self, *records):
            writes.append(len(records))
            return original(self, *records)

        monkeypatch.setattr(ResultStore, "append", counted)
        rerun = run_campaign(tiny_spec(), cache=cache, store=path)
        assert rerun.hits == 4 and writes == [4]
        served = path.read_text().splitlines()[len(filled):]
        assert [json.loads(line) for line in served] == rerun.records
        assert [
            dict(json.loads(line), cached=True) for line in filled
        ] == rerun.records

    def test_corrupt_entry_is_a_miss(self, tmp_path, run_counter):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(tiny_spec(), cache=cache)
        victim = next(iter(tiny_spec().jobs()))
        cache.path(job_key(victim)).write_text("{not json")
        run_counter.clear()
        rerun = run_campaign(tiny_spec(), cache=cache)
        assert rerun.hits == 3 and rerun.executed == 1


class TestResume:
    def test_interrupted_campaign_resumes_from_cache(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        calls = []
        original = Processor.run

        def bombed(self, trace, warmup=0):
            if len(calls) == 3:
                raise KeyboardInterrupt("simulated interruption")
            calls.append(self.config.name)
            return original(self, trace, warmup=warmup)

        monkeypatch.setattr(Processor, "run", bombed)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(tiny_spec(), cache=cache)
        assert len(calls) == 3   # three jobs completed and were cached

        monkeypatch.setattr(Processor, "run", original)
        resumed = run_campaign(tiny_spec(), cache=cache)
        assert resumed.hits == 3 and resumed.executed == 1

        reference = serial_reference()
        suite = resumed.suite_results()
        for name in BENCHMARKS:
            assert suite[name].runs == reference[name].runs


class TestStore:
    def test_jsonl_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        run_campaign(tiny_spec(), store=store)
        records = store.load()
        assert len(records) == 4
        results = collect_results(records)
        assert set(results) == set(BENCHMARKS)
        reference = serial_reference()
        for name in BENCHMARKS:
            assert results[name].runs == reference[name].runs

    def test_bad_lines_skipped_and_newest_wins(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        run_campaign(tiny_spec(), store=store)
        with store.path.open("a") as handle:
            handle.write("garbage line\n")
        run_campaign(tiny_spec(), store=store)   # duplicates every record
        records = store.load()
        assert len(records) == 8
        results = collect_results(records)
        assert set(results) == set(BENCHMARKS)

    def test_only_the_newest_record_of_a_run_is_decoded(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        run_campaign(tiny_spec(), store=store)
        records = store.load()
        # Older copies first, in reverse order, with statistics that would
        # not decode, and the first one's trace statistics marked.
        stale = [
            dict(record, run_stats={"no_such_field": 1})
            for record in reversed(records)
        ]
        stale[0]["trace_stats"] = dict(stale[0]["trace_stats"], loads=-1)
        results = collect_results(stale + records)
        names = list(dict.fromkeys(r["benchmark"] for r in stale))
        assert list(results) == names
        reference = serial_reference()
        for name in names:
            assert list(results[name].runs) == [
                r["config_name"] for r in stale if r["benchmark"] == name
            ]
            assert results[name].runs == reference[name].runs
        assert results[names[0]].trace_stats.loads == -1

    def test_multi_seed_requires_selection(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        run_campaign(tiny_spec(seeds=(17, 18)), store=store)
        records = store.load()
        with pytest.raises(ValueError, match="seed"):
            collect_results(records)
        per_seed = collect_results(records, seed=18)
        assert set(per_seed) == set(BENCHMARKS)

    def test_mixed_scales_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        run_campaign(tiny_spec(), store=store)
        other = ExperimentScale("tiny2", num_instructions=3_000, warmup=1_000)
        run_campaign(tiny_spec(scale=other), store=store)
        with pytest.raises(ValueError, match="scales"):
            collect_results(store.load())


class TestPlan:
    def test_groups_share_one_trace_per_benchmark(self):
        hits, groups = plan_campaign(tiny_spec(), cache=None)
        assert hits == []
        assert sorted(g.benchmark for g in groups) == sorted(BENCHMARKS)
        for group in groups:
            assert len(group.configs) == 2

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(ValueError, match="unknown benchmarks"):
            tiny_spec(benchmarks=["quake3"])

    def test_rejects_duplicate_config_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            tiny_spec(configs=[MachineConfig.nosq(), MachineConfig.nosq()])

    def test_rejects_duplicate_benchmarks_and_seeds(self):
        with pytest.raises(ValueError, match="duplicate benchmarks"):
            tiny_spec(benchmarks=["gzip", "gzip"])
        with pytest.raises(ValueError, match="duplicate seeds"):
            tiny_spec(seeds=(17, 17))

    def test_rejects_all_warmup_scale(self):
        with pytest.raises(ValueError, match="warmup"):
            drained = ExperimentScale(
                "bad", num_instructions=1_000, warmup=1_000
            )
            tiny_spec(scale=drained)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(tiny_spec(), jobs=0)


class TestCampaignCli:
    @pytest.fixture(autouse=True)
    def in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    def run_args(self, *extra):
        # The figure4 set (sq-storesets + nosq-delay) keeps this fast: 4 jobs.
        return [
            "campaign", "run", "gzip", "applu", "-n", "2500", "-w", "1000",
            "--jobs", "2", "--configs", "figure4", *extra,
        ]

    def test_run_then_cached_rerun(self, capsys):
        assert main(self.run_args()) == 0
        out = capsys.readouterr().out
        assert "0 cached, 4 executed" in out

        assert main(self.run_args()) == 0
        out = capsys.readouterr().out
        assert "4 cached, 0 executed" in out

    def test_status_and_report(self, capsys):
        assert main(self.run_args("--quiet")) == 0
        capsys.readouterr()

        assert main([
            "campaign", "status", "gzip", "applu", "-n", "2500", "-w", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "4/10 jobs cached" in out   # 5 standard configs per benchmark

        assert main(["campaign", "report"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "gzip" in out

        # Completing the standard set adds Table 5 and Figure 2.
        assert main([
            "campaign", "run", "gzip", "applu", "-n", "2500", "-w", "1000",
            "--quiet",
        ]) == 0
        assert "4 cached, 6 executed" in capsys.readouterr().out
        assert main(["campaign", "report", "applu"]) == 0
        out = capsys.readouterr().out
        assert "applu" in out and "comm%" in out
        assert "nosq-delay (rel)" in out

    def test_report_order_ignores_record_order(self, capsys, tmp_path):
        # Pooled campaigns append records in completion order; the
        # report must not depend on it.
        assert main([
            "campaign", "run", "zoo.pchase", "mcf", "gzip", "-n", "1500",
            "--configs", "figure4", "--quiet", "--store", "filled.jsonl",
        ]) == 0
        records = ResultStore(tmp_path / "filled.jsonl").load()
        reports = []
        for name, ordered in (("forward.jsonl", records),
                              ("reversed.jsonl", records[::-1])):
            store = ResultStore(tmp_path / name)
            for record in ordered:
                store.append(record)
            capsys.readouterr()
            assert main(["campaign", "report", "--store", str(store.path)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        # Profiles in Table 5 order, then the other ids.
        report = reports[0]
        assert report.index("gzip") < report.index("mcf") < \
            report.index("zoo.pchase")

    def test_report_without_store(self, capsys):
        assert main(["campaign", "report"]) == 1

    def test_rejects_unknown_benchmark(self, capsys):
        assert main(["campaign", "run", "quake3"]) == 2
        assert "unknown benchmarks" in capsys.readouterr().err

    def test_rejects_zero_jobs(self, capsys):
        assert main(["campaign", "run", "gzip", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_rejects_warmup_without_instructions(self, capsys):
        assert main(["campaign", "run", "gzip", "-w", "500"]) == 2
        assert "--instructions" in capsys.readouterr().err

    def test_report_missing_seed_errors(self, capsys):
        assert main(self.run_args("--quiet")) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "--seed", "99"]) == 1
        assert "no records for seed 99" in capsys.readouterr().err

    def test_report_mixed_config_sets(self, capsys):
        # standard (5 configs) for gzip, figure4 (2 configs) for mcf, in
        # one store: each renderer covers only the benchmarks that
        # support it.
        assert main([
            "campaign", "run", "gzip", "-n", "2500", "-w", "1000",
            "--quiet",
        ]) == 0
        assert main([
            "campaign", "run", "mcf", "-n", "2500", "-w", "1000",
            "--configs", "figure4", "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "report"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out and "mcf" not in out.split("Figure 4")[0]
        figure4_section = out.split("Figure 4")[1]
        assert "gzip" in figure4_section and "mcf" in figure4_section

    def test_report_lists_runs_no_section_uses(self, capsys):
        # Runs that no table or figure renders -- configs outside the
        # paper's sets, a benchmark lacking a set's configs -- still
        # appear, in the generic table.
        assert main([
            "campaign", "run", "applu", "-n", "2000", "--quiet",
        ]) == 0
        assert main([
            "campaign", "run", "gzip", "-n", "2000", "--quiet",
            "--configs", "conventional-smb,nosq-perfect",
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "report"]) == 0
        out = capsys.readouterr().out
        generic = out.split("stored campaign results")[1]
        assert "gzip" in generic and "sq-smb" in generic
        assert "nosq-perfect" in generic and "applu" not in generic

    def test_paper_report_matches_golden(self, capsys):
        # Every table, figure and ablation for three benchmarks, from
        # one campaign over the paper's config sets.
        from pathlib import Path

        assert main([
            "campaign", "run", "g721.e", "gzip", "applu",
            "-n", "3000", "-w", "1000", "--jobs", "2", "--quiet",
            "--configs", "standard,figure3,figure5,ablations",
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "report"]) == 0
        golden = Path(__file__).parent / "data" / "golden_paper_report.txt"
        assert capsys.readouterr().out == golden.read_text()

    def test_suite_report_matches_golden(self, capsys):
        # Two benchmarks per suite, so every mean row of Table 5 and
        # Figures 2-5 averages two values.
        from pathlib import Path

        assert main([
            "campaign", "run", "g721.e", "mesa.o", "gzip", "vortex",
            "applu", "art", "-n", "2000", "-w", "750", "--jobs", "2",
            "--quiet", "--configs", "standard,figure3,figure5",
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "report"]) == 0
        golden = Path(__file__).parent / "data" / "golden_suite_report.txt"
        assert capsys.readouterr().out == golden.read_text()

    def test_report_uses_newest_scale(self, capsys):
        assert main(self.run_args("--quiet")) == 0
        assert main([
            "campaign", "run", "gzip", "applu", "-n", "3000",
            "--configs", "figure4", "--jobs", "1", "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "report"]) == 0
        out = capsys.readouterr().out
        assert "reporting the newest scale (3000 instructions" in out


class TestDeterminism:
    def test_run_benchmark_reuses_supplied_trace(self):
        from repro.harness.runner import make_trace

        trace = make_trace("gzip", TINY, seed=17)
        direct = run_benchmark(
            "gzip", tiny_configs(), scale=TINY, seed=17, trace=trace
        )
        regenerated = run_benchmark("gzip", tiny_configs(), scale=TINY, seed=17)
        assert direct.runs == regenerated.runs

    def test_seed_flows_through_campaign(self):
        a = run_campaign(tiny_spec(seeds=(3,))).records
        b = run_campaign(tiny_spec(seeds=(3,))).records
        assert [r["run_stats"] for r in a] == [r["run_stats"] for r in b]
        c = run_campaign(tiny_spec(seeds=(4,))).records
        assert [r["run_stats"] for r in a] != [r["run_stats"] for r in c]
