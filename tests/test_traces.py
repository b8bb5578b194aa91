"""Tests for the trace-ingestion subsystem (repro.traces).

The contracts under test:

* the v2 binary format round-trips annotated traces bit-identically
  (every field, derived annotations included), and a file in any other
  format (the retired v1 gzip-JSONL one included) fails with one line;
* a simulation of a reloaded binary trace produces RunStats identical to
  the generated original (the cache-equals-recompute guarantee extended
  to trace files);
* the SynchroTrace-style importer matches its committed golden fixture
  and reports malformed input with line numbers;
* trace sources resolve benchmark ids uniformly and contribute content
  hashes to campaign cache keys, so swapped file bytes can never be
  served stale results.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import shutil
import zlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import CampaignSpec, Job, ResultCache, job_key, run_campaign
from repro.harness.runner import ExperimentScale, make_trace
from repro.isa.tracefile import TraceFormatError, load_trace, save_trace
from repro.pipeline import MachineConfig, Processor
from repro.traces import (
    ZOO_BENCHMARKS,
    GeneratorSource,
    binformat,
    import_synchrotrace,
    is_binary_trace,
    read_trace,
    resolve_source,
    source_identity,
    trace_info,
    write_trace,
)
from repro.workloads import generate_trace
from repro.workloads.zoo import FAMILIES, generate_zoo_trace
from tests.conftest import build_trace, write_v1_file

DATA = Path(__file__).parent / "data"
SAMPLE = DATA / "sample_synchrotrace.txt"

#: Every DynInst field that must survive serialization, derived
#: annotations included.
FIELDS = (
    "seq", "pc", "op", "srcs", "dst", "lat", "addr", "size", "signed",
    "fp_convert", "taken", "target", "is_call", "is_return", "store_seq",
    "src_stores", "containing_store", "dist_insns", "unique_stores",
    "path_hist",
)


def assert_traces_identical(expected, actual):
    assert len(expected) == len(actual)
    for original, reloaded in zip(expected, actual):
        for name in FIELDS:
            assert getattr(original, name) == getattr(reloaded, name), (
                f"{name} diverged at seq {original.seq}"
            )


class TestBinaryRoundTrip:
    def test_all_fields_survive(self, tmp_path):
        trace = build_trace([
            ("alu", 8),
            ("st", 0x100, 2, 8),
            ("st", 0x102, 1, 8),
            ("ld", 0x100, 2, {"signed": True}),
            ("ld", 0x100, 4),
            ("fp", 34, 34, {"fp_convert": True}),
            ("br", True),
            ("call",),
            ("ret", 0x1010),
            ("nop",),
        ])
        path = tmp_path / "t.bt"
        write_trace(trace, path)
        assert_traces_identical(trace, load_trace(path))

    def test_generated_workload_bit_identical(self, tmp_path):
        trace = generate_trace("g721.e", num_instructions=3_000)
        path = tmp_path / "g.bt"
        save_trace(trace, path)
        assert is_binary_trace(path)
        assert_traces_identical(trace, load_trace(path))

    def test_multiblock_and_streaming_reader(self, tmp_path):
        trace = generate_trace("gzip", num_instructions=2_000)
        path = tmp_path / "g.bt"
        write_trace(trace, path, block_records=128)
        info = trace_info(path)
        assert info["instructions"] == len(trace)
        assert info["blocks"] == -(-len(trace) // 128)
        # The streaming reader restores everything except path_hist
        # (a whole-trace pass applied by load_trace).
        streamed = list(read_trace(path))
        for name in FIELDS:
            if name == "path_hist":
                continue
            assert [getattr(i, name) for i in trace] == \
                [getattr(i, name) for i in streamed], name

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.bt"
        write_trace([], path)
        assert load_trace(path) == []
        assert trace_info(path)["instructions"] == 0

    def test_v2_bytes_per_instruction_bound(self, tmp_path):
        """The size bar: a smoke-scale gzip trace stays at or under 3.2
        bytes per instruction (CI checks the same bound)."""
        trace = generate_trace("gzip", num_instructions=8_000, seed=17)
        path = tmp_path / "t.bt"
        save_trace(trace, path)
        per_inst = trace_info(path)["bytes_per_instruction"]
        assert per_inst <= 3.2, f"{per_inst:.2f} B/inst"


class TestV1V2Conversion:
    """Conversion to v1 is gone: only v2 is written."""

    def test_unknown_save_version(self, tmp_path):
        for version in (1, 7):
            with pytest.raises(ValueError, match="version"):
                save_trace([], tmp_path / "t", version=version)


class TestRunStatsIdentity:
    def test_reloaded_binary_simulates_identically(self, tmp_path):
        """RunStats of a generated trace and its reloaded v2 form match
        counter for counter."""
        trace = generate_trace("g721.e", num_instructions=3_000)
        path = tmp_path / "g.bt"
        save_trace(trace, path)
        reloaded = load_trace(path)
        for config in (MachineConfig.nosq(), MachineConfig.conventional()):
            original = Processor(config).run(trace, warmup=1_000)
            again = Processor(config).run(reloaded, warmup=1_000)
            assert vars(original) == vars(again), config.name


class TestBinaryErrors:
    def _write_sample(self, path, block_records=64):
        trace = generate_trace("gzip", num_instructions=500)
        write_trace(trace, path, block_records=block_records)
        return trace

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.bt"
        self._write_sample(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(path)

    def test_corrupt_block_detected_by_checksum(self, tmp_path):
        path = tmp_path / "t.bt"
        self._write_sample(path)
        data = bytearray(path.read_bytes())
        data[100] ^= 0xFF  # inside the first block's payload
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="checksum|corrupt"):
            load_trace(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.bt"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(TraceFormatError, match="not a repro trace"):
            load_trace(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "t.bt"
        self._write_sample(path)
        data = bytearray(path.read_bytes())
        data[4] = 99  # version u16 lives right after the magic
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="unsupported version"):
            load_trace(path)

    def test_missing_trailer(self, tmp_path):
        path = tmp_path / "t.bt"
        self._write_sample(path)
        data = path.read_bytes()
        path.write_bytes(data[:-4] + b"XXXX")
        with pytest.raises(TraceFormatError, match="index trailer"):
            trace_info(path)

    def test_unannotated_store_reference_rejected(self, tmp_path):
        trace = build_trace([("st", 0x40, 8, 8), ("ld", 0x40, 8)])
        trace[1].src_stores = (5,)  # references a store that never ran
        with pytest.raises(TraceFormatError, match="future store|precede"):
            write_trace(trace, tmp_path / "bad.bt")
        # A failed write must not leave a loadable truncated file behind.
        assert not (tmp_path / "bad.bt").exists()

    @staticmethod
    def _rewrite_block(path, edit):
        """Rewrite a one-block file's column table and streams through
        ``edit(lengths, streams)``, with a valid frame, CRC, index and
        trailer, so only the column data is wrong."""
        data = path.read_bytes()
        header = data[:binformat._HEADER.size]
        comp_len, records, _crc = binformat._FRAME.unpack_from(
            data, len(header)
        )
        start = len(header) + binformat._FRAME.size
        payload = zlib.decompress(data[start:start + comp_len])
        lengths = []
        offset = 0
        for _ in binformat._COLUMNS:
            length, offset = binformat._read_uvarint(payload, offset)
            lengths.append(length)
        streams = bytearray(payload[offset:])
        edit(lengths, streams)
        table = bytearray()
        for length in lengths:
            binformat._write_uvarint(table, length)
        block = zlib.compress(bytes(table + streams), 9)
        frame_offset = len(header)
        frame = binformat._FRAME.pack(len(block), records, zlib.crc32(block))
        index_offset = frame_offset + len(frame) + len(block)
        path.write_bytes(
            header + frame + block
            + binformat._INDEX_ENTRY.pack(frame_offset, records, len(block))
            + binformat._TRAILER.pack(index_offset, 1,
                                      binformat.TRAILER_MAGIC)
        )
        assert trace_info(path)["instructions"] == records

    @pytest.mark.parametrize("shrink,grow", [("addr", "target"),
                                             ("dst", "addr")])
    def test_misplaced_column_boundary_rejected(self, tmp_path, shrink,
                                                grow):
        """A column table that still covers the block but moves one byte
        from one column to the next must not decode into another trace."""
        path = tmp_path / "t.bt"
        write_trace(generate_trace("gzip", num_instructions=300), path)

        def move_boundary(lengths, streams):
            lengths[binformat._COLUMNS.index(shrink)] -= 1
            lengths[binformat._COLUMNS.index(grow)] += 1

        self._rewrite_block(path, move_boundary)
        with pytest.raises(TraceFormatError,
                           match=rf"block 0 .*column '({shrink}|{grow})'"):
            load_trace(path)

    def test_store_distance_before_trace_start_rejected(self, tmp_path):
        path = tmp_path / "t.bt"
        write_trace(build_trace([("st", 0x40, 8, 8), ("ld", 0x40, 8)]), path)

        def far_distance(lengths, streams):
            # The last stream is "sources": the load's one store distance.
            assert lengths[-1] == 1 and streams[-1] == 1
            streams[-1] = 2

        self._rewrite_block(path, far_distance)
        with pytest.raises(TraceFormatError,
                           match="column 'sources' reaches before"):
            load_trace(path)

    def test_frames_past_header_count_rejected(self, tmp_path):
        path = tmp_path / "t.bt"
        write_trace(generate_trace("gzip", num_instructions=300), path)
        data = bytearray(path.read_bytes())
        magic, version, flags, _count, block_records = \
            binformat._HEADER.unpack_from(data)
        data[:binformat._HEADER.size] = binformat._HEADER.pack(
            magic, version, flags, 10, block_records
        )
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="past the header's 10"):
            list(read_trace(path))

    def test_failed_writer_body_unlinks_partial_file(self, tmp_path):
        from repro.traces.binformat import BinaryTraceWriter

        trace = build_trace([("alu", 8)] * 600)
        path = tmp_path / "partial.bt"
        with pytest.raises(RuntimeError, match="boom"):
            with BinaryTraceWriter(path, block_records=64) as writer:
                for inst in trace[:200]:
                    writer.write(inst)
                raise RuntimeError("boom")
        assert not path.exists()


class TestV1Errors:
    """Only v2 is read and written; a v1 file fails with one line."""

    @pytest.mark.parametrize("argv", [
        ["run", "nosq", "trace:{v1}"],
    ], ids=["trace-source"])
    def test_v1_file_exits_2_with_one_line(self, tmp_path, capsys, argv):
        path = tmp_path / "old.trace.gz"
        write_v1_file(path)
        out = tmp_path / "new.bt"
        assert main([arg.format(v1=path, out=out) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert str(path) in err and "not a repro trace file in the v2" in err

    @pytest.mark.parametrize("argv,code", [
        (["trace", "info", "{v1}"], 2),
        (["trace", "validate", "{v1}"], 1),
        (["trace", "convert", "{v1}", "{out}"], 2),
    ], ids=["info", "validate", "convert"])
    def test_auto_mode_says_neither_format(self, tmp_path, capsys, argv, code):
        """A v1 file is reported as neither a v2 trace nor an event
        trace, with the importer's reason after it."""
        path = tmp_path / "old.trace.gz"
        write_v1_file(path)
        out = tmp_path / "new.bt"
        assert main([arg.format(v1=path, out=out) for arg in argv]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert (f"{path}: neither a v2 trace file nor an external event "
                "trace (read as an event trace: line 1: ") in err
        assert not out.exists()

    def test_not_a_trace_at_all(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("plain text\n")
        with pytest.raises(TraceFormatError, match="not a repro trace"):
            load_trace(path)


class TestImporter:
    def test_sample_matches_golden(self):
        golden = json.loads(
            (DATA / "sample_synchrotrace.golden.json").read_text()
        )
        trace = import_synchrotrace(SAMPLE)
        assert len(trace) == golden["instructions"]
        assert sum(i.is_load for i in trace) == golden["loads"]
        assert sum(i.is_store for i in trace) == golden["stores"]
        assert sum(i.is_branch for i in trace) == golden["branches"]
        assert sum(
            1 for i in trace if i.is_load and i.communicates
        ) == golden["communicating_loads"]
        digest = hashlib.sha256()
        for i in trace:
            digest.update(repr((
                i.seq, i.pc, int(i.op), i.srcs, i.dst, i.lat, i.addr,
                i.size, i.signed, i.fp_convert, i.taken, i.target,
                i.is_call, i.is_return, i.store_seq, i.src_stores,
                i.containing_store, i.dist_insns, i.path_hist,
            )).encode())
        assert digest.hexdigest() == golden["digest"]

    def test_imported_trace_simulates(self):
        trace = import_synchrotrace(SAMPLE)
        stats = Processor(MachineConfig.nosq()).run(trace, warmup=1_000)
        assert stats.cycles > 0
        assert stats.bypassed_loads > 0  # comm events became bypasses

    def test_wide_accesses_split(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("1,0,write,0x100,32\n2,0,read,0x100,32\n")
        trace = import_synchrotrace(path)
        stores = [i for i in trace if i.is_store]
        loads = [i for i in trace if i.is_load]
        assert [s.size for s in stores] == [8, 8, 8, 8]
        assert len(loads) == 4
        assert all(ld.communicates for ld in loads)

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "events.txt.gz"
        with gzip.open(path, "wt") as stream:
            stream.write(SAMPLE.read_text())
        assert_traces_identical(
            import_synchrotrace(SAMPLE), import_synchrotrace(path)
        )

    @pytest.mark.parametrize("line,message", [
        ("1,0", "expected '<eid>,<tid>,<event>"),
        ("1,0,frobnicate,3", "unknown event kind"),
        ("1,0,comp,4", "expected 5 fields"),
        ("1,0,comp,x,0", "not an integer"),
        ("1,0,read,0x10,0", "byte count must be >= 1"),
        ("one,0,comp,1,0", "not an integer"),
    ])
    def test_malformed_lines_name_the_line(self, tmp_path, line, message):
        path = tmp_path / "bad.txt"
        path.write_text("1,0,comp,2,0\n" + line + "\n")
        with pytest.raises(TraceFormatError, match="line 2") as excinfo:
            import_synchrotrace(path)
        assert message.split("|")[0] in str(excinfo.value)


class TestSources:
    def test_synthetic_resolution_matches_generator(self):
        scale = ExperimentScale("tiny", 2_000, 500)
        source = resolve_source("gzip")
        assert_traces_identical(
            source.trace(scale, seed=17), make_trace("gzip", scale, 17)
        )
        assert source.content_id() is None

    def test_zoo_families_resolve_and_generate(self):
        scale = ExperimentScale("tiny", 1_200, 0)
        for benchmark in ZOO_BENCHMARKS:
            source = resolve_source(benchmark)
            trace = source.trace(scale, seed=3)
            assert len(trace) >= 1_200, benchmark
            assert source.content_id().startswith("generator:"), benchmark

    def test_zoo_deterministic_per_seed(self):
        for family in FAMILIES:
            a = generate_zoo_trace(family, 800, seed=5)
            b = generate_zoo_trace(f"zoo.{family}", 800, seed=5)
            assert_traces_identical(a, b)
        assert len(FAMILIES) == 8

    def test_zoo_seeds_differ(self):
        a = generate_zoo_trace("hashjoin", 800, seed=1)
        b = generate_zoo_trace("hashjoin", 800, seed=2)
        assert [i.addr for i in a] != [i.addr for i in b]

    def test_program_sources_have_intrinsic_length(self):
        lengths = {}
        for name in ("memcpy", "stack_spill", "struct_pack", "fp_convert",
                     "histogram"):
            source = resolve_source(f"prog.{name}")
            assert source.content_id().startswith("generator:prog."), name
            lengths[name] = len(source.trace(ExperimentScale("a", 10, 5), 1))
            assert len(source.trace(ExperimentScale("b", 9_000, 0), 2)) == \
                lengths[name], name
        assert lengths["memcpy"] == 1282

    def test_trace_file_source(self, tmp_path):
        trace = generate_trace("applu", num_instructions=1_500)
        path = tmp_path / "a.bt"
        save_trace(trace, path)
        source = resolve_source(f"trace:{path}")
        scale = ExperimentScale("ignored", 10, 5)
        assert_traces_identical(trace, source.trace(scale, seed=99))
        assert source.content_id().startswith("sha256:")

    def test_extern_source(self):
        source = resolve_source(f"extern:{SAMPLE}")
        scale = ExperimentScale("ignored", 10, 5)
        assert len(source.trace(scale, 17)) > 0
        assert source.content_id().startswith("sha256-extern:")

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            resolve_source("no-such-benchmark")

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            resolve_source("trace:/no/such/file.bt")

    def test_named_sources_match_their_modules(self):
        # repro.traces.source names and describes the zoo.* and prog.*
        # sources without loading their modules; the modules must agree.
        from repro.traces.source import SOURCES
        from repro.workloads.programs import all_programs, build_trace

        assert ZOO_BENCHMARKS == tuple(f"zoo.{name}" for name in FAMILIES)
        programs = all_programs()
        assert [name for name in SOURCES if name.startswith("prog.")] == [
            f"prog.{program.name}" for program in programs
        ]
        assert len(SOURCES) == len(ZOO_BENCHMARKS) + len(programs)
        scale = ExperimentScale("tiny", 10, 5)
        for program in programs:
            source = resolve_source(f"prog.{program.name}")
            assert source.describe() == \
                f"mini-ISA program: {program.description}"
            assert_traces_identical(
                source.trace(scale, 1), build_trace(program).trace
            )

    def test_generator_source_version_in_content_id(self):
        source = GeneratorSource("x", lambda n, s: [], version=7)
        assert source.content_id() == "generator:x:v7"


class TestCacheKeys:
    SCALE = ExperimentScale("tiny", 1_000, 200)

    def _job(self, benchmark):
        return Job(
            benchmark=benchmark, config=MachineConfig.nosq(),
            scale=self.SCALE, seed=17,
        )

    def test_synthetic_key_has_no_source_field(self):
        assert source_identity("gzip") is None

    def test_trace_file_key_tracks_content(self, tmp_path):
        path = tmp_path / "t.bt"
        save_trace(generate_trace("gzip", num_instructions=600), path)
        key_before = job_key(self._job(f"trace:{path}"))
        assert key_before == job_key(self._job(f"trace:{path}"))
        # Swap the bytes behind the same path: the key must change.
        save_trace(generate_trace("mcf", num_instructions=600), path)
        assert job_key(self._job(f"trace:{path}")) != key_before

    def test_zoo_key_differs_from_synthetic(self):
        assert job_key(self._job("zoo.pchase")) != job_key(self._job("gzip"))


class TestCampaignIntegration:
    SCALE = ExperimentScale("tiny", 1_500, 500)

    def test_mixed_source_campaign_with_cache_hits(self, tmp_path):
        trace_file = tmp_path / "gzip.bt"
        save_trace(make_trace("gzip", self.SCALE, 17), trace_file)
        spec = CampaignSpec(
            benchmarks=[
                "gzip", "zoo.overlap", f"trace:{trace_file}",
                f"extern:{SAMPLE}",
            ],
            configs=[MachineConfig.nosq(), MachineConfig.conventional()],
            scale=self.SCALE,
            seeds=(17,),
        )
        cache = ResultCache(tmp_path / "cache")
        first = run_campaign(spec, cache=cache)
        assert first.executed == spec.num_jobs
        again = run_campaign(spec, cache=cache)
        assert again.executed == 0
        assert again.hits == spec.num_jobs
        for a, b in zip(first.records, again.records):
            assert a["run_stats"] == b["run_stats"]
        # A generated gzip trace and its v2 file produce identical stats.
        by_bench = {}
        for record in first.records:
            by_bench.setdefault(record["benchmark"], {})[
                record["config_name"]] = record["run_stats"]
        assert by_bench["gzip"] == by_bench[f"trace:{trace_file}"]

    def test_job_groups_ship_picklable_sources(self, tmp_path):
        """Workers use the group's resolved source, not registry state —
        it must survive pickling (the spawn-start worker transport)."""
        import pickle

        from repro.experiments import plan_campaign

        trace_file = tmp_path / "t.bt"
        save_trace(make_trace("gzip", self.SCALE, 17), trace_file)
        spec = CampaignSpec(
            benchmarks=[
                "gzip", "zoo.overlap", f"trace:{trace_file}", "prog.memcpy",
            ],
            configs=[MachineConfig.nosq()],
            scale=self.SCALE,
        )
        _hits, groups = plan_campaign(spec, cache=None)
        assert all(group.source is not None for group in groups)
        for group in groups:
            revived = pickle.loads(pickle.dumps(group))
            trace = revived.source.trace(self.SCALE, 17)
            assert len(trace) > 0, group.benchmark

    def test_spec_rejects_missing_trace_file(self):
        with pytest.raises(ValueError, match="no such trace file"):
            CampaignSpec(
                benchmarks=["trace:/missing.bt"],
                configs=[MachineConfig.nosq()],
                scale=self.SCALE,
            )


class TestTraceCLI:
    def test_record_info_validate_convert(self, tmp_path, capsys):
        out = tmp_path / "z.bt"
        assert main([
            "trace", "record", "zoo.prodcons", "-n", "1000",
            "-o", str(out),
        ]) == 0
        assert is_binary_trace(out)
        assert main(["trace", "info", str(out)]) == 0
        assert "v2 binary" in capsys.readouterr().out
        assert main(["trace", "validate", str(out)]) == 0
        assert "OK" in capsys.readouterr().out
        copy = tmp_path / "copy.bt"
        assert main(["trace", "convert", str(out), str(copy)]) == 0
        assert_traces_identical(load_trace(out), load_trace(copy))

    def test_record_rejects_unknown_benchmark(self, tmp_path, capsys):
        assert main([
            "trace", "record", "nope", "-o", str(tmp_path / "x.bt"),
        ]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_convert_imports_external(self, tmp_path):
        out = tmp_path / "sample.bt"
        assert main(["trace", "convert", str(SAMPLE), str(out)]) == 0
        assert_traces_identical(
            import_synchrotrace(SAMPLE), load_trace(out)
        )

    def test_convert_imports_gzipped_external(self, tmp_path):
        """The gzip magic alone must not shadow the importer fallback."""
        packed = tmp_path / "events.txt.gz"
        with gzip.open(packed, "wt") as stream:
            stream.write(SAMPLE.read_text())
        out = tmp_path / "sample.bt"
        assert main(["trace", "convert", str(packed), str(out)]) == 0
        assert_traces_identical(
            import_synchrotrace(SAMPLE), load_trace(out)
        )

    def test_validate_flags_stale_annotations(self, tmp_path, capsys):
        trace = build_trace([("st", 0x80, 8, 8), ("ld", 0x80, 8)])
        trace[1].dist_insns = 55  # stale on purpose
        path = tmp_path / "stale.bt"
        save_trace(trace, path)
        assert main(["trace", "validate", str(path)]) == 1
        assert "stale annotation" in capsys.readouterr().err

    def test_validate_corrupt_file(self, tmp_path, capsys):
        path = tmp_path / "junk.bt"
        path.write_bytes(b"RTRC" + b"\x00" * 10)
        assert main(["trace", "validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_campaign_benchmark_filter_and_source(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        shutil.copy(SAMPLE, "events.txt")
        assert main([
            "campaign", "run", "--benchmarks", "zoo.overl*",
            "--source", "extern:events.txt",
            "-n", "1200", "-w", "400", "--configs", "table5",
            "--cache-dir", str(tmp_path / "cache"), "-q",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 jobs" in out  # 2 benchmarks x 2 configs

    def test_campaign_filter_matching_nothing(self, capsys):
        assert main([
            "campaign", "run", "--benchmarks", "zzz*", "-q",
        ]) == 2
        assert "matches no" in capsys.readouterr().err


def test_binformat_varint_roundtrip():
    out = bytearray()
    values = [0, 1, 127, 128, 300, 2 ** 20, 2 ** 40]
    for value in values:
        binformat._write_uvarint(out, value)
    offset = 0
    for value in values:
        got, offset = binformat._read_uvarint(bytes(out), offset)
        assert got == value
    assert binformat._uvarints(bytes(out)) == values
    assert binformat._uvarints(bytes(range(128))) == list(range(128))
    with pytest.raises(ValueError, match="inside a varint"):
        binformat._uvarints(bytes(out) + b"\x80")
    out = bytearray()
    signed = [0, -1, 1, -64, 64, -(2 ** 33), 2 ** 33]
    for value in signed:
        binformat._write_svarint(out, value)
    assert binformat._svarints(bytes(out)) == signed
