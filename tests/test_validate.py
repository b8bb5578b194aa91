"""Tests for the differential-validation subsystem (repro.validate).

Four layers:

1. the oracle itself (provenance vs annotate_trace, ISA value semantics,
   canonical memory state);
2. the differential runner on real workloads -- every ``standard`` preset
   against the oracle on all eight ``zoo.*`` families at smoke scale;
3. mutation kill tests: intentionally injected forwarding bugs must be
   caught by the runner and shrunk to a minimal repro (<= 50
   instructions), proving the subsystem would catch a future hot-path
   rewrite that breaks forwarding;
4. the fuzzer/shrinker machinery and repro-case round trips, including
   the committed minimal-repro fixtures under tests/data/.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings

from repro.api import resolve_config, resolve_configs, validate
from repro.core import partial_word
from repro.harness.runner import SMOKE, ExperimentScale
from repro.isa import bits, semantics
from repro.isa.trace import MEMORY_SOURCE
from repro.pipeline.processor import Processor
from repro.traces import load_repro_case, resolve_source, save_repro_case
from repro.validate import (
    INVARIANTS,
    InstrumentedProcessor,
    generate_ops,
    ops_strategy,
    ops_to_trace,
    replay_oracle,
    run_diff,
    run_fuzz,
    run_validation,
    shrink_ops,
    shrink_trace,
    store_value,
)
from tests.conftest import build_trace, comm_loop_specs

ZOO = ("pchase", "prodcons", "hashjoin", "spmv", "callstack", "memset",
       "overlap", "fsm")


# --------------------------------------------------------------------- #
# The oracle
# --------------------------------------------------------------------- #


class TestOracle:
    def test_provenance_matches_annotations(self):
        trace = ops_to_trace(generate_ops(3, 200))
        report = replay_oracle(trace)
        for obs in report.observations:
            inst = trace[obs.seq]
            assert tuple(inst.src_stores) == obs.byte_sources
            assert inst.containing_store == obs.containing_store

    def test_forwarded_value_follows_isa_semantics(self):
        # 8-byte store, misaligned signed 2-byte load two bytes in.
        trace = build_trace([
            ("st", 0x8000, 8, 8),
            ("ld", 0x8002, 2, {"signed": True}),
        ])
        report = replay_oracle(trace)
        obs = report.observations[0]
        raw = bits.extract_bytes(store_value(0), 2, 2)
        assert obs.value == bits.sign_extend(raw, 2)
        assert obs.containing_store == 0 and obs.shift == 2

    def test_fp_store_load_round_trip(self):
        # sts then lds: single-precision conversion both ways.
        trace = build_trace([
            ("st", 0x8000, 4, 8, {"fp_convert": True}),
            ("ld", 0x8000, 4, {"fp_convert": True}),
        ])
        obs = replay_oracle(trace).observations[0]
        memory_pattern = semantics.store_to_memory(store_value(0), 4, True)
        assert obs.value == bits.single_bits_to_double_bits(memory_pattern)

    def test_multi_source_and_background(self):
        trace = build_trace([
            ("st", 0x8000, 1, 8),
            ("st", 0x8001, 1, 8),
            ("ld", 0x8000, 4),
        ])
        obs = replay_oracle(trace).observations[0]
        assert obs.byte_sources == (0, 1, MEMORY_SOURCE, MEMORY_SOURCE)
        assert obs.is_multi_source
        assert obs.containing_store == MEMORY_SOURCE

    def test_final_memory_is_youngest_writers(self):
        trace = build_trace([
            ("st", 0x8000, 8, 8),
            ("st", 0x8004, 2, 8),
        ])
        report = replay_oracle(trace)
        final = report.final_memory()
        young = store_value(1).to_bytes(8, "little")[:2]
        assert final[0x8004] == young[0] and final[0x8005] == young[1]
        old = store_value(0).to_bytes(8, "little")
        assert final[0x8000] == old[0] and final[0x8007] == old[7]

    def test_store_values_differ_bytewise(self):
        # What makes a wrong-store observation visible in the value:
        # consecutive store values share (almost) no bytes.
        values = [store_value(i).to_bytes(8, "little") for i in range(64)]
        for a, b in zip(values, values[1:]):
            assert sum(x == y for x, y in zip(a, b)) <= 1
        assert len(set(values)) == len(values)

    def test_rejects_out_of_order_store_seq(self):
        trace = build_trace([("st", 0x8000, 8, 8)])
        trace[0].store_seq = 3
        with pytest.raises(ValueError, match="program order"):
            replay_oracle(trace)


# --------------------------------------------------------------------- #
# Differential regression: standard presets x the workload zoo
# --------------------------------------------------------------------- #


class TestStandardZooRegression:
    @pytest.mark.parametrize("family", ZOO)
    def test_zoo_family_clean_on_standard_presets(self, family):
        trace = resolve_source(f"zoo.{family}").trace(SMOKE, 17)
        result = run_validation(
            resolve_configs("standard"), trace, benchmark=f"zoo.{family}"
        )
        assert result.ok, "\n".join(
            r.describe() for r in result.reports if not r.ok
        )

    def test_validate_api_entry_point(self):
        result = validate("nosq,conventional", "zoo.pchase", scale="smoke")
        assert result.ok
        assert {r.config_name for r in result.reports} == {
            "nosq-delay", "sq-storesets",
        }

    def test_validate_api_accepts_machine_config(self):
        from repro.pipeline import MachineConfig

        result = validate(
            MachineConfig.nosq(), "gzip",
            scale=ExperimentScale("tiny", 2_000, 0),
        )
        assert result.ok

    def test_report_checks_every_registered_invariant(self):
        # The registry is the documentation contract: every invariant has
        # a non-empty one-line description.
        assert set(INVARIANTS) == {
            "completion", "counter-composition", "annotation-consistency",
            "load-classification", "forwarding-correctness",
            "svw-completeness", "flush-accounting", "arch-equivalence",
        }
        assert all(INVARIANTS.values())


class TestInstrumentationNeutrality:
    def test_instrumented_run_is_bit_identical(self):
        trace = resolve_source("zoo.hashjoin").trace(
            ExperimentScale("tiny", 3_000, 0), 17
        )
        plain = Processor(resolve_config("nosq")).run(trace, warmup=0)
        instrumented = InstrumentedProcessor(resolve_config("nosq"))
        recorded = instrumented.run(trace, warmup=0)
        assert vars(plain) == vars(recorded)
        assert len(instrumented.load_commits) == plain.loads
        assert instrumented.store_commit_order == list(range(plain.stores))


# --------------------------------------------------------------------- #
# Mutation kill tests: injected forwarding bugs must be caught
# --------------------------------------------------------------------- #


class TestMutationKill:
    def test_disabled_value_verification_is_caught_and_shrunk(
        self, monkeypatch
    ):
        # The forwarding-bug class the subsystem exists for: the model
        # stops comparing speculative load values against ground truth,
        # so stale values commit silently.  The differential runner must
        # catch it and shrink the repro to <= 50 instructions.
        monkeypatch.setattr(
            Processor, "_load_value_ok", lambda self, entry: True
        )
        result = run_fuzz([resolve_config("nosq")], budget=50, seed=0)
        assert not result.ok
        failure = result.failure
        assert len(failure.shrunk_ops) <= 50
        assert any(
            v.invariant in ("svw-completeness", "forwarding-correctness")
            for v in failure.violations
        )

    def test_partial_word_datapath_bug_is_caught(self, monkeypatch):
        # Injected shift & mask drops the sign extension: bypassed
        # sub-word loads produce the wrong register value while every
        # timing decision stays plausible.
        def no_sign_extend(store_reg_value, transform):
            value = store_reg_value & bits.WORD_MASK
            if transform.store_fp_convert:
                value = bits.double_bits_to_single_bits(value)
            extracted = bits.extract_bytes(
                value, transform.shift, transform.load_size
            )
            if transform.load_fp_convert:
                return bits.single_bits_to_double_bits(extracted)
            return bits.zero_extend(extracted, transform.load_size)

        monkeypatch.setattr(partial_word, "apply_transform", no_sign_extend)
        result = run_fuzz([resolve_config("nosq")], budget=100, seed=0)
        assert not result.ok
        assert len(result.failure.shrunk_ops) <= 50
        assert any(
            v.invariant == "forwarding-correctness"
            for v in result.failure.violations
        )

    def test_wrong_shift_datapath_bug_is_caught(self, monkeypatch):
        original = partial_word.apply_transform

        def off_by_one_shift(store_reg_value, transform):
            if transform.shift >= 1:
                transform = dataclasses.replace(
                    transform, shift=transform.shift - 1
                )
            return original(store_reg_value, transform)

        monkeypatch.setattr(partial_word, "apply_transform", off_by_one_shift)
        result = run_fuzz([resolve_config("nosq")], budget=200, seed=1)
        assert not result.ok
        assert len(result.failure.shrunk_ops) <= 50

    def test_dropped_commit_is_caught(self, monkeypatch):
        # A store that never reaches the commit stream breaks the
        # architectural-equivalence digest.
        original = InstrumentedProcessor._commit_store

        def drop_third_store(self, entry, cycle):
            original(self, entry, cycle)
            if entry.inst.store_seq == 2 and self.store_commit_order:
                self.store_commit_order.pop()

        monkeypatch.setattr(
            InstrumentedProcessor, "_commit_store", drop_third_store
        )
        trace = ops_to_trace(generate_ops(0, 120))
        report = run_diff(resolve_config("nosq"), trace)
        assert any(
            v.invariant == "arch-equivalence" for v in report.violations
        )


# --------------------------------------------------------------------- #
# Fuzzer + shrinker machinery
# --------------------------------------------------------------------- #


class TestFuzzer:
    def test_generation_is_deterministic(self):
        assert generate_ops(7, 150) == generate_ops(7, 150)
        assert generate_ops(7, 150) != generate_ops(8, 150)

    def test_generated_traces_are_adversarial(self):
        # The bias must actually produce collisions and partial overlap.
        trace = ops_to_trace(generate_ops(0, 400))
        report = replay_oracle(trace)
        assert report.communicating_loads > 10
        assert any(o.is_multi_source or (
            o.containing_store != MEMORY_SOURCE and o.shift > 0
        ) for o in report.observations)

    def test_fuzz_clean_on_reference_configs(self):
        result = run_fuzz(
            [resolve_config("nosq"), resolve_config("conventional")],
            budget=25, seed=0,
        )
        assert result.ok and result.traces_run == 25

    def test_shrinker_minimizes_to_known_kernel(self):
        # Predicate: the trace still contains a store and a load to the
        # same slot; the minimum is exactly one of each.
        def failing(ops):
            stores = {op[1] for op in ops if op[0] == "st"}
            loads = {op[1] for op in ops if op[0] == "ld"}
            return bool(stores & loads)

        ops = generate_ops(0, 120)
        assert failing(ops)
        shrunk = shrink_ops(ops, failing)
        assert failing(shrunk) and len(shrunk) == 2

    def test_shrink_trace_handles_raw_instructions(self):
        trace = build_trace(comm_loop_specs(iterations=16))

        def failing(candidate):
            return sum(i.is_load for i in candidate) >= 1

        shrunk = shrink_trace(trace, failing)
        assert len(shrunk) == 1 and shrunk[0].is_load
        assert shrunk[0].seq == 0  # reindexed

    @given(ops_strategy(min_size=1, max_size=60))
    @settings(max_examples=25)
    def test_every_generated_op_list_builds_a_valid_trace(self, ops):
        trace = ops_to_trace(ops)
        assert len(trace) == len(ops)
        report = replay_oracle(trace)
        assert report.instructions == len(ops)


class TestReproCases:
    def test_round_trip(self, tmp_path):
        trace = ops_to_trace(generate_ops(2, 40))
        path = save_repro_case(
            trace, tmp_path / "case.bt", config_name="nosq-delay",
            violations=["[svw-completeness] example"],
            fuzz={"seed": 2, "index": 0},
        )
        case = load_repro_case(path)
        assert case.config_name == "nosq-delay"
        assert case.fuzz["seed"] == 2
        assert [i.addr for i in case.trace] == [i.addr for i in trace]

    def test_missing_sidecar_raises_distinct_error(self, tmp_path):
        from repro.isa.tracefile import save_trace
        from repro.traces.reprocase import MissingSidecarError

        trace = ops_to_trace(generate_ops(2, 10))
        save_trace(trace, tmp_path / "bare.bt")
        with pytest.raises(MissingSidecarError, match="sidecar"):
            load_repro_case(tmp_path / "bare.bt")

    def test_malformed_sidecar_fields_raise_value_error(self, tmp_path):
        # Wrong-typed fields must surface as the documented ValueError,
        # not a TypeError traceback.
        import json

        trace = ops_to_trace(generate_ops(2, 10))
        path = save_repro_case(
            trace, tmp_path / "bad.bt", config_name="nosq",
            violations=["x"],
        )
        sidecar = tmp_path / "bad.bt.json"
        for broken in (
            {"oracle_version": None}, {"config": 7}, {"fuzz": "oops"},
        ):
            meta = json.loads(sidecar.read_text())
            meta.update(broken)
            sidecar.write_text(json.dumps(meta))
            with pytest.raises(ValueError, match="malformed sidecar"):
                load_repro_case(path)

    def test_other_oracle_version_is_rejected(self, tmp_path):
        # A case recorded under different synthetic store values would
        # replay meaninglessly; loading must refuse, not mislead.
        import json

        trace = ops_to_trace(generate_ops(2, 10))
        path = save_repro_case(
            trace, tmp_path / "old.bt", config_name="nosq",
            violations=["x"],
        )
        sidecar = tmp_path / "old.bt.json"
        meta = json.loads(sidecar.read_text())
        meta["oracle_version"] = 99
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="oracle version 99"):
            load_repro_case(path)

    @pytest.mark.parametrize(
        "fixture",
        (
            "repro_svw_miss.bt",
            "repro_partial_word.bt",
            "repro_straddle_bypass.bt",
        ),
    )
    def test_committed_fixtures_replay_clean(self, fixture):
        # The committed minimal repros were shrunk against *mutated*
        # simulators; the real simulator must hold every invariant on
        # them (they are the permanent regression corpus for the bug
        # classes the mutations modeled).
        case = load_repro_case(f"tests/data/{fixture}")
        assert case.violations, "fixture must record what it once caught"
        report = run_diff(
            resolve_config(case.config_name), case.trace, benchmark=fixture
        )
        assert report.ok, report.describe()

    def test_fixture_is_reproducible_from_fuzz_coordinates(self):
        # The sidecar's (seed, index, length) fully determine the
        # original unshrunk trace: the RNG-seed <-> trace guarantee.
        case = load_repro_case("tests/data/repro_svw_miss.bt")
        fuzz = case.fuzz
        ops = generate_ops(fuzz["seed"] + fuzz["index"], fuzz["length"])
        assert len(ops) == fuzz["length"]
        shrunk_ops = [tuple(op) for op in fuzz["ops"]]
        assert [i.addr for i in ops_to_trace(shrunk_ops)] == [
            i.addr for i in case.trace
        ]
