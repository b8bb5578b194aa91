"""The differential runner: timing model vs in-order oracle.

:func:`run_diff` simulates one machine configuration over one annotated
trace with an :class:`InstrumentedProcessor` -- a thin recording subclass
of the real :class:`~repro.pipeline.processor.Processor` -- and checks
every invariant in :data:`INVARIANTS` against the oracle's ground truth
(:func:`repro.validate.oracle.replay_oracle`).

The value-level checks work even though the timing model never computes
values: the oracle assigns every store a synthetic value, and the runner
*reconstructs* what each committed load observed --

* a bypassed load's value through the pipeline's own shift & mask
  datapath (:mod:`repro.core.partial_word`, looked up at call time so
  test mutations of that code are exercised);
* a cache-reading load's value byte by byte from the oracle's write
  history and the run's store-visibility timeline (which store's cache
  write had landed by the load's data-cache read cycle).

A load whose reconstructed value differs from the oracle's and that
committed without a flush is exactly the bug class NoSQ's SVW/T-SSBF
machinery exists to prevent; the runner reports it as a violation rather
than trusting the model's internal assertion.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

from repro.isa.trace import DynInst
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import Processor, SimulationError
from repro.pipeline.stats import RunStats
from repro.validate import oracle as oracle_mod
from repro.validate.oracle import LoadObservation, OracleReport, replay_oracle

#: Invariant registry: name -> one-line contract.  ``repro list`` and
#: docs/validation.md render this table; every :class:`Violation` names
#: one of these.
INVARIANTS: dict[str, str] = {
    "completion": (
        "the trace simulates to completion and the committed instruction "
        "count matches the oracle's"
    ),
    "counter-composition": (
        "committed load/store/branch counters equal the oracle's in-order "
        "counts"
    ),
    "annotation-consistency": (
        "the trace's store-load annotations match the oracle's "
        "independently derived per-byte provenance"
    ),
    "load-classification": (
        "bypassed + delayed + non-bypassed partitions the committed "
        "loads; identity + injected partitions the bypassed ones"
    ),
    "forwarding-correctness": (
        "every unflushed bypassed load's shift & mask datapath value "
        "equals the oracle's architecturally correct value"
    ),
    "svw-completeness": (
        "no load commits a value differing from the oracle's without a "
        "squash/replay (SVW verify never misses a true violation)"
    ),
    "flush-accounting": (
        "flushes equal the sum of per-cause counters, and a trace with "
        "no store-load communication never flushes"
    ),
    "arch-equivalence": (
        "stores commit exactly once, in program order, and the resulting "
        "final memory digest equals the oracle's (hence is identical "
        "across configurations)"
    ),
}


def list_invariants() -> dict[str, str]:
    """The checked invariants, for ``repro list`` discovery."""
    return dict(INVARIANTS)


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken invariant, attributable to one instruction if any."""

    invariant: str
    message: str
    #: Dynamic seq of the offending instruction (-1: whole-run property).
    seq: int = -1

    def describe(self) -> str:
        where = f" @ seq {self.seq}" if self.seq >= 0 else ""
        return f"[{self.invariant}]{where} {self.message}"


@dataclass(frozen=True, slots=True)
class LoadCommit:
    """What the timing model decided for one committed load."""

    seq: int
    flushed: bool
    bypassed: bool
    injected: bool
    delayed: bool
    sq_forwarded: bool
    smb_applied: bool
    predicted_store_seq: int
    predicted_shift: int
    issue_cycle: int
    dcache_read_cycle: int
    reexecuted: bool
    #: Execute-complete cycle of the forwarding store (conventional SQ
    #: forwarding), or None.
    forward_exec_cycle: int | None


class InstrumentedProcessor(Processor):
    """A :class:`Processor` that records its commit stream.

    Timing-neutral by construction: the overrides only append to lists
    after delegating to the real stage, so an instrumented run is
    bit-identical to a plain one (pinned by tests).
    """

    def __init__(self, config: MachineConfig) -> None:
        super().__init__(config)
        self.load_commits: list[LoadCommit] = []
        self.store_commit_order: list[int] = []

    def _commit_load(self, entry, cycle: int) -> bool:
        before_reexec = self.stats.reexecuted_loads
        flushed = super()._commit_load(entry, cycle)
        forward_exec = None
        if entry.sq_forwarded:
            forward_exec = self._store_exec_cycles.get(
                entry.predicted_store_seq
            )
        self.load_commits.append(LoadCommit(
            seq=entry.seq,
            flushed=flushed,
            bypassed=entry.bypassed,
            injected=entry.injected_op,
            delayed=entry.delayed,
            sq_forwarded=entry.sq_forwarded,
            smb_applied=entry.smb_applied,
            predicted_store_seq=entry.predicted_store_seq,
            predicted_shift=entry.predicted_shift,
            issue_cycle=entry.issue_cycle,
            dcache_read_cycle=entry.dcache_read_cycle,
            reexecuted=self.stats.reexecuted_loads > before_reexec,
            forward_exec_cycle=forward_exec,
        ))
        return flushed

    def _commit_store(self, entry, cycle: int) -> None:
        super()._commit_store(entry, cycle)
        self.store_commit_order.append(entry.inst.store_seq)

    @property
    def visibility_timeline(self) -> list[int]:
        """Cycle each committed store became observable to a cache read.

        The conventional baseline forwards from the post-commit store
        buffer (observable at commit entry); NoSQ needs the data-cache
        write itself to land -- mirroring ``_load_value_ok``'s choice.
        """
        if self._is_conventional:
            return self._store_entry_cycles
        return self._visible_cycles


@dataclass
class DiffReport:
    """One configuration diffed against the oracle over one trace."""

    config_name: str
    benchmark: str
    instructions: int
    violations: list[Violation] = field(default_factory=list)
    stats: RunStats | None = None
    oracle: OracleReport | None = None
    #: Order stores committed in, for the cross-config equivalence check.
    store_commit_order: list[int] = field(default_factory=list)
    #: Committed-state memory digest replayed from the commit stream.
    memory_digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        head = (
            f"{self.benchmark}/{self.config_name}: "
            f"{self.instructions} instructions, "
            f"{len(INVARIANTS)} invariants"
        )
        if self.ok:
            return f"{head}: OK"
        lines = [f"{head}: {len(self.violations)} violation(s)"]
        lines += [f"  {v.describe()}" for v in self.violations]
        return "\n".join(lines)


def _observed_cache_value(
    inst: DynInst,
    oracle: OracleReport,
    timeline: Sequence[int],
    read_cycle: int,
) -> int:
    """Reconstruct the value a cache read at *read_cycle* returned.

    For each byte: the youngest older store whose write was visible by
    the read (walking the oracle's write history backwards), else the
    background byte.  Younger stores cannot be visible -- they commit
    after the load does -- so program order bounds the walk.
    """
    num_visible = len(timeline)
    store_insts = oracle.store_insts
    raw = 0
    for offset in range(inst.size):
        addr = inst.addr + offset
        byte = oracle_mod.background_byte(addr)
        history = oracle.byte_history.get(addr, ())
        # Histories are appended in program order; start the backward
        # walk at the youngest *older* store rather than scanning every
        # younger write of a hot byte (quadratic on e.g. flag addresses).
        start = bisect_left(
            history, inst.seq, key=lambda e: store_insts[e[0]].seq
        )
        for index in range(start - 1, -1, -1):
            store_seq, value = history[index]
            if store_seq < num_visible and timeline[store_seq] <= read_cycle:
                byte = value
                break
        raw |= byte << (8 * offset)
    from repro.isa import semantics

    return semantics.load_from_memory(
        raw, inst.size, signed=inst.signed, fp_convert=inst.fp_convert
    )


def _bypass_datapath_value(
    store_inst: DynInst, load_inst: DynInst, shift: int
) -> int | None:
    """The value the pipeline's shift & mask network produces for a
    bypass of *load_inst* from *store_inst* at *shift*.

    Looked up through the module object (not ``from``-imported) so a
    mutation test patching :mod:`repro.core.partial_word` exercises the
    patched datapath, exactly as the injected operation would.
    """
    from repro.core import partial_word

    transform = partial_word.transform_for(
        store_size=store_inst.size,
        store_fp_convert=store_inst.fp_convert,
        load_size=load_inst.size,
        load_signed=load_inst.signed,
        load_fp_convert=load_inst.fp_convert,
        shift=shift,
    )
    if transform is None:
        return None
    return partial_word.apply_transform(
        oracle_mod.store_value(store_inst.store_seq), transform
    )


def _check_annotations(
    trace: Sequence[DynInst], oracle: OracleReport,
    violations: list[Violation],
) -> None:
    for obs in oracle.observations:
        inst = trace[obs.seq]
        if tuple(inst.src_stores) != obs.byte_sources:
            violations.append(Violation(
                "annotation-consistency",
                f"src_stores {inst.src_stores!r} != oracle "
                f"{obs.byte_sources!r}", seq=obs.seq,
            ))
        elif inst.containing_store != obs.containing_store:
            violations.append(Violation(
                "annotation-consistency",
                f"containing_store {inst.containing_store} != oracle "
                f"{obs.containing_store}", seq=obs.seq,
            ))


def _check_counters(
    stats: RunStats, oracle: OracleReport, smb_commits: int,
    violations: list[Violation],
) -> None:
    for name, expected in (
        ("loads", oracle.loads), ("stores", oracle.stores),
        ("branches", oracle.branches),
        ("instructions", oracle.instructions),
    ):
        actual = getattr(stats, name)
        if actual != expected:
            violations.append(Violation(
                "counter-composition",
                f"stats.{name} = {actual}, oracle counted {expected}",
            ))
    partition = (
        stats.bypassed_loads + stats.delayed_loads + stats.nonbypassed_loads
    )
    # Opportunistic SMB counts a short-circuited load as both bypassed
    # and non-bypassed (it still executes); everywhere else the three
    # classes partition the committed loads exactly.
    if partition != stats.loads + smb_commits:
        violations.append(Violation(
            "load-classification",
            f"bypassed {stats.bypassed_loads} + delayed "
            f"{stats.delayed_loads} + non-bypassed "
            f"{stats.nonbypassed_loads} != loads {stats.loads}"
            + (f" + {smb_commits} SMB" if smb_commits else ""),
        ))
    if stats.bypass_identity + stats.bypass_injected != stats.bypassed_loads:
        violations.append(Violation(
            "load-classification",
            f"identity {stats.bypass_identity} + injected "
            f"{stats.bypass_injected} != bypassed {stats.bypassed_loads}",
        ))
    cause_sum = (
        stats.flush_should_have_bypassed
        + stats.flush_should_not_have_bypassed
        + stats.flush_wrong_store
        + stats.flush_wrong_shift
        + stats.flush_conv_violation
    )
    if stats.flushes != cause_sum:
        violations.append(Violation(
            "flush-accounting",
            f"flushes {stats.flushes} != per-cause sum {cause_sum}",
        ))
    if oracle.communicating_loads == 0 and stats.flushes:
        violations.append(Violation(
            "flush-accounting",
            f"{stats.flushes} flush(es) on a trace with zero "
            "communicating loads",
        ))


def _check_loads(
    trace: Sequence[DynInst],
    oracle: OracleReport,
    commits: Sequence[LoadCommit],
    timeline: Sequence[int],
    violations: list[Violation],
) -> None:
    for commit in commits:
        obs = oracle.by_seq.get(commit.seq)
        if obs is None:
            violations.append(Violation(
                "counter-composition",
                "committed a load the oracle never saw", seq=commit.seq,
            ))
            continue
        inst = trace[commit.seq]
        if commit.smb_applied:
            # The opportunistic-SMB short-circuit is verified at execute
            # and flushes at dispatch; the load's own commit record does
            # not carry enough to reconstruct the consumers' view.
            continue
        if commit.bypassed:
            _check_bypassed_load(inst, obs, commit, oracle, violations)
            continue
        if (
            commit.sq_forwarded
            and commit.forward_exec_cycle is not None
            and commit.forward_exec_cycle <= commit.issue_cycle
        ):
            # Store-queue forwarding: the classification guarantees the
            # forwarding store is the youngest writer of every byte.
            if commit.predicted_store_seq != obs.containing_store:
                violations.append(Violation(
                    "forwarding-correctness",
                    f"SQ forwarded from store {commit.predicted_store_seq}"
                    f", oracle says containing store is "
                    f"{obs.containing_store}", seq=commit.seq,
                ))
            continue
        observed = _observed_cache_value(
            inst, oracle, timeline, commit.dcache_read_cycle
        )
        if observed != obs.value and not commit.flushed:
            violations.append(Violation(
                "svw-completeness",
                f"cache read observed {observed:#x}, oracle value is "
                f"{obs.value:#x}, and the load committed without a "
                "flush", seq=commit.seq,
            ))


def _check_bypassed_load(
    inst: DynInst,
    obs: LoadObservation,
    commit: LoadCommit,
    oracle: OracleReport,
    violations: list[Violation],
) -> None:
    correct_pairing = (
        commit.predicted_store_seq == obs.containing_store
        and commit.predicted_shift == obs.shift
    )
    if not correct_pairing:
        if not commit.flushed:
            violations.append(Violation(
                "svw-completeness",
                f"bypassed from store {commit.predicted_store_seq} at "
                f"shift {commit.predicted_shift} (oracle: store "
                f"{obs.containing_store}, shift {obs.shift}) without a "
                "flush", seq=commit.seq,
            ))
        return
    if commit.flushed:
        violations.append(Violation(
            "forwarding-correctness",
            "correctly paired bypass was flushed anyway", seq=commit.seq,
        ))
        return
    store_inst = oracle.store_insts[commit.predicted_store_seq]
    datapath = _bypass_datapath_value(
        store_inst, inst, commit.predicted_shift
    )
    if datapath is None:
        violations.append(Violation(
            "forwarding-correctness",
            f"bypass realized although no shift & mask transform exists "
            f"(store size {store_inst.size}, load size {inst.size}, "
            f"shift {commit.predicted_shift})", seq=commit.seq,
        ))
    elif datapath != obs.value:
        violations.append(Violation(
            "forwarding-correctness",
            f"shift & mask datapath produced {datapath:#x}, oracle "
            f"value is {obs.value:#x}", seq=commit.seq,
        ))


def _digest_commit_stream(
    order: Sequence[int], oracle: OracleReport
) -> str:
    """Final-memory digest implied by the recorded store commit stream."""
    memory: dict[int, int] = {}
    for store_seq in order:
        inst = oracle.store_insts[store_seq]
        for offset, byte in enumerate(oracle_mod.stored_bytes(inst)):
            memory[inst.addr + offset] = byte
    return oracle_mod.digest_memory(memory)


def run_diff(
    config: MachineConfig,
    trace: list[DynInst],
    benchmark: str = "<trace>",
    oracle: OracleReport | None = None,
) -> DiffReport:
    """Diff *config* against the oracle over *trace*.

    Runs with zero warmup so the statistics cover the whole trace and
    the counter invariants are exact.  Pass a precomputed *oracle*
    report when diffing several configurations over one trace.
    """
    if oracle is None:
        oracle = replay_oracle(trace)
    report = DiffReport(
        config_name=config.name, benchmark=benchmark,
        instructions=len(trace), oracle=oracle,
    )
    violations = report.violations
    _check_annotations(trace, oracle, violations)

    processor = InstrumentedProcessor(config)
    try:
        stats = processor.run(trace, warmup=0)
    except SimulationError as exc:
        violations.append(Violation(
            "completion", f"simulation aborted: {exc}"
        ))
        return report
    report.stats = stats
    report.store_commit_order = processor.store_commit_order
    smb_commits = sum(c.smb_applied for c in processor.load_commits)
    _check_counters(stats, oracle, smb_commits, violations)
    _check_loads(
        trace, oracle, processor.load_commits,
        processor.visibility_timeline, violations,
    )
    if processor.store_commit_order != list(range(oracle.stores)):
        violations.append(Violation(
            "arch-equivalence",
            "stores did not commit exactly once in program order",
        ))
    report.memory_digest = _digest_commit_stream(
        processor.store_commit_order, oracle
    )
    if report.memory_digest != oracle.memory_digest():
        violations.append(Violation(
            "arch-equivalence",
            "committed-state memory digest differs from the oracle's",
        ))
    return report


@dataclass
class ValidationResult:
    """Several configurations diffed over one benchmark trace."""

    benchmark: str
    reports: list[DiffReport]
    cross_violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.cross_violations and all(
            r.ok for r in self.reports
        )


def run_validation(
    configs: Sequence[MachineConfig],
    trace: list[DynInst],
    benchmark: str = "<trace>",
) -> ValidationResult:
    """Diff every configuration over one shared trace + oracle replay,
    then cross-check that their committed architectural states agree."""
    oracle = replay_oracle(trace)
    reports = [
        run_diff(config, trace, benchmark=benchmark, oracle=oracle)
        for config in configs
    ]
    result = ValidationResult(benchmark=benchmark, reports=reports)
    digests = {
        r.config_name: r.memory_digest for r in reports if r.memory_digest
    }
    if len(set(digests.values())) > 1:
        result.cross_violations.append(Violation(
            "arch-equivalence",
            "final memory digest differs across configurations: "
            + ", ".join(f"{k}={v[:12]}" for k, v in sorted(digests.items())),
        ))
    return result
