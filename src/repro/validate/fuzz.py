"""Property-based trace fuzzer with automatic shrinking.

Traces are described in a tiny op language (plain tuples, so cases are
JSON-serializable and shrink well):

=============================================  =========================
op                                             meaning
=============================================  =========================
``("st", slot, off, size, site, fp)``          store to slot*8+off
``("ld", slot, off, size, site, signed, fp)``  load from slot*8+off
``("alu", r)``                                 1-cycle ALU op (chained)
``("br", taken, site)``                        conditional branch
``("call", site)`` / ``("ret",)``              call / return
=============================================  =========================

:func:`generate_ops` draws adversarial streams from a seeded RNG, biased
toward the cases the paper's machinery exists for: same-address
store/load collisions, partial-word overlap (misaligned sub-word stores
feeding wider loads and vice versa), repeated PC sites so the bypassing
predictor trains and mispredicts, and ALU runs that stretch store-load
reuse distances across the SVW window.  The same distributions are
exposed as Hypothesis strategies (:func:`ops_strategy`) for the property
tests.

A failing trace is shrunk by :func:`shrink_ops` -- ddmin chunk removal,
then per-op removal, then field simplification -- and saved as a minimal
repro: a v2 trace file plus JSON sidecar
(:func:`repro.traces.reprocase.save_repro_case`) that ``repro validate
shrink``/``run`` can replay.  Trace generation is a pure function of
``(seed, index)``, so recording the two reproduces the exact failing
trace anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.isa.opcodes import OpClass
from repro.isa.trace import DynInst, annotate_trace, reindex_trace
from repro.pipeline.config import MachineConfig
from repro.validate.diff import DiffReport, Violation, run_diff, run_validation

Op = tuple
OpList = list  # list[Op]

#: Data slots (8 bytes each) the memory ops collide over; small on
#: purpose so same-address store/load pairs are frequent.
NUM_SLOTS = 12
#: Static PC sites per op kind; repetition is what trains predictors.
NUM_SITES = 4
#: Base of the fuzzed data region.
DATA_BASE = 0x8000

# Operation classes bound once: an enum member read costs about ten module
# global reads, and every emitted instruction needs one (DESIGN.md §4).
_ALU = OpClass.ALU
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH

_SIZES = (1, 2, 4, 8)


def ops_to_trace(ops: Sequence[Op]) -> list[DynInst]:
    """Build an annotated trace from an op list.

    Loads and stores address ``DATA_BASE + 8*slot + off`` -- offsets are
    deliberately *not* aligned to the access size, so sub-word overlap
    and cross-slot straddling occur exactly as generated.
    """
    trace: list[DynInst] = []
    load_reg = 16
    for index, op in enumerate(ops):
        kind = op[0]
        pc = 0x1000 + 4 * index
        if kind == "st":
            _, slot, off, size, site, fp = op
            trace.append(DynInst(
                seq=index, pc=0x2000 + 16 * (site % NUM_SITES),
                op=_STORE, srcs=(5, 8 + site % 4),
                addr=DATA_BASE + 8 * (slot % NUM_SLOTS) + off % 8,
                size=size, fp_convert=fp and size == 4, lat=1,
            ))
        elif kind == "ld":
            _, slot, off, size, site, signed, fp = op
            fp = fp and size == 4
            trace.append(DynInst(
                seq=index, pc=0x2004 + 16 * (site % NUM_SITES),
                op=_LOAD, srcs=(5,), dst=load_reg,
                addr=DATA_BASE + 8 * (slot % NUM_SLOTS) + off % 8,
                size=size, signed=signed and not fp, fp_convert=fp, lat=1,
            ))
            load_reg = 16 + (load_reg - 15) % 8
        elif kind == "alu":
            r = op[1] % 4
            trace.append(DynInst(
                seq=index, pc=0x3000 + 4 * r, op=_ALU,
                dst=8 + r, srcs=(8 + (r + 1) % 4,), lat=1,
            ))
        elif kind == "br":
            _, taken, site = op
            trace.append(DynInst(
                seq=index, pc=0x3100 + 16 * (site % 2), op=_BRANCH,
                taken=taken, target=pc + 0x40, lat=1,
            ))
        elif kind == "call":
            trace.append(DynInst(
                seq=index, pc=0x3200 + 16 * (op[1] % 2), op=_BRANCH,
                taken=True, target=pc + 0x100, is_call=True, lat=1,
            ))
        elif kind == "ret":
            trace.append(DynInst(
                seq=index, pc=0x3300, op=_BRANCH,
                taken=True, target=pc + 4, is_return=True, lat=1,
            ))
        else:
            raise ValueError(f"unknown fuzz op {op!r}")
    return annotate_trace(trace)


def generate_ops(seed: int, length: int = 120) -> OpList:
    """Draw one adversarial op stream; pure function of its arguments."""
    rng = random.Random((seed << 20) ^ length)
    ops: OpList = []
    #: Recent store (slot, off, size) tuples, the collision pool.
    recent: list[tuple[int, int, int]] = []
    while len(ops) < length:
        roll = rng.random()
        if roll < 0.22:
            slot = rng.randrange(NUM_SLOTS)
            off = rng.choice((0, 0, 0, rng.randrange(8)))
            size = rng.choice(_SIZES)
            ops.append((
                "st", slot, off, size, rng.randrange(NUM_SITES),
                rng.random() < 0.1,
            ))
            recent.append((slot, off, size))
            if len(recent) > 8:
                recent.pop(0)
        elif roll < 0.54:
            signed = rng.random() < 0.3
            fp = rng.random() < 0.08
            site = rng.randrange(NUM_SITES)
            if recent and rng.random() < 0.6:
                # Same-address collision with a recent store.
                slot, off, size = rng.choice(recent)
                ops.append(("ld", slot, off, size, site, signed, fp))
            elif recent and rng.random() < 0.5:
                # Partial-word overlap: nudge the offset and resize, so
                # sub-word stores feed wider loads and vice versa.
                slot, off, size = rng.choice(recent)
                ops.append((
                    "ld", slot, (off + rng.choice((-2, -1, 1, 2))) % 8,
                    rng.choice(_SIZES), site, signed, fp,
                ))
            else:
                ops.append((
                    "ld", rng.randrange(NUM_SLOTS), rng.randrange(8),
                    rng.choice(_SIZES), site, signed, fp,
                ))
        elif roll < 0.62:
            # Bypass-training loop: a fixed-PC DEF -> store -> load body
            # with a constant partial-word shift, like a real loop.  This
            # is what makes the bypassing predictor *confident* enough to
            # realize shifted sub-word bypasses (and then mispredict when
            # the pattern breaks).
            shift = rng.choice((0, 1, 2, 4))
            load_size = rng.choice((1, 2, 4))
            store_site = rng.randrange(NUM_SITES)
            load_site = rng.randrange(NUM_SITES)
            signed = rng.random() < 0.4
            for _ in range(rng.randrange(6, 14)):
                slot = rng.randrange(NUM_SLOTS)
                ops.append(("alu", store_site % 4))
                ops.append(("st", slot, 0, 8, store_site, False))
                ops.append((
                    "ld", slot, shift, load_size, load_site, signed, False,
                ))
                recent.append((slot, shift, load_size))
                if len(recent) > 8:
                    recent.pop(0)
        elif roll < 0.82:
            ops.append(("alu", rng.randrange(4)))
        elif roll < 0.87:
            # Distance burst: an ALU run that pushes the next store-load
            # reuse distance toward (and past) the SVW/predictor window.
            for _ in range(rng.randrange(8, 30)):
                ops.append(("alu", rng.randrange(4)))
        elif roll < 0.95:
            ops.append(("br", rng.random() < 0.5, rng.randrange(2)))
        elif roll < 0.98:
            ops.append(("call", rng.randrange(2)))
        else:
            ops.append(("ret",))
    return ops[:length]


def ops_strategy(min_size: int = 1, max_size: int = 120):
    """A Hypothesis strategy over op lists (the fuzzer's distribution).

    Imported lazily so :mod:`repro.validate` works without the
    ``hypothesis`` test extra installed.
    """
    from hypothesis import strategies as st

    slot = st.integers(min_value=0, max_value=NUM_SLOTS - 1)
    off = st.sampled_from((0, 0, 0, 1, 2, 3, 4, 5, 6, 7))
    size = st.sampled_from(_SIZES)
    site = st.integers(min_value=0, max_value=NUM_SITES - 1)
    flag = st.booleans()
    rare = st.sampled_from((False,) * 9 + (True,))
    op = st.one_of(
        st.tuples(st.just("st"), slot, off, size, site, rare),
        st.tuples(st.just("ld"), slot, off, size, site, flag, rare),
        st.tuples(st.just("alu"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("br"), flag, st.integers(min_value=0, max_value=1)),
        st.tuples(st.just("call"), st.integers(min_value=0, max_value=1)),
        st.tuples(st.just("ret")),
    )
    return st.lists(op, min_size=min_size, max_size=max_size)


# --------------------------------------------------------------------- #
# Shrinking
# --------------------------------------------------------------------- #


def shrink_ops(
    ops: OpList,
    failing: Callable[[OpList], bool],
    max_checks: int = 2000,
) -> OpList:
    """Reduce *ops* to a (1-)minimal list that still satisfies *failing*.

    Three passes to a fixpoint, bounded by *max_checks* predicate
    evaluations: ddmin-style chunk removal, per-op removal, then per-op
    field simplification (sizes to 8, offsets to 0, flags off) so the
    surviving repro reads as plainly as possible.
    """
    checks = 0

    def fails(candidate: OpList) -> bool:
        nonlocal checks
        if checks >= max_checks:
            return False
        checks += 1
        return failing(candidate)

    if not failing(list(ops)):
        raise ValueError(
            "shrink needs a failing input: the trace does not violate "
            "the predicate it is being minimized against"
        )
    current = list(ops)
    # Pass 1: ddmin chunk removal.
    granularity = 2
    while len(current) > 1 and granularity <= len(current):
        chunk = max(1, len(current) // granularity)
        removed_any = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk:]
            if candidate and fails(candidate):
                current = candidate
                removed_any = True
            else:
                start += chunk
        if removed_any:
            granularity = max(granularity - 1, 2)
        elif granularity >= len(current):
            break
        else:
            granularity = min(granularity * 2, len(current))
    # Pass 2: single-op removal until stable.
    changed = True
    while changed:
        changed = False
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + 1:]
            if candidate and fails(candidate):
                current = candidate
                changed = True
            else:
                index += 1
    # Pass 3: field simplification.
    for index, op in enumerate(current):
        for simpler in _simplifications(op):
            candidate = list(current)
            candidate[index] = simpler
            if fails(candidate):
                current = candidate
                break
    return current


def shrink_trace(
    trace: Sequence[DynInst],
    failing: Callable[[list[DynInst]], bool],
    max_checks: int = 2000,
) -> list[DynInst]:
    """Minimize a raw instruction trace; *failing* takes an annotated
    candidate trace."""
    shrunk = shrink_ops(
        list(trace),
        lambda items: failing(reindex_trace(items)),
        max_checks=max_checks,
    )
    return reindex_trace(shrunk)


def _simplifications(op: Op) -> list[Op]:
    """Simpler variants of one op, most aggressive first."""
    out: list[Op] = []
    if not isinstance(op, tuple):
        # Raw DynInst items (shrink_trace) only get the removal passes.
        return out
    if op[0] == "st":
        _, slot, off, size, site, fp = op
        for variant in (
            ("st", 0, 0, 8, 0, False),
            ("st", slot, 0, size, site, False),
            ("st", slot, off, 8, site, False),
            ("st", slot, off, size, 0, fp),
        ):
            if variant != op:
                out.append(variant)
    elif op[0] == "ld":
        _, slot, off, size, site, signed, fp = op
        for variant in (
            ("ld", 0, 0, 8, 0, False, False),
            ("ld", slot, 0, size, site, False, False),
            ("ld", slot, off, 8, site, signed, fp),
            ("ld", slot, off, size, 0, False, False),
        ):
            if variant != op:
                out.append(variant)
    elif op[0] == "br":
        if op[1]:
            out.append(("br", False, op[2]))
    elif op[0] in ("call", "ret"):
        out.append(("alu", 0))
    return out


# --------------------------------------------------------------------- #
# The fuzz loop
# --------------------------------------------------------------------- #


@dataclass
class FuzzFailure:
    """A violation found by fuzzing, with its shrunk minimal repro."""

    seed: int
    index: int
    config_name: str
    ops: OpList
    shrunk_ops: OpList
    report: DiffReport
    #: Where the minimal repro was saved, if an output dir was given.
    saved_to: Path | None = None

    @property
    def violations(self) -> list[Violation]:
        return self.report.violations

    def describe(self) -> str:
        lines = [
            f"fuzz failure: seed {self.seed}, trace #{self.index}, "
            f"config {self.config_name}: shrunk "
            f"{len(self.ops)} -> {len(self.shrunk_ops)} ops",
        ]
        lines += [f"  {v.describe()}" for v in self.report.violations]
        if self.saved_to is not None:
            lines.append(f"  minimal repro saved to {self.saved_to}")
        return "\n".join(lines)


@dataclass
class FuzzResult:
    """Outcome of one fuzzing session."""

    seed: int
    budget: int
    traces_run: int = 0
    failure: FuzzFailure | None = None
    configs: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_fuzz(
    configs: Sequence[MachineConfig],
    budget: int = 100,
    seed: int = 0,
    length: int = 120,
    out_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    max_shrink_checks: int = 2000,
) -> FuzzResult:
    """Fuzz *configs* with *budget* adversarial traces; shrink on failure.

    Stops at the first violating trace: the repro is shrunk against the
    first config that failed on it, and (with *out_dir*) saved through
    :func:`repro.traces.reprocase.save_repro_case`.  Deterministic for a
    given ``(seed, budget, length, configs)``.
    """
    result = FuzzResult(
        seed=seed, budget=budget, configs=[c.name for c in configs],
    )
    for index in range(budget):
        ops = generate_ops(seed + index, length)
        trace = ops_to_trace(ops)
        validation = run_validation(configs, trace, benchmark=f"fuzz#{index}")
        result.traces_run += 1
        if validation.ok:
            if progress is not None and (index + 1) % 25 == 0:
                progress(f"{index + 1}/{budget} traces clean")
            continue
        bad = next(r for r in validation.reports if not r.ok)
        config = next(c for c in configs if c.name == bad.config_name)
        if progress is not None:
            progress(
                f"trace #{index} violates "
                f"{sorted({v.invariant for v in bad.violations})} on "
                f"{bad.config_name}; shrinking..."
            )

        def failing(candidate: OpList) -> bool:
            return not run_diff(config, ops_to_trace(candidate)).ok

        shrunk = shrink_ops(ops, failing, max_checks=max_shrink_checks)
        report = run_diff(
            config, ops_to_trace(shrunk), benchmark=f"fuzz#{index}.shrunk"
        )
        failure = FuzzFailure(
            seed=seed, index=index, config_name=config.name,
            ops=ops, shrunk_ops=shrunk, report=report,
        )
        if out_dir is not None:
            from repro.traces.reprocase import save_repro_case

            try:
                failure.saved_to = save_repro_case(
                    ops_to_trace(shrunk),
                    Path(out_dir)
                    / f"repro-{config.name}-seed{seed}-{index}.bt",
                    config_name=config.name,
                    violations=[v.describe() for v in report.violations],
                    fuzz={"seed": seed, "index": index, "length": length,
                          "ops": [list(op) for op in shrunk]},
                )
            except OSError as exc:
                # The failure (with its shrunk op list) is still
                # returned; only the on-disk artifact is lost.
                if progress is not None:
                    progress(f"could not save the minimal repro: {exc}")
        result.failure = failure
        return result
    return result
