"""Machine configurations (Section 4.1).

The default machine is the paper's: a 4-way superscalar with a 128-entry
reorder buffer, 40-entry issue queue, 160 physical registers, 48-entry
non-associative load queue, 64KB 2-way L1 caches, 1MB 8-way 10-cycle L2,
150-cycle memory, an 11-stage front/execute pipeline, and SVW-filtered load
re-execution with a 128-entry 4-way T-SSBF and 20-bit SSNs.

Factories build the five evaluated configurations:

=======================  ====================================================
``conventional()``        associative SQ + StoreSets scheduling (Fig. 2 bar 1)
``conventional(perfect_scheduling=True)``  the normalization baseline
``nosq(delay=False)``     NoSQ without delay (bar 2)
``nosq()``                NoSQ with delay (bar 3)
``nosq(perfect=True)``    perfect SMB (bar 4)
=======================  ====================================================

``window=256`` doubles all window resources, quadruples the branch predictor,
and leaves the bypassing predictor unchanged, exactly as in Section 4.4.

The records nested in a ``MachineConfig`` (:class:`BackendConfig`,
:class:`BypassPredictorConfig`, :class:`HierarchyConfig`) live here too,
so describing a machine imports no simulator module.  So does
:func:`check_runnable`, the one table of rules deciding which machines
the pipeline can run; the component constructors trust it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace


@dataclass(frozen=True)
class BackendConfig:
    """Shape of the in-order back end
    (:class:`~repro.core.commit_pipeline.CommitPipeline`)."""

    depth: int           # total stages from commit-entry to final commit
    dcache_offset: int   # stages from entry to the data-cache access stage

    @staticmethod
    def conventional() -> "BackendConfig":
        """1 setup, 1 SVW, 3 data cache, 1 commit."""
        return BackendConfig(depth=6, dcache_offset=2)

    @staticmethod
    def nosq() -> "BackendConfig":
        """1 setup, 2 register read, 1 agen/SVW, 3 data cache, 1 commit."""
        return BackendConfig(depth=8, dcache_offset=4)


@dataclass
class BypassPredictorConfig:
    """Sizing and policy knobs of the bypassing predictor
    (:class:`~repro.core.bypass_predictor.BypassingPredictor`); the
    defaults reproduce the 10KB predictor."""

    entries_per_table: int = 1024
    assoc: int = 4
    history_bits: int = 8
    distance_bits: int = 6
    shift_bits: int = 3
    tag_bits: int = 22
    conf_bits: int = 7
    #: New entries start just above threshold ("initialized at an
    #: above-threshold value").
    conf_init: int = 72
    conf_threshold: int = 64
    #: Sharp decrement on path-sensitive-available mispredictions; gentle
    #: increment otherwise.
    conf_dec: int = 64
    conf_inc: int = 2
    #: Unbounded tables (the "Inf" points of Figure 5).
    unbounded: bool = False

    @property
    def max_distance(self) -> int:
        return (1 << self.distance_bits) - 1

    @property
    def conf_max(self) -> int:
        return (1 << self.conf_bits) - 1

    @property
    def storage_bytes(self) -> int:
        """Total predictor storage, for reporting (10KB at defaults)."""
        entry_bits = (
            self.tag_bits + self.distance_bits + self.shift_bits + 2 + self.conf_bits
        )
        return 2 * self.entries_per_table * ((entry_bits + 7) // 8)


@dataclass
class HierarchyConfig:
    """Parameters of the cache/memory hierarchy
    (:class:`~repro.memory.hierarchy.MemoryHierarchy`)."""

    l1_size: int = 64 * 1024
    l1_assoc: int = 2
    l1_latency: int = 3
    l2_size: int = 1024 * 1024
    l2_assoc: int = 8
    l2_latency: int = 10
    line_bytes: int = 64
    memory_latency: int = 150
    bus_bytes_per_cycle: int = 4  # 16-byte bus at quarter frequency


class Mode(enum.Enum):
    CONVENTIONAL = "conventional"
    NOSQ = "nosq"


class SchedulerKind(enum.Enum):
    """Load scheduling in the conventional baseline."""

    STORESETS = "storesets"
    PERFECT = "perfect"


class BypassKind(enum.Enum):
    """Bypassing prediction in NoSQ."""

    REAL = "real"
    PERFECT = "perfect"


@dataclass
class MachineConfig:
    """Full description of one simulated machine."""

    name: str
    mode: Mode
    scheduler: SchedulerKind = SchedulerKind.STORESETS
    bypass: BypassKind = BypassKind.REAL
    delay_enabled: bool = True
    #: Opportunistic SMB on the conventional machine (the Table 1 background
    #: design): high-confidence loads short-circuit their consumers through
    #: rename but still execute out-of-order for verification; the store
    #: queue remains the forwarding mechanism of record.
    smb_opportunistic: bool = False

    # Widths and window resources.
    width: int = 4
    commit_width: int = 4
    rob_size: int = 128
    iq_size: int = 40
    phys_regs: int = 160
    lq_size: int | None = 48
    sq_size: int = 24

    # Pipeline shape.
    #: Stages between rename and execution (schedule + 2 register read):
    #: an instruction cannot issue earlier than dispatch + 1 + exec_delay.
    exec_delay: int = 3
    # Front end.
    frontend_depth: int = 7       # redirect penalty (refetch through rename)
    btb_bubble: int = 2           # taken-branch BTB-miss fetch bubble
    max_branches_per_group: int = 2
    max_taken_per_group: int = 2  # "fetch past one taken branch"
    bp_table_entries: int = 4096  # per component table of the hybrid
    bp_history_bits: int = 12
    btb_entries: int = 2048
    btb_assoc: int = 4
    ras_depth: int = 32

    # SSN / SVW.
    #: Disable SVW filtering: every speculative load re-executes (the
    #: unfiltered baseline of Section 2.2, used to show the filter's value).
    svw_enabled: bool = True
    ssn_bits: int = 20
    drain_penalty: int = 64
    tssbf_entries: int = 128
    tssbf_assoc: int = 4

    # Back end.
    backend: BackendConfig = field(default_factory=BackendConfig.conventional)

    # NoSQ bypassing predictor.
    bypass_predictor: BypassPredictorConfig = field(
        default_factory=BypassPredictorConfig
    )

    # Memory.
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    tlb_entries: int = 128
    tlb_assoc: int = 4
    tlb_miss_penalty: int = 30

    # Safety valve for the cycle loop.
    max_cycles_per_inst: int = 400

    # ------------------------------------------------------------------ #

    @staticmethod
    def conventional(
        window: int = 128, perfect_scheduling: bool = False
    ) -> "MachineConfig":
        """The associative-store-queue baseline."""
        config = MachineConfig(
            name="sq-perfect" if perfect_scheduling else "sq-storesets",
            mode=Mode.CONVENTIONAL,
            scheduler=(
                SchedulerKind.PERFECT if perfect_scheduling
                else SchedulerKind.STORESETS
            ),
            backend=BackendConfig.conventional(),
        )
        return scale_window(config, window)

    @staticmethod
    def conventional_smb(window: int = 128) -> "MachineConfig":
        """The Table 1 background design: associative SQ + StoreSets with
        *opportunistic* SMB verified by out-of-order load execution."""
        config = MachineConfig.conventional(window=window)
        config = replace(config, name="sq-smb", smb_opportunistic=True)
        if window != 128:
            config = replace(config, name="sq-smb-w256")
        return config

    @staticmethod
    def nosq(
        window: int = 128,
        delay: bool = True,
        perfect: bool = False,
        predictor: BypassPredictorConfig | None = None,
    ) -> "MachineConfig":
        """NoSQ: no store queue, no load queue, SMB for all communication."""
        if perfect:
            name = "nosq-perfect"
        else:
            name = "nosq-delay" if delay else "nosq-nodelay"
        config = MachineConfig(
            name=name,
            mode=Mode.NOSQ,
            bypass=BypassKind.PERFECT if perfect else BypassKind.REAL,
            delay_enabled=delay,
            lq_size=None,   # the load-queue-free design point (Figure 1)
            sq_size=0,
            backend=BackendConfig.nosq(),
            bypass_predictor=predictor or BypassPredictorConfig(),
        )
        return scale_window(config, window)


def scale_window(config: MachineConfig, window: int) -> MachineConfig:
    """Scale window resources for the 256-entry machine of Section 4.4.

    "All window resources are doubled and the branch predictor size is
    quadrupled; however, NoSQ's bypassing predictor is not enlarged."
    """
    if window == 128:
        return config
    if window != 256:
        raise ValueError("supported window sizes: 128, 256")
    scaled = replace(
        config,
        name=f"{config.name}-w256",
        rob_size=256,
        iq_size=80,
        phys_regs=320,
        lq_size=None if config.lq_size is None else config.lq_size * 2,
        sq_size=config.sq_size * 2,
        bp_table_entries=config.bp_table_entries * 4,
        bp_history_bits=config.bp_history_bits + 2,
        btb_entries=config.btb_entries * 4,
    )
    # Distances beyond 64 stores become representable needs; the predictor's
    # distance field is deliberately NOT widened (the paper keeps the
    # bypassing predictor fixed to show its capacity sensitivity).
    return scaled


# --------------------------------------------------------------------- #
# Which machines can run
# --------------------------------------------------------------------- #

#: The mini-ISA's architectural registers
#: (:data:`repro.isa.instructions.NUM_ARCH_REGS`), restated so that
#: checking a config loads no ``repro.isa`` module; tests/test_api.py pins
#: the two equal.
_ARCH_REGS = 64


def _sets(entries: int, way: int) -> bool:
    """Whether *entries* fill a power-of-two number of sets of *way*
    entries each: the geometry of every table indexed by a mask."""
    sets, rest = divmod(entries, way)
    return not rest and sets >= 1 and not sets & (sets - 1)


def _positive(value: int | None, config: MachineConfig) -> bool:
    return value is None or value >= 1


#: Which machines the pipeline can run, as (field, test of its value
#: within the whole config, what the value must be), checked in order
#: once no numeric field is negative.  A zero-wide group or zero-entry
#: queue never makes progress, and a table with no ways or return slots
#: divides by zero or indexes nothing; renaming needs a free physical
#: register beyond the architectural ones; SSNs need at least 4 bits;
#: only the conventional machine has a store queue; and every table
#: indexed by a mask holds a power-of-two number of sets of its
#: associativity.
RUNNABLE_RULES = (
    *((key, _positive, "must be at least 1") for key in (
        "width", "commit_width", "max_branches_per_group", "lq_size",
        "rob_size", "iq_size", "ras_depth", "tssbf_assoc", "tlb_assoc",
        "btb_assoc", "bypass_predictor.assoc", "hierarchy.l1_assoc",
        "hierarchy.l2_assoc",
    )),
    ("phys_regs", lambda v, c: v > _ARCH_REGS,
     f"must exceed the {_ARCH_REGS} architectural registers"),
    ("ssn_bits", lambda v, c: v >= 4, "must be at least 4"),
    ("sq_size", lambda v, c: c.mode is not Mode.NOSQ or v == 0,
     "NoSQ has no store queue; must be 0"),
    ("sq_size", lambda v, c: c.mode is Mode.NOSQ or v >= 1,
     "the conventional machine needs a store queue; must be at least 1"),
    ("bp_table_entries", lambda v, c: _sets(v, 1), "must be a power of two"),
    ("hierarchy.line_bytes", lambda v, c: _sets(v, 1),
     "must be a power of two"),
    ("tssbf_entries", lambda v, c: _sets(v, c.tssbf_assoc),
     "must be tssbf_assoc ({c.tssbf_assoc}) times a power of two"),
    ("tlb_entries", lambda v, c: _sets(v, c.tlb_assoc),
     "must be tlb_assoc ({c.tlb_assoc}) times a power of two"),
    ("btb_entries", lambda v, c: _sets(v, c.btb_assoc),
     "must be btb_assoc ({c.btb_assoc}) times a power of two"),
    ("bypass_predictor.entries_per_table",
     lambda v, c: c.bypass_predictor.unbounded
     or _sets(v, c.bypass_predictor.assoc),
     "must be assoc ({c.bypass_predictor.assoc}) times a power of two"),
    ("hierarchy.l1_size",
     lambda v, c: _sets(v, c.hierarchy.l1_assoc * c.hierarchy.line_bytes),
     "must be l1_assoc x line_bytes ({c.hierarchy.l1_assoc} x "
     "{c.hierarchy.line_bytes}) times a power of two"),
    ("hierarchy.l2_size",
     lambda v, c: _sets(v, c.hierarchy.l2_assoc * c.hierarchy.line_bytes),
     "must be l2_assoc x line_bytes ({c.hierarchy.l2_assoc} x "
     "{c.hierarchy.line_bytes}) times a power of two"),
)


def check_runnable(config: MachineConfig) -> None:
    """Raise ``ValueError("key=value: requirement")`` for the first
    field of *config* that :data:`RUNNABLE_RULES` (or the rule that no
    number is negative) rejects."""
    records = [("", config)] + [
        (f"{name}.", getattr(config, name)) for name in
        ("backend", "bypass_predictor", "hierarchy")
    ]
    for prefix, record in records:
        for item in fields(record):
            value = getattr(record, item.name)
            if type(value) is int and value < 0:
                raise ValueError(
                    f"{prefix}{item.name}={value}: must not be negative"
                )
    for key, test, requirement in RUNNABLE_RULES:
        section, _, name = key.rpartition(".")
        value = getattr(getattr(config, section) if section else config, name)
        if not test(value, config):
            raise ValueError(
                f"{key}={value}: {requirement.format(c=config)}"
            )
