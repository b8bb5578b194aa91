"""Statistics the tables and figures are derived from.

:class:`RunStats` holds the timing model's counters: execution time
(cycles) for Figures 2/3/5, data-cache reads split by pipeline half for
Figure 4, and bypassing mispredictions / delayed loads for Table 5.
:class:`TraceStats` holds a trace's store-load communication (Table 5's
left half), which :func:`repro.isa.trace.communication_stats` computes.
Both live here, apart from the trace and simulator code, so decoding a
stored record loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TraceStats:
    """Aggregate store-load communication statistics of a trace.

    ``window`` bounds the *instruction* distance considered "in window",
    matching the paper's Table 5 methodology ("in a 128 instruction window
    with no limit on the number of stores").
    """

    window: int
    loads: int = 0
    stores: int = 0
    branches: int = 0
    communicating_loads: int = 0
    partial_word_loads: int = 0
    multi_source_loads: int = 0

    @property
    def pct_communicating(self) -> float:
        return 100.0 * self.communicating_loads / max(1, self.loads)

    @property
    def pct_partial_word(self) -> float:
        return 100.0 * self.partial_word_loads / max(1, self.loads)


@dataclass
class RunStats:
    """Counters for one simulation run."""

    config_name: str = ""
    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0

    # Front end.
    branch_mispredicts: int = 0
    btb_bubbles: int = 0

    # NoSQ classification.
    bypassed_loads: int = 0
    bypass_identity: int = 0      # pure rename short-circuit
    bypass_injected: int = 0      # injected shift & mask operation
    delayed_loads: int = 0
    nonbypassed_loads: int = 0

    # Verification.
    reexecuted_loads: int = 0
    flushes: int = 0
    #: Bypassing mispredictions by the paper's three cases plus shift.
    flush_should_have_bypassed: int = 0   # (i) non-bypassing, stale cache read
    flush_should_not_have_bypassed: int = 0  # (ii) bypassed, wrong source kind
    flush_wrong_store: int = 0            # (iii) bypassed from wrong store
    flush_wrong_shift: int = 0            # partial-word shift mismatch
    flush_conv_violation: int = 0         # conventional memory-order violation

    # Data cache read accounting (Figure 4).
    ooo_dcache_reads: int = 0
    backend_dcache_reads: int = 0

    # Structure pressure.
    iq_dispatches: int = 0        # instructions that occupied an IQ entry
    dispatch_stall_cycles: int = 0
    sq_full_stalls: int = 0
    ssn_wraps: int = 0

    # Predictor detail (NoSQ).
    predictor_lookups: int = 0
    predictor_path_hits: int = 0
    predictor_trainings: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def total_dcache_reads(self) -> int:
        return self.ooo_dcache_reads + self.backend_dcache_reads

    @property
    def bypass_mispredictions(self) -> int:
        """Bypassing mispredictions (Table 5's right half)."""
        return (
            self.flush_should_have_bypassed
            + self.flush_should_not_have_bypassed
            + self.flush_wrong_store
            + self.flush_wrong_shift
        )

    @property
    def mispredicts_per_10k_loads(self) -> float:
        if not self.loads:
            return 0.0
        return 1e4 * self.bypass_mispredictions / self.loads

    @property
    def pct_loads_delayed(self) -> float:
        if not self.loads:
            return 0.0
        return 100.0 * self.delayed_loads / self.loads

    @property
    def pct_loads_bypassed(self) -> float:
        if not self.loads:
            return 0.0
        return 100.0 * self.bypassed_loads / self.loads

    @property
    def reexec_rate(self) -> float:
        if not self.loads:
            return 0.0
        return self.reexecuted_loads / self.loads

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary for reporting."""
        out: dict[str, float] = {}
        for name, value in vars(self).items():
            if isinstance(value, (int, float)):
                out[name] = value
        out["ipc"] = self.ipc
        out["mispredicts_per_10k_loads"] = self.mispredicts_per_10k_loads
        out["pct_loads_delayed"] = self.pct_loads_delayed
        out["pct_loads_bypassed"] = self.pct_loads_bypassed
        out["reexec_rate"] = self.reexec_rate
        return out
