"""Workloads: benchmark profiles, the synthetic trace generator, and
mini-ISA example programs.

The paper evaluates on SPEC2000 and MediaBench, which we cannot run.  The
substitution (see DESIGN.md) is a calibrated synthetic workload per
benchmark: Table 5 of the paper publishes, per benchmark, the store-load
communication statistics that NoSQ's mechanisms actually observe, and the
generator emits traces matching those statistics.  Mini-ISA programs
(:mod:`repro.workloads.programs`) provide real-code traces for examples and
end-to-end correctness tests.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule defining it, loaded on first access.
_EXPORTS = {
    "BenchmarkProfile": "profiles",
    "PROFILES": "profiles",
    "MEDIA_BENCHMARKS": "profiles",
    "INT_BENCHMARKS": "profiles",
    "FP_BENCHMARKS": "profiles",
    "SELECTED_BENCHMARKS": "profiles",
    "profile": "profiles",
    "SyntheticWorkload": "generator",
    "generate_trace": "generator",
    "programs": "programs",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
