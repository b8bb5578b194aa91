"""Cycle-level timing model tying the substrates together.

:class:`~repro.pipeline.config.MachineConfig` describes one machine
configuration (the conventional associative-store-queue baseline, NoSQ with
or without delay, and the idealized variants); :class:`Processor` runs an
annotated trace through it and returns :class:`RunStats`.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule defining it, loaded on first access.
_EXPORTS = {
    "BackendConfig": "config",
    "BypassKind": "config",
    "BypassPredictorConfig": "config",
    "HierarchyConfig": "config",
    "MachineConfig": "config",
    "Mode": "config",
    "SchedulerKind": "config",
    "RunStats": "stats",
    "Processor": "processor",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
