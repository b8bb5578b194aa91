"""NoSQ: Store-Load Communication without a Store Queue -- reproduction.

A cycle-level Python reproduction of Sha, Martin & Roth, MICRO-39 (2006).

Quick start (the public façade, :mod:`repro.api`)::

    from repro.api import simulate, sweep

    result = simulate("nosq", "gzip", scale="smoke")
    custom = simulate("nosq?backend.rob_size=256", "zoo.pchase",
                      scale="smoke")
    print(result.ipc, custom.ipc)

The low-level entry points remain::

    from repro import MachineConfig, generate_trace, simulate

    trace = generate_trace("gzip", num_instructions=20_000)
    base = simulate(MachineConfig.conventional(), trace)
    nosq = simulate(MachineConfig.nosq(), trace)
    print(base.ipc, nosq.ipc)

(Note there are two ``simulate`` functions: ``repro.simulate`` is the historical
``(config, trace) -> RunStats`` wrapper; ``repro.api.simulate`` is the
typed ``(config_spec, source, scale) -> SimResult`` façade.)

Package map:

* :mod:`repro.isa` -- mini-ISA, assembler, functional executor, traces
* :mod:`repro.memory` -- caches, memory, TLB
* :mod:`repro.frontend` -- branch prediction, path history
* :mod:`repro.ooo` -- ROB, rename, issue, load/store queues
* :mod:`repro.predictors` -- StoreSets (the baseline's load scheduler)
* :mod:`repro.core` -- the NoSQ mechanisms (the paper's contribution)
* :mod:`repro.pipeline` -- machine configs and the cycle-level processor
* :mod:`repro.workloads` -- benchmark profiles, generator, programs
* :mod:`repro.harness` -- Table 5 / Figures 2-5 regeneration
* :mod:`repro.experiments` -- sharded, cached, resumable campaign engine
* :mod:`repro.traces` -- trace sources addressed by benchmark id
* :mod:`repro.api` -- the public façade: string-addressable configs and
  typed ``simulate``/``sweep`` entry points
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> the submodule defining it, loaded on first access.
_EXPORTS = {
    "MachineConfig": "pipeline.config",
    "Processor": "pipeline.processor",
    "RunStats": "pipeline.stats",
    "simulate": "pipeline.processor",
    "generate_trace": "workloads.generator",
    "profile": "workloads.profiles",
    "PROFILES": "workloads.profiles",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
