"""NoSQ: Store-Load Communication without a Store Queue -- reproduction.

A cycle-level Python reproduction of Sha, Martin & Roth, MICRO-39 (2006).

The entry points live in :mod:`repro.api`, the public façade::

    from repro.api import simulate, sweep

    result = simulate("nosq", "gzip", scale="smoke")
    custom = simulate("nosq?backend.rob_size=256", "zoo.pchase",
                      scale="smoke")
    print(result.ipc, custom.ipc)

Below it, one :class:`~repro.pipeline.Processor` runs one annotated
trace on one :class:`~repro.pipeline.MachineConfig`::

    from repro.pipeline import MachineConfig, Processor
    from repro.workloads import generate_trace

    trace = generate_trace("gzip", num_instructions=20_000)
    stats = Processor(MachineConfig.nosq()).run(trace, warmup=10_000)

This package exports only ``__version__`` and imports nothing.

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
  typed ``simulate``/``sweep``/``validate`` entry points
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
