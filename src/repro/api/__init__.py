"""`repro.api` — the stable public façade.

One import surface for everything above the cycle loop, symmetric with
the benchmark ids of :mod:`repro.traces`:

* **Configs** (:mod:`repro.api.configs`) — every machine variant is
  addressable by a *config spec* string
  (``preset[@window][?key=value,...]``): the paper's six presets
  (``conventional``, ``conventional-perfect``, ``conventional-smb``,
  ``nosq``, ``nosq-nodelay``, ``nosq-perfect``), dotted-path overrides
  with typed coercion and did-you-mean errors, and glob/set expansion.
* **Entry points** (:mod:`repro.api.facade`) — typed
  ``simulate(config, source, scale) -> SimResult`` and
  ``sweep(configs, benchmarks, ...) -> SweepResult`` built on the
  campaign engine, plus ``validate(configs, source, scale)`` which
  diffs configurations against the in-order oracle
  (:mod:`repro.validate`), and the ``repro run`` CLI command.

Quick start::

    from repro.api import simulate, sweep, resolve_config

    result = simulate("nosq?backend.rob_size=256", "zoo.pchase",
                      scale="smoke")
    swept = sweep("nosq*", ["gzip", "mcf"], scale="smoke", jobs=4,
                  cache="results/cache")

Scales are resolved in one place (``resolve_scale``, defined beside the
named scales in :mod:`repro.harness.runner`): a name (``smoke``,
``default``, ``full``), an instruction count (warmup half of it), or an
:class:`~repro.harness.runner.ExperimentScale`.  Every single-run entry
point -- ``simulate``, ``validate``, ``repro run`` and ``repro validate
run`` -- defaults to ``default``, so ``repro run nosq gzip`` prints the
numbers ``simulate("nosq", "gzip")`` returns.

Below the façade, ``Processor(config).run(trace, warmup)``
(:mod:`repro.pipeline`) runs one trace on one machine.  The standard
presets resolve to configs bit-identical to the ``MachineConfig``
factories, so existing campaign caches stay valid.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule defining it, loaded on first access.
_EXPORTS = {
    "ConfigSpecError": "configs",
    "NAMED_SCALES": "facade",
    "SimResult": "facade",
    "SweepResult": "facade",
    "effective_warmup": "facade",
    "resolve_config": "configs",
    "resolve_configs": "configs",
    "resolve_scale": "facade",
    "simulate": "facade",
    "standard_configs": "configs",
    "sweep": "facade",
    "validate": "facade",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
