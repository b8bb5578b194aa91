"""Experiment harness: renders every table and figure of the paper.

* :mod:`repro.harness.runner` -- scales, results, and the one simulation
  loop (:func:`run_configs`) every sweep runs through
* :mod:`repro.harness.sections` -- the report sections: Table 5, Figures
  2-5 and the ablations, each declared once in :data:`SECTIONS`
* :mod:`repro.harness.report` -- fixed-width text rendering

The sections simulate nothing: each turns per-benchmark results
(:class:`BenchmarkResult`, from a campaign or :func:`repro.api.sweep`)
into rows and renders them.  ``repro campaign report`` renders every one
the result store supports; the config sets that feed them (``standard``,
``figure3``, ``figure5``, ``ablations``) live in :mod:`repro.api.configs`.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule defining it, loaded on first access.
_EXPORTS = {
    "ExperimentScale": "runner",
    "SMOKE": "runner",
    "DEFAULT": "runner",
    "FULL": "runner",
    "BenchmarkResult": "runner",
    "run_benchmark": "runner",
    "geomean": "runner",
    "SECTIONS": "sections",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
