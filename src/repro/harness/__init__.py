"""Experiment harness: renders every table and figure of the paper.

* :mod:`repro.harness.runner` -- scales, results, and the one simulation
  loop (:func:`run_configs`) every sweep runs through
* :mod:`repro.harness.table5` -- Table 5 (communication & prediction accuracy)
* :mod:`repro.harness.figure2` -- Figures 2 and 3 (performance, 128- and
  256-entry windows)
* :mod:`repro.harness.figure4` -- Figure 4 (data-cache read bandwidth)
* :mod:`repro.harness.figure5` -- Figure 5 (predictor sensitivity)
* :mod:`repro.harness.ablations` -- the design-choice ablations
* :mod:`repro.harness.report` -- fixed-width text rendering

The table and figure modules simulate nothing: each turns per-benchmark
results (:class:`BenchmarkResult`, from a campaign or
:func:`repro.api.sweep`) into points and renders them.  ``repro campaign
report`` renders every one the result store supports; the config sets
that feed them (``standard``, ``figure3``, ``figure5``, ``ablations``)
live in :mod:`repro.api.configs`.
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
    "table5_row": "table5",
    "render_table5": "table5",
    "figure2_series": "figure2",
    "render_figure2": "figure2",
    "figure4_series": "figure4",
    "render_figure4": "figure4",
    "figure5_series": "figure5",
    "render_figure5": "figure5",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
