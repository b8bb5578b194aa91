"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.harness.runner` -- benchmark x configuration sweep machinery
* :mod:`repro.harness.table5` -- Table 5 (communication & prediction accuracy)
* :mod:`repro.harness.figure2` -- Figure 2 (performance, 128-entry window)
* :mod:`repro.harness.figure3` -- Figure 3 (performance, 256-entry window)
* :mod:`repro.harness.figure4` -- Figure 4 (data-cache read bandwidth)
* :mod:`repro.harness.figure5` -- Figure 5 (predictor sensitivity)
* :mod:`repro.harness.report` -- fixed-width text rendering

Every experiment accepts an :class:`ExperimentScale` and defaults to
``DEFAULT``; ``SMOKE`` finishes in seconds per benchmark, and ``FULL`` is
the largest named scale.

All sweeps execute through the campaign engine (:mod:`repro.experiments`):
pass ``jobs=N`` to shard a sweep over N worker processes and ``cache=`` (a
directory path or :class:`~repro.experiments.ResultCache`) to memoize
results on disk — identical numbers either way.
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
    "run_suite": "runner",
    "geomean": "runner",
    "table5_rows": "table5",
    "render_table5": "table5",
    "figure2_series": "figure2",
    "render_figure2": "figure2",
    "figure3_series": "figure3",
    "render_figure3": "figure3",
    "figure4_series": "figure4",
    "render_figure4": "figure4",
    "figure5_capacity_series": "figure5",
    "figure5_history_series": "figure5",
    "render_figure5": "figure5",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
