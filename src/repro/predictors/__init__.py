"""Store-load dependence predictors.

* :class:`StoreSets` -- the Chrysos/Emer predictor used for load scheduling
  by the paper's realistic conventional baseline.

The idealized configurations need no predictor object: perfect load
scheduling and perfect SMB read the trace's ground-truth annotations
directly in :class:`~repro.pipeline.processor.Processor`.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule defining it, loaded on first access.
_EXPORTS = {
    "StoreSets": "store_sets",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
