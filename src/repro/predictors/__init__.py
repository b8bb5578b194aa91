"""Store-load dependence predictors.

* :class:`StoreSets` -- the Chrysos/Emer predictor used for load scheduling
  by the paper's realistic conventional baseline.
* :class:`PerfectScheduler` -- oracle load scheduling (the normalization
  baseline of Figures 2 and 3: "associative SQ and perfect load scheduling").
* :class:`PerfectBypassPredictor` -- oracle bypassing prediction with
  idealized partial-word support (the "Perfect SMB" bars).
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule defining it, loaded on first access.
_EXPORTS = {
    "StoreSets": "store_sets",
    "StoreSetsStats": "store_sets",
    "PerfectScheduler": "oracle",
    "PerfectBypassPredictor": "oracle",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
