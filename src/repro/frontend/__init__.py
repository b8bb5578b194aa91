"""Front-end substrate: branch prediction and path history.

The simulated front end (Section 4.1) predicts two branches per cycle and can
fetch past one taken branch.  It uses a 12k-entry hybrid gshare/bimodal
predictor, a 2k-entry 4-way set-associative branch target buffer, and a
32-entry return address stack.

Path history (branch direction bits plus two bits of each call PC) feeds the
indexing function of NoSQ's path-sensitive bypassing predictor (Section 3.3).
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule defining it, loaded on first access.
_EXPORTS = {
    "BTB": "branch_predictor",
    "HybridBranchPredictor": "branch_predictor",
    "ReturnAddressStack": "branch_predictor",
    "PathHistory": "path_history",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
