"""Out-of-order core substrate: ROB, rename, physical registers, issue
bandwidth, and the load/store queues.

The conventional baseline uses the fully-associative :class:`StoreQueue` for
store-load forwarding; NoSQ eliminates it (and optionally the load queue),
which is the point of the paper.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule defining it, loaded on first access.
_EXPORTS = {
    "InFlightInst": "rob",
    "ReorderBuffer": "rob",
    "RegisterMapper": "rename",
    "PhysicalRegisterFile": "regfile",
    "PortSchedule": "scheduler",
    "ISSUE_PORTS": "scheduler",
    "IssueQueueTracker": "issue_queue",
    "LoadQueueTracker": "lsq",
    "StoreQueue": "lsq",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
