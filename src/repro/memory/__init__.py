"""Memory-system substrate: sparse main memory, set-associative caches,
a two-level hierarchy timing model, and a TLB.

Parameters default to the machine of Section 4.1: 64KB 2-way L1 caches,
a 1MB 8-way 10-cycle L2, 150-cycle main memory, and 128-entry 4-way TLBs.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule defining it, loaded on first access.
_EXPORTS = {
    "SparseMemory": "main_memory",
    "Cache": "cache",
    "MemoryHierarchy": "hierarchy",
    "HierarchyConfig": "hierarchy",
    "TLB": "tlb",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
