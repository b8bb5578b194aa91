"""Sparse byte-addressable main memory for functional execution.

The functional executor and the example programs use this as architectural
memory state.  Values are little-endian, matching the mini-ISA definition.
"""

from __future__ import annotations

from repro.isa.bits import mask


class SparseMemory:
    """A sparse 64-bit byte-addressable memory.

    Unwritten bytes read as zero (the conventional simulator idealization of
    zero-initialized memory).
    """

    def __init__(self) -> None:
        self._bytes: dict[int, int] = {}

    def read(self, addr: int, size: int) -> int:
        """Read *size* bytes at *addr* as an unsigned little-endian integer."""
        value = 0
        for i in range(size):
            value |= self._bytes.get(addr + i, 0) << (8 * i)
        return value

    def write(self, addr: int, value: int, size: int) -> None:
        """Write the low *size* bytes of *value* at *addr*, little-endian."""
        value &= mask(size)
        for i in range(size):
            self._bytes[addr + i] = (value >> (8 * i)) & 0xFF

    def load_bytes(self, addr: int, data: bytes) -> None:
        """Bulk-initialize memory with *data* starting at *addr*."""
        for i, byte in enumerate(data):
            self._bytes[addr + i] = byte
