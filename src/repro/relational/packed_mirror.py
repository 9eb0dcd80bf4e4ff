"""Packing helpers: big-int bitmasks as little-endian ``uint64`` word arrays.

A mirror file (:mod:`repro.relational.catalog_file`) stores the catalog's
bitmatrices as rows of words, so a mask of ``n`` tuples occupies
``ceil(n/64)`` words.  These helpers convert between the two forms.

Layout invariant: for every mask ``m`` and width ``w``,
``pack_int(m, w)`` is exactly ``m.to_bytes(w*8, 'little')`` viewed as
``<u8`` words — so ``unpack_to_int(pack_int(m, w)) == m`` and the packed
rows can always be checked bit-for-bit against the catalog's big ints
(``tests/relational/test_packed_mirror.py`` does).

Only writing or attaching a mirror file imports this module, so NumPy is
needed for mapped catalogs alone; :func:`numpy_available` answers without it.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised by the no-NumPy CI leg
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

#: All packed arrays use explicit little-endian words so ``pack_int`` /
#: ``unpack_to_int`` round-trip through ``int.to_bytes(..., "little")`` on
#: any host byte order.
U64 = "<u8"


def numpy_available() -> bool:
    """Whether NumPy imported: mirror files and mapped catalogs need it."""
    return np is not None


def words_for(bits: int) -> int:
    """Words needed for ``bits`` bit positions (at least one)."""
    return max(1, (bits + 63) >> 6)


def pack_int(mask: int, width: int):
    """A big-int bitmask as ``width`` little-endian ``uint64`` words (read-only)."""
    return np.frombuffer(mask.to_bytes(width * 8, "little"), dtype=U64)


def unpack_to_int(words) -> int:
    """The inverse of :func:`pack_int`."""
    return int.from_bytes(np.ascontiguousarray(words).tobytes(), "little")


def unpack_bits(mask: int, bits: int):
    """A big-int bitmask as a boolean array of ``bits`` positions."""
    if bits <= 0:
        return np.zeros(0, dtype=bool)
    raw = np.frombuffer(mask.to_bytes((bits + 7) >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:bits].astype(bool)
