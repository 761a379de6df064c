"""Internet checksum (RFC 1071).

Used by the IPv4, UDP, ICMP, and TCP codecs.  The implementation folds
16-bit words with end-around carry, exactly as deployed routers do, so
that incremental-update properties hold (e.g. a TTL decrement changes
the header checksum by a predictable amount — behaviour the traceroute
analysis relies on when comparing quoted headers).
"""

from __future__ import annotations

import struct
import sys

_LITTLE_ENDIAN = sys.byteorder == "little"


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement Internet checksum of ``data``.

    Odd-length input is implicitly zero-padded on the right, per
    RFC 1071.  The returned value is the checksum to *place in the
    header* (i.e. already complemented).
    """
    return ~data_sum16(data) & 0xFFFF


def data_sum16(data: bytes) -> int:
    """Folded big-endian one's-complement sum of ``data`` (not inverted).

    The building block for arithmetic checksums: codecs sum their
    header fields as plain integers, add ``data_sum16`` of the
    variable-length tail, fold, and complement — skipping the
    concatenate-then-sweep of a full :func:`internet_checksum` call.
    Odd-length input is implicitly zero-padded, per RFC 1071.

    The one's-complement sum is byte-order independent (RFC 1071 §2):
    summing native-endian 16-bit words and byte-swapping the folded
    result equals summing big-endian words directly, so words are read
    through a zero-copy ``memoryview`` cast, not a per-byte loop.
    """
    if len(data) & 1:
        data = data + b"\x00"
    total = sum(memoryview(data).cast("H"))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    if _LITTLE_ENDIAN:
        total = ((total & 0xFF) << 8) | (total >> 8)
    return total


def verify_checksum(data: bytes) -> bool:
    """Return True if ``data`` (including its checksum field) sums to zero.

    A block whose embedded checksum is correct produces an all-ones sum,
    so the complemented result is zero.
    """
    return internet_checksum(data) == 0


_PSEUDO = struct.Struct("!IIxBH")

#: Memoised pseudo-headers.  A sweep checksums thousands of segments
#: between the same (vantage, server) address pair at a handful of
#: lengths, so the hit rate is high; the cap bounds a pathological
#: workload (cleared wholesale rather than LRU — cheaper, and a full
#: cache simply re-warms).
_PSEUDO_CACHE: dict[tuple[int, int, int, int], bytes] = {}
_PSEUDO_CACHE_MAX = 8192


def pseudo_header(src: int, dst: int, protocol: int, length: int) -> bytes:
    """Build the IPv4 pseudo-header used by UDP and TCP checksums.

    Parameters are the source/destination addresses as 32-bit ints, the
    IP protocol number, and the transport segment length in bytes.
    """
    key = (src, dst, protocol, length)
    cached = _PSEUDO_CACHE.get(key)
    if cached is None:
        if len(_PSEUDO_CACHE) >= _PSEUDO_CACHE_MAX:
            _PSEUDO_CACHE.clear()
        cached = _PSEUDO_CACHE[key] = _PSEUDO.pack(
            src & 0xFFFFFFFF, dst & 0xFFFFFFFF, protocol & 0xFF, length & 0xFFFF
        )
    return cached
