"""AS-boundary classification of path positions.

The paper reports that 59.1 % of the locations where ECT(0) marks are
stripped "were at AS boundaries (again, subject to the limitations of
inferring AS number from traceroute IP addresses)".  Given a sequence
of per-hop ASNs, this module decides whether a given hop sits at a
boundary: its ASN differs from the previous responsive hop's ASN, with
unknown hops skipped the way traceroute analyses conventionally do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .mapping import UNKNOWN_ASN


@dataclass(frozen=True)
class BoundaryVerdict:
    """Classification of one hop position."""

    is_boundary: bool
    #: True when unknown ASNs prevented a confident call.
    determinate: bool


def classify_hop(asns: Sequence[int], index: int) -> BoundaryVerdict:
    """Is the hop at ``index`` the first hop inside a new AS?

    A hop is *at an AS boundary* when its ASN is known and differs from
    the nearest preceding hop with a known ASN.  If either side is
    unknown the verdict is indeterminate (and counted as non-boundary,
    the conservative choice the paper's phrasing implies).
    """
    if not 0 <= index < len(asns):
        raise IndexError(f"hop index {index} out of range")
    here = asns[index]
    if here == UNKNOWN_ASN:
        return BoundaryVerdict(is_boundary=False, determinate=False)
    for prev_index in range(index - 1, -1, -1):
        previous = asns[prev_index]
        if previous != UNKNOWN_ASN:
            return BoundaryVerdict(is_boundary=previous != here, determinate=True)
    # First known hop on the path: not a boundary crossing.
    return BoundaryVerdict(is_boundary=False, determinate=True)
