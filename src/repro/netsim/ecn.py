"""ECN codepoints and TOS-byte helpers (RFC 3168).

The two least-significant bits of the IPv4 TOS byte carry the ECN
field; the upper six bits are the DSCP.  The paper probes with ECT(0)
(binary ``10``) because that is the codepoint TCP implementations
typically use, and looks for middleboxes that either *bleach* the field
back to not-ECT or *drop* ECT-marked packets outright.
"""

from __future__ import annotations

import enum


class ECN(enum.IntEnum):
    """The four ECN codepoints, as encoded in the low two TOS bits."""

    NOT_ECT = 0b00
    ECT_1 = 0b01
    ECT_0 = 0b10
    CE = 0b11

    @property
    def is_ect(self) -> bool:
        """True for ECT(0) and ECT(1): the sender declared ECN capability."""
        return 0 < self._value_ < 3

    @property
    def is_ce(self) -> bool:
        """True if a router has marked the packet Congestion Experienced."""
        return self._value_ == 3

    def describe(self) -> str:
        """Human-readable name used in reports (matches paper terminology)."""
        return _DESCRIPTIONS[self]


_DESCRIPTIONS = {
    ECN.NOT_ECT: "not-ECT",
    ECN.ECT_1: "ECT(1)",
    ECN.ECT_0: "ECT(0)",
    ECN.CE: "ECN-CE",
}

#: Mask selecting the ECN bits within the TOS byte.
ECN_MASK = 0b0000_0011
#: Mask selecting the DSCP bits within the TOS byte.
DSCP_MASK = 0b1111_1100

#: ECN members indexed by codepoint — ``ECN_BY_CODE[tos & ECN_MASK]``
#: skips the ``EnumMeta.__call__`` value lookup on the packet hot path.
ECN_BY_CODE = (ECN.NOT_ECT, ECN.ECT_1, ECN.ECT_0, ECN.CE)

#: ECT-capability indexed by codepoint — ``ECT_CAPABLE[tos & ECN_MASK]``
#: is the branch AQMs take per packet; a tuple index beats two enum
#: identity checks.
ECT_CAPABLE = (False, True, True, False)


def ecn_from_tos(tos: int) -> ECN:
    """Extract the ECN codepoint from a TOS byte."""
    return ECN_BY_CODE[tos & ECN_MASK]


def dscp_from_tos(tos: int) -> int:
    """Extract the 6-bit DSCP value from a TOS byte."""
    return (tos & DSCP_MASK) >> 2


def tos_byte(dscp: int = 0, ecn: ECN = ECN.NOT_ECT) -> int:
    """Compose a TOS byte from a DSCP value and an ECN codepoint.

    Both arguments are range-checked: a raw int outside 0–3 passed as
    ``ecn`` would otherwise smear into the DSCP bits and silently
    change the packet's traffic class.
    """
    if not 0 <= dscp <= 0x3F:
        raise ValueError(f"DSCP out of range: {dscp!r}")
    if not 0 <= int(ecn) <= 0b11:
        raise ValueError(f"ECN codepoint out of range: {ecn!r}")
    return (dscp << 2) | int(ecn)
