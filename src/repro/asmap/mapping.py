"""IP-to-AS mapping, with the inaccuracies the paper cautions about.

Section 4.2 maps traceroute hop addresses to AS numbers "subject to
the usual limitations of IP to AS mapping accuracy" (citing Zhang et
al.).  We model both parts: a prefix→ASN registry built from the
topology's true allocations, and an optional noise model that corrupts
a fraction of lookups the way third-party prefix-origin data does —
mostly at exactly the places that matter for boundary inference,
because inter-AS link addresses are conventionally numbered from one
side's space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..netsim.ipv4 import Prefix
from ..netsim.routing import PrefixTrie

#: Returned when an address maps to no known origin.
UNKNOWN_ASN = -1


class ASMap:
    """Longest-prefix-match IP→ASN lookups."""

    def __init__(self) -> None:
        self._trie = PrefixTrie()
        self._asns: set[int] = set()

    def register(self, prefix: Prefix, asn: int) -> None:
        """Record that ``asn`` originates ``prefix``."""
        self._trie.insert(prefix, asn)
        self._asns.add(asn)

    def lookup(self, addr: int) -> int:
        """ASN originating the covering prefix, or :data:`UNKNOWN_ASN`."""
        result = self._trie.lookup_default(addr)
        return UNKNOWN_ASN if result is None else result


@dataclass
class NoisyASMap:
    """An :class:`ASMap` view with lookup errors.

    With probability ``miss_rate`` a lookup returns
    :data:`UNKNOWN_ASN` (prefix absent from the registry snapshot);
    with probability ``misattribution_rate`` it returns a neighbouring
    ASN instead of the true one (stale or aggregated origin data).
    Noise is deterministic per address — repeated lookups of the same
    hop must agree, as they would against a fixed database snapshot.
    """

    truth: ASMap
    seed: int = 0
    miss_rate: float = 0.02
    misattribution_rate: float = 0.03

    def lookup(self, addr: int) -> int:
        true_asn = self.truth.lookup(addr)
        if true_asn == UNKNOWN_ASN:
            return UNKNOWN_ASN
        rng = random.Random((self.seed << 32) ^ addr)
        roll = rng.random()
        if roll < self.miss_rate:
            return UNKNOWN_ASN
        if roll < self.miss_rate + self.misattribution_rate:
            # Attribute to a plausible other ASN, deterministically.
            others = sorted(self.truth._asns - {true_asn})
            if others:
                return others[rng.randrange(len(others))]
        return true_asn
