"""Static route computation over the router graph.

Routes are shortest paths (hop count, with optional link weights)
computed once after the topology is built.  Paths are cached per
(source router, destination router) pair; the measurement harness
probes the same 2500 destinations from 13 vantage routers repeatedly,
so caching makes the difference between minutes and hours.

A :class:`PrefixTrie` provides longest-prefix matching from a
destination address to its attached router; the same structure backs
the IP→AS mapping in :mod:`repro.asmap`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Hashable, Iterator

from .errors import RoutingError
from .ipv4 import Prefix, format_addr

if TYPE_CHECKING:
    from .topology import Topology


class PrefixTrie:
    """Binary trie mapping IPv4 prefixes to arbitrary values.

    Longest-prefix match semantics, as in a router FIB.  Lookups walk
    at most 32 bits; insertion is O(prefix length).
    """

    __slots__ = ("_root",)

    def __init__(self) -> None:
        # Node layout: [zero-child, one-child, value-or-sentinel]
        self._root: list = [None, None, _MISSING]

    def insert(self, prefix: Prefix, value) -> None:
        """Map ``prefix`` to ``value`` (replacing any previous value)."""
        node = self._root
        for bit_index in range(prefix.length):
            bit = (prefix.network >> (31 - bit_index)) & 1
            if node[bit] is None:
                node[bit] = [None, None, _MISSING]
            node = node[bit]
        node[2] = value

    def lookup(self, addr: int):
        """Return the value of the longest prefix containing ``addr``.

        Raises :class:`KeyError` if no prefix matches; use
        :meth:`lookup_default` for a non-raising variant.
        """
        node = self._root
        best = _MISSING
        for bit_index in range(32):
            if node[2] is not _MISSING:
                best = node[2]
            child = node[(addr >> (31 - bit_index)) & 1]
            if child is None:
                break
            node = child
        else:
            if node[2] is not _MISSING:
                best = node[2]
        if best is _MISSING:
            raise KeyError(format_addr(addr))
        return best

    def lookup_default(self, addr: int):
        """Longest-prefix match returning ``None`` when none matches."""
        try:
            return self.lookup(addr)
        except KeyError:
            return None


_MISSING = object()


class RoutingTable:
    """Shortest-path routing over a topology's router graph.

    Reads the topology's ``succ``/``pred`` adjacency live, so links
    added later count once :meth:`invalidate` drops the cache.
    """

    def __init__(self, topology: Topology) -> None:
        self._succ = topology.succ
        self._pred = topology.pred
        self._path_cache: dict[tuple[Hashable, Hashable], tuple[Hashable, ...]] = {}
        self._excluded: frozenset[Hashable] = frozenset()

    def set_excluded(self, excluded: frozenset[Hashable]) -> None:
        """Withdraw a set of routers (blackholes) and recompute lazily.

        Paths route *around* the excluded set, exactly as an IGP would
        converge after the routers died; endpoints whose only access
        router is excluded become unreachable (:class:`RoutingError`).
        The path cache is dropped whenever the set actually changes —
        callers holding derived caches (the network's hop cache) must
        invalidate alongside.
        """
        excluded = frozenset(excluded)
        if excluded == self._excluded:
            return
        self._excluded = excluded
        self._path_cache.clear()

    def path(self, src: Hashable, dst: Hashable) -> tuple[Hashable, ...]:
        """Router-id sequence from ``src`` to ``dst`` inclusive.

        Deterministic (ties broken as networkx breaks them; see
        :func:`_bidirectional_dijkstra`) and cached.  Raises
        :class:`RoutingError` if disconnected.
        """
        excluded = self._excluded
        if excluded and (src in excluded or dst in excluded):
            raise RoutingError(f"no route from {src!r} to {dst!r} (blackholed)")
        if src == dst:
            return (src,)
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        nodes = _bidirectional_dijkstra(self._succ, self._pred, src, dst, excluded)
        if nodes is None:
            raise RoutingError(f"no route from {src!r} to {dst!r}")
        self._path_cache[key] = nodes
        return nodes

    def hops(self, src: Hashable, dst: Hashable) -> Iterator[tuple[Hashable, object]]:
        """Yield ``(router_id, egress_link)`` pairs along the path.

        The final router is the destination's access router; its egress
        link is the host attachment and is not included here (host
        delivery is the network's job).
        """
        nodes = self.path(src, dst)
        for here, there in zip(nodes, nodes[1:]):
            yield here, self._succ[here][there]

    def invalidate(self) -> None:
        """Drop all cached paths (call after topology changes)."""
        self._path_cache.clear()


def _bidirectional_dijkstra(succ, pred, source, target, excluded) -> tuple | None:
    """Shortest ``source``→``target`` router path avoiding ``excluded``.

    A line-for-line port of networkx 3.6.1 ``bidirectional_dijkstra``
    (``algorithms/shortest_paths/weighted.py``): directions alternate
    starting forward, both heaps draw ``(dist, counter, node)`` tie
    breakers from one counter, and neighbours are scanned in adjacency
    insertion order.  With unit weights ties are everywhere, so any
    other search picks different paths.  Excluded routers are skipped
    as neighbours, as ``restricted_view`` did; ``None`` means no path
    (or an unknown endpoint).
    """
    if source not in succ or target not in succ:
        return None
    dists: tuple[dict, dict] = ({}, {})
    preds: tuple[dict, dict] = ({source: None}, {target: None})
    fringe: tuple[list, list] = ([], [])
    seen: tuple[dict, dict] = ({source: 0}, {target: 0})
    c = count()
    heappush(fringe[0], (0, next(c), source))
    heappush(fringe[1], (0, next(c), target))
    neighbors = (succ, pred)
    finaldist = None
    meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        if v in dists[direction]:
            continue
        dists[direction][v] = dist
        if v in dists[1 - direction]:
            return (*reversed(_walk(preds[0], meetnode)), *_walk(preds[1], preds[1][meetnode]))
        for w, link in neighbors[direction][v].items():
            if w in excluded or w in dists[direction]:
                continue
            vw_length = dist + link.weight
            if w not in seen[direction] or vw_length < seen[direction][w]:
                seen[direction][w] = vw_length
                heappush(fringe[direction], (vw_length, next(c), w))
                preds[direction][w] = v
                if w in seen[1 - direction]:
                    finaldist_w = vw_length + seen[1 - direction][w]
                    if finaldist is None or finaldist > finaldist_w:
                        finaldist, meetnode = finaldist_w, w
    return None


def _walk(preds: dict, node) -> list:
    """``node`` followed by its predecessor chain."""
    chain = []
    while node is not None:
        chain.append(node)
        node = preds[node]
    return chain
