"""Tests for the prefix trie and shortest-path routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.errors import RoutingError
from repro.netsim.ipv4 import Prefix, parse_addr
from repro.netsim.link import Link
from repro.netsim.router import Router
from repro.netsim.routing import PrefixTrie, RoutingTable
from repro.netsim.topology import Topology


class TestPrefixTrie:
    def test_exact_lookup(self):
        trie = PrefixTrie()
        trie.insert(Prefix(parse_addr("10.0.0.0"), 8), "ten")
        assert trie.lookup(parse_addr("10.1.2.3")) == "ten"

    def test_longest_prefix_wins(self):
        trie = PrefixTrie()
        trie.insert(Prefix(parse_addr("10.0.0.0"), 8), "short")
        trie.insert(Prefix(parse_addr("10.1.0.0"), 16), "long")
        assert trie.lookup(parse_addr("10.1.9.9")) == "long"
        assert trie.lookup(parse_addr("10.2.0.1")) == "short"

    def test_miss_raises_keyerror(self):
        trie = PrefixTrie()
        trie.insert(Prefix(parse_addr("10.0.0.0"), 8), "ten")
        with pytest.raises(KeyError):
            trie.lookup(parse_addr("11.0.0.1"))

    def test_lookup_default(self):
        trie = PrefixTrie()
        assert trie.lookup_default(parse_addr("1.2.3.4")) is None

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(Prefix(0, 0), "default")
        trie.insert(Prefix(parse_addr("10.0.0.0"), 8), "ten")
        assert trie.lookup(parse_addr("200.1.1.1")) == "default"
        assert trie.lookup(parse_addr("10.0.0.1")) == "ten"

    def test_host_route(self):
        trie = PrefixTrie()
        trie.insert(Prefix(parse_addr("10.0.0.0"), 8), "net")
        trie.insert(Prefix(parse_addr("10.5.5.5"), 32), "host")
        assert trie.lookup(parse_addr("10.5.5.5")) == "host"
        assert trie.lookup(parse_addr("10.5.5.6")) == "net"

    def test_reinsert_replaces(self):
        trie = PrefixTrie()
        prefix = Prefix(parse_addr("10.0.0.0"), 8)
        trie.insert(prefix, "old")
        trie.insert(prefix, "new")
        assert trie.lookup(parse_addr("10.0.0.1")) == "new"


@given(
    st.lists(
        st.tuples(st.integers(0, 0xFFFFFFFF), st.integers(8, 28)),
        min_size=1,
        max_size=24,
    ),
    st.integers(0, 0xFFFFFFFF),
)
def test_trie_matches_linear_scan(entries, probe):
    """Longest-prefix match agrees with a brute-force reference."""
    trie = PrefixTrie()
    prefixes = []
    for raw, length in entries:
        prefix = Prefix(raw & (Prefix(0, length).mask if length else 0), length)
        trie.insert(prefix, str(prefix))
        prefixes.append(prefix)
    matches = [p for p in prefixes if p.contains(probe)]
    if matches:
        best = max(matches, key=lambda p: p.length)
        # Ties between identical prefixes are fine: identical strings.
        assert trie.lookup(probe) == str(best)
    else:
        assert trie.lookup_default(probe) is None


def add_router(topo, rid):
    topo.add_router(Router(rid, asn=64500, interface_addr=parse_addr("10.0.0.1")))


def build_graph(edges):
    topo = Topology()
    for a, b in edges:
        for rid in (a, b):
            if rid not in topo.routers:
                add_router(topo, rid)
        topo.add_link_pair(Link(a, b), Link(b, a))
    return topo


class TestRoutingTable:
    def test_trivial_path(self):
        table = RoutingTable(build_graph([("a", "b")]))
        assert table.path("a", "a") == ("a",)
        assert table.path("a", "b") == ("a", "b")

    def test_shortest_path_chosen(self):
        # a-b-c-d versus a-x-d: the 3-hop route wins.
        table = RoutingTable(
            build_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "x"), ("x", "d")])
        )
        assert table.path("a", "d") == ("a", "x", "d")

    def test_weights_respected(self):
        graph = build_graph([("a", "b"), ("b", "c")])
        graph.add_link_pair(Link("a", "c", weight=10.0), Link("c", "a", weight=10.0))
        table = RoutingTable(graph)
        assert table.path("a", "c") == ("a", "b", "c")

    def test_no_route_raises(self):
        graph = build_graph([("a", "b")])
        add_router(graph, "island")
        table = RoutingTable(graph)
        with pytest.raises(RoutingError):
            table.path("a", "island")

    def test_unknown_node_raises(self):
        table = RoutingTable(build_graph([("a", "b")]))
        with pytest.raises(RoutingError):
            table.path("a", "ghost")

    def test_hops_yield_links(self):
        table = RoutingTable(build_graph([("a", "b"), ("b", "c")]))
        hops = list(table.hops("a", "c"))
        assert [(router, link.dst) for router, link in hops] == [
            ("a", "b"),
            ("b", "c"),
        ]

    def test_caching_returns_same_object(self):
        table = RoutingTable(build_graph([("a", "b")]))
        assert table.path("a", "b") is table.path("a", "b")

    def test_invalidate_clears_cache(self):
        graph = build_graph([("a", "b"), ("b", "c")])
        table = RoutingTable(graph)
        assert table.path("a", "c") == ("a", "b", "c")
        graph.add_link(Link("a", "c", weight=0.1))
        table.invalidate()
        assert table.path("a", "c") == ("a", "c")


_ROUTERS = [f"r{i}" for i in range(9)]


@st.composite
def router_graphs(draw):
    """Routers, weighted links in the order they are added, and an
    exclusion set.  Links are mostly unit-weight and often symmetric,
    as in the synthetic Internet, so equal-cost ties are common."""
    count = draw(st.integers(2, len(_ROUTERS)))
    routers = draw(st.permutations(_ROUTERS[:count]))
    pairs = [(a, b) for a in routers for b in routers if a != b]
    links: dict[tuple[str, str], float] = {}
    for (a, b), weight, both in draw(
        st.lists(
            st.tuples(
                st.sampled_from(pairs),
                st.sampled_from([1.0, 1.0, 1.0, 1.0, 2.0, 0.5]),
                st.booleans(),
            ),
            max_size=2 * len(routers),
        )
    ):
        links.setdefault((a, b), weight)
        if both:
            links.setdefault((b, a), weight)
    excluded = draw(st.frozensets(st.sampled_from(routers), max_size=2))
    return routers, links, excluded


@settings(max_examples=300, deadline=None)
@given(router_graphs())
def test_paths_match_networkx(graph):
    """The ported search picks networkx's path for every router pair,
    ties and exclusions included."""
    nx = pytest.importorskip("networkx", exc_type=ImportError)
    routers, links, excluded = graph
    topo = Topology()
    reference = nx.DiGraph()
    for rid in routers:
        add_router(topo, rid)
        reference.add_node(rid)
    for (a, b), weight in links.items():
        topo.add_link(Link(a, b, weight=weight))
        reference.add_edge(a, b, weight=weight)
    table = RoutingTable(topo)
    table.set_excluded(excluded)
    view = nx.restricted_view(reference, excluded, ())
    for src in routers:
        for dst in routers:
            try:
                expected = tuple(nx.shortest_path(view, src, dst, weight="weight"))
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                with pytest.raises(RoutingError):
                    table.path(src, dst)
            else:
                assert table.path(src, dst) == expected
