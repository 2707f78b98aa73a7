"""Graph statistics against brute force; generation error measures."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popnetgen import metrics
from popnetgen.bn import parse_bn
from popnetgen.matching import RuleReport
from popnetgen.metrics import (
    build_error_report,
    distribution_error_details,
    matching_error,
    stats_for_edges,
    graph_statistics,
)
from popnetgen.population import (
    LinkType,
    generate_population,
    learn_marginals,
)
from popnetgen.sampling import substream

from helpers import brute_graph_stats, build_store, gnp_edges


def complete_graph_edges(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


class TestStatsForEdges:
    def test_empty_graph(self):
        stats = stats_for_edges(5, [])
        assert stats.density == 0.0
        assert stats.average_degree == 0.0
        assert stats.clustering == 0.0
        assert stats.average_path_length is None
        assert stats.components == 5

    def test_complete_graph_k5(self):
        stats = stats_for_edges(5, complete_graph_edges(5))
        assert stats.density == 1.0
        assert stats.clustering == 1.0
        assert stats.average_path_length == 1.0
        assert stats.components == 1
        assert stats.largest_component == 5

    def test_density_degree_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 120))
            edges = gnp_edges(rng, n, 0.08)
            stats = stats_for_edges(n, edges)
            assert stats.average_degree == pytest.approx(
                stats.density * (n - 1), abs=1e-12
            )

    def test_matches_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            n = int(rng.integers(10, 200))
            edges = gnp_edges(rng, n, float(rng.uniform(0.01, 0.12)))
            stats = stats_for_edges(n, edges)
            density, degree, clustering, apl = brute_graph_stats(n, edges)
            assert stats.density == pytest.approx(density, abs=0)
            assert stats.average_degree == pytest.approx(degree, abs=0)
            assert stats.clustering == pytest.approx(clustering, abs=1e-12)
            if apl is None:
                assert stats.average_path_length is None
            else:
                assert stats.average_path_length == pytest.approx(apl, abs=1e-9)
            assert not stats.path_length_estimated

    def test_exact_vs_sampled_path_length(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 700
        edges = gnp_edges(rng, n, 0.012)
        exact = stats_for_edges(n, edges)
        monkeypatch.setattr(metrics, "EXACT_PATH_LIMIT", 10)
        monkeypatch.setattr(metrics, "PATH_SAMPLE_SOURCES", 400)
        sampled = stats_for_edges(n, edges)
        assert sampled.path_length_estimated
        assert exact.average_path_length == pytest.approx(
            sampled.average_path_length, rel=0.05
        )

    def test_duplicate_and_self_edges_collapse(self):
        stats = stats_for_edges(3, [(0, 1), (1, 0), (2, 2), (1, 2)])
        assert stats.links == 2

    def test_hub_pair_with_many_common_neighbours(self):
        # hubs 0 and 1 share 148 neighbours, more than an int8 count holds
        n = 150
        edges = [(0, 1)] + [(hub, leaf) for hub in (0, 1) for leaf in range(2, n)]
        edges += [(leaf, leaf + 1) for leaf in range(2, n - 1, 2)]
        stats = stats_for_edges(n, edges)
        density, degree, clustering, apl = brute_graph_stats(n, edges)
        assert stats.links == len(edges)
        assert stats.clustering == pytest.approx(clustering, abs=1e-12)
        assert stats.average_path_length == pytest.approx(apl, abs=1e-12)

    @pytest.mark.parametrize("low_is_path", [True, False])
    def test_tied_largest_components_measure_lowest_id(self, low_is_path):
        def path(nodes):
            return list(zip(nodes, nodes[1:]))

        def clique(nodes):
            return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]

        low, high = [0, 3, 4, 7], [1, 2, 5, 6]
        if low_is_path:
            edges = clique(high) + path(low)
        else:
            edges = path(high) + clique(low)
        stats = stats_for_edges(9, edges)
        assert (stats.components, stats.largest_component) == (3, 4)
        # a four-node path has mean distance 20/12, a clique 1
        assert stats.average_path_length == (20 / 12 if low_is_path else 1.0)

    def test_sampled_path_length_pinned(self, monkeypatch):
        # Sources are positions into the largest component's nodes sorted by
        # id, drawn from the scope's own substream of seed 0; reports depend
        # on both, so the value is pinned exactly.
        monkeypatch.setattr(metrics, "EXACT_PATH_LIMIT", 10)
        monkeypatch.setattr(metrics, "PATH_SAMPLE_SOURCES", 50)
        edges = gnp_edges(np.random.default_rng(11), 400, 0.005)
        stats = stats_for_edges(400, edges, "friendship")
        assert stats.path_length_estimated
        assert (stats.components, stats.largest_component) == (76, 311)
        assert stats.average_path_length == 7.155354838709678


def small_world_edges(n, seed):
    """Ring lattice of degree 4 with one link end in ten rewired uniformly."""
    rng = np.random.default_rng(seed)
    ring = np.arange(n)
    ends = np.concatenate([np.stack([ring, (ring + k) % n], 1) for k in (1, 2)])
    rewired = rng.random(len(ends)) < 0.1
    ends[rewired, 1] = rng.integers(0, n, size=int(rewired.sum()))
    return ends


@st.composite
def component_graphs(draw):
    """(node count, links) of up to 300 nodes: a few connected components
    (random trees or paths, plus extra links) and isolated nodes, labels
    shuffled so that components interleave."""
    sizes = draw(st.lists(st.integers(1, 200), max_size=4))
    isolated = draw(st.integers(0, 20))
    while sum(sizes) + isolated > 300:
        sizes.pop()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    path = draw(st.booleans())
    extra = draw(st.sampled_from([0.0, 0.3, 2.0]))
    n = sum(sizes) + isolated
    label = rng.permutation(n)
    edges, first = [], 0
    for size in sizes:
        for v in range(1, size):
            u = v - 1 if path else int(rng.integers(v))
            edges.append((first + u, first + v))
        for _ in range(int(extra * size)):
            edges.append(tuple(first + rng.integers(size, size=2)))
        first += size
    return n, [(int(label[a]), int(label[b])) for a, b in edges]


def record_calls(monkeypatch, names):
    """Wrap the named functions of metrics; returns the names called, in order."""
    calls = []
    for name in names:
        def wrapper(*args, name=name, wrapped=getattr(metrics, name)):
            calls.append(name)
            return wrapped(*args)
        monkeypatch.setattr(metrics, name, wrapper)
    return calls


class TestPathLengthKernel:
    @settings(max_examples=40, deadline=None)
    @given(graph=component_graphs(), block=st.sampled_from([64, 100]), sampled=st.booleans())
    def test_bitset_matches_bruteforce_and_per_source(self, graph, block, sampled):
        n, edges = graph
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "BITSET_BLOCK_SOURCES", block)
            if sampled:
                patch.setattr(metrics, "EXACT_PATH_LIMIT", 10)
                patch.setattr(metrics, "PATH_SAMPLE_SOURCES", 150)
            patch.setattr(metrics, "BITSET_MAX_LEVELS", 10**9)
            bitset = stats_for_edges(n, edges, "friendship")
            patch.setattr(metrics, "BITSET_MAX_LEVELS", 0)
            per_source = stats_for_edges(n, edges, "friendship")
        assert bitset == per_source
        if sampled:
            return
        density, degree, clustering, apl = brute_graph_stats(n, edges)
        assert (bitset.density, bitset.average_degree) == (density, degree)
        assert bitset.clustering == pytest.approx(clustering, abs=1e-12)
        assert bitset.average_path_length == apl

    def test_two_full_blocks_pinned(self, monkeypatch):
        # 6,000 sources take one block of 4,096 and one of 1,904; the sum is
        # the one the per-source traversal gives for this graph.
        ran = record_calls(monkeypatch, ["_bitset_distance_sum"])
        stats = stats_for_edges(6000, small_world_edges(6000, 8))
        assert ran == ["_bitset_distance_sum"] and stats.largest_component == 6000
        assert stats.average_path_length == 430_412_530 / (6000 * 5999)

    @pytest.mark.parametrize("deep", [True, False])
    def test_deep_component_goes_per_source(self, monkeypatch, deep):
        ran = record_calls(monkeypatch, ["_bitset_distance_sum", "_dijkstra_distance_sum"])
        if deep:
            n, edges = 3000, [(v, v + 1) for v in range(2999)]
        else:
            n, edges = 3000, small_world_edges(3000, 2)
        stats = stats_for_edges(n, edges)
        assert ran == ["_dijkstra_distance_sum" if deep else "_bitset_distance_sum"]
        if deep:
            assert stats.average_path_length == (3000 + 1) / 3


class TestGraphStatistics:
    def store(self):
        store = build_store([LinkType("a", False), LinkType("b", True)], [{}] * 5)
        store.record_link(0, 1, "a", count_source=False, count_target=False)
        store.record_link(1, 2, "b", count_source=False, count_target=False)
        store.record_link(2, 0, "b", count_source=False, count_target=False)
        return store

    def test_collapsed_counts_all_types_as_undirected(self):
        stats = graph_statistics(self.store(), "collapsed")
        assert stats.links == 3
        assert stats.clustering == 1.0  # the single triangle closes its triples

    def test_per_type_scope(self):
        stats = graph_statistics(self.store(), "b")
        assert stats.links == 2
        assert stats.nodes == 5


ATTR_DOC = """
variable coin { heads, tails }
cpt coin { 0.5, 0.5 }
"""

DET_DOC = """
variable a { x, y }
variable b { u, v }
cpt a { 1.0, 0.0 }
cpt b | a { x: 0.0, 1.0
  y: 1.0, 0.0 }
"""


class TestDistributionError:
    def test_deterministic_bn_error_zero(self):
        bn = parse_bn(DET_DOC)
        store = generate_population(bn, 20, substream(0, "p"))
        learned = learn_marginals(store, bn)
        error, unobserved = distribution_error_details(learned, bn)
        assert error == 0.0
        # the y-row of b can never be observed under p(a=y)=0
        assert unobserved == 1

    def test_fair_coin_bounded(self):
        bn = parse_bn(ATTR_DOC)
        store = generate_population(bn, 10_000, substream(1, "p"))
        assert build_error_report(learn_marginals(store, bn), bn, []).distribution_error <= 0.015

    def test_decreases_with_population_size(self):
        bn = parse_bn(ATTR_DOC)
        means = []
        for n in (100, 1000, 10000):
            errors = []
            for s in range(10):
                store = generate_population(bn, n, substream(s, "p"))
                errors.append(build_error_report(learn_marginals(store, bn), bn, []).distribution_error)
            means.append(sum(errors) / len(errors))
        assert means[0] > means[1] > means[2]


class TestMatchingError:
    def test_all_demand_met(self):
        reports = [RuleReport("spouses", "homophily", demand_total=10, links_created=10)]
        assert matching_error(reports) == {"spouses": 0.0}

    def test_seven_of_ten(self):
        reports = [RuleReport("pair", "homophily", demand_total=10,
                              links_created=7, unfulfilled=3)]
        assert matching_error(reports) == {"pair": 0.3}

    def test_transitive_reports_ignored(self):
        reports = [
            RuleReport("fatherOf", "transitive", demand_total=50, links_created=50),
            RuleReport("spouses", "homophily", demand_total=4, links_created=4),
        ]
        assert matching_error(reports) == {"spouses": 0.0}

    def test_aggregation_across_rules_of_one_type(self):
        reports = [
            RuleReport("friendship", "homophily", demand_total=6, links_created=3, unfulfilled=3),
            RuleReport("friendship", "homophily", demand_total=4, links_created=4, unfulfilled=0),
        ]
        assert matching_error(reports) == {"friendship": 0.3}


class TestErrorReport:
    def test_build(self):
        bn = parse_bn(ATTR_DOC)
        store = generate_population(bn, 100, substream(2, "p"))
        reports = [RuleReport("x", "homophily", demand_total=2, links_created=1, unfulfilled=1)]
        report = build_error_report(learn_marginals(store, bn), bn, reports)
        assert report.matching_errors == {"x": 0.5}
        assert report.unobserved_rows == 0
        assert 0.0 <= report.distribution_error <= 1.0
