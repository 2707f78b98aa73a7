"""Graph statistics against brute force; generation error measures."""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from popnetgen import metrics
from popnetgen.bn import BayesianNetwork, Cpt, parse_bn
from popnetgen.cli import run
from popnetgen.matching import RuleReport
from popnetgen.metrics import (
    build_error_report,
    matching_error,
    stats_for_edges,
    graph_statistics,
)
from popnetgen.plan import load_plan
from popnetgen.population import (
    LinkType,
    distinct,
    generate_population,
    learn_marginals,
)
from popnetgen.sampling import substream

from helpers import (
    brute_graph_stats,
    build_store,
    distribution_error_details,
    gnp_edges,
    make_random_bn,
    oneshot_triangle_count,
)


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
            density, degree, clustering, apl, components, largest = brute_graph_stats(n, edges)
            assert (stats.components, stats.largest_component) == (components, largest)
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
        density, degree, clustering, apl, _, _ = brute_graph_stats(n, edges)
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
    """(node count, links) of up to 300 nodes, none at all included: a few
    connected components (random trees or paths, plus extra links, some of
    them self links), sometimes two of the largest size, and isolated
    nodes.  Some links come again, in either orientation.  Labels are
    shuffled so that components interleave."""
    sizes = draw(st.lists(st.integers(1, 200), max_size=4))
    if sizes and draw(st.booleans()):
        sizes.append(max(sizes))  # a tie for the largest component
    isolated = draw(st.integers(0, 20))
    while sum(sizes) + isolated > 300:
        sizes.pop(0)
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
    repeats = draw(st.sampled_from([0.0, 0.5]))
    for a, b in edges[:int(repeats * len(edges))]:
        edges.append((b, a) if rng.random() < 0.5 else (a, b))
    return n, [(int(label[a]), int(label[b])) for a, b in edges]


@st.composite
def grafted_graphs(draw):
    """(node count, links) of one connected graph of up to 38 nodes: a
    cycle, a clique, a path with a chord at each end (whose nodes, unlike a
    cycle's or a clique's, differ in eccentricity), a star, a path or a
    single link, with random trees grafted onto it or one long tail hanging
    off its last node.  Labels are shuffled, so that the fold's tie between
    two leaves goes either way."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["cycle", "clique", "chords", "star", "path", "link"]))
    k = 2 if shape == "link" else draw(st.integers(3, 8))
    path = [(v, v + 1) for v in range(k - 1)]
    edges = {
        "cycle": [(v, (v + 1) % k) for v in range(k)],
        "clique": [(a, b) for a in range(k) for b in range(a + 1, k)],
        "chords": path + [(0, 2), (k - 3, k - 1)],
        "star": [(0, v) for v in range(1, k)],
    }.get(shape, path)
    tail = draw(st.booleans())
    n = k + draw(st.integers(0, 30))
    for v in range(k, n):
        edges.append((v - 1 if tail else int(rng.integers(v)), v))
    label = rng.permutation(n)
    return n, [(int(label[a]), int(label[b])) for a, b in edges]


def scipy_distance_sum(n, edges):
    """Distance sum over the ordered pairs of a connected graph, by scipy's
    own breadth-first search from every node."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    ends = np.asarray(edges)
    graph = coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n, n)).tocsr()
    total = 0
    for start in range(0, n, 500):
        sources = np.arange(start, min(start + 500, n))
        total += int(shortest_path(graph, directed=False, unweighted=True, indices=sources).sum())
    return total


def record_calls(monkeypatch, names):
    """Wrap the named functions of metrics; returns the names called, in order."""
    calls = []
    for name in names:
        def wrapper(*args, name=name, wrapped=getattr(metrics, name)):
            calls.append(name)
            return wrapped(*args)
        monkeypatch.setattr(metrics, name, wrapper)
    return calls


def triangle_inputs(n, edges):
    """_triangle_count's arguments as stats_for_edges builds them."""
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    keys = distinct((ends[ends[:, 0] != ends[:, 1]] @ np.array([[n, 1], [1, n]])).ravel())
    rows, cols = np.divmod(keys, n)
    return n, keys, rows, cols, np.bincount(rows, minlength=n)


class TestTriangleBlocks:
    """_triangle_count probes at most TRIANGLE_BLOCK wedges at a time (or
    one out-link's); its count equals that of every wedge probed at once."""

    @staticmethod
    def graphs():
        rng = np.random.default_rng(12)
        for _ in range(6):
            n = int(rng.integers(20, 150))
            yield triangle_inputs(n, gnp_edges(rng, n, float(rng.uniform(0.05, 0.3))))
        # a hub whose out-links outnumber a small block; 29 triangles
        yield triangle_inputs(60, [(0, b) for b in range(1, 60)] + [
            (b, b + 1) for b in range(1, 59, 2)
        ])
        yield triangle_inputs(5, [])

    @pytest.mark.parametrize("block", [1, 7, "split"])
    def test_blocks_match_the_oneshot_count(self, monkeypatch, block):
        counts = []
        for inputs in self.graphs():
            size = block
            if block == "split":  # three or four blocks
                n, keys, rows, cols, degrees = inputs
                up = (degrees[rows] < degrees[cols]) | (
                    (degrees[rows] == degrees[cols]) & (rows < cols)
                )
                out = np.bincount(rows[up], minlength=n)
                size = max(int((out * (out - 1) // 2).sum()) // 3, 1)
            monkeypatch.setattr(metrics, "TRIANGLE_BLOCK", size)
            counts.append(metrics._triangle_count(*inputs))
            assert counts[-1] == oneshot_triangle_count(*inputs)
        assert min(counts[:6]) > 0 and counts[6:] == [29, 0]


def test_stats_for_edges_peak_memory_at_kenya_40k():
    # 72,378 collapsed links (1.16 MB of int64 ends): keys and their rows
    # and columns, the triangle probes and the components' labels peak at
    # about 8.2 times the ends.
    plan = load_plan(Path(__file__).resolve().parent.parent / "plans" / "kenya" / "kenya.plan")
    store = run(plan, seed=1, population=40_000, write=False).store
    ends = store.edges()
    tracemalloc.start()
    try:
        stats_for_edges(len(store), ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * ends.nbytes, peak


# A path 0..7 with the chords (0, 2) and (5, 7), one-node trees on 0, 1 and 6
# and a two-node tree on 7: the core's nodes of weight 1 lie within 4 hops of
# every node, the heavier ones do not.
HEAVY_ENDS = (13, [(v, v + 1) for v in range(7)] + [
    (0, 2), (5, 7), (0, 8), (1, 9), (6, 10), (7, 11), (11, 12)
])


class TestPathLengthKernel:
    @settings(max_examples=40, deadline=None)
    @given(graph=component_graphs(), block=st.sampled_from([64, 128]), sampled=st.booleans())
    @example(graph=(0, []), block=64, sampled=False)
    @example(graph=(1, [(0, 0), (0, 0)]), block=64, sampled=False)
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
        density, degree, clustering, apl, components, largest = brute_graph_stats(n, edges)
        assert (bitset.density, bitset.average_degree) == (density, degree)
        assert bitset.clustering == pytest.approx(clustering, abs=1e-12)
        assert (bitset.components, bitset.largest_component) == (components, largest)
        if not sampled:
            assert bitset.average_path_length == apl

    @settings(max_examples=150, deadline=None)
    @given(graph=grafted_graphs(), block=st.sampled_from([64, 128]), limit=st.integers(0, 12))
    @example(graph=HEAVY_ENDS, block=64, limit=4)
    @example(graph=HEAVY_ENDS, block=128, limit=4)
    def test_fold_matches_bruteforce(self, graph, block, limit):
        # cores of one weight and of many, in one block of words or several;
        # each weight's sources fill their own words, and no core runs more
        # than 5 levels, so the search goes one traversal per source (limit
        # 0), hands off in the first word or in a later block (as on
        # HEAVY_ENDS at 4 levels), or stays on bitsets
        n, edges = graph
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "BITSET_BLOCK_SOURCES", block)
            patch.setattr(metrics, "BITSET_MAX_LEVELS", limit)
            stats = stats_for_edges(n, edges)
        assert stats.largest_component == n
        assert stats.average_path_length == brute_graph_stats(n, edges)[3]

    def test_two_full_blocks_pinned(self, monkeypatch):
        # Every node has degree 2 or more, so the fold peels none: 6,000
        # sources of weight 1 take a first block of one word, two full
        # blocks of 2,048 and one of 1,840.  The sum is the one the
        # per-source traversal gives for this graph.
        ran = record_calls(monkeypatch, ["_distance_sum", "_dijkstra_distance_sum"])
        stats = stats_for_edges(6000, small_world_edges(6000, 8))
        assert ran == ["_distance_sum"] and stats.largest_component == 6000
        assert stats.average_path_length == 430_412_530 / (6000 * 5999)

    def test_tree_runs_no_traversal(self, monkeypatch):
        ran = record_calls(monkeypatch, ["_distance_sum"])
        n, edges = 3000, [(v, v + 1) for v in range(2999)]
        stats = stats_for_edges(n, edges)
        assert ran == []
        assert stats.average_path_length == (3000 + 1) / 3

    @pytest.mark.parametrize("deep", [True, False])
    def test_deep_component_goes_per_source(self, monkeypatch, deep):
        ran = record_calls(monkeypatch, ["_distance_sum", "_dijkstra_distance_sum"])
        if deep:
            # a 3,000-node cycle, and on every tenth node a tail of 1 to 4
            # nodes: core nodes of weights 1 to 5, 1,500 hops around
            n, edges = 3000, [(v, (v + 1) % 3000) for v in range(3000)]
            for host in range(0, 3000, 10):
                for step in range(host // 10 % 4 + 1):
                    edges.append((host if step == 0 else n - 1, n))
                    n += 1
        else:
            n, edges = 3000, small_world_edges(3000, 2)
        stats = stats_for_edges(n, edges)
        assert ran == ["_distance_sum", "_dijkstra_distance_sum"][:1 + deep]
        if deep:
            assert stats.average_path_length == scipy_distance_sum(n, edges) / (n * (n - 1))

    def test_long_grid_stays_on_bitsets(self, monkeypatch):
        # a 25 x 200 grid, 223 hops from corner to corner: no block's search
        # passes BITSET_MAX_LEVELS
        ran = record_calls(monkeypatch, ["_distance_sum", "_dijkstra_distance_sum"])
        edges = [(v, v + 1) for v in range(5000) if v % 200 < 199]
        edges += [(v, v + 200) for v in range(4800)]
        stats = stats_for_edges(5000, edges)
        assert ran == ["_distance_sum"]
        assert stats.average_path_length == 1_874_625_000 / (5000 * 4999) == 75.0


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
        report = build_error_report(learn_marginals(store, bn), bn, [])
        assert report.distribution_error == 0.0
        # the y-row of b can never be observed under p(a=y)=0
        assert report.unobserved_rows == 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 400))
    def test_sums_in_the_order_the_cpt_rows_are_written(self, seed, size):
        # Rows written out of product order: the error adds each entry in
        # file order, so a sum in another order may differ in the last bits.
        rng = np.random.default_rng(seed)
        bn = make_random_bn(rng, max_vars=6, max_domain=4)
        cpts = {}
        for name, cpt in bn.cpts.items():
            combos = list(cpt.rows)
            order = rng.permutation(len(combos)).tolist()
            cpts[name] = Cpt(name, cpt.parents, {combos[i]: cpt.rows[combos[i]] for i in order})
        bn = BayesianNetwork(bn.variables, cpts)
        learned = learn_marginals(generate_population(bn, size, substream(seed, "p")), bn)
        report = build_error_report(learned, bn, [])
        assert (report.distribution_error, report.unobserved_rows) == (
            distribution_error_details(learned, bn))

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
