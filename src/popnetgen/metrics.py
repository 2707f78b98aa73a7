"""Generation errors and whole-network statistics.

Statistics treat every link as undirected, per type or with all types
collapsed onto one uniplex graph.  Average path length is computed on the
largest connected component only: exactly up to a size cap, above it from a
fixed number of seeded random sources (flagged as estimated).  The distance
sum is an exact integer, taken by a bit-parallel breadth-first search from
up to 4,096 sources at once, or by one traversal per source when the
component is too deep for that to pay.
The kernels are numpy on CSR arrays of sorted ``row * n + col`` keys:
triangles from degree-oriented wedges, components by root hooking and
pointer jumping, depth by a frontier search.  Only the per-source traversal
uses scipy, imported when a component is that deep.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bn import BayesianNetwork
from .matching import RuleReport
from .population import LearnedMarginals, PopulationStore, distinct, isin_sorted, ranges
from .sampling import substream

EXACT_PATH_LIMIT = 20_000
PATH_SAMPLE_SOURCES = 1_000
BITSET_BLOCK_SOURCES = 4_096  # sources per bitset traversal: 64 uint64 words a row
# Deepest bitset traversal allowed.  On caterpillar trees centred on node 0,
# whose end sources really take 2e levels, the bitset search at 2e = 384 ran
# in 0.59 (5,000 nodes) and 0.95 (20,000 nodes) of the per-source time; at
# 512 in 0.93 and 1.34.
BITSET_MAX_LEVELS = 384


@dataclass
class NetworkStats:
    scope: str
    nodes: int
    links: int
    density: float
    average_degree: float
    clustering: float
    average_path_length: float | None
    path_length_estimated: bool
    components: int
    largest_component: int


@dataclass
class ErrorReport:
    """Distribution error, per-type matching error, unobserved-row count."""

    distribution_error: float
    unobserved_rows: int
    matching_errors: dict[str, float]


def distribution_error_details(
    learned: LearnedMarginals, attribute_bn: BayesianNetwork
) -> tuple[float, int]:
    """(mean absolute error, unobserved row count) of the marginals learned
    from a population against the network it came from."""
    unobserved = set(learned.unobserved)
    total = 0.0
    entries = 0
    for variable in attribute_bn.variables:
        theory = attribute_bn.cpts[variable.name]
        estimate = learned.bn.cpts[variable.name]
        for combo, probs in theory.rows.items():
            if (variable.name, combo) in unobserved:
                continue
            for p, q in zip(probs, estimate.rows[combo]):
                total += abs(p - q)
                entries += 1
    return (total / entries if entries else 0.0), len(unobserved)


def matching_error(reports: Iterable[RuleReport]) -> dict[str, float]:
    """Unfulfilled demand over total demand, aggregated per homophily type."""
    demand: dict[str, int] = {}
    unfulfilled: dict[str, int] = {}
    for report in reports:
        if report.kind != "homophily":
            continue
        demand[report.link_type] = demand.get(report.link_type, 0) + report.demand_total
        unfulfilled[report.link_type] = (
            unfulfilled.get(report.link_type, 0) + report.unfulfilled
        )
    return {
        t: (unfulfilled[t] / demand[t] if demand[t] else 0.0) for t in sorted(demand)
    }


def build_error_report(
    learned: LearnedMarginals,
    attribute_bn: BayesianNetwork,
    reports: Iterable[RuleReport],
) -> ErrorReport:
    error, unobserved = distribution_error_details(learned, attribute_bn)
    return ErrorReport(error, unobserved, matching_error(reports))


# ---------------------------------------------------------------------------
# Graph statistics


def graph_statistics(store: PopulationStore, scope: str = "collapsed") -> NetworkStats:
    """Density, degree, clustering and path length for one link layer or for
    the collapsed uniplex graph."""
    return stats_for_edges(len(store), store.edges(None if scope == "collapsed" else scope), scope)


def stats_for_edges(
    node_count: int, pairs: Sequence[tuple[int, int]], scope: str = "collapsed"
) -> NetworkStats:
    """Statistics of the undirected graph on ``node_count`` nodes with the
    links ``pairs``.  Path-length sources above ``EXACT_PATH_LIMIT`` come from
    the scope's own stream of seed 0, so a generated report and ``stats`` on
    its files agree."""
    n = node_count
    ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    # Sorted row * n + col keys of both orientations, repeats dropped.
    keys = distinct((ends[ends[:, 0] != ends[:, 1]] @ np.array([[n, 1], [1, n]])).ravel())
    rows, cols = np.divmod(keys, n)
    degrees = np.bincount(rows, minlength=n)

    m = len(keys) // 2
    density = (2.0 * m / (n * (n - 1))) if n > 1 else 0.0
    average_degree = (2.0 * m / n) if n else 0.0

    triangles = _triangle_count(n, keys, rows, cols, degrees)
    triples = int((degrees * (degrees - 1) // 2).sum())
    clustering = (3.0 * triangles / triples) if triples else 0.0

    labels = _component_labels(n, rows, cols)
    # Labels are each component's lowest id, so the first label of the most
    # nodes is the largest component, a tie going to the one of lowest id.
    nodes = np.flatnonzero(labels == np.argmax(np.bincount(labels, minlength=1)))

    apl = None
    estimated = False
    s = len(nodes)
    if s >= 2:
        if s <= EXACT_PATH_LIMIT:
            sources = np.arange(s)
        else:
            rng = substream(0, f"stats/{scope}/path-sample")
            sources = rng.choice(s, size=min(PATH_SAMPLE_SOURCES, s), replace=False)
            estimated = True
        # The component's own CSR graph, its nodes renumbered 0..s-1 by id.
        sub_indptr = np.concatenate([[0], np.cumsum(degrees[nodes])])
        slots = ranges(np.searchsorted(rows, nodes), degrees[nodes])
        sub_indices = np.searchsorted(nodes, cols[slots])
        apl = _distance_sum(sub_indptr, sub_indices, sources) / (len(sources) * (s - 1))

    return NetworkStats(
        scope=scope,
        nodes=n,
        links=m,
        density=density,
        average_degree=average_degree,
        clustering=clustering,
        average_path_length=apl,
        path_length_estimated=estimated,
        components=int(np.count_nonzero(labels == np.arange(n))),
        largest_component=s,
    )


def _triangle_count(n, keys, rows, cols, degrees) -> int:
    """Triangles of the symmetric CSR graph: each link points from the lower
    to the higher (degree, id) end, and a triangle is the one wedge of two
    out-links of its lowest end that the third link closes."""
    up = (degrees[rows] < degrees[cols]) | ((degrees[rows] == degrees[cols]) & (rows < cols))
    out_rows, out_cols = rows[up], cols[up]
    out_end = np.cumsum(np.bincount(out_rows, minlength=n))[out_rows]
    later = out_end - np.arange(len(out_rows)) - 1  # out-links of the row after this one
    wanted = np.repeat(out_cols, later) * n + out_cols[ranges(out_end - later, later)]
    wanted.sort()  # probes in key order stay in cache; only their count is used
    return int(np.count_nonzero(isin_sorted(wanted, keys)))


def _component_labels(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each node's component as its lowest id: every root hooks under its
    lowest neighbouring root, then pointer jumping, until no link joins two."""
    labels = np.arange(n)
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, labels[rows], labels[cols])
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def _distance_sum(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray) -> int:
    """Sum of the hop distances from each of ``sources`` to every node of the
    connected undirected CSR graph ``indptr``, ``indices``.

    Any two nodes lie within 2e of each other, e the eccentricity of node 0,
    so the bitset traversal takes at most 2e levels.  Its cost grows with
    the level count, and past ``BITSET_MAX_LEVELS`` (long chains and thin
    grids) one traversal per source is the faster."""
    degrees = np.diff(indptr)
    seen = np.arange(len(degrees)) == 0
    frontier, eccentricity = np.zeros(1, dtype=np.int64), -1
    while len(frontier):
        eccentricity += 1
        reached = indices[ranges(indptr[frontier], degrees[frontier])]
        frontier = distinct(reached[~seen[reached]])
        seen[frontier] = True
    if 2 * eccentricity <= BITSET_MAX_LEVELS:
        return _bitset_distance_sum(indptr, indices, sources)
    return _dijkstra_distance_sum(indptr, indices, sources)


def _bitset_distance_sum(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray) -> int:
    """Multi-source BFS on bitsets (Then et al., PVLDB 8(4), 2014): row r of
    ``reach`` holds one bit per source of the block, set once that source
    lies within the current level of node ``order[r]``.  A level ORs each
    node's neighbours' rows into its own, and the bits it sets are the
    (source, node) pairs at that distance.  Rows go by falling degree, so
    the nodes with a k-th neighbour are a prefix and a level is one
    gather-OR per neighbour slot k."""
    degree = np.diff(indptr)
    order = np.argsort(-degree, kind="stable")
    rank = np.argsort(order)
    with_slot = np.cumsum(np.bincount(degree)[::-1])[::-1]  # nodes of degree >= k
    slots = [
        rank[indices[indptr[order[:with_slot[k]]] + k - 1]] for k in range(1, len(with_slot))
    ]
    s = len(degree)
    total = 0
    for start in range(0, len(sources), BITSET_BLOCK_SOURCES):
        block = rank[sources[start:start + BITSET_BLOCK_SOURCES]]
        cols = np.arange(len(block))
        reach = np.zeros((s, -(-len(block) // 64)), dtype=np.uint64)
        reach[block, cols // 64] = np.uint64(1) << (cols % 64).astype(np.uint64)
        reached, full = len(block), len(block) * s
        level = 0
        while reached < full:
            level += 1
            grown = reach.copy()
            for neighbours in slots:
                grown[:len(neighbours)] |= reach[neighbours]
            reach = grown
            now = int(np.bitwise_count(reach).sum())
            assert now > reached, "component is not connected"
            total += level * (now - reached)
            reached = now
    return total


def _dijkstra_distance_sum(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray) -> int:
    """One traversal per source, 512 sources per call.  The only user of
    scipy, imported here so that no shallower graph loads it."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    component = csr_matrix((np.ones(len(indices)), indices, indptr))
    total = 0
    for start in range(0, len(sources), 512):
        dist = shortest_path(
            component, method="D", unweighted=True, indices=sources[start:start + 512]
        )
        total += int(dist.sum())  # integers below 2**53, so the float sum is exact
    return total


def stats_report_entries(stats: NetworkStats) -> list[tuple[str, object]]:
    """Flat key-value pairs for the text report, path length omitted when
    undefined."""
    prefix = f"stats.{stats.scope}"
    entries: list[tuple[str, object]] = [
        (f"{prefix}.nodes", stats.nodes),
        (f"{prefix}.links", stats.links),
        (f"{prefix}.density", stats.density),
        (f"{prefix}.average_degree", stats.average_degree),
        (f"{prefix}.clustering", stats.clustering),
        (f"{prefix}.components", stats.components),
        (f"{prefix}.largest_component", stats.largest_component),
    ]
    if stats.average_path_length is not None:
        entries.append((f"{prefix}.average_path_length", stats.average_path_length))
        entries.append((f"{prefix}.path_length_estimated", stats.path_length_estimated))
    return entries
