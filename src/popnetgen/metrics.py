"""Generation errors and whole-network statistics.

Statistics treat every link as undirected, per type or with all types
collapsed onto one uniplex graph.  Average path length is computed on the
largest connected component only: exactly up to a size cap, above it from a
fixed number of seeded random sources (flagged as estimated).  The distance
sum is an exact integer, taken by a bit-parallel breadth-first search from
up to 4,096 sources at once, or by one traversal per source when the
component is too deep for that to pay.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from .bn import BayesianNetwork
from .matching import RuleReport
from .population import LearnedMarginals, PopulationStore, link_matrix
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
) -> tuple[float, int, int]:
    """(mean absolute error, observed row count, unobserved row count) of the
    marginals learned from a population against the network it came from."""
    unobserved = set(learned.unobserved)
    total = 0.0
    entries = 0
    observed_rows = 0
    for variable in attribute_bn.variables:
        theory = attribute_bn.cpts[variable.name]
        estimate = learned.bn.cpts[variable.name]
        for combo, probs in theory.rows.items():
            if (variable.name, combo) in unobserved:
                continue
            observed_rows += 1
            for p, q in zip(probs, estimate.rows[combo]):
                total += abs(p - q)
                entries += 1
    return (total / entries if entries else 0.0), observed_rows, len(unobserved)


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
    error, _, unobserved = distribution_error_details(learned, attribute_bn)
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
    adjacency = link_matrix(n, ends[ends[:, 0] != ends[:, 1]], both_ways=True)

    m = adjacency.nnz // 2
    density = (2.0 * m / (n * (n - 1))) if n > 1 else 0.0
    average_degree = (2.0 * m / n) if n else 0.0

    triangles = int((adjacency @ adjacency).multiply(adjacency).sum()) // 6
    degrees = np.diff(adjacency.indptr).astype(np.int64)
    triples = int((degrees * (degrees - 1) // 2).sum())
    clustering = (3.0 * triangles / triples) if triples else 0.0

    component_count, labels = connected_components(adjacency, directed=False)
    sizes = np.bincount(labels)
    _, lowest_member = np.unique(labels, return_index=True)
    # The largest component has the most nodes; a tie goes to the component
    # holding the lowest id.  The slice is empty when there are no nodes.
    largest = np.lexsort((lowest_member, -sizes))[:1]
    nodes = np.flatnonzero(np.isin(labels, largest))

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
        component = adjacency[nodes][:, nodes]
        apl = _distance_sum(component, sources) / (len(sources) * (s - 1))

    return NetworkStats(
        scope=scope,
        nodes=n,
        links=m,
        density=density,
        average_degree=average_degree,
        clustering=clustering,
        average_path_length=apl,
        path_length_estimated=estimated,
        components=int(component_count),
        largest_component=s,
    )


def _distance_sum(component: csr_matrix, sources: np.ndarray) -> int:
    """Sum of the hop distances from each of ``sources`` to every node of the
    connected undirected graph ``component``.

    Any two nodes lie within 2e of each other, e the eccentricity of node 0,
    so the bitset traversal takes at most 2e levels.  Its cost grows with
    the level count, and past ``BITSET_MAX_LEVELS`` (long chains and thin
    grids) one traversal per source is the faster."""
    eccentricity = int(shortest_path(component, unweighted=True, indices=0).max())
    if 2 * eccentricity <= BITSET_MAX_LEVELS:
        return _bitset_distance_sum(component, sources)
    return _dijkstra_distance_sum(component, sources)


def _bitset_distance_sum(component: csr_matrix, sources: np.ndarray) -> int:
    """Multi-source BFS on bitsets (Then et al., PVLDB 8(4), 2014): row r of
    ``reach`` holds one bit per source of the block, set once that source
    lies within the current level of node ``order[r]``.  A level ORs each
    node's neighbours' rows into its own, and the bits it sets are the
    (source, node) pairs at that distance.  Rows go by falling degree, so
    the nodes with a k-th neighbour are a prefix and a level is one
    gather-OR per neighbour slot k."""
    indptr, indices = component.indptr, component.indices
    degree = np.diff(indptr)
    order = np.argsort(-degree, kind="stable")
    rank = np.argsort(order)
    with_slot = np.cumsum(np.bincount(degree)[::-1])[::-1]  # nodes of degree >= k
    slots = [
        rank[indices[indptr[order[:with_slot[k]]] + k - 1]] for k in range(1, len(with_slot))
    ]
    s = component.shape[0]
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


def _dijkstra_distance_sum(component: csr_matrix, sources: np.ndarray) -> int:
    """One traversal per source, 512 sources per call."""
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
