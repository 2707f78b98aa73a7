"""Generation errors and whole-network statistics.

Statistics treat every link as undirected, per type or with all types
collapsed onto one uniplex graph.  Average path length is computed on the
largest connected component only: exactly up to a size cap, above it from a
fixed number of seeded random-source traversals (flagged as estimated).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components, shortest_path

from .bn import BayesianNetwork
from .matching import RuleReport
from .population import LearnedMarginals, PopulationStore, learn_marginals, link_matrix
from .sampling import substream

EXACT_PATH_LIMIT = 20_000
PATH_SAMPLE_SOURCES = 1_000


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


def distribution_error(store: PopulationStore, attribute_bn: BayesianNetwork) -> float:
    """Mean absolute difference between theoretical and re-learned CPT
    probabilities, over rows whose parent combination was observed."""
    learned = learn_marginals(store, attribute_bn)
    error, _, _ = distribution_error_details(learned, attribute_bn)
    return error


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
        # Distances are integers, so their float64 sum is exact in any order.
        total = 0.0
        for start in range(0, len(sources), 512):
            dist = shortest_path(
                component, method="D", unweighted=True,
                indices=sources[start:start + 512],
            )
            total += float(dist.sum())
        apl = total / (len(sources) * (s - 1))

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
