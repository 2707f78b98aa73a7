"""Generation errors and whole-network statistics.

Statistics treat every link as undirected, per type or with all types
collapsed onto one uniplex graph.  Average path length is computed on the
largest connected component only: exactly up to a size cap, above it from a
fixed number of seeded random sources (flagged as estimated).  The distance
sum is an exact integer.  The exact branch first folds the trees hanging off
the component's 2-core into weights on the core nodes, and a tree needs no
search at all; the rest is a bit-parallel breadth-first search from up to
2,048 sources at once, the first of several blocks one word.  A block whose
search passes ``BITSET_MAX_LEVELS`` levels, in a core too deep for bitsets to
pay, hands its sources and every later block's to one traversal per source.
The kernels are numpy on CSR arrays of sorted ``row * n + col`` keys:
triangles from degree-oriented wedges, components by root hooking and
pointer jumping, the fold by rounds of leaf peeling.  Only the per-source
traversal uses scipy, imported when a core is that deep.
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
TRIANGLE_BLOCK = 1 << 20  # wedges probed at a time by _triangle_count
BITSET_BLOCK_SOURCES = 2_048  # sources per bitset traversal, whole words: 32 uint64 a row
# Most levels a bitset block runs before it and the later blocks go one
# traversal per source.  On grids whose corner sources take 372 and 428
# levels, the bitset search ran in 0.78 and 1.11 of the per-source CPU time at
# 5,000 nodes, and in 0.57 (412 levels) and 0.70 (450) at 20,000 nodes.  The
# first of several blocks is one word: a too-deep core pays them on 64 sources.
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
    """The mean absolute error of the marginals learned from a population
    against the network it came from, summed one entry at a time over the
    observed CPT rows (variables, then each CPT's rows in file order); the
    unobserved row count; and the matching error per homophily type."""
    unobserved = set(learned.unobserved)
    total = 0.0
    entries = 0
    for variable in attribute_bn.variables:
        estimate = learned.bn.cpts[variable.name].rows
        for combo, probs in attribute_bn.cpts[variable.name].rows.items():
            if (variable.name, combo) not in unobserved:
                for p, q in zip(probs, estimate[combo]):
                    total += abs(p - q)
                    entries += 1
    error = total / entries if entries else 0.0
    return ErrorReport(error, len(unobserved), matching_error(reports))


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
        # The component's own CSR graph, its nodes renumbered 0..s-1 by id.
        sub_indptr = np.concatenate([[0], np.cumsum(degrees[nodes])])
        slots = ranges(np.searchsorted(rows, nodes), degrees[nodes])
        sub_indices = np.searchsorted(nodes, cols[slots])
        if s <= EXACT_PATH_LIMIT:
            core_indptr, core_indices, weight, total = _fold(sub_indptr, sub_indices)
            if len(weight) > 1:  # not a tree
                total += _distance_sum(core_indptr, core_indices, np.arange(len(weight)), weight)
            apl = total / (s * (s - 1))
        else:
            rng = substream(0, f"stats/{scope}/path-sample")
            sources = rng.choice(s, size=min(PATH_SAMPLE_SOURCES, s), replace=False)
            estimated = True
            unit = np.ones(s, dtype=np.int64)
            apl = _distance_sum(sub_indptr, sub_indices, sources, unit) / (len(sources) * (s - 1))

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
    out-links of its lowest end that the third link closes, probed by blocks
    of out-links of at most TRIANGLE_BLOCK wedges (or one out-link)."""
    up = (degrees[rows] < degrees[cols]) | ((degrees[rows] == degrees[cols]) & (rows < cols))
    out_rows, out_cols = rows[up], cols[up]
    out_end = np.cumsum(np.bincount(out_rows, minlength=n))[out_rows]
    later = out_end - np.arange(len(out_rows)) - 1  # out-links of the row after this one
    wedges, triangles, lo = np.cumsum(later), 0, 0
    while lo < len(later):
        hi = max(lo + 1, np.searchsorted(wedges, wedges[lo] - later[lo] + TRIANGLE_BLOCK, "right"))
        count, first = later[lo:hi], out_end[lo:hi] - later[lo:hi]
        wanted = np.repeat(out_cols[lo:hi], count) * n + out_cols[ranges(first, count)]
        wanted.sort()  # probes in key order stay in cache; only their count is used
        triangles += int(np.count_nonzero(isin_sorted(wanted, keys)))
        lo = hi
    return triangles


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


def _fold(indptr, indices):
    """Fold the trees hanging off the 2-core of the connected CSR graph.

    Each round peels every node of degree 1 into its one live neighbour,
    passing on its subtree size; of two leaves joined to each other the
    higher id peels, so a tree folds to one root.  Returns the core's own
    CSR graph, each core node's count c_u of the nodes folded into it (u
    included), and what the peeled links add to the distance sum over
    ordered pairs, 2sS - 2Q for the component's s nodes and S, Q the sums
    of size and size² over the peeled links (the tree sum of Mohar and
    Pisanski, J. Math. Chem. 2, 1988).  The whole sum is that plus the
    core's sum of c_u c_v d(u, v)."""
    s = len(indptr) - 1
    full = np.diff(indptr)
    degree = full.copy()
    size = np.ones(s, dtype=np.int64)
    alive = np.ones(s, dtype=bool)
    total = 0
    leaves = np.flatnonzero(degree == 1)
    while len(leaves):
        near = indices[ranges(indptr[leaves], full[leaves])]
        parent = near[alive[near]]
        peel = (degree[parent] != 1) | (leaves > parent)
        leaves, parent = leaves[peel], parent[peel]
        folded = size[leaves]
        total += 2 * s * int(folded.sum()) - 2 * int(folded @ folded)
        np.add.at(size, parent, folded)
        alive[leaves] = False
        touched, times = np.unique(parent, return_counts=True)
        degree[touched] -= times
        leaves = touched[degree[touched] == 1]
    core = np.flatnonzero(alive)
    near = indices[ranges(indptr[core], full[core])]
    core_indices = (np.cumsum(alive) - 1)[near[alive[near]]]
    return np.concatenate([[0], np.cumsum(degree[core])]), core_indices, size[core], total


def _distance_sum(indptr, indices, sources, weight) -> int:
    """Sum of weight[u] * weight[v] * d(u, v) over each u of ``sources`` and
    every node v of the connected undirected CSR graph ``indptr``, ``indices``,
    by multi-source BFS on bitsets (Then et al., PVLDB 8(4), 2014): row r of
    ``reach`` holds one bit per source of the block, set once that source
    lies within the current level of node ``order[r]``.  A level ORs each
    node's neighbours' rows into its own, and the bits it sets are the
    (source, node) pairs at that distance.  Rows go by falling degree, so
    the nodes with a k-th neighbour are a prefix and a level is one
    gather-OR per neighbour slot k.  Sources go by weight, each weight's
    run padded to whole words, so a level's weighted count is the rows'
    popcounts times their word weights.  Once a block passes
    ``BITSET_MAX_LEVELS`` levels, its sources and those of every later block
    go to one traversal per source."""
    degree = np.diff(indptr)
    order = np.argsort(-degree, kind="stable")
    rank = np.argsort(order)
    with_slot = np.cumsum(np.bincount(degree)[::-1])[::-1]  # nodes of degree >= k
    slots = [
        rank[indices[indptr[order[:with_slot[k]]] + k - 1]] for k in range(1, len(with_slot))
    ]
    row_weight = weight[order]
    sources = sources[np.argsort(weight[sources], kind="stable")]
    values, first, counts = np.unique(weight[sources], return_index=True, return_counts=True)
    words = -(-counts // 64)
    column = np.arange(len(sources)) + np.repeat(64 * (np.cumsum(words) - words) - first, counts)
    word_weight = np.repeat(values, words)
    s = len(degree)
    total = 0
    width = 64 * len(word_weight)
    first = 64 if width > BITSET_BLOCK_SOURCES else width  # one block, or one word first
    bounds = [0, *range(first, width, BITSET_BLOCK_SOURCES), width]
    for start, stop in zip(bounds, bounds[1:]):
        lo, hi = np.searchsorted(column, [start, stop])
        cols, own = column[lo:hi] - start, weight[sources[lo:hi]]
        block_weight = word_weight[start // 64:stop // 64]
        reach = np.zeros((s, len(block_weight)), dtype=np.uint64)
        reach[rank[sources[lo:hi]], cols // 64] = np.uint64(1) << (cols % 64).astype(np.uint64)
        reached, full = int(own @ own), int(own.sum()) * int(weight.sum())
        level, before = 0, total
        while reached < full:
            level += 1
            if level > BITSET_MAX_LEVELS:
                return before + _dijkstra_distance_sum(indptr, indices, sources[lo:], weight)
            grown = reach.copy()
            for neighbours in slots:
                grown[:len(neighbours)] |= reach[neighbours]
            reach = grown
            now = int(row_weight @ (np.bitwise_count(reach) @ block_weight))
            assert now > reached, "component is not connected"
            total += level * (now - reached)
            reached = now
    return total


def _dijkstra_distance_sum(indptr, indices, sources, weight) -> int:
    """One traversal per source, 512 sources per call.  The only user of
    scipy, imported here so that no shallower graph loads it."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    component = csr_matrix((np.ones(len(indices)), indices, indptr))
    total = 0
    for start in range(0, len(sources), 512):
        batch = sources[start:start + 512]
        dist = shortest_path(component, method="D", unweighted=True, indices=batch)
        total += int(weight[batch] @ dist.astype(np.int64) @ weight)
    return total

