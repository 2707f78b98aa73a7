"""Shared test helpers: random networks and independent brute-force oracles.

The oracles here deliberately avoid the package's elimination machinery:
posteriors come from materializing the full joint by enumeration, graph
statistics from cubic triangle scans and plain BFS.
"""
from __future__ import annotations

import functools
import itertools
from pathlib import Path

import numpy as np

from popnetgen.bn import BayesianNetwork, Cpt, Variable
from popnetgen.inference import Engine, ZeroEvidenceError
from popnetgen.population import RC_PREFIX, PopulationStore


def make_random_bn(
    rng: np.random.Generator,
    n_vars: int | None = None,
    max_vars: int = 10,
    max_domain: int = 4,
    max_parents: int = 3,
    zero_fraction: float = 0.15,
) -> BayesianNetwork:
    """Random DAG with dense random CPTs; some entries forced to zero so
    support pruning gets exercised."""
    if n_vars is None:
        n_vars = int(rng.integers(2, max_vars + 1))
    variables = []
    for i in range(n_vars):
        size = int(rng.integers(2, max_domain + 1))
        variables.append(Variable(f"v{i}", tuple(f"x{j}" for j in range(size))))
    cpts = {}
    for i, var in enumerate(variables):
        k = int(rng.integers(0, min(i, max_parents) + 1))
        parents = tuple(
            variables[j].name for j in sorted(rng.choice(i, size=k, replace=False))
        ) if k else ()
        rows = {}
        parent_domains = [variables[int(p[1:])].domain for p in parents]
        for combo in itertools.product(*parent_domains):
            weights = rng.random(len(var.domain))
            mask = rng.random(len(var.domain)) < zero_fraction
            if mask.all():
                mask[int(rng.integers(len(var.domain)))] = False
            weights[mask] = 0.0
            weights /= weights.sum()
            rows[combo] = tuple(float(w) for w in weights)
        cpts[var.name] = Cpt(var.name, parents, rows)
    return BayesianNetwork(tuple(variables), cpts)


def random_evidence(rng: np.random.Generator, bn: BayesianNetwork, max_items: int = 3) -> dict:
    names = list(bn.names)
    k = int(rng.integers(0, min(max_items, len(names)) + 1))
    picked = rng.choice(len(names), size=k, replace=False)
    out = {}
    for i in picked:
        name = names[int(i)]
        domain = bn.domain(name)
        out[name] = domain[int(rng.integers(len(domain)))]
    return out


def build_store(link_types, rows, required=None) -> PopulationStore:
    """Store from per-agent labels: rows[i] maps attribute -> label and
    required[i] maps link type -> required count (absent types count 0).
    Labels are coded in order of first appearance."""
    required = required or [{} for _ in rows]
    types = sorted({t for counts in required for t in counts})
    full = [
        {**row, **{RC_PREFIX + t: str(counts.get(t, 0)) for t in types}}
        for row, counts in zip(rows, required)
    ]
    columns: dict[str, list[str]] = {}
    for row in full:
        for name, label in row.items():
            labels = columns.setdefault(name, [])
            if label not in labels:
                labels.append(label)
    codes = [[columns[name].index(row[name]) for name in columns] for row in full]
    return PopulationStore(
        link_types, columns, np.array(codes, dtype=np.intp).reshape(len(rows), len(columns))
    )


def link_probability(engine: Engine, rule, a1: dict[str, str], a2: dict[str, str]) -> float:
    """p(link = yes | both agents' labels) from one posterior query on full
    evidence, for ``engine`` built on ``rule.bn``: 0 when a label lies
    outside the matching network's domain or the labels have probability 0
    together.  Independent of the matcher's class tables."""
    evidence = {}
    for labels, copies in ((a1, rule.a1_map()), (a2, rule.a2_map())):
        for bn_var, attribute in copies.items():
            if labels[attribute] not in engine.value_index[bn_var]:
                return 0.0
            evidence[bn_var] = labels[attribute]
    try:
        vec = engine.posterior(evidence, rule.link_variable)
    except ZeroEvidenceError:
        return 0.0
    return float(vec[engine.value_index[rule.link_variable]["yes"]])


def scan_pick_law(compat: list[float]) -> list[float]:
    """Exact law of the accept/reject scan over a pool of candidates with
    compatibilities ``compat``: candidates are drawn uniformly without
    replacement and each is kept with probability compat / the pool's
    largest compat; a rejected one leaves the pool.  Returns the probability
    that each candidate is picked, then that none is.  Recursion over the
    set of candidates not yet drawn."""
    top = max(compat, default=0.0)
    if top <= 0.0:
        return [0.0] * len(compat) + [1.0]

    @functools.cache
    def law(left: frozenset[int]) -> tuple[float, ...]:
        out = [0.0] * len(compat) + [0.0 if left else 1.0]
        for i in left:
            keep = compat[i] / top
            out[i] += keep / len(left)
            for j, p in enumerate(law(left - {i})):
                out[j] += (1.0 - keep) / len(left) * p
        return tuple(out)

    return list(law(frozenset(range(len(compat)))))


# -- joint enumeration oracle -------------------------------------------------


def assignment_weight(bn: BayesianNetwork, assignment: dict[str, str]) -> float:
    """Product of CPT entries, straight off the row dictionaries."""
    w = 1.0
    for variable in bn.variables:
        cpt = bn.cpts[variable.name]
        combo = tuple(assignment[p] for p in cpt.parents)
        w *= cpt.rows[combo][variable.domain.index(assignment[variable.name])]
    return w


def enum_joint_items(bn: BayesianNetwork):
    names = bn.names
    for values in itertools.product(*(bn.domain(n) for n in names)):
        assignment = dict(zip(names, values))
        yield assignment, assignment_weight(bn, assignment)


def enum_probability(bn: BayesianNetwork, evidence: dict[str, str]) -> float:
    total = 0.0
    for assignment, weight in enum_joint_items(bn):
        if all(assignment[k] == v for k, v in evidence.items()):
            total += weight
    return total


def enum_posterior(bn: BayesianNetwork, evidence: dict[str, str], query: str) -> list[float]:
    domain = bn.domain(query)
    sums = [0.0] * len(domain)
    for assignment, weight in enum_joint_items(bn):
        if all(assignment[k] == v for k, v in evidence.items()):
            sums[domain.index(assignment[query])] += weight
    total = sum(sums)
    if total == 0.0:
        raise ZeroDivisionError("evidence has probability 0")
    return [s / total for s in sums]


def tensor_joint(bn: BayesianNetwork) -> np.ndarray:
    """Full joint as a tensor with one axis per variable (declaration order);
    a vectorized rendering of the same enumeration."""
    names = list(bn.names)
    axis = {n: i for i, n in enumerate(names)}
    sizes = [len(bn.domain(n)) for n in names]
    joint = np.ones(sizes)
    for variable in bn.variables:
        cpt = bn.cpts[variable.name]
        shape = [len(bn.domain(p)) for p in cpt.parents] + [len(variable.domain)]
        table = np.empty(shape)
        for combo in itertools.product(*(bn.domain(p) for p in cpt.parents)):
            idx = tuple(bn.domain(p).index(v) for p, v in zip(cpt.parents, combo))
            table[idx] = cpt.rows[combo]
        involved = list(cpt.parents) + [variable.name]
        order = sorted(range(len(involved)), key=lambda k: axis[involved[k]])
        expanded_shape = [1] * len(names)
        for k in order:
            expanded_shape[axis[involved[k]]] = shape[k]
        joint = joint * np.transpose(table, order).reshape(expanded_shape)
    return joint


def tensor_posterior(bn: BayesianNetwork, evidence: dict[str, str], query: str) -> np.ndarray:
    names = list(bn.names)
    joint = tensor_joint(bn)
    slicer = []
    for n in names:
        if n in evidence:
            slicer.append(bn.domain(n).index(evidence[n]))
        else:
            slicer.append(slice(None))
    sub = joint[tuple(slicer)]
    kept = [n for n in names if n not in evidence]
    out_axis = kept.index(query)
    other = tuple(i for i in range(len(kept)) if i != out_axis)
    vec = sub.sum(axis=other) if other else sub
    return vec / vec.sum()


def tensor_probability(bn: BayesianNetwork, evidence: dict[str, str]) -> float:
    names = list(bn.names)
    joint = tensor_joint(bn)
    slicer = tuple(
        bn.domain(n).index(evidence[n]) if n in evidence else slice(None) for n in names
    )
    return float(joint[slicer].sum())


# -- readers of exported files ------------------------------------------------


def parse_report(text: str) -> dict[str, object]:
    """Inverse of export.report_text for the value types it emits."""
    out: dict[str, object] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"bad report line: {raw!r}")
        out[key] = _parse_value(value)
    return out


def _parse_value(token: str) -> object:
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def read_edge_file(path) -> np.ndarray:
    """(source, target) rows of one type's edge list, int64, shape (m, 2)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "source,target"
    ends = [tuple(map(int, raw.split(","))) for raw in lines[1:] if raw]
    return np.array(ends, dtype=np.int64).reshape(-1, 2)


# -- graph oracles ------------------------------------------------------------


def gnp_edges(rng: np.random.Generator, n: int, p: float) -> list[tuple[int, int]]:
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges.append((a, b))
    return edges


def brute_graph_stats(n: int, edges: list[tuple[int, int]]):
    """(density, average degree, clustering, average path length or None),
    from first principles: cubic triangle count, per-node BFS."""
    edge_set = {(min(a, b), max(a, b)) for a, b in edges if a != b}
    adj = {i: set() for i in range(n)}
    for a, b in edge_set:
        adj[a].add(b)
        adj[b].add(a)
    m = len(edge_set)
    density = 2.0 * m / (n * (n - 1)) if n > 1 else 0.0
    avg_degree = 2.0 * m / n if n else 0.0

    triangles = 0
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if b in adj[a] and c in adj[a] and c in adj[b]:
                    triangles += 1
    triples = sum(len(adj[v]) * (len(adj[v]) - 1) // 2 for v in adj)
    clustering = 3.0 * triangles / triples if triples else 0.0

    seen = set()
    components = []
    for start in range(n):
        if start in seen or not adj[start]:
            continue
        queue = [start]
        seen.add(start)
        comp = []
        while queue:
            v = queue.pop()
            comp.append(v)
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        components.append(sorted(comp))
    largest = max(components, key=lambda c: (len(c), -min(c)), default=[])

    apl = None
    if len(largest) >= 2:
        total = 0
        for source in largest:
            dist = {source: 0}
            frontier = [source]
            while frontier:
                nxt = []
                for v in frontier:
                    for u in adj[v]:
                        if u not in dist:
                            dist[u] = dist[v] + 1
                            nxt.append(u)
                frontier = nxt
            total += sum(dist.values())
        s = len(largest)
        apl = total / (s * (s - 1))
    return density, avg_degree, clustering, apl
