"""Shared test helpers: random networks and independent brute-force oracles.

The oracles here deliberately avoid the package's elimination machinery:
posteriors come from materializing the full joint by enumeration, graph
statistics from cubic triangle scans and plain BFS.  The one exception is
dense_class_tables, the matcher's former class tables over every class
pair, kept as the reference the pair-by-pair tables must equal.  The
f-string writers (``oracle_network_files``, ``oracle_interaction``) are the
exporter's former line-by-line code, the reference its bytes must equal.
So are ``oneshot_population_codes`` and ``oneshot_triangle_count``, the
former all-at-once population draw and triangle count, which the
block-at-a-time ones must equal, ``undershoot_draw``, the former draw of
one variable, which the label-at-a-time comparison must equal, and
``distribution_error_details``, the error report's loop, whose summation
order the report must keep.
"""
from __future__ import annotations

import functools
import itertools
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from popnetgen.bn import BayesianNetwork, Cpt, Variable
from popnetgen.inference import Engine, ZeroEvidenceError
from popnetgen.matching import _class_ids
from popnetgen.population import RC_PREFIX, PopulationStore, isin_sorted, ranges


def make_random_bn(
    rng: np.random.Generator,
    n_vars: int | None = None,
    max_vars: int = 10,
    max_domain: int = 4,
    max_parents: int = 3,
    zero_fraction: float = 0.15,
    min_domain: int = 2,
) -> BayesianNetwork:
    """Random DAG with dense random CPTs; some entries forced to zero so
    support pruning gets exercised.  ``min_domain=1`` lets variables of one
    value in, whose factors carry size-1 axes."""
    if n_vars is None:
        n_vars = int(rng.integers(2, max_vars + 1))
    variables = []
    for i in range(n_vars):
        size = int(rng.integers(min_domain, max_domain + 1))
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


def oneshot_population_codes(
    attribute_bn: BayesianNetwork, size: int, rng: np.random.Generator
) -> np.ndarray:
    """The codes generate_population drew when it drew every agent at once:
    one (size, variables) block of uniforms, intp codes."""
    engine = Engine(attribute_bn)
    column = {name: j for j, name in enumerate(attribute_bn.names)}
    codes = np.empty((size, len(column)), dtype=np.intp, order="F")
    uniforms = rng.random((size, len(column)))
    for step, name in enumerate(engine.order):
        parents, table = engine.cpt_table(name)
        rows = table.reshape(-1, table.shape[-1])
        if parents:
            row = np.ravel_multi_index(
                tuple(codes[:, column[p]] for p in parents), table.shape[:-1]
            )
        else:
            row = np.zeros(size, dtype=np.intp)
        codes[:, column[name]] = undershoot_draw(rows, row, uniforms[:, step])
    return codes


def undershoot_draw(rows: np.ndarray, row: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The labels generate_population drew from CPT ``rows`` when it compared
    every label at once: per agent, the count of its row's running sums at or
    below its uniform, and for a uniform past the row's total (float
    undershoot) the row's last positive label."""
    cumulative = np.cumsum(rows, axis=1)
    last_positive = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] > 0.0, axis=1)
    drawn = (cumulative[row] <= uniforms[:, None]).sum(axis=1)
    past = drawn == rows.shape[1]
    drawn[past] = last_positive[row[past]]
    return drawn


def distribution_error_details(learned, attribute_bn: BayesianNetwork) -> tuple[float, int]:
    """(mean absolute error, unobserved row count) of the marginals learned
    from a population against the network it came from: variables in order,
    then the theory CPT's rows in file order, then entries, added one by one."""
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


class DenseClassTables(NamedTuple):
    """A homophily rule's tables over every class pair (see dense_class_tables)."""

    a1_class: np.ndarray
    a2_class: np.ndarray
    compat: np.ndarray
    members: np.ndarray
    box: np.ndarray
    cdf: np.ndarray


def dense_class_tables(rule, engine: Engine, store: PopulationStore) -> DenseClassTables:
    """Reference for matching.class_tables, from one elimination that keeps
    every copied variable and the link variable: n1 x n2 x 2 cells.

    ``compat[c1, c2]`` is p(link = yes | both classes' labels), 0 where those
    labels have probability 0 together; ``members[c1]`` holds when each
    label of c1 is possible with link = yes; ``box[c1, c2]`` when each label
    of c2 is possible with c1's labels and link = yes; ``cdf[c1]`` is the
    running sum over c2 of p(c1's labels, c2's labels, link = yes).  The
    extra last class of each side admits nothing."""
    a1, a2 = rule.a1_map(), rule.a2_map()
    joint = engine.joint((*a1, *a2, rule.link_variable))
    yes = joint[..., engine.value_index[rule.link_variable]["yes"]]
    n1 = math.prod(yes.shape[:len(a1)])
    cdf = np.cumsum(yes.reshape(n1, -1), axis=1)
    compat = joint.sum(axis=-1)
    np.divide(yes, compat, out=compat, where=compat > 0.0)
    possible = compat > 0.0
    side1, side2 = range(len(a1)), range(len(a1), possible.ndim)

    def support(axis: int, keep=()) -> np.ndarray:
        others = [a for a in range(possible.ndim) if a != axis and a not in keep]
        return possible.any(axis=tuple(others))

    members = functools.reduce(np.logical_and.outer, [support(a) for a in side1]).ravel()
    codes2 = np.unravel_index(np.arange(possible.size // n1), possible.shape[len(a1):])
    box = functools.reduce(np.logical_and, [
        support(a, side1).reshape(n1, -1)[:, codes] for a, codes in zip(side2, codes2)
    ])
    outside = ((0, 1), (0, 1))
    return DenseClassTables(
        _class_ids(store, engine, a1),
        _class_ids(store, engine, a2),
        np.pad(compat.reshape(n1, -1), outside),
        np.append(members, False),
        np.pad(box, outside),
        cdf,
    )


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


# -- f-string writers ---------------------------------------------------------


def agents_csv(store: PopulationStore) -> str:
    """Agent table: id, attribute columns, then RC_ columns, one row per agent.

    RC_ columns print the required count, ``str(int(label))``."""
    order = sorted(range(len(store.columns)), key=lambda j: store.columns[j].startswith(RC_PREFIX))
    table = [[str(i) for i in range(len(store))]]
    for j in order:
        labels = store.labels[j]
        if store.columns[j].startswith(RC_PREFIX):
            labels = [str(int(label)) for label in labels]
        table.append(np.array(labels, dtype=object)[store.codes[:, j]].tolist())
    lines = [",".join(("id",) + tuple(store.columns[j] for j in order))]
    lines += [",".join(row) for row in zip(*table)]
    return "\n".join(lines) + "\n"


def oracle_network_files(store: PopulationStore, dot_limit: int = 2_000) -> dict[str, str]:
    """Text of each file ``export_network`` writes, by name."""
    files = {"agents.csv": agents_csv(store)}
    layers = {}
    for name in sorted(store.link_types):
        ends = store.edges(name)
        layers[name] = ends[np.lexsort((ends[:, 1], ends[:, 0]))].tolist()
    for name, ends in layers.items():
        lines = ["source,target", *(f"{s},{t}" for s, t in ends)]
        files[f"edges_{name}.csv"] = "\n".join(lines) + "\n"
    lines = ["source,target,type"]
    for name, ends in layers.items():
        lines += (f"{s},{t},{name}" for s, t in ends)
    files["edges_all.csv"] = "\n".join(lines) + "\n"
    if len(store) <= dot_limit:
        dot = [f"// multiplex network: {len(store)} agents"]
        for name, ends in layers.items():
            arrow = "->" if store.link_types[name].directed else "--"
            dot += (f"{s} {arrow} {t} [type={name}]" for s, t in ends)
        files["network.dot"] = "\n".join(dot) + "\n"
    return files


def oracle_interaction(store: PopulationStore, weights) -> str:
    """Text of the ``interaction.csv`` that ``export_interaction_network`` writes."""
    names = list(store.link_types)
    per_type = [store.edges(name) for name in names]
    ends = np.concatenate([np.empty((0, 2), np.int64), *per_type])
    order = np.lexsort((ends[:, 1], ends[:, 0]))
    kinds = np.repeat(np.arange(len(names)), list(map(len, per_type)))[order].tolist()
    probability = [repr(weights.get(name)) for name in names]
    lines = ["source,target,probability"]
    lines += (f"{s},{t},{probability[k]}" for (s, t), k in zip(ends[order].tolist(), kinds))
    return "\n".join(lines) + "\n"


# -- graph oracles ------------------------------------------------------------


def gnp_edges(rng: np.random.Generator, n: int, p: float) -> list[tuple[int, int]]:
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges.append((a, b))
    return edges


def oneshot_triangle_count(n, keys, rows, cols, degrees) -> int:
    """metrics._triangle_count as it probed every wedge at once."""
    up = (degrees[rows] < degrees[cols]) | ((degrees[rows] == degrees[cols]) & (rows < cols))
    out_rows, out_cols = rows[up], cols[up]
    out_end = np.cumsum(np.bincount(out_rows, minlength=n))[out_rows]
    later = out_end - np.arange(len(out_rows)) - 1
    wanted = np.repeat(out_cols, later) * n + out_cols[ranges(out_end - later, later)]
    return int(np.count_nonzero(isin_sorted(np.sort(wanted), keys)))


def brute_graph_stats(n: int, edges: list[tuple[int, int]]):
    """(density, average degree, clustering, average path length or None,
    component count, largest component size), from first principles: cubic
    triangle count, per-node BFS.  An isolated node is a component of one;
    path length is taken on the largest component, a tie going to the one
    holding the lowest id."""
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
        if start in seen:
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
    return density, avg_degree, clustering, apl, len(components), len(largest)
