"""Agent population as integer codes, and the dyad-unique multiplex link registry.

Agent i is row i of an N x V matrix, in the smallest unsigned integer type
that holds its entries, whose column j holds the index of the agent's label
in the label tuple of variable j.  Variables named with the ``RC_`` prefix
hold required link counts (``RC_spouses`` is the number of spouses links
an agent needs); the store turns each into a list of open demand for its
link type, one Python int per agent, that counted links decrement.  Each
link type keeps its links as one flat int64 buffer of (source, target)
pairs, undirected ones lowest id first.  Any unordered pair of agents
carries at most one link across all types; the registry that enforces it
holds, per agent, its partners in link order as one int64 buffer.
"""
from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bn import BayesianNetwork, Cpt
from .inference import Engine

RC_PREFIX = "RC_"
POPULATION_BLOCK = 1 << 16  # agents drawn per block by generate_population


class PopulationError(Exception):
    pass


class SelfLinkError(PopulationError):
    pass


class DyadOccupiedError(PopulationError):
    pass


class UnknownLinkTypeError(PopulationError):
    pass


class UnknownAttributeError(PopulationError, KeyError):
    pass


class DemandExceededError(PopulationError):
    pass


class UnknownAgentError(PopulationError):
    pass


def link_counts(name: str, labels: Sequence[str]) -> np.ndarray:
    """The required link counts that the labels of the ``RC_`` variable
    ``name`` stand for; PopulationError unless each is an integer in int64's
    non-negative range."""
    try:
        counts = [int(label) for label in labels]
    except ValueError:
        raise PopulationError(
            f"link-count variable {name!r} has non-integer labels {tuple(labels)}"
        ) from None
    bad = [label for label, count in zip(labels, counts) if not 0 <= count < 2**63]
    if bad:
        raise PopulationError(f"link-count variable {name!r} has label {bad[0]!r}, not a count")
    return np.array(counts, dtype=np.int64)


def check_population_size(size: int, variables: int) -> None:
    """PopulationError unless numpy could shape (size, variables) 8-byte
    values, more than generate_population's codes or block of uniforms
    take.  Allocates nothing, so validate runs it too."""
    # numpy counts a zero-length axis as one when it checks an array's size
    if not 0 <= size * max(variables, 1) * 8 <= np.iinfo(np.intp).max:
        raise PopulationError(
            f"cannot hold {size} agents of {variables} variables: too many for one array"
        )


@dataclass(frozen=True)
class LinkType:
    name: str
    directed: bool


class PopulationStore:
    """Agent code matrix, per-type open demand and the link registry.

    ``columns`` maps each variable to its label tuple, in declaration order;
    ``codes`` has one row per agent and one column per variable;
    ``demand[type][agent]`` is the agent's open demand of the type.  Reads may
    run concurrently; mutations go through a single writer, which is what
    the sequential generation pipeline provides.
    """

    def __init__(
        self,
        link_types: Iterable[LinkType] = (),
        columns: Mapping[str, Sequence[str]] | None = None,
        codes: np.ndarray | None = None,
    ):
        columns = dict(columns or {})
        self.columns: tuple[str, ...] = tuple(columns)
        self.labels: tuple[tuple[str, ...], ...] = tuple(tuple(l) for l in columns.values())
        # Column-major: queries scan one variable over all agents at a time.
        self.codes = np.asfortranarray(
            np.zeros((0, len(self.columns)), np.uint8) if codes is None else codes
        )
        self.link_types: dict[str, LinkType] = {}
        self.demand: dict[str, list[int]] = {}
        self._links: dict[str, array] = {}
        # Per agent: () until its first link, then its partners in link order.
        self._partners: list[Sequence[int]] = [()] * len(self)
        for j, name in enumerate(self.columns):
            if name.startswith(RC_PREFIX):
                counts = link_counts(name, self.labels[j])[self.codes[:, j]]
                self.demand[name[len(RC_PREFIX):]] = counts.tolist()
        for lt in link_types:
            if lt.name in self.link_types:
                raise PopulationError(f"link type {lt.name!r} declared twice")
            self.link_types[lt.name] = lt
            self.demand.setdefault(lt.name, [0] * len(self))
            self._links[lt.name] = array("q")

    def __len__(self) -> int:
        return self.codes.shape[0]

    def column(self, attribute: str) -> int:
        try:
            return self.columns.index(attribute)
        except ValueError:
            raise UnknownAttributeError(attribute) from None

    def attributes(self, agent_id: int) -> dict[str, str]:
        """One agent's label of every variable."""
        row = self.codes[agent_id].tolist()
        return {name: labels[c] for name, labels, c in zip(self.columns, self.labels, row)}

    def remaining(self, link_type: str, ids=slice(None)) -> np.ndarray:
        """Open demand of this type as int64, per agent or for ``ids``."""
        if link_type not in self.demand:
            raise UnknownLinkTypeError(link_type)
        return np.array(self.demand[link_type], dtype=np.int64)[ids]

    def edges(self, link_type: str | None = None) -> np.ndarray:
        """(source, target) rows of one type's links in insertion order, or
        of every type's, types in declaration order; int64, shape (m, 2).
        The rows are a copy: a view would keep the buffer from growing."""
        if link_type is not None and link_type not in self._links:
            raise UnknownLinkTypeError(link_type)
        names = self._links if link_type is None else [link_type]
        views = [np.frombuffer(self._links[name], dtype=np.int64) for name in names]
        return np.concatenate([np.empty(0, dtype=np.int64), *views]).reshape(-1, 2)

    def partners_of(self, agent_id: int) -> Sequence[int]:
        """Agents sharing a dyad with this one, across all link types, in
        link order.  The store's own buffer, read in place: the caller must
        not change it."""
        return self._partners[agent_id]

    def record_link(
        self,
        source: int,
        target: int,
        link_type: str,
        *,
        count_source: bool = True,
        count_target: bool = True,
        enforce_demand: bool = False,
    ) -> tuple[int, int]:
        """Insert a link if the dyad is still free; returns the stored pair.

        Counted endpoints have their open demand for the type decremented;
        with enforce_demand the insert refuses to take it below zero
        (matching rules rely on this as a hard stop).
        """
        partners = self._partners
        if not (0 <= source < len(partners) and 0 <= target < len(partners)):
            agent = target if 0 <= source < len(partners) else source
            raise UnknownAgentError(f"agent {agent} is not one of the {len(partners)} agents")
        if source == target:
            raise SelfLinkError(f"agent {source} cannot link to itself")
        kind = self.link_types.get(link_type)
        if kind is None:
            raise UnknownLinkTypeError(link_type)
        if target in partners[source]:
            raise DyadOccupiedError(
                f"agents {min(source, target)} and {max(source, target)} already linked"
            )
        demand = self.demand[link_type]
        if enforce_demand:
            short = (source if count_source and demand[source] <= 0
                     else target if count_target and demand[target] <= 0 else None)
            if short is not None:
                raise DemandExceededError(f"agent {short} has no remaining {link_type!r} demand")

        # Count flags are bound to the caller's endpoint roles, so demand
        # goes down before the canonical storage order below.
        demand[source] -= count_source
        demand[target] -= count_target
        if partners[source]:
            partners[source].append(target)
        else:
            partners[source] = array("q", (target,))
        if partners[target]:
            partners[target].append(source)
        else:
            partners[target] = array("q", (source,))
        if not kind.directed and source > target:
            source, target = target, source
        self._links[link_type].extend((source, target))
        return source, target

    def add_links(self, link_type: str, ends) -> None:
        """Insert the (source, target) rows of ``ends`` as links of one type,
        both ends counted, as a loop of record_link would: a refused row
        raises that loop's first error once the rows before it are in.  The
        checks are vectorised, so no row scans a partner buffer."""
        ends = np.asarray(ends, dtype=np.int64).reshape(-1, 2)
        n = len(self)
        source, target = ends[:, 0], ends[:, 1]
        refused = ((ends < 0) | (ends >= n)).any(axis=1) | (source == target)
        if link_type not in self.link_types:
            refused[:1] = True  # the loop's first row raises, if there is one
        # Each dyad's min * n + max key, against the links so far and the rows
        # before it: the order of a stable sort puts a repeat after its first.
        key = np.minimum(source, target) * n + np.maximum(source, target)
        links = self.edges()
        refused |= isin_sorted(key, np.sort(links.min(axis=1) * n + links.max(axis=1)))
        order = np.argsort(key, kind="stable")
        refused[order[1:][np.diff(key[order]) == 0]] = True
        stop = int(np.argmax(refused)) if refused.any() else len(ends)
        if stop:
            self._insert(link_type, ends[:stop])
        if stop < len(ends):
            self.record_link(*ends[stop].tolist(), link_type)  # raises the row's error

    def _insert(self, link_type: str, ends: np.ndarray) -> None:
        """Append rows that pass every check of record_link, both ends counted."""
        demand, partners = self.demand[link_type], self._partners
        # Each end's (agent, partner) entry, grouped by agent in link order.
        entries = np.stack([ends, ends[:, ::-1]], axis=1).reshape(-1, 2)
        entries = entries[np.argsort(entries[:, 0], kind="stable")]
        starts = np.flatnonzero(np.diff(entries[:, 0], prepend=-1))
        bounds = np.append(starts, len(entries))
        new = memoryview(entries[:, 1].tobytes())
        for agent, start, end in zip(entries[starts, 0].tolist(), bounds[:-1].tolist(),
                                     bounds[1:].tolist()):
            demand[agent] -= end - start
            if not partners[agent]:
                partners[agent] = array("q")
            partners[agent].frombytes(new[8 * start:8 * end])
        if not self.link_types[link_type].directed:
            ends = np.sort(ends, axis=1)
        self._links[link_type].frombytes(ends.tobytes())


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + c)`` for each start s and count c, concatenated."""
    return np.arange(np.sum(counts)) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct non-negative ``values``, ascending; np.unique is slower."""
    values = np.sort(values)
    return values[np.diff(values, prepend=-1) != 0]


def isin_sorted(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.isin(values, keys)`` for ascending ``keys``, but much faster: one
    search, and a compare at the first key not below each value."""
    if not len(keys):
        return np.zeros(np.shape(values), dtype=bool)
    return keys[np.minimum(np.searchsorted(keys, values), len(keys) - 1)] == values


def query_candidates(
    store: PopulationStore, ids: np.ndarray, demand_type: str | None, agent: int
) -> np.ndarray:
    """``ids`` without the agents whose ``demand_type`` demand is met, without
    ``agent`` and without its partners; sorted ids stay sorted."""
    if demand_type is not None:
        ids = ids[store.remaining(demand_type, ids) > 0]
    taken = [agent, *store.partners_of(agent)]
    return ids[~np.isin(ids, taken)]


def upper_bounds(rows: np.ndarray) -> np.ndarray:
    """Per probability row, the bounds that invert it by one uniform: the
    label drawn is the number of bounds at or below the uniform.  They are
    the running sums, +inf from the last positive label on, so a uniform
    past the row's total (float undershoot) takes that label."""
    bounds = np.cumsum(rows, axis=1)
    last_positive = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] > 0.0, axis=1)
    bounds[np.arange(rows.shape[1]) >= last_positive[:, None]] = np.inf
    return bounds


def generate_population(
    attribute_bn: BayesianNetwork,
    size: int,
    rng: np.random.Generator,
    link_types: Iterable[LinkType] = (),
) -> PopulationStore:
    """Sample ``size`` agents from the attribute network, one variable at a time.

    Ancestral sampling, ``POPULATION_BLOCK`` agents at a time: variables
    are drawn in topological order, each agent reading its CPT row off its
    parents' codes and inverting it with one uniform per (agent, variable),
    in agent-major order as drawing one agent after another takes them:
    the code counts the row's upper_bounds at or below the uniform, one
    label at a time.  RC_ variables become the per-type required link
    counts (integer labels).
    """
    engine = Engine(attribute_bn)
    column = {name: j for j, name in enumerate(attribute_bn.names)}
    check_population_size(size, len(column))
    columns = {v.name: v.domain for v in attribute_bn.variables}
    largest = max(map(len, columns.values()), default=1) - 1  # codes in the smallest dtype
    codes = np.empty((size, len(column)), dtype=np.min_scalar_type(largest), order="F")
    for lo in range(0, size, POPULATION_BLOCK):
        block = codes[lo:lo + POPULATION_BLOCK]  # a view: the store's dtype and layout
        uniforms = rng.random((len(block), len(column)))
        for step, name in enumerate(engine.order):
            parents, table = engine.cpt_table(name)
            bounds = upper_bounds(table.reshape(-1, table.shape[-1]))
            row = np.ravel_multi_index(
                tuple(block[:, column[p]] for p in parents), table.shape[:-1]
            ) if parents else 0
            block[:, column[name]] = sum(bound[row] <= uniforms[:, step] for bound in bounds.T)
    return PopulationStore(link_types, columns, codes)


@dataclass
class LearnedMarginals:
    """CPTs re-estimated from the generated agents, structure unchanged.

    Rows whose parent combination never occurred keep the theoretical
    probabilities and are listed in ``unobserved``.
    """

    bn: BayesianNetwork
    unobserved: list[tuple[str, tuple[str, ...]]]


def learn_marginals(store: PopulationStore, attribute_bn: BayesianNetwork) -> LearnedMarginals:
    """Maximum-likelihood re-estimation of every CPT row from agent counts:
    one bincount per CPT over (parent row, child code)."""
    if len(store) == 0:
        raise PopulationError("cannot learn marginals from an empty population")

    learned_cpts: dict[str, Cpt] = {}
    unobserved: list[tuple[str, tuple[str, ...]]] = []
    for variable in attribute_bn.variables:
        cpt = attribute_bn.cpts[variable.name]
        dims = tuple(len(attribute_bn.domain(p)) for p in cpt.parents)
        k = len(variable.domain)
        row = 0
        if cpt.parents:
            row = np.ravel_multi_index(
                tuple(store.codes[:, store.column(p)] for p in cpt.parents), dims
            )
        child = store.codes[:, store.column(variable.name)]
        counts = np.bincount(row * k + child, minlength=math.prod(dims) * k)
        combos = itertools.product(*(attribute_bn.domain(p) for p in cpt.parents))
        rows: dict[tuple[str, ...], tuple[float, ...]] = {}
        for combo, tally in zip(combos, counts.reshape(-1, k).tolist()):
            total = sum(tally)
            if total == 0:
                rows[combo] = cpt.rows[combo]
                unobserved.append((variable.name, combo))
            else:
                rows[combo] = tuple(c / total for c in tally)
        learned_cpts[variable.name] = Cpt(variable.name, cpt.parents, rows)
    learned = BayesianNetwork(attribute_bn.variables, learned_cpts)
    return LearnedMarginals(learned, sorted(unobserved))
