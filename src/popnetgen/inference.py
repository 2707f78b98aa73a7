"""Exact posterior computation on discrete Bayesian networks under evidence.

Variable elimination over dense numpy factors.  Results are exact: they match
full joint enumeration to floating-point accuracy, which the test suite pins
at 1e-9.  Posteriors under zero-probability evidence raise ZeroEvidenceError
so callers can tell "no candidates exist" apart from numeric noise.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bn import (
    BayesianNetwork,
    Evidence,
    ancestors_map,
    check_evidence,
    descendants_map,
    topological_order,
)


class InferenceError(Exception):
    pass


class ZeroEvidenceError(InferenceError):
    """The evidence has probability zero: the query is undefined."""


class UnknownVariableError(InferenceError, KeyError):
    pass


class IncompleteAssignmentError(InferenceError):
    pass


@dataclass(frozen=True)
class Posterior:
    """Marginal distribution of one variable, aligned to its domain order."""

    variable: str
    probabilities: tuple[float, ...]


_Factor = tuple[tuple[str, ...], np.ndarray]

_CACHE_MAX = 400_000


class Engine:
    """Per-network inference engine with memoized query results.

    An Engine never mutates its network, so one instance can serve concurrent
    reads.  Construction is cheap; the win from reuse is the posterior and
    evidence memo shared across queries, which prototype sampling leans on
    heavily when the same agent attribute combinations recur.
    """

    def __init__(self, bn: BayesianNetwork):
        self.bn = bn
        self.order = topological_order(bn)
        self.domains = {v.name: v.domain for v in bn.variables}
        self.value_index = {
            v.name: {val: i for i, val in enumerate(v.domain)} for v in bn.variables
        }
        self.descendants = descendants_map(bn)
        self.ancestors = ancestors_map(bn)
        self._factors: dict[str, _Factor] = {}
        for name in self.order:
            cpt = bn.cpts[name]
            shape = [len(self.domains[p]) for p in cpt.parents]
            shape.append(len(self.domains[name]))
            table = np.empty(shape, dtype=np.float64)
            if cpt.parents:
                for combo in itertools.product(*(self.domains[p] for p in cpt.parents)):
                    idx = tuple(self.value_index[p][v] for p, v in zip(cpt.parents, combo))
                    table[idx] = cpt.rows[combo]
            else:
                table[...] = cpt.rows[()]
            self._factors[name] = (cpt.parents + (name,), table)
        self._posterior_cache: dict[tuple, np.ndarray] = {}
        self._evidence_cache: dict[tuple, float] = {}

    # -- public queries ------------------------------------------------------

    def posterior(self, evidence: Evidence, query: str) -> np.ndarray:
        """Exact p(query | evidence) as a vector over the query's domain."""
        if query not in self.domains:
            raise UnknownVariableError(query)
        key = (query, _ev_key(evidence))
        cached = self._posterior_cache.get(key)
        if cached is not None:
            return cached
        try:
            check_evidence(self.bn, evidence)
        except KeyError as exc:
            raise UnknownVariableError(str(exc)) from None

        if query in evidence:
            if self.probability_of_evidence(evidence) <= 0.0:
                raise ZeroEvidenceError(f"evidence has probability 0: {dict(evidence)}")
            vec = np.zeros(len(self.domains[query]))
            vec[self.value_index[query][evidence[query]]] = 1.0
        else:
            vec = self._unnormalized_marginal(evidence, query)
            total = vec.sum()
            if total <= 0.0:
                raise ZeroEvidenceError(f"evidence has probability 0: {dict(evidence)}")
            vec = vec / total
        if len(self._posterior_cache) >= _CACHE_MAX:
            self._posterior_cache.clear()
        self._posterior_cache[key] = vec
        return vec

    def probability_of_evidence(self, evidence: Evidence) -> float:
        """Exact p(evidence); 1.0 for empty evidence."""
        if not evidence:
            return 1.0
        key = _ev_key(evidence)
        cached = self._evidence_cache.get(key)
        if cached is not None:
            return cached
        try:
            check_evidence(self.bn, evidence)
        except KeyError as exc:
            raise UnknownVariableError(str(exc)) from None
        relevant: set[str] = set()
        for name in evidence:
            relevant.add(name)
            relevant |= self.ancestors[name]
        factors = self._restricted_factors(evidence, relevant)
        result = _eliminate(factors, (), self.domains)
        value = float(result[1])
        if len(self._evidence_cache) >= _CACHE_MAX:
            self._evidence_cache.clear()
        self._evidence_cache[key] = value
        return value

    def joint(self, variables: tuple[str, ...]) -> np.ndarray:
        """Exact p(variables), one axis per variable in the given order;
        every other variable is summed out."""
        relevant = set(variables)
        for name in variables:
            relevant |= self.ancestors[name]
        return _eliminate(self._restricted_factors({}, relevant), variables, self.domains)[1]

    def cpt_table(self, name: str) -> tuple[tuple[str, ...], np.ndarray]:
        """Parents of ``name`` and its dense CPT: one axis per parent, child last."""
        varnames, table = self._factors[name]
        return varnames[:-1], table

    def cpt_row(self, name: str, parent_values: Mapping[str, str]) -> np.ndarray:
        """Direct CPT lookup p(name | parents); all parents must be present."""
        varnames, table = self._factors[name]
        idx = tuple(self.value_index[p][parent_values[p]] for p in varnames[:-1])
        return table[idx]

    # -- internals -------------------------------------------------------------

    def _unnormalized_marginal(self, evidence: Evidence, query: str) -> np.ndarray:
        """p(query, evidence) over the query domain; barren variables pruned."""
        relevant = {query} | self.ancestors[query]
        for name in evidence:
            relevant.add(name)
            relevant |= self.ancestors[name]
        factors = self._restricted_factors(evidence, relevant)
        varnames, arr = _eliminate(factors, (query,), self.domains)
        return arr

    def _restricted_factors(self, evidence: Evidence, relevant: set[str]) -> list[_Factor]:
        # Sorted so factor products associate identically in every process;
        # string set order varies with hash randomization.
        factors = []
        for name in sorted(relevant):
            varnames, table = self._factors[name]
            keep_vars = []
            index: list = []
            for v in varnames:
                if v in evidence:
                    index.append(self.value_index[v][evidence[v]])
                else:
                    keep_vars.append(v)
                    index.append(slice(None))
            factors.append((tuple(keep_vars), table[tuple(index)]))
        return factors


def _ev_key(evidence: Evidence) -> tuple:
    return tuple(sorted(evidence.items()))


def _product(factors: list[_Factor], domains) -> _Factor:
    union: list[str] = []
    for varnames, _ in factors:
        for v in varnames:
            if v not in union:
                union.append(v)
    pos = {v: i for i, v in enumerate(union)}
    out = None
    for varnames, table in factors:
        if varnames:
            order = sorted(range(len(varnames)), key=lambda k: pos[varnames[k]])
            t = np.transpose(table, order)
            shape = [1] * len(union)
            for k in order:
                shape[pos[varnames[k]]] = table.shape[k]
            t = t.reshape(shape)
        else:
            t = table.reshape((1,) * len(union)) if union else table
        out = t if out is None else out * t
    return tuple(union), out


def _eliminate(factors: list[_Factor], keep: tuple[str, ...], domains) -> _Factor:
    """Sum out every variable not in ``keep``; returns a factor over ``keep``."""
    to_go = {v for varnames, _ in factors for v in varnames} - set(keep)
    while to_go:
        # Greedy smallest-intermediate-table choice; the graphs here are tiny.
        best = None
        best_cost = None
        for v in sorted(to_go):
            cost = 1
            seen: set[str] = set()
            for varnames, _ in factors:
                if v in varnames:
                    for u in varnames:
                        if u not in seen:
                            seen.add(u)
                            cost *= len(domains[u])
            if best_cost is None or cost < best_cost:
                best, best_cost = v, cost
        to_go.discard(best)
        touching = [f for f in factors if best in f[0]]
        factors = [f for f in factors if best not in f[0]]
        union, arr = _product(touching, domains)
        axis = union.index(best)
        arr = arr.sum(axis=axis)
        rest = union[:axis] + union[axis + 1:]
        factors.append((rest, arr))
    union, arr = _product(factors, domains)
    if tuple(union) != keep:
        order = [union.index(v) for v in keep]
        arr = np.transpose(arr, order)
    return keep, arr


# ---------------------------------------------------------------------------
# Module-level operations: each call builds its own engine


def posterior(bn: BayesianNetwork, evidence: Evidence, query: str) -> Posterior:
    """Exact marginal p(query | evidence)."""
    vec = Engine(bn).posterior(evidence, query)
    return Posterior(query, tuple(float(p) for p in vec))


def probability_of_evidence(bn: BayesianNetwork, evidence: Evidence) -> float:
    return Engine(bn).probability_of_evidence(evidence)


def joint_probability(bn: BayesianNetwork, assignment: Mapping[str, str]) -> float:
    """Product of CPT entries along topological order for a full assignment.

    Computed straight from the CPT rows, independently of the elimination
    machinery, so it can serve as an oracle for it.
    """
    missing = [v.name for v in bn.variables if v.name not in assignment]
    if missing:
        raise IncompleteAssignmentError(f"assignment misses: {', '.join(missing)}")
    check_evidence(bn, assignment)
    result = 1.0
    for name in topological_order(bn):
        cpt = bn.cpts[name]
        combo = tuple(assignment[p] for p in cpt.parents)
        row = cpt.rows[combo]
        result *= row[bn.variable(name).index_of(assignment[name])]
        if result == 0.0:
            return 0.0
    return result
