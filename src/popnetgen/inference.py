"""Exact posterior computation on discrete Bayesian networks under evidence.

Variable elimination in the module's greedy order, each step one np.einsum
contraction of the factors it touches; the last step, which sums nothing,
folds the remaining factors pairwise, one two-operand einsum each.
``posterior`` reads p(variables, evidence) from one least-recently-used
cache per Engine, keyed by (variables, evidence); ``joint``, whose
``joint((), evidence)`` is p(evidence), and ``joint_at`` are read once by
their callers and are not cached.  Results are exact: they match full joint
enumeration to floating-point accuracy, which the test suite pins at 1e-9.
Posteriors under zero-probability evidence raise ZeroEvidenceError so
callers can tell "no candidates exist" apart from numeric noise.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import Mapping

import numpy as np

from .bn import BayesianNetwork, Evidence, topological_order


class InferenceError(Exception):
    pass


class ZeroEvidenceError(InferenceError):
    """The evidence has probability zero: the query is undefined."""


class UnknownVariableError(InferenceError, KeyError):
    pass


_Factor = tuple[tuple[str, ...], np.ndarray]

_CACHE_MAX = 400_000
_BATCH = ""  # the batch axis of Engine.joint_at; no variable has an empty name
_BLOCK = 8192  # rows per elimination in Engine.joint_at


class Engine:
    """Per-network inference engine: dense CPTs, ancestor sets and one memo
    keyed by (variables, evidence).

    An Engine never mutates its network, so one instance can serve concurrent
    reads.  Construction is cheap; the win from reuse is the memo, which
    serves PrototypeSampler and repeated posterior queries.
    """

    def __init__(self, bn: BayesianNetwork):
        self.order = topological_order(bn)
        self.domains = {v.name: v.domain for v in bn.variables}
        self.value_index = {
            v.name: {val: i for i, val in enumerate(v.domain)} for v in bn.variables
        }
        self.ancestors: dict[str, frozenset[str]] = {}
        self._factors: dict[str, _Factor] = {}
        for name in self.order:
            cpt = bn.cpts[name]
            self.ancestors[name] = frozenset(cpt.parents).union(
                *(self.ancestors[p] for p in cpt.parents)
            )
            combos = itertools.product(*(self.domains[p] for p in cpt.parents))
            shape = [len(self.domains[v]) for v in cpt.parents + (name,)]
            table = np.array([cpt.rows[combo] for combo in combos], dtype=np.float64).reshape(shape)
            table.setflags(write=False)  # einsum may hand out a view of a lone factor
            self._factors[name] = (cpt.parents + (name,), table)
        # Per instance, so that the cache goes with its engine.
        self._marginal = functools.lru_cache(maxsize=_CACHE_MAX)(
            lambda keep, items: self.joint(keep, dict(items)))

    # -- public queries ------------------------------------------------------

    def posterior(self, evidence: Evidence, query: str) -> np.ndarray:
        """Exact p(query | evidence) as a vector over the query's domain."""
        if query not in self.domains:
            raise UnknownVariableError(query)
        keep = () if query in evidence else (query,)
        vec = self._marginal(keep, tuple(sorted(evidence.items())))
        total = vec.sum()
        if total <= 0.0:
            raise ZeroEvidenceError(f"evidence has probability 0: {dict(evidence)}")
        if keep:
            return vec / total
        one_hot = np.zeros(len(self.domains[query]))
        one_hot[self.value_index[query][evidence[query]]] = 1.0
        return one_hot

    def joint(self, variables: tuple[str, ...], evidence: Evidence = {}) -> np.ndarray:
        """Exact p(variables, evidence), one axis per variable in the given
        order; every other variable is summed out.  Not memoised: it is read
        once."""
        for name, value in evidence.items():
            if value not in self.value_index.get(name, ()):
                raise UnknownVariableError(f"{name}={value!r} is not a value of the network")
        codes = {name: self.value_index[name][value] for name, value in evidence.items()}
        return _eliminate(self._factors_at(codes, variables), variables)

    def joint_at(self, codes: Mapping[str, np.ndarray], keep: str) -> np.ndarray:
        """Exact p(the variables of ``codes`` at one row's codes, keep), one
        row per entry of the equal-length code arrays, keep's axis last.
        Each factor is gathered at a block of rows' codes along one shared
        batch axis before the rest is summed out, so no table spans the
        product of the coded variables' domains, nor more than _BLOCK rows."""
        starts = range(0, max(len(next(iter(codes.values()))), 1), _BLOCK)
        blocks = ({v: c[at:at + _BLOCK] for v, c in codes.items()} for at in starts)
        return np.concatenate([
            _eliminate(self._factors_at(block, (keep,)), (_BATCH, keep)) for block in blocks])

    def cpt_table(self, name: str) -> tuple[tuple[str, ...], np.ndarray]:
        """Parents of ``name`` and its dense CPT: one axis per parent, child last."""
        varnames, table = self._factors[name]
        return varnames[:-1], table

    # -- internals -------------------------------------------------------------

    def _factors_at(self, codes: Mapping, keep: tuple[str, ...]) -> list[_Factor]:
        """The factors of keep, the coded variables and their ancestors
        (barren variables pruned), each read at its coded variables' codes:
        a scalar code drops the variable's axis, an array of codes gathers
        along one batch axis, in front."""
        relevant = {*keep, *codes}
        for name in tuple(relevant):
            relevant |= self.ancestors[name]
        # Sorted so factor products associate identically in every process;
        # string set order varies with hash randomization.
        factors = []
        for name in sorted(relevant):
            varnames, table = self._factors[name]
            coded = [i for i, v in enumerate(varnames) if v in codes]
            if coded:
                table = np.moveaxis(table, coded, range(len(coded)))[
                    tuple(codes[varnames[i]] for i in coded)]
                varnames = tuple(v for v in varnames if v not in codes)
                varnames = (_BATCH, *varnames) if table.ndim > len(varnames) else varnames
            factors.append((varnames, table))
        return factors


def _contract(factors: list[_Factor], out: tuple[str, ...]) -> np.ndarray:
    """The factors' product summed down to ``out``, one axis per variable of
    ``out``; 1.0 for no factors.  Labels are renumbered per call because
    einsum takes at most 52.  With nothing to sum, the product is folded
    pairwise, left to right: numpy's greedy path would make it one
    many-operand einsum, several times slower."""
    if not factors:
        return np.array(1.0)
    label = {v: i for i, v in enumerate(dict.fromkeys(v for names, _ in factors for v in names))}
    if len(factors) > 1 and label.keys() == set(out):
        (names, product), *rest = factors
        for step, (more, table) in enumerate(rest, 1):
            union = out if step == len(rest) else tuple(dict.fromkeys(names + more))
            operands = [product, [label[v] for v in names], table, [label[v] for v in more]]
            product, names = np.einsum(*operands, [label[v] for v in union]), union
        return product
    operands = [x for names, table in factors for x in (table, [label[v] for v in names])]
    return np.einsum(*operands, [label[v] for v in out], optimize="greedy")


def _eliminate(factors: list[_Factor], keep: tuple[str, ...]) -> np.ndarray:
    """Sum out every variable not in ``keep``; one axis per variable of ``keep``."""
    size = {v: n for varnames, table in factors for v, n in zip(varnames, np.shape(table))}
    to_go = size.keys() - set(keep)

    def cost(v: str) -> int:
        touched = {u for varnames, _ in factors if v in varnames for u in varnames}
        return math.prod(size[u] for u in touched)

    while to_go:
        # Greedy smallest-intermediate-table choice, ties to the first name;
        # einsum only orders the pairwise products inside one step.
        best = min(sorted(to_go), key=cost)
        to_go.discard(best)
        touching = [f for f in factors if best in f[0]]
        factors = [f for f in factors if best not in f[0]]
        union = tuple(dict.fromkeys(v for varnames, _ in touching for v in varnames if v != best))
        factors.append((union, _contract(touching, union)))
    return _contract(factors, keep)
