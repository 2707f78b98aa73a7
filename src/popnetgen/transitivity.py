"""Triad closure: create links of one type across two existing links.

A rule closes open two-link paths a1 - a2 - a3 into a direct a1 - a3 link
with a fixed probability.  The pivot specification says which endpoint of
each existing link the shared agent a2 occupies, which is what makes rules
like "husband of the mother becomes the father" or "children of the same
mother become siblings" expressible over directed links.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, tril

from .matching import RuleReport
from .population import PopulationStore, UnknownLinkTypeError, link_matrix

PIVOT_ROLES = ("source", "target", "any")


@dataclass(frozen=True)
class TransitivityRule:
    """Close a1 -(t1)- a2 -(t2)- a3 into a1 -(t3)- a3 with probability p.

    pivot_role_1/2 give a2's role in the existing t1 and t2 links; roles are
    ignored for undirected link types.
    """

    t1: str
    t2: str
    t3: str
    probability: float
    pivot_role_1: str = "any"
    pivot_role_2: str = "any"

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} outside [0, 1]")
        for role in (self.pivot_role_1, self.pivot_role_2):
            if role not in PIVOT_ROLES:
                raise ValueError(f"pivot role must be one of {PIVOT_ROLES}, got {role!r}")

    @property
    def link_type(self) -> str:
        """The type the rule creates, read as a homophily rule's is."""
        return self.t3


def parse_pattern(spec: str) -> tuple[str, str]:
    """Parse the plan-file pattern form '<role1>-<role2>'."""
    parts = spec.split("-")
    if len(parts) != 2 or any(p not in PIVOT_ROLES for p in parts):
        raise ValueError(
            f"pattern must be '<role>-<role>' with roles in {PIVOT_ROLES}, got {spec!r}"
        )
    return parts[0], parts[1]


def _relation(store: PopulationStore, link_type: str, role: str) -> csr_matrix:
    """Pivot x counterpart 0/1 matrix of one link type, the pivot playing
    ``role`` in the link (either role for "any" and undirected types)."""
    ends = store.edges(link_type)
    if not store.link_types[link_type].directed or role == "any":
        return link_matrix(len(store), ends, both_ways=True)
    return link_matrix(len(store), ends if role == "source" else ends[:, ::-1])


def enumerate_open_triads(store: PopulationStore, rule: TransitivityRule) -> list[tuple[int, int]]:
    """All closable (a1, a3) dyads, in ascending id order.

    A dyad qualifies when some pivot a2 is linked to a1 by t1 and to a3 by
    t2 under the rule's roles, a1 != a3, and no link of any type occupies
    the (a1, a3) pair.  Each dyad appears once even with several pivots; if
    both orientations qualify the ascending one is kept.
    """
    for t in (rule.t1, rule.t2, rule.t3):
        if t not in store.link_types:
            raise UnknownLinkTypeError(t)

    # paths[a1, a3] counts the pivots a2 of the two-link paths a1 - a2 - a3.
    paths = _relation(store, rule.t1, rule.pivot_role_1).T @ _relation(
        store, rule.t2, rule.pivot_role_2
    )
    occupied = link_matrix(len(store), store.edges(), both_ways=True)
    open_pairs = (paths - paths.multiply(occupied)).sign()
    # Where both orientations qualify, drop the descending one (a1 > a3).
    open_pairs = (open_pairs - tril(open_pairs.multiply(open_pairs.T), k=-1)).tocoo()
    keep = (open_pairs.data > 0) & (open_pairs.row != open_pairs.col)
    a1, a3 = open_pairs.row[keep], open_pairs.col[keep]
    order = np.lexsort((a3, a1))
    return list(zip(a1[order].tolist(), a3[order].tolist()))


def run_transitivity_rule(
    store: PopulationStore, rule: TransitivityRule, rng: np.random.Generator
) -> RuleReport:
    """One Bernoulli trial per closable dyad, regardless of how many pivots
    witness it; links pass the store's dyad checks."""
    report = RuleReport(rule.t3, "transitive")
    dyads = enumerate_open_triads(store, rule)
    report.demand_total = len(dyads)
    for a1, a3 in dyads:
        if rng.random() < rule.probability:
            store.record_link(
                a1, a3, rule.t3, count_source=True, count_target=True
            )
            report.links_created += 1
    return report
