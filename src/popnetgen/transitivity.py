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

from .matching import RuleReport
from .population import PopulationStore, UnknownLinkTypeError, distinct, isin_sorted, ranges

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


def _relation(store: PopulationStore, link_type: str, role: str) -> np.ndarray:
    """The pivot and the counterpart rows of one link type, sorted by pivot;
    the pivot plays ``role`` (either role for "any" and undirected types)."""
    ends = store.edges(link_type)
    if not store.link_types[link_type].directed or role == "any":
        ends = np.concatenate([ends, ends[:, ::-1]])
    elif role == "target":
        ends = ends[:, ::-1]
    return ends[np.argsort(ends[:, 0])].T


def open_triads(store: PopulationStore, rule: TransitivityRule) -> np.ndarray:
    """The closable (a1, a3) dyads as int64 rows, in ascending id order.

    A dyad qualifies when some pivot a2 is linked to a1 by t1 and to a3 by
    t2 under the rule's roles, a1 != a3, and no link of any type occupies
    the (a1, a3) pair.  Each dyad appears once even with several pivots; if
    both orientations qualify the ascending one is kept.
    """
    for t in (rule.t1, rule.t2, rule.t3):
        if t not in store.link_types:
            raise UnknownLinkTypeError(t)

    n = len(store)
    pivot1, a1 = _relation(store, rule.t1, rule.pivot_role_1)
    pivot2, a3 = _relation(store, rule.t2, rule.pivot_role_2)
    # Join each t1 link to the t2 links of its pivot: the paths a1 - a2 - a3.
    start = np.searchsorted(pivot2, pivot1)
    count = np.searchsorted(pivot2, pivot1, side="right") - start
    a1, a3 = np.repeat(a1, count), a3[ranges(start, count)]
    dyads = distinct((a1 * n + a3)[a1 != a3])
    # Each link's row * n + col key in both orientations: the occupied pairs.
    occupied = np.sort((store.edges() @ np.array([[n, 1], [1, n]])).ravel())
    dyads = dyads[~isin_sorted(dyads, occupied)]
    # Where both orientations qualify, drop the descending one (a1 > a3).
    a1, a3 = dyads // n, dyads % n
    keep = (a1 < a3) | ~isin_sorted(a3 * n + a1, dyads)
    return np.stack([a1[keep], a3[keep]], axis=1)


def run_transitivity_rule(
    store: PopulationStore, rule: TransitivityRule, rng: np.random.Generator
) -> RuleReport:
    """One Bernoulli trial per closable dyad, regardless of how many pivots
    witness it; links pass the store's dyad checks."""
    dyads = open_triads(store, rule)
    closed = dyads[rng.random(len(dyads)) < rule.probability]
    store.add_links(rule.t3, closed)
    return RuleReport(rule.t3, "transitive", len(dyads), len(closed))
