"""Triad closure: enumeration against a cubic oracle, Bernoulli behavior."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popnetgen.population import LinkType, PopulationStore, UnknownLinkTypeError
from popnetgen.sampling import substream
from popnetgen.transitivity import (
    PIVOT_ROLES,
    TransitivityRule,
    open_triads,
    parse_pattern,
    run_transitivity_rule,
)

from helpers import build_store


def family_store():
    """0 = husband, 1 = wife, 2..3 = wife's children."""
    store = build_store([
        LinkType("spouses", False),
        LinkType("motherOf", True),
        LinkType("fatherOf", True),
        LinkType("siblings", False),
    ], [{}] * 4)
    store.record_link(0, 1, "spouses", count_source=False, count_target=False)
    store.record_link(1, 2, "motherOf", count_source=False, count_target=False)
    store.record_link(1, 3, "motherOf", count_source=False, count_target=False)
    return store


FATHER_RULE = TransitivityRule(
    t1="spouses", t2="motherOf", t3="fatherOf",
    probability=1.0, pivot_role_1="any", pivot_role_2="source",
)
SIBLING_RULE = TransitivityRule(
    t1="motherOf", t2="motherOf", t3="siblings",
    probability=1.0, pivot_role_1="source", pivot_role_2="source",
)


def neighbour_sets(store, link_type, role):
    """Per agent, the counterparts of its links of one type in which it
    plays ``role``; undirected types ignore the role."""
    out = [set() for _ in range(len(store))]
    either = not store.link_types[link_type].directed or role == "any"
    for source, target in store.edges(link_type).tolist():
        if either or role == "source":
            out[source].add(target)
        if either or role == "target":
            out[target].add(source)
    return out


def brute_open_triads(store, rule):
    """O(n^3) oracle: scan every (a1, a2, a3) triple, then keep the
    ascending orientation of a dyad when both qualify, sorted."""
    side1 = neighbour_sets(store, rule.t1, rule.pivot_role_1)
    side2 = neighbour_sets(store, rule.t2, rule.pivot_role_2)
    oriented = set()
    n = len(store)
    for a2 in range(n):
        for a1 in range(n):
            if a1 == a2 or a1 not in side1[a2]:
                continue
            for a3 in range(n):
                if a3 in (a1, a2) or a3 not in side2[a2]:
                    continue
                if a3 in store.partners_of(a1):
                    continue
                oriented.add((a1, a3))
    return sorted(
        [a1, a3] for a1, a3 in oriented if not (a1 > a3 and (a3, a1) in oriented)
    )


@st.composite
def random_networks(draw):
    """A store of up to 20 agents with random spouses and motherOf links,
    plus dyads that several pivots witness: each such pivot draws a link
    type and orientation to either end of the dyad."""
    n = draw(st.integers(0, 20))
    store = build_store([
        LinkType("spouses", False),
        LinkType("motherOf", True),
        LinkType("fatherOf", True),
    ], [{}] * n)
    if n == 0:
        return store
    agent = st.integers(0, n - 1)
    kind = st.sampled_from(("spouses", "motherOf"))
    links = draw(st.lists(st.tuples(agent, agent, kind), max_size=3 * n))
    for a1, a3, pivots in draw(st.lists(st.tuples(agent, agent, st.lists(agent, max_size=4)),
                                        max_size=3)):
        for pivot in pivots:
            for end in (a1, a3):
                forward = draw(st.booleans())
                links.append((pivot, end, draw(kind)) if forward else (end, pivot, draw(kind)))
    for a, b, name in links:
        if a != b and b not in store.partners_of(a):
            store.record_link(a, b, name, count_source=False, count_target=False)
    return store


class TestParsePattern:
    def test_roles(self):
        assert parse_pattern("any-source") == ("any", "source")
        assert parse_pattern("source-source") == ("source", "source")

    def test_bad_pattern(self):
        with pytest.raises(ValueError):
            parse_pattern("sideways")

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            TransitivityRule("a", "b", "c", probability=1.5)


class TestEnumerateOpenTriads:
    def test_family_emits_husband_child_dyads(self):
        store = family_store()
        assert open_triads(store, FATHER_RULE).tolist() == [[0, 2], [0, 3]]

    def test_rows_are_int64_pairs(self):
        empty = build_store([LinkType("spouses", False), LinkType("motherOf", True),
                             LinkType("fatherOf", True)], [{}])
        for store, rows in ((family_store(), 2), (empty, 0)):
            dyads = open_triads(store, FATHER_RULE)
            assert dyads.dtype == np.int64 and dyads.shape == (rows, 2)

    def test_existing_link_excluded(self):
        store = family_store()
        store.record_link(0, 2, "fatherOf", count_source=False, count_target=False)
        assert open_triads(store, FATHER_RULE).tolist() == [[0, 3]]

    def test_empty_network(self):
        store = build_store([LinkType("spouses", False), LinkType("motherOf", True),
                             LinkType("fatherOf", True)], [{}])
        assert open_triads(store, FATHER_RULE).tolist() == []

    def test_unknown_type_rejected(self):
        store = family_store()
        rule = TransitivityRule("spouses", "motherOf", "ghost", 1.0)
        with pytest.raises(UnknownLinkTypeError):
            open_triads(store, rule)

    def test_sibling_pattern_pairs_children_of_one_mother(self):
        store = family_store()
        assert open_triads(store, SIBLING_RULE).tolist() == [[2, 3]]

    def test_multiple_pivots_emit_once(self):
        # two mothers sharing the same two children: one dyad, two pivots
        store = build_store([LinkType("motherOf", True), LinkType("siblings", False)], [{}] * 4)
        for mother in (0, 1):
            for child in (2, 3):
                store.record_link(mother, child, "motherOf",
                                  count_source=False, count_target=False)
        assert open_triads(store, SIBLING_RULE).tolist() == [[2, 3]]

    def test_direction_pattern_respected(self):
        store = family_store()
        # pivot must be the *target* of both motherOf links: nothing matches
        rule = TransitivityRule("motherOf", "motherOf", "siblings", 1.0,
                                pivot_role_1="target", pivot_role_2="target")
        # children are targets; their mother is a shared "source" neighbor...
        # seen from the child pivot there is a single mother on each side,
        # and a1 == a3 is excluded, so nothing qualifies
        assert open_triads(store, rule).tolist() == []

    @settings(max_examples=30, deadline=None)
    @given(store=random_networks())
    def test_matches_bruteforce_on_random_networks(self, store):
        # every role pair, across a directed and an undirected type
        for t1, t2 in itertools.product(("spouses", "motherOf"), repeat=2):
            for role1, role2 in itertools.product(PIVOT_ROLES, repeat=2):
                rule = TransitivityRule(t1, t2, "fatherOf", 1.0, role1, role2)
                assert open_triads(store, rule).tolist() == brute_open_triads(store, rule)


class TestRunTransitivityRule:
    def test_probability_one_closes_everything(self):
        store = family_store()
        report = run_transitivity_rule(store, FATHER_RULE, substream(0, "t"))
        assert report.links_created == 2
        assert store.edges("fatherOf").tolist() == [[0, 2], [0, 3]]
        assert open_triads(store, FATHER_RULE).tolist() == []

    def test_probability_zero_creates_nothing(self):
        store = family_store()
        rule = TransitivityRule("spouses", "motherOf", "fatherOf", 0.0, "any", "source")
        report = run_transitivity_rule(store, rule, substream(0, "t"))
        assert report.links_created == 0
        assert store.edges("fatherOf").shape == (0, 2)

    def test_binomial_count_at_half(self):
        # ~1000 eligible dyads: one mother with 500 child pairs is unwieldy,
        # so use 500 independent husband-wife-child triangles twice
        n_triads = 1000
        store = build_store([
            LinkType("spouses", False),
            LinkType("motherOf", True),
            LinkType("fatherOf", True),
        ], [{}] * (3 * n_triads))
        for k in range(n_triads):
            h, w, c = 3 * k, 3 * k + 1, 3 * k + 2
            store.record_link(h, w, "spouses", count_source=False, count_target=False)
            store.record_link(w, c, "motherOf", count_source=False, count_target=False)
        rule = TransitivityRule("spouses", "motherOf", "fatherOf", 0.5, "any", "source")
        report = run_transitivity_rule(store, rule, substream(123, "t"))
        assert report.demand_total == n_triads
        sigma = (n_triads * 0.25) ** 0.5
        assert abs(report.links_created - 500) <= 3 * sigma

    def test_directed_closure_orientation(self):
        store = family_store()
        run_transitivity_rule(store, FATHER_RULE, substream(1, "t"))
        for source, _ in store.edges("fatherOf").tolist():
            assert source == 0  # husband first, as emitted

    def test_dyad_uniqueness_preserved(self):
        store = family_store()
        run_transitivity_rule(store, FATHER_RULE, substream(2, "t"))
        run_transitivity_rule(store, SIBLING_RULE, substream(3, "t"))
        pairs = [(min(s, t), max(s, t)) for s, t in store.edges().tolist()]
        assert len(pairs) == len(set(pairs))
        assert store.edges("siblings").tolist() == [[2, 3]]

    def test_dense_closure_inserts_in_bulk(self, monkeypatch):
        # A star of 1,000 children closes into 499,500 sibling links; one
        # record_link each would scan partner buffers up to 999 long.
        children = 1000
        store = build_store([LinkType("motherOf", True), LinkType("siblings", False)],
                            [{}] * (children + 1))
        for child in range(1, children + 1):
            store.record_link(0, child, "motherOf", count_source=False, count_target=False)

        def refuse(*args, **kwargs):
            raise AssertionError("a closure inserted one dyad at a time")

        monkeypatch.setattr(PopulationStore, "record_link", refuse)
        report = run_transitivity_rule(store, SIBLING_RULE, substream(4, "t"))
        assert report.links_created == report.demand_total == children * (children - 1) // 2
        assert store.demand["siblings"][1:] == [-(children - 1)] * children
        assert sorted(store.partners_of(1)) == [0, *range(2, children + 1)]
