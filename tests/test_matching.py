"""Homophily matching: class tables (compatibility and candidate boxes), rule execution."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popnetgen.bn import BayesianNetwork, Cpt, Variable, parse_bn
from popnetgen.inference import Engine
from popnetgen.matching import (
    COUNTS_CHOICES,
    ClassBuckets,
    HomophilyRule,
    MatchingError,
    class_tables,
    load_matching_bn,
    run_homophily_rule,
    vacuous,
    validate_rule,
)
from popnetgen.population import LinkType, UnknownAttributeError, query_candidates
from popnetgen.sampling import substream

from helpers import build_store, enum_joint_items, link_probability, scan_pick_law

SPOUSES_MATCHING = """
matching spouses link=linkSpouses a1=a1_ a2=a2_ counts=both
variable a1_gender { male, female }
variable a2_gender { male, female }
variable a1_location { v1, v2 }
variable a2_location { v1, v2 }
variable sameLocation { yes, no }
variable genderOk { yes, no }
variable linkSpouses { yes, no }
cpt a1_gender { 0.5, 0.5 }
cpt a2_gender { 0.5, 0.5 }
cpt a1_location { 0.5, 0.5 }
cpt a2_location { 0.5, 0.5 }
cpt sameLocation | a1_location, a2_location {
  v1, v1: 1.0, 0.0
  v1, v2: 0.0, 1.0
  v2, v1: 0.0, 1.0
  v2, v2: 1.0, 0.0
}
cpt genderOk | a1_gender, a2_gender {
  male, male: 0.0, 1.0
  male, female: 1.0, 0.0
  female, male: 0.0, 1.0
  female, female: 0.0, 1.0
}
cpt linkSpouses | sameLocation, genderOk {
  yes, yes: 1.0, 0.0
  yes, no: 0.0, 1.0
  no, yes: 0.0, 1.0
  no, no: 0.0, 1.0
}
"""

ALWAYS_YES_MATCHING = """
matching pair link=link a1=a1_ a2=a2_ counts=both
variable a1_role { seeker, target }
variable a2_role { seeker, target }
variable link { yes, no }
cpt a1_role { 0.5, 0.5 }
cpt a2_role { 0.5, 0.5 }
cpt link { 1.0, 0.0 }
"""

SEEKER_TARGET_MATCHING = """
matching pair link=link a1=a1_ a2=a2_ counts=both
variable a1_role { seeker, target }
variable a2_role { seeker, target }
variable link { yes, no }
cpt a1_role { 0.5, 0.5 }
cpt a2_role { 0.5, 0.5 }
cpt link | a1_role, a2_role {
  seeker, seeker: 0.0, 1.0
  seeker, target: 1.0, 0.0
  target, seeker: 0.0, 1.0
  target, target: 0.0, 1.0
}
"""


def spouses_rule(**overrides):
    rule = load_matching_bn(SPOUSES_MATCHING)
    if overrides:
        rule = HomophilyRule(
            link_type=rule.link_type, bn=rule.bn, link_variable=rule.link_variable,
            a1_prefix=rule.a1_prefix, a2_prefix=rule.a2_prefix,
            counts=overrides.get("counts", rule.counts),
            retries=overrides.get("retries", rule.retries),
            small_set=overrides.get("small_set", rule.small_set),
        )
    return rule


def agent_store(rows, link_type="spouses", rc=None):
    """rows: list of attribute dicts; rc: list of required counts for link_type."""
    required = [{link_type: (rc[i] if rc else 1)} for i in range(len(rows))]
    return build_store([LinkType(link_type, False)], rows, required)


def class_store(rule, link_type="pair"):
    """One agent per combination of the labels the rule's copies carry.

    An attribute takes the labels of its a1 copy, then those only its a2
    copy has, so with differing domains some labels lie outside one side's
    domain."""
    domains = {}
    for copies in (rule.a1_map(), rule.a2_map()):
        for bn_var, attribute in copies.items():
            labels = domains.setdefault(attribute, [])
            labels += [v for v in rule.bn.domain(bn_var) if v not in labels]
    rows = [dict(zip(domains, combo)) for combo in itertools.product(*domains.values())]
    return build_store([LinkType(link_type, False)], rows)


def tables_for(rule, store):
    return class_tables(rule, Engine(rule.bn), store)


def compat_of(tables, a1, a2):
    return float(tables.compat[tables.a1_class[a1], tables.a2_class[a2]])


def in_box(tables, a1, a2):
    return bool(tables.box[tables.a1_class[a1], tables.a2_class[a2]])


def make_random_matching_rule(rng) -> HomophilyRule:
    """Random link CPT over prefixed attribute copies, zeros included."""
    n_attrs = int(rng.integers(1, 3))
    variables = []
    cpts = {}
    copies = []
    for prefix in ("a1_", "a2_"):
        for k in range(n_attrs):
            size = int(rng.integers(2, 4))
            name = f"{prefix}p{k}"
            domain = tuple(f"x{j}" for j in range(size))
            variables.append(Variable(name, domain))
            weights = rng.random(size)
            weights /= weights.sum()
            cpts[name] = Cpt(name, (), {(): tuple(float(w) for w in weights)})
            copies.append(name)
    link_parents = tuple(copies)
    variables.append(Variable("link", ("yes", "no")))
    rows = {}
    for combo in itertools.product(*(v.domain for v in variables[:-1])):
        p_yes = float(rng.random())
        if rng.random() < 0.4:
            p_yes = 0.0
        rows[combo] = (p_yes, 1.0 - p_yes)
    cpts["link"] = Cpt("link", link_parents, rows)
    bn = BayesianNetwork(tuple(variables), cpts)
    return HomophilyRule("pair", bn, "link")


class TestLoadMatchingBn:
    def test_header_parsed(self):
        rule = load_matching_bn(SPOUSES_MATCHING)
        assert rule.link_type == "spouses"
        assert rule.link_variable == "linkSpouses"
        assert rule.counts == "both"
        assert set(rule.a1_map()) == {"a1_gender", "a1_location"}
        assert rule.a2_map() == {"a2_gender": "gender", "a2_location": "location"}

    def test_missing_header(self):
        with pytest.raises(MatchingError):
            load_matching_bn("variable x { a }\ncpt x { 1.0 }")

    @pytest.mark.parametrize("option, header, message", [
        ("counts=both", "counts=everyone", "counts must be one of"),
        # a repeated option is refused, not settled by its last value
        ("counts=both", "counts=a1 counts=both", "duplicate matching header option 'counts'"),
        ("link=linkSpouses", "link=a1_gender link=linkSpouses", "duplicate matching header option 'link'"),
    ])
    def test_bad_counts(self, option, header, message):
        bad = SPOUSES_MATCHING.replace(option, header)
        with pytest.raises(MatchingError, match=message):
            load_matching_bn(bad)

    def test_defaults_override(self):
        rule = load_matching_bn(SPOUSES_MATCHING, defaults={"retries": 5, "small_set": 2})
        assert rule.retries == 5 and rule.small_set == 2

    def test_link_domain_must_be_yes_no(self):
        doc = """
        matching t link=link a1=a1_ a2=a2_ counts=both
        variable a1_x { a }
        variable a2_x { a }
        variable link { on, off }
        cpt a1_x { 1.0 }
        cpt a2_x { 1.0 }
        cpt link { 1.0, 0.0 }
        """
        with pytest.raises(MatchingError, match="yes"):
            load_matching_bn(doc)

    def test_validate_against_attribute_bn(self):
        rule = load_matching_bn(SPOUSES_MATCHING)
        attr_bn = parse_bn(
            "variable gender { male, female }\ncpt gender { 0.5, 0.5 }"
        )
        problems = validate_rule(rule, attr_bn)
        assert any("location" in p for p in problems)


class TestMemberBox:
    def test_spouses_gender_split(self):
        rule = spouses_rule()
        store = class_store(rule)
        tables = tables_for(rule, store)
        members = {
            i for i in range(len(store)) if tables.members[tables.a1_class[i]]
        }
        assert {store.attributes(i)["gender"] for i in members} == {"male"}
        assert {store.attributes(i)["location"] for i in members} == {"v1", "v2"}
        partners = {
            j for i in members for j in range(len(store)) if in_box(tables, i, j)
        }
        assert {store.attributes(j)["gender"] for j in partners} == {"female"}

    def test_unconditional_link_admits_everything(self):
        rule = load_matching_bn(ALWAYS_YES_MATCHING)
        tables = tables_for(rule, class_store(rule))
        assert tables.members[tables.a1_class].all()
        assert tables.box[np.ix_(tables.a1_class, tables.a2_class)].all()

    @pytest.mark.parametrize("counts, rc, links", [
        ("both", [1, 0], 0),  # the female has no demand of her own
        ("a1", [1, 0], 1),
        ("a2", [0, 1], 1),
        ("both", [0, 1], 0),  # the male has no demand of his own
    ])
    def test_counts_controls_demand_constraint(self, counts, rc, links):
        store = agent_store(
            [{"gender": "male", "location": "v1"}, {"gender": "female", "location": "v1"}],
            rc=rc,
        )
        report = run_homophily_rule(store, spouses_rule(counts=counts), substream(0, "r"))
        assert report.links_created == links

    def test_vacuous_rule(self):
        doc = ALWAYS_YES_MATCHING.replace("cpt link { 1.0, 0.0 }", "cpt link { 0.0, 1.0 }")
        rule = load_matching_bn(doc)
        assert vacuous(rule, Engine(rule.bn))
        assert not vacuous(spouses_rule(), Engine(spouses_rule().bn))
        tables = tables_for(rule, class_store(rule))
        assert not tables.members.any() and not tables.box.any()
        assert not tables.compat.any()

    def test_matches_bruteforce_support_on_random_rules(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            rule = make_random_matching_rule(rng)
            items = list(enum_joint_items(rule.bn))
            store = class_store(rule)
            tables = tables_for(rule, store)
            possible = [a for a, w in items if w > 0.0 and a["link"] == "yes"]
            assert vacuous(rule, Engine(rule.bn)) == (not possible)
            for i in range(len(store)):
                labels = store.attributes(i)
                expected = all(
                    labels[attribute] in {a[bn_var] for a in possible}
                    for bn_var, attribute in rule.a1_map().items()
                )
                assert bool(tables.members[tables.a1_class[i]]) == expected
            # over all a1 classes, the boxes admit exactly the a2 labels
            # possible with link = yes
            for bn_var, attribute in rule.a2_map().items():
                admitted = {
                    store.attributes(j)[attribute]
                    for i in range(len(store)) for j in range(len(store))
                    if in_box(tables, i, j)
                }
                assert admitted == {a[bn_var] for a in possible}


class TestBaseBox:
    def test_same_location_constraint(self):
        rule = spouses_rule()
        store = class_store(rule, "spouses")
        tables = tables_for(rule, store)
        a1 = next(
            i for i in range(len(store))
            if store.attributes(i) == {"gender": "male", "location": "v2"}
        )
        admitted = [store.attributes(j) for j in range(len(store)) if in_box(tables, a1, j)]
        assert admitted == [{"gender": "female", "location": "v2"}]

    def test_unconditional_equals_global_set(self):
        rule = load_matching_bn(ALWAYS_YES_MATCHING)
        store = agent_store([{"role": "seeker"}, {"role": "target"}], link_type="pair")
        tables = tables_for(rule, store)
        assert all(in_box(tables, 0, j) for j in range(len(store)))

    def test_incompatible_agent_has_empty_box(self):
        # a1 female: no peer can make the link yes
        store = agent_store([
            {"gender": "female", "location": "v1"},
            {"gender": "male", "location": "v1"},
        ])
        tables = tables_for(spouses_rule(), store)
        assert not tables.members[tables.a1_class[0]]
        assert not tables.box[tables.a1_class[0]].any()

    def test_matches_bruteforce_on_random_rules(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            rule = make_random_matching_rule(rng)
            items = list(enum_joint_items(rule.bn))
            store = class_store(rule)
            tables = tables_for(rule, store)
            for i in range(len(store)):
                a1 = store.attributes(i)
                matching = [
                    a for a, w in items
                    if w > 0.0 and a["link"] == "yes"
                    and all(a[v] == a1[attr] for v, attr in rule.a1_map().items())
                ]
                supports = {
                    attribute: {a[bn_var] for a in matching}
                    for bn_var, attribute in rule.a2_map().items()
                }
                for j in range(len(store)):
                    a2 = store.attributes(j)
                    expected = all(a2[attr] in values for attr, values in supports.items())
                    assert in_box(tables, i, j) == expected


class TestCompatTable:
    def test_two_males_zero(self):
        store = agent_store([
            {"gender": "male", "location": "v1"},
            {"gender": "male", "location": "v1"},
        ])
        assert compat_of(tables_for(spouses_rule(), store), 0, 1) == 0.0

    def test_unconditional_link_gives_one(self):
        rule = load_matching_bn(ALWAYS_YES_MATCHING)
        store = agent_store([{"role": "seeker"}, {"role": "target"}], link_type="pair")
        assert compat_of(tables_for(rule, store), 0, 1) == 1.0

    def test_value_outside_matching_domain_gives_zero(self):
        store = agent_store([
            {"gender": "male", "location": "elsewhere"},
            {"gender": "female", "location": "v1"},
            {"gender": "male", "location": "v1"},
        ])
        tables = tables_for(spouses_rule(), store)
        assert compat_of(tables, 0, 1) == 0.0
        assert not tables.members[tables.a1_class[0]]
        assert compat_of(tables, 2, 1) == 1.0
        assert not in_box(tables, 2, 0)

    def test_impossible_labels_give_zero(self):
        # no a1 copy is ever a target, so p(a1 target, a2) = 0 for every a2
        rule = load_matching_bn(ALWAYS_YES_MATCHING.replace(
            "cpt a1_role { 0.5, 0.5 }", "cpt a1_role { 1.0, 0.0 }"
        ))
        store = agent_store([{"role": "target"}, {"role": "seeker"}], link_type="pair")
        tables = tables_for(rule, store)
        assert compat_of(tables, 0, 1) == compat_of(tables, 0, 0) == 0.0
        assert compat_of(tables, 1, 0) == 1.0

    def test_matches_enumeration_on_random_rules(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            rule = make_random_matching_rule(rng)
            items = list(enum_joint_items(rule.bn))
            store = class_store(rule)
            tables = tables_for(rule, store)
            for i in range(len(store)):
                for j in range(len(store)):
                    a1, a2 = store.attributes(i), store.attributes(j)
                    values = {v: a1[attr] for v, attr in rule.a1_map().items()}
                    values |= {v: a2[attr] for v, attr in rule.a2_map().items()}
                    agree = [
                        (a, w) for a, w in items
                        if all(a[v] == val for v, val in values.items())
                    ]
                    num = sum(w for a, w in agree if a["link"] == "yes")
                    den = sum(w for _, w in agree)
                    expected = num / den if den > 0 else 0.0
                    assert compat_of(tables, i, j) == pytest.approx(expected, abs=1e-9)


def audit_links(store, rule):
    """Every created link of the rule's type must have positive compatibility."""
    engine = Engine(rule.bn)
    for source, target in store.edges(rule.link_type).tolist():
        a1, a2 = store.attributes(source), store.attributes(target)
        c = max(link_probability(engine, rule, a1, a2), link_probability(engine, rule, a2, a1))
        assert c > 0.0, f"incompatible link {source},{target}"


class TestRunHomophilyRule:
    def test_no_candidates_all_orphans(self):
        # three men, no women: demand stays fully unfulfilled
        rows = [{"gender": "male", "location": "v1"} for _ in range(3)]
        store = agent_store(rows, rc=[1, 1, 1])
        report = run_homophily_rule(store, spouses_rule(), substream(0, "r"))
        assert report.links_created == 0
        assert report.demand_total == 3
        assert report.unfulfilled == 3
        assert report.orphan_agents == 3

    def test_single_compatible_pair(self):
        store = agent_store([
            {"gender": "male", "location": "v1"},
            {"gender": "female", "location": "v1"},
        ])
        report = run_homophily_rule(store, spouses_rule(), substream(1, "r"))
        assert report.links_created == 1
        assert report.unfulfilled == 0
        assert len(store.edges("spouses")) == 1
        audit_links(store, spouses_rule())

    def test_supply_demand_mismatch_counts(self):
        # ten seekers demanding one link each, seven eligible targets
        rule = load_matching_bn(SEEKER_TARGET_MATCHING)
        rows = [{"role": "seeker"} for _ in range(10)] + [{"role": "target"} for _ in range(7)]
        store = agent_store(rows, link_type="pair", rc=[1] * 17)
        report = run_homophily_rule(store, rule, substream(2, "r"))
        assert report.links_created == 7
        assert report.demand_total == 10
        assert report.unfulfilled == 3
        assert report.orphan_agents == 3

    def test_vacuous_rule_reported(self):
        doc = ALWAYS_YES_MATCHING.replace("cpt link { 1.0, 0.0 }", "cpt link { 0.0, 1.0 }")
        rule = load_matching_bn(doc)
        store = agent_store([{"role": "seeker"}], link_type="pair")
        report = run_homophily_rule(store, rule, substream(3, "r"))
        assert report.vacuous
        assert report.links_created == 0

    def test_saturated_population_fully_matched(self):
        rule = load_matching_bn(SEEKER_TARGET_MATCHING)
        rows = [{"role": "seeker"} for _ in range(25)] + [{"role": "target"} for _ in range(25)]
        store = agent_store(rows, link_type="pair", rc=[1] * 50)
        report = run_homophily_rule(store, rule, substream(4, "r"))
        assert report.links_created == 25
        assert report.unfulfilled == 0

    def test_created_never_exceeds_required(self):
        rng = np.random.default_rng(53)
        rows = []
        rc = []
        for _ in range(60):
            rows.append({
                "gender": ("male", "female")[int(rng.integers(2))],
                "location": ("v1", "v2")[int(rng.integers(2))],
            })
            rc.append(int(rng.integers(0, 3)))
        store = agent_store(rows, rc=rc)
        rule = spouses_rule()
        run_homophily_rule(store, rule, substream(5, "r"))
        assert (store.created["spouses"] <= store.required["spouses"]).all()
        audit_links(store, rule)

    def test_deterministic_under_fixed_seed(self):
        def one_run(seed):
            rng = np.random.default_rng(99)
            rows = []
            for _ in range(40):
                rows.append({
                    "gender": ("male", "female")[int(rng.integers(2))],
                    "location": ("v1", "v2")[int(rng.integers(2))],
                })
            store = agent_store(rows, rc=[1] * 40)
            run_homophily_rule(store, spouses_rule(), substream(seed, "r"))
            return sorted(store.edges("spouses").tolist())

        assert one_run(7) == one_run(7)
        assert one_run(7) == one_run(7)

    def test_prototype_and_fallback_paths_both_work(self):
        rows = [{"gender": "male", "location": "v1"} for _ in range(12)]
        rows += [{"gender": "female", "location": "v1"} for _ in range(12)]
        proto_store = agent_store(rows, rc=[1] * 24)
        rule = spouses_rule(small_set=1)  # pools of 12 go through prototypes
        report = run_homophily_rule(proto_store, rule, substream(6, "r"))
        assert report.prototype_links > 0
        assert report.links_created == 12

        fb_store = agent_store(rows, rc=[1] * 24)
        rule = spouses_rule(small_set=10_000)  # force the fallback scan
        report = run_homophily_rule(fb_store, rule, substream(6, "r"))
        assert report.fallback_links == report.links_created == 12

    def test_counts_a1_leaves_target_uncapped(self):
        # two seekers with demand 2 each, one target: the target absorbs one
        # link from each (dyads differ) and its own counter never moves
        rule = load_matching_bn(SEEKER_TARGET_MATCHING, defaults={"counts": "a1"})
        rows = [{"role": "seeker"}, {"role": "seeker"}, {"role": "target"}]
        store = agent_store(rows, link_type="pair", rc=[2, 2, 0])
        report = run_homophily_rule(store, rule, substream(9, "r"))
        assert report.links_created == 2
        assert report.demand_total == 4
        assert report.unfulfilled == 2
        assert store.created["pair"][2] == 0
        assert {frozenset(pair) for pair in store.edges("pair").tolist()} == {
            frozenset((0, 2)), frozenset((1, 2)),
        }

    def test_counts_a2_gives_each_seeker_one_slot(self):
        # demand lives on the target side; every seeker wants exactly one link
        rule = load_matching_bn(SEEKER_TARGET_MATCHING, defaults={"counts": "a2"})
        rows = [{"role": "seeker"}] * 3 + [{"role": "target"}]
        store = agent_store(rows, link_type="pair", rc=[0, 0, 0, 2])
        report = run_homophily_rule(store, rule, substream(10, "r"))
        assert report.links_created == 2
        assert report.demand_total == 3
        assert report.unfulfilled == 1
        assert store.created["pair"].tolist() == [0, 0, 0, 2]

    def test_fallback_rejects_low_compatibility_candidates(self):
        # same-location pairs are certain, cross-location ones only likely,
        # so the accept/reject scan must actually reject sometimes
        doc = """
        matching pair link=link a1=a1_ a2=a2_ counts=both
        variable a1_loc { u, v }
        variable a2_loc { u, v }
        variable link { yes, no }
        cpt a1_loc { 0.5, 0.5 }
        cpt a2_loc { 0.5, 0.5 }
        cpt link | a1_loc, a2_loc {
          u, u: 1.0, 0.0
          u, v: 0.3, 0.7
          v, u: 0.3, 0.7
          v, v: 1.0, 0.0
        }
        """
        rule = load_matching_bn(doc, defaults={"small_set": 10_000})
        rows = [{"loc": ("u", "v")[i % 2]} for i in range(30)]
        store = agent_store(rows, link_type="pair", rc=[1] * 30)
        report = run_homophily_rule(store, rule, substream(8, "r"))
        assert report.fallback_rejections > 0
        assert report.links_created > 0
        audit_links(store, rule)

    def test_prototype_matching_follows_link_probabilities(self):
        # same-x partners are four times as likely as cross-x ones, so with
        # abundant supply the linked fraction should sit near
        # 1.0 / (1.0 + 0.25) = 0.8, not just inside the support
        doc = """
        matching pair link=link a1=a1_ a2=a2_ counts=both
        variable a1_role { seeker, target }
        variable a2_role { seeker, target }
        variable a1_x { u, v }
        variable a2_x { u, v }
        variable roleOk { yes, no }
        variable sameX { yes, no }
        variable link { yes, no }
        cpt a1_role { 0.5, 0.5 }
        cpt a2_role { 0.5, 0.5 }
        cpt a1_x { 0.5, 0.5 }
        cpt a2_x { 0.5, 0.5 }
        cpt roleOk | a1_role, a2_role {
          seeker, seeker: 0.0, 1.0
          seeker, target: 1.0, 0.0
          target, seeker: 0.0, 1.0
          target, target: 0.0, 1.0
        }
        cpt sameX | a1_x, a2_x {
          u, u: 1.0, 0.0
          u, v: 0.0, 1.0
          v, u: 0.0, 1.0
          v, v: 1.0, 0.0
        }
        cpt link | roleOk, sameX {
          yes, yes: 1.0, 0.0
          yes, no: 0.25, 0.75
          no, yes: 0.0, 1.0
          no, no: 0.0, 1.0
        }
        """
        rule = load_matching_bn(doc)
        rng = np.random.default_rng(71)
        rows = []
        rc = []
        for _ in range(200):
            rows.append({"role": "seeker", "x": ("u", "v")[int(rng.integers(2))]})
            rc.append(1)
        for _ in range(2000):
            rows.append({"role": "target", "x": ("u", "v")[int(rng.integers(2))]})
            rc.append(1)
        store = agent_store(rows, link_type="pair", rc=rc)
        report = run_homophily_rule(store, rule, substream(12, "r"))
        assert report.links_created == 200
        same = sum(
            1 for source, target in store.edges("pair").tolist()
            if store.attributes(source)["x"] == store.attributes(target)["x"]
        )
        fraction = same / report.links_created
        assert 0.70 < fraction < 0.90, fraction

    def test_feasible_pairs_inside_candidate_sets(self):
        # zero-pruning must never exclude a pair with positive compatibility
        rng = np.random.default_rng(59)
        for _ in range(10):
            rule = make_random_matching_rule(rng)
            engine = Engine(rule.bn)
            if vacuous(rule, engine):
                continue
            store = class_store(rule)
            tables = class_tables(rule, engine, store)
            for i in range(len(store)):
                for j in range(len(store)):
                    if i == j:
                        continue
                    x, y = store.attributes(i), store.attributes(j)
                    if link_probability(engine, rule, x, y) > 0.0:
                        assert tables.members[tables.a1_class[i]]
                        assert in_box(tables, i, j)

    def test_unknown_attribute(self):
        store = agent_store([{"gender": "male"}, {"gender": "female"}])
        with pytest.raises(UnknownAttributeError):
            run_homophily_rule(store, spouses_rule(), substream(0, "r"))


def seeker_target_doc(a2_prior: dict, affinity: dict) -> str:
    """A counts=a1 rule in which seekers link to targets only: each side
    copies role and x, a2_x has the prior ``a2_prior``, and p(link = yes)
    of a seeker and a target is ``affinity[a1 x, a2 x]``."""
    a1_x = list(dict.fromkeys(x1 for x1, _ in affinity))
    rows = "\n".join(f"  {x1}, {x2}: {p}, {1.0 - p}" for (x1, x2), p in affinity.items())
    return f"""
    matching pair link=link a1=a1_ a2=a2_ counts=a1
    variable a1_role {{ seeker, target }}
    variable a2_role {{ seeker, target }}
    variable a1_x {{ {", ".join(a1_x)} }}
    variable a2_x {{ {", ".join(a2_prior)} }}
    variable roleOk {{ yes, no }}
    variable affinity {{ yes, no }}
    variable link {{ yes, no }}
    cpt a1_role {{ 0.5, 0.5 }}
    cpt a2_role {{ 0.5, 0.5 }}
    cpt a1_x {{ {", ".join([str(1 / len(a1_x))] * len(a1_x))} }}
    cpt a2_x {{ {", ".join(map(str, a2_prior.values()))} }}
    cpt roleOk | a1_role, a2_role {{
      seeker, seeker: 0.0, 1.0
      seeker, target: 1.0, 0.0
      target, seeker: 0.0, 1.0
      target, target: 0.0, 1.0
    }}
    cpt affinity | a1_x, a2_x {{
    {rows}
    }}
    cpt link | roleOk, affinity {{
      yes, yes: 1.0, 0.0
      yes, no: 0.0, 1.0
      no, yes: 0.0, 1.0
      no, no: 0.0, 1.0
    }}
    """


A2_PRIOR = {"u": 0.2, "v": 0.3, "w": 0.5}


def seekers_and_targets(seekers: list[str], targets: list[str]):
    """A store of seekers with one link to make and targets with none, by x."""
    rows = [{"role": "seeker", "x": x} for x in seekers]
    rows += [{"role": "target", "x": x} for x in targets]
    return agent_store(rows, link_type="pair", rc=[1] * len(seekers) + [0] * len(targets))


def within_three_se(counts: list[int], law: list[float]) -> bool:
    n = sum(counts)
    return all(abs(k / n - p) <= 3 * (p * (1 - p) / n) ** 0.5 for k, p in zip(counts, law))


class TestDrawLaws:
    def test_class_draws_follow_the_conditional_of_the_network(self):
        # three targets in each a2 class and one slot per seeker: every
        # first draw hits, so partners' classes follow p(a2 x | a1 x, yes),
        # which weighs the a2_x prior and not the class sizes
        affinity = {
            ("u", "u"): 0.9, ("u", "v"): 0.5, ("u", "w"): 0.1,
            ("v", "u"): 0.2, ("v", "v"): 0.3, ("v", "w"): 0.6,
        }
        rule = load_matching_bn(
            seeker_target_doc(A2_PRIOR, affinity), defaults={"small_set": 1}
        )
        seekers = ["u", "v"] * 1500
        store = seekers_and_targets(seekers, ["u", "v", "w"] * 3)
        report = run_homophily_rule(store, rule, substream(13, "r"))
        assert report.prototype_links == report.links_created == len(seekers)
        for x1 in ("u", "v"):
            weights = dict.fromkeys("uvw", 0.0)
            for a, w in enum_joint_items(rule.bn):
                if (a["link"], a["a1_role"], a["a1_x"]) == ("yes", "seeker", x1):
                    weights[a["a2_x"]] += w
            law = [w / sum(weights.values()) for w in weights.values()]
            partners = [
                store.attributes(target)["x"] for source, target in store.edges("pair").tolist()
                if store.attributes(source)["x"] == x1
            ]
            assert within_three_se([partners.count(x2) for x2 in "uvw"], law), (x1, law)

    def test_fallback_picks_follow_the_per_agent_scan(self):
        # compatibilities 1.0, 0.5 and 0.2 inside one box; with counts=a1
        # no target leaves the pool, so every seeker scans the same nine
        affinity = {("u", "u"): 1.0, ("u", "v"): 0.5, ("u", "w"): 0.2}
        rule = load_matching_bn(
            seeker_target_doc(A2_PRIOR, affinity), defaults={"small_set": 10_000}
        )
        targets = ["u"] * 2 + ["v"] * 3 + ["w"] * 4
        store = seekers_and_targets(["u"] * 4000, targets)
        report = run_homophily_rule(store, rule, substream(14, "r"))
        assert report.fallback_links == report.links_created
        assert report.fallback_rejections > 0
        law = scan_pick_law([affinity["u", x] for x in targets])
        picked = np.bincount(store.edges("pair")[:, 1] - 4000, minlength=len(targets))
        assert within_three_se([*picked.tolist(), report.orphan_agents], law), law


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), counts=st.sampled_from(COUNTS_CHOICES))
def test_available_counts_match_bruteforce_pool(seed, counts):
    """Per-class available counts, their sum over a box and the agents pick
    walks through, against query_candidates, after links made before the
    buckets (partners, closed demand) and links made as the matcher does."""
    rng = np.random.default_rng(seed)
    n, classes = int(rng.integers(1, 25)), int(rng.integers(1, 5))
    a2_class = rng.integers(0, classes, n)
    store = build_store(
        [LinkType("t", False), LinkType("o", True)],
        [{"c": "x"}] * n, [{"t": int(r)} for r in rng.integers(0, 3, n)],
    )
    for _ in range(int(rng.integers(0, 2 * n))):
        a, b = rng.integers(0, n, 2).tolist()
        if a != b and not store.dyad_used(a, b):
            store.record_link(a, b, ("t", "o")[int(rng.integers(2))])
    counts_a1, counts_a2 = counts in ("both", "a1"), counts in ("both", "a2")
    demand = "t" if counts_a2 else None
    open_ids = np.flatnonzero(store.remaining("t") > 0) if demand else np.arange(n)
    buckets = ClassBuckets(a2_class, classes, open_ids)
    for _ in range(int(rng.integers(0, n + 1))):
        a1 = int(rng.integers(n))
        pool = query_candidates(store, np.arange(n), demand, a1)
        if not len(pool) or (counts_a1 and store.remaining("t", a1) <= 0):
            continue
        a2 = int(pool[rng.integers(len(pool))])
        store.record_link(
            a1, a2, "t", count_source=counts_a1, count_target=counts_a2,
            enforce_demand=True,
        )
        if counts_a2:
            for agent in (a1, a2) if counts_a1 else (a2,):
                if store.remaining("t", agent) == 0:
                    buckets.remove(agent)
    for a1 in range(n):
        available, taken = buckets.available(np.array([a1, *store.partners_of(a1)]))
        pool = query_candidates(store, np.arange(n), demand, a1)
        assert available.tolist() == np.bincount(a2_class[pool], minlength=classes).tolist()
        box = rng.random(classes) < 0.5
        base = np.flatnonzero(box[a2_class])
        assert available[box].sum() == len(query_candidates(store, base, demand, a1))
        for c in range(classes):
            picked = [buckets.pick(c, k, taken) for k in range(available[c])]
            assert sorted(picked) == pool[a2_class[pool] == c].tolist()
