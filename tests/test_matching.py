"""Homophily matching: class tables (compatibility and candidate boxes), rule execution."""
import dataclasses
import functools
import hashlib
import importlib.util
import itertools
import math
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popnetgen.bn import BayesianNetwork, BnSyntaxError, Cpt, Variable, load_bn, parse_bn
from popnetgen import matching
from popnetgen.cli import EXIT_OK, main
from popnetgen.inference import Engine
from popnetgen.matching import (
    COUNTS_CHOICES,
    ClassBuckets,
    HomophilyRule,
    MatchingError,
    class_tables,
    load_matching_bn,
    rule_supports,
    run_homophily_rule,
    validate_rule,
)
from popnetgen.population import (
    LinkType,
    UnknownAttributeError,
    distinct,
    generate_population,
    query_candidates,
)
from popnetgen.sampling import substream

from helpers import (
    build_store,
    dense_class_tables,
    enum_joint_items,
    link_probability,
    scan_pick_law,
)

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
    return class_tables(rule, Engine(rule.bn), store, np.arange(len(store)))


def vacuous(rule, engine):
    """No a1 class is a member: what validate and run both read."""
    return not rule_supports(rule, engine)[1].any()


def in_box(rule, tables, a1, a2):
    """From the rule's supports: each a2 copy's label of a2's class is
    possible with a1's class and link = yes; the extra classes admit none."""
    supports, _ = rule.supports
    c1, c2 = tables.a1_class[a1], tables.a2_class[a2]
    dims2 = [support.shape[1] for support in supports]
    if c1 == len(supports[0]) or c2 == math.prod(dims2):
        return False
    return all(s[c1, code] for s, code in zip(supports, np.unravel_index(c2, dims2)))


def compat_of(rule, tables, a1, a2):
    """The value in a1's row inside its box, and 0 outside it, where
    p(both classes' labels, link = yes) is 0."""
    if not in_box(rule, tables, a1, a2):
        return 0.0
    box, compat, _ = tables.rows[tables.a1_class[a1]]
    return compat[box.index(tables.a2_class[a2])]


def box_table(rule):
    """Every class pair's box bit, from the rule's supports."""
    supports, _ = rule.supports
    box = np.ones((len(supports[0]), 1), dtype=bool)
    for support in supports:
        box = (box[:, :, None] & support[:, None, :]).reshape(len(box), -1)
    return np.pad(box, ((0, 1), (0, 1)))


def compat_table(rule, tables):
    """Every class pair's compatibility: the rows' values, 0 elsewhere."""
    compat = np.zeros(box_table(rule).shape)
    for c1, (box, values, _) in tables.rows.items():
        compat[c1, box] = values
    return compat


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
        with pytest.raises(MatchingError, match="^line 1: matching network must start"):
            load_matching_bn("variable x { a }\ncpt x { 1.0 }")
        with pytest.raises(MatchingError, match="^line 1: matching network must start"):
            load_matching_bn("")

    @pytest.mark.parametrize("option, header, message", [
        ("counts=both", "counts=everyone", "counts must be one of"),
        # a repeated option is refused, not settled by its last value
        ("counts=both", "counts=a1 counts=both", "duplicate matching header option 'counts'"),
        ("link=linkSpouses", "link=a1_gender link=linkSpouses", "duplicate matching header option 'link'"),
    ])
    def test_bad_counts(self, option, header, message):
        bad = SPOUSES_MATCHING.replace(option, header)  # the header is on line 2
        with pytest.raises(MatchingError, match=f"^line 2: {message}"):
            load_matching_bn(bad)

    @pytest.mark.parametrize("option, header, message", [
        ("counts=both", "counts=both bogus", "bad matching header token 'bogus'"),
        ("counts=both", "colour=red", "unknown matching header option 'colour'"),
        (" link=linkSpouses", "", "matching header misses link=<variable>"),
        ("matching spouses", "variable spouses", "matching network must start"),
        # problems the header causes in the network below it
        ("a1=a1_", "a1=b1_", "no variables carry the a1 prefix 'b1_'"),
        ("a2=a2_", "a2=b2_", "no variables carry the a2 prefix 'b2_'"),
        ("link=linkSpouses", "link=linkKin", "link variable 'linkKin' not in matching network"),
        ("link=linkSpouses", "link=a1_gender",
         "link variable 'a1_gender' must have domain {yes, no}, got ['female', 'male']"),
        ("a1=a1_ a2=a2_", "a1=a2_ a2=a2_", "'a2_gender' carries both the a1 and the a2 prefix"),
    ])
    def test_header_error_names_the_header_line(self, option, header, message):
        # a comment line sits above the header
        doc = "# spouses\n" + SPOUSES_MATCHING.lstrip().replace(option, header)
        with pytest.raises(MatchingError) as err:
            load_matching_bn(doc)
        assert str(err.value).startswith(f"line 2: {message}")

    @pytest.mark.parametrize("prefixes, claimed", [
        ("a1=a2_ a2=a2_", ["a2_gender", "a2_location"]),
        ("a1=a a2=a2_", ["a2_gender", "a2_location"]),  # one prefix starts the other
        ("a1=a2_g a2=a2_", ["a2_gender"]),
    ])
    def test_prefixes_that_claim_one_variable_are_refused(self, prefixes, claimed):
        # each such variable would be named twice in the rule's class query
        with pytest.raises(MatchingError) as err:
            load_matching_bn(SPOUSES_MATCHING.replace("a1=a1_ a2=a2_", prefixes))
        # the header, on line 2, causes each problem
        assert str(err.value) == "; ".join(
            f"line 2: {name!r} carries both the a1 and the a2 prefix" for name in claimed)

    def test_body_error_names_the_file_line(self):
        # Header and body are one stream, so body lines count from the
        # file's first line, the comment and the header included.
        doc = "# spouses\n" + SPOUSES_MATCHING.replace(
            "  male, female: 1.0, 0.0", "  male, male: 1.0, 0.0", 1)
        line = doc.splitlines().index("  male, male: 1.0, 0.0") + 1
        with pytest.raises(BnSyntaxError) as err:
            load_matching_bn(doc)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}, column 1: duplicate row ('male', 'male')")

    def test_defaults_override(self):
        rule = load_matching_bn(SPOUSES_MATCHING, defaults={"retries": 5, "small_set": 2})
        assert rule.retries == 5 and rule.small_set == 2

    def test_bad_defaults_name_no_line(self):
        # the plan gives these, not the header
        defaults = {"counts": "none", "retries": 0, "small_set": -1}
        with pytest.raises(MatchingError) as err:
            load_matching_bn(SPOUSES_MATCHING, defaults=defaults)
        assert str(err.value) == (
            f"counts must be one of {COUNTS_CHOICES}, got 'none'; "
            "retries must be at least 1; small_set must be non-negative"
        )

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
            i for i in range(len(store)) if rule.supports[1][tables.a1_class[i]]
        }
        assert {store.attributes(i)["gender"] for i in members} == {"male"}
        assert {store.attributes(i)["location"] for i in members} == {"v1", "v2"}
        partners = {
            j for i in members for j in range(len(store)) if in_box(rule, tables, i, j)
        }
        assert {store.attributes(j)["gender"] for j in partners} == {"female"}

    def test_unconditional_link_admits_everything(self):
        rule = load_matching_bn(ALWAYS_YES_MATCHING)
        tables = tables_for(rule, class_store(rule))
        assert rule.supports[1][tables.a1_class].all()
        assert box_table(rule)[np.ix_(tables.a1_class, tables.a2_class)].all()

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
        assert not rule.supports[1].any() and not box_table(rule).any()
        assert not compat_table(rule, tables).any()

    def test_vacuous_rule_builds_no_class_table(self, monkeypatch):
        doc = ALWAYS_YES_MATCHING.replace("cpt link { 1.0, 0.0 }", "cpt link { 0.0, 1.0 }")
        rule, built = load_matching_bn(doc), []
        monkeypatch.setattr(matching, "class_tables", lambda *args: built.append(args))
        assert run_homophily_rule(class_store(rule), rule, substream(0, "r")).vacuous
        assert built == []

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
                assert bool(rule.supports[1][tables.a1_class[i]]) == expected
            # over all a1 classes, the boxes admit exactly the a2 labels
            # possible with link = yes
            for bn_var, attribute in rule.a2_map().items():
                admitted = {
                    store.attributes(j)[attribute]
                    for i in range(len(store)) for j in range(len(store))
                    if in_box(rule, tables, i, j)
                }
                assert admitted == {a[bn_var] for a in possible}
            assert run_homophily_rule(store, rule, substream(0, "r")).vacuous == (not possible)


class TestBaseBox:
    def test_same_location_constraint(self):
        rule = spouses_rule()
        store = class_store(rule, "spouses")
        tables = tables_for(rule, store)
        a1 = next(
            i for i in range(len(store))
            if store.attributes(i) == {"gender": "male", "location": "v2"}
        )
        admitted = [store.attributes(j) for j in range(len(store)) if in_box(rule, tables, a1, j)]
        assert admitted == [{"gender": "female", "location": "v2"}]

    def test_unconditional_equals_global_set(self):
        rule = load_matching_bn(ALWAYS_YES_MATCHING)
        store = agent_store([{"role": "seeker"}, {"role": "target"}], link_type="pair")
        tables = tables_for(rule, store)
        assert all(in_box(rule, tables, 0, j) for j in range(len(store)))

    def test_incompatible_agent_has_empty_box(self):
        # a1 female: no peer can make the link yes
        store = agent_store([
            {"gender": "female", "location": "v1"},
            {"gender": "male", "location": "v1"},
        ])
        rule = spouses_rule()
        tables = tables_for(rule, store)
        assert not rule.supports[1][tables.a1_class[0]]
        assert not box_table(rule)[tables.a1_class[0]].any()

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
                    assert in_box(rule, tables, i, j) == expected


class TestCompatTable:
    def test_two_males_zero(self):
        store = agent_store([
            {"gender": "male", "location": "v1"},
            {"gender": "male", "location": "v1"},
        ])
        rule = spouses_rule()
        assert compat_of(rule, tables_for(rule, store), 0, 1) == 0.0

    def test_unconditional_link_gives_one(self):
        rule = load_matching_bn(ALWAYS_YES_MATCHING)
        store = agent_store([{"role": "seeker"}, {"role": "target"}], link_type="pair")
        assert compat_of(rule, tables_for(rule, store), 0, 1) == 1.0

    def test_value_outside_matching_domain_gives_zero(self):
        store = agent_store([
            {"gender": "male", "location": "elsewhere"},
            {"gender": "female", "location": "v1"},
            {"gender": "male", "location": "v1"},
        ])
        rule = spouses_rule()
        tables = tables_for(rule, store)
        assert compat_of(rule, tables, 0, 1) == 0.0
        assert not rule.supports[1][tables.a1_class[0]]
        assert compat_of(rule, tables, 2, 1) == 1.0
        assert not in_box(rule, tables, 2, 0)

    def test_impossible_labels_give_zero(self):
        # no a1 copy is ever a target, so p(a1 target, a2) = 0 for every a2
        rule = load_matching_bn(ALWAYS_YES_MATCHING.replace(
            "cpt a1_role { 0.5, 0.5 }", "cpt a1_role { 1.0, 0.0 }"
        ))
        store = agent_store([{"role": "target"}, {"role": "seeker"}], link_type="pair")
        tables = tables_for(rule, store)
        assert compat_of(rule, tables, 0, 1) == compat_of(rule, tables, 0, 0) == 0.0
        assert compat_of(rule, tables, 1, 0) == 1.0

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
                    assert compat_of(rule, tables, i, j) == pytest.approx(expected, abs=1e-9)


def make_layered_matching_rule(rng, deterministic: bool) -> HomophilyRule:
    """Random matching network with internal nodes between the copies and
    the link: each side copies a random subset of three attributes, with
    domains of 1 to 3 labels that differ between the sides, zero entries,
    and a copy sometimes conditioned on the side's previous one; up to two
    internal nodes read one copy of each side, deterministically when
    ``deterministic``; the link reads the internal nodes and some copies,
    with p(yes) 0 in about a third of its rows, and in all of them one time
    in ten."""
    variables, cpts = [], {}

    def add(name, domain, parents, row):
        domains = [next(v.domain for v in variables if v.name == p) for p in parents]
        variables.append(Variable(name, domain))
        cpts[name] = Cpt(name, tuple(parents), {c: row() for c in itertools.product(*domains)})

    def weights(size, zero=0.3):
        w = rng.random(size)
        w[rng.random(size) < zero] = 0.0
        if not w.any():
            w[rng.integers(size)] = 1.0
        return tuple(float(x) for x in w / w.sum())

    sides = []
    for prefix in ("a1_", "a2_"):
        names = [f"{prefix}p{k}" for k in range(3) if rng.random() < 0.6] or [f"{prefix}p0"]
        for k, name in enumerate(names):
            size = int(rng.integers(1, 4))
            parents = names[k - 1:k] if k and rng.random() < 0.4 else []
            add(name, tuple(f"x{j}" for j in range(size)), parents, lambda size=size: weights(size))
        sides.append(names)
    internal = [f"ok{k}" for k in range(int(rng.integers(0, 3)))]
    for name in internal:
        parents = [names[int(rng.integers(len(names)))] for names in sides]
        add(name, ("yes", "no"), parents, lambda: (
            ((1.0, 0.0), (0.0, 1.0))[int(rng.random() < 0.4)] if deterministic else weights(2)
        ))
    parents = internal + [name for names in sides for name in names if rng.random() < 0.3]
    never = rng.random() < 0.1

    def link_row():
        p_yes = 0.0 if never or rng.random() < 0.3 else float(rng.random())
        return p_yes, 1.0 - p_yes

    add("link", ("yes", "no"), parents, link_row)
    return HomophilyRule("pair", BayesianNetwork(tuple(variables), cpts), "link")


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), deterministic=st.booleans())
def test_class_tables_match_the_dense_tables(seed, deterministic):
    """Members, the supports' box of every class pair, and each row's box,
    compatibility and running sum against the dense tables over every
    class pair.  With deterministic internal nodes each sum over them has
    one nonzero term and the values are equal bit for bit; with
    probabilistic ones the pairwise query sums its terms in another order
    than the dense elimination, so they may differ in the last bits."""
    rule = make_layered_matching_rule(np.random.default_rng(seed), deterministic)
    engine, store = Engine(rule.bn), class_store(rule)
    tables = class_tables(rule, engine, store, np.arange(len(store)))
    dense = dense_class_tables(rule, engine, store)
    assert np.array_equal(rule.supports[1], dense.members)
    assert np.array_equal(box_table(rule), dense.box)
    turns = distinct(tables.a1_class)
    assert sorted(tables.rows) == turns[rule.supports[1][turns]].tolist()
    rtol = 64 * np.finfo(np.float64).eps
    same = np.array_equal if deterministic else functools.partial(np.allclose, rtol=rtol, atol=0)
    for c1, (box, compat, cdf) in tables.rows.items():
        assert box == np.flatnonzero(dense.box[c1]).tolist()
        assert same(compat, dense.compat[c1, box]) and same(cdf, dense.cdf[c1, box])


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
        assert (store.remaining("spouses") >= 0).all()
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
        assert store.remaining("pair")[2] == 0  # required 0, so no counted link
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
        assert store.remaining("pair").tolist() == [0, 0, 0, 0]  # required 0, 0, 0, 2

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
            tables = class_tables(rule, engine, store, np.arange(len(store)))
            for i in range(len(store)):
                for j in range(len(store)):
                    if i == j:
                        continue
                    x, y = store.attributes(i), store.attributes(j)
                    if link_probability(engine, rule, x, y) > 0.0:
                        assert rule.supports[1][tables.a1_class[i]]
                        assert in_box(rule, tables, i, j)

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


FRACTIONAL_MATCHING = """
matching pair link=link a1=a1_ a2=a2_ counts=both
variable a1_g { f, m }
variable a2_g { f, m }
variable a1_x { u, v, w }
variable a2_x { u, v, w }
variable genderOk { yes, no }
variable affinity { yes, no }
variable link { yes, no }
cpt a1_g { 0.5, 0.5 }
cpt a2_g { 0.5, 0.5 }
cpt a1_x { 0.3, 0.3, 0.4 }
cpt a2_x { 0.2, 0.5, 0.3 }
cpt genderOk | a1_g, a2_g {
  f, f: 0.1, 0.9
  f, m: 0.9, 0.1
  m, f: 0.8, 0.2
  m, m: 0.0, 1.0
}
cpt affinity | a1_x, a2_x {
  u, u: 1.0, 0.0
  u, v: 0.4, 0.6
  u, w: 0.0, 1.0
  v, u: 0.4, 0.6
  v, v: 0.8, 0.2
  v, w: 0.3, 0.7
  w, u: 0.1, 0.9
  w, v: 0.3, 0.7
  w, w: 1.0, 0.0
}
cpt link | genderOk, affinity {
  yes, yes: 1.0, 0.0
  yes, no: 0.05, 0.95
  no, yes: 0.0, 1.0
  no, no: 0.0, 1.0
}
"""


def pinned_store(seed: int, n: int = 300, reverse: bool = False):
    """n agents of random gender and x (a few with an x outside the
    matching domain), demand 0-3 for "pair", and some links of another type
    made first, so partners are skipped from the start; with ``reverse``
    the same links are recorded last one first."""
    rng = np.random.default_rng(seed)
    genders = rng.integers(0, 2, n).tolist()
    xs = rng.choice(4, n, p=[0.3, 0.3, 0.35, 0.05]).tolist()
    rows = [{"g": ("f", "m")[g], "x": ("u", "v", "w", "z")[x]} for g, x in zip(genders, xs)]
    required = [{"pair": r} for r in rng.integers(0, 4, n).tolist()]
    store = build_store([LinkType("pair", False), LinkType("other", True)], rows, required)
    dyads, links = set(), []
    for a, b in rng.integers(0, n, (n, 2)).tolist():
        if a != b and frozenset((a, b)) not in dyads:
            dyads.add(frozenset((a, b)))
            links.append((a, b))
    for a, b in links[::-1] if reverse else links:
        store.record_link(a, b, "other")
    return store


# sha256 of store.edges("pair") and the report's tallies (demand_total,
# links_created, unfulfilled, prototype_links, fallback_links,
# fallback_rejections, orphan_agents), recorded from the numpy matcher.
# They pin every RNG call of a rule run, in order, on branches the Kenya
# plan never reaches: fallback rejections, counts a1 and a2, small_set 0
# and retries 1.
PINNED_RUNS = {
    ("both", None, None): (
        "0f432671405859361e8c08b589299dacadf2cdc61679e26bd2165fedde55151c",
        (417, 190, 37, 124, 66, 51, 22),
    ),
    ("both", 0, None): (
        "115185ac40595956aaceb756c755ace4ee3414698032927587ebd81156b9b80d",
        (417, 190, 37, 190, 0, 0, 22),
    ),
    ("both", 0, 1): (
        "31730904bef9534bc907f94a4325d6467a5f99092d5c1bfb113410f8e3eb09f4",
        (417, 190, 37, 185, 5, 0, 22),
    ),
    ("both", 10_000, None): (
        "299e49c7f1c0a27a611f96a26a2608648bc9b1a839d93d2137e82960dff69737",
        (417, 194, 29, 0, 194, 234, 16),
    ),
    ("a1", None, None): (
        "31f1c06ec4036383558113decc89214ea133af2be9078392da7456c5c0869f0a",
        (417, 417, 0, 417, 0, 0, 0),
    ),
    ("a1", 10_000, None): (
        "a87da6aeee4c4ab7e273e73bde02dcf84daf5347f5136965a4ab94a80c5a5a7f",
        (417, 417, 0, 0, 417, 570, 0),
    ),
    ("a2", None, None): (
        "797ade40a2f1bdc8be4735eb7decee0bc9c1bd622a6a383019955e593c91358b",
        (286, 286, 0, 246, 40, 55, 0),
    ),
    ("a2", 0, 1): (
        "167ca46f82b091200df7a3e9ca666ad74b7d69011217592a572f372d003920f6",
        (286, 286, 0, 271, 15, 12, 0),
    ),
    ("a2", 10_000, None): (
        "b4d605cd3bae1650bf9eec2a5661f285eb063df64143a63e661f268ee81f0ca2",
        (286, 286, 0, 0, 286, 407, 0),
    ),
}


@pytest.mark.parametrize("counts, small_set, retries", list(PINNED_RUNS))
def test_rule_runs_match_pinned_digests(counts, small_set, retries):
    defaults = {"counts": counts}
    if small_set is not None:
        defaults["small_set"] = small_set
    if retries is not None:
        defaults["retries"] = retries
    rule = load_matching_bn(FRACTIONAL_MATCHING, defaults=defaults)
    store = pinned_store(15)
    report = run_homophily_rule(store, rule, substream(15, "pinned"))
    digest = hashlib.sha256(store.edges("pair").tobytes()).hexdigest()
    tallies = tuple(dataclasses.astuple(report)[2:-1])
    assert (digest, tallies) == PINNED_RUNS[counts, small_set, retries]


@pytest.mark.parametrize("counts, small_set, retries", list(PINNED_RUNS))
def test_partner_order_never_reaches_an_output(counts, small_set, retries):
    """The store keeps each agent's partners in link order; the same earlier
    links recorded in reverse give the rule the same links, demand and
    report."""
    defaults = {"counts": counts, "small_set": small_set, "retries": retries}
    rule = load_matching_bn(FRACTIONAL_MATCHING, defaults={
        name: value for name, value in defaults.items() if value is not None})
    forward, backward = pinned_store(15), pinned_store(15, reverse=True)
    agents = range(len(forward))
    assert [set(forward.partners_of(a)) for a in agents] == \
        [set(backward.partners_of(a)) for a in agents]
    assert [list(forward.partners_of(a)) for a in agents] != \
        [list(backward.partners_of(a)) for a in agents]
    reports = [run_homophily_rule(store, rule, substream(15, "pinned"))
               for store in (forward, backward)]
    assert reports[0] == reports[1]
    assert forward.edges("pair").tolist() == backward.edges("pair").tolist()
    assert forward.demand == backward.demand


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
        if a != b and b not in store.partners_of(a):
            store.record_link(a, b, ("t", "o")[int(rng.integers(2))])
    counts_a1, counts_a2 = counts in ("both", "a1"), counts in ("both", "a2")
    demand = "t" if counts_a2 else None
    open_ids = np.flatnonzero(store.remaining("t") > 0) if demand else np.arange(n)
    buckets = ClassBuckets(a2_class, classes, open_ids)
    for _ in range(int(rng.integers(0, n + 1))):
        a1 = int(rng.integers(n))
        pool = query_candidates(store, np.arange(n), demand, a1)
        if not len(pool) or (counts_a1 and store.demand["t"][a1] <= 0):
            continue
        a2 = int(pool[rng.integers(len(pool))])
        store.record_link(
            a1, a2, "t", count_source=counts_a1, count_target=counts_a2,
            enforce_demand=True,
        )
        if counts_a2:
            for agent in (a1, a2) if counts_a1 else (a2,):
                if store.demand["t"][agent] == 0:
                    buckets.remove(agent)
    for a1 in range(n):
        taken = [a1, *store.partners_of(a1)]
        available, in_buckets = buckets.available(taken, list(range(classes)))
        pool = query_candidates(store, np.arange(n), demand, a1)
        assert available == np.bincount(a2_class[pool], minlength=classes).tolist()
        box = rng.random(classes) < 0.5
        base = np.flatnonzero(box[a2_class])
        box_classes = np.flatnonzero(box).tolist()
        in_box, _ = buckets.available(taken, box_classes)
        assert in_box == [available[c] for c in box_classes]
        assert sum(in_box) == len(query_candidates(store, base, demand, a1))
        for c in range(classes):
            picked = [buckets.pick(c, k, in_buckets) for k in range(available[c])]
            assert sorted(picked) == pool[a2_class[pool] == c].tolist()


REPO = Path(__file__).resolve().parent.parent


def similarity_plan(directory: Path, attributes: list[str]) -> Path:
    """A plan in ``directory`` with one friendship rule that copies
    ``attributes`` of the Kenya attribute network, written by the fixture
    tool's similarity_bn."""
    spec = importlib.util.spec_from_file_location(
        "make_kenya_fixtures", REPO / "tools" / "make_kenya_fixtures.py")
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    shutil.copy(REPO / "plans" / "kenya" / "attributes.bn", directory)
    (directory / "friendship.bn").write_text(fixtures.similarity_bn(attributes))
    plan = directory / "friendship.plan"
    plan.write_text(
        "population N=2000 seed=1 attributes=attributes.bn\n"
        "linktype friendship undirected\n"
        "rule homophily friendship bn=friendship.bn\n"
    )
    return plan


def test_class_tables_memory_follows_the_linkable_pairs(tmp_path):
    # 1,540 classes a side: the dense class x class tables took 95 MB here.
    similarity_plan(tmp_path, ["gender", "ageDetail", "spatialLocation"])
    rule = load_matching_bn((tmp_path / "friendship.bn").read_text())
    store = generate_population(
        load_bn(tmp_path / "attributes.bn"), 2000, substream(1, "population"),
        [LinkType("friendship", False)],
    )
    engine, everyone = Engine(rule.bn), np.arange(len(store))
    tracemalloc.start()
    try:
        class_tables(rule, engine, store, everyone)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak


def test_six_attribute_rule_generates(tmp_path):
    # 12,320 classes a side: a dense class x class joint would need 2.4 GB.
    plan = similarity_plan(tmp_path, [
        "gender", "ageDetail", "spatialLocation", "maritalStatus", "workWater", "workMarket",
    ])
    assert main(["generate", str(plan), "--out", str(tmp_path / "out")]) == EXIT_OK
