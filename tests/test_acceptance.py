"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The demonstration plan
under plans/kenya drives the whole-pipeline criteria; a deliberately
inconsistent plan exercises the diagnostic use of the matching error.
"""
import bisect
import dataclasses
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from popnetgen.bn import load_bn, parse_bn
from popnetgen.cli import run
from popnetgen.inference import Engine, ZeroEvidenceError
from popnetgen.matching import class_tables, load_matching_bn_file, run_homophily_rule
from popnetgen.metrics import (
    build_error_report,
    matching_error,
    stats_for_edges,
)
from popnetgen.plan import build_homophily_rule, HomophilyPlanRule, load_plan
from popnetgen.population import LinkType, generate_population, learn_marginals
from popnetgen.sampling import PrototypeSampler, substream
from popnetgen.transitivity import TransitivityRule, open_triads, run_transitivity_rule

from helpers import (
    brute_graph_stats,
    build_store,
    enum_joint_items,
    gnp_edges,
    link_probability,
    make_random_bn,
    random_evidence,
    tensor_joint,
    tensor_posterior,
    tensor_probability,
)
from test_matching import make_random_matching_rule
from test_sampling import FOUR_VAR_DOC

REPO = Path(__file__).resolve().parent.parent
KENYA_PLAN = REPO / "plans" / "kenya" / "kenya.plan"
INCONSISTENT_PLAN = REPO / "plans" / "inconsistent" / "inconsistent.plan"

KENYA_N = 10_000
SEED_BATTERY = list(range(10))


def ok(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number:2d}: PASS - {message}")


@pytest.fixture(scope="session")
def kenya_runs(tmp_path_factory):
    """Two full exports of the bundled plan with its own seed, plus timings."""
    plan = load_plan(KENYA_PLAN)
    outs = []
    elapsed = []
    for tag in ("first", "second"):
        out = tmp_path_factory.mktemp(f"kenya_{tag}")
        t0 = time.monotonic()
        result = run(plan, population=KENYA_N, out=out)
        elapsed.append(time.monotonic() - t0)
        outs.append((result, out))
    return plan, outs, elapsed


def test_criterion_01_inference_exactness():
    rng = np.random.default_rng(424242)
    t0 = time.monotonic()
    posteriors_checked = 0
    for _ in range(200):
        bn = make_random_bn(rng, max_vars=10, max_domain=4)
        ev = random_evidence(rng, bn, max_items=3)
        engine = Engine(bn)
        p_ev = float(engine.joint((), ev))
        assert abs(p_ev - tensor_probability(bn, ev)) <= 1e-9
        if p_ev > 0.0:
            for query in bn.names:
                if query in ev:
                    continue
                got = engine.posterior(ev, query)
                expected = tensor_posterior(bn, ev, query)
                assert float(np.max(np.abs(got - expected))) <= 1e-9
                # what the pipeline queries: the joint, normalised here
                joint = engine.joint((query,), ev)
                assert float(np.max(np.abs(joint / joint.sum() - expected))) <= 1e-9
                posteriors_checked += 1
        else:
            with pytest.raises(ZeroEvidenceError):
                engine.posterior(ev, bn.names[0])
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    ok(1, f"200 random networks, {posteriors_checked} posteriors and normalised joints "
          f"within 1e-9 of joint enumeration in {elapsed:.1f}s")


def test_criterion_02_marital_table_posterior():
    bn = load_bn(REPO / "plans" / "kenya" / "attributes.bn")
    row = bn.cpts["maritalStatus"].rows[("male", "15-19")]
    assert row == (0.981, 0.019)
    p = Engine(bn).posterior({"gender": "male", "ageSlices": "15-19"}, "maritalStatus")
    yes = p[bn.domain("maritalStatus").index("yes")]
    assert yes == pytest.approx(0.019, abs=1e-12)
    ok(2, f"p(married | male, 15-19) = {yes!r}, the published 1.90%")


def test_criterion_03_sampling_fidelity():
    bn = parse_bn(FOUR_VAR_DOC)
    sampler = PrototypeSampler(Engine(bn))
    rng = substream(2024, "acceptance/sampling")
    draws = 100_000
    t0 = time.monotonic()
    counts = Counter()
    for _ in range(draws):
        proto = sampler.sample({"d": "d1"}, rng)
        counts[tuple(proto[n] for n in bn.names)] += 1
    elapsed = time.monotonic() - t0

    conditional = {}
    z = 0.0
    for assignment, weight in enum_joint_items(bn):
        if assignment["d"] == "d1":
            key = tuple(assignment[n] for n in bn.names)
            conditional[key] = weight
            z += weight
    worst = assert_within_three_se(counts, {k: w / z for k, w in conditional.items()}, draws)
    assert elapsed < 30.0

    # What the pipeline runs.  Agents: every full assignment against its
    # probability.
    store = generate_population(bn, draws, substream(2024, "acceptance/population"))
    drawn = Counter(map(tuple, store.codes.tolist()))
    law = {tuple(bn.domain(n).index(a[n]) for n in bn.names): w for a, w in enum_joint_items(bn)}
    agents_worst = assert_within_three_se(drawn, law, draws)

    # A prototype's a2 class, as the matcher draws it: the largest Kenya
    # colleagues box's running sum inverted, against p(c2 | c1, link = yes).
    rule = load_matching_bn_file(REPO / "plans" / "kenya" / "colleagues.bn")
    engine = Engine(rule.bn)
    kenya = generate_population(
        load_bn(REPO / "plans" / "kenya" / "attributes.bn"), 2000, substream(1, "population"))
    tables = class_tables(rule, engine, kenya, np.arange(len(kenya)))
    c1 = max(tables.rows, key=lambda c: len(tables.rows[c][0]))
    box, _, cdf = tables.rows[c1]
    classes = Counter(box[bisect.bisect_right(cdf, u * cdf[-1])]
                      for u in substream(2024, "acceptance/classes").random(draws).tolist())
    a1, a2 = rule.a1_map(), rule.a2_map()
    at = dict(zip(a1, np.unravel_index(c1, [len(engine.domains[v]) for v in a1])))
    at[rule.link_variable] = engine.value_index[rule.link_variable]["yes"]
    joint = tensor_joint(rule.bn)[tuple(at.get(n, slice(None)) for n in rule.bn.names)]
    kept = [n for n in rule.bn.names if n not in at]
    joint = joint.sum(axis=tuple(k for k, n in enumerate(kept) if n not in a2)).ravel()
    classes_worst = assert_within_three_se(classes, dict(enumerate(joint / joint.sum())), draws)
    ok(3, f"{draws} prototypes, agents and a2 classes: every assignment and class "
          f"within 3 standard errors (worst {worst:.2f}, {agents_worst:.2f}, "
          f"{classes_worst:.2f}); prototypes in {elapsed:.1f}s")


def assert_within_three_se(counts: Counter, law: dict, draws: int) -> float:
    """Asserts that each outcome's share of ``draws`` lies within 3 standard
    errors of its probability in ``law``, and that outcomes of probability 0
    or outside ``law`` never occur; returns the largest deviation in standard
    errors."""
    possible = {key for key, p in law.items() if p > 0.0}
    assert set(counts) <= possible, set(counts) - possible
    worst = 0.0
    for key, p in law.items():
        if p > 0.0:
            se = math.sqrt(p * (1 - p) / draws)
            deviation = abs(counts[key] / draws - p)
            assert deviation <= 3 * se, (key, deviation, se)
            worst = max(worst, deviation / se) if se > 0.0 else worst
    return worst


def test_criterion_04_distribution_error_trend():
    bn = load_bn(REPO / "plans" / "kenya" / "attributes.bn")
    means = []
    for size in (500, 2000, 10000):
        errors = []
        for seed in SEED_BATTERY:
            store = generate_population(bn, size, substream(seed, "population"))
            errors.append(build_error_report(learn_marginals(store, bn), bn, []).distribution_error)
        means.append(sum(errors) / len(errors))
    assert means[0] > means[1] > means[2], means
    ok(4, "distribution error decreases over N=500/2000/10000 "
          f"({means[0]:.4f} > {means[1]:.4f} > {means[2]:.4f}, 10-seed means)")


def test_criterion_05_matching_error_threshold():
    plan = load_plan(KENYA_PLAN)
    means = {}
    for size in (500, KENYA_N):
        totals = Counter()
        for seed in SEED_BATTERY:
            result = run(plan, population=size, seed=seed, write=False)
            for name, rate in matching_error(result.rule_reports).items():
                totals[name] += rate
        means[size] = {name: totals[name] / len(SEED_BATTERY) for name in totals}
    for name in means[500]:
        assert means[KENYA_N][name] < means[500][name], (
            name, means[500][name], means[KENYA_N][name]
        )

    inconsistent = load_plan(INCONSISTENT_PLAN)
    stuck = {}
    for size in (500, 2000, 10000):
        for seed in (0, 1):
            result = run(inconsistent, population=size, seed=seed, write=False)
            rate = matching_error(result.rule_reports)["spouses"]
            assert rate > 0.1, (size, seed, rate)
            stuck[size] = rate
    summary = ", ".join(
        f"{name}: {means[500][name]:.3f}->{means[KENYA_N][name]:.3f}"
        for name in sorted(means[500])
    )
    ok(5, f"matching error drops for every rule ({summary}); inconsistent "
          f"plan stays above 0.1 at all sizes (e.g. {stuck[10000]:.2f} at N=10000)")


def _audit_store(store, rules):
    links = store.edges().tolist()
    pairs = [(min(s, t), max(s, t)) for s, t in links]
    assert len(pairs) == len(set(pairs)), "dyad carries more than one link"
    assert all(s != t for s, t in links), "self link"
    by_type = {rule.link_type: rule for rule in rules}
    audited = 0
    for link_type, rule in by_type.items():
        engine = Engine(rule.bn)
        for source, target in store.edges(link_type).tolist():
            a1, a2 = store.attributes(source), store.attributes(target)
            value = max(
                link_probability(engine, rule, a1, a2), link_probability(engine, rule, a2, a1)
            )
            assert value > 0.0, f"zero-compatibility link {source},{target} ({link_type})"
            audited += 1
    return audited


def test_criterion_06_link_compatibility_audit(kenya_runs):
    plan, outs, _ = kenya_runs
    result = outs[0][0]
    rules = [
        build_homophily_rule(r) for r in plan.rules if isinstance(r, HomophilyPlanRule)
    ]
    audited = _audit_store(result.store, rules)
    assert audited == sum(
        r.links_created for r in result.rule_reports if r.kind == "homophily"
    )

    # fuzzed random rules over random populations
    rng = np.random.default_rng(606)
    fuzz_audited = 0
    for _ in range(15):
        rule = dataclasses.replace(
            make_random_matching_rule(rng),
            counts=("both", "a1", "a2")[int(rng.integers(3))],
        )
        attributes = sorted(set(rule.a1_map().values()) | set(rule.a2_map().values()))
        rows, required = [], []
        for _ in range(int(rng.integers(30, 80))):
            rows.append({
                a: rule.bn.domain(f"a1_{a}")[int(rng.integers(len(rule.bn.domain(f"a1_{a}"))))]
                for a in attributes
            })
            required.append({"pair": int(rng.integers(0, 3))})
        store = build_store([LinkType("pair", False)], rows, required)
        run_homophily_rule(store, rule, substream(int(rng.integers(1 << 30)), "fuzz"))
        assert (store.remaining("pair") >= 0).all()
        fuzz_audited += _audit_store(store, [rule])
    ok(6, f"{audited} bundled-run links and {fuzz_audited} fuzzed links all "
          "compatible; dyads unique, no self links")


def test_criterion_07_transitivity_closure(kenya_runs):
    plan, outs, _ = kenya_runs
    store = outs[0][0].store
    father = TransitivityRule("spouses", "motherOf", "fatherOf", 1.0, "any", "source")
    siblings = TransitivityRule("motherOf", "motherOf", "siblings", 1.0, "source", "source")
    assert open_triads(store, father).tolist() == []
    assert open_triads(store, siblings).tolist() == []

    # binomial behavior at p = 0.5 over ~1000 eligible dyads
    n_triads = 1000
    bench = build_store([
        LinkType("spouses", False), LinkType("motherOf", True), LinkType("fatherOf", True),
    ], [{}] * (3 * n_triads))
    for k in range(n_triads):
        h, w, c = 3 * k, 3 * k + 1, 3 * k + 2
        bench.record_link(h, w, "spouses", count_source=False, count_target=False)
        bench.record_link(w, c, "motherOf", count_source=False, count_target=False)
    half = TransitivityRule("spouses", "motherOf", "fatherOf", 0.5, "any", "source")
    report = run_transitivity_rule(bench, half, substream(7, "acceptance/transitivity"))
    sigma = math.sqrt(n_triads * 0.25)
    assert abs(report.links_created - n_triads / 2) <= 3 * sigma
    ok(7, "p=1 rules leave no open triads after the bundled run; p=0.5 over "
          f"{n_triads} dyads created {report.links_created} links (3-sigma band)")


def test_criterion_08_graph_statistics_correctness():
    rng = np.random.default_rng(808)
    sizes = [int(rng.integers(10, 150)) for _ in range(45)]
    sizes += [int(rng.integers(200, 301)) for _ in range(5)]
    for n in sizes:
        edges = gnp_edges(rng, n, float(rng.uniform(0.01, 0.25)))
        stats = stats_for_edges(n, edges)
        density, degree, clustering, apl, components, largest = brute_graph_stats(n, edges)
        assert (stats.components, stats.largest_component) == (components, largest)
        assert stats.density == density
        assert stats.average_degree == degree
        assert stats.clustering == pytest.approx(clustering, abs=1e-12)
        if apl is None:
            assert stats.average_path_length is None
        else:
            assert stats.average_path_length == pytest.approx(apl, abs=1e-9)
    ok(8, f"density/degree/clustering/path length match brute force on "
          f"{len(sizes)} random graphs up to {max(sizes)} nodes")


def test_criterion_09_small_world_qualitative(kenya_runs):
    _, outs, _ = kenya_runs
    stats = outs[0][0].stats[0]
    assert stats.scope == "collapsed"
    assert stats.clustering > 0.1
    assert stats.average_path_length is not None
    assert stats.average_path_length < 10.0
    ok(9, f"qualitative small-world check: clustering {stats.clustering:.3f} > 0.1, "
          f"largest-component path length {stats.average_path_length:.2f} < 10 "
          "(loose qualitative bounds)")


def test_criterion_10_determinism_and_performance(kenya_runs):
    _, outs, elapsed = kenya_runs
    (_, out_a), (_, out_b) = outs
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    for layer in ("spouses", "motherOf", "fatherOf", "siblings", "friendship", "colleagues"):
        assert f"edges_{layer}.csv" in names_a
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    assert all(t < 300.0 for t in elapsed), elapsed
    ok(10, f"two N={KENYA_N} runs byte-identical across {len(names_a)} files; "
           f"each completed in {max(elapsed):.1f}s (< 5 min)")
