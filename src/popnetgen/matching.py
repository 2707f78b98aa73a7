"""Homophily rules: pair agents through a matching Bayesian network.

A matching network contains prefixed copies of both agents' attributes
(``a1_age``, ``a2_age``, ...), any internal condition variables, and one
boolean link variable whose posterior given both attribute sets is the
probability that the pair may be linked.  Setting the link variable to yes
and zero-pruning each copied attribute yields the candidate sets; pairing
then proceeds by prototype search against the store with an accept/reject
fallback over the conditional candidate set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bn import BayesianNetwork, parse_bn
from .inference import Engine, ZeroEvidenceError, engine_for
from .population import CandidateQuery, PopulationStore, query_candidates
from .sampling import PrototypeSampler

LINK_YES = "yes"
LINK_NO = "no"

DEFAULT_RETRIES = 20
DEFAULT_SMALL_SET = 50

COUNTS_CHOICES = ("both", "a1", "a2")


class MatchingError(Exception):
    pass


@dataclass(frozen=True)
class HomophilyRule:
    """One homophily generation rule for a single link type.

    counts names the endpoints whose required/created counters govern the
    rule ("both", "a1" or "a2").  retries bounds prototype draws per link
    slot; below small_set candidates the matcher goes straight to the
    fallback scan.
    """

    link_type: str
    bn: BayesianNetwork
    link_variable: str
    a1_prefix: str = "a1_"
    a2_prefix: str = "a2_"
    counts: str = "both"
    retries: int = DEFAULT_RETRIES
    small_set: int = DEFAULT_SMALL_SET

    def a1_map(self) -> dict[str, str]:
        """Matching-network variable -> attribute name, for agent 1 copies."""
        return {
            v.name: v.name[len(self.a1_prefix):]
            for v in self.bn.variables
            if v.name.startswith(self.a1_prefix) and v.name != self.link_variable
        }

    def a2_map(self) -> dict[str, str]:
        return {
            v.name: v.name[len(self.a2_prefix):]
            for v in self.bn.variables
            if v.name.startswith(self.a2_prefix) and v.name != self.link_variable
        }

    @property
    def counts_a1(self) -> bool:
        return self.counts in ("both", "a1")

    @property
    def counts_a2(self) -> bool:
        return self.counts in ("both", "a2")


def validate_rule(rule: HomophilyRule, attribute_bn: BayesianNetwork | None = None) -> list[str]:
    """Problems with the rule itself; empty list when well formed."""
    problems = []
    if rule.counts not in COUNTS_CHOICES:
        problems.append(f"counts must be one of {COUNTS_CHOICES}, got {rule.counts!r}")
    if rule.link_variable not in rule.bn:
        problems.append(f"link variable {rule.link_variable!r} not in matching network")
    else:
        domain = set(rule.bn.domain(rule.link_variable))
        if domain != {LINK_YES, LINK_NO}:
            problems.append(
                f"link variable {rule.link_variable!r} must have domain "
                f"{{yes, no}}, got {sorted(domain)}"
            )
    if not rule.a1_map():
        problems.append(f"no variables carry the a1 prefix {rule.a1_prefix!r}")
    if not rule.a2_map():
        problems.append(f"no variables carry the a2 prefix {rule.a2_prefix!r}")
    if attribute_bn is not None:
        for bn_var, attribute in {**rule.a1_map(), **rule.a2_map()}.items():
            if attribute not in attribute_bn:
                problems.append(
                    f"{bn_var!r} strips to {attribute!r}, which is not an "
                    "attribute variable"
                )
            elif set(rule.bn.domain(bn_var)) - set(attribute_bn.domain(attribute)):
                problems.append(
                    f"{bn_var!r} carries values outside the domain of {attribute!r}"
                )
    if rule.retries < 1:
        problems.append("retries must be at least 1")
    if rule.small_set < 0:
        problems.append("small_set must be non-negative")
    return problems


def load_matching_bn(text: str, *, defaults: Mapping[str, object] | None = None) -> HomophilyRule:
    """Parse a matching network file.

    The first non-comment line is the header:

        matching <linktype> link=<linkVariable> a1=<prefix> a2=<prefix> counts=<both|a1|a2>

    The rest of the file uses the plain network grammar.  ``defaults`` may
    carry retries/small_set/counts overrides from the generation plan.
    """
    lines = text.splitlines()
    header = None
    body_start = 0
    for i, raw in enumerate(lines):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            header = stripped
            body_start = i + 1
            break
    if header is None or not header.startswith("matching "):
        raise MatchingError("matching network must start with a 'matching ...' header")
    tokens = header.split()
    if len(tokens) < 2:
        raise MatchingError("matching header misses the link type")
    link_type = tokens[1]
    options = {"link": None, "a1": "a1_", "a2": "a2_", "counts": "both"}
    for token in tokens[2:]:
        if "=" not in token:
            raise MatchingError(f"bad matching header token {token!r}")
        key, _, value = token.partition("=")
        if key not in options:
            raise MatchingError(f"unknown matching header option {key!r}")
        options[key] = value
    if not options["link"]:
        raise MatchingError("matching header misses link=<variable>")
    if options["counts"] not in COUNTS_CHOICES:
        raise MatchingError(f"counts must be one of {COUNTS_CHOICES}")

    defaults = dict(defaults or {})
    bn = parse_bn("\n".join(lines[body_start:]))
    rule = HomophilyRule(
        link_type=link_type,
        bn=bn,
        link_variable=options["link"],
        a1_prefix=options["a1"],
        a2_prefix=options["a2"],
        counts=str(defaults.get("counts", options["counts"])),
        retries=int(defaults.get("retries", DEFAULT_RETRIES)),
        small_set=int(defaults.get("small_set", DEFAULT_SMALL_SET)),
    )
    problems = validate_rule(rule)
    if problems:
        raise MatchingError("; ".join(problems))
    return rule


def load_matching_bn_file(path, *, defaults: Mapping[str, object] | None = None) -> HomophilyRule:
    with open(path, encoding="utf-8") as fh:
        return load_matching_bn(fh.read(), defaults=defaults)


@dataclass(frozen=True)
class CandidatePredicate:
    """Attribute-value-set constraints plus an optional remaining-demand type."""

    attribute_values: dict[str, frozenset[str]]
    demand_type: str | None = None


@dataclass
class RuleReport:
    """Tallies for one executed generation rule.

    demand_total is the remaining demand summed over candidate side 1 when
    the rule starts; unfulfilled is what is still open at the end, so
    fulfilled demand plus unfulfilled equals demand_total.
    """

    link_type: str
    kind: str
    demand_total: int = 0
    links_created: int = 0
    unfulfilled: int = 0
    prototype_links: int = 0
    fallback_links: int = 0
    fallback_rejections: int = 0
    orphan_agents: int = 0
    vacuous: bool = False


def _support(engine: Engine, evidence: Mapping[str, str], variable: str) -> frozenset[str]:
    vec = engine.posterior(evidence, variable)
    domain = engine.domains[variable]
    return frozenset(domain[i] for i in range(len(domain)) if vec[i] > 0.0)


def derive_candidate_sets(rule: HomophilyRule) -> tuple[CandidatePredicate, CandidatePredicate]:
    """Zero-pruned attribute predicates for both candidate sets.

    Raises ZeroEvidenceError when the link variable can never be yes, which
    makes the rule vacuous.
    """
    engine = engine_for(rule.bn)
    evidence = {rule.link_variable: LINK_YES}
    values1 = {
        attribute: _support(engine, evidence, bn_var)
        for bn_var, attribute in rule.a1_map().items()
    }
    values2 = {
        attribute: _support(engine, evidence, bn_var)
        for bn_var, attribute in rule.a2_map().items()
    }
    return (
        CandidatePredicate(values1, rule.link_type if rule.counts_a1 else None),
        CandidatePredicate(values2, rule.link_type if rule.counts_a2 else None),
    )


def _a1_evidence(rule: HomophilyRule, a1: Mapping[str, str]) -> dict[str, str]:
    evidence = {rule.link_variable: LINK_YES}
    for bn_var, attribute in rule.a1_map().items():
        evidence[bn_var] = a1[attribute]
    return evidence


def conditional_candidates(rule: HomophilyRule, a1: Mapping[str, str]) -> CandidatePredicate:
    """Predicate for candidates compatible with one agent, given by its
    attribute labels.

    Raises ZeroEvidenceError when the agent's attributes rule out any peer.
    """
    engine = engine_for(rule.bn)
    evidence = _a1_evidence(rule, a1)
    values = {
        attribute: _support(engine, evidence, bn_var)
        for bn_var, attribute in rule.a2_map().items()
    }
    return CandidatePredicate(values, rule.link_type if rule.counts_a2 else None)


def compatibility(rule: HomophilyRule, a1: Mapping[str, str], a2: Mapping[str, str]) -> float:
    """p(link = yes | both agents' attribute labels); 0 when the evidence
    itself is impossible, so it never raises."""
    engine = engine_for(rule.bn)
    evidence = {}
    try:
        for bn_var, attribute in rule.a1_map().items():
            value = a1[attribute]
            if value not in engine.value_index[bn_var]:
                return 0.0
            evidence[bn_var] = value
        for bn_var, attribute in rule.a2_map().items():
            value = a2[attribute]
            if value not in engine.value_index[bn_var]:
                return 0.0
            evidence[bn_var] = value
        vec = engine.posterior(evidence, rule.link_variable)
    except ZeroEvidenceError:
        return 0.0
    return float(vec[engine.value_index[rule.link_variable][LINK_YES]])


def _class_ids(store: PopulationStore, attributes) -> list[int]:
    """Per agent, one int naming its combination of labels of ``attributes``."""
    columns = [store.column(a) for a in attributes]
    dims = tuple(len(store.labels[j]) for j in columns)
    return np.ravel_multi_index(tuple(store.codes[:, j] for j in columns), dims).tolist()


class _RuleRun:
    """Mutable state for one rule execution over one store.

    Agents enter the caches through their a1 and a2 class ids: the codes
    of the attributes the rule reads on each side.
    """

    def __init__(self, store: PopulationStore, rule: HomophilyRule, rng: np.random.Generator):
        self.store = store
        self.rule = rule
        self.rng = rng
        self.sampler = PrototypeSampler(rule.bn)
        self.report = RuleReport(rule.link_type, "homophily")
        self.a2_map = rule.a2_map()
        self.a1_class = _class_ids(store, rule.a1_map().values())
        self.a2_class = _class_ids(store, self.a2_map.values())
        self._base_cache: dict[int, np.ndarray | None] = {}
        self._compat_cache: dict[tuple[int, int], float] = {}

    def base_candidates(self, a1: int) -> np.ndarray | None:
        """Sorted ids whose attributes admit a link with a1 (static per run);
        None when no peer can exist."""
        key = self.a1_class[a1]
        if key not in self._base_cache:
            try:
                predicate = conditional_candidates(self.rule, self.store.attributes(a1))
            except ZeroEvidenceError:
                self._base_cache[key] = None
            else:
                mask = self.store.attribute_mask(predicate.attribute_values)
                self._base_cache[key] = np.flatnonzero(mask)
        return self._base_cache[key]

    def pair_compatibility(self, a1: int, a2: int) -> float:
        key = (self.a1_class[a1], self.a2_class[a2])
        value = self._compat_cache.get(key)
        if value is None:
            value = compatibility(
                self.rule, self.store.attributes(a1), self.store.attributes(a2)
            )
            self._compat_cache[key] = value
        return value

    def live_pool(self, a1: int, base: np.ndarray) -> np.ndarray:
        """Current conditional candidate set, sorted: demand still open, dyad free."""
        if self.rule.counts_a2:
            base = base[self.store.remaining(self.rule.link_type, base) > 0]
        taken = [a1, *self.store.partners_of(a1)]
        return base[~np.isin(base, taken)]

    def prototype_attempts(self, a1: int) -> int | None:
        """Draw prototypes and look them up in the store; None when the retry
        budget runs out."""
        demand = (self.rule.link_type,) if self.rule.counts_a2 else ()
        evidence = _a1_evidence(self.rule, self.store.attributes(a1))
        for _ in range(self.rule.retries):
            prototype = self.sampler.sample(evidence, self.rng)
            wanted = {
                attribute: frozenset((prototype[bn_var],))
                for bn_var, attribute in self.a2_map.items()
            }
            matches = query_candidates(
                self.store,
                CandidateQuery(
                    wanted,
                    demand_types=demand,
                    exclude_ids=frozenset((a1,)),
                    not_linked_with=a1,
                ),
            )
            if matches:
                ordered = sorted(matches)
                return ordered[int(self.rng.integers(len(ordered)))]
        return None

    def fallback(self, a1: int, pool: list[int]) -> int | None:
        """Uniform draw with compatibility-proportional acceptance; rejected
        candidates leave the pool, so the scan always terminates."""
        compat = {cand: self.pair_compatibility(a1, cand) for cand in pool}
        max_compat = max(compat.values(), default=0.0)
        if max_compat <= 0.0:
            return None
        remaining = list(pool)
        while remaining:
            pick = int(self.rng.integers(len(remaining)))
            candidate = remaining[pick]
            c = compat[candidate]
            if c > 0.0 and self.rng.random() < c / max_compat:
                return candidate
            self.report.fallback_rejections += 1
            remaining.pop(pick)
        return None

    def link(self, a1: int, a2: int, by_prototype: bool) -> None:
        self.store.record_link(
            a1,
            a2,
            self.rule.link_type,
            count_source=self.rule.counts_a1,
            count_target=self.rule.counts_a2,
            enforce_demand=True,
        )
        self.report.links_created += 1
        if by_prototype:
            self.report.prototype_links += 1
        else:
            self.report.fallback_links += 1


def run_homophily_rule(
    store: PopulationStore, rule: HomophilyRule, rng: np.random.Generator
) -> RuleReport:
    """Execute one homophily rule against the store.

    Shortfalls never raise; they surface in the report.  Every created link
    passes the dyad-uniqueness and demand checks of the store.
    """
    try:
        predicate1, _ = derive_candidate_sets(rule)
    except ZeroEvidenceError:
        return RuleReport(rule.link_type, "homophily", vacuous=True)
    members = np.flatnonzero(store.attribute_mask(predicate1.attribute_values))
    left = store.remaining(rule.link_type, members)  # refuses an unknown type
    run = _RuleRun(store, rule, rng)
    report = run.report
    if rule.counts_a1:
        members = members[left > 0]
        report.demand_total = int(left[left > 0].sum())
    else:
        report.demand_total = len(members)

    order = members[rng.permutation(len(members))].tolist()
    uncounted_unfulfilled = 0

    for a1 in order:
        got_link = False
        orphaned = False

        def slots_left() -> bool:
            if rule.counts_a1:
                return store.remaining(rule.link_type, a1) > 0
            return not got_link

        while slots_left() and not orphaned:
            base = run.base_candidates(a1)
            if base is None:
                orphaned = True
                break
            pool = run.live_pool(a1, base)
            if not len(pool):
                orphaned = True
                break

            a2 = None
            by_prototype = False
            if len(pool) >= rule.small_set:
                a2 = run.prototype_attempts(a1)
                by_prototype = a2 is not None
            if a2 is None:
                a2 = run.fallback(a1, pool.tolist())
            if a2 is None:
                orphaned = True
                break
            run.link(a1, a2, by_prototype)
            got_link = True

        if orphaned:
            report.orphan_agents += 1
            if not rule.counts_a1 and not got_link:
                uncounted_unfulfilled += 1

    if rule.counts_a1:
        report.unfulfilled = int(store.remaining(rule.link_type, members).sum())
    else:
        report.unfulfilled = uncounted_unfulfilled
    return report
