"""Homophily rules: pair agents through a matching Bayesian network.

A matching network contains prefixed copies of both agents' attributes
(``a1_age``, ``a2_age``, ...), any internal condition variables, and one
boolean link variable whose posterior given both attribute sets is the
probability that the pair may be linked.  One elimination per rule gives
that probability for every pair of agent classes; zero-pruning it per copied
attribute yields the candidate sets.  Pairing then works on classes: a
prototype's a2 class is drawn from the same elimination, the fallback scans
the classes with available agents, and the agents a rule may still pick sit
in one bucket per a2 class, so a link slot costs O(classes + degree).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .bn import BayesianNetwork, parse_bn, read_text
from .inference import Engine
from .population import PopulationStore
# Unused here; bench/tracing.py patches and subclasses these two names.
from .population import query_candidates  # noqa: F401
from .sampling import PrototypeSampler  # noqa: F401

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
    given: set[str] = set()
    for token in tokens[2:]:
        if "=" not in token:
            raise MatchingError(f"bad matching header token {token!r}")
        key, _, value = token.partition("=")
        if key not in options:
            raise MatchingError(f"unknown matching header option {key!r}")
        if key in given:
            raise MatchingError(f"duplicate matching header option {key!r}")
        given.add(key)
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
    return load_matching_bn(read_text(path, MatchingError), defaults=defaults)


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


def vacuous(rule: HomophilyRule, engine: Engine) -> bool:
    """The link variable can never be yes: the rule links no pair."""
    return engine.probability_of_evidence({rule.link_variable: LINK_YES}) <= 0.0


def _class_ids(store: PopulationStore, engine: Engine, copies: Mapping[str, str]) -> np.ndarray:
    """Per agent, its combination of labels of the attributes ``copies``
    reads, numbered over the copies' domains; an agent with a label outside
    them falls in the extra last class."""
    codes = np.empty((len(copies), len(store)), dtype=np.intp)
    for k, (bn_var, attribute) in enumerate(copies.items()):
        j = store.column(attribute)
        index = engine.value_index[bn_var]
        codes[k] = np.array([index.get(label, -1) for label in store.labels[j]])[store.codes[:, j]]
    dims = tuple(len(engine.domains[bn_var]) for bn_var in copies)
    ids = np.ravel_multi_index(tuple(np.maximum(codes, 0)), dims)
    ids[(codes < 0).any(axis=0)] = math.prod(dims)
    return ids


class ClassTables(NamedTuple):
    """One homophily rule over one store's agents, by class.

    An agent's a1 (a2) class numbers its labels of the attributes the rule
    copies on side 1 (2); the extra last class holds the agents with a label
    outside the matching network's domain and admits nothing.
    ``compat[c1, c2]`` is p(link = yes | both classes' labels), 0 where those
    labels have probability 0 together.  ``members[c1]`` holds when each
    label of c1 is possible with link = yes; ``box[c1, c2]`` when each label
    of c2 is possible with c1's labels and link = yes.  Both are products of
    per-attribute supports, so they may admit classes whose compatibility
    is 0.  ``cdf[c1]`` is the running sum over c2 of p(c1's labels, c2's
    labels, link = yes), one row per class but the extra one: inverting it
    draws a prototype's a2 class.
    """

    a1_class: np.ndarray
    a2_class: np.ndarray
    compat: np.ndarray
    members: np.ndarray
    box: np.ndarray
    cdf: np.ndarray


def class_tables(rule: HomophilyRule, engine: Engine, store: PopulationStore) -> ClassTables:
    """Compatibility of every class pair, from one elimination that keeps
    each copied variable and the link variable."""
    a1, a2 = rule.a1_map(), rule.a2_map()
    joint = engine.joint((*a1, *a2, rule.link_variable))
    yes = joint[..., engine.value_index[rule.link_variable][LINK_YES]]
    n1 = math.prod(yes.shape[:len(a1)])
    cdf = np.cumsum(yes.reshape(n1, -1), axis=1)
    compat = joint.sum(axis=-1)
    np.divide(yes, compat, out=compat, where=compat > 0.0)
    del joint, yes  # the spouses joint alone holds 4 MB
    possible = compat > 0.0
    side1, side2 = range(len(a1)), range(len(a1), possible.ndim)

    def support(axis: int, keep=()) -> np.ndarray:
        """Labels of copy ``axis`` possible with link = yes, for each
        combination of labels of the copies ``keep``."""
        others = [a for a in range(possible.ndim) if a != axis and a not in keep]
        return possible.any(axis=tuple(others))

    members = functools.reduce(np.logical_and.outer, [support(a) for a in side1]).ravel()
    codes2 = np.unravel_index(np.arange(possible.size // n1), possible.shape[len(a1):])
    box = functools.reduce(np.logical_and, [
        support(a, side1).reshape(n1, -1)[:, codes] for a, codes in zip(side2, codes2)
    ])
    outside = ((0, 1), (0, 1))
    return ClassTables(
        _class_ids(store, engine, a1),
        _class_ids(store, engine, a2),
        np.pad(compat.reshape(n1, -1), outside),
        np.append(members, False),
        np.pad(box, outside),
        cdf,
    )


class ClassBuckets:
    """The agents a homophily rule may still pick, grouped by a2 class.

    One array holds them all: class c owns ``ids[start[c]:start[c] +
    size[c]]``, in no particular order, and ``where[agent]`` is the agent's
    index in ``ids``, or -1 when it is in no bucket.
    """

    def __init__(self, a2_class: np.ndarray, classes: int, open_ids: np.ndarray):
        self.a2_class = a2_class
        self.ids = open_ids[np.argsort(a2_class[open_ids], kind="stable")]
        self.size = np.bincount(a2_class[self.ids], minlength=classes)
        self.start = np.cumsum(self.size) - self.size
        self.where = np.full(len(a2_class), -1, dtype=np.intp)
        self.where[self.ids] = np.arange(len(self.ids))

    def remove(self, agent: int) -> None:
        """Take the agent out of its bucket: the last agent of its class
        moves into its place."""
        c = self.a2_class[agent]
        i, last = self.where[agent], self.start[c] + self.size[c] - 1
        moved = self.ids[last]
        self.ids[i] = moved
        self.where[moved] = i
        self.where[agent] = -1
        self.size[c] -= 1

    def available(self, taken: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per class, the number of its agents not in ``taken``; and the
        agents of ``taken`` that are in a bucket."""
        taken = taken[self.where[taken] >= 0]
        return self.size - np.bincount(self.a2_class[taken], minlength=len(self.size)), taken

    def pick(self, c: int, k: int, taken: np.ndarray) -> int:
        """The agent at index k of class c's bucket once the agents of
        ``taken`` (each in a bucket) are skipped."""
        for skipped in np.sort(self.where[taken[self.a2_class[taken] == c]]).tolist():
            if skipped > self.start[c] + k:
                break
            k += 1
        return int(self.ids[self.start[c] + k])


def run_homophily_rule(
    store: PopulationStore, rule: HomophilyRule, rng: np.random.Generator
) -> RuleReport:
    """Execute one homophily rule against the store.

    Side-1 agents take turns in random order.  An agent's turn has one slot
    per open link when the rule counts side 1, otherwise one slot.  A slot
    picks an a2 class by prototype draws, then by the fallback scan, and
    then a uniform available agent of that class; when both find no class
    the agent is an orphan and its turn ends.  An agent is available to a1
    when it is not a1, shares no dyad with a1 and, when the rule counts
    side 2, has open demand.  Shortfalls never raise; they surface in the
    report.  Every created link passes the dyad-uniqueness and demand
    checks of the store.
    """
    engine = Engine(rule.bn)
    if vacuous(rule, engine):
        return RuleReport(rule.link_type, "homophily", vacuous=True)
    report = RuleReport(rule.link_type, "homophily")
    tables = class_tables(rule, engine, store)
    if rule.counts_a2:
        open_ids = np.flatnonzero(store.remaining(rule.link_type) > 0)
    else:
        open_ids = np.arange(len(store))
    buckets = ClassBuckets(tables.a2_class, tables.compat.shape[1], open_ids)

    def prototype(c1: int, available: np.ndarray) -> int | None:
        """Draw up to ``retries`` a2 classes from p(a2 class | c1, link =
        yes), one uniform each; the first with an available agent, or None
        when every draw misses."""
        cdf = tables.cdf[c1]  # c1's box is not empty, so cdf[-1] > 0
        for _ in range(rule.retries):
            c2 = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
            if available[c2]:
                return c2
        return None

    def fallback(c1: int, box: np.ndarray, left: np.ndarray) -> int | None:
        """Uniform draws of available agents without replacement, each kept
        with probability compatibility / its largest value over them, run
        by class: the class of a draw is picked by its count ``left`` of
        undrawn agents, and a rejection takes one from that count."""
        compat = tables.compat[c1, box]
        max_compat = compat.max(initial=0.0, where=left > 0)
        if max_compat <= 0.0:
            return None
        for total in range(int(left.sum()), 0, -1):
            k = int(np.searchsorted(np.cumsum(left), rng.integers(total), side="right"))
            if compat[k] > 0.0 and rng.random() < compat[k] / max_compat:
                return int(box[k])
            report.fallback_rejections += 1
            left[k] -= 1
        return None

    members = np.flatnonzero(tables.members[tables.a1_class])
    left = store.remaining(rule.link_type, members)  # refuses an unknown type
    if rule.counts_a1:
        members = members[left > 0]
        report.demand_total = int(left[left > 0].sum())
    else:
        report.demand_total = len(members)

    for a1 in members[rng.permutation(len(members))].tolist():
        # Only a1's own links change its demand during its turn.
        slots = store.remaining(rule.link_type, a1) if rule.counts_a1 else 1
        c1 = tables.a1_class[a1]
        box = np.flatnonzero(tables.box[c1])
        for _ in range(slots):
            available, taken = buckets.available(np.array([a1, *store.partners_of(a1)]))
            candidates = available[box]
            c2 = None
            if candidates.sum() >= max(rule.small_set, 1):
                c2 = prototype(c1, available)
            by_prototype = c2 is not None
            if c2 is None:
                c2 = fallback(c1, box, candidates)
            if c2 is None:
                report.orphan_agents += 1
                break
            a2 = buckets.pick(c2, int(rng.integers(available[c2])), taken)
            store.record_link(
                a1, a2, rule.link_type,
                count_source=rule.counts_a1, count_target=rule.counts_a2, enforce_demand=True,
            )
            report.links_created += 1
            report.prototype_links += by_prototype
            report.fallback_links += not by_prototype
            if rule.counts_a2:
                for agent in (a1, a2) if rule.counts_a1 else (a2,):
                    if store.remaining(rule.link_type, agent) == 0:
                        buckets.remove(agent)

    if rule.counts_a1:
        report.unfulfilled = int(store.remaining(rule.link_type, members).sum())
    else:
        # One slot each: an orphan is exactly an agent left without a link.
        report.unfulfilled = report.orphan_agents
    return report
