"""Homophily rules: pair agents through a matching Bayesian network.

A matching network contains prefixed copies of both agents' attributes
(``a1_age``, ``a2_age``, ...), any internal condition variables, and one
boolean link variable whose posterior given both attribute sets is the
probability that the pair may be linked.  load_matching_bn checks the
file once, validate_rule the copies against the attribute network.  From
the network alone, rule_supports, which the rule computes on first use and
keeps for validate and the run, gives by one small elimination per a2 copy
its labels possible with each a1 class and link = yes: their product is
the class's box of candidate a2 classes, and a rule with no member a1 class
is vacuous.  One batched query then gives that probability, and the
weights a prototype's a2 class is drawn from, at the box pairs of the a1
classes that take turns only.  Pairing works on classes: the fallback
scans the classes with available agents, and the agents a rule may still
pick sit in one bucket per a2 class.  A link slot reads int64 arrays and
its class's row as Python lists and draws from sampling.Draws: O(box +
degree) with no numpy call at all.
"""
from __future__ import annotations

import bisect
import functools
import math
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, NamedTuple

import numpy as np

from .bn import BayesianNetwork, key_values, numbered_lines, read_network, read_text
from .inference import Engine
from .population import PopulationStore, distinct
from .sampling import Draws
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

    counts names the endpoints whose open demand governs the rule ("both",
    "a1" or "a2").  retries bounds prototype draws per link slot; below
    small_set candidates the matcher goes straight to the fallback scan.
    """

    link_type: str
    bn: BayesianNetwork
    link_variable: str
    a1_prefix: str = "a1_"
    a2_prefix: str = "a2_"
    counts: str = "both"
    retries: int = DEFAULT_RETRIES
    small_set: int = DEFAULT_SMALL_SET

    @functools.cached_property
    def supports(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """rule_supports on the rule's network, computed on first use and
        kept; a rule that replace() makes computes its own."""
        return rule_supports(self, Engine(self.bn))

    def a1_map(self) -> dict[str, str]:
        """Matching-network variable -> attribute name, for agent 1 copies."""
        return self._side_map(self.a1_prefix)

    def a2_map(self) -> dict[str, str]:
        return self._side_map(self.a2_prefix)

    def _side_map(self, prefix: str) -> dict[str, str]:
        names = (v.name for v in self.bn.variables if v.name != self.link_variable)
        return {name: name[len(prefix):] for name in names if name.startswith(prefix)}


def validate_rule(rule: HomophilyRule, attribute_bn: BayesianNetwork) -> list[str]:
    """Problems of the rule's copies against the attribute network: each
    must strip to an attribute variable and carry only labels of its
    domain.  Empty when they fit; load_matching_bn checked the rest."""
    problems = []
    for bn_var, attribute in {**rule.a1_map(), **rule.a2_map()}.items():
        if attribute not in attribute_bn:
            problems.append(
                f"{bn_var!r} strips to {attribute!r}, which is not an attribute variable"
            )
        elif set(rule.bn.domain(bn_var)) - set(attribute_bn.domain(attribute)):
            problems.append(f"{bn_var!r} carries values outside the domain of {attribute!r}")
    return problems


def load_matching_bn(text: str, *, defaults: Mapping[str, object] | None = None) -> HomophilyRule:
    """Parse a matching network file.

    The first non-comment line is the header:

        matching <linktype> link=<linkVariable> a1=<prefix> a2=<prefix> counts=<both|a1|a2>

    The rest of the file uses the plain network grammar.  ``defaults`` may
    carry retries/small_set/counts overrides from the generation plan.
    Each problem the header causes names the header's line, body errors
    their own, and problems with the plan's overrides none.
    """
    lines = numbered_lines(text)
    lineno, header = next(lines, (1, ""))
    at = f"line {lineno}: "

    def header_error(message: str) -> MatchingError:
        return MatchingError(at + message)

    if not header.startswith("matching "):
        raise header_error("matching network must start with a 'matching ...' header")
    tokens = header.split()
    options = {"a1": "a1_", "a2": "a2_", "counts": "both"}
    options |= key_values(tokens[2:], {"link", *options}, "matching header", header_error)
    if not options.get("link"):
        raise header_error("matching header misses link=<variable>")
    if options["counts"] not in COUNTS_CHOICES:
        raise header_error(f"counts must be one of {COUNTS_CHOICES}")

    defaults, link = defaults or {}, options["link"]
    rule = HomophilyRule(
        tokens[1], read_network(lines), link, options["a1"], options["a2"],
        counts=str(defaults.get("counts", options["counts"])),
        retries=int(defaults.get("retries", DEFAULT_RETRIES)),
        small_set=int(defaults.get("small_set", DEFAULT_SMALL_SET)),
    )
    problems = []
    if rule.counts not in COUNTS_CHOICES:
        problems.append(f"counts must be one of {COUNTS_CHOICES}, got {rule.counts!r}")
    if link not in rule.bn:
        problems.append(f"{at}link variable {link!r} not in matching network")
    elif set(rule.bn.domain(link)) != {LINK_YES, LINK_NO}:
        problems.append(
            f"{at}link variable {link!r} must have domain {{yes, no}}, "
            f"got {sorted(rule.bn.domain(link))}"
        )
    a1, a2 = rule.a1_map(), rule.a2_map()
    for side, prefix, copies in (("a1", rule.a1_prefix, a1), ("a2", rule.a2_prefix, a2)):
        if not copies:
            problems.append(f"{at}no variables carry the {side} prefix {prefix!r}")
    for bn_var in sorted(a1.keys() & a2.keys()):
        problems.append(f"{at}{bn_var!r} carries both the a1 and the a2 prefix")
    if rule.retries < 1:
        problems.append("retries must be at least 1")
    if rule.small_set < 0:
        problems.append("small_set must be non-negative")
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


def _class_ids(store: PopulationStore, engine: Engine, copies: Mapping[str, str]) -> np.ndarray:
    """Per agent, its combination of labels of the attributes ``copies``
    reads, numbered over the copies' domains; an agent with a label outside
    them falls in the extra last class.  Numbered by Horner's rule, the
    first copy's label most significant."""
    ids, outside = np.zeros(len(store), dtype=np.intp), np.zeros(len(store), dtype=bool)
    for bn_var, attribute in copies.items():
        j, index = store.column(attribute), engine.value_index[bn_var]
        code = np.array([index.get(label, -1) for label in store.labels[j]])[store.codes[:, j]]
        ids, outside = ids * len(engine.domains[bn_var]) + code, outside | (code < 0)
    ids[outside] = math.prod(len(engine.domains[bn_var]) for bn_var in copies)
    return ids


class ClassTables(NamedTuple):
    """One homophily rule over one store's agents, by class.

    An agent's a1 (a2) class numbers its labels of the attributes the rule
    copies on side 1 (2); the extra last class holds the agents with a label
    outside the matching network's domain and admits nothing.  c1's box is
    the product of its supports (rule_supports), so it may admit classes
    whose compatibility is 0.  ``rows[c1]``, for each member class that
    takes turns, holds its box classes in ascending order, their
    compatibility p(link = yes | both classes' labels), 0 where those labels
    have probability 0 together, and the running sum of p(c1's labels, c2's
    labels, link = yes) over the box: inverting it draws a prototype's a2
    class.
    """

    a1_class: np.ndarray
    a2_class: np.ndarray
    rows: dict[int, tuple[list[int], list[float], list[float]]]


def rule_supports(rule: HomophilyRule, engine: Engine) -> tuple[tuple, np.ndarray]:
    """What the rule can link, from its network alone, by one small
    elimination per a2 copy: ``supports[k][c1]`` marks the labels of the
    k-th a2 copy that are possible with a1 class c1's labels and link =
    yes, and ``members[c1]`` holds when each label of c1 is possible with
    link = yes.  No a1 class is a member exactly when the rule is vacuous:
    p(link = yes) = 0.  HomophilyRule.supports keeps it for validate and
    run."""
    a1 = rule.a1_map()
    dims1 = tuple(len(engine.domains[v]) for v in a1)
    yes = {rule.link_variable: LINK_YES}
    supports = tuple(
        (engine.joint((*a1, copy), yes) > 0.0).reshape(-1, len(engine.domains[copy]))
        for copy in rule.a2_map()
    )
    possible = supports[0].any(axis=1).reshape(dims1)
    members = np.append(functools.reduce(np.logical_and.outer, [
        possible.any(axis=tuple(b for b in range(len(dims1)) if b != a)) for a in range(len(dims1))
    ]).ravel(), False)
    return supports, members


def class_tables(
    rule: HomophilyRule, engine: Engine, store: PopulationStore, seekers: np.ndarray
) -> ClassTables:
    """Each agent's classes, and a row for each member class of an agent of
    ``seekers``, whose values come from one query at the rows' class pairs."""
    a1, a2 = rule.a1_map(), rule.a2_map()
    dims1 = tuple(len(engine.domains[v]) for v in a1)
    supports, members = rule.supports
    dims2 = tuple(support.shape[1] for support in supports)
    a1_class = _class_ids(store, engine, a1)
    turns = distinct(a1_class[seekers])
    turns = turns[members[turns]]
    # Each row's box, class by class in ascending order: the partial class
    # numbers of the copies so far, each extended by the copy's labels.
    row, c2 = np.arange(len(turns)), np.zeros(len(turns), dtype=np.intp)
    for support, size in zip(supports, dims2):
        entry, label = np.nonzero(support[turns[row]])
        row, c2 = row[entry], c2[entry] * size + label
    codes = zip((*a1, *a2), (*np.unravel_index(turns[row], dims1), *np.unravel_index(c2, dims2)))
    joint = engine.joint_at(dict(codes), rule.link_variable)
    p_yes = joint[:, engine.value_index[rule.link_variable][LINK_YES]]
    total = joint.sum(axis=1)
    compat = np.divide(p_yes, total, out=np.zeros_like(total), where=total > 0.0).tolist()
    c2, p_yes = c2.tolist(), p_yes.tolist()
    ends = np.cumsum(np.bincount(row, minlength=len(turns))).tolist()
    rows = {}
    for c1, start, end in zip(turns.tolist(), [0, *ends], ends):
        rows[c1] = c2[start:end], compat[start:end], list(accumulate(p_yes[start:end]))
    return ClassTables(a1_class, _class_ids(store, engine, a2), rows)


class ClassBuckets:
    """The agents a homophily rule may still pick, grouped by a2 class.

    One buffer holds them all: class c owns ``ids[start[c]:start[c] +
    size[c]]``, in no particular order, and ``where[agent]`` is the agent's
    index in ``ids``, or -1 when it is in no bucket.  Per agent they are
    int64 arrays, per class lists: a slot reads a few entries, cheaper than
    the fixed cost of a numpy call.
    """

    def __init__(self, a2_class: np.ndarray, classes: int, open_ids: np.ndarray):
        ids = open_ids[np.argsort(a2_class[open_ids], kind="stable")]
        size = np.bincount(a2_class[ids], minlength=classes)
        where = np.full(len(a2_class), -1, dtype=np.int64)
        where[ids] = np.arange(len(ids))
        self.a2_class, self.ids, self.where = (
            array("q", x.astype(np.int64, copy=False).tobytes()) for x in (a2_class, ids, where))
        self.size, self.start = size.tolist(), (np.cumsum(size) - size).tolist()

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

    def available(self, agents: list[int], box: list[int]) -> tuple[list[int], list[int]]:
        """Per class of the ascending ``box``, the number of its agents not in
        ``agents``; and the agents of ``agents`` that are in a bucket."""
        available = [self.size[c] for c in box]
        taken = [a for a in agents if self.where[a] >= 0]
        for a in taken:
            k = bisect.bisect_left(box, self.a2_class[a])
            if k < len(box) and box[k] == self.a2_class[a]:
                available[k] -= 1
        return available, taken

    def pick(self, c: int, k: int, taken: list[int]) -> int:
        """The agent at index k of class c's bucket once the agents of
        ``taken`` (each in a bucket) are skipped."""
        i = self.start[c] + k
        for skipped in sorted(self.where[a] for a in taken if self.a2_class[a] == c):
            if skipped > i:
                break
            i += 1
        return self.ids[i]


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
    link_type, counts_a1, counts_a2 = rule.link_type, rule.counts != "a2", rule.counts != "a1"
    left = store.remaining(link_type)  # refuses an unknown type
    supports, member_class = rule.supports
    if not member_class.any():  # a cell with link = yes makes its a1 class a member
        return RuleReport(rule.link_type, "homophily", vacuous=True)
    seekers = np.flatnonzero(left > 0) if counts_a1 else np.arange(len(store))
    tables = class_tables(rule, Engine(rule.bn), store, seekers)
    open_ids = np.flatnonzero(left > 0) if counts_a2 else np.arange(len(store))
    classes = math.prod(support.shape[1] for support in supports) + 1
    buckets = ClassBuckets(tables.a2_class, classes, open_ids)
    members = seekers[member_class[tables.a1_class[seekers]]]
    demand = store.demand[link_type]
    # Summed as Python ints: an int64 sum of large demands wraps.
    demand_total = sum(left[members].tolist()) if counts_a1 else len(members)
    turns = array("q", members[rng.permutation(len(members))].tobytes())
    draws = Draws(rng)  # the rule's later draws: rng is not used again
    random, integers = draws.random, draws.integers
    a1_class = array("q", tables.a1_class.tobytes())
    retries, small_set = rule.retries, max(rule.small_set, 1)
    partners_of, record_link = store.partners_of, store.record_link
    available_of, pick, remove = buckets.available, buckets.pick, buckets.remove
    prototype_links = fallback_links = rejections = orphans = 0

    for a1 in turns:
        box, compat, cdf = tables.rows[a1_class[a1]]
        # Only a1's own links change its demand during its turn.
        for _ in range(demand[a1] if counts_a1 else 1):
            available, taken = available_of([a1, *partners_of(a1)], box)
            k = None
            if sum(available) >= small_set:
                # Prototype: up to ``retries`` a2 classes drawn from p(a2
                # class | c1, link = yes), one uniform each, until one has
                # an available agent.  c1's box is not empty, so cdf[-1] > 0.
                for _ in range(retries):
                    j = bisect.bisect_right(cdf, random() * cdf[-1])
                    if available[j]:
                        k = j
                        break
            if k is not None:
                prototype_links += 1
            else:
                # Fallback: uniform draws of available agents without
                # replacement, each kept with probability compat / its
                # largest value over them, run by class: a draw's class is
                # picked by its undrawn count, which a rejection lowers.
                undrawn = available[:]  # the pick still reads ``available``
                top = max((x for x, n in zip(compat, undrawn) if n > 0), default=0.0)
                for total in range(sum(undrawn) if top > 0.0 else 0, 0, -1):
                    j = bisect.bisect_right(list(accumulate(undrawn)), integers(total))
                    if compat[j] > 0.0 and random() < compat[j] / top:
                        k = j
                        break
                    rejections += 1
                    undrawn[j] -= 1
                if k is None:
                    orphans += 1
                    break
                fallback_links += 1
            a2 = pick(box[k], integers(available[k]), taken)
            record_link(
                a1, a2, link_type,
                count_source=counts_a1, count_target=counts_a2, enforce_demand=True,
            )
            if counts_a2:
                for agent in (a1, a2) if counts_a1 else (a2,):
                    if demand[agent] == 0:
                        remove(agent)

    # Without side 1 counted a turn has one slot: an orphan is exactly an
    # agent left without a link.
    unfulfilled = sum(store.remaining(link_type, members).tolist()) if counts_a1 else orphans
    return RuleReport(
        link_type, "homophily", demand_total, prototype_links + fallback_links, unfulfilled,
        prototype_links, fallback_links, rejections, orphans,
    )
