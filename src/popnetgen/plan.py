"""Generation plans: the single input file driving a full run.

Line-oriented text, ``#`` comments, paths relative to the plan file:

    population N=<int> seed=<int> attributes=<bnfile>
    linktype <name> <directed|undirected>
    rule homophily <linktype> bn=<file> [counts=<both|a1|a2>] [retries=<int>] [smallset=<int>]
    rule transitive <t3> from <t1> <t2> p=<prob> pattern=<role1>-<role2>
    interact <linktype> p=<prob>
    output <dir>                      # optional, --out overrides

Rule order is preserved and is semantically load-bearing: earlier rules win
occupied dyads.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .bn import BayesianNetwork, BnError, key_values, load_bn, numbered_lines, read_text
from .matching import HomophilyRule, MatchingError, load_matching_bn_file, validate_rule
from .population import RC_PREFIX, LinkType, PopulationError, check_population_size, link_counts
from .transitivity import TransitivityRule, parse_pattern


# Link-type names become file names (edges_<name>.csv) and report keys
# (stats.<name>.*), which these would break or shadow.  Names are compared
# without case, as a case-blind file system compares the file names.
LINK_TYPE_NAME = re.compile(r"[A-Za-z0-9_-]+")
RESERVED_LINK_TYPES = ("all", "collapsed")


def link_type_name_problem(name: str) -> str | None:
    """Why ``name`` cannot name a link type, or None when it can."""
    if not LINK_TYPE_NAME.fullmatch(name) or name.lower() in RESERVED_LINK_TYPES:
        return f"link type name {name!r} is reserved or not made of letters, digits, '_' and '-'"
    return None


class PlanError(Exception):
    pass


class PlanSyntaxError(PlanError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class HomophilyPlanRule:
    """A homophily line; validate_plan reads its matching file and its
    supports, or else the rule does when it runs.  ``options`` holds the
    counts, retries and small_set the line sets, the loader's defaults."""

    link_type: str
    bn_path: Path
    options: dict[str, object] = field(default_factory=dict)
    loaded: HomophilyRule | None = field(default=None, repr=False, compare=False)


@dataclass
class GenerationPlan:
    population_size: int
    seed: int
    attribute_bn_path: Path
    link_types: list[LinkType] = field(default_factory=list)
    rules: list[HomophilyPlanRule | TransitivityRule] = field(default_factory=list)
    interaction_weights: dict[str, float] = field(default_factory=dict)
    output_dir: Path | None = None
    base_dir: Path = Path(".")
    attribute_bn: BayesianNetwork | None = field(default=None, repr=False, compare=False)


def _number(cast, value: str, what: str, lineno: int):
    """``cast(value)``, int or float; a syntax error at ``lineno`` otherwise."""
    try:
        return cast(value)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise PlanSyntaxError(f"{what} must be {kind}, got {value!r}", lineno) from None


def parse_plan(text: str, base_dir) -> GenerationPlan:
    base = Path(base_dir)
    population = None
    link_types: list[LinkType] = []
    rules: list[HomophilyPlanRule | TransitivityRule] = []
    weights: dict[str, float] = {}
    output_dir: Path | None = None

    def syntax_error(message: str) -> PlanSyntaxError:
        return PlanSyntaxError(message, lineno)

    for lineno, line in numbered_lines(text):
        tokens = line.split()
        head = tokens[0]

        if head == "population":
            if population is not None:
                raise PlanSyntaxError("duplicate population line", lineno)
            opts = key_values(tokens[1:], {"N", "seed", "attributes"}, "population", syntax_error)
            for required in ("N", "seed", "attributes"):
                if required not in opts:
                    raise PlanSyntaxError(f"population line misses {required}=", lineno)
            population = (
                _number(int, opts["N"], "N", lineno),
                _number(int, opts["seed"], "seed", lineno),
                base / opts["attributes"],
            )
            if population[0] < 0:
                raise PlanSyntaxError("N must be non-negative", lineno)

        elif head == "linktype":
            if len(tokens) != 3 or tokens[2] not in ("directed", "undirected"):
                raise PlanSyntaxError(
                    "expected 'linktype <name> <directed|undirected>'", lineno
                )
            if problem := link_type_name_problem(tokens[1]):
                raise PlanSyntaxError(problem, lineno)
            link_types.append(LinkType(tokens[1], tokens[2] == "directed"))

        elif head == "rule":
            if len(tokens) < 3:
                raise PlanSyntaxError("incomplete rule line", lineno)
            kind = tokens[1]
            if kind == "homophily":
                allowed = {"bn", "counts", "retries", "smallset"}
                opts = key_values(tokens[3:], allowed, "homophily rule", syntax_error)
                if "bn" not in opts:
                    raise PlanSyntaxError("homophily rule misses bn=<file>", lineno)
                loader_key = {"counts": "counts", "retries": "retries", "smallset": "small_set"}
                rules.append(HomophilyPlanRule(tokens[2], base / opts.pop("bn"), {
                    loader_key[key]: value if key == "counts" else _number(int, value, key, lineno)
                    for key, value in opts.items()
                }))
            elif kind == "transitive":
                if len(tokens) < 6 or tokens[3] != "from":
                    raise PlanSyntaxError(
                        "expected 'rule transitive <t3> from <t1> <t2> p=<prob> pattern=<spec>'",
                        lineno,
                    )
                opts = key_values(tokens[6:], {"p", "pattern"}, "transitive rule", syntax_error)
                if "p" not in opts:
                    raise PlanSyntaxError("transitive rule misses p=<prob>", lineno)
                try:
                    rules.append(TransitivityRule(
                        tokens[4], tokens[5], tokens[2], _number(float, opts["p"], "p", lineno),
                        *parse_pattern(opts.get("pattern", "any-any")),
                    ))
                except ValueError as exc:
                    raise PlanSyntaxError(str(exc), lineno) from None
            else:
                raise PlanSyntaxError(f"unknown rule kind {kind!r}", lineno)

        elif head == "interact":
            if len(tokens) != 3:
                raise PlanSyntaxError("expected 'interact <linktype> p=<prob>'", lineno)
            opts = key_values(tokens[2:], {"p"}, "interact", syntax_error)
            if "p" not in opts:
                raise PlanSyntaxError("interact line misses p=<prob>", lineno)
            if tokens[1] in weights:
                raise PlanSyntaxError(f"duplicate interact line for {tokens[1]!r}", lineno)
            weights[tokens[1]] = _number(float, opts["p"], "p", lineno)

        elif head == "output":
            if len(tokens) != 2:
                raise PlanSyntaxError("expected 'output <dir>'", lineno)
            output_dir = base / tokens[1]

        else:
            raise PlanSyntaxError(f"unknown directive {head!r}", lineno)

    if population is None:
        raise PlanSyntaxError("plan misses the population line", 1)
    return GenerationPlan(
        population_size=population[0],
        seed=population[1],
        attribute_bn_path=population[2],
        link_types=link_types,
        rules=rules,
        interaction_weights=weights,
        output_dir=output_dir,
        base_dir=base,
    )


def load_plan(path) -> GenerationPlan:
    path = Path(path)
    return parse_plan(read_text(path, PlanError), path.parent)


@dataclass(frozen=True)
class PlanIssue:
    severity: str  # 'error' | 'warning'
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


def validate_plan(plan: GenerationPlan) -> list[PlanIssue]:
    """Static consistency checks; a dry run without any generation.  The
    networks it parses stay on the plan, for the run."""
    issues: list[PlanIssue] = []

    def error(msg):
        issues.append(PlanIssue("error", msg))

    def warning(msg):
        issues.append(PlanIssue("warning", msg))

    names = [lt.name for lt in plan.link_types]
    folded = [n.lower() for n in names]
    for name in sorted({n for k, n in enumerate(names) if n.lower() in folded[:k]}):
        error(f"link type {name!r} declared more than once (case ignored)")
    declared = set(names)

    attribute_bn: BayesianNetwork | None = None
    try:
        attribute_bn = plan.attribute_bn = load_bn(plan.attribute_bn_path)
    except FileNotFoundError:
        error(f"attribute network file not found: {plan.attribute_bn_path}")
    except BnError as exc:
        error(f"attribute network invalid: {exc}")

    if attribute_bn is not None:
        try:
            check_population_size(plan.population_size, len(attribute_bn.variables))
        except PopulationError as exc:
            error(str(exc))
        for variable in attribute_bn.variables:
            if variable.name == "id":
                error("attribute variable 'id' names the agent id column of agents.csv")
            if variable.name.startswith(RC_PREFIX):
                target = variable.name[len(RC_PREFIX):]
                if target not in declared:
                    warning(
                        f"required-link-count variable {variable.name!r} names "
                        f"undeclared link type {target!r}"
                    )
                try:
                    link_counts(variable.name, variable.domain)
                except PopulationError as exc:
                    error(str(exc))

    produced: set[str] = set()
    for index, rule in enumerate(plan.rules):
        where = f"rule {index + 1} ({rule.link_type})"
        if rule.link_type not in declared:
            error(f"{where}: link type not declared")
        if isinstance(rule, HomophilyPlanRule):
            try:
                loaded = load_matching_bn_file(rule.bn_path, defaults=rule.options)
            except FileNotFoundError:
                error(f"{where}: matching network file not found: {rule.bn_path}")
            except (BnError, MatchingError) as exc:
                error(f"{where}: {exc}")
            else:
                if loaded.link_type != rule.link_type:
                    warning(
                        f"{where}: matching file header names {loaded.link_type!r}"
                    )
                if attribute_bn is not None:
                    for problem in validate_rule(loaded, attribute_bn):
                        error(f"{where}: {problem}")
                rule.loaded = replace(loaded, link_type=rule.link_type)  # the run's rule
                if not rule.loaded.supports[1].any():  # no member a1 class; kept for the run
                    warning(f"{where}: link variable can never be yes (vacuous rule)")
        else:
            for needed in (rule.t1, rule.t2):
                if needed not in declared:
                    error(f"{where}: source link type {needed!r} not declared")
                elif needed not in produced:
                    warning(
                        f"{where}: {needed!r} has no earlier rule creating it"
                    )
        produced.add(rule.link_type)

    for name in sorted(plan.interaction_weights):
        if name not in declared:
            error(f"interact line names undeclared link type {name!r}")
        if not 0.0 <= plan.interaction_weights[name] <= 1.0:
            error(f"interaction probability for {name!r} outside [0, 1]")
    if plan.interaction_weights:
        # export refuses a link type that has links but no weight; a type no
        # rule produces has no links, so it needs none.
        for name in sorted(declared - set(plan.interaction_weights)):
            issue = error if name in produced else warning
            issue(f"no interaction probability for link type {name!r}")

    return issues


def build_homophily_rule(rule: HomophilyPlanRule) -> HomophilyRule:
    return rule.loaded or replace(
        load_matching_bn_file(rule.bn_path, defaults=rule.options), link_type=rule.link_type
    )
