"""Discrete Bayesian networks with finite domains and dense CPTs.

Networks are described in a line-oriented text format (UTF-8, ``#`` starts a
comment anywhere on a line):

    variable <name> { <v1>, <v2>, ... }
    cpt <child> { <p1>, <p2>, ... }                 # root: one unprefixed row
    cpt <child> | <parent1>, <parent2>, ... {
        <pv1>, <pv2>, ... : <p1>, <p2>, ...         # one row per parent combo
    }

Probabilities are decimal literals in the child's domain order.  Parent
combinations may appear in any order but must be complete.  Value labels are
opaque strings compared by exact match: "15-19" and "village2" are plain
labels, never numbers.

Every text format is read from ``numbered_lines``, one stream of (line
number, text) pairs; a cpt block takes the text after ``{`` as its first row
and pulls rows from that stream up to one that ends with ``}``.
"""
from __future__ import annotations

import bisect
import codecs
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping

# Rows whose probabilities sum to within this of 1 are accepted; anything
# further off is a validation failure.
ROW_SUM_TOLERANCE = 1e-9
# Below this the row is left untouched so that parse/serialize round-trips
# are stable; between the two thresholds the row is renormalized.
_ROW_SUM_EXACT = 1e-12

Evidence = Mapping[str, str]


class BnError(Exception):
    """Base class for Bayesian-network errors."""


class BnSyntaxError(BnError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class BnValidationError(BnError):
    def __init__(self, violations: list["Violation"]):
        super().__init__(
            "invalid network:\n" + "\n".join(f"  - {v}" for v in violations)
        )
        self.violations = violations


class BnCycleError(BnError):
    """The parent graph has a cycle; ``cycle`` walks it child to parent and
    ends where it starts."""

    def __init__(self, cycle: list[str]):
        super().__init__("cycle through " + " -> ".join(cycle))
        self.cycle = cycle


@dataclass(frozen=True)
class Variable:
    """A named variable with an ordered, finite domain of value labels."""

    name: str
    domain: tuple[str, ...]


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table: one row per full parent combination.

    Rows map a tuple of parent values (in ``parents`` order) to a probability
    vector over the child's domain order.  Root variables have ``parents=()``
    and a single row keyed by the empty tuple.
    """

    child: str
    parents: tuple[str, ...]
    rows: dict[tuple[str, ...], tuple[float, ...]]


@dataclass(eq=False)
class BayesianNetwork:
    """Immutable network: variables plus exactly one CPT per variable.

    Equality is identity; compare serialized forms when structural equality
    is needed.  Instances are safe for concurrent reads once constructed.
    """

    variables: tuple[Variable, ...]
    cpts: dict[str, Cpt]
    _by_name: dict[str, Variable] = field(init=False, repr=False)

    def __post_init__(self):
        self._by_name = {v.name: v for v in self.variables}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def variable(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def domain(self, name: str) -> tuple[str, ...]:
        return self.variable(name).domain

    def parents(self, name: str) -> tuple[str, ...]:
        cpt = self.cpts.get(name)
        return cpt.parents if cpt is not None else ()

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


@dataclass(frozen=True)
class Violation:
    """One broken invariant, locating the variable and row concerned."""

    variable: str
    location: str
    problem: str

    def __str__(self) -> str:
        if self.location:
            return f"{self.variable} [{self.location}]: {self.problem}"
        return f"{self.variable}: {self.problem}"


def _normalize_row(probs: list[float]) -> tuple[float, ...] | None:
    """Return the row normalized to sum 1, or None when beyond tolerance."""
    total = math.fsum(probs)
    if abs(total - 1.0) > ROW_SUM_TOLERANCE:
        return None
    if abs(total - 1.0) > _ROW_SUM_EXACT:
        return tuple(p / total for p in probs)
    return tuple(probs)


# ---------------------------------------------------------------------------
# Parsing


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line that is not blank once its ``#``
    comment is gone, numbered from 1; the stream every text format reads."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def key_values(tokens: list[str], allowed: set[str], what: str, error: Callable) -> dict[str, str]:
    """The ``key=value`` tokens of a plan line or a matching header, by key;
    raises ``error(message)`` for a token without ``=``, a key outside
    ``allowed`` or a key given twice.  ``what`` names the line in messages."""
    out = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise error(f"bad {what} token {token!r}")
        if key not in allowed:
            raise error(f"unknown {what} option {key!r}")
        if key in out:
            raise error(f"duplicate {what} option {key!r}")
        out[key] = value
    return out


def _split_labels(text: str, lineno: int, what: str) -> list[str]:
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise BnSyntaxError(f"empty {what} in list", lineno)
    return parts


def _parse_probs(text: str, lineno: int) -> list[float]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            out.append(float(tok))
        except ValueError:
            raise BnSyntaxError(
                f"expected probability, got {tok!r}", lineno,
                column=text.find(tok) + 1,
            ) from None
    return out


def parse_bn(text: str) -> BayesianNetwork:
    """Parse and validate a network document.

    Raises BnSyntaxError on malformed input (with line/column),
    BnValidationError when the parsed network breaks an invariant.
    """
    return read_network(numbered_lines(text))


def _parse_row(row: str, lineno: int) -> tuple[tuple[str, ...], list[float], int]:
    """A cpt row: parent values up to its first colon, if any, then probabilities."""
    if ":" in row:
        combo_part, _, prob_part = row.partition(":")
        combo = tuple(_split_labels(combo_part.strip(), lineno, "value"))
    else:
        combo, prob_part = (), row
    return combo, _parse_probs(prob_part.strip(), lineno), lineno


def read_network(lines: Iterator[tuple[int, str]]) -> BayesianNetwork:
    """parse_bn on a stream of numbered lines (see ``numbered_lines``)."""
    variables: dict[str, Variable] = {}  # by name, in declaration order
    raw_cpts: list[tuple[str, tuple[str, ...], list, int]] = []

    for lineno, line in lines:
        if line.startswith("variable "):
            body = line[len("variable "):].strip()
            if "{" not in body or not body.endswith("}"):
                raise BnSyntaxError("expected 'variable <name> { ... }'", lineno)
            name, _, rest = body.partition("{")
            name = name.strip()
            if not name or any(c in name for c in ",{}|:"):
                raise BnSyntaxError(f"bad variable name {name!r}", lineno)
            if name in variables:
                raise BnSyntaxError(f"duplicate variable {name!r}", lineno)
            labels = _split_labels(rest.rstrip("}").strip(), lineno, "value")
            variables[name] = Variable(name, tuple(labels))

        elif line.startswith("cpt "):
            header = line[len("cpt "):]
            if "{" not in header:
                raise BnSyntaxError("expected '{' in cpt declaration", lineno)
            head, _, first = header.partition("{")
            head = head.strip()
            if "|" in head:
                child, _, parent_part = head.partition("|")
                child = child.strip()
                parents = tuple(_split_labels(parent_part.strip(), lineno, "parent"))
            else:
                child = head
                parents = ()
            if not child:
                raise BnSyntaxError("missing child variable in cpt", lineno)

            rows = []
            for row_line, row in itertools.chain([(lineno, first.strip())], lines):
                body = row.removesuffix("}").strip()
                if body:
                    try:
                        rows.append(_parse_row(body, row_line))
                    except BnSyntaxError:
                        # a declaration, not a row: the block was never closed
                        if row.startswith(("variable ", "cpt ")):
                            raise BnSyntaxError(f"unterminated cpt for {child!r}", lineno) from None
                        raise
                if row.endswith("}"):
                    break
            else:
                raise BnSyntaxError(f"unterminated cpt for {child!r}", lineno)
            raw_cpts.append((child, parents, rows, lineno))

        else:
            word = line.split()[0]
            raise BnSyntaxError(f"expected 'variable' or 'cpt', got {word!r}", lineno)

    cpts: dict[str, Cpt] = {}
    for child, parents, rows, lineno in raw_cpts:
        if child not in variables:
            raise BnSyntaxError(f"cpt for undeclared variable {child!r}", lineno)
        if child in cpts:
            raise BnSyntaxError(f"duplicate cpt for {child!r}", lineno)
        for p in parents:
            if p not in variables:
                raise BnSyntaxError(
                    f"cpt for {child!r} references undeclared parent {p!r}", lineno
                )
        table: dict[tuple[str, ...], tuple[float, ...]] = {}
        for combo, probs, row_line in rows:
            if len(combo) != len(parents):
                raise BnSyntaxError(
                    f"row for {child!r} gives {len(combo)} parent values, "
                    f"expected {len(parents)}", row_line
                )
            for value, parent in zip(combo, parents):
                if value not in variables[parent].domain:
                    raise BnSyntaxError(
                        f"{value!r} not in domain of parent {parent!r}", row_line
                    )
            if combo in table:
                raise BnSyntaxError(
                    f"duplicate row {combo} for {child!r}", row_line
                )
            table[combo] = tuple(probs)
        cpts[child] = Cpt(child, parents, table)

    bn = BayesianNetwork(tuple(variables.values()), cpts)
    violations = validate(bn)
    if violations:
        raise BnValidationError(violations)
    # Normalize rows after validation so serialized probabilities are clean.
    for name, cpt in list(bn.cpts.items()):
        fixed = {c: _normalize_row(list(p)) for c, p in cpt.rows.items()}
        bn.cpts[name] = Cpt(cpt.child, cpt.parents, fixed)
    return bn


def read_text(path, error: type[Exception] = BnError) -> str:
    """A UTF-8 file's text, without a leading byte-order mark.  A directory,
    a path through a file, or bytes that do not decode raise ``error``
    naming the path."""
    try:
        data = Path(path).read_bytes()
    except (IsADirectoryError, NotADirectoryError) as exc:
        raise error(f"{path}: {exc.strerror}") from None
    body = data.removeprefix(codecs.BOM_UTF8)
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start + len(data) - len(body)
        raise error(f"{path}: not UTF-8 text at byte {at}") from None


def load_bn(path) -> BayesianNetwork:
    return parse_bn(read_text(path))


# ---------------------------------------------------------------------------
# Validation


def validate(bn: BayesianNetwork) -> list[Violation]:
    """Check every invariant; an empty list means the network is valid.

    Violations are data, not failures: callers decide whether to raise.
    """
    out: list[Violation] = []
    names = [v.name for v in bn.variables]
    dupes = {n for n in names if names.count(n) > 1}
    for n in sorted(dupes):
        out.append(Violation(n, "", "declared more than once"))
    declared = set(names)

    for v in bn.variables:
        if not v.domain:
            out.append(Violation(v.name, "", "empty domain"))
        if len(set(v.domain)) != len(v.domain):
            out.append(Violation(v.name, "", "duplicate values in domain"))

    for v in bn.variables:
        if v.name not in bn.cpts:
            out.append(Violation(v.name, "", "no cpt declared"))
    for child in bn.cpts:
        if child not in declared:
            out.append(Violation(child, "", "cpt for undeclared variable"))

    for child, cpt in bn.cpts.items():
        if child not in declared:
            continue
        undeclared = [p for p in cpt.parents if p not in declared]
        out += (Violation(child, "", f"undeclared parent {p!r}") for p in undeclared)
        if undeclared:
            continue
        domain = bn.variable(child).domain
        expected = set(itertools.product(*(bn.variable(p).domain for p in cpt.parents)))
        got = set(cpt.rows)
        for combo in sorted(expected - got):
            out.append(Violation(child, _combo_str(combo), "missing row"))
        for combo in sorted(got - expected):
            out.append(Violation(child, _combo_str(combo), "row for impossible parent values"))
        for combo, probs in sorted(cpt.rows.items()):
            loc = _combo_str(combo)
            if len(probs) != len(domain):
                out.append(Violation(
                    child, loc,
                    f"{len(probs)} probabilities for domain of size {len(domain)}",
                ))
                continue
            if any(not 0.0 <= p <= 1.0 for p in probs):  # also refuses NaN
                out.append(Violation(child, loc, "probability outside [0, 1]"))
                continue
            if _normalize_row(list(probs)) is None:
                out.append(Violation(
                    child, loc, f"row sums to {math.fsum(probs)!r}, expected 1",
                ))

    try:
        topological_order(bn)
    except BnCycleError as exc:
        out.append(Violation(exc.cycle[0], "", str(exc)))
    return out


def _combo_str(combo: tuple[str, ...]) -> str:
    return ", ".join(combo) if combo else "prior"


# ---------------------------------------------------------------------------
# Topological order


def topological_order(bn: BayesianNetwork) -> list[str]:
    """Variables ordered so parents precede children.

    Deterministic: among ready variables, declaration order wins.
    Raises BnCycleError when the parent graph has a cycle.
    """
    decl = {v.name: i for i, v in enumerate(bn.variables)}
    indeg = {name: 0 for name in decl}
    children: dict[str, list[str]] = {name: [] for name in decl}
    for name in decl:
        for p in bn.parents(name):
            if p in decl:
                indeg[name] += 1
                children[p].append(name)

    ready = sorted((n for n, d in indeg.items() if d == 0), key=decl.__getitem__)
    order: list[str] = []
    while ready:
        name = ready.pop(0)
        order.append(name)
        for c in children[name]:
            indeg[c] -= 1
            if indeg[c] == 0:
                bisect.insort(ready, c, key=decl.__getitem__)
    if len(order) != len(decl):
        # Every variable left over has a parent left over: walking from one
        # to the next must come back to a variable already seen.
        walk = [next(n for n, d in indeg.items() if d)]
        while walk[-1] not in walk[:-1]:
            walk.append(next(p for p in bn.parents(walk[-1]) if indeg.get(p)))
        raise BnCycleError(walk[walk.index(walk[-1]):])
    return order


# ---------------------------------------------------------------------------
# Serialization


def serialize_bn(bn: BayesianNetwork) -> str:
    """Canonical text form: declaration order, rows in cross-product order.

    parse_bn(serialize_bn(bn)) reproduces the network exactly.
    """
    parts: list[str] = []
    for v in bn.variables:
        parts.append(f"variable {v.name} {{ {', '.join(v.domain)} }}")
    for v in bn.variables:
        cpt = bn.cpts[v.name]
        if cpt.parents:
            parts.append(f"cpt {v.name} | {', '.join(cpt.parents)} {{")
        else:
            parts.append(f"cpt {v.name} {{")
        for combo in itertools.product(*(bn.variable(p).domain for p in cpt.parents)):
            probs = ", ".join(map(repr, cpt.rows[combo]))
            if combo:
                parts.append(f"  {', '.join(combo)}: {probs}")
            else:
                parts.append(f"  {probs}")
        parts.append("}")
    return "\n".join(parts) + "\n"
