"""Serialize populations, networks, reports, and the learned network.

All outputs are canonically ordered (type, then source, then target), so a
rerun with the same plan and seed is byte-identical.  Edge files carry the
declared direction semantics; undirected links are stored lowest-id first.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .bn import BayesianNetwork, serialize_bn
from .matching import RuleReport
from .metrics import ErrorReport, NetworkStats, stats_report_entries
from .population import Link, PopulationStore, agents_csv

DOT_NODE_LIMIT = 2_000


class ExportError(Exception):
    pass


class MissingWeightError(ExportError):
    pass


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _sorted_links(links: Iterable[Link]) -> list[Link]:
    return sorted(links, key=lambda l: (l.type, l.source, l.target))


def export_network(store: PopulationStore, out_dir) -> list[Path]:
    """Write the agent table, one edge list per declared type, the collapsed
    edge list, and (for small networks) a dot-style description."""
    out = Path(out_dir)
    written: list[Path] = []

    written.append(_write(out / "agents.csv", agents_csv(store)))

    for name in sorted(store.link_types):
        lines = ["source,target"]
        for link in _sorted_links(store.links(name)):
            lines.append(f"{link.source},{link.target}")
        written.append(_write(out / f"edges_{name}.csv", "\n".join(lines) + "\n"))

    lines = ["source,target,type"]
    for link in _sorted_links(store.links()):
        lines.append(f"{link.source},{link.target},{link.type}")
    written.append(_write(out / "edges_all.csv", "\n".join(lines) + "\n"))

    if len(store) <= DOT_NODE_LIMIT:
        dot = [f"// multiplex network: {len(store)} agents"]
        for link in _sorted_links(store.links()):
            arrow = "->" if store.link_types[link.type].directed else "--"
            dot.append(f"{link.source} {arrow} {link.target} [type={link.type}]")
        written.append(_write(out / "network.dot", "\n".join(dot) + "\n"))
    return written


def export_interaction_network(
    store: PopulationStore, weights: Mapping[str, float], out_dir
) -> Path:
    """interaction.csv: one row per link, probability taken from its type."""
    for name, p in weights.items():
        if not 0.0 <= p <= 1.0:
            raise ExportError(f"interaction probability for {name!r} outside [0, 1]")
    present = {link.type for link in store.links()}
    missing = sorted(present - set(weights))
    if missing:
        raise MissingWeightError(
            "no interaction probability for link types: " + ", ".join(missing)
        )
    lines = ["source,target,probability"]
    for link in sorted(store.links(), key=lambda l: (l.source, l.target, l.type)):
        lines.append(f"{link.source},{link.target},{weights[link.type]!r}")
    return _write(Path(out_dir) / "interaction.csv", "\n".join(lines) + "\n")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_text(
    error_report: ErrorReport | None,
    stats: Sequence[NetworkStats],
    rule_reports: Sequence[RuleReport],
    header: Mapping[str, object] | None = None,
) -> str:
    """Flat ``key = value`` report; floats use repr so parsing is lossless."""
    entries: list[tuple[str, object]] = []
    for key, value in (header or {}).items():
        entries.append((key, value))
    for i, report in enumerate(rule_reports):
        prefix = f"rule.{i}"
        entries += [
            (f"{prefix}.kind", report.kind),
            (f"{prefix}.type", report.link_type),
            (f"{prefix}.demand", report.demand_total),
            (f"{prefix}.links", report.links_created),
            (f"{prefix}.unfulfilled", report.unfulfilled),
            (f"{prefix}.prototype_links", report.prototype_links),
            (f"{prefix}.fallback_links", report.fallback_links),
            (f"{prefix}.fallback_rejections", report.fallback_rejections),
            (f"{prefix}.orphan_agents", report.orphan_agents),
        ]
        if report.vacuous:
            entries.append((f"{prefix}.vacuous", True))
    if error_report is not None:
        entries.append(("error.distribution", error_report.distribution_error))
        entries.append(("error.unobserved_rows", error_report.unobserved_rows))
        for name in sorted(error_report.matching_errors):
            entries.append((f"error.matching.{name}", error_report.matching_errors[name]))
    for s in stats:
        entries += stats_report_entries(s)
    return "".join(f"{k} = {_format_value(v)}\n" for k, v in entries)


def parse_report(text: str) -> dict[str, object]:
    """Inverse of report_text for the value types it emits."""
    out: dict[str, object] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" = ")
        if not _:
            raise ExportError(f"bad report line: {raw!r}")
        out[key] = _parse_value(value)
    return out


def _parse_value(token: str) -> object:
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def export_reports(
    error_report: ErrorReport | None,
    stats: Sequence[NetworkStats],
    rule_reports: Sequence[RuleReport],
    learned_bn: BayesianNetwork | None,
    out_dir,
    header: Mapping[str, object] | None = None,
) -> list[Path]:
    """Write the key-value report and the re-learned attribute network."""
    out = Path(out_dir)
    written = [_write(out / "report.txt", report_text(error_report, stats, rule_reports, header))]
    if learned_bn is not None:
        written.append(_write(out / "learned_attributes.bn", serialize_bn(learned_bn)))
    return written


# ---------------------------------------------------------------------------
# Readers (round-tripping and the stats-only command)


def _fields(path, lineno: int, raw: str, count: int) -> list[str]:
    fields = raw.split(",")
    if len(fields) != count:
        raise ExportError(f"{path}:{lineno}: expected {count} fields, got {len(fields)}")
    return fields


def _agent_id(path, lineno: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ExportError(f"{path}:{lineno}: agent id {token!r} is not an integer") from None


def read_edges_all(path) -> list[Link]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "source,target,type":
        raise ExportError(f"{path}: expected 'source,target,type' header")
    out = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw:
            continue
        source, target, name = _fields(path, lineno, raw, 3)
        out.append(Link(_agent_id(path, lineno, source), _agent_id(path, lineno, target), name))
    return out


def read_edge_file(path, link_type: str) -> list[Link]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "source,target":
        raise ExportError(f"{path}: expected 'source,target' header")
    out = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw:
            continue
        source, target = _fields(path, lineno, raw, 2)
        out.append(
            Link(_agent_id(path, lineno, source), _agent_id(path, lineno, target), link_type)
        )
    return out


def read_agents(path) -> int:
    """Number of agents in an agent table; every row has one field per
    column and row k carries id k."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ExportError(f"{path}: empty agent table")
    columns = lines[0].split(",")
    if "id" not in columns:
        raise ExportError(f"{path}: no 'id' column")
    at = columns.index("id")
    count = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw:
            continue
        agent_id = _fields(path, lineno, raw, len(columns))[at]
        if agent_id != str(count):
            raise ExportError(f"{path}:{lineno}: agent id {agent_id!r}, expected {count}")
        count += 1
    return count