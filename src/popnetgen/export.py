"""Serialize populations, networks, reports, and the learned network.

All outputs are canonically ordered (type, then source, then target), so a
rerun with the same plan and seed is byte-identical.  Edge files carry the
declared direction semantics; undirected links are stored lowest-id first.
"""
from __future__ import annotations

import hashlib
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bn import BayesianNetwork, read_text, serialize_bn
from .matching import RuleReport
from .metrics import ErrorReport, NetworkStats, stats_report_entries
from .population import PopulationStore, agents_csv

DOT_NODE_LIMIT = 2_000
MANIFEST = "manifest.txt"


class ExportError(Exception):
    pass


class MissingWeightError(ExportError):
    pass


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _sorted(ends: np.ndarray) -> np.ndarray:
    """Rows ordered by source, then target."""
    return ends[np.lexsort((ends[:, 1], ends[:, 0]))]


def output_names(link_types: Iterable[str], agents: int, interaction: bool) -> list[str]:
    """Names of the files a run of ``agents`` agents writes into its output
    directory, ``interaction.csv`` only with ``interaction``."""
    names = ["agents.csv", *(f"edges_{name}.csv" for name in link_types), "edges_all.csv"]
    if agents <= DOT_NODE_LIMIT:
        names.append("network.dot")
    if interaction:
        names.append("interaction.csv")
    names.append("report.txt")
    if agents > 0:
        names.append("learned_attributes.bn")
    return [*names, MANIFEST]


def export_network(store: PopulationStore, out_dir) -> list[Path]:
    """Write the agent table, one edge list per declared type, the collapsed
    edge list, and (for small networks) a dot-style description."""
    out = Path(out_dir)
    written: list[Path] = []

    written.append(_write(out / "agents.csv", agents_csv(store)))

    layers = {name: _sorted(store.edges(name)).tolist() for name in sorted(store.link_types)}
    for name, ends in layers.items():
        lines = ["source,target", *(f"{s},{t}" for s, t in ends)]
        written.append(_write(out / f"edges_{name}.csv", "\n".join(lines) + "\n"))

    lines = ["source,target,type"]
    for name, ends in layers.items():
        lines += (f"{s},{t},{name}" for s, t in ends)
    written.append(_write(out / "edges_all.csv", "\n".join(lines) + "\n"))

    if len(store) <= DOT_NODE_LIMIT:
        dot = [f"// multiplex network: {len(store)} agents"]
        for name, ends in layers.items():
            arrow = "->" if store.link_types[name].directed else "--"
            dot += (f"{s} {arrow} {t} [type={name}]" for s, t in ends)
        written.append(_write(out / "network.dot", "\n".join(dot) + "\n"))
    return written


def export_interaction_network(
    store: PopulationStore, weights: Mapping[str, float], out_dir
) -> Path:
    """interaction.csv: one row per link, probability taken from its type."""
    for name, p in weights.items():
        if not 0.0 <= p <= 1.0:
            raise ExportError(f"interaction probability for {name!r} outside [0, 1]")
    names = list(store.link_types)
    counts = [len(store.edges(name)) for name in names]
    missing = sorted(name for name, m in zip(names, counts) if m and name not in weights)
    if missing:
        raise MissingWeightError(
            "no interaction probability for link types: " + ", ".join(missing)
        )
    # No two links share a dyad, so (source, target) orders every row.
    ends = store.edges()
    order = np.lexsort((ends[:, 1], ends[:, 0]))
    kinds = np.repeat(np.arange(len(names)), counts)[order].tolist()
    lines = ["source,target,probability"]
    for (s, t), k in zip(ends[order].tolist(), kinds):
        lines.append(f"{s},{t},{weights[names[k]]!r}")
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


def _digest(path: Path) -> str:
    if path.is_dir():
        raise ExportError(f"{path}: Is a directory")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_manifest(out_dir) -> dict[str, str] | None:
    """Digest by bare file name from the directory's manifest; None without
    one.  Entries with a directory part are left out."""
    try:
        text = read_text(Path(out_dir) / MANIFEST, ExportError)
    except FileNotFoundError:
        return None
    entries = (line.partition("  ") for line in text.splitlines())
    return {
        name: digest for digest, _, name in entries
        if name == Path(name).name and name not in ("", "..")
    }


def export_manifest(files: Sequence[Path], out_dir) -> Path:
    """manifest.txt: one '<sha256>  <name>' line per file, by name, in the
    format ``sha256sum -c manifest.txt`` checks."""
    out = Path(out_dir)
    names = sorted(path.relative_to(out).as_posix() for path in files)
    lines = [f"{_digest(out / name)}  {name}" for name in names]
    return _write(out / MANIFEST, "".join(line + "\n" for line in lines))


def manifest_link_types(directory) -> set[str]:
    """Link types that the directory's manifest declares by its
    ``edges_<type>.csv`` entries, once ``agents.csv`` and ``edges_all.csv``
    match their digests there; none without a manifest."""
    manifest = read_manifest(directory)
    if manifest is None:
        return set()
    for name in ("agents.csv", "edges_all.csv"):
        if manifest.get(name) != _digest(Path(directory) / name):
            raise ExportError(f"{Path(directory) / name}: does not match its digest in {MANIFEST}")
    return {
        name[len("edges_"):-len(".csv")] for name in manifest
        if name.startswith("edges_") and name.endswith(".csv") and name != "edges_all.csv"
    }


# ---------------------------------------------------------------------------
# Readers (round-tripping and the stats-only command)


def _fields(path, lineno: int, raw: str, count: int) -> list[str]:
    fields = raw.split(",")
    if len(fields) != count:
        raise ExportError(f"{path}:{lineno}: expected {count} fields, got {len(fields)}")
    return fields


def _agent_id(path, lineno: int, token: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ExportError(f"{path}:{lineno}: agent id {token!r} is not an integer") from None
    if not -2**63 <= value < 2**63:
        raise ExportError(f"{path}:{lineno}: agent id {token!r} does not fit in 64 bits")
    return value


def _body(path, header: str) -> list[str]:
    """Lines below the header, the header checked."""
    lines = read_text(path, ExportError).splitlines()
    if not lines or lines[0] != header:
        raise ExportError(f"{path}: expected {header!r} header")
    return lines[1:]


def read_edges_all(path) -> tuple[np.ndarray, np.ndarray]:
    """Links of a collapsed edge list: an int64 (m, 2) array of (source,
    target) rows and the type of each row.

    The body is split once and the id columns converted with ``int`` in
    bulk; a line that is not three fields, or an id that ``int`` refuses or
    int64 cannot hold, sends the file through the line-by-line reader,
    which names the first bad line."""
    lines = [raw for raw in _body(path, "source,target,type") if raw]
    if not set(map(str.count, lines, repeat(","))) <= {2}:
        return _read_edges_all_by_line(path)
    fields = ",".join(lines).split(",")
    try:
        sources, targets = (
            np.fromiter(map(int, fields[k::3]), dtype=np.int64, count=len(lines))
            for k in (0, 1)
        )
    except (ValueError, OverflowError):
        return _read_edges_all_by_line(path)
    names = fields[2::3]
    # Coding the names first is several times faster than np.array(names).
    code = {name: k for k, name in enumerate(dict.fromkeys(names))}
    kinds = np.fromiter(map(code.__getitem__, names), dtype=np.intp, count=len(lines))
    return np.stack([sources, targets], axis=1), np.array(list(code), dtype=str)[kinds]


def _read_edges_all_by_line(path) -> tuple[np.ndarray, np.ndarray]:
    """read_edges_all one line at a time, raising on the first bad line."""
    ends, types = [], []
    for lineno, raw in enumerate(_body(path, "source,target,type"), start=2):
        if raw:
            source, target, name = _fields(path, lineno, raw, 3)
            ends.append((_agent_id(path, lineno, source), _agent_id(path, lineno, target)))
            types.append(name)
    return np.array(ends, dtype=np.int64).reshape(-1, 2), np.array(types, dtype=str)


def read_agents(path) -> int:
    """Number of agents in an agent table; every row has one field per
    column and row k carries id k."""
    lines = read_text(path, ExportError).splitlines()
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