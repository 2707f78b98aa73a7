"""Serialize populations, networks, reports, and the learned network.

All outputs are canonically ordered (type, then source, then target), so a
rerun with the same plan and seed is byte-identical.  Edge files carry the
declared direction semantics; undirected links are stored lowest-id first.

Every file goes through one write point, ``_write``, which opens it once and
writes its bytes as they come.  The CSV and dot files come from
``csvscan.format_rows`` a block of rows at a time, so that no file is ever
held whole, nor any row as a Python object.
"""
from __future__ import annotations

import hashlib
import re
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bn import BayesianNetwork, read_text, serialize_bn
from .csvscan import format_rows, header, scan
from .matching import RuleReport
from .metrics import ErrorReport, NetworkStats
from .plan import LINK_TYPE_NAME, RESERVED_LINK_TYPES
from .population import RC_PREFIX, PopulationStore

DOT_NODE_LIMIT = 2_000
MANIFEST = "manifest.txt"


class ExportError(Exception):
    pass


class MissingWeightError(ExportError):
    pass


def _write(path: Path, *chunks: Iterable) -> Path:
    """Write the bytes-like items of each of ``chunks`` to ``path``, in
    order, each as it comes; an OSError that names the path on failure."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            for chunk in chain.from_iterable(chunks):
                fh.write(chunk)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def _order(ends: np.ndarray, agents: int) -> np.ndarray:
    """The order of link rows by source, then target: no two links share a
    dyad, so each row's ``source * agents + target`` key is unique."""
    return np.argsort(ends[:, 0] * agents + ends[:, 1])


# The names of the files a run writes, manifest.txt aside (see output_names);
# an earlier run's manifest can remove no other file.
RUN_FILE = re.compile(
    r"agents\.csv|edges_all\.csv|network\.dot|interaction\.csv|report\.txt|learned_attributes\.bn"
    rf"|edges_(?P<type>(?!(?i:{'|'.join(RESERVED_LINK_TYPES)})\.){LINK_TYPE_NAME.pattern})\.csv"
)


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


def _agents(store: PopulationStore) -> tuple[list[bytes], Iterator[np.ndarray]]:
    """Header and rows of the agent table: id, attribute columns, then RC_
    columns, one row per agent.  RC_ columns print the required count,
    ``str(int(label))``."""
    order = sorted(range(len(store.columns)), key=lambda j: store.columns[j].startswith(RC_PREFIX))
    header = ",".join(["id", *(store.columns[j] for j in order)]) + "\n"
    parts = [np.arange(len(store))]
    for j in order:
        rc = store.columns[j].startswith(RC_PREFIX)
        labels = [str(int(label)) if rc else label for label in store.labels[j]]
        parts.append((store.codes[:, j], [f",{label}".encode() for label in labels]))
    return [header.encode()], format_rows([*parts, b"\n"])


def export_network(store: PopulationStore, out_dir) -> list[Path]:
    """Write the agent table, one edge list per declared type, the collapsed
    edge list, and (for small networks) a dot-style description."""
    out = Path(out_dir)
    written = [_write(out / "agents.csv", *_agents(store))]
    layers = {name: store.edges(name) for name in sorted(store.link_types)}
    layers = {name: ends[_order(ends, len(store))] for name, ends in layers.items()}
    for name, ends in layers.items():
        rows = format_rows([ends[:, 0], b",", ends[:, 1], b"\n"])
        written.append(_write(out / f"edges_{name}.csv", [b"source,target\n"], rows))
    written.append(_write(out / "edges_all.csv", [b"source,target,type\n"], *(
        format_rows([ends[:, 0], b",", ends[:, 1], f",{name}\n".encode()])
        for name, ends in layers.items()
    )))
    if len(store) <= DOT_NODE_LIMIT:
        header = f"// multiplex network: {len(store)} agents\n".encode()
        written.append(_write(out / "network.dot", [header], *(
            format_rows([ends[:, 0], b" -> " if store.link_types[name].directed else b" -- ",
                         ends[:, 1], f" [type={name}]\n".encode()])
            for name, ends in layers.items()
        )))
    return written


def export_interaction_network(
    store: PopulationStore, weights: Mapping[str, float], out_dir
) -> Path:
    """interaction.csv: one row per link, probability taken from its type."""
    for name, p in weights.items():
        if not 0.0 <= p <= 1.0:
            raise ExportError(f"interaction probability for {name!r} outside [0, 1]")
    names = list(store.link_types)
    per_type = [store.edges(name) for name in names]
    counts = list(map(len, per_type))
    missing = sorted(name for name, m in zip(names, counts) if m and name not in weights)
    if missing:
        raise MissingWeightError(
            "no interaction probability for link types: " + ", ".join(missing)
        )
    ends = np.concatenate([np.empty((0, 2), np.int64), *per_type])
    order = _order(ends, len(store))
    kinds = np.repeat(np.arange(len(names)), counts)[order]
    probability = [f",{weights.get(name)!r}\n".encode() for name in names]
    rows = format_rows([ends[order, 0], b",", ends[order, 1], (kinds, probability)])
    return _write(Path(out_dir) / "interaction.csv", [b"source,target,probability\n"], rows)


def report_text(
    error_report: ErrorReport | None,
    stats: Sequence[NetworkStats],
    rule_reports: Sequence[RuleReport],
    header: Mapping[str, object] | None = None,
) -> str:
    """Flat ``key = value`` report, booleans as ``true``/``false``; floats
    print as repr, so parsing is lossless.  A scope's path length is written
    only where it is defined."""
    entries: list[tuple[str, object]] = list((header or {}).items())
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
        keys = ["nodes", "links", "density", "average_degree", "clustering", "components",
                "largest_component"]
        if s.average_path_length is not None:
            keys += ["average_path_length", "path_length_estimated"]
        entries += [(f"stats.{s.scope}.{key}", getattr(s, key)) for key in keys]
    return "".join(f"{k} = {str(v).lower() if isinstance(v, bool) else v}\n" for k, v in entries)


def export_reports(text: str, learned_bn: BayesianNetwork | None, out_dir) -> list[Path]:
    """Write the key-value report ``text`` (see ``report_text``) and the
    re-learned attribute network."""
    out = Path(out_dir)
    written = [_write(out / "report.txt", [text.encode()])]
    if learned_bn is not None:
        written.append(_write(out / "learned_attributes.bn", [serialize_bn(learned_bn).encode()]))
    return written


def _digest(path: Path) -> str:
    if path.is_dir():
        raise ExportError(f"{path}: Is a directory")
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def read_manifest(out_dir) -> dict[str, str] | None:
    """Digest by name from the directory's manifest; None without one.  Only
    names that ``RUN_FILE`` matches are ever acted on."""
    try:
        text = read_text(Path(out_dir) / MANIFEST, ExportError)
    except FileNotFoundError:
        return None
    entries = (line.partition("  ") for line in text.splitlines())
    return {name: digest for digest, _, name in entries}


def export_manifest(files: Sequence[Path], out_dir) -> Path:
    """manifest.txt: one '<sha256>  <name>' line per file, by name, in the
    format ``sha256sum -c manifest.txt`` checks."""
    out = Path(out_dir)
    names = sorted(path.relative_to(out).as_posix() for path in files)
    lines = [f"{_digest(out / name)}  {name}" for name in names]
    return _write(out / MANIFEST, ["".join(line + "\n" for line in lines).encode()])


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
    matches = filter(None, map(RUN_FILE.fullmatch, manifest))
    return {match["type"] for match in matches if match["type"]}


# ---------------------------------------------------------------------------
# Readers (round-tripping and the stats-only command): ``csvscan.scan``
# parses the rows, and its first refusal names the file's line.


def read_edges_all(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Links of a collapsed edge list: an int64 (m, 2) array of (source,
    target) rows, each row's type as an index into the type names, and the
    names in the order they first appear."""
    text = read_text(path, ExportError)
    columns, start = header(text)
    if columns != ["source", "target", "type"]:
        raise ExportError(f"{path}: expected 'source,target,type' header")
    try:
        return scan(text, start, 3, (0, 1), 2)
    except ValueError as exc:
        raise ExportError(f"{path}:{exc}") from None


def read_agents(path) -> int:
    """Number of agents in an agent table; every row has one field per
    column and row k carries id k."""
    text = read_text(path, ExportError)
    if not text:
        raise ExportError(f"{path}: empty agent table")
    columns, start = header(text)
    if "id" not in columns:
        raise ExportError(f"{path}: no 'id' column")
    try:
        return len(scan(text, start, len(columns), (columns.index("id"),), numbered=True)[0])
    except ValueError as exc:
        raise ExportError(f"{path}:{exc}") from None
