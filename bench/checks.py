"""Output checks, written against the file formats and independent of popnetgen.

Each check returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every file in a directory, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


def read_report(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def read_edges(path: Path) -> list[tuple[str, ...]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [tuple(line.split(",")) for line in lines[1:] if line]


def check_links(
    edges_all: list[tuple[str, ...]], by_type: dict[str, list[tuple[str, ...]]]
) -> list[str]:
    """No self links, no pair of agents linked twice across all types, and the
    per-type edge files add up to the collapsed one."""
    problems = []
    pairs: Counter = Counter()
    for source, target, _ in edges_all:
        if source == target:
            problems.append(f"self link on agent {source}")
        pairs[frozenset((source, target))] += 1
    repeated = [tuple(sorted(p)) for p, c in pairs.items() if c > 1]
    if repeated:
        problems.append(f"{len(repeated)} repeated pairs, e.g. {repeated[0]}")
    combined = Counter((s, t, kind) for kind, rows in by_type.items() for s, t in rows)
    if combined != Counter(edges_all):
        problems.append("edges_<type>.csv files do not add up to edges_all.csv")
    return problems


def check_degrees(
    agents_csv: Path, edges_all: list[tuple[str, ...]], counted_types: list[str]
) -> list[str]:
    """For types whose rule counts both endpoints, no agent's degree exceeds
    its RC_<type> column."""
    lines = agents_csv.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    problems = []
    for kind in counted_types:
        column = header.index(f"RC_{kind}")
        required = [int(line.split(",")[column]) for line in lines[1:] if line]
        degree: Counter = Counter()
        for source, target, link_type in edges_all:
            if link_type == kind:
                degree[int(source)] += 1
                degree[int(target)] += 1
        over = [a for a, d in degree.items() if d > required[a]]
        if over:
            problems.append(f"{len(over)} agents exceed RC_{kind}, e.g. agent {over[0]}")
    return problems


def check_counts(
    stats: dict[str, str], nodes: int, edges_all: list[tuple[str, ...]], types: list[str]
) -> list[str]:
    """The reported node and link counts, collapsed and per type, match the
    network they describe."""
    expected = {"stats.collapsed.nodes": nodes, "stats.collapsed.links": len(edges_all)}
    per_type = Counter(kind for _, _, kind in edges_all)
    for kind in types:
        expected[f"stats.{kind}.links"] = per_type[kind]
    problems = []
    for key, value in expected.items():
        if stats.get(key) != str(value):
            problems.append(f"{key} = {stats.get(key)}, expected {value}")
    return problems


def check_generate_output(
    out_dir: Path, population: int, types: list[str], counted_types: list[str]
) -> list[str]:
    """Every structural check on one generate output directory."""
    needed = ["agents.csv", "edges_all.csv", "report.txt"] + [f"edges_{t}.csv" for t in types]
    missing = [name for name in needed if not (out_dir / name).is_file()]
    if missing:
        return [f"missing output files: {', '.join(missing)}"]
    edges_all = read_edges(out_dir / "edges_all.csv")
    by_type = {t: read_edges(out_dir / f"edges_{t}.csv") for t in types}
    problems = check_links(edges_all, by_type)
    problems += check_degrees(out_dir / "agents.csv", edges_all, counted_types)
    problems += check_counts(read_report(out_dir / "report.txt"), population, edges_all, types)
    return problems


def check_identical(first: dict[str, str], other: dict[str, str]) -> list[str]:
    """Two runs of one workload and seed wrote the same files, byte for byte."""
    if first == other:
        return []
    differing = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
    return [f"output differs between runs of one seed: {', '.join(differing)}"]
