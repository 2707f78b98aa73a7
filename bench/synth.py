"""Seeded synthetic input for the stats workload.

Writes an ``agents.csv`` / ``edges_all.csv`` pair shaped like an export of
``plans/kenya`` with as many agents: the same columns, about 1.8 links per
agent over the same six types, families inside one location, friends within
a location and age band, and a largest collapsed component of about an
eighth of the agents.  At 40,000 agents it gives about 73,000 links and a
largest component near 5,000 nodes; the real export of seed 42 has 71,994
and 5,219.  The benchmark writes it itself, so a change to the generator
cannot alter this input.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

LOCATIONS = ("village1", "village2") + tuple(f"R{i}" for i in range(1, 13))
LOCATION_P = (0.14, 0.14) + (0.06,) * 12
AGE_SLICES = ("0-14", "15-19", "20-24", "25-29", "30-34", "35-39", "40-44", "45-49", "50-54")
COLUMNS = (
    "id", "ageDetail", "gender", "ageSlices", "maritalStatus", "spatialLocation",
    "workWater", "workMarket", "RC_spouses", "RC_motherOf", "RC_friendship", "RC_colleagues",
)
TYPES = ("colleagues", "fatherOf", "friendship", "motherOf", "siblings", "spouses")
DIRECTED = {"fatherOf", "motherOf"}

HOUSEHOLD_SHARE = 0.175  # mothers per agent
FATHER_P = 0.8
CHILDREN_P = (0.15, 0.30, 0.25, 0.17, 0.13)  # 0..4 children per mother
FRIEND_DEGREE = 1.43
COLLEAGUE_GROUP_MAX = 12
COLLEAGUE_SHARE = 0.3


def synthesize(n: int, seed: int) -> tuple[list[list[str]], dict[str, list[tuple[int, int]]]]:
    """Agent rows (without the header) and links per type, both deterministic
    in (n, seed); no self links and no pair of agents linked twice."""
    rng = np.random.default_rng(seed % 2**63)
    order = [int(i) for i in rng.permutation(n)]
    gender = ["female"] * n
    age = [int(a) for a in rng.integers(0, 9, n)]
    married = ["no"] * n
    location = [LOCATIONS[int(i)] for i in rng.choice(len(LOCATIONS), n, p=LOCATION_P)]
    links: dict[str, list[tuple[int, int]]] = {t: [] for t in TYPES}
    used: set[tuple[int, int]] = set()

    def link(kind: str, a: int, b: int) -> bool:
        key = (min(a, b), max(a, b))
        if a == b or key in used:
            return False
        used.add(key)
        links[kind].append((a, b) if kind in DIRECTED else key)
        return True

    cursor = 0
    for _ in range(int(n * HOUSEHOLD_SHARE)):
        children = int(rng.choice(len(CHILDREN_P), p=CHILDREN_P))
        father = bool(rng.random() < FATHER_P)
        size = 1 + father + children
        if cursor + size > n:
            break
        members = order[cursor:cursor + size]
        cursor += size
        mother = members[0]
        age[mother] = int(rng.integers(3, 9))
        kids = members[1 + father:]
        for member in members:
            location[member] = location[mother]
        for kid in kids:
            age[kid] = int(rng.integers(0, 3))
            link("motherOf", mother, kid)
        if father:
            dad = members[1]
            gender[dad] = "male"
            age[dad] = int(rng.integers(3, 9))
            married[mother] = married[dad] = "yes"
            link("spouses", mother, dad)
            for kid in kids:
                link("fatherOf", dad, kid)
        for i, a in enumerate(kids):
            for b in kids[i + 1:]:
                link("siblings", a, b)
    for single in order[cursor:]:
        gender[single] = "male" if rng.random() < 0.5 else "female"

    groups: dict[tuple[str, int], list[int]] = {}
    for agent in range(n):
        groups.setdefault((location[agent], age[agent]), []).append(agent)
    degree = [0] * n
    for key in sorted(groups):
        members = groups[key]
        if len(members) < 2:
            continue
        wanted = int(len(members) * FRIEND_DEGREE / 2)
        pairs = rng.integers(0, len(members), (2 * wanted, 2))
        made = 0
        for i, j in pairs:
            a, b = members[int(i)], members[int(j)]
            if made < wanted and degree[a] < 3 and degree[b] < 3 and link("friendship", a, b):
                degree[a] += 1
                degree[b] += 1
                made += 1

    by_location: dict[str, list[int]] = {}
    for agent in order:
        if age[agent] >= 3 and rng.random() < COLLEAGUE_SHARE:
            by_location.setdefault(location[agent], []).append(agent)
    for key in sorted(by_location):
        workers = by_location[key]
        start = 0
        while start < len(workers):
            size = int(rng.integers(2, COLLEAGUE_GROUP_MAX + 1))
            team = workers[start:start + size]
            start += size
            for a, b in zip(team, team[1:]):
                link("colleagues", a, b)

    rows = []
    for agent in range(n):
        rows.append([
            str(agent), str(age[agent] * 6 + int(rng.integers(0, 6))), gender[agent],
            AGE_SLICES[age[agent]], married[agent], location[agent],
            "yes" if rng.random() < 0.3 else "no", "yes" if rng.random() < 0.3 else "no",
            "1" if married[agent] == "yes" else "0", "0", "3", "2",
        ])
    for kind in links:
        links[kind].sort()
    return rows, links


def write_stats_input(directory: Path, n: int, seed: int) -> dict[str, int]:
    """Write agents.csv and edges_all.csv; returns the link count per type."""
    rows, links = synthesize(n, seed)
    directory.mkdir(parents=True, exist_ok=True)
    agent_lines = [",".join(COLUMNS)] + [",".join(r) for r in rows]
    (directory / "agents.csv").write_text("\n".join(agent_lines) + "\n", encoding="utf-8")
    edge_lines = ["source,target,type"]
    for kind in sorted(links):
        edge_lines += [f"{a},{b},{kind}" for a, b in links[kind]]
    (directory / "edges_all.csv").write_text("\n".join(edge_lines) + "\n", encoding="utf-8")
    return {kind: len(pairs) for kind, pairs in links.items()}
