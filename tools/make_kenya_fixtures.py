#!/usr/bin/env python3
"""Regenerate the bundled example plans under plans/.

The demographic numbers follow published Kenyan statistics where available
(marital status by gender and age slice); everything else is calibrated so
link demand stays below compatible supply, except for the deliberately
inconsistent plan whose spouse demand can never be met.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KENYA = ROOT / "plans" / "kenya"
INCONSISTENT = ROOT / "plans" / "inconsistent"
WIDE = ROOT / "plans" / "wide"

SLICES = ["0-14", "15-19", "20-24", "25-29", "30-34", "35-39", "40-44", "45-49", "50-54"]
SLICE_BOUNDS = [(0, 14), (15, 19), (20, 24), (25, 29), (30, 34), (35, 39), (40, 44), (45, 49), (50, 54)]
AGES = list(range(55))
LOCATIONS = ["village1", "village2"] + [f"R{i}" for i in range(1, 13)]

# p(maritalStatus | gender, ageSlices), domain order (no, yes)
MARITAL = {
    ("male", "0-14"): (1.0, 0.0),
    ("male", "15-19"): (0.981, 0.019),
    ("male", "20-24"): (0.816, 0.184),
    ("male", "25-29"): (0.381, 0.619),
    ("male", "30-34"): (0.207, 0.793),
    ("male", "35-39"): (0.107, 0.893),
    ("male", "40-44"): (0.114, 0.886),
    ("male", "45-49"): (0.057, 0.943),
    ("male", "50-54"): (0.062, 0.938),
    ("female", "0-14"): (1.0, 0.0),
    ("female", "15-19"): (0.506, 0.494),
    ("female", "20-24"): (0.311, 0.689),
    ("female", "25-29"): (0.261, 0.739),
    ("female", "30-34"): (0.241, 0.759),
    ("female", "35-39"): (0.268, 0.732),
    ("female", "40-44"): (0.279, 0.721),
    ("female", "45-49"): (0.279, 0.721),
    ("female", "50-54"): (0.279, 0.721),
}

# linearly thinning age pyramid: weight (55 - age), total 1540
PYRAMID = {age: Fraction(55 - age, 1540) for age in AGES}
SLICE_MARGINAL = {
    label: float(sum(PYRAMID[a] for a in range(lo, hi + 1)))
    for label, (lo, hi) in zip(SLICES, SLICE_BOUNDS)
}

LOCATION_PRIOR = {loc: (0.14 if loc.startswith("village") else 0.06) for loc in LOCATIONS}


def marginal_yes(rate):
    """p(yes) of an attribute whose p(yes | gender, age slice) is ``rate``."""
    return sum(0.5 * SLICE_MARGINAL[s] * rate(g, s) for g in ("male", "female") for s in SLICES)


def work_rate(male_rate, female_rate):
    return lambda g, s: 0.02 if s == "0-14" else (male_rate if g == "male" else female_rate)


MARRIED = marginal_yes(lambda g, s: MARITAL[(g, s)][1])
WATER = marginal_yes(work_rate(0.40, 0.25))
MARKET = marginal_yes(work_rate(0.25, 0.40))


def fmt(values):
    return ", ".join(repr(float(v)) for v in values)


def variable_line(name, domain):
    return f"variable {name} {{ {', '.join(domain)} }}"


def root_cpt(name, probs):
    return f"cpt {name} {{ {fmt(probs)} }}"


def table_cpt(name, parents, rows):
    lines = [f"cpt {name} | {', '.join(parents)} {{"]
    for combo, probs in rows:
        lines.append(f"  {', '.join(combo)}: {fmt(probs)}")
    lines.append("}")
    return "\n".join(lines)


def bool_node(name, parents, domains, predicate):
    """Deterministic yes/no node over the parent cross product."""
    rows = []
    for combo in itertools.product(*domains):
        yes = 1.0 if predicate(*combo) else 0.0
        rows.append((combo, (yes, 1.0 - yes)))
    return table_cpt(name, parents, rows)


def slice_index(label):
    return SLICES.index(label)


def count_rows(spec):
    """spec: mapping count -> probability; emits a vector over the domain."""
    domain_size = max(spec) + 1
    return tuple(spec.get(i, 0.0) for i in range(domain_size))


# ---------------------------------------------------------------------------
# Attribute network


def attributes_bn() -> str:
    parts = ["# Agent attributes and per-type required link counts."]
    parts.append(variable_line("ageDetail", [str(a) for a in AGES]))
    parts.append(variable_line("gender", ["male", "female"]))
    parts.append(variable_line("ageSlices", SLICES))
    parts.append(variable_line("maritalStatus", ["no", "yes"]))
    parts.append(variable_line("spatialLocation", LOCATIONS))
    parts.append(variable_line("workWater", ["yes", "no"]))
    parts.append(variable_line("workMarket", ["yes", "no"]))
    parts.append(variable_line("RC_spouses", ["0", "1", "2", "3"]))
    parts.append(variable_line("RC_motherOf", ["0", "1", "2", "3", "4"]))
    parts.append(variable_line("RC_friendship", ["0", "1", "2", "3"]))
    parts.append(variable_line("RC_colleagues", ["0", "1", "2"]))

    parts.append(root_cpt("ageDetail", [PYRAMID[a] for a in AGES]))
    parts.append(root_cpt("gender", [0.5, 0.5]))

    rows = []
    for age in AGES:
        label = next(l for l, (lo, hi) in zip(SLICES, SLICE_BOUNDS) if lo <= age <= hi)
        rows.append(((str(age),), tuple(1.0 if s == label else 0.0 for s in SLICES)))
    parts.append(table_cpt("ageSlices", ["ageDetail"], rows))

    rows = [
        ((g, s), MARITAL[(g, s)])
        for g in ("male", "female")
        for s in SLICES
    ]
    parts.append(table_cpt("maritalStatus", ["gender", "ageSlices"], rows))

    parts.append(root_cpt("spatialLocation", [LOCATION_PRIOR[l] for l in LOCATIONS]))

    def work_rows(male_rate, female_rate):
        rows = []
        for g in ("male", "female"):
            for s in SLICES:
                rate = 0.02 if s == "0-14" else (male_rate if g == "male" else female_rate)
                rows.append(((g, s), (rate, 1.0 - rate)))
        return rows

    parts.append(table_cpt("workWater", ["gender", "ageSlices"], work_rows(0.40, 0.25)))
    parts.append(table_cpt("workMarket", ["gender", "ageSlices"], work_rows(0.25, 0.40)))

    # Spouse demand: married men want 1.10 wives on average (some polygyny),
    # married women accept exactly one husband.  This keeps total male demand
    # at roughly 80% of female supply.
    rows = []
    for g in ("male", "female"):
        for ms in ("no", "yes"):
            if ms == "no":
                probs = count_rows({0: 1.0})
            elif g == "male":
                probs = count_rows({1: 0.92, 2: 0.06, 3: 0.02})
            else:
                probs = count_rows({1: 1.0})
            rows.append(((g, ms), probs + (0.0,) * (4 - len(probs))))
    parts.append(table_cpt("RC_spouses", ["gender", "maritalStatus"], rows))

    # Children demanded by mothers; agents aged 0-14 instead carry capacity 1,
    # which is what caps how many mother links a child can receive.
    rows = []
    for g in ("male", "female"):
        for ms in ("no", "yes"):
            for s in SLICES:
                if s == "0-14":
                    spec = {1: 1.0}
                elif g == "male":
                    spec = {0: 1.0}
                elif s == "15-19":
                    spec = {0: 0.7, 1: 0.3} if ms == "yes" else {0: 1.0}
                elif ms == "no":
                    spec = {0: 0.6, 1: 0.3, 2: 0.1}
                elif s == "20-24":
                    spec = {0: 0.2, 1: 0.4, 2: 0.3, 3: 0.1}
                elif s == "25-29":
                    spec = {0: 0.1, 1: 0.25, 2: 0.35, 3: 0.2, 4: 0.1}
                else:
                    spec = {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.25, 4: 0.15}
                probs = count_rows(spec)
                rows.append(((g, ms, s), probs + (0.0,) * (5 - len(probs))))
    parts.append(table_cpt("RC_motherOf", ["gender", "maritalStatus", "ageSlices"], rows))

    rows = []
    for s in SLICES:
        if s == "0-14":
            probs = (0.10, 0.35, 0.35, 0.20)
        else:
            probs = (0.20, 0.45, 0.25, 0.10)
        rows.append(((s,), probs))
    parts.append(table_cpt("RC_friendship", ["ageSlices"], rows))

    rows = []
    for ww in ("yes", "no"):
        for wm in ("yes", "no"):
            if ww == "no" and wm == "no":
                probs = (1.0, 0.0, 0.0)
            else:
                probs = (0.25, 0.50, 0.25)
            rows.append(((ww, wm), probs))
    parts.append(table_cpt("RC_colleagues", ["workWater", "workMarket"], rows))

    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Matching networks


def copies(attrs, prefix):
    """variable + cpt lines replicating attribute marginals/structure."""
    lines = []
    for attr in attrs:
        if attr == "gender":
            lines.append(variable_line(f"{prefix}gender", ["male", "female"]))
        elif attr == "ageSlices":
            lines.append(variable_line(f"{prefix}ageSlices", SLICES))
        elif attr == "maritalStatus":
            lines.append(variable_line(f"{prefix}maritalStatus", ["no", "yes"]))
        elif attr == "spatialLocation":
            lines.append(variable_line(f"{prefix}spatialLocation", LOCATIONS))
        elif attr in ("workWater", "workMarket"):
            lines.append(variable_line(f"{prefix}{attr}", ["yes", "no"]))
    for attr in attrs:
        if attr == "gender":
            lines.append(root_cpt(f"{prefix}gender", [0.5, 0.5]))
        elif attr == "ageSlices":
            lines.append(root_cpt(f"{prefix}ageSlices", [SLICE_MARGINAL[s] for s in SLICES]))
        elif attr == "maritalStatus":
            rows = [
                ((g, s), MARITAL[(g, s)])
                for g in ("male", "female")
                for s in SLICES
            ]
            lines.append(table_cpt(
                f"{prefix}maritalStatus",
                [f"{prefix}gender", f"{prefix}ageSlices"],
                rows,
            ))
        elif attr == "spatialLocation":
            lines.append(root_cpt(f"{prefix}spatialLocation", [LOCATION_PRIOR[l] for l in LOCATIONS]))
        elif attr in ("workWater", "workMarket"):
            # marginal over gender and age of the corresponding attribute CPT
            yes = WATER if attr == "workWater" else MARKET
            lines.append(root_cpt(f"{prefix}{attr}", [yes, 1.0 - yes]))
    return lines


def spouses_bn() -> str:
    parts = ["matching spouses link=linkSpouses a1=a1_ a2=a2_ counts=both"]
    attrs = ["gender", "ageSlices", "maritalStatus", "spatialLocation"]
    parts += copies(attrs, "a1_")
    parts += copies(attrs, "a2_")
    parts.append(variable_line("genderOk", ["yes", "no"]))
    parts.append(variable_line("bothMarried", ["yes", "no"]))
    parts.append(variable_line("ageOk", ["yes", "no"]))
    parts.append(variable_line("sameLocation", ["yes", "no"]))
    parts.append(variable_line("linkSpouses", ["yes", "no"]))
    parts.append(bool_node(
        "genderOk", ["a1_gender", "a2_gender"],
        [["male", "female"]] * 2,
        lambda g1, g2: g1 == "male" and g2 == "female",
    ))
    parts.append(bool_node(
        "bothMarried", ["a1_maritalStatus", "a2_maritalStatus"],
        [["no", "yes"]] * 2,
        lambda m1, m2: m1 == "yes" and m2 == "yes",
    ))
    # the wife is the husband's age or up to two slices younger, never a child
    parts.append(bool_node(
        "ageOk", ["a1_ageSlices", "a2_ageSlices"],
        [SLICES, SLICES],
        lambda s1, s2: slice_index(s2) >= 1
        and slice_index(s1) - 2 <= slice_index(s2) <= slice_index(s1),
    ))
    parts.append(bool_node(
        "sameLocation", ["a1_spatialLocation", "a2_spatialLocation"],
        [LOCATIONS, LOCATIONS],
        lambda l1, l2: l1 == l2,
    ))
    parts.append(bool_node(
        "linkSpouses", ["genderOk", "bothMarried", "ageOk", "sameLocation"],
        [["yes", "no"]] * 4,
        lambda *xs: all(x == "yes" for x in xs),
    ))
    return "\n".join(parts) + "\n"


def mother_bn() -> str:
    parts = ["matching motherOf link=linkMotherOf a1=a1_ a2=a2_ counts=both"]
    parts += copies(["gender", "ageSlices", "spatialLocation"], "a1_")
    parts += copies(["ageSlices", "spatialLocation"], "a2_")
    parts.append(variable_line("motherOk", ["yes", "no"]))
    parts.append(variable_line("childOk", ["yes", "no"]))
    parts.append(variable_line("sameLocation", ["yes", "no"]))
    parts.append(variable_line("linkMotherOf", ["yes", "no"]))
    parts.append(bool_node(
        "motherOk", ["a1_gender", "a1_ageSlices"],
        [["male", "female"], SLICES],
        lambda g, s: g == "female" and slice_index(s) >= 1,
    ))
    parts.append(bool_node(
        "childOk", ["a2_ageSlices"], [SLICES], lambda s: s == "0-14",
    ))
    parts.append(bool_node(
        "sameLocation", ["a1_spatialLocation", "a2_spatialLocation"],
        [LOCATIONS, LOCATIONS],
        lambda l1, l2: l1 == l2,
    ))
    parts.append(bool_node(
        "linkMotherOf", ["motherOk", "childOk", "sameLocation"],
        [["yes", "no"]] * 3,
        lambda *xs: all(x == "yes" for x in xs),
    ))
    return "\n".join(parts) + "\n"


def friendship_bn() -> str:
    parts = ["matching friendship link=linkFriendship a1=a1_ a2=a2_ counts=both"]
    attrs = ["gender", "ageSlices", "spatialLocation"]
    parts += copies(attrs, "a1_")
    parts += copies(attrs, "a2_")
    parts.append(variable_line("sameGender", ["yes", "no"]))
    parts.append(variable_line("sameSlice", ["yes", "no"]))
    parts.append(variable_line("sameLocation", ["yes", "no"]))
    parts.append(variable_line("linkFriendship", ["yes", "no"]))
    parts.append(bool_node(
        "sameGender", ["a1_gender", "a2_gender"],
        [["male", "female"]] * 2,
        lambda g1, g2: g1 == g2,
    ))
    parts.append(bool_node(
        "sameSlice", ["a1_ageSlices", "a2_ageSlices"],
        [SLICES, SLICES],
        lambda s1, s2: s1 == s2,
    ))
    parts.append(bool_node(
        "sameLocation", ["a1_spatialLocation", "a2_spatialLocation"],
        [LOCATIONS, LOCATIONS],
        lambda l1, l2: l1 == l2,
    ))
    parts.append(bool_node(
        "linkFriendship", ["sameGender", "sameSlice", "sameLocation"],
        [["yes", "no"]] * 3,
        lambda *xs: all(x == "yes" for x in xs),
    ))
    return "\n".join(parts) + "\n"


def colleagues_bn() -> str:
    parts = ["matching colleagues link=linkColleagues a1=a1_ a2=a2_ counts=both"]
    attrs = ["workWater", "workMarket", "spatialLocation"]
    parts += copies(attrs, "a1_")
    parts += copies(attrs, "a2_")
    parts.append(variable_line("bothWater", ["yes", "no"]))
    parts.append(variable_line("bothMarket", ["yes", "no"]))
    parts.append(variable_line("sharedWork", ["yes", "no"]))
    parts.append(variable_line("sameLocation", ["yes", "no"]))
    parts.append(variable_line("linkColleagues", ["yes", "no"]))
    parts.append(bool_node(
        "bothWater", ["a1_workWater", "a2_workWater"],
        [["yes", "no"]] * 2,
        lambda w1, w2: w1 == "yes" and w2 == "yes",
    ))
    parts.append(bool_node(
        "bothMarket", ["a1_workMarket", "a2_workMarket"],
        [["yes", "no"]] * 2,
        lambda w1, w2: w1 == "yes" and w2 == "yes",
    ))
    parts.append(bool_node(
        "sharedWork", ["bothWater", "bothMarket"],
        [["yes", "no"]] * 2,
        lambda b1, b2: b1 == "yes" or b2 == "yes",
    ))
    parts.append(bool_node(
        "sameLocation", ["a1_spatialLocation", "a2_spatialLocation"],
        [LOCATIONS, LOCATIONS],
        lambda l1, l2: l1 == l2,
    ))
    parts.append(bool_node(
        "linkColleagues", ["sharedWork", "sameLocation"],
        [["yes", "no"]] * 2,
        lambda *xs: all(x == "yes" for x in xs),
    ))
    return "\n".join(parts) + "\n"


# The attributes a similarity rule may copy: domain and marginal of each in
# the attribute network.
SIMILARITY_ATTRIBUTES = {
    "gender": (["male", "female"], [0.5, 0.5]),
    "ageDetail": ([str(a) for a in AGES], [PYRAMID[a] for a in AGES]),
    "spatialLocation": (LOCATIONS, [LOCATION_PRIOR[l] for l in LOCATIONS]),
    "maritalStatus": (["no", "yes"], [1.0 - MARRIED, MARRIED]),
    "workWater": (["yes", "no"], [WATER, 1.0 - WATER]),
    "workMarket": (["yes", "no"], [MARKET, 1.0 - MARKET]),
}
AGE_GAP = 2  # friends' ages differ by at most two years
REQUIRED = ("gender", "ageDetail", "spatialLocation")


def alike(attr, x, y):
    return abs(int(x) - int(y)) <= AGE_GAP if attr == "ageDetail" else x == y


def similarity_bn(attrs) -> str:
    """A friendship rule that copies ``attrs`` on both sides.  One
    deterministic node per attribute says whether the two agents are alike
    in it.  Friends are alike in each copied attribute of REQUIRED; each
    other attribute they share adds to p(link = yes), which is 1 when they
    share them all."""
    parts = ["matching friendship link=linkFriendship a1=a1_ a2=a2_ counts=both"]
    nodes = [f"alike_{attr}" for attr in attrs]
    for prefix in ("a1_", "a2_"):
        parts += [variable_line(prefix + attr, SIMILARITY_ATTRIBUTES[attr][0]) for attr in attrs]
    parts += [variable_line(name, ["yes", "no"]) for name in nodes + ["linkFriendship"]]
    for prefix in ("a1_", "a2_"):
        parts += [root_cpt(prefix + attr, SIMILARITY_ATTRIBUTES[attr][1]) for attr in attrs]
    for attr, name in zip(attrs, nodes):
        domain = SIMILARITY_ATTRIBUTES[attr][0]
        parts.append(bool_node(
            name, [f"a1_{attr}", f"a2_{attr}"], [domain, domain],
            lambda x, y, attr=attr: alike(attr, x, y),
        ))
    optional = [attr not in REQUIRED for attr in attrs]
    rows = []
    for combo in itertools.product(["yes", "no"], repeat=len(attrs)):
        shared = [x == "yes" for x in combo]
        if all(same or opt for same, opt in zip(shared, optional)):
            yes = (1 + sum(s for s, opt in zip(shared, optional) if opt)) / (1 + sum(optional))
        else:
            yes = 0.0
        rows.append((combo, (yes, 1.0 - yes)))
    parts.append(table_cpt("linkFriendship", nodes, rows))
    return "\n".join(parts) + "\n"


WIDE_ATTRIBUTES = [
    "gender", "ageDetail", "spatialLocation", "maritalStatus", "workWater", "workMarket",
]

WIDE_PLAN = """\
# Friendship over six copied attributes: 12,320 classes a side, more than
# any rule of the Kenya plan, on the Kenya attribute network.
population N=2000 seed=42 attributes=../kenya/attributes.bn

linktype friendship undirected

rule homophily friendship bn=friendship.bn counts=both
"""


KENYA_PLAN = """\
# Demonstration plan: family, friendship and workplace layers.
population N=10000 seed=42 attributes=attributes.bn

linktype spouses undirected
linktype motherOf directed
linktype fatherOf directed
linktype siblings undirected
linktype friendship undirected
linktype colleagues undirected

rule homophily spouses bn=spouses.bn counts=both
rule homophily motherOf bn=motherOf.bn counts=both
rule transitive fatherOf from spouses motherOf p=1.0 pattern=any-source
rule transitive siblings from motherOf motherOf p=1.0 pattern=source-source
rule homophily friendship bn=friendship.bn counts=both
rule homophily colleagues bn=colleagues.bn counts=both

interact spouses p=0.8
interact motherOf p=0.6
interact fatherOf p=0.5
interact siblings p=0.55
interact friendship p=0.3
interact colleagues p=0.25
"""


# ---------------------------------------------------------------------------
# Deliberately inconsistent plan: men want two wives, women accept one.


def inconsistent_attributes() -> str:
    parts = [
        "# Spouse demand cannot be met: men require two wives, women accept one.",
        variable_line("gender", ["male", "female"]),
        variable_line("RC_spouses", ["0", "1", "2"]),
        root_cpt("gender", [0.5, 0.5]),
        table_cpt("RC_spouses", ["gender"], [
            (("male",), (0.0, 0.0, 1.0)),
            (("female",), (0.0, 1.0, 0.0)),
        ]),
    ]
    return "\n".join(parts) + "\n"


def inconsistent_spouses_bn() -> str:
    parts = ["matching spouses link=linkSpouses a1=a1_ a2=a2_ counts=both"]
    parts.append(variable_line("a1_gender", ["male", "female"]))
    parts.append(variable_line("a2_gender", ["male", "female"]))
    parts.append(variable_line("linkSpouses", ["yes", "no"]))
    parts.append(root_cpt("a1_gender", [0.5, 0.5]))
    parts.append(root_cpt("a2_gender", [0.5, 0.5]))
    parts.append(bool_node(
        "linkSpouses", ["a1_gender", "a2_gender"],
        [["male", "female"]] * 2,
        lambda g1, g2: g1 == "male" and g2 == "female",
    ))
    return "\n".join(parts) + "\n"


INCONSISTENT_PLAN = """\
# Every man requires two wives but every woman accepts a single husband,
# so roughly half of the male demand must stay unfulfilled at any size.
population N=2000 seed=7 attributes=attributes.bn
linktype spouses undirected
rule homophily spouses bn=spouses.bn counts=both
"""


def main():
    KENYA.mkdir(parents=True, exist_ok=True)
    INCONSISTENT.mkdir(parents=True, exist_ok=True)
    WIDE.mkdir(parents=True, exist_ok=True)
    (KENYA / "attributes.bn").write_text(attributes_bn())
    (KENYA / "spouses.bn").write_text(spouses_bn())
    (KENYA / "motherOf.bn").write_text(mother_bn())
    (KENYA / "friendship.bn").write_text(friendship_bn())
    (KENYA / "colleagues.bn").write_text(colleagues_bn())
    (KENYA / "kenya.plan").write_text(KENYA_PLAN)
    (INCONSISTENT / "attributes.bn").write_text(inconsistent_attributes())
    (INCONSISTENT / "spouses.bn").write_text(inconsistent_spouses_bn())
    (INCONSISTENT / "inconsistent.plan").write_text(INCONSISTENT_PLAN)
    (WIDE / "friendship.bn").write_text(similarity_bn(WIDE_ATTRIBUTES))
    (WIDE / "wide.plan").write_text(WIDE_PLAN)
    for path in sorted(KENYA.iterdir()) + sorted(INCONSISTENT.iterdir()) + sorted(WIDE.iterdir()):
        print(f"wrote {path.relative_to(ROOT)} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
