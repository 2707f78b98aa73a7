"""Pinned digests of full runs: refactors must leave every byte.

Recorded at the class-level homophily matcher, which draws prototype
classes from the rule's class table and picks partners from per-class
buckets; its random stream differs from the earlier per-agent matcher's,
so these digests differ from those of earlier versions."""
import hashlib
import shutil
from pathlib import Path

from popnetgen.cli import run
from popnetgen.plan import load_plan

KENYA_DIR = Path(__file__).resolve().parent.parent / "plans" / "kenya"
KENYA_PLAN = KENYA_DIR / "kenya.plan"

# plans/kenya/kenya.plan at N=2000, seed 42.
GOLDEN_SHA256 = {
    "agents.csv": "77634d1e1977e9bfa59225044117f0a5601d6430f7d99839526b5bf8bc0823ea",
    "edges_all.csv": "68124e39917664d5ae07f97f33d61f7de48d86d0aab13acf2e51c77bc724575a",
    "report.txt": "ebe9236e6e125898ff1eb96e9da0d19d4bf237ed16ca0d9eb964c705bf5f0419",
    "learned_attributes.bn": "8e946573f44f9a95c257625ef17d3ca8bb1aa866d4c9c67bd1913fd5e5908e96",
    "edges_colleagues.csv": "daeba95b3525080c0715bcf82679883bf0bed532e14d2e4daa03af9e47508afb",
    "edges_fatherOf.csv": "b051a36cef5a4f043b301b04d33699c9dd994091eb8a176847411fbacfd0d8e4",
    "edges_friendship.csv": "727f557f08b69b31a29829893556e65b1b9e9db7440f834753f41b0d69477d70",
    "edges_motherOf.csv": "79b14029cedb2bcf7911e08c42a47e734214ba3e0d48cda5c294b84501914a12",
    "edges_siblings.csv": "98b9e745bcdd7618df5b035a755d4921aeab320f27c72d8ac5f9d87e8eca55ff",
    "edges_spouses.csv": "072bc4e3dd873016e91f4b9f5dad7049060816a5633b38105f151a76eecef2a4",
    "interaction.csv": "d9fa10dd3a7802dcce1f3f790e73d654823ec8751f8d44d6776bfb7f9b6e385c",
    "network.dot": "0a6dee779ab70414dbf6eef53cff38772e05d360395a3e0fb133aa84c0ec0777",
}

# The Kenya rules all use counts=both and the default options; this plan
# reaches the matcher's other branches: side-1-only and side-2-only demand,
# no small-set cutoff, a cutoff no pool reaches (fallback only, with
# rejections), one retry, and a repeated rule meeting partly spent demand.
MIXED_PLAN = """\
population N=3000 seed=1 attributes=attributes.bn
linktype spouses undirected
linktype motherOf directed
linktype fatherOf directed
linktype friendship undirected
linktype colleagues undirected
rule homophily spouses bn=spouses.bn counts=a1 smallset=0
rule homophily motherOf bn=motherOf.bn counts=a2 retries=1
rule transitive fatherOf from spouses motherOf p=1.0 pattern=any-source
rule homophily friendship bn=friendship.bn counts=a2 smallset=0
rule homophily colleagues bn=colleagues.bn counts=a1 smallset=100000
rule homophily friendship bn=friendship.bn counts=both smallset=3 retries=2
rule homophily friendship bn=friendship.bn counts=both smallset=3 retries=2
"""

MIXED_SHA256 = {
    "edges_all.csv": "34e3cc14151dd70b2502cb516111214c46399c9e77f2e44a980bf2aed691af43",
    "report.txt": "848e380d3596ce2505ac12a6206ad38b3bda47873e25b08538a20898a5b9799c",
}


def digests(directory: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def test_kenya_outputs_match_pinned_digests(tmp_path):
    run(load_plan(KENYA_PLAN), seed=42, population=2000, out=tmp_path)
    assert digests(tmp_path, GOLDEN_SHA256) == GOLDEN_SHA256


def test_mixed_option_outputs_match_pinned_digests(tmp_path):
    for bn in KENYA_DIR.glob("*.bn"):
        shutil.copy(bn, tmp_path)
    (tmp_path / "mixed.plan").write_text(MIXED_PLAN)
    run(load_plan(tmp_path / "mixed.plan"), out=tmp_path / "out")
    assert digests(tmp_path / "out", MIXED_SHA256) == MIXED_SHA256
