"""Pinned digests of full runs: refactors must leave every byte."""
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
    "edges_all.csv": "e7700c3957bb8321bf5852545a40724878546589ece10406ae48dcd79fc8d7cb",
    "report.txt": "9dfd8a49a8b28aff448564f0f4cc7c6d942444322f964bf115570925b86461f1",
    "learned_attributes.bn": "8e946573f44f9a95c257625ef17d3ca8bb1aa866d4c9c67bd1913fd5e5908e96",
    "edges_colleagues.csv": "a5a0d5ffb410f76c7ef5157a6c1390c79246ecae3df2f72662a82612c6a60c76",
    "edges_fatherOf.csv": "770dc164e815d086d91bf3b9fa725ae44a47dcb60bcf7dd39328d993c34f521f",
    "edges_friendship.csv": "c85214221ee090795d9160f62770d8b8c53fe83866ba9df9821e675ec137120c",
    "edges_motherOf.csv": "0f5434a9a5b6d47b9fb0d31c10d4b94f1aee971b1de6751c789379ec2cf34679",
    "edges_siblings.csv": "d3e538d2794455528f17e922e63f8247f7e2c6c8c44785ec0e345e59c276dda6",
    "edges_spouses.csv": "95b413f77dd18c5ddfe5503308ea1ddedf40567d60dccd548802b3d8b3a57d6c",
    "interaction.csv": "82cc00a5e46d8fa8388d159dacc9553adce8cd7f3858c7840a8a1d6aa5f2631f",
    "network.dot": "dccfc47ab98fdb9f41058a742464e4f57bfb5f0cee016a33b5271bed55467aec",
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
    "edges_all.csv": "2807095b85ce7bb47d3539fd6d55a7c31b29773732442b10b6496f888a4fdab8",
    "report.txt": "25654a4a0632d28a4715aec66dd207a68e247dbd7729234605aa162e3732fafd",
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
