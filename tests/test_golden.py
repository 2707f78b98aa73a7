"""Pinned digests of one full Kenya run: refactors must leave every byte."""
import hashlib
from pathlib import Path

from popnetgen.cli import run
from popnetgen.plan import load_plan

KENYA_PLAN = Path(__file__).resolve().parent.parent / "plans" / "kenya" / "kenya.plan"

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


def test_kenya_outputs_match_pinned_digests(tmp_path):
    run(load_plan(KENYA_PLAN), seed=42, population=2000, out=tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256
