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
}


def test_kenya_outputs_match_pinned_digests(tmp_path):
    run(load_plan(KENYA_PLAN), seed=42, population=2000, out=tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256
