"""Fuzzed network and plan documents: only the parsers' own errors escape,
and every network they accept has finite rows in [0, 1] that sum to 1."""
import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from popnetgen.bn import ROW_SUM_TOLERANCE, BnError, parse_bn
from popnetgen.plan import PlanError, parse_plan

BN_PARTS = [
    "variable a { u, v }",
    "variable b { u, v, w }",
    "variable a { u }",
    "variable { u }",
    "variable c { u,, v }",
    "cpt a { 0.5, 0.5 }",
    "cpt a { 0.7, 0.3000000001 }",
    "cpt a { nan, 1.0 }",
    "cpt a { inf, 0.0 }",
    "cpt a { -0.5, 1.5 }",
    "cpt a { 1e400, 0 }",
    "cpt a { x, 1 }",
    "cpt b { 0.2, 0.3, 0.5 }",
    "cpt b | a {\nu: 0.2, 0.3, 0.5\nv: 1.0, 0.0, 0.0\n}",
    "cpt b | a {\nu: nan, 0.5, 0.5\nv: 1.0, 0.0, 0.0\n}",
    "cpt b | a {\nu: 0.2, 0.3, 0.5\n}",
    "cpt b | a, a {",
    "cpt b | c {",
    "cpt a | b {",
    "u: 0.2, 0.3, 0.5",
    "v: 1.0, 0.0, 0.0",
    "w: 0.5, 0.5, 0.0",
    "u, v: 1.0, 0.0",
    "0.5, 0.5",
    "}",
    "# comment",
    "",
]

PLAN_LINES = [
    "population N=10 seed=1 attributes=a.bn",
    "population N=-1 seed=1 attributes=a.bn",
    "population N=x seed=1 attributes=a.bn",
    "population N=10 seed=1",
    "population N=10 N=10 seed=1 attributes=a.bn",
    "linktype t undirected",
    "linktype t sideways",
    "linktype t",
    "rule homophily t bn=m.bn counts=both retries=3 smallset=5",
    "rule homophily t bn=m.bn retries=x",
    "rule homophily t counts=a1",
    "rule transitive u from t t p=0.5 pattern=any-source",
    "rule transitive u from t t p=nan",
    "rule transitive u from t",
    "rule magic t",
    "rule",
    "interact t p=0.5",
    "interact t p=inf",
    "interact t q=0.5",
    "output out",
    "output",
    "frobnicate",
    "# comment",
    "",
]


def documents(parts):
    """Known lines and blocks, valid and broken, mixed with arbitrary text."""
    part = st.one_of(st.sampled_from(parts), st.sampled_from(parts), st.text(max_size=24))
    return st.lists(part, max_size=8).map("\n".join)


@settings(max_examples=400, deadline=None)
@given(documents(BN_PARTS))
def test_parse_bn_raises_only_bn_errors(text):
    try:
        bn = parse_bn(text)
    except BnError:
        return
    for cpt in bn.cpts.values():
        for row in cpt.rows.values():
            assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in row)
            assert abs(math.fsum(row) - 1.0) <= ROW_SUM_TOLERANCE


@settings(max_examples=400, deadline=None)
@given(documents(PLAN_LINES))
def test_parse_plan_raises_only_plan_errors(text):
    try:
        parse_plan(text, Path("."))
    except PlanError:
        pass
