"""Exactness of posterior and evidence probability; the engine's graph closures."""
import gc
import weakref

import numpy as np
import pytest

from popnetgen import inference
from popnetgen.bn import parse_bn
from popnetgen.inference import (
    Engine,
    UnknownVariableError,
    ZeroEvidenceError,
)

from helpers import (
    assignment_weight,
    enum_joint_items,
    enum_posterior,
    enum_probability,
    make_random_bn,
    random_evidence,
    tensor_joint,
    tensor_posterior,
    tensor_probability,
)

from test_bn import MARITAL_DOC

TOL = 1e-9


@pytest.fixture(scope="module")
def marital_bn():
    return parse_bn(MARITAL_DOC)


class TestPosterior:
    def test_published_marital_table_value(self, marital_bn):
        p = Engine(marital_bn).posterior({"gender": "male", "ageSlices": "15-19"}, "maritalStatus")
        assert p[1] == pytest.approx(0.019, abs=1e-12)
        assert p[0] == pytest.approx(0.981, abs=1e-12)

    def test_root_prior_unchanged_under_empty_evidence(self, marital_bn):
        p = Engine(marital_bn).posterior({}, "gender")
        assert p.tolist() == [0.5, 0.5]

    def test_matches_enumeration_on_random_networks(self):
        rng = np.random.default_rng(101)
        for min_domain in (2, 1):  # 1 lets in variables of one value: size-1 axes
            for _ in range(30):
                bn = make_random_bn(rng, max_vars=6, max_domain=3, min_domain=min_domain)
                ev = random_evidence(rng, bn)
                for query in bn.names:
                    if query in ev:
                        continue
                    try:
                        expected = enum_posterior(bn, ev, query)
                    except ZeroDivisionError:
                        with pytest.raises(ZeroEvidenceError):
                            Engine(bn).posterior(ev, query)
                        break
                    got = Engine(bn).posterior(ev, query)
                    assert got == pytest.approx(expected, abs=TOL)

    def test_matches_enumeration_at_twelve_variables(self):
        rng = np.random.default_rng(707)
        trials = 0
        while trials < 6:
            bn = make_random_bn(rng, n_vars=12, max_domain=4)
            joint_size = 1
            for v in bn.variables:
                joint_size *= len(v.domain)
            if joint_size > 4_000_000:  # keep the tensor oracle in memory
                continue
            trials += 1
            ev = random_evidence(rng, bn, max_items=3)
            p_ev = float(Engine(bn).joint((), ev))
            assert p_ev == pytest.approx(tensor_probability(bn, ev), abs=TOL)
            if p_ev == 0.0:
                continue
            for query in bn.names:
                if query in ev:
                    continue
                got = Engine(bn).posterior(ev, query)
                expected = list(tensor_posterior(bn, ev, query))
                assert got == pytest.approx(expected, abs=TOL)

    def test_unknown_variable(self, marital_bn):
        with pytest.raises(UnknownVariableError):
            Engine(marital_bn).posterior({}, "ghost")
        with pytest.raises(UnknownVariableError):
            Engine(marital_bn).posterior({"ghost": "x"}, "gender")

    def test_zero_evidence_raises(self):
        bn = parse_bn("variable g { a, b }\ncpt g { 1.0, 0.0 }")
        with pytest.raises(ZeroEvidenceError):
            Engine(bn).posterior({"g": "b"}, "g")

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            bn = make_random_bn(rng, max_vars=7)
            ev = random_evidence(rng, bn)
            try:
                for query in bn.names:
                    total = sum(Engine(bn).posterior(ev, query))
                    assert total == pytest.approx(1.0, abs=TOL)
            except ZeroEvidenceError:
                continue

    def test_chain_rule(self):
        # p(ev + V=x) = p(ev) * p(V=x | ev)
        rng = np.random.default_rng(23)
        for _ in range(15):
            bn = make_random_bn(rng, max_vars=6)
            ev = random_evidence(rng, bn, max_items=2)
            others = [n for n in bn.names if n not in ev]
            if not others:
                continue
            query = others[int(rng.integers(len(others)))]
            p_ev = float(Engine(bn).joint((), ev))
            if p_ev == 0.0:
                continue
            vec = Engine(bn).posterior(ev, query)
            for i, value in enumerate(bn.domain(query)):
                joint = float(Engine(bn).joint((), {**ev, query: value}))
                assert joint == pytest.approx(p_ev * vec[i], abs=TOL)


class TestProbabilityOfEvidence:
    def test_empty_evidence(self, marital_bn):
        # barren pruning leaves no factor: exactly 1.0
        assert float(Engine(marital_bn).joint((), {})) == 1.0

    def test_joint_cannot_write_into_the_cpt(self):
        engine = Engine(parse_bn("variable g { a, b }\ncpt g { 0.25, 0.75 }"))
        with pytest.raises(ValueError):
            engine.joint(("g",))[0] = 9.0
        assert engine.posterior({}, "g").tolist() == [0.25, 0.75]

    def test_joint_of_no_variables_is_one(self, marital_bn):
        p = Engine(marital_bn).joint(())
        assert isinstance(p, np.ndarray) and p.shape == () and p.dtype == np.float64
        assert p == 1.0

    def test_zero_prior_value(self):
        bn = parse_bn("variable g { a, b }\ncpt g { 1.0, 0.0 }")
        assert float(Engine(bn).joint((), {"g": "b"})) == 0.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(303)
        for min_domain in (2, 1):
            for _ in range(30):
                bn = make_random_bn(rng, max_vars=6, max_domain=3, min_domain=min_domain)
                ev = random_evidence(rng, bn)
                assert float(Engine(bn).joint((), ev)) == pytest.approx(
                    enum_probability(bn, ev), abs=TOL
                )

    def test_every_variable_evidenced(self):
        # every factor is sliced to 0-d, so nothing is left to eliminate
        rng = np.random.default_rng(313)
        for _ in range(20):
            bn = make_random_bn(rng, max_vars=6, max_domain=3, min_domain=1)
            ev = {n: bn.domain(n)[int(rng.integers(len(bn.domain(n))))] for n in bn.names}
            weight = assignment_weight(bn, ev)
            engine = Engine(bn)
            assert float(engine.joint((), ev)) == pytest.approx(weight, abs=TOL)
            for query in bn.names:
                if weight == 0.0:
                    with pytest.raises(ZeroEvidenceError):
                        engine.posterior(ev, query)
                else:
                    expected = np.zeros(len(bn.domain(query)))
                    expected[bn.domain(query).index(ev[query])] = 1.0
                    np.testing.assert_array_equal(engine.posterior(ev, query), expected)


def _chain_doc(n: int, prior: tuple[float, float], step) -> str:
    """A binary chain v0 -> v1 -> ... -> v{n-1} sharing one transition matrix."""
    lines = [f"variable v{i} {{ a, b }}" for i in range(n)]
    lines.append(f"cpt v0 {{ {prior[0]!r}, {prior[1]!r} }}")
    for i in range(1, n):
        lines.append(f"cpt v{i} | v{i - 1} {{")
        lines += [f"  {x}: {row[0]!r}, {row[1]!r}" for x, row in zip("ab", step)]
        lines.append("}")
    return "\n".join(lines)


class TestLongChain:
    """More variables than one einsum call takes labels (52); elimination
    contracts a few at a time, so the chain still answers."""

    PRIOR = (0.3, 0.7)
    STEP = ((0.9, 0.1), (0.25, 0.75))

    def test_matches_the_transition_matrix_power(self):
        engine = Engine(parse_bn(_chain_doc(60, self.PRIOR, self.STEP)))
        power = np.linalg.matrix_power(np.array(self.STEP), 59)
        np.testing.assert_allclose(engine.posterior({"v0": "a"}, "v59"), power[0], rtol=0, atol=1e-12)
        expected = (np.diag(self.PRIOR) @ power).T  # p(v59, v0)
        np.testing.assert_allclose(engine.joint(("v59", "v0")), expected, rtol=0, atol=1e-12)


class TestEngineJoint:
    def test_marginal_matches_tensor_joint(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            bn = make_random_bn(rng, max_vars=7)
            names = list(bn.names)
            keep = [names[int(i)] for i in rng.permutation(len(names))[:int(rng.integers(1, 5))]]
            full = tensor_joint(bn)
            summed = tuple(i for i, n in enumerate(names) if n not in keep)
            kept = [n for n in names if n in keep]
            expected = np.transpose(full.sum(axis=summed), [kept.index(n) for n in keep])
            got = Engine(bn).joint(tuple(keep))
            assert got.shape == expected.shape
            assert float(np.max(np.abs(got - expected))) <= TOL

    @pytest.mark.parametrize("block", [4, inference._BLOCK])
    def test_rows_match_the_joint_at_their_codes(self, block, monkeypatch):
        # joint_at reads p(coded variables, keep) at each row, a block of
        # rows at a time; the joint over the same variables, with keep's
        # axis last, at the rows' codes
        monkeypatch.setattr(inference, "_BLOCK", block)
        rng = np.random.default_rng(37)
        for _ in range(40):
            bn = make_random_bn(rng, max_vars=7, min_domain=1)
            names = [str(n) for n in rng.permutation(list(bn.names))]
            coded, keep = names[:int(rng.integers(1, len(names)))], names[-1]
            joint = Engine(bn).joint((*coded, keep))
            rows = int(rng.integers(0, 20))
            codes = {v: rng.integers(0, len(bn.domain(v)), rows) for v in coded}
            got = Engine(bn).joint_at(codes, keep)
            expected = joint[tuple(codes[v] for v in coded)]
            assert got.shape == (rows, len(bn.domain(keep)))
            np.testing.assert_allclose(got, expected, rtol=0, atol=TOL)


def _ask(engine: Engine, query: str, args: tuple):
    """The engine's answer, or the class of the ZeroEvidenceError it raised."""
    try:
        return getattr(engine, query)(*args)
    except ZeroEvidenceError as exc:
        return type(exc)


class TestEngineMemo:
    def test_repeated_queries_answer_like_a_fresh_engine(self):
        rng = np.random.default_rng(919)
        for _ in range(25):
            bn = make_random_bn(rng, max_vars=6, max_domain=3)
            names = list(bn.names)
            queries = []
            for _ in range(5):
                ev = random_evidence(rng, bn)
                size = int(rng.integers(1, len(names) + 1))
                keep = tuple(names[int(i)] for i in rng.permutation(len(names))[:size])
                queries += [
                    ("posterior", (ev, names[int(rng.integers(len(names)))])),
                    # p(evidence): a posterior on an evidenced variable
                    ("posterior", (ev, next(iter(ev), names[0]))),
                    ("joint", (keep,)),
                ]
            engine = Engine(bn)
            for step in rng.integers(len(queries), size=4 * len(queries)).tolist():
                query, args = queries[step]
                if args and isinstance(args[0], dict) and rng.random() < 0.5:
                    # the same evidence, inserted in another order
                    args = (dict(reversed(list(args[0].items()))), *args[1:])
                got = _ask(engine, query, args)
                expected = _ask(Engine(bn), query, args)
                if isinstance(expected, type):
                    assert got is expected
                else:
                    assert np.asarray(got).dtype == np.asarray(expected).dtype
                    np.testing.assert_array_equal(got, expected)

    def test_evidenced_query_is_one_hot(self):
        rng = np.random.default_rng(414)
        checked = 0
        for _ in range(30):
            bn = make_random_bn(rng, max_vars=6, max_domain=3)
            ev = random_evidence(rng, bn)
            engine = Engine(bn)
            for query, value in ev.items():
                if float(engine.joint((), ev)) == 0.0:
                    with pytest.raises(ZeroEvidenceError):
                        engine.posterior(ev, query)
                    continue
                expected = np.zeros(len(bn.domain(query)))
                expected[bn.domain(query).index(value)] = 1.0
                np.testing.assert_array_equal(engine.posterior(ev, query), expected)
                checked += 1
        assert checked > 0

    def test_out_of_domain_label_raises_on_every_repeat(self, marital_bn):
        engine = Engine(marital_bn)
        bad = {"gender": "ghost"}
        for _ in range(3):
            with pytest.raises(UnknownVariableError):
                engine.posterior(bad, "maritalStatus")
            with pytest.raises(UnknownVariableError):
                engine.posterior(bad, "gender")
            with pytest.raises(UnknownVariableError):
                engine.joint((), bad)
        assert engine._marginal.cache_info().currsize == 0  # a query that raises stores nothing

    def test_an_equal_query_is_served_by_the_cache(self, marital_bn):
        engine = Engine(marital_bn)
        evidence = {"gender": "male", "ageSlices": "15-19"}
        first = engine.posterior(evidence, "maritalStatus")
        second = engine.posterior(dict(reversed(evidence.items())), "maritalStatus")
        np.testing.assert_array_equal(first, second)
        info = engine._marginal.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_each_engine_has_its_own_cache_freed_with_it(self, marital_bn):
        engine, other = Engine(marital_bn), Engine(marital_bn)
        engine.posterior({"gender": "male"}, "maritalStatus")
        assert other._marginal.cache_info().currsize == 0
        gone = weakref.ref(engine)
        del engine
        gc.collect()
        assert gone() is None


class TestEngineClosures:
    def test_match_brute_force_reachability(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            bn = make_random_bn(rng, max_vars=8)
            engine = Engine(bn)
            children = {name: [c for c in bn.names if name in bn.parents(c)] for name in bn.names}

            def reach(name, step):
                seen, frontier = set(), [name]
                while frontier:
                    for other in step(frontier.pop()):
                        if other not in seen:
                            seen.add(other)
                            frontier.append(other)
                return seen

            for name in bn.names:
                assert engine.ancestors[name] == reach(name, bn.parents)
                descendants = {d for d in bn.names if name in engine.ancestors[d]}
                assert descendants == reach(name, children.__getitem__)


class TestTensorOracleAgreesWithEnumeration:
    """The vectorized oracle used by the acceptance battery must itself match
    plain per-assignment enumeration."""

    def test_enumeration_sums_to_one(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            bn = make_random_bn(rng, max_vars=5)
            total = sum(weight for _, weight in enum_joint_items(bn))
            assert total == pytest.approx(1.0, abs=TOL)

    def test_cross_check(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            bn = make_random_bn(rng, max_vars=5, max_domain=3)
            ev = random_evidence(rng, bn)
            assert tensor_probability(bn, ev) == pytest.approx(
                enum_probability(bn, ev), abs=TOL
            )
            if enum_probability(bn, ev) == 0.0:
                continue
            for query in bn.names:
                if query in ev:
                    continue
                assert list(tensor_posterior(bn, ev, query)) == pytest.approx(
                    enum_posterior(bn, ev, query), abs=TOL
                )
