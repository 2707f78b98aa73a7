"""Prototype sampling: evidence handling, exactness, reproducibility."""
import itertools
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popnetgen.bn import load_bn, parse_bn
from popnetgen.inference import Engine, ZeroEvidenceError
from popnetgen.population import upper_bounds
from popnetgen.sampling import Draws, PrototypeSampler, substream

from helpers import enum_joint_items

AGE_SLICE_DOC = """
variable ageDetail { 3, 7, 12, 20, 30 }
variable ageSlice { 0-14, 15-50 }
cpt ageDetail { 0.2, 0.2, 0.2, 0.2, 0.2 }
cpt ageSlice | ageDetail {
  3: 1.0, 0.0
  7: 1.0, 0.0
  12: 1.0, 0.0
  20: 0.0, 1.0
  30: 0.0, 1.0
}
"""

FOUR_VAR_DOC = """
variable a { a0, a1 }
variable b { b0, b1, b2 }
variable c { c0, c1 }
variable d { d0, d1 }
cpt a { 0.35, 0.65 }
cpt b | a {
  a0: 0.2, 0.3, 0.5
  a1: 0.6, 0.1, 0.3
}
cpt c | a {
  a0: 0.9, 0.1
  a1: 0.4, 0.6
}
cpt d | b, c {
  b0, c0: 0.5, 0.5
  b0, c1: 0.1, 0.9
  b1, c0: 0.3, 0.7
  b1, c1: 0.8, 0.2
  b2, c0: 0.25, 0.75
  b2, c1: 0.0, 1.0
}
"""


class TestSubstream:
    def test_same_label_same_stream(self):
        a = substream(42, "population")
        b = substream(42, "population")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_labels_are_independent(self):
        a = substream(42, "population")
        b = substream(42, "rule/homophily/spouses/0")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_streams_are_pcg64(self):
        assert isinstance(substream(42, "population").bit_generator, np.random.PCG64)

    def test_seed_changes_stream(self):
        assert substream(1, "x").random() != substream(2, "x").random()


# Every branch of numpy's bounded draw: no word (1), 32-bit Lemire, a bare
# half word (2**32) and 64-bit Lemire.  2**31 + 1 and 3 * 2**61 + 1 reject
# about one draw in two and one in eight.
DRAW_BOUNDS = [
    1, 2, 3, 1000, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 3 * 2**61 + 1, 2**63 - 1,
]


class TestDraws:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**128 - 1),
        shuffled=st.integers(0, 40),
        calls=st.lists(st.sampled_from([None, *DRAW_BOUNDS]), min_size=1, max_size=40),
    )
    def test_same_values_as_the_generator(self, seed, shuffled, calls):
        # A permutation of an even length leaves a half word cached.
        expected, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert expected.permutation(shuffled).tolist() == rng.permutation(shuffled).tolist()
        draws = Draws(rng)
        for n in itertools.islice(itertools.cycle(calls), 3000):
            if n is None:
                assert draws.random() == expected.random()
            else:
                assert draws.integers(n) == int(expected.integers(n))
        # 2,200 more doubles: past a block boundary whatever the calls were
        assert [draws.random() for _ in range(2200)] == expected.random(2200).tolist()

    def test_other_bit_generators_refused(self):
        with pytest.raises(TypeError, match="MT19937"):
            Draws(np.random.Generator(np.random.MT19937(1)))


def draw_index(probs, u):
    """The label that one uniform draws from a row: its upper_bounds at or below u."""
    return int((upper_bounds(np.array([probs])) <= u).sum())


class TestDrawIndex:
    def test_inverse_cdf_over_domain_order(self):
        probs = [0.2, 0.5, 0.3]
        assert draw_index(probs, 0.0) == 0
        assert draw_index(probs, 0.19) == 0
        assert draw_index(probs, 0.21) == 1
        assert draw_index(probs, 0.699) == 1
        assert draw_index(probs, 0.71) == 2

    def test_never_picks_zero_probability(self):
        probs = [0.0, 1.0, 0.0]
        for u in (0.0, 0.5, 0.999999):
            assert draw_index(probs, u) == 1
        # float undershoot falls back to the last positive entry
        assert draw_index([0.5, 0.5, 0.0], 0.9999999999999999) == 1


class TestSamplePrototype:
    def test_deterministic_slice_from_age_evidence(self):
        sampler = PrototypeSampler(Engine(parse_bn(AGE_SLICE_DOC)))
        rng = substream(0, "t")
        for _ in range(50):
            proto = sampler.sample({"ageDetail": "7"}, rng)
            assert proto["ageDetail"] == "7"
            assert proto["ageSlice"] == "0-14"

    def test_deterministic_chain_unique_prototype(self):
        doc = """
        variable r { x, y }
        variable s { x, y }
        cpt r { 1.0, 0.0 }
        cpt s | r { x: 0.0, 1.0
          y: 1.0, 0.0 }
        """
        sampler = PrototypeSampler(Engine(parse_bn(doc)))
        rng = substream(1, "t")
        assert all(sampler.sample({}, rng) == {"r": "x", "s": "y"} for _ in range(20))

    def test_contradictory_evidence_raises(self):
        sampler = PrototypeSampler(Engine(parse_bn("variable g { a, b }\ncpt g { 1.0, 0.0 }")))
        with pytest.raises(ZeroEvidenceError):
            sampler.sample({"g": "b"}, substream(0, "t"))

    def test_impossible_evidence_is_named_in_the_error(self):
        # each label is possible alone, the pair is not
        doc = """
        variable r { x, y }
        variable s { x, y }
        cpt r { 0.5, 0.5 }
        cpt s | r { x: 0.0, 1.0
          y: 1.0, 0.0 }
        """
        sampler = PrototypeSampler(Engine(parse_bn(doc)))
        evidence = {"r": "x", "s": "x"}
        message = re.escape(f"evidence has probability 0: {evidence}")
        with pytest.raises(ZeroEvidenceError, match=f"^{message}$"):
            sampler.sample(evidence, substream(0, "t"))

    def test_reproducible_sequences(self):
        bn = parse_bn(FOUR_VAR_DOC)
        first = [PrototypeSampler(Engine(bn)).sample({}, substream(9, "s")) for _ in range(1)]
        runs = []
        for _ in range(2):
            sampler, rng = PrototypeSampler(Engine(bn)), substream(9, "s")
            runs.append([sampler.sample({}, rng) for _ in range(100)])
        assert runs[0] == runs[1]
        assert runs[0][0] == first[0]

    def _assert_matches_conditional_joint(self, bn, evidence, draws, seed):
        sampler = PrototypeSampler(Engine(bn))
        rng = substream(seed, "battery")
        counts = Counter()
        for _ in range(draws):
            proto = sampler.sample(evidence, rng)
            counts[tuple(proto[n] for n in bn.names)] += 1

        conditional = {}
        z = 0.0
        for assignment, weight in enum_joint_items(bn):
            if all(assignment[k] == v for k, v in evidence.items()):
                conditional[tuple(assignment[n] for n in bn.names)] = weight
                z += weight
        for key in conditional:
            conditional[key] /= z

        for key, p in conditional.items():
            se = math.sqrt(p * (1 - p) / draws)
            observed = counts[key] / draws
            assert abs(observed - p) <= max(3 * se, 1e-12), (key, observed, p)
        for key in counts:
            assert key in conditional, f"sampled an impossible assignment {key}"

    def test_distribution_with_leaf_evidence(self):
        bn = parse_bn(FOUR_VAR_DOC)
        self._assert_matches_conditional_joint(bn, {"d": "d1"}, 20_000, seed=2024)

    def test_distribution_with_empty_evidence(self):
        bn = parse_bn(FOUR_VAR_DOC)
        self._assert_matches_conditional_joint(bn, {}, 20_000, seed=55)

    def test_evidence_always_carried_through(self):
        sampler = PrototypeSampler(Engine(parse_bn(FOUR_VAR_DOC)))
        rng = substream(3, "t")
        for _ in range(200):
            proto = sampler.sample({"b": "b2", "d": "d1"}, rng)
            assert proto["b"] == "b2" and proto["d"] == "d1"

    def test_no_evidence_reads_cpt_rows_only(self, monkeypatch):
        # without evidence each conditional is the variable's own CPT row
        kenya = Path(__file__).resolve().parent.parent / "plans" / "kenya" / "attributes.bn"
        engine = Engine(load_bn(kenya))

        def refused(*args):
            raise AssertionError("Engine.posterior called")

        monkeypatch.setattr(Engine, "posterior", refused)
        proto = PrototypeSampler(engine).sample({}, substream(6, "t"))
        assert set(proto) == set(engine.order)

    def test_one_uniform_per_unevidenced_variable(self):
        # two samplers fed the same stream stay aligned when evidence only
        # removes variables from the draw sequence
        bn = parse_bn(FOUR_VAR_DOC)
        sampler_a, sampler_b = PrototypeSampler(Engine(bn)), PrototypeSampler(Engine(bn))
        rng_a = substream(4, "t")
        rng_b = substream(4, "t")
        for _ in range(50):
            sampler_a.sample({}, rng_a)
            sampler_b.sample({}, rng_b)
        assert rng_a.random() == rng_b.random()
