"""Prototype sampling: draw full assignments from a network under evidence.

Variables are visited in topological order; each unevidenced variable is
drawn by inverse-CDF over its domain order from its exact posterior given
everything assigned so far, inverted by population.upper_bounds as the
population's CPT rows are, and the drawn value is then treated as further
evidence.  The resulting assignments are distributed as the exact conditional
joint given the initial evidence.

Randomness comes from named sub-streams derived from a master seed, so each
part of the generation pipeline replays identically regardless of what the
other parts consume.  Draws reads a stream's words in blocks and gives the
values of the stream's Generator calls at a fraction of their cost.
"""
from __future__ import annotations

import hashlib
import itertools

import numpy as np
import numpy.random  # numpy 2 loads it on first use; every generate needs it

from .bn import Evidence
from .inference import Engine
from .population import upper_bounds


def substream(master_seed: int, label: str) -> np.random.Generator:
    """Independent generator derived from the master seed and a stable label."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:16], "big")))


class Draws:
    """``rng.random()`` and ``int(rng.integers(n))``, value for value, read
    from blocks of ``rng``'s raw PCG64 words: a double from a word's top 53
    bits, and numpy's bounded draw, Lemire's method (ACM TOMACS 29(1), 2019)
    on 32-bit half words, low half first as PCG64 hands them out, up to
    n = 2**32 and on whole words above.  The words and the kept half word
    are taken behind ``rng``'s back, so it must not be used again.
    """

    def __init__(self, rng: np.random.Generator):
        bits = rng.bit_generator
        if not isinstance(bits, np.random.PCG64):
            raise TypeError(f"Draws reads PCG64 words, not {type(bits).__name__}")
        state = bits.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        blocks = iter(lambda: bits.random_raw(1024).tolist(), None)  # never None
        self._words = itertools.chain.from_iterable(blocks)

    def random(self) -> float:
        """A uniform double in [0, 1)."""
        return (next(self._words) >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """A uniform integer in [0, n), for 1 <= n <= 2**64."""
        if n == 1:
            return 0
        if n > 1 << 32:
            threshold = (1 << 64) % n  # bias rejected below this, as numpy computes it
            while True:
                m = next(self._words) * n
                if m & 0xFFFF_FFFF_FFFF_FFFF >= threshold:
                    return m >> 64
        threshold = (1 << 32) % n
        while True:
            if self._half is None:
                word = next(self._words)
                self._half, word = word >> 32, word & 0xFFFF_FFFF
            else:
                word, self._half = self._half, None
            m = word * n
            if m & 0xFFFF_FFFF >= threshold:
                return m >> 32


class PrototypeSampler:
    """Sampler bound to one network's engine, reusing its inference work
    across draws.

    When no evidence sits on a variable's descendants, its conditional given
    everything sampled so far reduces to its own CPT row, so the chain skips
    inference for that step.
    """

    def __init__(self, engine: Engine):
        self.engine = engine

    def sample(self, evidence: Evidence, rng: np.random.Generator) -> dict[str, str]:
        """One full assignment drawn from p(. | evidence).

        Evidenced variables keep their asserted values and consume no
        randomness; every other variable consumes exactly one uniform draw.
        """
        engine, assignment = self.engine, dict(evidence)
        if evidence:  # raises ZeroEvidenceError when p(evidence) = 0
            engine.posterior(evidence, next(iter(evidence)))
        for name in engine.order:
            if name in evidence:
                continue
            if any(name in engine.ancestors[e] for e in evidence):
                probs = engine.posterior(assignment, name)
            else:
                parents, table = engine.cpt_table(name)
                probs = table[tuple(engine.value_index[p][assignment[p]] for p in parents)]
            below = upper_bounds(np.reshape(probs, (1, -1))) <= rng.random()
            assignment[name] = engine.domains[name][int(below.sum())]
        return assignment
