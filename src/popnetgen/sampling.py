"""Prototype sampling: draw full assignments from a network under evidence.

Variables are visited in topological order; each unevidenced variable is
drawn by inverse-CDF over its domain order from its exact posterior given
everything assigned so far, and the drawn value is then treated as further
evidence.  The resulting assignments are distributed as the exact conditional
joint given the initial evidence.

Randomness comes from named sub-streams derived from a master seed, so each
part of the generation pipeline replays identically regardless of what the
other parts consume.
"""
from __future__ import annotations

import hashlib

import numpy as np
import numpy.random  # numpy 2 loads it on first use; every generate needs it

from .bn import Evidence
from .inference import Engine, ZeroEvidenceError


def substream(master_seed: int, label: str) -> np.random.Generator:
    """Independent generator derived from the master seed and a stable label."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))


def draw_index(probabilities, u: float) -> int:
    """Inverse-CDF pick over domain order from one uniform draw."""
    acc = 0.0
    last_positive = -1
    for i, p in enumerate(probabilities):
        if p > 0.0:
            last_positive = i
        acc += p
        if u < acc:
            return i
    if last_positive < 0:
        raise ValueError("no positive probability in distribution")
    return last_positive  # float undershoot: u landed past the accumulated sum


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
        if evidence and self.engine.probability_of_evidence(evidence) <= 0.0:
            raise ZeroEvidenceError(f"evidence has probability 0: {dict(evidence)}")
        assignment = dict(evidence)
        for name in self.engine.order:
            if name in evidence:
                continue
            if self.engine.descendants[name].isdisjoint(evidence):
                probs = self.engine.cpt_row(name, assignment)
            else:
                probs = self.engine.posterior(assignment, name)
            idx = draw_index(probs, rng.random())
            assignment[name] = self.engine.domains[name][idx]
        return assignment
