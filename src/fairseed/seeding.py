"""Deterministic seed derivation and the Philox lanes of the Monte Carlo
stream.

Every stochastic component takes an explicit integer seed. Sub-seeds are
derived with SeedSequence so independent stages never share a stream. The
Monte Carlo rollouts of one seed read the Philox lanes keyed by it, laid
out as the docstring of diffusion.live_arcs, their one reader, gives.
"""

from __future__ import annotations

import zlib

import numpy as np


def derive_seed(*parts: int | str) -> int:
    """Derive a 64-bit sub-seed from a tuple of ints and/or string tags."""
    entropy = [
        zlib.crc32(p.encode()) if isinstance(p, str) else int(p) for p in parts
    ]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


class RolloutStreams:
    """The Philox lanes keyed by `base_seed`. Philox is counter-based, so
    `at(lane)` opens a new bit generator at the start of lane `lane`,
    counter (0, lane, 0, 0), which shares no state with the other lanes;
    lane 0 would reach lane 1 only after 2**66 raw words."""

    def __init__(self, base_seed: int):
        self.base_seed = base_seed

    def at(self, lane: int = 0) -> np.random.Philox:
        return np.random.Philox(key=self.base_seed, counter=lane << 64)
