"""Deterministic seed derivation and the Monte Carlo rollout stream.

Every stochastic component takes an explicit integer seed. Sub-seeds are
derived with SeedSequence so independent stages never share a stream.
Monte Carlo rollouts under one seed read a single Philox stream keyed by
that seed, laid out flat: on a graph with E arcs, rollout i takes draws
[i*E, (i+1)*E), one uniform per arc in CSR order. A run of rollouts is a
contiguous run of draws, and rollout i is the same whether rollouts run one
at a time, in chunks of any size, or in any order. The draws under one
evaluation seed are read once per (instance, budget), by
diffusion.live_arcs, which keeps only each arc's live bit, 64 rollouts to a
uint64 word; every seed set evaluated there shares those words. Its
docstring gives the size of its chunks of draws and the integer compare
that turns each draw into a live bit. Each live_arcs call makes its own
RolloutStreams, so draws made on another thread share no generator state
and give the same words.
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
    """Random access into the single Philox stream keyed by `base_seed`.

    `at(position)` returns a generator whose next draw is draw `position`
    of that stream, counting one raw 64-bit word per position: the word
    `bit_generator.random_raw()` returns, which `random()` turns into one
    float64. Philox4x64 makes four draws per counter value and steps the
    counter before it fills its buffer, so draws 4b..4b+3 come from counter
    b + 1: `at` puts b = position // 4 into counter word 0, empties the
    buffer and discards position % 4 draws. One bit generator is reused
    and repositioned, which is much cheaper than constructing one per call.
    """

    def __init__(self, base_seed: int):
        self._bg = np.random.Philox(key=base_seed)
        self._gen = np.random.Generator(self._bg)
        self._state = self._bg.state

    def at(self, position: int) -> np.random.Generator:
        block, offset = divmod(position, 4)
        st = self._state
        st["state"]["counter"][:] = (block, 0, 0, 0)
        st["buffer_pos"] = st["buffer"].shape[0]  # discard buffered draws
        self._bg.state = st
        if offset:
            self._bg.random_raw(offset)
        return self._gen
