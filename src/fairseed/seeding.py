"""Deterministic seed derivation and the Monte Carlo rollout stream.

Every stochastic component takes an explicit integer seed. Sub-seeds are
derived with SeedSequence so independent stages never share a stream.
Monte Carlo rollouts under one seed read the Philox streams keyed by that
seed, one byte digit per (rollout, arc) trial. Rollouts go in blocks of 64:
on a graph with E arcs, block b takes bytes [64*E*b, 64*E*(b+1)) of counter
lane 0, read as an arc-major (E, 64) array, so byte 64*E*b + 64*a + j
(byte k of a stream is byte k % 8, little-endian, of its raw word k // 8)
is arc a's digit in rollout 64*b + j. The one trial in 256 whose digit ties
its arc's limit reads one more raw word from counter lane 1, the k-th tie
in lane-0 byte order taking lane-1 word k. A rollout's draws therefore
depend on its place alone: they are the same whether rollouts are drawn in
chunks of any size and whatever the rollout count. The draws under one
evaluation seed are read once per (instance, budget), by
diffusion.live_arcs, which keeps only each arc's live bit, 64 rollouts to a
uint64 word; every seed set evaluated there shares those words. Its
docstring gives the size of its chunks of blocks and the compare that turns
each digit into a live bit. Each live_arcs call makes its own
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
    """Random access into the Philox streams keyed by `base_seed`.

    `at(position, lane)` returns a generator whose next draw is draw
    `position` of counter lane `lane`, counting one raw 64-bit word per
    position: the word `bit_generator.random_raw()` returns, which
    `random()` would turn into one float64. Philox4x64 makes four draws per
    counter value and steps the counter before it fills its buffer, so
    draws 4b..4b+3 of lane l come from counter (b + 1, l, 0, 0): `at` puts
    (position // 4, lane) into counter words 0 and 1, empties the buffer and
    discards position % 4 draws. Lane 0 holds the rollouts' byte digits and
    lane 1 the words that settle their ties; lane 0 would reach lane 1 only
    after 2**66 draws. One bit generator is reused and repositioned, which
    is much cheaper than constructing one per call.
    """

    def __init__(self, base_seed: int):
        self._bg = np.random.Philox(key=base_seed)
        self._gen = np.random.Generator(self._bg)
        self._state = self._bg.state

    def at(self, position: int, lane: int = 0) -> np.random.Generator:
        block, offset = divmod(position, 4)
        st = self._state
        st["state"]["counter"][:] = (block, lane, 0, 0)
        st["buffer_pos"] = st["buffer"].shape[0]  # discard buffered draws
        self._bg.state = st
        if offset:
            self._bg.random_raw(offset)
        return self._gen
