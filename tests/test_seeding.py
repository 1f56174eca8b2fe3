import numpy as np
import pytest

from fairseed.seeding import RolloutStreams

SEED = 17


def continuous(count):
    """The first `count` draws of the one Philox stream keyed by SEED."""
    return np.random.Generator(np.random.Philox(key=SEED)).random(count)


class TestRolloutStreams:
    @pytest.mark.parametrize("position", [0, 1, 2, 3, 4, 5, 6, 7, 13, 98])
    def test_at_reads_one_continuous_stream(self, position):
        got = RolloutStreams(SEED).at(position).random(40)
        assert np.array_equal(got, continuous(position + 40)[position:])

    def test_repositioning_keeps_no_buffered_draws(self):
        streams, ref = RolloutStreams(SEED), continuous(30)
        for position in (13, 2, 7, 0, 5, 5):
            assert np.array_equal(streams.at(position).random(9),
                                  ref[position:position + 9])

    @pytest.mark.parametrize("offset", [0, 1, 2, 3])
    def test_large_position(self, offset):
        position = (1 << 40) + offset
        got = RolloutStreams(SEED).at(position).random(10)
        # the stream read from a few draws earlier runs through `position`
        earlier = RolloutStreams(SEED).at(position - 9).random(19)[9:]
        assert np.array_equal(got, earlier)
        # and so does a fresh Philox started at the position's block
        fresh = np.random.Philox(key=SEED, counter=position // 4)
        fresh.random_raw(position % 4)
        assert np.array_equal(got, np.random.Generator(fresh).random(10))
