import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairseed.seeding import RolloutStreams, derive_seed

SEED = 17


def raw(counter, count):
    """The first `count` raw words of a Philox keyed by SEED from `counter`."""
    return np.random.Philox(key=SEED, counter=counter).random_raw(count)


class TestRolloutStreams:
    @pytest.mark.parametrize("lane, counter", [(0, 0), (1, 1 << 64)])
    def test_lane_is_counter_word_one(self, lane, counter):
        streams = RolloutStreams(SEED)
        opened = streams.at() if lane == 0 else streams.at(lane=1)
        assert np.array_equal(opened.random_raw(41), raw(counter, 41))

    def test_lanes_advance_independently(self):
        streams = RolloutStreams(SEED)
        digits, ties = streams.at(), streams.at(lane=1)
        lane0, lane1 = raw(0, 30), raw(1 << 64, 30)
        # interleaved reads of uneven length: each lane stays contiguous
        got0 = [digits.random_raw(3), digits.random_raw(10)]
        got1 = [ties.random_raw(7)]
        got0.append(digits.random_raw(17))
        got1 += [ties.random_raw(1), ties.random_raw(22)]
        assert np.array_equal(np.concatenate(got0), lane0)
        assert np.array_equal(np.concatenate(got1), lane1)
        # a lane opened again starts over, whatever the others have read
        assert np.array_equal(streams.at().random_raw(30), lane0)


class TestDeriveSeed:
    def test_equal_parts_give_equal_seeds(self):
        assert derive_seed(3, "eval", "test-00", "500.0") == \
            derive_seed(3, "eval", "test-00", "500.0")

    def test_budgets_give_different_eval_seeds(self):
        assert derive_seed(0, "eval", "test-00", repr(500.0)) != \
            derive_seed(0, "eval", "test-00", repr(1000.0))

    def test_int_part_differs_from_its_string(self):
        assert derive_seed(0, 7) != derive_seed(0, "7")
        assert derive_seed(7) != derive_seed("7")

    @given(st.lists(st.integers(0, 2**64 - 1) | st.text(max_size=12),
                    min_size=1, max_size=5))
    def test_seed_is_a_64_bit_unsigned_int(self, parts):
        seed = derive_seed(*parts)
        assert type(seed) is int and 0 <= seed < 2**64
