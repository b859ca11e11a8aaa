import pytest

from qcoin.encoding import (
    all_bitstrings,
    arrival_time_ns,
    bits_to_index,
    index_to_bits,
    lexicographic_bins,
    validate_bits,
)
from qcoin.errors import InvalidParameter


def test_first_outcome_is_least_significant_bit():
    assert bits_to_index("100") == 1
    assert bits_to_index("010") == 2
    assert bits_to_index("011") == 6
    assert bits_to_index("111") == 7


def test_round_trip_over_all_strings():
    for steps in (1, 2, 3, 5):
        for bits in all_bitstrings(steps):
            assert index_to_bits(bits_to_index(bits), steps) == bits


def test_all_bitstrings_is_complete_and_sorted():
    strings = all_bitstrings(3)
    assert len(strings) == 8
    assert strings == sorted(strings)
    assert len(set(strings)) == 8


def test_arrival_times_three_steps():
    # delays 2, 4, 8 ns: the 8 strings cover 0..14 ns in 2 ns steps
    times = sorted(arrival_time_ns(b) for b in all_bitstrings(3))
    assert times == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
    assert arrival_time_ns("100") == 2.0
    assert arrival_time_ns("001") == 8.0


def test_distinct_strings_have_distinct_times():
    for steps in (1, 2, 3, 4):
        times = {arrival_time_ns(b) for b in all_bitstrings(steps)}
        assert len(times) == 2**steps


def test_bad_strings_rejected():
    with pytest.raises(InvalidParameter):
        validate_bits("")
    with pytest.raises(InvalidParameter):
        validate_bits("01x")
    with pytest.raises(InvalidParameter):
        bits_to_index("2")
    with pytest.raises(InvalidParameter):
        index_to_bits(8, 3)


def test_lexicographic_bins_follow_string_order():
    for steps in (1, 2, 3, 5):
        order = lexicographic_bins(steps)
        assert [index_to_bits(int(b), steps) for b in order] == all_bitstrings(steps)
        assert sorted(order.tolist()) == list(range(2**steps))
