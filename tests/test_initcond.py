import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccl import initial_condition, initial_condition_number
from oracles import damerau_levenshtein, gray_derivate, gray_integrate


def left_pad(u, v):
    """Zero-pad the shorter sequence on the left (the background side)."""
    width = max(len(u), len(v))
    return [0] * (width - len(u)) + list(u), [0] * (width - len(v)) + list(v)


class TestGrayDerivate:
    def test_small_values(self):
        assert gray_derivate(0) == [0]
        assert gray_derivate(2) == [1, 1]
        assert gray_derivate(3) == [1, 0]
        assert gray_derivate(10) == [1, 1, 1, 1]

    def test_matches_xor_shift_closed_form(self):
        # Independent oracle: the reflected binary code of n is n ^ (n >> 1),
        # read as binary digits of the same width as n.
        for n in range(1, 4096):
            g = n ^ (n >> 1)
            want = [int(b) for b in format(g, f"0{n.bit_length()}b")]
            assert gray_derivate(n) == want

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gray_derivate(-1)

    def test_band_of_fixed_length_is_injective(self):
        # All n with the same bit length map to distinct words of that length.
        for m in (4, 8, 11):
            words = {tuple(gray_derivate(n))
                     for n in range(2 ** (m - 1), 2 ** m)}
            assert len(words) == 2 ** (m - 1)
            assert all(len(w) == m for w in words)


class TestGrayIntegrate:
    def test_first_eleven_numbers_round_trip(self):
        assert [gray_integrate(gray_derivate(n)) for n in range(11)] == list(
            range(11)
        )

    def test_explicit_words(self):
        assert gray_integrate([0]) == 0
        assert gray_integrate([1, 0]) == 3

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            gray_integrate([0, 2, 1])
        with pytest.raises(ValueError):
            gray_integrate([])

    @given(st.integers(min_value=0, max_value=2 ** 40))
    def test_round_trip_any_size(self, n):
        assert gray_integrate(gray_derivate(n)) == n


class TestInitialCondition:
    def test_small_numbers(self):
        assert initial_condition(0) == (1,)
        assert initial_condition(1) == (1, 1)
        assert initial_condition(2) == (1, 1, 1)

    def test_matches_the_digitwise_definitions(self):
        # The paper's definitions: the Gray code word of n with a 1
        # appended, and back by integrating the word without its last 1.
        for n in range(1, 2 ** 16):
            ic = initial_condition(n)
            assert ic == tuple(gray_derivate(n)) + (1,)
            assert initial_condition_number(ic) == gray_integrate(ic[:-1])

    def test_number_32_round_trips(self):
        assert initial_condition_number(initial_condition(32)) == 32

    def test_single_cell_is_number_zero(self):
        assert initial_condition_number((1,)) == 0
        assert initial_condition_number((1, 1)) == 1

    def test_malformed_conditions_rejected(self):
        with pytest.raises(ValueError):
            initial_condition_number(())
        with pytest.raises(ValueError):
            initial_condition_number((1, 0))
        with pytest.raises(ValueError, match="only bits"):
            initial_condition_number((1, 2, 1))
        with pytest.raises(ValueError):
            initial_condition_number([])
        # Every image of initial_condition starts with 1.
        for cells in [(0, 1), (0, 0, 1), (0, 1, 1)]:
            with pytest.raises(ValueError):
                initial_condition_number(cells)

    @given(st.integers(min_value=0, max_value=2 ** 20))
    def test_round_trip(self, n):
        assert initial_condition_number(initial_condition(n)) == n

    def test_negative_number_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            initial_condition(-1)

    def test_always_ends_in_one(self):
        for n in range(0, 300):
            assert tuple(initial_condition(n))[-1] == 1


class TestDamerauLevenshtein:
    def test_equal_sequences(self):
        assert damerau_levenshtein([], []) == 0
        assert damerau_levenshtein("same", "same") == 0

    def test_adjacent_transposition_costs_one(self):
        assert damerau_levenshtein("ab", "ba") == 1
        assert damerau_levenshtein([1, 2, 3], [1, 3, 2]) == 1

    def test_plain_edits(self):
        assert damerau_levenshtein("abc", "abcd") == 1
        assert damerau_levenshtein("abc", "axc") == 1
        assert damerau_levenshtein("abc", "") == 3

    def test_consecutive_code_words_distance_one(self):
        for n in range(11):
            assert (
                damerau_levenshtein(gray_derivate(n), gray_derivate(n + 1))
                == 1
            )

    def test_consecutive_code_words_distance_one_padded(self):
        for n in range(1024):
            u, v = left_pad(gray_derivate(n), gray_derivate(n + 1))
            assert damerau_levenshtein(u, v) == 1

    def test_padded_neighbors_differ_in_one_cell(self):
        # Stronger than distance 1: the padded words differ in exactly one
        # position, which is the point of this numbering.
        for n in range(1024):
            u, v = left_pad(gray_derivate(n), gray_derivate(n + 1))
            assert sum(a != b for a, b in zip(u, v)) == 1

    @given(
        st.lists(st.integers(min_value=0, max_value=3), max_size=8),
        st.lists(st.integers(min_value=0, max_value=3), max_size=8),
    )
    def test_symmetric_and_bounded(self, u, v):
        d = damerau_levenshtein(u, v)
        assert d == damerau_levenshtein(v, u)
        assert (d == 0) == (u == v)
        assert d <= max(len(u), len(v))
