import random

import pytest

from vcmkit import (
    QQ,
    CoefficientField,
    GF,
    field_label,
    gf2_rank,
    integer_rank,
    parse_field,
    rank_mod_p,
)
from helpers import fraction_rank, gf_rank_naive


def _random_int_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


class TestCoefficientField:
    def test_rationals(self):
        assert QQ.is_rationals
        assert str(QQ) == "Q"

    def test_primes(self):
        assert str(GF(2)) == "GF(2)"
        assert GF(2147483647).characteristic == 2147483647  # largest prime below 2^31

    @pytest.mark.parametrize("bad", [1, 4, 9, 15, 561, -3, 1 << 31, (1 << 31) + 11])
    def test_rejects_nonfields(self, bad):
        with pytest.raises(ValueError):
            CoefficientField(bad)

    def test_parse(self):
        assert parse_field("Q") == QQ
        assert parse_field("q") == QQ
        assert parse_field("0") == QQ
        assert parse_field(" 5 ") == GF(5)
        with pytest.raises(ValueError):
            parse_field("seven")
        with pytest.raises(ValueError):
            parse_field("6")

    def test_label_round_trip(self):
        for f in (QQ, GF(2), GF(101)):
            assert parse_field(field_label(f)) == f


class TestGF2Rank:
    def test_known_values(self):
        assert gf2_rank([]) == 0
        assert gf2_rank([0, 0]) == 0
        assert gf2_rank([0b1, 0b10, 0b100]) == 3
        assert gf2_rank([0b11, 0b101, 0b110]) == 2  # third row = sum of first two
        assert gf2_rank([0b111, 0b111]) == 1

    def test_against_naive(self):
        rng = random.Random(20260823)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            rows = _random_int_matrix(rng, nrows, ncols, 0, 1)
            packed = [sum(b << j for j, b in enumerate(r)) for r in rows]
            assert gf2_rank(packed) == gf_rank_naive(rows, 2)


class TestRankModP:
    def test_known_values(self):
        assert rank_mod_p([], 5) == 0
        assert rank_mod_p([[], []], 5) == 0  # two rows, no columns
        assert rank_mod_p([[1, 2], [2, 4]], 5) == 1
        assert rank_mod_p([[1, 2], [2, 4]], 7) == 1
        assert rank_mod_p([[3, 0], [0, 3]], 3) == 0  # vanishes mod 3
        assert rank_mod_p([[3, 0], [0, 3]], 5) == 2

    @pytest.mark.parametrize("p", [3, 5, 101])
    def test_against_naive(self, p):
        rng = random.Random(100 + p)
        for _ in range(30):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = _random_int_matrix(rng, nrows, ncols)
            assert rank_mod_p(rows, p) == gf_rank_naive(rows, p)


class TestIntegerRank:
    def test_known_values(self):
        assert integer_rank([]) == 0
        assert integer_rank([[], []]) == 0
        assert integer_rank([[0, 0], [0, 0]]) == 0
        assert integer_rank([[1, 2], [2, 4]]) == 1
        assert integer_rank([[2, 0], [0, 3]]) == 2
        # Determinant-zero 3x3 with no zero entries.
        assert integer_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2

    def test_against_fraction_elimination(self):
        rng = random.Random(20260824)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = _random_int_matrix(rng, nrows, ncols)
            assert integer_rank(rows) == fraction_rank(rows)

    def test_large_entries_stay_exact(self):
        # Floating point would misjudge this: rows differ at the last digit.
        big = 10 ** 30
        assert integer_rank([[big, big], [big, big + 1]]) == 2
        assert integer_rank([[big, big], [big, big]]) == 1
