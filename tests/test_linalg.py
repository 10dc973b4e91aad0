import random

import pytest

from vcmkit import (
    QQ,
    CoefficientField,
    GF,
    field_label,
    gf2_rank,
    parse_field,
    sparse_rank,
)
from vcmkit.linalg import _is_prime, gf3_rank
from helpers import fraction_rank, gf_rank_naive, integer_rank, is_prime_miller_rabin, rank_mod_p


def _random_int_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def _columns(rows):
    """The columns of a dense matrix as {row: entry} dicts, zeros included."""
    ncols = len(rows[0]) if rows else 0
    return [{i: row[j] for i, row in enumerate(rows)} for j in range(ncols)]


def rank_gfp(rows, p):
    """sparse_rank on the columns of `rows`, checked against both the naive
    and the dense oracle."""
    rank = sparse_rank(_columns(rows), p)
    assert rank == gf_rank_naive(rows, p) == rank_mod_p(rows, p)
    return rank


def rank_q(rows):
    """sparse_rank over Q on the columns of `rows`, checked against Fraction
    elimination and the Bareiss oracle."""
    rank = sparse_rank(_columns(rows), 0)
    assert rank == fraction_rank(rows) == integer_rank(rows)
    return rank


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


class TestIsPrime:
    """Trial division against the Miller-Rabin oracle."""

    def test_every_small_n(self):
        for n in range(-3, 200_000):
            assert _is_prime(n) == is_prime_miller_rabin(n), n

    def test_seeded_n_below_2_31(self):
        rng = random.Random(20261019)
        for _ in range(20_000):
            n = rng.randrange(1 << 31)
            assert _is_prime(n) == is_prime_miller_rabin(n), n

    def test_edge_cases(self):
        carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                      321197185, 2100901, 1050985, 1909001, 2113921, 1024651]
        squares = [46309 ** 2, 46327 ** 2, 46337 ** 2]  # isqrt(n) is the only factor
        assert _is_prime((1 << 31) - 1)
        for n in carmichael + squares + [(1 << 31) - 1, 2047, 3277, 4033, 4681, 8321]:
            assert _is_prime(n) == is_prime_miller_rabin(n), n
        assert not any(map(_is_prime, carmichael + squares))


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


def _gf3_columns(rows):
    """The columns of a dense matrix as GF(3) (plus, minus) bitplanes: the
    rows whose entry is 1 and the rows whose entry is 2 = -1 mod 3."""
    ncols = len(rows[0]) if rows else 0
    return [(sum(1 << i for i, row in enumerate(rows) if row[j] % 3 == 1),
             sum(1 << i for i, row in enumerate(rows) if row[j] % 3 == 2))
            for j in range(ncols)]


class TestGF3Rank:
    def test_known_values(self):
        assert gf3_rank([]) == 0
        assert gf3_rank([(0, 0), (0, 0)]) == 0
        assert gf3_rank([(0b11, 0), (0, 0b11)]) == 1  # the second column is minus the first
        assert gf3_rank([(0b01, 0b10), (0b10, 0b01)]) == 1  # (1, -1) and (-1, 1)
        assert gf3_rank([(0b01, 0b10), (0b11, 0)]) == 2
        # The third column is the sum of the first two.
        assert gf3_rank([(0b001, 0b100), (0b010, 0b100), (0b111, 0)]) == 2

    def test_against_naive(self):
        # Dense columns of five kinds: random in -9..9 (so some entries
        # vanish mod 3), zero, a repeat of an earlier column times +-1 or 2,
        # full height (every entry nonzero mod 3), and boundary-like (a
        # handful of +-1).  Up to 70 rows, past one machine word.
        rng = random.Random(20261021)
        for trial in range(400):
            nrows = rng.randint(1, 70 if trial % 4 == 0 else 8)
            columns = []
            for _ in range(rng.randint(1, 9)):
                kind = rng.choice(("random", "zero", "repeat", "full", "sparse"))
                if kind == "zero":
                    col = [0] * nrows
                elif kind == "repeat" and columns:
                    scale = rng.choice((1, -1, 2))
                    col = [scale * e for e in rng.choice(columns)]
                elif kind == "full":
                    col = [rng.choice((-2, -1, 1, 2, 4)) for _ in range(nrows)]
                elif kind == "sparse":
                    col = [0] * nrows
                    for r in rng.sample(range(nrows), min(nrows, rng.randint(1, 4))):
                        col[r] = rng.choice((-1, 1))
                else:
                    col = [rng.randint(-9, 9) for _ in range(nrows)]
                columns.append(col)
            rows = [list(r) for r in zip(*columns)]
            rank = gf3_rank(_gf3_columns(rows))
            assert rank == gf_rank_naive(rows, 3) == rank_mod_p(rows, 3)
            assert rank == sparse_rank(_columns(rows), 3)


class TestRankModP:
    def test_known_values(self):
        assert rank_gfp([], 5) == 0
        assert rank_gfp([[], []], 5) == 0  # two rows, no columns
        assert rank_gfp([[1, 2], [2, 4]], 5) == 1
        assert rank_gfp([[1, 2], [2, 4]], 7) == 1
        assert rank_gfp([[3, 0], [0, 3]], 3) == 0  # vanishes mod 3
        assert rank_gfp([[3, 0], [0, 3]], 5) == 2

    @pytest.mark.parametrize("p", [3, 5, 101])
    def test_against_naive(self, p):
        rng = random.Random(100 + p)
        for _ in range(30):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = _random_int_matrix(rng, nrows, ncols)
            rank_gfp(rows, p)


class TestIntegerRank:
    def test_known_values(self):
        assert rank_q([]) == 0
        assert rank_q([[], []]) == 0
        assert rank_q([[0, 0], [0, 0]]) == 0
        assert rank_q([[1, 2], [2, 4]]) == 1
        assert rank_q([[2, 0], [0, 3]]) == 2
        # Determinant-zero 3x3 with no zero entries.
        assert rank_q([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2

    def test_against_fraction_elimination(self):
        rng = random.Random(20260824)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = _random_int_matrix(rng, nrows, ncols)
            rank_q(rows)

    def test_large_entries_stay_exact(self):
        # Floating point would misjudge this: rows differ at the last digit.
        big = 10 ** 30
        assert rank_q([[big, big], [big, big + 1]]) == 2
        assert rank_q([[big, big], [big, big]]) == 1
        # The same matrices mod a prime dividing big and mod one that does not.
        assert rank_gfp([[big, big], [big, big + 1]], 5) == 1
        assert rank_gfp([[big, big], [big, big + 1]], 2147483647) == 2


class TestSparseRank:
    @pytest.mark.parametrize("p", [0, 3, 2147483647])
    def test_sparse_columns_with_gaps(self, p):
        # Columns list only some rows, at scattered indices, as boundary
        # columns read off a full layer do for a restriction.
        rng = random.Random(20261119 + p)
        for _ in range(30):
            rows = rng.sample(range(40), rng.randint(1, 6))
            columns = [{r: rng.choice([-2, -1, 1, 2]) for r in rng.sample(rows, rng.randint(0, len(rows)))}
                       for _ in range(rng.randint(1, 6))]
            dense = [[col.get(r, 0) for col in columns] for r in rows]
            want = gf_rank_naive(dense, p) if p else fraction_rank(dense)
            assert sparse_rank(columns, p) == want
