"""Exact linear algebra over GF(p) and the rationals.

One rank routine per coefficient domain: GF(2) elimination on rows packed
into Python integers (XOR is the whole row operation), straightforward
modular elimination for odd primes, and Bareiss fraction-free elimination
for integer matrices, so rational ranks never touch floating point.  The
homology code calls them on boundary matrices, whose entries are 0 and +-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

_MAX_CHARACTERISTIC = 1 << 31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # Deterministic Miller-Rabin for everything below 3.3e24.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class CoefficientField:
    """GF(p) for prime p, or the rationals when characteristic is 0."""

    characteristic: int

    def __post_init__(self):
        c = self.characteristic
        if c == 0:
            return
        if c >= _MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {c} exceeds the supported bound 2^31")
        if not _is_prime(c):
            raise ValueError(f"characteristic {c} is not prime")

    @property
    def is_rationals(self) -> bool:
        return self.characteristic == 0

    def __str__(self) -> str:
        return "Q" if self.is_rationals else f"GF({self.characteristic})"


def GF(p: int) -> CoefficientField:
    return CoefficientField(p)


QQ = CoefficientField(0)


def parse_field(text: str) -> CoefficientField:
    """Read a field label: 'Q'/'q'/'0' for the rationals, a prime for GF(p)."""
    label = text.strip()
    if label.upper() == "Q" or label == "0":
        return QQ
    try:
        p = int(label)
    except ValueError:
        raise ValueError(f"cannot parse field label {text!r}") from None
    return CoefficientField(p)


def field_label(field: CoefficientField) -> str:
    return "Q" if field.is_rationals else str(field.characteristic)


# -- rank routines --------------------------------------------------------


def gf2_rank(packed_rows: Iterable[int]) -> int:
    """Rank over GF(2) of rows packed as bitmask integers."""
    pivots = []  # (leading bit, reduced row)
    rank = 0
    for row in packed_rows:
        for bit, prow in pivots:
            if row >> bit & 1:
                row ^= prow
        if row:
            pivots.append((row.bit_length() - 1, row))
            rank += 1
    return rank


def rank_mod_p(rows: Sequence, p: int) -> int:
    """Rank over GF(p) by plain Gaussian elimination."""
    work = [[e % p for e in row] for row in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        prow = work[rank]
        for i in range(rank + 1, len(work)):
            factor = work[i][col]
            if factor:
                mult = factor * inv % p
                row = work[i]
                for j in range(col, ncols):
                    row[j] = (row[j] - mult * prow[j]) % p
        rank += 1
    return rank


def integer_rank(rows: Sequence) -> int:
    """Rank over the rationals via Bareiss fraction-free elimination.

    Entries must be integers; all intermediate values stay integral.
    """
    work = [[int(e) for e in row] for row in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        for i in range(rank + 1, len(work)):
            row = work[i]
            head = row[col]
            for j in range(col + 1, ncols):
                row[j] = (row[j] * prow[col] - head * prow[j]) // prev
            row[col] = 0
        prev = prow[col]
        rank += 1
    return rank
