"""Exact linear algebra over GF(p) and the rationals.

Three rank routines: GF(2) elimination on rows packed into Python
integers (XOR is the whole row operation); GF(3) elimination on columns
bitsliced into two such integers, one plane for the entries 1 and one for
the entries -1, so a column operation is a few AND/OR/XOR on the planes;
and one sparse pivot-table elimination on integer columns for the other
odd primes and for the rationals, where it keeps every entry an integer,
so rational ranks never touch floating point.  The homology code calls
them on boundary matrices, whose entries are 0 and +-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterable

_MAX_CHARACTERISTIC = 1 << 31


def _is_prime(n: int) -> bool:
    """Trial division by 2, 3 and 6k +- 1 up to isqrt(n): about 1 ms at
    2^31 - 1, the largest characteristic `CoefficientField` accepts."""
    if n < 4:
        return n >= 2
    if n % 2 == 0 or n % 3 == 0:
        return False
    for k in range(5, isqrt(n) + 1, 6):
        if n % k == 0 or n % (k + 2) == 0:
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


def gf3_rank(columns: Iterable[tuple]) -> int:
    """Rank over GF(3) of columns given as (plus, minus) bitmask pairs: the
    rows holding 1 and the rows holding -1 (= 2), which are disjoint.

    The bitsliced elimination of Boothby and Bradshaw (arXiv:0901.1413)
    with the pivot table of `sparse_rank`: a dict maps each pivot's top row
    to its planes, stored with top entry 1.  A column is reduced by the
    pivot of its top row, as column - pivot when its own top entry is 1 and
    as column + pivot when it is -1, until that row is new, when it becomes
    a pivot, or it vanishes.  Subtracting adds the pivot with its planes
    swapped, and x + y is, plane by plane, t ^ ((yp | ym) & ~xm) and
    t ^ ((xp | xm) & ~yp) with t = xp | ym.
    """
    pivots = {}
    for xp, xm in columns:
        while xp or xm:
            top = (xp | xm).bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = (xp, xm) if xp >> (top - 1) else (xm, xp)
                break
            if xp >> (top - 1):
                ym, yp = pivot
            else:
                yp, ym = pivot
            t = xp | ym
            xp, xm = t ^ ((yp | ym) & ~xm), t ^ ((xp | xm) & ~yp)
    return len(pivots)


def sparse_rank(columns: Iterable[dict], p: int) -> int:
    """Rank over GF(p), or over the rationals when p is 0, of integer
    columns given as {row: entry} dicts.

    A table maps each pivot's top row to its column.  Each column is reduced
    by the pivot of its top row until that row is new, when it becomes a
    pivot, or it vanishes.  A step replaces the column by a*col - b*pivot,
    where a and b are the top entries of pivot and column, then reduces the
    entries mod p, or for p = 0 divides them by their content, so that they
    stay integers and small.  A pivot is stored with top entry 1 mod p, or
    positive over the rationals, so a is 1 over GF(p), and the column is
    scaled only when a is not 1.  Only nonzero entries are stored.
    """
    pivots = {}
    for col in columns:
        if p:
            col = {r: v for r, e in col.items() if (v := e % p)}
        else:
            col = {r: e for r, e in col.items() if e}
        while col:
            top = max(col)
            pivot = pivots.get(top)
            if pivot is None:
                head = col[top]
                if p and head != 1:
                    inv = pow(head, -1, p)
                    col = {r: e * inv % p for r, e in col.items()}
                elif head < 0:
                    col = {r: -e for r, e in col.items()}
                pivots[top] = col
                break
            a, b = pivot[top], col[top]
            if a != 1:
                for r in col:
                    col[r] *= a
            for r, e in pivot.items():
                v = col.get(r, 0) - b * e
                if p:
                    v %= p
                if v:
                    col[r] = v
                else:
                    del col[r]
            if not p and col:
                g = gcd(*col.values())
                if g > 1:
                    col = {r: e // g for r, e in col.items()}
    return len(pivots)
