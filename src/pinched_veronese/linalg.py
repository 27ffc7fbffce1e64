"""Exact matrix rank over prime fields and the rationals.

Matrices are lists of sparse integer rows ({column: value}).  Boundary rows
have k+1 entries of +-1 among hundreds or thousands of columns, so rows are
eliminated against a dictionary of pivot rows keyed by leading (largest)
column, and never densified.  Nothing here touches floating point.

One elimination, `pivot_columns`, returns the set of those leading columns;
the rank is its size.  The set is what clearing needs (Chen-Kerber,
"Persistent homology computation with a twist", EuroCG 2011;
Bauer-Kerber-Reininghaus, "Clear and compress", 2014): when the rows are the
boundaries of (k+1)-faces, each pivot column is the largest k-face of a
reduced row, which is a cycle, so the boundary of that k-face lies in the
span of the boundaries of smaller k-faces.  By induction over the k-faces in
column order, dropping the pivot k-faces from the rows of the next boundary
map leaves its row space, and so its rank, unchanged over every field.
`homology._compute_profile` uses this from the top degree down.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

# Miller-Rabin to these bases, the first 13 primes, is exact below the bound
# (Sorenson-Webster, "Strong pseudoprimes to twelve prime bases", 2015)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; a p at or above the bound is refused."""
    if p >= _PRIME_BOUND:
        raise ValueError(f"{p} is too large: primes are decided only below {_PRIME_BOUND}")
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s * odd
    for a in _BASES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class _FieldFields(NamedTuple):
    p: int | None


class FieldSpec(_FieldFields):
    """Coefficient field: a prime field GF(p), or the rationals when p is None."""

    __slots__ = ()

    def __new__(cls, p: int | None = None) -> "FieldSpec":
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p)

    @classmethod
    def _make(cls, iterable) -> "FieldSpec":
        # the NamedTuple default (and `_replace`, which calls it) skips __new__
        return cls(*iterable)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        t = text.strip().lower()
        if t in ("q", "qq", "rationals", "rational", "0"):
            return cls(None)
        if t.startswith("gf(") and t.endswith(")"):
            t = t[3:-1]
        return cls(int(t))

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    @property
    def label(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"

    def __str__(self) -> str:
        return self.label


DEFAULT_FIELD = FieldSpec(32003)
GF2 = FieldSpec(2)
RATIONALS = FieldSpec(None)


def _pivots_gf2(rows: list[dict[int, int]]) -> set[int]:
    # rows as bitmasks, reduced into an xor basis keyed by highest set bit
    basis: dict[int, int] = {}
    for r in rows:
        m = sum(1 << j for j, a in r.items() if a & 1)
        while m:
            hb = m.bit_length() - 1
            if hb in basis:
                m ^= basis[hb]
            else:
                basis[hb] = m
                break
    return set(basis)


def _pivots_sparse(rows: list[dict[int, int]], p: int | None) -> set[int]:
    """Pivot columns over GF(p), or over the rationals when p is None.

    Each row is reduced against the pivot row of its leading (largest)
    column until that column is new; on boundary rows in lexicographic
    order, leading with the largest column keeps the fill-in small.  Over
    GF(p) pivot rows are scaled to a leading 1.  Over the rationals rows stay
    integral: with leading entries a (row) and b (pivot), the row becomes
    (b/g)*row - (a/g)*pivot for g = gcd(a, b), and its content is divided
    out, so every step is exact.
    """
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        if p is None:
            row = {j: a for j, a in r.items() if a}
        else:
            row = {j: a % p for j, a in r.items() if a % p}
        while row:
            col = max(row)
            prow = pivots.get(col)
            if prow is None:
                if p is not None and row[col] != 1:
                    inv = pow(row[col], -1, p)
                    row = {j: a * inv % p for j, a in row.items()}
                pivots[col] = row
                break
            a = row[col]
            if p is None:
                b = prow[col]
                g = gcd(a, b)
                x, a = b // g, a // g
                if x != 1:
                    row = {j: x * v for j, v in row.items()}
            for j, v in prow.items():
                w = row.get(j, 0) - a * v
                if p is not None:
                    w %= p
                if w:
                    row[j] = w
                else:
                    del row[j]
            if p is None and row:
                g = gcd(*row.values())
                if g != 1:
                    row = {j: v // g for j, v in row.items()}
    return set(pivots)


def pivot_columns(rows: list[dict[int, int]], field: FieldSpec) -> set[int]:
    """Leading columns of the rows of a sparse integer matrix, reduced over the field.

    Each reduced row that does not vanish has a distinct largest column, so
    the set has the size of the rank.  Only the column indices are returned;
    the reduced rows are released with the elimination.
    """
    if field.p == 2:
        return _pivots_gf2(rows)
    return _pivots_sparse(rows, field.p)

