"""Exact matrix rank over prime fields and the rationals.

Matrices are lists of sparse integer rows ({column: value}).  Boundary rows
have k+1 entries of +-1 among hundreds or thousands of columns, so rows are
eliminated against a dictionary of pivot rows keyed by leading column, and
never densified.  Nothing here touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, isqrt(p) + 1))


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: a prime field GF(p), or the rationals when p is None."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

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


def _rank_gf2(rows: list[dict[int, int]]) -> int:
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
    return len(basis)


def _rank_sparse(rows: list[dict[int, int]], p: int | None) -> int:
    """Rank over GF(p), or over the rationals when p is None.

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
    return len(pivots)


def matrix_rank(rows: list[dict[int, int]], ncols: int, field: FieldSpec) -> int:
    """Rank of a sparse integer matrix over the given field."""
    if not rows or ncols == 0:
        return 0
    if field.p == 2:
        return _rank_gf2(rows)
    return _rank_sparse(rows, field.p)
