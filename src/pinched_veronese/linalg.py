"""Exact matrix rank over prime fields and the rationals.

Boundary matrices here are small (a few hundred columns at desk scale) and
integer-valued, so dense elimination is enough; the interfaces take plain
list-of-row-lists and never touch floating point.
"""

from __future__ import annotations

from dataclasses import dataclass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


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


def _rank_gf2(rows: list[list[int]]) -> int:
    # rows as bitmasks, reduced into an xor basis keyed by highest set bit
    basis: dict[int, int] = {}
    for r in rows:
        m = 0
        for j, a in enumerate(r):
            if a & 1:
                m |= 1 << j
        while m:
            hb = m.bit_length() - 1
            if hb in basis:
                m ^= basis[hb]
            else:
                basis[hb] = m
                break
    return len(basis)


def _rank_mod_p(rows: list[list[int]], ncols: int, p: int) -> int:
    mat = [[a % p for a in r] for r in rows]
    mat = [r for r in mat if any(r)]
    rank = 0
    col = 0
    nrows = len(mat)
    while rank < nrows and col < ncols:
        piv = None
        for i in range(rank, nrows):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        prow = [(a * inv) % p for a in mat[rank]]
        mat[rank] = prow
        for i in range(rank + 1, nrows):
            f = mat[i][col]
            if f:
                row = mat[i]
                mat[i] = [(a - f * b) % p for a, b in zip(row, prow)]
        rank += 1
        col += 1
    return rank


def _rank_fraction_free(rows: list[list[int]], ncols: int) -> int:
    # Bareiss elimination: every division below is exact, so the rank over
    # the rationals is computed without ever forming a fraction
    mat = [list(r) for r in rows if any(r)]
    nrows = len(mat)
    rank = 0
    col = 0
    prev = 1
    while rank < nrows and col < ncols:
        piv = None
        for i in range(rank, nrows):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivot = mat[rank][col]
        prow = mat[rank]
        for i in range(rank + 1, nrows):
            row = mat[i]
            f = row[col]
            for j in range(col, ncols):
                row[j] = (pivot * row[j] - f * prow[j]) // prev
        prev = pivot
        rank += 1
        col += 1
    return rank


def matrix_rank(rows: list[list[int]], ncols: int, field: FieldSpec) -> int:
    """Rank of an integer matrix over the given field."""
    if not rows or ncols == 0:
        return 0
    if field.is_rationals:
        return _rank_fraction_free(rows, ncols)
    if field.p == 2:
        return _rank_gf2(rows)
    return _rank_mod_p(rows, ncols, field.p)
