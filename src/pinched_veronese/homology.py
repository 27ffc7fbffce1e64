"""Reduced simplicial homology via exact boundary-matrix ranks.

The augmented chain complex includes the empty face in degree -1, so the
complex {[]} has one-dimensional homology in degree -1 and the divisor
complex of 0 yields the Betti number 1 in homological degree 0.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .complexes import SimplicialComplex
from .linalg import DEFAULT_FIELD, FieldSpec, matrix_rank


class HomologyProfile:
    """Dimensions of reduced homology, indexed by degree k >= -1.

    Only nonzero dimensions are stored; lookups outside the support return 0.
    """

    __slots__ = ("_dims",)

    def __init__(self, dims: Mapping[int, int] | None = None):
        clean = {}
        for k, v in (dims or {}).items():
            k, v = int(k), int(v)
            if v < 0:
                raise ValueError(f"negative homology dimension at degree {k}")
            if v:
                clean[k] = v
        self._dims = clean

    def __getitem__(self, k: int) -> int:
        return self._dims.get(k, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomologyProfile):
            return NotImplemented
        return self._dims == other._dims

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._dims.items())))

    def __bool__(self) -> bool:
        return bool(self._dims)

    def items(self):
        return sorted(self._dims.items())

    @property
    def is_trivial(self) -> bool:
        return not self._dims

    def euler_characteristic(self) -> int:
        """Alternating sum of dimensions, including the degree -1 term."""
        return sum(-v if k % 2 else v for k, v in self._dims.items())

    def to_pairs(self) -> list[list[int]]:
        return [[k, v] for k, v in self.items()]

    @classmethod
    def from_pairs(cls, pairs) -> "HomologyProfile":
        return cls({int(k): int(v) for k, v in pairs})

    def __repr__(self) -> str:
        return f"HomologyProfile({dict(self.items())})"


def boundary_matrix(c: SimplicialComplex, k: int) -> tuple[list[dict[int, int]], int]:
    """Sparse matrix of the boundary map from k-chains to (k-1)-chains.

    Row r is {column: +-1} for the r-th k-face in lexicographic order;
    columns index the (k-1)-faces in the same order.  Removing the j-th
    smallest vertex has sign (-1)^j, so the matrix is deterministic across
    runs.  Degree -1 is the span of the empty face.
    """
    levels = c.levels
    upper = levels[k + 1] if 0 <= k + 1 < len(levels) else ()
    lower = levels[k] if 0 <= k < len(levels) else ()
    index = {f: j for j, f in enumerate(lower)}
    rows = []
    for f in upper:
        row = {}
        sign = 1
        rest = f
        while rest:
            v = rest & -rest
            row[index[f ^ v]] = sign
            sign = -sign
            rest ^= v
        rows.append(row)
    return rows, len(lower)


def boundary_square_is_zero(c: SimplicialComplex) -> bool:
    """Exact integer check that consecutive boundary maps compose to zero."""
    for k in range(0, c.dim + 1):
        rows_k1, _ = boundary_matrix(c, k + 1)  # (k+1)-faces -> k-faces
        rows_k, _ = boundary_matrix(c, k)  # k-faces -> (k-1)-faces
        for row in rows_k1:
            composed: dict[int, int] = {}
            for j, a in row.items():
                for t, b in rows_k[j].items():
                    composed[t] = composed.get(t, 0) + a * b
            if any(composed.values()):
                return False
    return True


def reduced_homology(
    c: SimplicialComplex,
    field: FieldSpec = DEFAULT_FIELD,
    window: Optional[tuple[int, int]] = None,
) -> HomologyProfile:
    """Reduced homology dimensions of c over the given field.

    dim H~_k = (#k-faces) - rank(boundary_k) - rank(boundary_{k+1}); cones are
    recognized and short-circuited to the trivial profile.  `window = (lo, hi)`
    computes only the degrees lo..hi (the rest read 0) and needs only the
    faces of dimension lo-1..hi+1, so it is safe on a skeleton built with a
    size cap of at least hi+2.
    """
    if c.is_void:
        return HomologyProfile()
    return _compute_profile(c, field, window)


def _compute_profile(
    c: SimplicialComplex, field: FieldSpec, window: Optional[tuple[int, int]] = None
) -> HomologyProfile:
    if c.is_cone():
        return HomologyProfile()
    top = c.dim
    lo, hi = (-1, top) if window is None else (window[0], min(window[1], top))
    ranks = {}
    for k in range(max(lo, 0), min(hi + 1, top) + 1):
        rows, ncols = boundary_matrix(c, k)
        ranks[k] = matrix_rank(rows, ncols, field)
    return HomologyProfile({
        k: len(c.levels[k + 1]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        for k in range(max(lo, -1), hi + 1)
    })


def euler_characteristic_matches(c: SimplicialComplex, profile: HomologyProfile) -> bool:
    """Face-count Euler characteristic equals the homological one (non-void c)."""
    if c.is_void:
        return profile.is_trivial
    chi_faces = sum(len(level) if k % 2 else -len(level) for k, level in enumerate(c.levels))
    return chi_faces == profile.euler_characteristic()
