"""Reduced simplicial homology via exact boundary-matrix ranks.

The augmented chain complex includes the empty face in degree -1, so the
complex {[]} has one-dimensional homology in degree -1 and the divisor
complex of 0 yields the Betti number 1 in homological degree 0.
"""

from __future__ import annotations

from math import comb
from typing import AbstractSet, Mapping, Optional

from .complexes import SimplicialComplex, _boundary_rows, _subsets
from .linalg import DEFAULT_FIELD, FieldSpec, pivot_columns


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


def boundary_matrix(
    c: SimplicialComplex, k: int, skip: AbstractSet[int] = frozenset()
) -> tuple[list[Mapping[int, int]], int]:
    """Sparse matrix of the boundary map from k-chains to (k-1)-chains.

    Row r is {column: +-1} for the r-th k-face in lexicographic order.  A
    column, like an entry of `skip`, is a position among the k-subsets (for
    a row, the (k+1)-subsets) of c.ground in lexicographic order, so the
    matrix has C(|ground|, k) columns; on a full simplex these are the face
    indices.  Removing the j-th smallest vertex has sign (-1)^j, so the
    matrix is deterministic across runs.  Degree -1 is the span of the empty
    face.  The rows at the positions in `skip` are left out, and the others
    keep their order.  The rows are `complexes._boundary_rows`' own, shared
    by every complex on the same ground set, so they are read-only mappings.
    """
    ncols = comb(len(c.ground), k) if k >= 0 else 0
    if not 0 <= k + 1 < len(c.levels):
        return [], ncols
    rows = _boundary_rows(c.ground, k + 1)
    positions = map(_subsets(c.ground, k + 1)[1].__getitem__, c.levels[k + 1])
    return [rows[j] for j in positions if j not in skip], ncols


def boundary_square_is_zero(c: SimplicialComplex) -> bool:
    """Exact integer check that consecutive boundary maps compose to zero.

    The levels are walked upward, so each boundary matrix is built once and
    serves as the lower map of the next composition; its rows are looked up
    by the position of their face, which is what the upper map's columns are.
    """
    lower, _ = boundary_matrix(c, 0)  # vertices -> empty face
    for k in range(1, c.dim + 1):
        upper, _ = boundary_matrix(c, k)  # k-faces -> (k-1)-faces
        below = dict(zip(map(_subsets(c.ground, k)[1].__getitem__, c.levels[k]), lower))
        for row in upper:
            composed: dict[int, int] = {}
            for j, a in row.items():
                for t, b in below[j].items():
                    composed[t] = composed.get(t, 0) + a * b
            if any(composed.values()):
                return False
        lower = upper
    return True


def reduced_homology(
    c: SimplicialComplex,
    field: FieldSpec = DEFAULT_FIELD,
    window: Optional[tuple[int, int]] = None,
) -> HomologyProfile:
    """Reduced homology dimensions of c over the given field.

    dim H~_k = (#k-faces) - rank(boundary_k) - rank(boundary_{k+1}); cones are
    recognized and short-circuited to the trivial profile.  A Betti scan does
    not call this for the elements h whose complex a generator g is proved
    to be an apex of (`betti._apex_bounds`: every face F avoiding g leaves
    enough of h that h - sum(F) - g is still in H), so the cones met here
    are the ones that certificate misses.  `window = (lo, hi)`
    computes only the degrees lo..hi (the rest read 0) and needs only the
    faces of dimension lo-1..hi+1, so it is safe on a skeleton built with a
    size cap of at least hi+2.  The ranks come from one top-down reduction
    with clearing (`_compute_profile`) of the boundary rows that
    `boundary_matrix` reads from the ground set's subset table; the
    elimination copies each row it reduces, so the shared rows stay intact.
    """
    if c.is_void:
        return HomologyProfile()
    return _compute_profile(c, field, window)


def _compute_profile(
    c: SimplicialComplex, field: FieldSpec, window: Optional[tuple[int, int]] = None
) -> HomologyProfile:
    """Profile from the boundary ranks, reduced from the top degree down with clearing.

    The highest boundary map the window needs is reduced in full.  Its pivot
    columns are k-faces that lead a reduced row; such a row is a cycle, so
    the boundary of its leading k-face lies in the span of the boundaries of
    smaller k-faces, and by induction over the k-faces the other rows of
    boundary_k span its whole row space.  So boundary_k is built without
    those rows, and its rank is unchanged over every field
    (Chen-Kerber, "Persistent homology computation with a twist", EuroCG
    2011; Bauer-Kerber-Reininghaus, "Clear and compress", 2014).  A plain
    elimination of boundary_k reduces rank(boundary_{k+1}) + dim H~_k rows
    to zero; after clearing only dim H~_k are left.  Only the set of pivot
    indices is carried from one level to the next.
    """
    if c.is_cone():
        return HomologyProfile()
    top = c.dim
    lo, hi = (-1, top) if window is None else (window[0], min(window[1], top))
    ranks = {}
    cleared: set[int] = set()
    for k in range(min(hi + 1, top), max(lo, 0) - 1, -1):
        rows, ncols = boundary_matrix(c, k, skip=cleared)
        cleared = pivot_columns(rows, ncols, field)
        del rows
        ranks[k] = len(cleared)
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
