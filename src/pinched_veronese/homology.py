"""Reduced simplicial homology via exact boundary-matrix ranks.

The augmented chain complex includes the empty face in degree -1, so the
complex {[]} has one-dimensional homology in degree -1 and the divisor
complex of 0 yields the Betti number 1 in homological degree 0.
"""

from __future__ import annotations

from typing import Mapping

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


def boundary_matrix(c: SimplicialComplex, k: int) -> tuple[list[list[int]], int]:
    """Matrix of the boundary map from k-chains to (k-1)-chains.

    Rows are indexed by the k-faces in lexicographic order, columns by the
    (k-1)-faces; signs come from the position parity in the sorted face, so
    the matrix is deterministic across runs.  Degree -1 is the span of the
    empty face.
    """
    upper = c.faces_of_dim(k)
    lower = c.faces_of_dim(k - 1)
    index = {f: i for i, f in enumerate(lower)}
    rows = []
    for f in upper:
        row = [0] * len(lower)
        for j in range(len(f)):
            row[index[f[:j] + f[j + 1 :]]] = -1 if j % 2 else 1
        rows.append(row)
    return rows, len(lower)


def boundary_square_is_zero(c: SimplicialComplex) -> bool:
    """Exact integer check that consecutive boundary maps compose to zero."""
    for k in range(0, c.dim + 1):
        rows_k1, _ = boundary_matrix(c, k + 1)   # (k+1)-faces -> k-faces
        rows_k, ncols_k = boundary_matrix(c, k)  # k-faces -> (k-1)-faces
        if not rows_k1 or not rows_k:
            continue
        for row in rows_k1:
            composed = [0] * ncols_k
            for j, a in enumerate(row):
                if a:
                    for t, b in enumerate(rows_k[j]):
                        composed[t] += a * b
            if any(composed):
                return False
    return True


_profile_cache: dict[tuple, HomologyProfile] = {}


def reduced_homology(c: SimplicialComplex, field: FieldSpec = DEFAULT_FIELD) -> HomologyProfile:
    """All reduced homology dimensions of c over the given field.

    dim H~_k = (#k-faces) - rank(boundary_k) - rank(boundary_{k+1}); cones are
    recognized and short-circuited to the trivial profile.  Results are memoized
    on the relabeled face list, which is invariant under vertex renaming.
    """
    if c.is_void:
        return HomologyProfile()
    key = (c.canonical_form(), field.p)
    hit = _profile_cache.get(key)
    if hit is not None:
        return hit
    profile = _compute_profile(c, field)
    _profile_cache[key] = profile
    return profile


def _compute_profile(c: SimplicialComplex, field: FieldSpec) -> HomologyProfile:
    top = c.dim
    if top == -1:  # only the empty face
        return HomologyProfile({-1: 1})
    if c.is_cone():
        return HomologyProfile()
    counts = {k: len(c.faces_of_dim(k)) for k in range(-1, top + 1)}
    ranks = {}
    for k in range(0, top + 1):
        rows, ncols = boundary_matrix(c, k)
        ranks[k] = matrix_rank(rows, ncols, field)
    dims = {}
    for k in range(-1, top + 1):
        dims[k] = counts.get(k, 0) - ranks.get(k, 0) - ranks.get(k + 1, 0)
    return HomologyProfile(dims)


def homology_dimension(
    c: SimplicialComplex, k: int, field: FieldSpec = DEFAULT_FIELD
) -> int:
    """dim H~_k only; needs faces of dimensions k-1..k+1.

    Safe on complexes built with a size cap of at least k+2, where the full
    profile would be meaningless.
    """
    if c.is_void:
        return 0
    n_k = len(c.faces_of_dim(k))
    if n_k == 0:
        return 1 if k == -1 and not c.is_void else 0
    rows_k, ncols_k = boundary_matrix(c, k)
    rows_k1, _ = boundary_matrix(c, k + 1)
    rank_k = matrix_rank(rows_k, ncols_k, field)
    rank_k1 = matrix_rank(rows_k1, n_k, field)
    return n_k - rank_k - rank_k1


def euler_characteristic_matches(c: SimplicialComplex, profile: HomologyProfile) -> bool:
    """Face-count Euler characteristic equals the homological one (non-void c)."""
    if c.is_void:
        return profile.is_trivial
    chi_faces = sum(1 if len(f) % 2 else -1 for f in c.faces)
    return chi_faces == profile.euler_characteristic()
