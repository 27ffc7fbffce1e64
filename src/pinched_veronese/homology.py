"""Reduced simplicial homology via exact boundary-matrix ranks.

The augmented chain complex includes the empty face in degree -1, so the
complex {[]} has one-dimensional homology in degree -1 and the divisor
complex of 0 yields the Betti number 1 in homological degree 0.  Profiles
are reduced from the cells of one vertex's excision pair, row by row.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import AbstractSet, Mapping, Optional, Sequence

from .complexes import SimplicialComplex
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
    levels: Sequence[Sequence[int]], k: int, skip: AbstractSet[int] = frozenset()
) -> list[dict[int, int]]:
    """Sparse rows of the boundary map from k-cells to (k-1)-cells.

    levels holds masks by size in lexicographic order: a complex's `levels`
    or a pair's cells.  Row r, built on demand, is {column: +-1} for the r-th
    cell with k+1 vertices; column j is the j-th cell one size down, and a
    face that is not a cell has none, so this is the full boundary of a
    complex and the relative one of a pair.  Removing the j-th smallest
    vertex has sign (-1)^j; degree -1 is the span of the empty face.  The
    rows at `skip` are left out, and where there is no map there are none.
    """
    if not 0 <= k < len(levels) - 1:
        return []
    below = {m: j for j, m in enumerate(levels[k])}
    rows = []
    for r, m in enumerate(levels[k + 1]):
        if r not in skip:
            row, sign, rest = {}, 1, m
            while rest:
                v = rest & -rest
                if (j := below.get(m ^ v)) is not None:
                    row[j] = sign
                sign, rest = -sign, rest ^ v
            rows.append(row)
    return rows


def boundary_square_is_zero(c: SimplicialComplex) -> bool:
    """Exact integer check that consecutive boundary maps compose to zero.

    The levels are walked upward, so each boundary matrix is built once and
    serves as the lower map of the next composition; its row j is the
    boundary of the face that the upper map's column j stands for.
    """
    lower = boundary_matrix(c.levels, 0)  # vertices -> empty face
    for k in range(1, c.dim + 1):
        upper = boundary_matrix(c.levels, k)  # k-faces -> (k-1)-faces
        for row in upper:
            composed: dict[int, int] = {}
            for j, a in row.items():
                for t, b in lower[j].items():
                    composed[t] = composed.get(t, 0) + a * b
            if any(composed.values()):
                return False
        lower = upper
    return True


def reduced_homology(c: SimplicialComplex, field: FieldSpec = DEFAULT_FIELD) -> HomologyProfile:
    """Reduced homology dimensions of c over the given field, degrees -1..dim.

    They are read off the excision pair of one vertex (`_compute_profile`);
    a Betti scan skips the c that `betti._apex_bounds` proves cones.
    """
    if c.is_void:
        return HomologyProfile()
    return _compute_profile(_excision_cells(c.levels), field)


def _excision_cells(levels: Sequence[Sequence[int]], v: Optional[int] = None) -> list:
    """The cells of the pair (del_v, lk_v) by size: the faces F with F + v not a face.

    v defaults to the vertex in the most faces of the top size, the smallest
    on ties.  A face with v is never a cell; one without v is, unless it is
    in the link {G - v : G a face with v} taken one size up.
    """
    if v is None:
        top = levels[-1]
        v = max(range(reduce(or_, top).bit_length()),
                key=lambda u: sum(1 for f in top if f >> u & 1), default=0)
    b = 1 << v
    cells = []
    for f, level in enumerate(levels):
        up = {g ^ b for g in levels[f + 1] if g & b} if f + 1 < len(levels) else ()
        cells.append(tuple(m for m in level if not m & b and m not in up))
    return cells


def _compute_profile(cells: Sequence[Sequence[int]], field: FieldSpec) -> HomologyProfile:
    """Profile of a pair from its cells of sizes 0..dim+1, reduced top down with clearing.

    For a complex c and a vertex v (`_excision_cells`), the star st = {F : F + v in c} is a cone, so its
    augmented chains are acyclic and the sequence of the pair gives
    H~_k(c) = H_k(c, st) = H_k(del_v c, lk_v c) by excision (Forman, Adv.
    Math. 1998; Jonsson, LNM 1928, 2008).  st is closed under taking faces,
    so the quotient boundary of a cell, a face outside st, is its boundary
    restricted to the cells.  If v is in no face, st is empty.  There are
    |c| - 2 * #{faces with v} cells, none exactly when v is an apex.

    The boundary maps are reduced from the top one down, the top one in
    full.  A pivot column of boundary_{k+1} is a k-cell that leads a reduced
    row, which is a cycle, so that cell's boundary lies in the span of those
    of smaller k-cells; by induction boundary_k keeps its rank without the
    pivot cells' rows.  This needs only boundary_k * boundary_{k+1} = 0 and
    unit leading entries, so it holds for the pair over every field
    (Chen-Kerber, EuroCG 2011; Bauer-Kerber-Reininghaus, "Clear and
    compress", 2014).  Then
    dim H~_k = #(cells with k+1 vertices) - rank_k - rank_{k+1}.
    """
    dim = len(cells) - 2
    ranks = {}
    cleared: set[int] = set()
    for k in range(dim, -1, -1):
        # a map from or to no cells has rank 0
        cleared = (pivot_columns(boundary_matrix(cells, k, skip=cleared), field)
                   if cells[k] and cells[k + 1] else set())
        ranks[k] = len(cleared)
    return HomologyProfile({
        k: len(cells[k + 1]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        for k in range(-1, dim + 1)
    })


def euler_characteristic_matches(c: SimplicialComplex, profile: HomologyProfile) -> bool:
    """Face-count Euler characteristic equals the homological one (non-void c)."""
    if c.is_void:
        return profile.is_trivial
    chi_faces = sum(len(level) if k % 2 else -len(level) for k, level in enumerate(c.levels))
    return chi_faces == profile.euler_characteristic()
