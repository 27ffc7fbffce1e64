"""Reduced simplicial homology via exact boundary-matrix ranks.

The augmented chain complex includes the empty face in degree -1, so the
complex {[]} has one-dimensional homology in degree -1 and the divisor
complex of 0 yields the Betti number 1 in homological degree 0.  Every
profile starts from the face bitset of the excision pair of the vertex
`complexes._pair_vertex` picks (`complexes._pair_cells`).  A Betti scan
first tries `settled_profile`, which pairs the cells further and settles
the profile with no rank when those left have one size; `reduced_homology`
lists the cells, in order, and reduces their boundary maps.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping, Optional, Sequence

from .complexes import SimplicialComplex, _face_levels, _pair_cells, _pair_vertex
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
    levels = c.levels
    lower = boundary_matrix(levels, 0)  # vertices -> empty face
    for k in range(1, len(levels) - 1):
        upper = boundary_matrix(levels, k)  # k-faces -> (k-1)-faces
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

    They are read off the cells of one excision pair (`_compute_profile`;
    a void c has none); a Betti scan skips the c that `betti._apex_bounds`
    proves cones.
    """
    vertices = c.rows.vertices
    cells = _pair_cells(c.bits, vertices, _pair_vertex(c.bits, vertices))
    return _compute_profile(_face_levels(cells, c.rows), field)


def _compute_profile(cells: Sequence[Sequence[int]], field: FieldSpec) -> HomologyProfile:
    """Profile of a pair from its cells by size, reduced top down with clearing.

    For a complex c and a vertex v (`complexes._pair_cells`), the star
    st = {F : F + v in c} is a cone, so its augmented chains are acyclic
    and the sequence of the pair gives
    H~_k(c) = H_k(c, st) = H_k(del_v c, lk_v c) by excision (Forman, Adv.
    Math. 1998; Jonsson, LNM 1928, 2008).  st is closed under taking faces,
    so the quotient boundary of a cell, a face outside st, is its boundary
    restricted to the cells.  If v is in no face, st is empty.

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


def settled_profile(faces: int, vertices: Sequence[int],
                    sizes: Sequence[int]) -> Optional[HomologyProfile]:
    """The profile of a non-void complex over every field, when an iterated
    element matching settles it; None when it does not.

    The complex is a bitset, as `complexes.divisor_bits` gives it: bit F
    is set for each face F, `vertices[v]` holds the F with v, and
    `sizes[f]` the F with f vertices, for every size of a face.  Starting
    from every face as a cell, one vertex w at a time pairs each cell F
    without w with F + w when F + w is a cell too (a shift by 2^w takes
    F + w to F); the cells left are the critical ones.  The first pass, by
    the vertex v that `complexes._pair_vertex` picks, leaves the cells of
    its excision pair (`complexes._pair_cells`): the faces F without v
    whose F + v is no face.  Then every vertex takes a pass in order, v
    pairing nothing a second time.

    Why the profile is exact.  Pairing F with F + v whenever both are faces
    is an element matching on the augmented face poset, and the faces it
    leaves are the cells of v: F - v is always a face.  Each later step is
    an element matching on what the steps before left, so the union of all
    the pairs is an acyclic matching (Jonsson, Simplicial Complexes of
    Graphs, LNM 1928, 2008, iterated element matchings).  F is a facet of
    F + w, with incidence +-1, a unit in Z and in every field, so algebraic
    Morse theory (Skoldberg, Trans. AMS 2006) makes the augmented chain
    complex over Z homotopy equivalent to one on the critical cells, with
    a critical cell of k + 1 vertices in degree k.  If all critical cells
    have one size k + 1, that complex has no differential, so H~_k is free
    of rank their number, every other degree is 0, and the same holds over
    every field.  With no critical cells, every degree is 0: an apex v of
    a cone has no cells at all.
    """
    critical = _pair_cells(faces, vertices, _pair_vertex(faces, vertices))
    # no complement of a wide int is taken: a & ~b is written a ^ (a & b)
    for w in range(len(vertices)):
        if with_w := critical & vertices[w]:
            low = (critical ^ with_w) & (with_w >> (1 << w))
            critical ^= low | low << (1 << w)
    if not critical:
        return HomologyProfile()
    size = ((critical & -critical).bit_length() - 1).bit_count()
    if critical & sizes[size] != critical:
        return None
    return HomologyProfile({size - 1: critical.bit_count()})


def euler_characteristic_matches(c: SimplicialComplex, profile: HomologyProfile) -> bool:
    """Face-count Euler characteristic equals the homological one (non-void c)."""
    if c.is_void:
        return profile.is_trivial
    chi_faces = sum((c.bits & size).bit_count() * (1 if f % 2 else -1)
                    for f, size in enumerate(c.rows.sizes))
    return chi_faces == profile.euler_characteristic()
