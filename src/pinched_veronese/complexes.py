"""Squarefree divisor complexes and their combinatorial operations.

A face of the divisor complex of h is a subset F of the generators with
h - sum(F) still in the semigroup.  A face is an int mask over vertex
labels (bit v set when v is in the face), and a complex is one int, bit F
set for each face F, read on per-vertex and per-size rows: a divisor
complex on its own table's, any other on `_ground_rows`.  Its faces are
listed by size (`levels`) only for a boundary matrix.

The split of a complex at one vertex v is stated once, in `_pair_cells`:
the cells of v are the faces F with F + v not a face.  `_pair_vertex`
picks v, the vertex in the most faces (the smallest on ties).  `link` is
the complex without them, `is_cone` asks whether a vertex has none, and
`homology` settles or reduces them.

The face rule is stated once, in `_face_bits`, on the one table of the
generator subsets that `_subset_bits` holds (a bounded memo of
per-vertex, per-size and per-coordinate bitsets over all 2^V subset
masks): F is a face when sum(F) <= h, an AND of one row per coordinate,
and h - sum(F) is no hole of its degree (`semigroup._holes`), the members
`_hole_members` clears.  A Betti scan reads each divisor complex as that
bitset (`divisor_bits`) and settles most of them there
(`homology.settled_profile`); a built complex is the same bitset on the
same table.
"""

from __future__ import annotations

from collections.abc import Set
from functools import lru_cache, partial, reduce
from itertools import chain, combinations, compress
from operator import and_, sub
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .semigroup import (
    Multidegree,
    PinchConfig,
    _compositions_desc,
    _holes,
    _HoleSet,
    generate_generators,
    is_member_closed,
)

def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _vertices(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


class _FaceView(Set):
    """The faces of a complex as a read-only set of frozensets, built on demand."""

    __slots__ = ("_c",)
    _from_iterable = frozenset

    def __init__(self, c: "SimplicialComplex"):
        self._c = c

    def __len__(self) -> int:
        return self._c.bits.bit_count()

    def __iter__(self):
        return (frozenset(_vertices(m)) for m in chain.from_iterable(self._c.levels))

    def __contains__(self, f) -> bool:
        return bool(self._c.bits >> _mask(f) & 1)


class SimplicialComplex:
    """Finite abstract simplicial complex on non-negative integer vertex labels.

    `bits` has bit F set for each face F (0 when void), read on the
    `_SubsetBits` `rows` of every vertex and size of a face, by default
    `_ground_rows` of the width of the largest face mask.
    """

    __slots__ = ("ground", "bits", "rows")

    def __init__(self, ground: Iterable[int], bits: int, rows: Optional[_SubsetBits] = None):
        self.ground = tuple(sorted(set(ground)))
        self.bits = bits
        self.rows = rows or _ground_rows(max(1, (bits.bit_length() - 1).bit_length()))

    # -- basic queries -------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.bits

    @property
    def faces(self) -> _FaceView:
        return _FaceView(self)

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """The face masks by size, each size in lexicographic order."""
        return _face_levels(self.bits, self.rows)

    def support(self) -> tuple[int, ...]:
        """Vertices that actually appear in some face: the v with {v} a face."""
        return tuple(v for v in range(len(self.rows.vertices)) if self.bits >> (1 << v) & 1)

    @property
    def dim(self) -> int:
        """Dimension (max face size - 1); -1 for {empty face}, -2 for void."""
        return _top(self.bits, self.rows.sizes) - 2

    def is_cone(self) -> bool:
        """True if some vertex belongs to every maximal face (contractible):
        a vertex of the support whose pair has no cells (`_pair_cells`)."""
        return any(not _pair_cells(self.bits, self.rows.vertices, v) for v in self.support())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.ground == other.ground and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.ground, self.bits))

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(ground_size={len(self.ground)}, "
            f"faces={len(self.faces)}, dim={self.dim})"
        )


class _SubsetBits(NamedTuple):
    """Bitsets over the subsets F of the vertices 0..V-1, one Python int
    each, bit F standing for the subset with mask F: `vertices[v]`, the F
    with v; `sizes[f]`, the F with f vertices; and `at_most[j][x]`, the F
    whose generator sum has j-th coordinate at most x."""

    vertices: tuple[int, ...]
    sizes: tuple[int, ...]
    at_most: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=4)
def _subset_bits(gens: tuple[tuple[int, ...], ...], cap: int) -> _SubsetBits:
    """The `_SubsetBits` of the vertices 0..len(gens)-1, vertex j having
    generator gens[j], up to coordinate `cap` (bounded memo).

    A table holds at most n*(cap+1) + V + cap/d + 1 ints of 2^V bits
    (`table_bytes`), so a caller passes as `cap` the largest coordinate it
    can ask about: a scan s_max*d, which its fallback builds reuse, and a
    non-CM witness or a one-off build its own |h|.  The rows of coordinate
    j stop sooner where the sum of all gens[k][j] is smaller (their last
    row is then every subset), and `sizes` stops at cap/d vertices, the
    largest face an h with |h| <= cap can have.  At the default budget the
    largest table that a scan builds is about 17 MB (n=2, d=21, s_max=1).
    Nothing loops over the subsets: each bitset is grown one vertex at a
    time, the subsets of 0..k being those of 0..k-1 and their shifts by
    2^k, which gain vertex k (so `vertices[k]` is the shifted half alone),
    its size and its generator.
    """
    sizes = [1] + [0] * min(len(gens), cap // sum(gens[0]))
    rows = [[1] + [0] * min(cap, sum(g[j] for g in gens)) for j in range(len(gens[0]))]
    vertices = []
    for k, g in enumerate(gens):
        shift = 1 << k
        for j in range(k):
            vertices[j] |= vertices[j] << shift
        vertices.append(((1 << shift) - 1) << shift)
        for f in range(min(k + 1, len(sizes) - 1), 0, -1):
            sizes[f] |= sizes[f - 1] << shift
        for row, c in zip(rows, g):
            for x in range(len(row) - 1, c - 1, -1):
                row[x] |= row[x - c] << shift
    for row in rows:
        for x in range(1, len(row)):
            row[x] |= row[x - 1]
    return _SubsetBits(tuple(vertices), tuple(sizes), tuple(map(tuple, rows)))


@lru_cache(maxsize=4)
def _ground_rows(V: int) -> _SubsetBits:
    """The vertex and size rows of the subsets of 0..V-1, V >= 1, that a
    complex not read off a divisor table is stored on (bounded memo)."""
    return _subset_bits.__wrapped__(((1,),) * V, V)._replace(at_most=())


def table_bytes(config: PinchConfig, cap: int) -> int:
    """The size in bytes of the `_subset_bits` table that `divisor_bits(h,
    config, cap)` reads: each of its rows is an int of 2^V bits."""
    gens = generate_generators(config)
    rows = (len(gens) + 1 + min(len(gens), cap // config.d)
            + sum(min(cap, sum(column)) + 1 for column in zip(*gens)))
    return rows << len(gens) >> 3


@lru_cache(maxsize=64)
def _subsets(V: int, f: int) -> tuple[int, ...]:
    """The masks of the f-subsets of the vertices 0..V-1, in lexicographic
    order of the sorted vertex tuples (bounded memo, one entry per size)."""
    return tuple(map(sum, combinations([1 << v for v in range(V)], f)))


def _hole_members(h, total: int, missing: _HoleSet, at_most) -> int:
    """The bitmask of the subsets whose sum v makes h - v a hole, the holes
    of this total being `missing` and `at_most[j][x]` the subsets with
    v_j <= x (a row past the last is the last).  A half-space r_p >= low is
    the row of v_p <= h_p - low, and each other hole r the v = h - r, the
    AND over j of row v_j without the row below it."""
    holes = 0
    if missing.half and h[missing.half[0]] >= missing.half[1]:
        p, low = missing.half
        holes = at_most[p][min(h[p] - low, len(at_most[p]) - 1)]
    for r in missing.listed(h, total):
        v = tuple(map(sub, h, r))
        if all(0 <= x < len(row) for x, row in zip(v, at_most)):
            holes |= reduce(and_, (row[x] ^ row[x - 1] if x else row[0]
                                   for x, row in zip(v, at_most)))
    return holes


def _face_bits(h, gens, holes: Optional[Callable[[int], _HoleSet]],
               cap: int) -> tuple[int, _SubsetBits]:
    """{F : h - sum(F) in H} as a bitset, for h in H, with the
    `_subset_bits` table of cap >= |h| it is read on.

    `gens` holds the generator of each vertex, each of total d, and
    `holes(t)` gives the vectors of total t*d missing from H, as
    `semigroup._holes` does (None: H misses none).  Every remainder has a
    total that is a multiple of d, so it is in H exactly when it is
    non-negative and not a hole: the AND of one `at_most` row per
    coordinate, less the F of the holes at each size f (`_hole_members`),
    cleared as a ^= a & b where there are any, since the complement of a
    wide int costs far more.
    """
    bits = _subset_bits(gens, cap)
    at_most = bits.at_most
    faces = reduce(and_, (row[min(x, len(row) - 1)] for x, row in zip(h, at_most)))
    if holes is not None:
        d, total = sum(gens[0]), sum(h)
        # at f = |h|/d the remainder is 0, never a hole
        for f in range(1, min(total // d - 1, len(bits.sizes) - 1) + 1):
            if members := _hole_members(h, total - f * d, holes(total // d - f), at_most):
                faces ^= faces & bits.sizes[f] & members
    return faces, bits


def divisor_bits(h, config: PinchConfig, cap: int) -> tuple[int, _SubsetBits]:
    """The divisor complex of h in H as a bitset, bit F set when h - sum(F)
    is in H, with its table of cap >= |h| (`_face_bits`)."""
    return _face_bits(h, generate_generators(config), partial(_holes, config), cap)


# bin() digits as bytes 0/1, so that compress reads them as truth values
_BITS = bytes.maketrans(b"01", b"\0\1")


def _top(faces: int, sizes: Sequence[int]) -> int:
    """One more than the largest size of a mask in `faces`; 0 when it is 0."""
    return next((f + 1 for f in range(len(sizes) - 1, -1, -1) if faces & sizes[f]), 0)


def _face_levels(faces: int, rows: _SubsetBits) -> tuple[tuple[int, ...], ...]:
    """The masks of the bitset `faces` on `rows` by size, up to the largest:
    per size f, one `compress` of `_subsets(V, f)` by the bits of `faces`,
    V the width of `rows`."""
    V = len(rows.vertices)
    flags = bin(faces | 1 << (1 << V))[:2:-1].encode().translate(_BITS)
    levels = []
    for f in range(_top(faces, rows.sizes)):
        masks = _subsets(V, f)
        levels.append(tuple(compress(masks, map(flags.__getitem__, masks))))
    return tuple(levels)


def build_divisor_complex(h, config: PinchConfig, cap: Optional[int] = None) -> SimplicialComplex:
    """Divisor complex of h over the pinched generators; void when h is not in H.

    It is the `divisor_bits` bitset on the table of `cap` (default |h|), so
    a scan passing its own cap reuses the table it holds; a cap below |h|
    would cut rows that faces need, and is refused.
    """
    h = Multidegree(h)
    cap = h.total if cap is None else cap
    if cap < h.total:
        raise ValueError(f"table cap {cap} is below |h| = {h.total}")
    face_bits = divisor_bits(h, config, cap) if is_member_closed(h, config) else (0,)
    return SimplicialComplex(range(config.N - 1), *face_bits)


def veronese_generators(n: int, d: int) -> tuple[Multidegree, ...]:
    """All degree-d exponent vectors in n variables, descending lex."""
    return tuple(Multidegree(c) for c in _compositions_desc(d, n))


def build_veronese_complex(h, n: int, d: int) -> SimplicialComplex:
    """Divisor complex of h for the full (unpinched) Veronese semigroup, on
    the labels of veronese_generators(n, d)."""
    h = Multidegree(h)
    gens = veronese_generators(n, d)
    # the unpinched Veronese semigroup contains every vector of degree t*d
    face_bits = _face_bits(h, gens, None, h.total) if h.total % d == 0 else (0,)
    return SimplicialComplex(range(len(gens)), *face_bits)


def alexander_dual(
    c: SimplicialComplex, ground: Optional[Iterable[int]] = None
) -> SimplicialComplex:
    """Alexander dual: complements (within V) of the non-faces of c.

    V defaults to the vertex support of c, which is what the homology
    duality formula expects.  Dualizing twice over the SAME V returns c;
    since the dual's own support can be smaller than V, pass the dual's
    ground set explicitly to invert (the dual stores it).

    The dual is built on the bitset.  With V read as its mask, V - F is
    V ^ F on the subsets F of V, so reversing bits 0..V of c takes each
    face F to V - F; the dual is every subset of V but those complements.
    """
    if c.is_void:
        raise ValueError("the void complex has no Alexander dual")
    sup = tuple(ground) if ground is not None else c.support()
    if not set(c.support()) <= set(sup):
        raise ValueError("ground set must contain the vertex support")
    full = _mask(sup)
    complements, subsets = int(format(c.bits, f"0{full + 1}b")[::-1], 2), 1
    for v in _vertices(full):
        subsets |= subsets << (1 << v)
    return SimplicialComplex(sup, subsets ^ complements)


def _pair_vertex(faces: int, vertices: Sequence[int]) -> int:
    """The vertex whose pair a complex is settled or reduced from: the one
    in the most faces, the smallest on ties.  The pair has |faces| -
    2 * #{faces with v} cells, so it leaves the fewest, and none at an apex."""
    return max(range(len(vertices)), key=lambda v: (faces & vertices[v]).bit_count(), default=0)


def _pair_cells(faces: int, vertices: Sequence[int], v: int) -> int:
    """The cells of the pair (del_v, lk_v) as a bitset: the faces F with
    F + v not a face; every face when v is past the rows.  A face with v is
    never one, and a shift by 2^v takes each face F + v to F (a & ~b is
    written a ^ (a & b): a wide int is never complemented)."""
    with_v = faces & vertices[v] if v < len(vertices) else 0
    without_v = faces ^ with_v
    return without_v ^ (without_v & (with_v >> (1 << v)))


def link(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces F such that F together with v is still a face: c minus the
    cells of v (`_pair_cells`).

    This is the "fat" link {F : exists G in c with v in G, G >= F}; it keeps
    the faces containing v, and is void when v lies in no face.
    """
    if v not in c.ground:
        raise ValueError(f"vertex {v} is not in the ground set")
    return SimplicialComplex(c.ground, c.bits ^ _pair_cells(c.bits, c.rows.vertices, v), c.rows)


def decomposition_check(h, d: int, i: int) -> bool:
    """Union/intersection decomposition of the two-variable divisor complex.

    For the interior pinch (i, d-i), the unpinched complex of h must equal the
    union of the pinched complex and the fat link at the pinched vertex; and
    when |h| = i*d, every face of their intersection must have dimension
    < i-2.  All three are compared on the Veronese labels, on which the
    pinched complex is the Veronese faces that avoid the pinched vertex.
    """
    h = Multidegree(h)
    if len(h) != 2:
        raise ValueError("decomposition_check is defined for n = 2 only")
    m = Multidegree((i, d - i))
    if max(m) >= d - 1:
        raise ValueError(f"pinch index {i} is not interior for d={d}")
    if h.total % d != 0:
        raise ValueError(f"|h| = {h.total} is not a multiple of d = {d}")
    gens, config = veronese_generators(2, d), PinchConfig(2, d, m)
    veronese, pin = build_veronese_complex(h, 2, d), gens.index(m)
    pinched = 0
    if is_member_closed(h, config):  # the pinched face rule, on the faces avoiding m
        pinched = _face_bits(h, gens, partial(_holes, config), h.total)[0]
        pinched ^= pinched & veronese.rows.vertices[pin]
    fat_link = link(veronese, pin).bits
    if veronese.bits != pinched | fat_link:
        return False
    sizes = veronese.rows.sizes
    return h.total != i * d or not any(pinched & fat_link & size for size in sizes[i - 1:])
