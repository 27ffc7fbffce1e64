"""Squarefree divisor complexes and their combinatorial operations.

A face of the divisor complex of h is a subset F of the generators with
h - sum(F) still in the semigroup.  A face is stored as an int bitmask over
vertex labels (bit v set when v is in the face); a complex keeps its faces
grouped by size, each group in lexicographic order of the sorted vertex
tuples, and always includes the empty face (mask 0) when it is non-void.
Every complex is made from such levels, by the builders here.

The split of a complex at one vertex v is stated once, in
`_excision_cells`: the cells of v are the faces F with F + v not a face.
`link` is the complex without them, `is_cone` asks whether an apex has
none, and `homology` reduces them.

The face rule is stated once, in `_face_bits`, on the one table of the
generator subsets that `_subset_bits` holds (a bounded memo of
per-vertex, per-size and per-coordinate bitsets over all 2^V subset
masks): F is a face when sum(F) <= h, an AND of one row per coordinate,
and h - sum(F) is no hole of its degree (`semigroup._holes`), the members
`_hole_members` clears.  A Betti scan reads each divisor complex as that
bitset (`divisor_bits`) and settles most of them there
(`homology.settled_profile`); a built complex reads its levels off the
same bitset, one `compress` of the f-subsets in lexicographic order
(`_subsets`) per size.
"""

from __future__ import annotations

from collections.abc import Set
from functools import lru_cache, partial, reduce
from itertools import chain, combinations, compress
from operator import and_, or_, sub
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

Face = frozenset


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
        return sum(map(len, self._c.levels))

    def __iter__(self):
        return (Face(_vertices(m)) for m in chain.from_iterable(self._c.levels))

    def __contains__(self, f) -> bool:
        m, levels = _mask(f), self._c.levels
        return m.bit_count() < len(levels) and m in levels[m.bit_count()]


class SimplicialComplex:
    """Finite abstract simplicial complex on non-negative integer vertex labels.

    `levels[k]` holds the masks of the faces with k vertices, in
    lexicographic order; the void complex has no levels.
    """

    __slots__ = ("ground", "levels")

    def __init__(self, ground: Iterable[int], levels: tuple[tuple[int, ...], ...]):
        self.ground = tuple(sorted(set(ground)))
        self.levels = levels

    # -- basic queries -------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.levels

    @property
    def faces(self) -> _FaceView:
        return _FaceView(self)

    def _support_mask(self) -> int:
        return reduce(or_, chain.from_iterable(self.levels), 0)

    def support(self) -> tuple[int, ...]:
        """Vertices that actually appear in some face."""
        return tuple(_vertices(self._support_mask()))

    @property
    def dim(self) -> int:
        """Dimension (max face size - 1); -1 for {empty face}, -2 for void."""
        return len(self.levels) - 2

    def is_cone(self) -> bool:
        """True if some vertex belongs to every maximal face (contractible).

        Such an apex lies in every face of top size, and it is one exactly
        when its excision pair has no cells: there are |c| - 2 * #{faces
        with v} of them (`_excision_cells`).
        """
        if len(self.levels) < 2:
            return False
        apexes = _vertices(reduce(and_, self.levels[-1]))
        return any(not any(_excision_cells(self.levels, v)) for v in apexes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.ground == other.ground and self.levels == other.levels

    def __hash__(self) -> int:
        return hash((self.ground, self.levels))

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


def _face_levels(faces: int, bits: _SubsetBits) -> tuple[tuple[int, ...], ...]:
    """The levels of the complex with bitset `faces` on the table `bits`:
    per size f, one `compress` of `_subsets(V, f)` by the bits of `faces`,
    until the first empty size ends the (downward closed) complex."""
    V = len(bits.vertices)
    flags = bin(faces | 1 << (1 << V))[:2:-1].encode().translate(_BITS)
    levels = []
    for f, size in enumerate(bits.sizes):
        if not faces & size:
            break
        masks = _subsets(V, f)
        levels.append(tuple(compress(masks, map(flags.__getitem__, masks))))
    return tuple(levels)


def build_divisor_complex(h, config: PinchConfig, cap: Optional[int] = None) -> SimplicialComplex:
    """Divisor complex of h over the pinched generators; void when h is not in H.

    Its levels are read off the `divisor_bits` table of `cap` (default |h|),
    so a scan passing its own cap reuses the table it holds; a cap below |h|
    would cut rows that faces need, and is refused.
    """
    h = Multidegree(h)
    cap = h.total if cap is None else cap
    if cap < h.total:
        raise ValueError(f"table cap {cap} is below |h| = {h.total}")
    levels = _face_levels(*divisor_bits(h, config, cap)) if is_member_closed(h, config) else ()
    return SimplicialComplex(range(config.N - 1), levels=levels)


def veronese_generators(n: int, d: int) -> tuple[Multidegree, ...]:
    """All degree-d exponent vectors in n variables, descending lex."""
    return tuple(Multidegree(c) for c in _compositions_desc(d, n))


def build_veronese_complex(h, n: int, d: int) -> SimplicialComplex:
    """Divisor complex of h for the full (unpinched) Veronese semigroup, on
    the labels of veronese_generators(n, d)."""
    h = Multidegree(h)
    gens = veronese_generators(n, d)
    # the unpinched Veronese semigroup contains every vector of degree t*d
    levels = _face_levels(*_face_bits(h, gens, None, h.total)) if h.total % d == 0 else ()
    return SimplicialComplex(range(len(gens)), levels=levels)


def alexander_dual(
    c: SimplicialComplex, ground: Optional[Iterable[int]] = None
) -> SimplicialComplex:
    """Alexander dual: complements (within V) of the non-faces of c.

    V defaults to the vertex support of c, which is what the homology
    duality formula expects.  Dualizing twice over the SAME V returns c;
    since the dual's own support can be smaller than V, pass the dual's
    ground set explicitly to invert (the dual stores it).

    The levels are built on masks: the j-vertex subsets G of V come in
    lexicographic order, and G is a face of the dual when V - G is not a
    face of c.  The dual is downward closed, so the first empty level ends
    it.
    """
    if c.is_void:
        raise ValueError("the void complex has no Alexander dual")
    sup = tuple(ground) if ground is not None else c.support()
    full = _mask(sup)
    if c._support_mask() & ~full:
        raise ValueError("ground set must contain the vertex support")
    masks = set(chain.from_iterable(c.levels))
    vertices = tuple(sorted(set(sup)))
    levels = []
    for j in range(len(vertices) + 1):
        level = tuple(g for g in map(sum, combinations([1 << v for v in vertices], j))
                      if full ^ g not in masks)
        if not level:
            break
        levels.append(level)
    return SimplicialComplex(sup, levels=tuple(levels))


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


def link(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces F such that F together with v is still a face: c minus the
    cells of v (`_excision_cells`).

    This is the "fat" link {F : exists G in c with v in G, G >= F}; it keeps
    the faces containing v, and is void when v lies in no face.
    """
    if v not in c.ground:
        raise ValueError(f"vertex {v} is not in the ground set")
    levels = tuple(tuple(f for f in level if f not in cut)
                   for level, cut in zip(c.levels, map(set, _excision_cells(c.levels, v))))
    while levels and not levels[-1]:
        levels = levels[:-1]
    return SimplicialComplex(c.ground, levels=levels)


def decomposition_check(h, d: int, i: int) -> bool:
    """Union/intersection decomposition of the two-variable divisor complex.

    For the interior pinch (i, d-i), the unpinched complex of h must equal the
    union of the pinched complex and the fat link at the pinched vertex; and
    when |h| = i*d, every face of their intersection must have dimension
    < i-2.  All three are compared on the Veronese labels, on which the
    pinched complex's labels at and above the pinched vertex's move up by one.
    """
    h = Multidegree(h)
    if len(h) != 2:
        raise ValueError("decomposition_check is defined for n = 2 only")
    m = Multidegree((i, d - i))
    if max(m) >= d - 1:
        raise ValueError(f"pinch index {i} is not interior for d={d}")
    if h.total % d != 0:
        raise ValueError(f"|h| = {h.total} is not a multiple of d = {d}")
    veronese = build_veronese_complex(h, 2, d)
    pin = veronese_generators(2, d).index(m)
    low = (1 << pin) - 1
    pinched = {f & low | (f & ~low) << 1 for f in
               chain.from_iterable(build_divisor_complex(h, PinchConfig(2, d, m)).levels)}
    unpinched = set(chain.from_iterable(veronese.levels))
    fat_link = set(chain.from_iterable(link(veronese, pin).levels))
    if unpinched != pinched | fat_link:
        return False
    return h.total != i * d or all(f.bit_count() - 1 < i - 2 for f in pinched & fat_link)
