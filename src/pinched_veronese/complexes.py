"""Squarefree divisor complexes and their combinatorial operations.

A face of the divisor complex of h is a subset F of the generators with
h - sum(F) still in the semigroup.  A face is stored as an int bitmask over
vertex labels (bit v set when v is in the face); a complex keeps its faces
grouped by size, each group in lexicographic order of the sorted vertex
tuples, and always includes the empty face (mask 0) when it is non-void.
"""

from __future__ import annotations

from collections.abc import Set
from functools import reduce
from itertools import chain, combinations
from operator import and_, or_, sub
from typing import Callable, Iterable, Optional

from .semigroup import (
    Multidegree,
    PinchConfig,
    _compositions_desc,
    _hole_test,
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
        return self._c.has_face(f)


class SimplicialComplex:
    """Finite abstract simplicial complex on non-negative integer vertex labels.

    `levels[k]` holds the masks of the faces with k vertices, in
    lexicographic order; the void complex has no levels.
    """

    __slots__ = ("ground", "levels", "degree")

    def __init__(self, ground: Iterable[int], faces=(), degree: Optional[Multidegree] = None,
                 levels: Optional[tuple[tuple[int, ...], ...]] = None):
        self.ground = tuple(sorted(set(ground)))
        if levels is None:
            masks = {_mask(f) for f in faces}
            levels = tuple(
                tuple(sorted((m for m in masks if m.bit_count() == k), key=_vertices))
                for k in range(max((m.bit_count() + 1 for m in masks), default=0))
            )
        self.levels = levels
        self.degree = degree

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

    def faces_of_dim(self, k: int) -> list[tuple[int, ...]]:
        """All k-dimensional faces as sorted tuples, in lexicographic order."""
        if not 0 <= k + 1 < len(self.levels):
            return []
        return [tuple(_vertices(m)) for m in self.levels[k + 1]]

    def has_face(self, f) -> bool:
        m = _mask(f)
        k = m.bit_count()
        return k < len(self.levels) and m in self.levels[k]

    def is_cone(self) -> bool:
        """True if some vertex belongs to every maximal face (contractible).

        Such an apex lies in every face of top size, and (by downward closure,
        F -> F - {v} being one to one) it is one exactly when half the faces
        contain it.
        """
        if len(self.levels) < 2:
            return False
        faces = list(chain.from_iterable(self.levels))
        apexes = _vertices(reduce(and_, self.levels[-1]))
        return any(2 * sum(1 for f in faces if f >> v & 1) == len(faces) for v in apexes)

    def validate(self) -> None:
        """Check downward closure and the empty-face convention."""
        if self.is_void:
            return
        if 0 not in self.levels[0]:
            raise ValueError("non-void complex is missing the empty face")
        masks = set(chain.from_iterable(self.levels))
        for f in masks:
            for v in _vertices(f):
                if f ^ (1 << v) not in masks:
                    raise ValueError(f"not downward closed at {tuple(_vertices(f))}")
        stray = self._support_mask() & ~_mask(self.ground)
        if stray:
            raise ValueError(f"faces use vertices outside the ground set: {_vertices(stray)}")

    # -- constructors --------------------------------------------------

    @classmethod
    def void(cls, ground: Iterable[int] = ()) -> "SimplicialComplex":
        return cls(ground, [])

    @classmethod
    def full_simplex(cls, vertices: Iterable[int]) -> "SimplicialComplex":
        vs = tuple(sorted(set(vertices)))
        faces = [c for k in range(len(vs) + 1) for c in combinations(vs, k)]
        return cls(vs, faces)

    @classmethod
    def simplex_boundary(cls, vertices: Iterable[int]) -> "SimplicialComplex":
        vs = tuple(sorted(set(vertices)))
        faces = [c for k in range(len(vs)) for c in combinations(vs, k)]
        return cls(vs, faces)

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


def _grow_complex(
    h: Multidegree,
    gens,
    is_hole: Callable[[tuple[int, ...]], bool],
    allowed: Optional[Iterable[int]] = None,
    size_cap: Optional[int] = None,
) -> tuple[tuple[int, ...], ...]:
    """Levels of {F : h - sum(F) in H}, for h in H; at most `size_cap` vertices a face.

    Every remainder has a total that is a multiple of d, so it is in H exactly
    when it is non-negative and not a hole.  ext[f] masks the vertices u above
    max(f) with f + u a face; f + u can be a face only if u is in ext[f - w]
    for every w in f (downward closure) and gens[u] fits under f's remainder.
    """
    verts = range(len(gens)) if allowed is None else allowed
    cap = len(gens) if size_cap is None else size_cap
    gen_of = {1 << v: tuple(gens[v]) for v in verts}
    # fits[c][x]: the vertices whose generator has c-th coordinate at most x
    top = max((max(g) for g in gen_of.values()), default=0)
    fits = [[0] * (top + 1) for _ in h]
    for b, g in gen_of.items():
        for row, x in zip(fits, g):
            row[x] |= b
    for row in fits:
        for x in range(top):
            row[x + 1] |= row[x]
    levels = [(0,)]
    ext: dict[int, int] = {}
    rem = {0: tuple(h)}
    while len(levels) <= cap:
        level = levels[-1]
        next_ext: dict[int, int] = {}
        next_rem: dict[int, tuple[int, ...]] = {}
        nxt = []
        for f in level:
            rf = rem[f]
            cand = -(1 << f.bit_length())
            for fit, x in zip(fits, rf):
                cand &= fit[x if x < top else top]
            rest = f
            while rest and cand:
                w = rest & -rest
                cand &= ext[f ^ w]
                rest ^= w
            e = 0
            while cand:
                b = cand & -cand
                cand ^= b
                r = tuple(map(sub, rf, gen_of[b]))
                if not is_hole(r):
                    e |= b
                    g = f | b
                    nxt.append(g)
                    next_rem[g] = r
            next_ext[f] = e
        if not nxt:
            break
        levels.append(tuple(nxt))
        ext, rem = next_ext, next_rem
    return tuple(levels)


def build_divisor_complex(
    h, config: PinchConfig, size_cap: Optional[int] = None
) -> SimplicialComplex:
    """Divisor complex of h over the pinched generators; void when h is not in H."""
    h = Multidegree(h)
    gens = generate_generators(config).gens
    levels = (
        _grow_complex(h, gens, _hole_test(config), size_cap=size_cap)
        if is_member_closed(h, config)
        else ()
    )
    return SimplicialComplex(range(len(gens)), degree=h, levels=levels)


def veronese_generators(n: int, d: int) -> tuple[Multidegree, ...]:
    """All degree-d exponent vectors in n variables, descending lex."""
    return tuple(Multidegree(c) for c in _compositions_desc(d, n))


def build_veronese_complex(
    h, n: int, d: int, allowed: Optional[set[int]] = None
) -> SimplicialComplex:
    """Divisor complex of h for the full (unpinched) Veronese semigroup.

    Vertex labels index veronese_generators(n, d); `allowed` restricts the
    vertex set (used to overlay pinched and unpinched complexes on one labeling).
    """
    h = Multidegree(h)
    gens = veronese_generators(n, d)
    ground = range(len(gens)) if allowed is None else sorted(allowed)
    # the unpinched Veronese semigroup contains every vector of degree t*d
    levels = _grow_complex(h, gens, lambda r: False, ground) if h.total % d == 0 else ()
    return SimplicialComplex(ground, degree=h, levels=levels)


def alexander_dual(
    c: SimplicialComplex, ground: Optional[Iterable[int]] = None
) -> SimplicialComplex:
    """Alexander dual: complements (within V) of the non-faces of c.

    V defaults to the vertex support of c, which is what the homology
    duality formula expects.  Dualizing twice over the SAME V returns c;
    since the dual's own support can be smaller than V, pass the dual's
    ground set explicitly to invert (the dual stores it).
    """
    if c.is_void:
        raise ValueError("the void complex has no Alexander dual")
    sup = tuple(ground) if ground is not None else c.support()
    if c._support_mask() & ~_mask(sup):
        raise ValueError("ground set must contain the vertex support")
    masks = set(chain.from_iterable(c.levels))
    subsets = (_mask(f) for k in range(len(sup) + 1) for f in combinations(sup, k))
    return SimplicialComplex(sup, [_vertices(_mask(sup) ^ m) for m in subsets if m not in masks])


def link(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces F such that F together with v is still a face.

    This is the "fat" link {F : exists G in c with v in G, G >= F}; it keeps
    the faces containing v, and is void when v lies in no face.
    """
    if v not in c.ground:
        raise ValueError(f"vertex {v} is not in the ground set")
    b = 1 << v
    masks = set(chain.from_iterable(c.levels))
    levels = tuple(tuple(f for f in level if f | b in masks) for level in c.levels)
    while levels and not levels[-1]:
        levels = levels[:-1]
    return SimplicialComplex(c.ground, degree=c.degree, levels=levels)


def decomposition_check(h, d: int, i: int) -> bool:
    """Union/intersection decomposition of the two-variable divisor complex.

    For the interior pinch (i, d-i), the unpinched complex of h must equal the
    union of the pinched complex and the fat link at the pinched vertex; and
    when |h| = i*d, every face of their intersection must have dimension
    < i-2.  Both complexes are overlaid on the unpinched vertex labeling.
    """
    h = Multidegree(h)
    if len(h) != 2:
        raise ValueError("decomposition_check is defined for n = 2 only")
    m = Multidegree((i, d - i))
    if max(m) >= d - 1:
        raise ValueError(f"pinch index {i} is not interior for d={d}")
    if h.total % d != 0:
        raise ValueError(f"|h| = {h.total} is not a multiple of d = {d}")
    config = PinchConfig(2, d, m)
    full_gens = veronese_generators(2, d)
    m_idx = full_gens.index(m)

    unpinched = build_veronese_complex(h, 2, d)
    allowed = [v for v in range(len(full_gens)) if v != m_idx]
    pinched = set(chain.from_iterable(
        _grow_complex(h, full_gens, _hole_test(config), allowed)
        if is_member_closed(h, config) else ()))
    fat_link = set(chain.from_iterable(link(unpinched, m_idx).levels))

    if set(chain.from_iterable(unpinched.levels)) != pinched | fat_link:
        return False
    return h.total != i * d or all(f.bit_count() - 1 < i - 2 for f in pinched & fat_link)
