"""Squarefree divisor complexes and their combinatorial operations.

A face of the divisor complex of h is a subset F of the generators with
h - sum(F) still in the semigroup.  A face is stored as an int bitmask over
vertex labels (bit v set when v is in the face); a complex keeps its faces
grouped by size, each group in lexicographic order of the sorted vertex
tuples, and always includes the empty face (mask 0) when it is non-void.

Every complex on a ground set is a subset of that set's subsets, so those
are tabled once, size by size and only up to the largest size asked for, in
bounded memos: `_subsets` (the masks in that order and their positions)
and, for a generator set, `_sum_classes` (which subsets have the same
generator sum).  A divisor complex tests h - v once per distinct sum v and
keeps, level by level, the subsets whose sum passed.
"""

from __future__ import annotations

from collections.abc import Set
from functools import lru_cache, reduce
from itertools import chain, combinations, compress
from operator import add, and_, or_, sub
from types import MappingProxyType
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

    __slots__ = ("ground", "levels")

    def __init__(self, ground: Iterable[int], faces=(),
                 levels: Optional[tuple[tuple[int, ...], ...]] = None):
        self.ground = tuple(sorted(set(ground)))
        if levels is None:
            masks = {_mask(f) for f in faces}
            levels = tuple(
                tuple(sorted((m for m in masks if m.bit_count() == k), key=_vertices))
                for k in range(max((m.bit_count() + 1 for m in masks), default=0))
            )
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


@lru_cache(maxsize=64)
def _subsets(ground: tuple[int, ...], f: int) -> tuple[tuple[int, ...], MappingProxyType]:
    """The masks of the f-subsets of ground in lexicographic order of their
    sorted vertex tuples, and each mask's position there (bounded memo)."""
    masks = tuple(map(sum, combinations([1 << v for v in ground], f)))
    return masks, MappingProxyType(dict(zip(masks, range(len(masks)))))


@lru_cache(maxsize=64)
def _sum_classes(
    ground: tuple[int, ...], gens: tuple[tuple[int, ...], ...], f: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """For the f-subsets of ground in `_subsets` order, the id of each one's
    generator sum, and the distinct sums in id order (bounded memo).

    gens[j] is the generator of ground[j].  A sum is the sum of the subset
    without its largest vertex plus that vertex's generator.
    """
    if f == 0:
        return (0,), ((0,) * len(gens[0]),)
    prev_ids, prev_sums = _sum_classes(ground, gens, f - 1)
    below = _subsets(ground, f - 1)[1]
    gen_of = {1 << v: g for v, g in zip(ground, gens)}
    classes: dict[tuple[int, ...], int] = {}
    ids = []
    for m in _subsets(ground, f)[0]:
        top = 1 << (m.bit_length() - 1)
        v = tuple(map(add, prev_sums[prev_ids[below[m ^ top]]], gen_of[top]))
        ids.append(classes.setdefault(v, len(classes)))
    return tuple(ids), tuple(classes)


def _divisor_levels(
    h: tuple[int, ...],
    ground: tuple[int, ...],
    gens: tuple[tuple[int, ...], ...],
    is_hole: Callable[[tuple[int, ...]], bool],
) -> tuple[tuple[int, ...], ...]:
    """Levels of {F in ground : h - sum(F) in H}, for h in H.

    `gens` holds the generator of each ground vertex, each of total d, so a
    face has at most |h|/d vertices and no larger subset is looked at.
    Every remainder has a total that is a multiple of d, so it is in H
    exactly when it is non-negative and not a hole; that is decided once per
    distinct sum, and each level keeps the subsets whose sum passed.  The
    complex is downward closed, so the first empty level ends it.
    """
    levels = [(0,)]
    for f in range(1, min(sum(h) // sum(gens[0]), len(ground)) + 1):
        ids, sums = _sum_classes(ground, gens, f)
        ok = [min(r) >= 0 and not is_hole(r) for r in (tuple(map(sub, h, v)) for v in sums)]
        level = tuple(compress(_subsets(ground, f)[0], map(ok.__getitem__, ids)))
        if not level:
            break
        levels.append(level)
    return tuple(levels)


def build_divisor_complex(h, config: PinchConfig) -> SimplicialComplex:
    """Divisor complex of h over the pinched generators; void when h is not in H."""
    h = Multidegree(h)
    gens = generate_generators(config)
    ground = tuple(range(len(gens)))
    levels = ()
    if is_member_closed(h, config):
        levels = _divisor_levels(h, ground, gens, _hole_test(config))
    return SimplicialComplex(ground, levels=levels)


def veronese_generators(n: int, d: int) -> tuple[Multidegree, ...]:
    """All degree-d exponent vectors in n variables, descending lex."""
    return tuple(Multidegree(c) for c in _compositions_desc(d, n))


def build_veronese_complex(h, n: int, d: int) -> SimplicialComplex:
    """Divisor complex of h for the full (unpinched) Veronese semigroup.

    Vertex labels index veronese_generators(n, d).
    """
    h = Multidegree(h)
    gens = veronese_generators(n, d)
    ground = tuple(range(len(gens)))
    # the unpinched Veronese semigroup contains every vector of degree t*d
    levels = (_divisor_levels(h, ground, gens, lambda r: False)
              if h.total % d == 0 else ())
    return SimplicialComplex(ground, levels=levels)


def alexander_dual(
    c: SimplicialComplex, ground: Optional[Iterable[int]] = None
) -> SimplicialComplex:
    """Alexander dual: complements (within V) of the non-faces of c.

    V defaults to the vertex support of c, which is what the homology
    duality formula expects.  Dualizing twice over the SAME V returns c;
    since the dual's own support can be smaller than V, pass the dual's
    ground set explicitly to invert (the dual stores it).

    The levels are built on masks: the j-vertex subsets G of V come from
    V's subset table in lexicographic order, and G is a face of the dual
    when V - G is not a face of c.  The dual is downward closed, so the
    first empty level ends it.
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
        level = tuple(g for g in _subsets(vertices, j)[0] if full ^ g not in masks)
        if not level:
            break
        levels.append(level)
    return SimplicialComplex(sup, levels=tuple(levels))


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
