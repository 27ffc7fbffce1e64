"""Squarefree divisor complexes and their combinatorial operations.

A face of the divisor complex of h is a subset F of the generators with
h - sum(F) still in the semigroup.  Complexes are stored as frozensets of
frozensets of generator indices, always including the empty face when the
complex is non-void.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Optional

from .semigroup import (
    Multidegree,
    PinchConfig,
    _compositions_desc,
    generate_generators,
    is_member_closed,
)

Face = frozenset


class SimplicialComplex:
    """Finite abstract simplicial complex on integer vertex labels."""

    __slots__ = ("ground", "faces", "degree")

    def __init__(self, ground: Iterable[int], faces, degree: Optional[Multidegree] = None):
        self.ground = tuple(sorted(set(ground)))
        self.faces = frozenset(Face(f) for f in faces)
        self.degree = degree

    # -- basic queries -------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def ground_size(self) -> int:
        return len(self.ground)

    def support(self) -> tuple[int, ...]:
        """Vertices that actually appear in some face."""
        verts: set[int] = set()
        for f in self.faces:
            verts.update(f)
        return tuple(sorted(verts))

    @property
    def dim(self) -> int:
        """Dimension (max face size - 1); -1 for {empty face}, -2 for void."""
        if self.is_void:
            return -2
        return max(len(f) for f in self.faces) - 1

    def faces_of_dim(self, k: int) -> list[tuple[int, ...]]:
        """All k-dimensional faces as sorted tuples, in lexicographic order."""
        out = [tuple(sorted(f)) for f in self.faces if len(f) == k + 1]
        out.sort()
        return out

    def has_face(self, f) -> bool:
        return Face(f) in self.faces

    def is_cone(self) -> bool:
        """True if some vertex belongs to every maximal face (contractible)."""
        for v in self.support():
            vf = Face((v,))
            if all((f | vf) in self.faces for f in self.faces):
                return True
        return False

    def canonical_form(self) -> tuple:
        """Relabeled face list, invariant under vertex renaming; cache key."""
        sup = self.support()
        relabel = {v: j for j, v in enumerate(sup)}
        return tuple(sorted(tuple(sorted(relabel[v] for v in f)) for f in self.faces))

    def validate(self) -> None:
        """Check downward closure and the empty-face convention."""
        if self.is_void:
            return
        if Face() not in self.faces:
            raise ValueError("non-void complex is missing the empty face")
        for f in self.faces:
            for v in f:
                if f - {v} not in self.faces:
                    raise ValueError(f"not downward closed at {tuple(sorted(f))}")
        stray = set().union(*self.faces) - set(self.ground) if self.faces else set()
        if stray:
            raise ValueError(f"faces use vertices outside the ground set: {sorted(stray)}")

    # -- constructors --------------------------------------------------

    @classmethod
    def void(cls, ground: Iterable[int] = ()) -> "SimplicialComplex":
        return cls(ground, [])

    @classmethod
    def full_simplex(cls, vertices: Iterable[int]) -> "SimplicialComplex":
        vs = tuple(sorted(set(vertices)))
        faces = [Face(c) for k in range(len(vs) + 1) for c in combinations(vs, k)]
        return cls(vs, faces)

    @classmethod
    def simplex_boundary(cls, vertices: Iterable[int]) -> "SimplicialComplex":
        vs = tuple(sorted(set(vertices)))
        faces = [Face(c) for k in range(len(vs)) for c in combinations(vs, k)]
        return cls(vs, faces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.ground == other.ground and self.faces == other.faces

    def __hash__(self) -> int:
        return hash((self.ground, self.faces))

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(ground_size={self.ground_size}, "
            f"faces={len(self.faces)}, dim={self.dim})"
        )


def _grow_complex(
    h: Multidegree,
    gens,
    member: Callable[[Multidegree], bool],
    allowed: Optional[set[int]] = None,
    size_cap: Optional[int] = None,
) -> set[Face]:
    """Level-by-level construction of {F : h - sum(F) in H}.

    Only supersets of existing faces are tested (downward closure prunes the
    search).  `size_cap` truncates the construction above a face size; the
    result is then only the capped skeleton.
    """
    if not member(h):
        return set()
    n_gens = len(gens)
    verts = range(n_gens) if allowed is None else sorted(allowed)
    remainder = {Face(): h}
    faces: set[Face] = {Face()}
    level: list[Face] = [Face()]
    while level:
        nxt: list[Face] = []
        for f in level:
            if size_cap is not None and len(f) >= size_cap:
                continue
            rem_f = remainder[f]
            top = max(f) if f else -1
            for v in verts:
                if v <= top:
                    continue
                g = f | {v}
                if g in faces:
                    continue
                if any((g - {w}) not in faces for w in g):
                    continue
                rem = rem_f.minus(gens[v])
                if rem is None or not member(rem):
                    continue
                faces.add(g)
                remainder[g] = rem
                nxt.append(g)
        level = nxt
    return faces


def build_divisor_complex(
    h, config: PinchConfig, size_cap: Optional[int] = None
) -> SimplicialComplex:
    """Divisor complex of h over the pinched generators; void when h is not in H."""
    h = Multidegree(h)
    gens = generate_generators(config).gens
    faces = _grow_complex(h, gens, lambda x: is_member_closed(x, config), size_cap=size_cap)
    return SimplicialComplex(range(len(gens)), faces, degree=h)


def _veronese_member(h: Multidegree, d: int) -> bool:
    # the unpinched Veronese semigroup contains every vector of degree t*d
    return h.total % d == 0


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
    faces = _grow_complex(h, gens, lambda x: _veronese_member(x, d), allowed=allowed)
    ground = range(len(gens)) if allowed is None else sorted(allowed)
    return SimplicialComplex(ground, faces, degree=h)


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
    if not set(c.support()) <= set(sup):
        raise ValueError("ground set must contain the vertex support")
    v_all = Face(sup)
    dual_faces = []
    for k in range(len(sup) + 1):
        for sub in combinations(sorted(sup), k):
            if Face(sub) not in c.faces:
                dual_faces.append(v_all - Face(sub))
    return SimplicialComplex(sup, dual_faces)


def link(c: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces F such that F together with v is still a face.

    This is the "fat" link {F : exists G in c with v in G, G >= F}; it keeps
    the faces containing v, and is void when v lies in no face.
    """
    if v not in c.ground:
        raise ValueError(f"vertex {v} is not in the ground set")
    vf = Face((v,))
    faces = [f for f in c.faces if (f | vf) in c.faces]
    return SimplicialComplex(c.ground, faces, degree=c.degree)


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
    allowed = set(range(len(full_gens))) - {m_idx}
    pinched_faces = _grow_complex(
        h, full_gens, lambda x: is_member_closed(x, config), allowed=allowed
    )
    fat_link = link(unpinched, m_idx)

    if unpinched.faces != (pinched_faces | fat_link.faces):
        return False
    if h.total == i * d:
        intersection = pinched_faces & fat_link.faces
        if any(len(f) - 1 >= i - 2 for f in intersection):
            return False
    return True
