"""Complexes given by their faces, and a structural oracle, for the tests.

The package builds every `SimplicialComplex` from mask levels; these
helpers build one from a list of faces, sorting the masks into the same
canonical levels, and check what every complex must satisfy.
"""

from itertools import chain, combinations

from pinched_veronese import SimplicialComplex
from pinched_veronese.complexes import _mask, _vertices


def from_faces(ground, faces):
    """The complex on `ground` with exactly these faces (iterables of vertices)."""
    masks = {_mask(f) for f in faces}
    levels = tuple(
        tuple(sorted((m for m in masks if m.bit_count() == k), key=_vertices))
        for k in range(max((m.bit_count() + 1 for m in masks), default=0))
    )
    return SimplicialComplex(ground, levels)


def void(ground=()):
    return SimplicialComplex(ground, ())


def full_simplex(vertices):
    vs = sorted(set(vertices))
    return from_faces(vs, (c for k in range(len(vs) + 1) for c in combinations(vs, k)))


def simplex_boundary(vertices):
    vs = sorted(set(vertices))
    return from_faces(vs, (c for k in range(len(vs)) for c in combinations(vs, k)))


def faces_of_dim(c, k):
    """The k-dimensional faces of c as sorted tuples, in lexicographic order."""
    if not 0 <= k + 1 < len(c.levels):
        return []
    return [tuple(_vertices(m)) for m in c.levels[k + 1]]


def validate(c):
    """Check downward closure, the empty-face convention and the ground set."""
    if c.is_void:
        return
    if 0 not in c.levels[0]:
        raise ValueError("non-void complex is missing the empty face")
    masks = set(chain.from_iterable(c.levels))
    for f in masks:
        for v in _vertices(f):
            if f ^ (1 << v) not in masks:
                raise ValueError(f"not downward closed at {tuple(_vertices(f))}")
    stray = c._support_mask() & ~_mask(c.ground)
    if stray:
        raise ValueError(f"faces use vertices outside the ground set: {_vertices(stray)}")
