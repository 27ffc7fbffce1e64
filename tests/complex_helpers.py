"""Complexes given by their faces, and a structural oracle, for the tests.

The package stores every `SimplicialComplex` as one int, bit F set for
each face mask F; these helpers build one from a list of faces and check
what every complex must satisfy.
"""

from itertools import combinations

from pinched_veronese import SimplicialComplex
from pinched_veronese.complexes import _mask, _vertices


def from_faces(ground, faces):
    """The complex on `ground` with exactly these faces (iterables of vertices)."""
    return SimplicialComplex(ground, sum(1 << m for m in {_mask(f) for f in faces}))


def void(ground=()):
    return SimplicialComplex(ground, 0)


def full_simplex(vertices):
    vs = sorted(set(vertices))
    return from_faces(vs, (c for k in range(len(vs) + 1) for c in combinations(vs, k)))


def simplex_boundary(vertices):
    vs = sorted(set(vertices))
    return from_faces(vs, (c for k in range(len(vs)) for c in combinations(vs, k)))


def faces_of_dim(c, k):
    """The k-dimensional faces of c as sorted tuples, in lexicographic order."""
    levels = c.levels
    if not 0 <= k + 1 < len(levels):
        return []
    return [tuple(_vertices(m)) for m in levels[k + 1]]


def validate(c):
    """Check downward closure, the empty-face convention and the ground set."""
    if c.is_void:
        return
    if not c.bits & 1:
        raise ValueError("non-void complex is missing the empty face")
    masks = [m for m in range(c.bits.bit_length()) if c.bits >> m & 1]
    for f in masks:
        for v in _vertices(f):
            if not c.bits >> (f ^ 1 << v) & 1:
                raise ValueError(f"not downward closed at {tuple(_vertices(f))}")
    stray = set(c.support()) - set(c.ground)
    if stray:
        raise ValueError(f"faces use vertices outside the ground set: {sorted(stray)}")
