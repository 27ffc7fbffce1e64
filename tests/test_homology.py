from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pinched_veronese import (
    GF2,
    Multidegree,
    PinchConfig,
    RATIONALS,
    FieldSpec,
    HomologyProfile,
    SimplicialComplex,
    boundary_matrix,
    boundary_square_is_zero,
    build_divisor_complex,
    enumerate_degree,
    euler_characteristic_matches,
    matrix_rank,
    reduced_homology,
)

FIELDS = (FieldSpec(32003), GF2, RATIONALS)


def F(*vs):
    return frozenset(vs)


# -- exact rank --------------------------------------------------------------


def rank_oracle(rows, ncols, p=None):
    """Straightforward Gaussian elimination over Fraction or GF(p)."""
    if p is None:
        mat = [[Fraction(x) for x in row] for row in rows]
    else:
        mat = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        if p is None:
            inv = 1 / mat[rank][col]
            prow = [x * inv for x in mat[rank]]
        else:
            inv = pow(mat[rank][col], -1, p)
            prow = [(x * inv) % p for x in mat[rank]]
        mat[rank] = prow
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                if p is None:
                    mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
                else:
                    mat[i] = [(a - f * b) % p for a, b in zip(mat[i], prow)]
        rank += 1
    return rank


def sparse(rows):
    """Dense rows as the sparse {column: value} rows that matrix_rank takes."""
    return [dict(enumerate(row)) for row in rows]


def test_rank_known_matrices():
    ident = sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    sing = sparse([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    for field in FIELDS:
        assert matrix_rank(ident, 3, field) == 3
        assert matrix_rank(sing, 3, field) == 2
    # rank can drop in finite characteristic
    twos = sparse([[2]])
    assert matrix_rank(twos, 1, GF2) == 0
    assert matrix_rank(twos, 1, RATIONALS) == 1


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_rank_against_oracle(nrows, ncols, data):
    rows = [
        [data.draw(st.integers(-4, 4)) for _ in range(ncols)] for _ in range(nrows)
    ]
    assert matrix_rank(sparse(rows), ncols, RATIONALS) == rank_oracle(rows, ncols)
    assert matrix_rank(sparse(rows), ncols, GF2) == rank_oracle(rows, ncols, 2)
    assert matrix_rank(sparse(rows), ncols, FieldSpec(5)) == rank_oracle(rows, ncols, 5)


def test_fieldspec_validation_and_parse():
    with pytest.raises(ValueError):
        FieldSpec(4)
    assert FieldSpec.parse("q").is_rationals
    assert FieldSpec.parse("GF(7)").p == 7
    assert FieldSpec.parse("32003").p == 32003
    assert str(RATIONALS) == "QQ"


# -- reduced homology --------------------------------------------------------


def test_empty_complex_profile():
    c = SimplicialComplex((0, 1), [F()])
    for field in FIELDS:
        prof = reduced_homology(c, field)
        assert prof[-1] == 1
        assert prof.items() == [(-1, 1)]


def test_void_profile_trivial():
    prof = reduced_homology(SimplicialComplex.void(()), FieldSpec(32003))
    assert prof.is_trivial


def test_simplex_boundary_has_top_homology():
    for nv in (3, 4, 5, 6):
        c = SimplicialComplex.simplex_boundary(range(nv))
        for field in FIELDS:
            prof = reduced_homology(c, field)
            assert prof.items() == [(nv - 2, 1)], (nv, field)


def test_two_isolated_vertices():
    c = SimplicialComplex((0, 1), [F(), F(0), F(1)])
    prof = reduced_homology(c)
    assert prof.items() == [(0, 1)]


def test_full_simplex_contractible():
    c = SimplicialComplex.full_simplex(range(5))
    assert reduced_homology(c).is_trivial


def test_circle_and_sphere():
    circle = SimplicialComplex((0, 1, 2), [F(), F(0), F(1), F(2), F(0, 1), F(0, 2), F(1, 2)])
    assert reduced_homology(circle).items() == [(1, 1)]
    sphere = SimplicialComplex.simplex_boundary(range(4))
    assert reduced_homology(sphere).items() == [(2, 1)]


def test_profile_type_contract():
    prof = HomologyProfile({0: 2, 3: 0})
    assert prof[0] == 2 and prof[3] == 0 and prof[99] == 0
    assert prof.to_pairs() == [[0, 2]]
    assert HomologyProfile.from_pairs([[0, 2]]) == prof
    with pytest.raises(ValueError):
        HomologyProfile({0: -1})


def test_boundary_matrix_shape_and_signs():
    c = SimplicialComplex.full_simplex(range(3))
    rows, ncols = boundary_matrix(c, 1)  # edges -> vertices
    assert len(rows) == 3 and ncols == 3
    # edges 01, 02, 12; removing the j-th smallest vertex has sign (-1)^j
    assert rows == [{1: 1, 0: -1}, {2: 1, 0: -1}, {2: 1, 1: -1}]
    rows0, ncols0 = boundary_matrix(c, 0)  # vertices -> empty face
    assert rows0 == [{0: 1}, {0: 1}, {0: 1}] and ncols0 == 1


def test_windowed_homology_matches_full_profile():
    config = PinchConfig(2, 5, Multidegree((2, 3)))
    for t in range(1, 5):
        for h in enumerate_degree(config, t):
            c = build_divisor_complex(h, config)
            prof = reduced_homology(c)
            for k in range(-1, c.dim + 1):
                assert reduced_homology(c, window=(k, k)).items() == (
                    [(k, prof[k])] if prof[k] else []), (h, k)


def test_boundary_square_zero_on_divisor_complexes():
    config = PinchConfig(2, 6, Multidegree((2, 4)))
    for t in range(1, 5):
        for h in enumerate_degree(config, t):
            c = build_divisor_complex(h, config)
            assert boundary_square_is_zero(c), h


def test_euler_characteristic_on_divisor_complexes():
    config = PinchConfig(2, 5, Multidegree((4, 1)))
    for t in range(0, 6):
        for h in enumerate_degree(config, t):
            c = build_divisor_complex(h, config)
            for field in FIELDS:
                assert euler_characteristic_matches(c, reduced_homology(c, field)), h


def from_facets(facets):
    import itertools

    faces = {frozenset()}
    for mx in facets:
        for k in range(1, len(mx) + 1):
            for sub in itertools.combinations(sorted(mx), k):
                faces.add(frozenset(sub))
    verts = sorted(set().union(*map(set, facets)))
    return SimplicialComplex(verts, faces)


def test_projective_plane_separates_fields():
    # 6-vertex triangulation of the real projective plane: 2-torsion makes
    # the homology characteristic-dependent, so a bug conflating the field
    # implementations (or their cache keys) would show up here
    facets = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
              (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]
    rp2 = from_facets(facets)
    rp2.validate()
    # closed surface: every edge lies in exactly two triangles
    for edge in rp2.faces_of_dim(1):
        cofaces = [f for f in rp2.faces_of_dim(2) if set(edge) <= set(f)]
        assert len(cofaces) == 2
    assert reduced_homology(rp2, GF2).items() == [(1, 1), (2, 1)]
    assert reduced_homology(rp2, RATIONALS).is_trivial
    assert reduced_homology(rp2, FieldSpec(32003)).is_trivial
    assert reduced_homology(rp2, FieldSpec(3)).is_trivial


def test_cross_field_agreement_small_family():
    # observational: the divisor complexes of this family have no torsion
    for config in (PinchConfig(2, 4, Multidegree((2, 2))),
                   PinchConfig(2, 5, Multidegree((2, 3))),
                   PinchConfig(2, 5, Multidegree((4, 1)))):
        for t in range(0, 6):
            for h in enumerate_degree(config, t):
                c = build_divisor_complex(h, config)
                profiles = [reduced_homology(c, f) for f in FIELDS]
                assert profiles[0] == profiles[1] == profiles[2], (config, h)


# -- sparse kernels against the dense oracle ---------------------------------


@st.composite
def downward_closed_complexes(draw, max_vertices=7):
    n_verts = draw(st.integers(1, max_vertices))
    verts = list(range(n_verts))
    maximal = draw(st.lists(st.sets(st.sampled_from(verts), min_size=1), min_size=1, max_size=6))
    return from_facets([sorted(f) for f in maximal])


def dense_boundary(c, k):
    """Boundary matrix from sorted face tuples, independent of boundary_matrix."""
    lower = sorted(tuple(sorted(f)) for f in c.faces if len(f) == k)
    index = {f: j for j, f in enumerate(lower)}
    rows = []
    for f in sorted(tuple(sorted(f)) for f in c.faces if len(f) == k + 1):
        row = [0] * len(lower)
        for j in range(len(f)):
            row[index[f[:j] + f[j + 1:]]] = (-1) ** j
        rows.append(row)
    return rows, len(lower)


@given(downward_closed_complexes())
@settings(max_examples=60, deadline=None)
def test_reduced_homology_matches_dense_oracle(c):
    c.validate()
    counts = {k: sum(1 for f in c.faces if len(f) == k + 1) for k in range(-1, c.dim + 1)}
    for p in (2, 5, 32003, None):
        ranks = {k: rank_oracle(*dense_boundary(c, k), p) for k in range(0, c.dim + 2)}
        expected = {k: counts[k] - ranks.get(k, 0) - ranks.get(k + 1, 0)
                    for k in range(-1, c.dim + 1)}
        field = RATIONALS if p is None else FieldSpec(p)
        assert reduced_homology(c, field) == HomologyProfile(expected), p


@given(downward_closed_complexes())
@settings(max_examples=60, deadline=None)
def test_sparse_boundary_rows_match_dense_and_compose_to_zero(c):
    for k in range(0, c.dim + 2):
        rows, ncols = boundary_matrix(c, k)
        dense, dense_ncols = dense_boundary(c, k)
        assert ncols == dense_ncols
        assert rows == [{j: a for j, a in enumerate(row) if a} for row in dense]
    for k in range(1, c.dim + 1):
        upper, _ = boundary_matrix(c, k)
        lower, _ = boundary_matrix(c, k - 1)
        for row in upper:
            composed = {}
            for j, a in row.items():
                for t, b in lower[j].items():
                    composed[t] = composed.get(t, 0) + a * b
            assert not any(composed.values())
    assert boundary_square_is_zero(c)

