import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pinched_veronese import (
    Multidegree,
    PinchConfig,
    SimplicialComplex,
    alexander_dual,
    build_divisor_complex,
    build_veronese_complex,
    decomposition_check,
    enumerate_degree,
    generate_generators,
    link,
    veronese_generators,
)


def cfg(n, d, m):
    return PinchConfig(n, d, Multidegree(m))


def F(*vs):
    return frozenset(vs)


# -- construction ------------------------------------------------------------


def test_single_generator_is_a_point():
    config = cfg(2, 3, (3, 0))
    g = generate_generators(config)[0]
    c = build_divisor_complex(g, config)
    assert c.faces == {F(), F(0)}
    assert c.degree == g


def test_nonmember_gives_void():
    config = cfg(2, 3, (3, 0))
    c = build_divisor_complex((5, 1), config)
    assert c.is_void
    assert c.dim == -2


def test_zero_gives_empty_face_only():
    config = cfg(2, 3, (2, 1))
    c = build_divisor_complex((0, 0), config)
    assert c.faces == {F()}
    assert c.dim == -1


def test_missing_face_at_pinch_sum():
    # h = m_0 + m_1 + m_2 for the interior pinch at index 2 (d=5):
    # {m_0, m_1} is not a face (difference is the pinch), every proper subset is
    config = cfg(2, 5, (2, 3))
    gens = generate_generators(config)
    m0, m1 = Multidegree((0, 5)), Multidegree((1, 4))
    h = m0 + m1 + config.m
    c = build_divisor_complex(h, config)
    i0, i1 = gens.index(m0), gens.index(m1)
    assert not c.has_face({i0, i1})
    assert c.has_face({i0}) and c.has_face({i1}) and c.has_face(())


def test_sum_of_everything_is_simplex_boundary():
    # interior pinch: the divisor complex of the sum of ALL degree-d vectors
    # is the boundary of the full simplex on the generators
    config = cfg(2, 4, (2, 2))
    h = Multidegree((0, 0))
    for g in veronese_generators(2, 4):
        h = h + g
    c = build_divisor_complex(h, config)
    assert c.faces == SimplicialComplex.simplex_boundary(range(4)).faces


def test_built_complexes_are_downward_closed():
    for config in (cfg(2, 5, (2, 3)), cfg(2, 4, (3, 1)), cfg(3, 3, (1, 1, 1))):
        for t in range(4):
            for h in enumerate_degree(config, t):
                build_divisor_complex(h, config).validate()


def test_face_membership_matches_definition():
    # F is a face iff h - sum(F) stays in the semigroup: exhaustive recheck
    from pinched_veronese import is_member_closed

    config = cfg(2, 4, (2, 2))
    gens = generate_generators(config)
    h = Multidegree((6, 6))
    c = build_divisor_complex(h, config)
    for k in range(len(gens) + 1):
        for sub in itertools.combinations(range(len(gens)), k):
            rem = h
            for v in sub:
                rem = rem.minus(gens[v])
                if rem is None:
                    break
            expected = rem is not None and is_member_closed(rem, config)
            assert c.has_face(sub) == expected, sub


@pytest.mark.parametrize("n, d, m, t_max", [
    (2, 4, (4, 0), 4), (2, 4, (3, 1), 4), (2, 5, (2, 3), 4),
    (2, 2, (2, 0), 6), (2, 2, (1, 1), 6),
    (3, 3, (3, 0, 0), 3), (3, 3, (2, 1, 0), 3), (3, 3, (1, 1, 1), 3),
    (3, 2, (1, 1, 0), 4),
])
def test_faces_match_bruteforce_membership(n, d, m, t_max):
    # every h of degree t*d, members or not, against {F : h - sum(F) in H}
    # decided by the dynamic-programming oracle
    from pinched_veronese import is_member_bruteforce
    from pinched_veronese.semigroup import _compositions_desc

    config = cfg(n, d, m)
    gens = generate_generators(config)
    for t in range(t_max + 1):
        for h in map(Multidegree, _compositions_desc(t * d, n)):
            expected = set()
            for k in range(min(t, len(gens)) + 1):
                for sub in itertools.combinations(range(len(gens)), k):
                    rem = h
                    for v in sub:
                        rem = rem.minus(gens[v])
                        if rem is None:
                            break
                    if rem is not None and is_member_bruteforce(rem, config):
                        expected.add(F(*sub))
            c = build_divisor_complex(h, config)
            assert c.faces == expected, (config, h)
            assert c.is_void == (not expected)


def test_size_cap_gives_the_skeleton():
    config = cfg(2, 6, (2, 4))
    for h in enumerate_degree(config, 4):
        full = build_divisor_complex(h, config)
        for cap in range(0, 5):
            capped = build_divisor_complex(h, config, size_cap=cap)
            assert capped.faces == {f for f in full.faces if len(f) <= cap}, (h, cap)


# -- alexander dual ----------------------------------------------------------


def test_dual_of_simplex_boundary_is_empty_complex():
    c = SimplicialComplex.simplex_boundary(range(5))
    assert alexander_dual(c).faces == {F()}


def test_dual_of_full_simplex_is_void():
    c = SimplicialComplex.full_simplex(range(4))
    assert alexander_dual(c).is_void


def test_dual_rejects_void():
    with pytest.raises(ValueError):
        alexander_dual(SimplicialComplex.void((0, 1)))


def test_dual_involution_over_fixed_ground():
    config = cfg(2, 5, (2, 3))
    for t in range(1, 5):
        for h in enumerate_degree(config, t):
            c = build_divisor_complex(h, config)
            if c.dim < 0:
                continue
            d = alexander_dual(c)
            if d.is_void:  # c was the full simplex on its support
                continue
            assert alexander_dual(d, d.ground).faces == c.faces, h


def test_dual_ground_must_cover_support():
    c = SimplicialComplex((0, 1), [F(), F(0), F(1)])
    with pytest.raises(ValueError):
        alexander_dual(c, ground=(0,))


# -- link --------------------------------------------------------------------


def test_link_of_full_simplex():
    c = SimplicialComplex.full_simplex(range(3))
    assert link(c, 1).faces == c.faces


def test_link_on_triangle_boundary():
    c = SimplicialComplex.simplex_boundary(range(3))
    out = link(c, 0)
    assert out.faces == {F(), F(0), F(1), F(2), F(0, 1), F(0, 2)}


def test_link_void_when_vertex_in_no_face():
    c = SimplicialComplex((0, 1, 2), [F(), F(0), F(1), F(0, 1)])
    assert link(c, 2).is_void
    with pytest.raises(ValueError):
        link(c, 9)


# -- decomposition -----------------------------------------------------------


def test_decomposition_all_h_at_critical_degree():
    # d=5, i=2: every h of total degree i*d = 10
    for a in range(11):
        assert decomposition_check(Multidegree((a, 10 - a)), 5, 2), a


def test_decomposition_small_case():
    assert decomposition_check(Multidegree((4, 4)), 4, 2)


def test_decomposition_d6_i3():
    for h in ((18, 0), (9, 9), (13, 5), (4, 14)):
        assert decomposition_check(Multidegree(h), 6, 3), h


def test_decomposition_preconditions():
    with pytest.raises(ValueError):
        decomposition_check(Multidegree((5, 5)), 5, 1)  # not interior
    with pytest.raises(ValueError):
        decomposition_check(Multidegree((3, 4)), 5, 2)  # degree not a multiple
    with pytest.raises(ValueError):
        decomposition_check(Multidegree((1, 1, 1)), 3, 1)  # n != 2


def test_veronese_complex_matches_unpinched_membership():
    c = build_veronese_complex(Multidegree((4, 4)), 2, 4)
    c.validate()
    assert c.ground == tuple(range(5))
    assert c.has_face(())


# -- randomized structure checks --------------------------------------------


@st.composite
def random_complexes(draw):
    n_verts = draw(st.integers(1, 6))
    verts = list(range(n_verts))
    n_max = draw(st.integers(1, 4))
    maximal = [
        draw(st.sets(st.sampled_from(verts), min_size=1, max_size=n_verts))
        for _ in range(n_max)
    ]
    faces = {F()}
    for mx in maximal:
        for k in range(1, len(mx) + 1):
            for sub in itertools.combinations(sorted(mx), k):
                faces.add(F(*sub))
    return SimplicialComplex(verts, faces)


@given(random_complexes())
@settings(max_examples=60, deadline=None)
def test_random_complex_dual_involution(c):
    c.validate()
    d = alexander_dual(c)
    if not d.is_void:
        assert alexander_dual(d, d.ground).faces == c.faces


@given(random_complexes(), st.data())
@settings(max_examples=60, deadline=None)
def test_link_is_subcomplex_and_contains_star(c, data):
    v = data.draw(st.sampled_from(list(c.ground)))
    lk = link(c, v)
    assert lk.faces <= c.faces
    for f in c.faces:
        if v in f:
            assert f in lk.faces
