import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pinched_veronese import (
    Multidegree,
    PinchConfig,
    alexander_dual,
    build_divisor_complex,
    build_veronese_complex,
    decomposition_check,
    enumerate_degree,
    generate_generators,
    is_member_closed,
    link,
    veronese_generators,
)
from pinched_veronese import complexes, semigroup
from pinched_veronese.complexes import _mask, _pair_cells
from complex_helpers import from_faces, full_simplex, simplex_boundary, validate, void


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
    assert F(i0, i1) not in c.faces
    assert F(i0) in c.faces and F(i1) in c.faces and F() in c.faces


def test_sum_of_everything_is_simplex_boundary():
    # interior pinch: the divisor complex of the sum of ALL degree-d vectors
    # is the boundary of the full simplex on the generators
    config = cfg(2, 4, (2, 2))
    h = Multidegree((0, 0))
    for g in veronese_generators(2, 4):
        h = h + g
    c = build_divisor_complex(h, config)
    assert c.faces == simplex_boundary(range(4)).faces


def test_built_complexes_are_downward_closed():
    for config in (cfg(2, 5, (2, 3)), cfg(2, 4, (3, 1)), cfg(3, 3, (1, 1, 1))):
        for t in range(4):
            for h in enumerate_degree(config, t):
                validate(build_divisor_complex(h, config))


def test_face_membership_matches_definition():
    # F is a face iff h - sum(F) stays in the semigroup: exhaustive recheck
    from pinched_veronese import is_member_closed

    config = cfg(2, 4, (2, 2))
    gens = generate_generators(config)
    h = Multidegree((6, 6))
    c = build_divisor_complex(h, config)
    for k in range(len(gens) + 1):
        for sub in itertools.combinations(range(len(gens)), k):
            rem = [a - sum(gens[v][q] for v in sub) for q, a in enumerate(h)]
            expected = min(rem) >= 0 and is_member_closed(Multidegree(rem), config)
            assert (F(*sub) in c.faces) == expected, sub


@pytest.mark.parametrize("n, d, m, t_max", [
    (2, 4, (4, 0), 4), (2, 4, (3, 1), 4), (2, 5, (2, 3), 4),
    (2, 2, (2, 0), 6), (2, 2, (1, 1), 6),
    (3, 3, (3, 0, 0), 3), (3, 3, (2, 1, 0), 3), (3, 3, (1, 1, 1), 3),
    (3, 2, (1, 1, 0), 4),
    (4, 2, (2, 0, 0, 0), 4), (4, 2, (1, 1, 0, 0), 4),
])
def test_faces_match_bruteforce_membership(n, d, m, t_max):
    # every h of degree t*d, members or not, against {F : h - sum(F) in H}
    # decided by the dynamic-programming oracle; a member's complex is read
    # both as levels and as the scan's bitset over all subset masks
    from pinched_veronese import is_member_bruteforce
    from pinched_veronese.complexes import divisor_bits
    from pinched_veronese.semigroup import _compositions_desc

    config = cfg(n, d, m)
    gens = generate_generators(config)
    for t in range(t_max + 1):
        for h in map(Multidegree, _compositions_desc(t * d, n)):
            expected = set()
            for k in range(min(t, len(gens)) + 1):
                for sub in itertools.combinations(range(len(gens)), k):
                    rem = [a - sum(gens[v][q] for v in sub) for q, a in enumerate(h)]
                    if min(rem) >= 0 and is_member_bruteforce(Multidegree(rem), config):
                        expected.add(F(*sub))
            c = build_divisor_complex(h, config)
            assert c.faces == expected, (config, h)
            assert c.is_void == (not expected)
            if expected:
                faces, _ = divisor_bits(h, config, t_max * d)
                assert faces == sum(1 << sum(1 << v for v in f) for f in expected), (config, h)


# -- alexander dual ----------------------------------------------------------


def test_dual_of_simplex_boundary_is_empty_complex():
    c = simplex_boundary(range(5))
    assert alexander_dual(c).faces == {F()}


def test_dual_of_full_simplex_is_void():
    c = full_simplex(range(4))
    assert alexander_dual(c).is_void


def test_dual_rejects_void():
    with pytest.raises(ValueError):
        alexander_dual(void((0, 1)))


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
    c = from_faces((0, 1), [F(), F(0), F(1)])
    with pytest.raises(ValueError):
        alexander_dual(c, ground=(0,))


# -- link --------------------------------------------------------------------


def test_link_of_full_simplex():
    c = full_simplex(range(3))
    assert link(c, 1).faces == c.faces


def test_link_on_triangle_boundary():
    c = simplex_boundary(range(3))
    out = link(c, 0)
    assert out.faces == {F(), F(0), F(1), F(2), F(0, 1), F(0, 2)}


def test_link_void_when_vertex_in_no_face():
    c = from_faces((0, 1, 2), [F(), F(0), F(1), F(0, 1)])
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


def decomposition_by_subsets(h, d, i, sums):
    """Reference decomposition check: every subset F of the Veronese generators
    on its own; `sums` maps F to its generator sum."""
    config = cfg(2, d, (i, d - i))
    pin = veronese_generators(2, d).index(config.m)
    rest = {f: (h[0] - x, h[1] - y) for f, (x, y) in sums.items()}
    unpinched = {f for f, r in rest.items() if min(r) >= 0}
    pinched = {f for f in unpinched if pin not in f and is_member_closed(rest[f], config)}
    fat_link = {f for f in unpinched if f | {pin} in unpinched}
    return unpinched == pinched | fat_link and (
        h.total != i * d or all(len(f) - 1 < i - 2 for f in pinched & fat_link))


@pytest.mark.parametrize("d", range(4, 8))
def test_decomposition_matches_subset_by_subset_reference(d):
    # every h with |h| <= (N+1)d, N = d+1 generators, of each interior pinch
    gens = veronese_generators(2, d)
    sums = {F(*f): tuple(map(sum, zip((0, 0), *(gens[v] for v in f))))
            for k in range(len(gens) + 1) for f in itertools.combinations(range(len(gens)), k)}
    for i in range(2, d - 1):
        for t in range(d + 3):
            for a in range(t * d + 1):
                h = Multidegree((a, t * d - a))
                assert decomposition_check(h, d, i) == decomposition_by_subsets(h, d, i, sums)


def test_decomposition_fails_on_a_wrong_pinched_complex(monkeypatch):
    # with every remainder a hole (the half-space r_0 >= 0) the pinched
    # complex is {empty face}, and the union misses the faces away from the
    # pinched vertex; the check passes first, so no memo may keep the holes
    # it read then
    assert decomposition_check(Multidegree((10, 10)), 5, 2)
    monkeypatch.setattr(complexes, "_holes", lambda config, t: semigroup._HoleSet(half=(0, 0)))
    assert not decomposition_check(Multidegree((10, 10)), 5, 2)


def test_decomposition_preconditions():
    with pytest.raises(ValueError):
        decomposition_check(Multidegree((5, 5)), 5, 1)  # not interior
    with pytest.raises(ValueError):
        decomposition_check(Multidegree((3, 4)), 5, 2)  # degree not a multiple
    with pytest.raises(ValueError):
        decomposition_check(Multidegree((1, 1, 1)), 3, 1)  # n != 2


def test_veronese_complex_matches_unpinched_membership():
    c = build_veronese_complex(Multidegree((4, 4)), 2, 4)
    validate(c)
    assert c.ground == tuple(range(5))
    assert F() in c.faces


@pytest.mark.parametrize("n, d, h", [
    (2, 4, (5, 7)), (2, 5, (7, 8)), (3, 2, (2, 3, 1)), (3, 3, (4, 3, 2)), (2, 4, (5, 6)),
])
def test_veronese_complex_matches_bruteforce(n, d, h):
    # every non-negative vector of total t*d is in the Veronese semigroup, so
    # F is a face exactly when sum(F) <= h; a total that is no multiple of d
    # gives the void complex
    gens = veronese_generators(n, d)
    c = build_veronese_complex(Multidegree(h), n, d)
    validate(c)
    assert c.ground == tuple(range(len(gens)))
    expected = {F(*sub) for k in range(len(gens) + 1)
                for sub in itertools.combinations(range(len(gens)), k)
                if all(sum(gens[v][j] for v in sub) <= h[j] for j in range(n))}
    assert c.faces == (expected if sum(h) % d == 0 else set())


# -- the shared subset tables -------------------------------------------------


MEMOS = (complexes._subsets, complexes._subset_bits, semigroup._holes)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def test_tables_hold_no_subset_size_above_the_degree():
    # the subset listings hold one entry per size and the holes one per
    # degree, and neither grows past the largest degree
    from pinched_veronese import reduced_homology

    clear_memos()
    config = cfg(2, 8, (3, 5))
    for s in (1, 3, 5):
        for h in enumerate_degree(config, s):
            reduced_homology(build_divisor_complex(h, config))
        for memo in MEMOS:
            assert memo.cache_info().currsize <= s + 1, (memo, s)
    assert complexes._subsets.cache_info().currsize == 6  # sizes 0..5 were listed
    # a degree-5 element has degree 5 and its remainders 1, ..., 4 (a face
    # of size |h|/d leaves 0, never a hole)
    assert semigroup._holes.cache_info().currsize == 5


def test_scan_builds_bitset_tables_on_demand_with_capped_rows():
    # a scan builds its configuration's table when it meets its first
    # uncertified element, on rows that stop at s_max*d, and the memo keeps
    # at most four tables
    from pinched_veronese import DEFAULT_FIELD, graded_betti
    from pinched_veronese.betti import _profiles_for_degrees

    clear_memos()
    config = cfg(2, 6, (2, 4))
    # every element of the guard degree is a certified cone
    assert list(_profiles_for_degrees(config, DEFAULT_FIELD, [config.N + 1])) == []
    assert complexes._subset_bits.cache_info().currsize == 0
    for d, i in ((4, 2), (5, 2), (6, 3), (7, 3), (8, 4), (6, 2)):
        config = cfg(2, d, (i, d - i))
        graded_betti(config)
        assert complexes._subset_bits.cache_info().currsize <= 4
        cap = (config.N + 1) * d  # the default s_max is N+1
        hits = complexes._subset_bits.cache_info().hits
        bits = complexes._subset_bits(generate_generators(config), cap)
        assert complexes._subset_bits.cache_info().hits == hits + 1, config
        assert len(bits.sizes) == min(config.N - 1, cap // d) + 1
        assert all(len(rows) <= cap + 1 for rows in bits.at_most)


@pytest.mark.parametrize("V", [1, 2, 9, 14, 19])
def test_subsets_follow_the_combinations_order(V):
    # every level is read off these listings, so they fix its order
    from pinched_veronese.complexes import _subsets

    for f in range(min(V, 7) + 1):
        subsets = itertools.combinations(range(V), f)
        assert _subsets(V, f) == tuple(sum(1 << v for v in sub) for sub in subsets), f


def test_divisor_complex_refuses_a_cap_below_its_degree():
    # a table of cap < |h| has no rows for the coordinates of h
    config = cfg(2, 5, (2, 3))
    h = Multidegree((6, 4))
    assert build_divisor_complex(h, config, 10) == build_divisor_complex(h, config)
    assert build_divisor_complex(h, config, 30) == build_divisor_complex(h, config)
    with pytest.raises(ValueError):
        build_divisor_complex(h, config, 9)
    with pytest.raises(ValueError):
        build_divisor_complex((7, 4), config, 10)  # not in H, and still refused


def test_holes_are_stated_by_pinch_class():
    # a max=d pinch at p misses the half-space r_p > t(d-1) of each degree
    # t, which is cleared by one mask; a d = 2 pinch e_p + e_r misses the
    # vectors odd at p and r and zero elsewhere, stated by (p, r) alone;
    # other classes list their holes
    from pinched_veronese.semigroup import _holes

    def holes(m, t):
        return _holes(cfg(len(m), sum(m), m), t)

    def listed(m, t):
        # every hole outside the half-space, read through the box of degree t
        return tuple(holes(m, t).listed((t * sum(m),) * len(m), t * sum(m)))

    assert holes((0, 3, 0), 2) == ((1, 5), None, ())
    assert holes((3, 0), 3) == ((0, 7), None, ())
    assert holes((2, 1, 0), 3) == (None, None, ((8, 1, 0),))
    assert holes((0, 1, 2), 2) == (None, None, ((0, 1, 5),))
    assert holes((1, 1), 3) == (None, (0, 1), ())
    assert listed((1, 1), 3) == ((5, 1), (3, 3), (1, 5))
    assert holes((0, 1, 0, 1), 2) == (None, (1, 3), ())
    assert listed((0, 1, 0, 1), 2) == ((0, 3, 0, 1), (0, 1, 0, 3))
    assert holes((1, 1, 1), 1) == (None, None, ((1, 1, 1),))
    assert holes((1, 1, 1), 2) == holes((3, 0, 0), 0) == holes((1, 1), 0) == (None, None, ())
    # only the parity holes under the box are looked at, however large t is
    big = holes((1, 1), 10**12).listed((10**12 + 3, 10**12 + 1), 2 * 10**12)
    assert [r[0] - 10**12 for r in itertools.islice(big, 4)] == [3, 1, -1]


def test_divisor_complex_of_a_huge_degree_two_element():
    # remainders of degree about 10**12: no list of their holes is built
    config = cfg(2, 2, (1, 1))
    assert build_divisor_complex((10**12, 10**12), config).levels == ((0,), (1, 2), (3,))
    assert build_divisor_complex((10**12 + 1, 10**12 - 1), config).is_void


def test_profiles_do_not_depend_on_other_tables():
    # the same levels and profiles before and after other configurations
    # (sharing the ground set, or not) have built their tables, and again
    # once every table is rebuilt from an empty memo
    from pinched_veronese import reduced_homology

    config = cfg(2, 6, (2, 4))
    hs = enumerate_degree(config, 4)

    def profiles():
        return [(build_divisor_complex(h, config).levels,
                 reduced_homology(build_divisor_complex(h, config))) for h in hs]

    clear_memos()
    before = profiles()
    for other in (cfg(2, 6, (6, 0)), cfg(2, 6, (5, 1)), cfg(2, 7, (3, 4)),
                  cfg(3, 3, (2, 1, 0)), cfg(2, 5, (2, 3)), cfg(2, 4, (2, 2)),
                  cfg(2, 2, (1, 1))):
        for h in enumerate_degree(other, 4):
            reduced_homology(build_divisor_complex(h, other))
        build_veronese_complex(Multidegree((12, 12)), 2, 6)
    assert profiles() == before
    clear_memos()
    assert profiles() == before


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
    return from_faces(verts, faces)


@given(random_complexes())
@settings(max_examples=60, deadline=None)
def test_random_complex_dual_involution(c):
    validate(c)
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
    # the faces split into the link's and the cells of v's pair, the faces
    # F with F + v not a face; a vertex past the ground has every face
    for u in (v, max(c.ground) + 1):
        cells = _pair_cells(c.bits, c.rows.vertices, u)
        assert cells == sum(1 << _mask(f) for f in c.faces if f | {u} not in c.faces), u
    cells = _pair_cells(c.bits, c.rows.vertices, v)
    assert lk.bits & cells == 0 and lk.bits | cells == c.bits
    assert lk.rows is c.rows


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=4))))
@settings(max_examples=80, deadline=None)
def test_from_faces_round_trips(case):
    # the bitset gives back the faces: levels in lexicographic order, and
    # faces, dim, support and equality as on the face list
    n, facets = case
    faces = {F(*sub) for mx in facets for k in range(len(mx) + 1)
             for sub in itertools.combinations(sorted(mx), k)}
    c = from_faces(range(n), faces)
    validate(c)
    top = max(map(len, faces), default=-1)
    assert c.levels == tuple(tuple(_mask(f) for f in sorted(tuple(sorted(f)) for f in faces
                                                            if len(f) == k))
                             for k in range(top + 1))
    assert set(c.faces) == faces and len(c.faces) == len(faces)
    assert all(f in c.faces for f in faces) and F(n) not in c.faces
    assert c.dim == top - 1 and c.is_void == (not faces)
    assert c.support() == tuple(sorted(set().union(*faces)))
    assert c == from_faces(range(n), sorted(faces, key=sorted, reverse=True))
    assert hash(c) == hash(from_faces(range(n), faces))
    if faces:
        drop = max(faces, key=len)
        assert c != from_faces(range(n), faces - {drop}) and c != from_faces(range(n + 1), faces)
    else:
        assert c == void(range(n))


def dual_by_complements(c, ground):
    """Reference dual: complements within `ground` of the non-faces of c, as frozensets."""
    faces = c.faces
    non_faces = (F(*f) for k in range(len(ground) + 1) for f in itertools.combinations(ground, k))
    return from_faces(ground, [F(*ground) - f for f in non_faces if f not in faces])


@given(random_complexes(), st.sets(st.integers(0, 8), max_size=3))
@settings(max_examples=80, deadline=None)
def test_dual_levels_match_complements_of_non_faces(c, extra):
    # over the support and over a larger ground set; levels compared in order
    for ground in (c.support(), tuple(sorted(set(c.support()) | extra))):
        d = alexander_dual(c, ground)
        ref = dual_by_complements(c, ground)
        assert (d.ground, d.levels) == (ref.ground, ref.levels)
        if not d.is_void:
            dd = alexander_dual(d, d.ground)
            assert dd.levels == dual_by_complements(d, d.ground).levels


@given(random_complexes(), random_complexes(), st.data())
@settings(max_examples=80, deadline=None)
def test_involution_levels_compare_like_face_sets(a, b, data):
    # levels are canonical, so comparing them is exactly as strict as
    # comparing face sets, for the double dual as for any other pair
    for c in (a, b):
        d = alexander_dual(c)
        if d.is_void:
            continue
        dd = alexander_dual(d, d.ground)
        for other in (a, b):
            assert (dd.levels == other.levels) == (set(dd.faces) == set(other.faces))
        assert dd.levels == c.levels
        drop = data.draw(st.sampled_from(sorted(dd.faces, key=sorted)))
        broken = from_faces(dd.ground, [f for f in dd.faces if f != drop])
        assert broken.levels != c.levels and broken.faces != c.faces


@pytest.mark.parametrize("config, t_max", [
    (cfg(2, 5, (2, 3)), 4), (cfg(3, 3, (1, 1, 1)), 4),
    (cfg(4, 3, (2, 1, 0, 0)), 2), (cfg(3, 4, (2, 1, 1)), 3),
])
def test_divisor_complex_levels_are_canonical(config, t_max):
    # the levels read off the bitset match the constructor's lexicographic
    # sort of the faces
    for t in range(t_max + 1):
        for h in enumerate_degree(config, t):
            c = build_divisor_complex(h, config)
            assert c.levels == from_faces(c.ground, c.faces).levels, h
