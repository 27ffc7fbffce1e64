import itertools
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
    boundary_matrix,
    boundary_square_is_zero,
    build_divisor_complex,
    enumerate_degree,
    euler_characteristic_matches,
    generate_generators,
    reduced_homology,
    witness_non_cm,
)
from pinched_veronese.betti import _apex_bounds, _certified, _cone_apexes
from pinched_veronese.complexes import _face_levels, _pair_cells, divisor_bits
from pinched_veronese.homology import _compute_profile, settled_profile
from pinched_veronese.linalg import pivot_columns
from complex_helpers import faces_of_dim, from_faces, full_simplex, simplex_boundary, validate, void

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
    """Dense rows as the sparse {column: value} rows that pivot_columns takes."""
    return [dict(enumerate(row)) for row in rows]


def test_rank_known_matrices():
    ident = sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    sing = sparse([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    for field in FIELDS:
        assert len(pivot_columns(ident, field)) == 3
        assert len(pivot_columns(sing, field)) == 2
        assert pivot_columns([], field) == pivot_columns([{}, {}], field) == set()  # no rows, or no entries
    # rank can drop in finite characteristic
    twos = sparse([[2]])
    assert len(pivot_columns(twos, GF2)) == 0
    assert len(pivot_columns(twos, RATIONALS)) == 1


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
    assert len(pivot_columns(sparse(rows), RATIONALS)) == rank_oracle(rows, ncols)
    assert len(pivot_columns(sparse(rows), GF2)) == rank_oracle(rows, ncols, 2)
    assert len(pivot_columns(sparse(rows), FieldSpec(5))) == rank_oracle(rows, ncols, 5)


def test_fieldspec_validation_and_parse():
    with pytest.raises(ValueError):
        FieldSpec(4)
    assert FieldSpec.parse("q").is_rationals
    assert FieldSpec.parse("GF(7)").p == 7
    assert FieldSpec.parse("32003").p == 32003
    assert str(RATIONALS) == "QQ"


# -- reduced homology --------------------------------------------------------


def test_empty_complex_profile():
    c = from_faces((0, 1), [F()])
    for field in FIELDS:
        prof = reduced_homology(c, field)
        assert prof[-1] == 1
        assert prof.items() == [(-1, 1)]


def test_void_profile_trivial():
    prof = reduced_homology(void(()), FieldSpec(32003))
    assert prof.is_trivial


def test_simplex_boundary_has_top_homology():
    for nv in (3, 4, 5, 6):
        c = simplex_boundary(range(nv))
        for field in FIELDS:
            prof = reduced_homology(c, field)
            assert prof.items() == [(nv - 2, 1)], (nv, field)


def test_two_isolated_vertices():
    c = from_faces((0, 1), [F(), F(0), F(1)])
    prof = reduced_homology(c)
    assert prof.items() == [(0, 1)]


def test_full_simplex_contractible():
    c = full_simplex(range(5))
    assert reduced_homology(c).is_trivial


def test_circle_and_sphere():
    circle = from_faces((0, 1, 2), [F(), F(0), F(1), F(2), F(0, 1), F(0, 2), F(1, 2)])
    assert reduced_homology(circle).items() == [(1, 1)]
    sphere = simplex_boundary(range(4))
    assert reduced_homology(sphere).items() == [(2, 1)]


def test_profile_type_contract():
    prof = HomologyProfile({0: 2, 3: 0})
    assert prof[0] == 2 and prof[3] == 0 and prof[99] == 0
    with pytest.raises(ValueError):
        HomologyProfile({0: -1})


def test_boundary_matrix_shape_and_signs():
    c = full_simplex(range(3))
    rows = boundary_matrix(c.levels, 1)  # edges -> vertices
    # edges 01, 02, 12; removing the j-th smallest vertex has sign (-1)^j
    assert rows == [{1: 1, 0: -1}, {2: 1, 0: -1}, {2: 1, 1: -1}]
    assert boundary_matrix(c.levels, 0) == [{0: 1}, {0: 1}, {0: 1}]  # vertices -> empty face
    # no map below the empty face or above the top faces
    assert boundary_matrix(c.levels, -1) == boundary_matrix(c.levels, c.dim + 1) == []


# -- clearing against per-level ranks on divisor complexes --------------------


def per_level_profile(c, field):
    """Reference profile: each boundary map's rank on its own, nothing cleared."""
    ranks = {k: len(pivot_columns(boundary_matrix(c.levels, k), field))
             for k in range(0, c.dim + 1)}
    return HomologyProfile({k: len(c.levels[k + 1]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
                            for k in range(-1, c.dim + 1)})


def scan_complexes(config, s_max):
    """The non-cone divisor complexes a Betti scan of config up to s_max reduces."""
    for s in range(s_max + 1):
        for h in enumerate_degree(config, s):
            c = build_divisor_complex(h, config)
            if not c.is_void and not c.is_cone():
                yield h, c


def clearing_cases():
    for d in range(2, 7):
        for i in range(d + 1):
            config = PinchConfig.from_pinch_index(d, i)
            yield from scan_complexes(config, config.N + 1)
    # the three n=3 pinch classes; the scan goes to s = 11, but its s >= 7
    # complexes are the largest and would triple the run time
    for m in ((3, 0, 0), (2, 1, 0), (1, 1, 1)):
        yield from scan_complexes(PinchConfig(3, 3, Multidegree(m)), 6)


def test_cleared_reduction_matches_per_level_ranks():
    """Clearing keeps every rank."""
    checked = 0
    for h, c in clearing_cases():
        checked += 1
        for field in (GF2, FieldSpec(5), FieldSpec(32003), RATIONALS):
            assert reduced_homology(c, field) == per_level_profile(c, field), (h, field)
    assert checked == 845


# -- the excision pair against the full complex --------------------------------


def uncertified(config, s_max):
    """The elements up to degree s_max that a Betti scan builds: those the
    cone certificate leaves."""
    apexes = _cone_apexes(config)
    for s in range(s_max + 1):
        bounds = _apex_bounds(apexes, s)
        yield from (h for h in enumerate_degree(config, s) if not _certified(bounds, h))


@pytest.mark.parametrize("m, count", [((3, 0, 0), 420), ((2, 1, 0), 237), ((1, 1, 1), 362)])
def test_pair_profiles_match_per_level_ranks_n3(m, count):
    config = PinchConfig(3, 3, Multidegree(m))
    hs = list(uncertified(config, 8))
    assert len(hs) == count
    for h in hs:
        c = build_divisor_complex(h, config)
        for field in (GF2, FieldSpec(5), FieldSpec(32003), RATIONALS):
            assert reduced_homology(c, field) == per_level_profile(c, field), (h, field)


@pytest.mark.parametrize("n, d, m", [
    (2, 5, (2, 3)), (2, 6, (2, 4)), (2, 6, (3, 3)), (2, 7, (2, 5)), (2, 7, (3, 4)),
    (3, 3, (2, 1, 0)), (3, 3, (1, 1, 1)),
    (3, 4, (3, 1, 0)), (3, 4, (2, 2, 0)), (3, 4, (2, 1, 1)),
])
def test_witness_complex_has_homology_in_one_degree(n, d, m):
    # the settled witness against the elimination of its whole complex: the
    # one degree it reads is the only nonzero one
    config = PinchConfig(n, d, Multidegree(m))
    w = witness_non_cm(config)
    assert w.dimension > 0
    profile = reduced_homology(build_divisor_complex(w.h, config))
    assert profile == HomologyProfile({w.index - 1: w.dimension})


def test_boundary_square_zero_on_divisor_complexes():
    config = PinchConfig(2, 6, Multidegree((2, 4)))
    for t in range(1, 5):
        for h in enumerate_degree(config, t):
            c = build_divisor_complex(h, config)
            assert boundary_square_is_zero(c), h


def test_boundary_square_catches_one_flipped_sign(monkeypatch):
    import pinched_veronese.homology as homology

    c = full_simplex(range(4))
    built = []
    original = homology.boundary_matrix

    def counted(levels, k, **kw):
        built.append(k)
        return original(levels, k, **kw)

    monkeypatch.setattr(homology, "boundary_matrix", counted)
    assert boundary_square_is_zero(c)
    assert built == list(range(0, c.dim + 1))  # each matrix built once
    for k in range(0, c.dim + 1):
        rows = original(c.levels, k)
        for r, row in enumerate(rows):
            for j in row:
                def flipped(levels, kk, r=r, j=j, k=k, **kw):
                    rows = original(levels, kk, **kw)
                    if kk == k:
                        rows[r][j] = -rows[r][j]
                    return rows

                monkeypatch.setattr(homology, "boundary_matrix", flipped)
                assert not boundary_square_is_zero(c), (k, r, j)
    monkeypatch.undo()
    assert boundary_square_is_zero(c)  # the flips did not outlive their call


def test_boundary_rows_are_built_per_call():
    # a caller may change the rows it is given; the next call builds them anew
    config = PinchConfig(2, 5, Multidegree((2, 3)))
    c = build_divisor_complex(Multidegree((10, 5)), config)
    rows = boundary_matrix(c.levels, 1)
    assert rows
    expected = [dict(row) for row in rows]
    rows[0][0] = 7
    del rows[1][next(iter(rows[1]))]
    assert boundary_matrix(c.levels, 1) == expected


def test_boundary_matrix_skips_rows_in_order():
    c = full_simplex(range(4))
    for k in range(0, c.dim + 1):
        rows = boundary_matrix(c.levels, k)
        for skip in ({0}, set(range(0, len(rows), 2)), set(range(len(rows)))):
            kept = boundary_matrix(c.levels, k, skip=skip)
            assert kept == [row for j, row in enumerate(rows) if j not in skip]


def test_euler_characteristic_on_divisor_complexes():
    config = PinchConfig(2, 5, Multidegree((4, 1)))
    for t in range(0, 6):
        for h in enumerate_degree(config, t):
            c = build_divisor_complex(h, config)
            for field in FIELDS:
                assert euler_characteristic_matches(c, reduced_homology(c, field)), h


def from_facets(facets):
    faces = {frozenset()}
    for mx in facets:
        for k in range(1, len(mx) + 1):
            for sub in itertools.combinations(sorted(mx), k):
                faces.add(frozenset(sub))
    verts = sorted(set().union(*map(set, facets)))
    return from_faces(verts, faces)


def test_projective_plane_separates_fields():
    # 6-vertex triangulation of the real projective plane: 2-torsion makes
    # the homology characteristic-dependent, so a bug conflating the field
    # implementations (or their cache keys) would show up here
    facets = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
              (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]
    rp2 = from_facets(facets)
    validate(rp2)
    # closed surface: every edge lies in exactly two triangles
    for edge in faces_of_dim(rp2, 1):
        cofaces = [f for f in faces_of_dim(rp2, 2) if set(edge) <= set(f)]
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
    validate(c)
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
    # the dense oracle's column j is the j-th k-face, and so is boundary_matrix's
    for k in range(0, c.dim + 2):
        dense, _ = dense_boundary(c, k)
        assert boundary_matrix(c.levels, k) == [{j: a for j, a in enumerate(row) if a}
                                                for row in dense]
    for k in range(1, c.dim + 1):
        upper = boundary_matrix(c.levels, k)
        lower = boundary_matrix(c.levels, k - 1)
        for row in upper:
            composed = {}
            for j, a in row.items():
                for t, b in lower[j].items():
                    composed[t] = composed.get(t, 0) + a * b
            assert not any(composed.values())
    assert boundary_square_is_zero(c)


def pair_cells(c, v):
    """The cells of the pair at v, listed by size on the complex's rows."""
    return _face_levels(_pair_cells(c.bits, c.rows.vertices, v), c.rows)


def pair_profile(c, v, field):
    """Relative homology of the pair at v from each boundary map's rank, nothing cleared."""
    cells = pair_cells(c, v)
    ranks = {k: len(pivot_columns(boundary_matrix(cells, k), field))
             for k in range(0, len(cells) - 1)}
    return HomologyProfile({k: len(cells[k + 1]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
                            for k in range(-1, len(cells) - 1)})


@given(downward_closed_complexes())
@settings(max_examples=60, deadline=None)
def test_pair_profile_does_not_depend_on_the_vertex(c):
    facets = [f for f in c.faces if not any(f < g for g in c.faces)]
    outside = max(c.ground) + 1
    for field in (GF2, FieldSpec(5), FieldSpec(32003), RATIONALS):
        expected = per_level_profile(c, field)
        assert reduced_homology(c, field) == expected
        for v in (*c.ground, outside):
            assert pair_profile(c, v, field) == expected, (v, field)
    apexes = set()
    for v in (*c.ground, outside):
        cells = _pair_cells(c.bits, c.rows.vertices, v)
        # the faces F with F + v not a face, against the face sets
        assert cells == sum(1 << sum(1 << u for u in f) for f in c.faces
                            if f | {v} not in c.faces), v
        if v == outside:
            assert cells == c.bits and pair_cells(c, v) == c.levels
        if not cells:
            apexes.add(v)
    assert apexes == {v for v in c.ground if all(v in f for f in facets)}
    assert bool(apexes) == c.is_cone()


@given(downward_closed_complexes())
@settings(max_examples=40, deadline=None)
def test_cleared_cell_profile_matches_on_every_vertex(c):
    # the reduction with clearing, given the cells of any vertex's pair
    for field in (GF2, FieldSpec(5), FieldSpec(32003), RATIONALS):
        expected = reduced_homology(c, field)
        for v in (*c.ground, max(c.ground) + 1):
            assert _compute_profile(pair_cells(c, v), field) == expected, (v, field)


# -- profiles settled by an iterated element matching ------------------------


SETTLE_FIELDS = (GF2, FieldSpec(5), FieldSpec(32003), RATIONALS)


def recorded_splits(call):
    """call()'s result and the (v, cells) of each split it makes in `homology`."""
    import pinched_veronese.homology as homology

    splits = []

    def recording(faces, vertices, v):
        splits.append((v, _pair_cells(faces, vertices, v)))
        return splits[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_pair_cells", recording)
        return call(), splits


def first_splits_agree(c, table):
    """Check that settled_profile's first pass, on the rows of `table`, and
    reduced_homology(c) split c once each, at the same vertex into the same
    cells; return the settled profile and that vertex."""
    profile, first = recorded_splits(lambda: settled_profile(c.bits, table.vertices, table.sizes))
    _, reduced = recorded_splits(lambda: reduced_homology(c))
    assert len(first) == 1 and reduced == first, (first, reduced)
    return profile, first[0][0]


@given(downward_closed_complexes())
@settings(max_examples=60, deadline=None)
def test_settled_and_reduced_profiles_split_at_one_vertex(c):
    # the vertex in the most faces, the smallest on ties
    _, v = first_splits_agree(c, c.rows)
    counts = [sum(1 for f in c.faces if u in f) for u in c.support() or (0,)]
    assert v == (c.support() or (0,))[counts.index(max(counts))]


def settle_or_reduce(config, h, s_max):
    """Settle h as the scan does, on the table of cap s_max*d; check the
    bitset against the built complex, its first split against
    reduced_homology's, and a settled profile against the reduction over
    four fields.  True when h was settled."""
    faces, bits = divisor_bits(h, config, s_max * config.d)
    c = build_divisor_complex(h, config)
    assert faces == c.bits, h
    profile, _ = first_splits_agree(c, bits)
    if profile is None:
        # an apex has no cells, so a cone always settles
        assert not c.is_cone(), h
        return False
    for field in SETTLE_FIELDS:
        assert reduced_homology(c, field) == profile, (h, field)
    return True


def test_settled_profiles_match_reduction_two_vars():
    # every uncertified h of every n=2 pinch at d <= 8, as graded_betti
    # scans it (s <= N+1)
    settled = []
    for d in range(2, 9):
        for i in range(d + 1):
            config = PinchConfig.from_pinch_index(d, i)
            settled += [settle_or_reduce(config, h, config.N + 1)
                        for h in uncertified(config, config.N + 1)]
    assert 0 < settled.count(False) < settled.count(True)


def test_settled_profiles_match_reduction_three_vars():
    settled = [settle_or_reduce(PinchConfig(3, 3, Multidegree(m)), h, 8)
               for m in ((3, 0, 0), (2, 1, 0), (1, 1, 1))
               for h in uncertified(PinchConfig(3, 3, Multidegree(m)), 8)]
    assert 0 < settled.count(False) < settled.count(True)


@st.composite
def pinched_elements(draw):
    # any pinch vector, permuted ones too, and any element of its degree s,
    # cones included; n=3 stops at d = 4, since a d = 5 table has 2^20-bit rows
    n = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(2, 6 if n == 2 else 4))
    cut = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
    m = tuple(b - a for a, b in zip((0, *cut), (*cut, d)))
    config = PinchConfig(n, d, Multidegree(m))
    s_max = draw(st.integers(0, config.N + 1 if n == 2 else 7))
    s = draw(st.integers(0, s_max))
    h = draw(st.sampled_from(enumerate_degree(config, s)))
    return config, h, s_max


@given(pinched_elements())
@settings(max_examples=80, deadline=None)
def test_settled_profile_matches_reduction_on_random_pinches(case):
    config, h, s_max = case
    settle_or_reduce(config, h, s_max)


def test_subset_bits_match_the_subsets():
    # each bit of each table row, against the subsets themselves
    from pinched_veronese.complexes import _subset_bits, table_bytes

    for config, cap in ((PinchConfig(3, 2, Multidegree((1, 1, 0))), 6),
                        (PinchConfig(2, 5, Multidegree((2, 3))), 30),
                        (PinchConfig(2, 3, Multidegree((3, 0))), 100)):
        gens = generate_generators(config)
        bits = _subset_bits(gens, cap)
        subsets = range(1 << len(gens))

        def members(pred):
            return sum(1 << f for f in subsets if pred(f))

        def total(f, j):
            return sum(g[j] for v, g in enumerate(gens) if f >> v & 1)

        assert bits.vertices == tuple(members(lambda f: f >> v & 1) for v in range(len(gens)))
        assert len(bits.sizes) == min(len(gens), cap // config.d) + 1
        assert bits.sizes == tuple(members(lambda f: f.bit_count() == k)
                                   for k in range(len(bits.sizes)))
        for j, rows in enumerate(bits.at_most):
            assert len(rows) == min(cap, sum(g[j] for g in gens)) + 1
            assert rows == tuple(members(lambda f: total(f, j) <= x) for x in range(len(rows)))
        # the budget charges every row at 2^V bits
        count = len(bits.vertices) + len(bits.sizes) + sum(map(len, bits.at_most))
        assert table_bytes(config, cap) * 8 == count << len(gens)
