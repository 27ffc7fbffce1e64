import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from pinched_veronese import (
    Multidegree,
    PinchClass,
    PinchConfig,
    enumerate_degree,
    generate_generators,
    is_member_bruteforce,
    is_member_closed,
    is_normal,
)
from pinched_veronese.semigroup import _holes, is_cohen_macaulay
from pinched_veronese.series import hilbert_function


def compositions(total, parts):
    """Independent enumeration (stars and bars), not the library's."""
    out = []
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        coords = []
        for b in bars:
            coords.append(b - prev - 1)
            prev = b
        coords.append(total + parts - 2 - prev)
        out.append(tuple(coords))
    return out


def cfg(n, d, m):
    return PinchConfig(n, d, Multidegree(m))


# -- Multidegree and PinchConfig -------------------------------------------


def test_multidegree_basics():
    h = Multidegree((2, 3))
    assert h.total == 5
    assert h + Multidegree((1, 0)) == (3, 3)
    assert h.permuted((1, 0)) == (3, 2)
    with pytest.raises(ValueError):
        Multidegree((1, -1))
    with pytest.raises(ValueError):
        h + Multidegree((1, 1, 1))


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(2, 3, (2, 2))  # |m| != d
    with pytest.raises(ValueError):
        cfg(1, 3, (3,))  # n too small
    with pytest.raises(ValueError):
        cfg(3, 3, (2, 1))  # length mismatch
    with pytest.raises(ValueError):
        PinchConfig.from_pinch_index(4, 5)


def test_pinch_classes():
    assert cfg(2, 5, (5, 0)).pinch_class is PinchClass.MAX_D
    assert cfg(2, 5, (1, 4)).pinch_class is PinchClass.MAX_D_MINUS_1
    assert cfg(2, 5, (2, 3)).pinch_class is PinchClass.INTERIOR
    assert cfg(3, 3, (1, 1, 1)).pinch_class is PinchClass.INTERIOR


def test_no_interior_pinch_for_two_vars_degree_three():
    # every m with |m|=3 in two variables has max >= 2 = d-1
    for m in compositions(3, 2):
        assert cfg(2, 3, m).pinch_class is not PinchClass.INTERIOR


def test_normalization_sorts_descending():
    config = cfg(3, 4, (1, 3, 0))
    norm = config.normalization()
    assert isinstance(norm, Multidegree) and norm == (3, 1, 0)
    # the stable sort of the coordinates by descending value carries m onto it
    perm = tuple(sorted(range(config.n), key=lambda j: (-config.m[j], j)))
    assert perm == (1, 0, 2) and config.m.permuted(perm) == norm


# -- generators -------------------------------------------------------------


def test_generators_d3():
    config = cfg(2, 3, (3, 0))
    gens = generate_generators(config)
    assert [tuple(g) for g in gens] == [(2, 1), (1, 2), (0, 3)]
    assert config.N == 4


def test_generators_d5_pinch_absent():
    gens = generate_generators(cfg(2, 5, (2, 3)))
    assert len(gens) == 5
    assert (2, 3) not in [tuple(g) for g in gens]


def test_generators_n3():
    config = cfg(3, 3, (1, 1, 1))
    gens = generate_generators(config)
    assert len(gens) == 9  # N = C(5,3) = 10, minus the pinch
    assert config.N == comb(5, 3)


def test_generators_descending_lex():
    gens = generate_generators(cfg(3, 4, (2, 1, 1)))
    assert list(gens) == sorted(gens, reverse=True)


# -- membership -------------------------------------------------------------


def test_member_closed_examples():
    assert not is_member_closed((5, 1), cfg(2, 3, (2, 1)))
    assert is_member_closed((0, 0), cfg(2, 3, (2, 1)))
    assert is_member_closed((0, 0), cfg(2, 3, (3, 0)))
    assert is_member_closed((4, 2), cfg(2, 3, (3, 0)))
    assert not is_member_closed((5, 1), cfg(2, 3, (3, 0)))
    with pytest.raises(ValueError):
        is_member_closed((1, 1, 1), cfg(2, 3, (3, 0)))


def test_member_closed_non_multiples_of_d():
    config = cfg(2, 4, (2, 2))
    assert not is_member_closed((3, 2), config)
    assert not is_member_closed((1, 0), config)


def test_member_closed_degree_two_pinch():
    # removing (1,1) from the degree-2 generators leaves only even vectors
    # on those two coordinates: every (odd, odd, 0, ...) vector is missing
    config = cfg(2, 2, (1, 1))
    assert not is_member_closed((1, 1), config)
    assert not is_member_closed((3, 3), config)
    assert is_member_closed((2, 4), config)
    config3 = cfg(3, 2, (1, 1, 0))
    assert not is_member_closed((1, 3, 0), config3)
    assert is_member_closed((1, 1, 2), config3)
    for total in range(17):
        for c in compositions(total, 2):
            h = Multidegree(c)
            assert is_member_closed(h, config) == is_member_bruteforce(h, config)


@pytest.mark.parametrize("m, member, hole", [
    ((1, 1), (10**12, 10**12), (10**12 + 1, 10**12 - 1)),
    ((1, 0, 1), (10**12 - 1, 2, 10**12 - 1), (10**12 + 1, 0, 10**12 - 1)),
    ((3, 0), (3 * 10**12 - 10**12, 10**12), (3 * 10**12 - 1, 1)),
    ((2, 1), (3 * 10**12 - 2, 2), (3 * 10**12 - 1, 1)),
], ids=("d2-n2", "d2-n3", "max-d", "max-d-1"))
def test_member_closed_answers_a_huge_element_from_its_class(m, member, hole):
    # the holes of degree 10**12 are stated in O(n), not listed one by one
    config = cfg(len(m), sum(m), m)
    assert is_member_closed(member, config)
    assert not is_member_closed(hole, config)


def test_member_bruteforce_examples():
    assert is_member_bruteforce((2, 4), cfg(2, 3, (1, 2)))  # (2,1) + (0,3)
    assert not is_member_bruteforce((3, 0), cfg(2, 3, (3, 0)))  # the pinch itself
    with pytest.raises(ValueError):
        is_member_bruteforce((30, 0), cfg(2, 3, (3, 0)), degree_cap=24)


def test_bruteforce_oracle_keeps_no_state_between_calls(monkeypatch):
    import pinched_veronese.semigroup as semigroup

    config = cfg(2, 3, (1, 2))
    assert is_member_bruteforce((2, 4), config)  # (2,1) + (0,3)
    # the same question again must be searched again: with (3,0) as the only
    # generator, (2,4) has no representation, whatever the first call found
    only = (Multidegree((3, 0)),)
    monkeypatch.setattr(semigroup, "generate_generators", lambda _config: only)
    assert not is_member_bruteforce((2, 4), config)
    assert is_member_bruteforce((6, 0), config)


def test_membership_oracles_agree_small():
    # subset of the full acceptance sweep: every h with |h| <= 8d
    for config in (cfg(2, 3, (3, 0)), cfg(2, 4, (3, 1)), cfg(2, 4, (2, 2)),
                   cfg(3, 3, (1, 1, 1))):
        bound = 8 * config.d
        for total in range(bound + 1):
            for c in compositions(total, config.n):
                h = Multidegree(c)
                assert is_member_closed(h, config) == is_member_bruteforce(h, config), (
                    config, h)


def test_enumerate_degree_examples():
    assert enumerate_degree(cfg(2, 3, (2, 1)), 0) == [(0, 0)]
    assert len(enumerate_degree(cfg(2, 3, (3, 0)), 1)) == 3
    deg2 = enumerate_degree(cfg(2, 3, (2, 1)), 2)
    assert len(deg2) == 6
    assert (5, 1) not in [tuple(h) for h in deg2]
    assert len(enumerate_degree(cfg(2, 3, (3, 0)), 2)) == 5


@pytest.mark.parametrize("n, d, t_max", [(2, 2, 6), (2, 3, 5), (2, 4, 4), (2, 5, 3),
                                         (3, 2, 4), (3, 3, 3)])
def test_enumerate_degree_matches_bruteforce_on_every_pinch(n, d, t_max):
    # every pinch of every class, so d = 2 max=d-1 (the parity holes) too
    for m in compositions(d, n):
        config = cfg(n, d, m)
        for t in range(t_max + 1):
            expected = [Multidegree(c) for c in sorted(compositions(t * d, n), reverse=True)
                        if is_member_bruteforce(c, config)]
            got = enumerate_degree(config, t)
            assert got == expected, (config, t)
            assert all(type(h) is Multidegree for h in got)


@pytest.mark.parametrize("n, d, m", [
    *[(2, 2, m) for m in ((2, 0), (1, 1), (0, 2))],
    *[(3, 2, m) for m in ((2, 0, 0), (0, 2, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))],
    (2, 3, (3, 0)), (2, 4, (0, 4)), (3, 3, (0, 0, 3)), (3, 3, (0, 3, 0)),
])
def test_enumerate_degree_in_a_box_matches_bruteforce(n, d, m):
    # the max=d half-space and the d = 2 parity holes meet the caps of the
    # box h_q < below[q], on every side of each cap
    config = cfg(n, d, m)
    for t in range(5):
        members = [c for c in sorted(compositions(t * d, n), reverse=True)
                   if is_member_bruteforce(c, config)]
        edges = sorted({0, 1, t, t * (d - 1), t * (d - 1) + 1, t * (d - 1) + 2, t * d + 1})
        for below in itertools.product(edges, repeat=n):
            expected = [h for h in members if all(map(int.__lt__, h, below))]
            assert enumerate_degree(config, t, below) == expected, (config, t, below)


@pytest.mark.parametrize("n, d_max", [(2, 11), (3, 6), (4, 4), (5, 3)])
def test_holes_number_what_the_hilbert_function_misses(n, d_max):
    # a half-space h_p >= low counts as the compositions it covers; the
    # listed holes are distinct vectors of the degree
    for d in range(2, d_max + 1):
        for m in compositions(d, n):
            config = cfg(n, d, m)
            for t in range(9):
                holes = _holes(config, t)
                points = list(holes.listed((t * d,) * n, t * d))
                count = len(set(points))
                assert count == len(points)
                assert all(len(r) == n and min(r) >= 0 and sum(r) == t * d for r in points)
                assert all(map(holes.has, points))
                if holes.half:
                    p, low = holes.half
                    count += comb(t * d - low + n - 1, n - 1)
                missing = comb(t * d + n - 1, n - 1) - hilbert_function(config, t)
                assert count == missing, (config, t)


def test_enumerate_degree_sorted_descending():
    out = enumerate_degree(cfg(2, 4, (2, 2)), 3)
    assert out == sorted(out, reverse=True)
    out3 = enumerate_degree(cfg(3, 3, (2, 1, 0)), 2)
    assert out3 == sorted(out3, reverse=True)


# -- properties --------------------------------------------------------------


def all_pinches(n, d):
    return [Multidegree(c) for c in compositions(d, n)]


@st.composite
def config_strategy(draw, d_max=5):
    n = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(2, d_max))
    ms = all_pinches(n, d)
    m = ms[draw(st.integers(0, len(ms) - 1))]
    return PinchConfig(n, d, m)


@given(config_strategy(), st.data())
@settings(max_examples=60, deadline=None)
def test_permutation_equivariance(config, data):
    perms = list(itertools.permutations(range(config.n)))
    perm = perms[data.draw(st.integers(0, len(perms) - 1))]
    permuted = PinchConfig(config.n, config.d, config.m.permuted(perm))
    total = data.draw(st.integers(0, 3)) * config.d
    hs = compositions(total, config.n)
    h = Multidegree(hs[data.draw(st.integers(0, len(hs) - 1))])
    assert is_member_closed(h, config) == is_member_closed(h.permuted(perm), permuted)
    gens = {tuple(g.permuted(perm)) for g in generate_generators(config)}
    assert gens == {tuple(g) for g in generate_generators(permuted)}


@given(config_strategy(), st.data())
@settings(max_examples=60, deadline=None)
def test_members_closed_under_addition(config, data):
    t1 = data.draw(st.integers(0, 3))
    t2 = data.draw(st.integers(0, 3))
    e1 = enumerate_degree(config, t1)
    e2 = enumerate_degree(config, t2)
    h1 = e1[data.draw(st.integers(0, len(e1) - 1))]
    h2 = e2[data.draw(st.integers(0, len(e2) - 1))]
    assert is_member_closed(h1 + h2, config)


def test_enumerate_counts_match_series():
    # cross-module check against the closed Hilbert series
    from pinched_veronese import hilbert_closed

    for config in (cfg(2, 3, (3, 0)), cfg(2, 3, (2, 1)), cfg(2, 5, (2, 3)),
                   cfg(3, 3, (1, 1, 1)), cfg(3, 4, (3, 1, 0))):
        coeffs = hilbert_closed(config).series(8 * config.d)
        for t in range(9):
            assert len(enumerate_degree(config, t)) == coeffs[t * config.d], (config, t)


# -- normality ---------------------------------------------------------------


def normal_by_bruteforce(config, degree_bound=2, multiplier_bound=4):
    """No z in N^n of total t*d (t <= degree_bound) that proves H non-normal.

    A witness z is not in H, has mult*z in H for some 2 <= mult <= the bound
    (so z lies in the cone), and has z + g in H for some generator g (so z
    lies in gp(H)).  Every membership test is the dynamic-programming oracle.
    """
    gens = generate_generators(config)
    for t in range(1, degree_bound + 1):
        for z in compositions(t * config.d, config.n):
            z = Multidegree(z)
            if is_member_bruteforce(z, config):
                continue
            if (any(is_member_bruteforce(Multidegree(mult * c for c in z), config)
                    for mult in range(2, multiplier_bound + 1))
                    and any(is_member_bruteforce(z + g, config) for g in gens)):
                return False
    return True


@pytest.mark.parametrize("n, d, m", [
    (n, d, m) for n in (2, 3) for d in (2, 3, 4)
    for m in compositions(d, n) if list(m) == sorted(m, reverse=True)
])
def test_is_normal_matches_bruteforce_scan(n, d, m):
    # mult * t <= 8 keeps every multiple under the oracle's default cap of 8d
    config = cfg(n, d, m)
    assert is_normal(config) == normal_by_bruteforce(config)


def test_d2_interior_pair_pinch_is_normal():
    # H = N(2,0) + N(0,2): (1,1) is in the cone but not in gp(H) = 2Z^2
    config = cfg(2, 2, (1, 1))
    assert is_normal(config)
    assert not is_member_bruteforce((1, 1), config)
    assert is_member_bruteforce((2, 2), config)
    assert not any(is_member_bruteforce(Multidegree((1, 1)) + g, config)
                   for g in generate_generators(config))


@pytest.mark.parametrize("n, d, m, normal, cm", [
    (2, 4, (4, 0), True, True),
    (2, 4, (3, 1), False, True),
    (2, 5, (2, 3), False, False),
    (3, 3, (3, 0, 0), True, True),
    (3, 3, (2, 1, 0), False, False),
    (3, 2, (1, 1, 0), False, False),
    (4, 3, (3, 0, 0, 0), True, True),
])
def test_normality_and_cm_by_class(n, d, m, normal, cm):
    config = cfg(n, d, m)
    assert (is_normal(config), is_cohen_macaulay(config)) == (normal, cm)
