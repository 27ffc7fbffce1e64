import json
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest

import pinched_veronese
from pinched_veronese import (
    Multidegree,
    PinchClass,
    PinchConfig,
    Polynomial,
    Series,
    UncertifiedTableError,
    canonical_partner,
    canonical_series_check,
    enumerate_degree,
    graded_betti,
    h_polynomial,
    hilbert_closed,
    hilbert_function,
    k_polynomial_check,
    veronese_module_series,
)
from pinched_veronese import series as series_module
from pinched_veronese.cli import main
from pinched_veronese.series import (
    _cleared, _cleared_numerator, _lowest_terms, in_z, one_minus_w)


def cfg(n, d, m):
    return PinchConfig(n, d, Multidegree(m))


def comb0(n, k):
    return comb(n, k) if 0 <= k <= n else 0


# -- integer coefficient lists ------------------------------------------------


def test_polynomial_basics():
    p = Polynomial([1, 0, -2, 0, 0])
    assert p == (1, 0, -2) and len(p) == 3
    assert p[0] == 1 and p[2] == -2 and p[3] == 0 and p[100] == 0 and p[-1] == 0
    assert p[::-1] == (-2, 0, 1)
    assert Polynomial((0, 0)) == () and Polynomial() == ()
    assert one_minus_w(3) == (1, -3, 3, -1) and one_minus_w(0) == (1,)


def test_in_z_spreads_w_coefficients():
    assert in_z((1, -2, 1), 3) == [1, 0, 0, -2, 0, 0, 1]
    assert in_z((1, 2), 2, shift=1) == [0, 1, 0, 2]
    # past the given coefficients the series reads 0; past order it is cut
    assert in_z((5, 6), 2, order=6) == [5, 0, 6, 0, 0, 0, 0]
    assert in_z((5, 6, 7), 2, shift=1, order=3) == [0, 5, 0, 6]
    assert in_z((1,), 2, shift=3, order=1) == [0, 0]
    assert in_z((1,), 2, order=-1) == []


def test_lowest_terms_divides_by_one_minus_w():
    # (1-w)^2 (1+w) / (1-w)^3 = (1+w) / (1-w)
    assert _lowest_terms((1, -1, -1, 1), 3) == ((1, 1), 1)
    # h(1) != 0: nothing to divide
    assert _lowest_terms((1, 2), 2) == ((1, 2), 2)
    # the denominator runs out before the numerator stops vanishing at 1
    assert _lowest_terms((1, -2, 1), 1) == ((1, -1), 0)


def test_rational_series_expansion():
    assert Series((1,), 1, 1).series(5) == [1, 1, 1, 1, 1, 1]
    assert Series((1,), 2, 1).series(4) == [1, 2, 3, 4, 5]
    # z^1 (1 + w) / (1 - w) with w = z^3
    assert Series((1, 1), 1, 3, 1).series(8) == [0, 1, 0, 0, 2, 0, 0, 2, 0]
    assert Series((1,), 1, 2, 3).series(1) == [0, 0]
    assert Series((1,), 1, 2).series(-1) == []


def test_hilbert_closed_is_in_lowest_terms():
    for n in (2, 3, 4):
        for d in range(2, 7):
            for m in pinch_representatives(n, d):
                got = hilbert_closed(cfg(n, d, m))
                assert got.e == 0 or sum(got.h) != 0, (n, d, m)
                assert got.d == d and got.shift == 0
                assert got.h[0] == 1


def pinch_representatives(n, d):
    """One pinch vector per class (the series depends on the class only)."""
    reps = [(d,) + (0,) * (n - 1), (d - 1, 1) + (0,) * (n - 2)]
    if d >= 3 and n >= 3:
        reps.append((d - 2, 1, 1) + (0,) * (n - 3))
    if d >= 4 and n == 2:
        reps.append((2, d - 2))
    return reps


def convolve_far(config, length):
    """(1-w)^(N-1) * sum_t H(t) w^t through w^(length-1), with no degree bound."""
    values = [hilbert_function(config, t) for t in range(length)]
    e = config.N - 1
    return [sum((-1) ** i * comb(e, i) * values[j - i] for i in range(min(j, e) + 1))
            for j in range(length)]


def test_cleared_numerator_truncation_is_exact():
    # the coefficients past t0 + N - 1 vanish, so nothing is cut off
    for n in (2, 3, 4):
        for d in range(2, 7):
            for m in pinch_representatives(n, d):
                config = cfg(n, d, m)
                t0 = 2 if config.pinch_class is PinchClass.INTERIOR else 1
                far = convolve_far(config, t0 + config.N - 1 + 6)
                assert all(c == 0 for c in far[t0 + config.N - 1:]), (n, d, m)
                assert _cleared_numerator(config) == Polynomial(far), (n, d, m)


def test_one_start_for_every_class_gives_the_same_numerator():
    # t0 = 1 outside the interior class, as before, against t0 = 2 for all
    checked = 0
    for n, ds in ((2, range(2, 12)), (3, range(2, 7)), (4, range(2, 5))):
        for d in ds:
            for m in product(range(d + 1), repeat=n):
                if sum(m) != d:
                    continue
                config = cfg(n, d, m)
                t0 = 2 if config.pinch_class is PinchClass.INTERIOR else 1
                old = _cleared(lambda t: hilbert_function(config, t), t0, config.N - 1)
                assert _cleared_numerator(config) == old, (n, d, m)
                checked += 1
    assert checked == 220


def test_hilbert_function_counts_the_lattice():
    for config in (cfg(2, 5, (5, 0)), cfg(2, 5, (4, 1)), cfg(2, 5, (2, 3)),
                   cfg(3, 2, (1, 1, 0)), cfg(3, 3, (1, 1, 1)), cfg(4, 2, (2, 0, 0, 0))):
        for t in range(7):
            assert hilbert_function(config, t) == len(enumerate_degree(config, t)), (config, t)


@pytest.mark.parametrize("n, d_max", [(2, 6), (3, 4)])
def test_hilbert_function_matches_bruteforce_membership(n, d_max):
    # an oracle that never reads the hole list: every composition of t*d,
    # decided by the dynamic-programming membership test
    from pinched_veronese import is_member_bruteforce

    for d in range(2, d_max + 1):
        for m in product(range(d + 1), repeat=n):
            if sum(m) != d:
                continue
            config = cfg(n, d, m)
            for t in range(5):
                members = sum(is_member_bruteforce(h, config)
                              for h in product(range(t * d + 1), repeat=n) if sum(h) == t * d)
                assert hilbert_function(config, t) == members, (config, t)


def test_closed_series_expands_to_the_hilbert_function():
    for n in (2, 3, 4):
        for d in range(2, 7):
            for m in pinch_representatives(n, d):
                config = cfg(n, d, m)
                coeffs = hilbert_closed(config).series(10 * d)
                assert coeffs[::d] == [hilbert_function(config, t) for t in range(11)]
                assert not any(c for k, c in enumerate(coeffs) if k % d)


def expand_cli(capsys, config, order, fmt):
    argv = ["hilbert", "-n", str(config.n), "-d", str(config.d),
            "--pinch", ",".join(map(str, config.m)), "--expand", str(order), "--format", fmt]
    assert main(argv) == 0
    return capsys.readouterr().out


def per_degree_expansion(config, order):
    """The expansion one coarse degree at a time, through `hilbert_function`."""
    values = [hilbert_function(config, t) for t in range(order // config.d + 1)]
    return in_z(values, config.d, order=order)


def test_cli_expansion_matches_the_per_degree_hilbert_function(capsys):
    # `hilbert --expand` reads the closed series; each degree on its own is the oracle
    for n, ds in ((2, range(2, 7)), (3, range(2, 5))):
        for d in ds:
            for m in pinch_representatives(n, d):
                config = cfg(n, d, m)
                payload = json.loads(expand_cli(capsys, config, 40 * d, "json"))
                assert payload["expansion"] == per_degree_expansion(config, 40 * d), (n, d, m)
    # a long CSV expansion of the d = 2 parity-hole class
    config = cfg(3, 2, (1, 1, 0))
    part, coefficients = expand_cli(capsys, config, 100_000, "csv").splitlines()[-1].split(",")
    assert part == "expansion"
    assert list(map(int, coefficients.split())) == per_degree_expansion(config, 100_000)


# -- closed Hilbert series ---------------------------------------------------


def test_hilbert_closed_max_d():
    for d in range(3, 8):
        got = hilbert_closed(cfg(2, d, (d, 0)))
        assert got == Series((1, d - 2), 2, d), d


def test_hilbert_closed_max_d_minus_1():
    for d in range(3, 8):
        got = hilbert_closed(cfg(2, d, (d - 1, 1)))
        assert got == Series((1, d - 2, 1), 2, d), d


def test_hilbert_closed_interior():
    for d in range(4, 8):
        got = hilbert_closed(cfg(2, d, (2, d - 2)))
        assert got == Series((1, d - 2, 2, -1), 2, d), d


def test_hilbert_closed_degree_two_pinch():
    # removing (1,1) leaves the polynomial ring on the two pure squares
    got = hilbert_closed(cfg(2, 2, (1, 1)))
    assert got == Series((1,), 2, 2)
    counted = hilbert_closed(cfg(3, 2, (1, 1, 0))).series(12)
    for t in range(7):
        assert counted[2 * t] == len(enumerate_degree(cfg(3, 2, (1, 1, 0)), t))


def test_hilbert_expansion_matches_counting():
    config = cfg(2, 3, (3, 0))
    coeffs = hilbert_closed(config).series(9)
    assert [coeffs[3 * t] for t in range(4)] == [1, 3, 5, 7]
    assert all(coeffs[k] == 0 for k in range(10) if k % 3)


def test_hilbert_counting_cross_check():
    for config in (cfg(2, 4, (4, 0)), cfg(2, 4, (3, 1)), cfg(2, 4, (2, 2)),
                   cfg(3, 3, (2, 1, 0)), cfg(3, 3, (1, 1, 1))):
        coeffs = hilbert_closed(config).series(8 * config.d)
        for t in range(9):
            assert coeffs[t * config.d] == len(enumerate_degree(config, t))


# -- Veronese module series --------------------------------------------------


def test_veronese_series_two_vars():
    for d in range(2, 7):
        got = veronese_module_series(2, d, 0)
        assert got == Series((1, d - 1), 2, d)


def test_veronese_series_one_var():
    for d in range(2, 5):
        for k in range(d):
            got = veronese_module_series(1, d, k)
            assert got == Series((1,), 1, d, k)


def test_veronese_series_monomial_count():
    coeffs = veronese_module_series(3, 2, 1).series(11)
    for t in range(5):
        assert coeffs[1 + 2 * t] == comb(2 * t + 3, 2)
        assert coeffs[2 * t] == 0


def test_veronese_series_parameter_range():
    with pytest.raises(ValueError):
        veronese_module_series(2, 3, 3)
    with pytest.raises(ValueError):
        veronese_module_series(0, 3, 0)


# -- h-polynomial ------------------------------------------------------------


def test_h_polynomial_gorenstein_case():
    assert h_polynomial(cfg(2, 5, (4, 1))) == (1, 0, -5, 5, 0, -1)


def test_h_polynomial_requires_two_vars():
    with pytest.raises(ValueError):
        h_polynomial(cfg(3, 3, (1, 1, 1)))


def test_h_polynomial_max_d_formula():
    # sign-corrected closed form: coefficient i is (-1)^(i+1) * C(d-1,i) * (i-1)
    for d in range(3, 11):
        h = h_polynomial(cfg(2, d, (d, 0)))
        assert h[0] == 1
        for i in range(0, d + 1):
            assert h[i] == (-1) ** (i + 1) * comb0(d - 1, i) * (i - 1), (d, i)


def sign(k):
    return -1 if k % 2 else 1


def test_h_polynomial_max_d_minus_1_formula():
    for d in range(3, 11):
        h = h_polynomial(cfg(2, d, (d - 1, 1)))
        for i in range(0, d + 1):
            want = sign(i - 1) * comb0(d, i) * (i - 1) * (d - i - 1)
            assert h[i] * (d - 1) == want, (d, i)


def test_h_polynomial_interior_formula():
    for d in range(4, 11):
        h = h_polynomial(cfg(2, d, (2, d - 2)))
        for i in range(0, d + 1):
            want = sign(i - 1) * (
                (d - 1) * comb0(d - 2, i - 1) - comb0(d, i - 1) - comb0(d - 2, i)
            )
            assert h[i] == want, (d, i)
        # top coefficient one degree beyond the printed range
        assert len(h) - 1 == d + 1
        assert h[d + 1] == (-1) ** (d + 1)


def test_interior_formula_vanishes_at_one():
    # (d-1)*C(d-2,0) - C(d,0) - C(d-2,1) = 0 identically
    for d in range(4, 41):
        assert (d - 1) - 1 - (d - 2) == 0
        h = h_polynomial(cfg(2, d, (2, d - 2))) if d <= 10 else None
        if h is not None:
            assert h[1] == 0


# -- series identity against Betti tables ------------------------------------


def test_k_polynomial_check_true_cases():
    for config in (cfg(2, 4, (4, 0)), cfg(2, 5, (4, 1)), cfg(2, 5, (2, 3))):
        table = graded_betti(config)
        assert k_polynomial_check(table, config)


def test_k_polynomial_check_detects_mutation():
    config = cfg(2, 4, (4, 0))
    table = graded_betti(config)
    table.entries[(1, 2)] += 1
    assert not k_polynomial_check(table, config)


def test_k_polynomial_check_requires_clean_guard():
    config = cfg(2, 5, (2, 3))
    table = graded_betti(config, s_max=5)  # (3,5) is nonzero: dirty guard
    with pytest.raises(UncertifiedTableError):
        k_polynomial_check(table, config)


# -- canonical modules -------------------------------------------------------


def test_canonical_partner_examples():
    assert canonical_partner(2, 5, 1) == 2
    assert canonical_partner(3, 4, 2) == 3
    for n in (2, 3):
        for d in range(n, 7):
            assert canonical_partner(n, d, d - n) == 0
    with pytest.raises(ValueError):
        canonical_partner(2, 4, 4)


def test_canonical_partner_involution():
    for n in (1, 2, 3):
        for d in range(1, 7):
            for k in range(d):
                t = canonical_partner(n, d, k)
                assert 0 <= t < d
                assert (t + n + k) % d == 0
                assert canonical_partner(n, d, t) == k


def test_canonical_series_check_examples():
    assert canonical_series_check(1, 1, 0) == (True, 1)
    assert canonical_series_check(2, 2, 0) == (True, 2)
    holds, shift = canonical_series_check(2, 5, 1)
    assert holds and isinstance(shift, int)


def test_canonical_series_check_sweep():
    for n in (1, 2, 3):
        for d in range(1, 7):
            for k in range(d):
                holds, _ = canonical_series_check(n, d, k)
                assert holds, (n, d, k)


def test_canonical_series_check_wrong_partner_fails(monkeypatch):
    # the partner of k=1 at n=2, d=5 is 2; with any other slice the duality fails
    assert canonical_series_check(2, 5, 1)[0]
    for t in (0, 1, 3, 4):
        monkeypatch.setattr(series_module, "canonical_partner", lambda n, d, k, t=t: t)
        assert canonical_series_check(2, 5, 1) == (False, 0), t
    for n in (2, 3):
        for d in range(2, 7):
            for k in range(d):
                t = canonical_partner(n, d, k)
                for other in range(d):
                    if other != t:
                        monkeypatch.setattr(series_module, "canonical_partner",
                                            lambda n, d, k, other=other: other)
                        assert not canonical_series_check(n, d, k)[0], (n, d, k, other)


def evaluate(series, z):
    """The rational function z^shift * h(z^d) / (1 - z^d)^e at a rational point."""
    w = z ** series.d
    return z ** series.shift * sum(c * w ** j for j, c in enumerate(series.h)) / (1 - w) ** series.e


def test_canonical_shift_evaluates_the_duality():
    # (-1)^n S_k(1/z) = z^shift S_t(z), evaluated exactly away from the poles
    for n in (1, 2, 3):
        for d in range(1, 6):
            for k in range(d):
                holds, shift = canonical_series_check(n, d, k)
                sk = veronese_module_series(n, d, k)
                st = veronese_module_series(n, d, canonical_partner(n, d, k))
                for z in (Fraction(2), Fraction(-3, 5)):
                    assert (-1) ** n * evaluate(sk, 1 / z) == z ** shift * evaluate(st, z), (n, d, k)


def test_cli_import_leaves_fractions_out():
    src = str(Path(pinched_veronese.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pinched_veronese.cli; "
            "print('fractions' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
