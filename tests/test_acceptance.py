"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 compares each cataloged cell with its erratum where the catalog
records one, and with the stated closed form otherwise.  The interior class
has errata at its two row-2 tail cells, (d-3, d-1) and (d-2, d): the stated
forms, as cataloged, disagree with values forced by the interior h-polynomial
and the cataloged zeros (see expected_interior).  The computed values are
certified here over three fields (criterion 6) and by the series identity
(criterion 4).  verify() still judges the stated forms and reports them as
failing; a failure line here names whether it used an erratum or the stated
form.
"""

import time
from fractions import Fraction
from math import comb

import pytest

from pinched_veronese import (
    GF2,
    DEFAULT_FIELD,
    Multidegree,
    PinchConfig,
    RATIONALS,
    alexander_dual,
    boundary_square_is_zero,
    build_divisor_complex,
    canonical_partner,
    canonical_series_check,
    classify,
    enumerate_degree,
    euler_characteristic_matches,
    expected_table,
    graded_betti,
    h_polynomial,
    hilbert_closed,
    is_member_bruteforce,
    is_member_closed,
    is_normal,
    k_polynomial_check,
    reduced_homology,
    witness_non_cm,
)

FIELDS = (DEFAULT_FIELD, GF2, RATIONALS)

N2_SWEEP = [(d, i) for d in range(3, 9) for i in range((d + 1) // 2 + 1)]

N3_D3_PINCHES = ((3, 0, 0), (2, 1, 0), (1, 1, 1))
N3_D3_SMAX = 11


def n2_config(d, i):
    return PinchConfig.from_pinch_index(d, i)


def n3_config(m):
    return PinchConfig(3, 3, Multidegree(m))


def comb0(n, k):
    return comb(n, k) if 0 <= k <= n else 0


def sign(k):
    return -1 if k % 2 else 1


def report(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE [{status}] criterion {number}: {name}")
    assert not failures, f"criterion {number} ({name}):\n" + "\n".join(failures)


@pytest.fixture(scope="session")
def n2_tables():
    start = time.time()
    tables = {(d, i): graded_betti(n2_config(d, i)) for d, i in N2_SWEEP}
    tables["elapsed"] = time.time() - start
    return tables


@pytest.fixture(scope="session")
def n3_tables():
    return {
        m: graded_betti(n3_config(m), i_max=8, s_max=N3_D3_SMAX)
        for m in N3_D3_PINCHES
    }


# -- criterion 1: closed-formula reproduction ---------------------------------


def test_criterion_1_closed_formulas(n2_tables):
    failures = []
    for d, i in N2_SWEEP:
        table = n2_tables[(d, i)]
        exp = expected_table(table.config)
        for (ii, ss), stated in sorted(exp.known.items()):
            if (ii, ss) in exp.errata:
                want, source = exp.errata[(ii, ss)], "erratum"
            else:
                want, source = stated, "cataloged"
            got = table.entry(ii, ss)
            if got != want:
                failures.append(
                    f"d={d} i={i}: {source} betti[{ii},{ss}] = {want}, computed {got}"
                )
        for ii, ss in exp.implied_zero_cells(table.i_max, table.s_max):
            if table.entry(ii, ss):
                failures.append(
                    f"d={d} i={i}: zero region violated at ({ii},{ss}) = {table.entry(ii, ss)}"
                )
        for name, (ii, ss) in sorted(exp.named_zeros.items()):
            if table.entry(ii, ss):
                failures.append(f"d={d} i={i}: {name} at ({ii},{ss}) is nonzero")
        for name, (ii, ss) in sorted(exp.nonzero_cells.items()):
            if not table.entry(ii, ss):
                failures.append(f"d={d} i={i}: {name} at ({ii},{ss}) is zero")
    # spot values
    if n2_tables[(5, 1)].totals() != [1, 5, 5, 1]:
        failures.append(f"d=5 i=1 totals {n2_tables[(5, 1)].totals()} != [1,5,5,1]")
    spot = n2_tables[(5, 2)]
    for (ii, ss), want in (((1, 2), 4), ((2, 4), 6), ((3, 5), 5), ((4, 6), 1)):
        if spot.entry(ii, ss) != want:
            failures.append(
                f"d=5 i=2 spot betti[{ii},{ss}] = {want}, computed {spot.entry(ii, ss)}"
            )
    if n2_tables["elapsed"] > 120:
        failures.append(f"table family took {n2_tables['elapsed']:.1f}s > 120s")
    report(1, "closed-formula reproduction", failures)


# -- criterion 2: CM / Gorenstein classification -------------------------------


def test_criterion_2_classification(n2_tables, n3_tables):
    failures = []
    for d, i in N2_SWEEP:
        table = n2_tables[(d, i)]
        rep = classify(table)
        top = max(table.config.m)
        want_cm = top == d or top == d - 1
        if rep.is_cm != want_cm:
            failures.append(f"d={d} i={i}: is_cm {rep.is_cm}, expected {want_cm}")
        # the exactly-Gorenstein set: the max=d-1 class, plus the d=3 pure
        # power (a hypersurface)
        want_gor = top == d - 1 or (d == 3 and top == d)
        if rep.is_gorenstein != want_gor:
            failures.append(
                f"d={d} i={i}: is_gorenstein {rep.is_gorenstein}, expected {want_gor}"
            )
        want_reg = 1 if top == d else 2
        if rep.observed_regularity != want_reg:
            failures.append(
                f"d={d} i={i}: regularity {rep.observed_regularity}, expected {want_reg}"
            )
        if top == d:
            want_lin = rep.pdim
        elif top == d - 1:
            want_lin = d - 3
        else:
            want_lin = min(table.config.m) - 2
        if rep.linearity_index != want_lin:
            failures.append(
                f"d={d} i={i}: linearity index {rep.linearity_index}, expected {want_lin}"
            )
    expected_n3 = {(3, 0, 0): (True, 6), (2, 1, 0): (False, 7), (1, 1, 1): (False, 8)}
    for m, (want_cm, want_pdim) in expected_n3.items():
        rep = classify(n3_tables[m])
        if (rep.is_cm, rep.pdim) != (want_cm, want_pdim):
            failures.append(
                f"n=3 d=3 m={m}: (is_cm, pdim) = {(rep.is_cm, rep.pdim)}, "
                f"expected {(want_cm, want_pdim)}"
            )
    # witness route: d=3 (cross-check of the tables) and d=4 (witness only)
    for n, d, m, want_index in (
        (3, 3, (2, 1, 0), 7), (3, 3, (1, 1, 1), 8),
        (3, 4, (3, 1, 0), 12), (3, 4, (2, 1, 1), 13),
    ):
        w = witness_non_cm(PinchConfig(n, d, Multidegree(m)))
        if w.dimension < 1 or w.index != want_index:
            failures.append(f"witness n={n} d={d} m={m}: {w}")
    if not is_normal(PinchConfig(3, 4, Multidegree((4, 0, 0)))):
        failures.append("the max=d class at n=3 d=4 is not decided normal")
    report(2, "CM and Gorenstein classification", failures)


# -- criterion 3: Hilbert series ------------------------------------------------


def counting_configs():
    out = []
    for n in (2, 3):
        for d in range(2, 6):
            pinches = [(d,) + (0,) * (n - 1)]
            maxd1 = (d - 1, 1) + (0,) * (n - 2)
            pinches.append(maxd1)
            if n == 2 and d >= 4:
                pinches.append((2, d - 2))
            if n == 3 and d == 3:
                pinches.append((1, 1, 1))
            if n == 3 and d >= 4:
                pinches.append((d - 2, 1, 1))
            out.extend(PinchConfig(n, d, Multidegree(m)) for m in pinches)
    return out


def test_criterion_3_hilbert_series():
    failures = []
    for config in counting_configs():
        coeffs = hilbert_closed(config).series(12 * config.d)
        for t in range(13):
            want = len(enumerate_degree(config, t))
            if coeffs[t * config.d] != want:
                failures.append(f"{config}: degree {t * config.d} count {want} != series")
        bad = [k for k in range(12 * config.d + 1) if k % config.d and coeffs[k]]
        if bad:
            failures.append(f"{config}: nonzero series coefficient off the lattice {bad[:3]}")
    for d in range(3, 11):
        h_maxd = h_polynomial(PinchConfig(2, d, Multidegree((d, 0))))
        h_maxd1 = h_polynomial(PinchConfig(2, d, Multidegree((d - 1, 1))))
        for i in range(d + 1):
            if h_maxd[i] != sign(i + 1) * comb0(d - 1, i) * (i - 1):
                failures.append(f"max=d numerator at d={d}, i={i}")
            want = Fraction(sign(i - 1) * comb0(d, i) * (i - 1) * (d - i - 1), d - 1)
            if h_maxd1[i] != want:
                failures.append(f"max=d-1 numerator at d={d}, i={i}")
        if d >= 4:
            h_int = h_polynomial(PinchConfig(2, d, Multidegree((2, d - 2))))
            for i in range(d + 1):
                want = sign(i - 1) * (
                    (d - 1) * comb0(d - 2, i - 1) - comb0(d, i - 1) - comb0(d - 2, i)
                )
                if h_int[i] != want:
                    failures.append(f"interior numerator at d={d}, i={i}")
    report(3, "Hilbert series against lattice counting and numerators", failures)


# -- criterion 4: series identity ------------------------------------------------


def test_criterion_4_series_identity(n2_tables):
    failures = []
    for d, i in N2_SWEEP:
        table = n2_tables[(d, i)]
        if not k_polynomial_check(table, table.config):
            failures.append(f"d={d} i={i}: alternating sums differ from the numerator")
    report(4, "alternating-sum / Hilbert-numerator identity", failures)


# -- criterion 5: chain-complex and duality properties ---------------------------


def family_complexes():
    for d, i in N2_SWEEP:
        config = n2_config(d, i)
        for s in range(0, d + 3):
            for h in enumerate_degree(config, s):
                yield config, h
    for m in N3_D3_PINCHES:
        config = n3_config(m)
        for s in range(0, N3_D3_SMAX + 1):
            for h in enumerate_degree(config, s):
                yield config, h


def test_criterion_5_property_suite():
    failures = []
    checked = 0
    for config, h in family_complexes():
        c = build_divisor_complex(h, config)
        if c.is_void:
            continue
        checked += 1
        tag = f"n={config.n} d={config.d} m={tuple(config.m)} h={tuple(h)}"
        if not boundary_square_is_zero(c):
            failures.append(f"{tag}: boundary composition nonzero")
            continue
        profile = reduced_homology(c)
        if not euler_characteristic_matches(c, profile):
            failures.append(f"{tag}: euler characteristic mismatch")
        if c.dim < 0:
            continue  # duality over an empty vertex set degenerates
        dual = alexander_dual(c)
        dual_profile = reduced_homology(dual)
        nv = len(c.support())
        for i in range(-1, nv + 2):
            if dual_profile[i - 2] != profile[nv - i - 1]:
                failures.append(f"{tag}: duality mismatch at i={i}")
                break
        if not dual.is_void and alexander_dual(dual, dual.ground).bits != c.bits:
            failures.append(f"{tag}: dual involution broken")
        if len(failures) > 25:
            break
    if checked < 2000:
        failures.append(f"only {checked} complexes generated; expected thousands")
    print(f"  (criterion 5 checked {checked} complexes)")
    report(5, "boundary/euler/duality/involution on every family complex", failures)


# -- criterion 6: cross-field agreement -------------------------------------------


def _locate_disagreement(config, i_max, s_max, field_a, field_b):
    for s in range(s_max + 1):
        for h in enumerate_degree(config, s):
            c = build_divisor_complex(h, config)
            if reduced_homology(c, field_a) != reduced_homology(c, field_b):
                return h
    return None


def test_criterion_6_cross_field(n2_tables, n3_tables):
    failures = []
    jobs = [(n2_tables[(d, i)], None, None) for d, i in N2_SWEEP]
    jobs += [(n3_tables[m], 8, N3_D3_SMAX) for m in N3_D3_PINCHES]
    for base, i_max, s_max in jobs:
        for field in (GF2, RATIONALS):
            other = graded_betti(base.config, field, i_max=i_max, s_max=s_max)
            if base.nonzero_cells() != other.nonzero_cells():
                h = _locate_disagreement(
                    base.config, other.i_max, other.s_max, base.field, field
                )
                failures.append(
                    f"{base.config}: {base.field} vs {field} disagree; offending h = {h}"
                )
    report(6, "field independence of every computed table", failures)


# -- criterion 7: canonical modules ------------------------------------------------


def test_criterion_7_canonical():
    failures = []
    start = time.time()
    for n in (1, 2, 3):
        for d in range(1, 7):
            for k in range(d):
                t = canonical_partner(n, d, k)
                if (t + n + k) % d != 0 or not 0 <= t < d:
                    failures.append(f"partner residue wrong at {(n, d, k)}")
                if canonical_partner(n, d, t) != k:
                    failures.append(f"partner involution broken at {(n, d, k)}")
                holds, _shift = canonical_series_check(n, d, k)
                if not holds:
                    failures.append(f"series duality quotient not monomial at {(n, d, k)}")
    elapsed = time.time() - start
    if elapsed > 1.0:
        failures.append(f"canonical sweep took {elapsed:.2f}s, expected sub-second")
    report(7, "canonical partner and series-level duality", failures)


# -- criterion 8: membership oracle equivalence --------------------------------------


def membership_configs():
    out = []
    for n in (2, 3):
        for d in range(2, 7):
            ms = [(d,) + (0,) * (n - 1), (d - 1, 1) + (0,) * (n - 2)]
            if n == 2 and d >= 4:
                ms.append((2, d - 2))
            if n == 3 and d == 3:
                ms.append((1, 1, 1))
            if n == 3 and d >= 4:
                ms.append((d - 2, 1, 1))
            out.extend(PinchConfig(n, d, Multidegree(m)) for m in ms)
    return out


def all_vectors(total, parts):
    for head in range(total, -1, -1):
        if parts == 1:
            yield (total,)
            return
        for rest in all_vectors(total - head, parts - 1):
            yield (head,) + rest


def test_criterion_8_membership_oracles():
    failures = []
    checked = 0
    for config in membership_configs():
        if len(failures) > 10:
            break
        for total in range(8 * config.d + 1):
            for coords in all_vectors(total, config.n):
                h = Multidegree(coords)
                checked += 1
                if is_member_closed(h, config) != is_member_bruteforce(h, config):
                    failures.append(f"{config}: oracle disagreement at h={tuple(h)}")
    print(f"  (criterion 8 compared {checked} membership queries)")
    report(8, "membership oracle equivalence", failures)
