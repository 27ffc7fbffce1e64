from math import comb

import pytest

from pinched_veronese import (
    Multidegree,
    NonCmWitness,
    PinchConfig,
    expected_interior,
    expected_max_d,
    expected_max_d_minus_1,
    expected_table,
    h_polynomial,
    verify,
)


def cfg(n, d, m):
    return PinchConfig(n, d, Multidegree(m))


# -- expected-value catalogs --------------------------------------------------


def test_expected_max_d_values():
    exp = expected_max_d(4)
    assert exp.known == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert not exp.unknown
    exp3 = expected_max_d(3)
    assert exp3.known == {(0, 0): 1, (1, 2): 1}
    assert expected_max_d(6).known[(2, 3)] == 2 * comb(5, 3) == 20
    with pytest.raises(ValueError):
        expected_max_d(2)


def test_expected_max_d_minus_1_values():
    exp = expected_max_d_minus_1(5)
    assert exp.known == {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}
    exp4 = expected_max_d_minus_1(4)
    assert exp4.known == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    # degenerate range: no strand at all, just the socle corner
    exp3 = expected_max_d_minus_1(3)
    assert exp3.known == {(0, 0): 1, (1, 3): 1}


def test_strand_formula_integrality_up_to_64():
    # the division by d-1 must be exact for every strand entry
    for d in range(3, 65):
        exp = expected_max_d_minus_1(d)
        for v in exp.known.values():
            assert isinstance(v, int) and v >= 0


def test_expected_interior_catalog_d5():
    exp = expected_interior(5, 2)
    assert exp.known == {
        (0, 0): 1,
        (1, 2): 4,
        (2, 4): comb(5, 2) - 1,   # stated forms stay; verify still judges them
        (3, 5): comb(5, 3) - comb(5, 2) + 1,
        (4, 6): 1,
    }
    assert exp.errata == {(2, 4): 6, (3, 5): 5}
    assert exp.unknown == {(2, 3), (1, 3)}
    assert exp.named_zeros == {
        "first-row-tail-zero": (3, 4),
        "strand-break-zero": (0, 2),
    }
    assert exp.nonzero_cells == {
        "second-strand-head": (2, 3),
        "linearity-break": (1, 3),
    }


def test_expected_interior_strand_d6():
    exp = expected_interior(6, 3)
    assert exp.known[(1, 2)] == 5 * 4 - 6 - 6 == 8
    assert exp.known[(2, 3)] == 5 * 6 - 15 - 4 == 11
    exp2 = expected_interior(6, 2)
    assert exp2.known[(3, 5)] == comb(6, 2) - 1 == 14


def test_interior_errata_forced_by_h_polynomial():
    # each erratum is the alternating Betti sum that the h-polynomial forces at
    # coarse degrees d-1 and d, given the cataloged zeros and regularity 2
    for d in range(4, 17):
        for i in range(2, d - 1):
            config = PinchConfig.from_pinch_index(d, i)
            exp = expected_table(config)
            h = h_polynomial(config)
            forced = {(d - 3, d - 1): (-1) ** (d - 3) * h[d - 1],
                      (d - 2, d): (-1) ** d * h[d]}
            stated = {(d - 3, d - 1): comb(d, 2) - 1,
                      (d - 2, d): comb(d, 3) - comb(d, 2) + 1}
            assert {cell: exp.known[cell] for cell in stated} == stated
            differing = {cell for cell in stated if stated[cell] != forced[cell]}
            assert differing == (set(stated) if d != 6 else {(3, 5)})
            assert exp.errata == {cell: forced[cell] for cell in differing}
            assert set(exp.errata_details) == differing
            assert all(v >= 0 for v in exp.errata.values())
        assert not expected_max_d(d).errata
        assert not expected_max_d_minus_1(d).errata


def test_expected_interior_normalizes_pinch_index():
    assert expected_interior(5, 3).known == expected_interior(5, 2).known
    assert expected_interior(5, 3).unknown == expected_interior(5, 2).unknown


def test_expected_interior_symmetric_in_the_pinch_index():
    # the index is normalized to min(i, d-i) before it is validated
    for d in range(4, 13):
        for i in range(2, d - 1):
            assert expected_interior(d, i) == expected_interior(d, d - i), (d, i)


def test_expected_interior_refuses_non_interior_indices():
    for d in range(4, 13):
        for i in (-1, 0, 1, d - 1, d, d + 1):
            with pytest.raises(ValueError):
                expected_interior(d, i)


def test_expected_interior_preconditions():
    with pytest.raises(ValueError):
        expected_interior(3, 1)
    with pytest.raises(ValueError):
        expected_interior(5, 1)  # max(1,4) = 4 = d-1: not interior
    with pytest.raises(ValueError):
        expected_interior(6, 5)


def test_expected_table_dispatch():
    assert expected_table(cfg(2, 4, (4, 0))).label == "max=d"
    assert expected_table(cfg(2, 4, (1, 3))).label == "max=d-1"
    assert expected_table(cfg(2, 5, (3, 2))).label == "max<d-1"
    with pytest.raises(ValueError):
        expected_table(cfg(3, 3, (1, 1, 1)))


def test_implied_zero_cells_disjoint_from_catalog():
    exp = expected_interior(6, 2)
    zeros = set(exp.implied_zero_cells(5, 8))
    assert not zeros & set(exp.known)
    assert not zeros & exp.unknown


# -- verification -------------------------------------------------------------


def test_verify_gorenstein_config_all_pass():
    report = verify(cfg(2, 5, (4, 1)))
    assert report.all_pass
    labels = {c.label for c in report.checks}
    assert "gorenstein" in labels and "gorenstein-symmetry" in labels
    assert "series-identity" in labels
    assert report.classification.is_gorenstein


def test_verify_max_d_all_pass():
    report = verify(cfg(2, 6, (6, 0)))
    assert report.all_pass
    assert report.classification.linearity_index == report.classification.pdim


def test_verify_interior_detects_catalog_defects():
    # verify judges the stated tail forms, which disagree with the exact
    # computation; the mismatch set is exactly the catalog's errata cells and
    # everything else passes
    report = verify(cfg(2, 5, (2, 3)))
    assert not report.all_pass
    failed = {c.label for c in report.failed_checks()}
    assert failed == {"betti[2,4]", "betti[3,5]"}
    # computed values satisfy the series identity even though the catalog does not
    passed = {c.label for c in report.checks if c.judged and c.passed}
    for label in ("betti[1,2]", "zero[3,4]", "zero[0,2]", "nonzero[2,3]",
                  "nonzero[1,3]", "zero-region", "cm-classification",
                  "linearity-index", "regularity", "series-identity"):
        assert label in passed, label


def test_verify_interior_d6_single_coincidence():
    # at d=6 the cataloged (d-2, d) value happens to equal the computed one
    report = verify(cfg(2, 6, (2, 4)))
    failed = {c.label for c in report.failed_checks()}
    assert failed == {"betti[3,5]"}


def test_verify_interior_d4():
    report = verify(cfg(2, 4, (2, 2)))
    failed = {c.label for c in report.failed_checks()}
    assert failed == {"betti[1,3]", "betti[2,4]"}


def test_verify_reports_open_cells():
    report = verify(cfg(2, 6, (2, 4)))
    open_checks = {c.label: c.actual for c in report.checks if not c.judged}
    assert open_checks["open[2,3]"] == 12
    assert open_checks["open[3,4]"] == 3
    assert open_checks["open[1,3]"] == 1


def test_verify_three_vars_witness():
    report = verify(cfg(3, 3, (2, 1, 0)))
    assert report.all_pass
    labels = {c.label for c in report.checks}
    assert "noncm-witness" in labels


def test_verify_three_vars_cm_classification_from_the_witness():
    for m in ((1, 1, 1), (2, 1, 0)):
        report = verify(cfg(3, 3, m))
        check = next(c for c in report.checks if c.label == "cm-classification")
        assert check.passed is True and check.actual is False, m


def test_verify_three_vars_cm_classification_can_fail(monkeypatch):
    import pinched_veronese.theorems as theorems

    config = cfg(3, 3, (1, 1, 1))
    real = theorems.witness_non_cm(config)
    # homology at index N-1-n is consistent with pdim = N-1-n, i.e. with CM
    weak = NonCmWitness(real.h, config.N - 1 - config.n, real.dimension)
    monkeypatch.setattr(theorems, "witness_non_cm", lambda *args, **kwargs: weak)
    report = verify(config)
    check = next(c for c in report.checks if c.label == "cm-classification")
    assert check.passed is False
    assert not report.all_pass


def test_verify_three_vars_normality():
    report = verify(cfg(3, 3, (3, 0, 0)))
    assert report.all_pass
    assert {c.label for c in report.checks} == {"cm-classification"}


def test_verify_three_vars_normality_check_can_fail(monkeypatch):
    import pinched_veronese.theorems as theorems

    monkeypatch.setattr(theorems, "is_normal", lambda config: False)
    report = verify(cfg(3, 3, (3, 0, 0)))
    check = next(c for c in report.checks if c.label == "cm-classification")
    assert check.passed is False
    assert not report.all_pass


def test_verify_d2_without_a_catalog_still_classifies():
    # d = 2 leaves two algebraically independent generators: a polynomial ring
    for m in ((2, 0), (1, 1), (0, 2)):
        report = verify(cfg(2, 2, m))
        labels = [c.label for c in report.checks]
        assert "cm-classification" in labels and "series-identity" in labels, m
        assert not [label for label in labels
                    if label.startswith(("betti[", "zero", "nonzero[", "open[",
                                         "linearity", "regularity"))], m
        assert report.all_pass, m
        assert report.table.totals() == [1]
        assert report.classification.is_cm and report.classification.pdim == 0


def test_verify_d2_cm_classification_can_fail(monkeypatch):
    import pinched_veronese.theorems as theorems

    monkeypatch.setattr(theorems, "is_cohen_macaulay", lambda config: False)
    report = verify(cfg(2, 2, (1, 1)))
    check = next(c for c in report.checks if c.label == "cm-classification")
    assert check.passed is False
    assert not report.all_pass


def test_report_serialization():
    report = verify(cfg(2, 4, (4, 0)))
    obj = report.to_json_obj()
    assert obj["all_pass"] is True
    assert obj["table"]["entries"]
    assert all({"label", "detail", "passed"} <= set(c) for c in obj["checks"])
    text = report.to_text()
    assert "[PASS]" in text and "total:" in text
