"""Expected-value catalogs for the two-variable Betti tables, and verification.

Each pinch class has a catalog of closed-form table entries, explicit zero
cells, and (for the interior class) cells that no closed form covers; verify()
computes the actual table, compares every cataloged claim, and reports the
uncovered cells without judging them.

A catalog also carries errata: cells whose stated closed form is shown wrong,
each with the corrected value and its derivation.  The stated forms stay in
`known` and verify() keeps judging them, so it reports them as failing; the
errata say what the cell must hold instead.  Only the interior class has
errata, at its two row-2 tail cells (see expected_interior).
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Optional

from .betti import (
    BettiTable,
    ClassificationReport,
    DEFAULT_COMPLEX_BUDGET,
    classify,
    graded_betti,
    witness_non_cm,
)
from .linalg import DEFAULT_FIELD, FieldSpec
from .semigroup import PinchClass, PinchConfig, is_cohen_macaulay, is_normal
from .series import k_polynomial_check


class _CatalogFields(NamedTuple):
    label: str
    known: dict[tuple[int, int], int]
    known_details: dict[tuple[int, int], str]
    unknown: frozenset[tuple[int, int]]
    named_zeros: dict[str, tuple[int, int]]
    nonzero_cells: dict[str, tuple[int, int]]
    errata: dict[tuple[int, int], int]
    errata_details: dict[tuple[int, int], str]


class ExpectedTable(_CatalogFields):
    """Catalog of claims about one table: exact values, zeros, and open cells.

    errata maps a cell of known whose stated form is shown wrong to the value
    that cell must hold; errata_details gives the derivation of each.  Both
    default to a new empty dict per table.
    """

    __slots__ = ()

    def __new__(cls, label, known, known_details, unknown, named_zeros, nonzero_cells,
                errata=None, errata_details=None) -> "ExpectedTable":
        return super().__new__(cls, label, known, known_details, unknown, named_zeros,
                               nonzero_cells, {} if errata is None else errata,
                               {} if errata_details is None else errata_details)

    def implied_zero_cells(self, i_max: int, s_max: int) -> list[tuple[int, int]]:
        """Every scanned cell not pinned by a known value and not left open."""
        out = []
        for i in range(i_max + 1):
            for s in range(s_max + 1):
                cell = (i, s)
                if cell not in self.known and cell not in self.unknown:
                    out.append(cell)
        return out


def expected_max_d(d: int) -> ExpectedTable:
    """Completely linear table: (i, i+1) holds i*C(d-1, i+1)."""
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    known = {(0, 0): 1}
    details = {(0, 0): "unit"}
    for i in range(1, d - 1):
        known[(i, i + 1)] = i * comb(d - 1, i + 1)
        details[(i, i + 1)] = f"i*C(d-1,i+1) at i={i}"
    return ExpectedTable(
        label="max=d",
        known=known,
        known_details=details,
        unknown=frozenset(),
        named_zeros={},
        nonzero_cells={},
    )


def expected_max_d_minus_1(d: int) -> ExpectedTable:
    """Linear strand of length d-3 plus a lone socle entry at (d-2, d).

    The strand value C(d,i+1)*i*(d-i-2)/(d-1) must divide out exactly; a
    non-integral value signals a transcription bug, not a rounding question.
    """
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    known = {(0, 0): 1}
    details = {(0, 0): "unit"}
    for i in range(1, d - 2):
        num = comb(d, i + 1) * i * (d - i - 2)
        if num % (d - 1) != 0:
            raise ArithmeticError(
                f"strand value C({d},{i + 1})*{i}*{d - i - 2} is not divisible by {d - 1}"
            )
        known[(i, i + 1)] = num // (d - 1)
        details[(i, i + 1)] = f"C(d,i+1)*i*(d-i-2)/(d-1) at i={i}"
    known[(d - 2, d)] = 1
    details[(d - 2, d)] = "socle corner"
    return ExpectedTable(
        label="max=d-1",
        known=known,
        known_details=details,
        unknown=frozenset(),
        named_zeros={},
        nonzero_cells={},
    )


def expected_interior(d: int, i: int) -> ExpectedTable:
    """Interior-pinch catalog: strand up to the linearity break, tail values,
    explicit zero cells, and the open cells in between.

    The pinch index is normalized to min(i, d-i): the ring for (i, d-i) and
    (d-i, i) is the same, and only the normalized index makes the strand and
    break claims consistent under that identification.

    The two row-2 tail forms, as cataloged, are wrong, and errata hold the
    values they must take.  Row 2 holds the cells (c, c+2), so coarse degrees
    d-1 and d each meet row 2 in one tail cell and row 1 in a cataloged zero,
    (d-2, d-1) and (d-1, d); rows 0 and >= 3 are zero there.  The alternating
    Betti sum at coarse degree s is the w^s coefficient h[s] of the interior
    h-polynomial (the series identity), which gives
        beta[d-3, d-1] = (-1)^(d-3) h[d-1] = C(d-1, 2),
        beta[d-2, d]   = (-1)^d h[d]       = d.
    The cataloged C(d,2) - 1 exceeds C(d-1,2) by d-2, so it is wrong for every
    d >= 4; C(d,3) - C(d,2) + 1 - d = (d-6)(d^2-1)/6 vanishes only at d = 6,
    and at d = 4 it is -1, which no Betti number can be.  An erratum is
    recorded only where the stated form differs from the forced value.
    """
    if d < 4:
        raise ValueError(f"d must be >= 4 for an interior pinch, got {d}")
    index, i = i, min(i, d - i)
    if i < 2:
        raise ValueError(f"pinch index {index} is not interior for d={d}")
    known = {(0, 0): 1}
    details = {(0, 0): "unit"}
    for j in range(1, i):
        known[(j, j + 1)] = (d - 1) * comb(d - 2, j) - comb(d, j) - comb(d - 2, j + 1)
        details[(j, j + 1)] = f"(d-1)*C(d-2,j) - C(d,j) - C(d-2,j+1) at j={j}"
    known[(d - 3, d - 1)] = comb(d, 2) - 1
    details[(d - 3, d - 1)] = "C(d,2) - 1"
    known[(d - 2, d)] = comb(d, 3) - comb(d, 2) + 1
    details[(d - 2, d)] = "C(d,3) - C(d,2) + 1"
    known[(d - 1, d + 1)] = 1
    details[(d - 1, d + 1)] = "top corner"
    forced = {
        (d - 3, d - 1): (
            comb(d - 1, 2),
            "C(d-1,2) = (-1)^(d-3) h[d-1]: the interior h-polynomial at w^(d-1), "
            "with the zero at (d-2,d-1) and nothing above row 2; "
            "the cataloged C(d,2) - 1 is off by d-2",
        ),
        (d - 2, d): (
            d,
            "d = (-1)^d h[d]: the interior h-polynomial at w^d, "
            "with the zero at (d-1,d) and nothing above row 2; "
            "the cataloged C(d,3) - C(d,2) + 1 agrees only at d=6",
        ),
    }
    errata = {cell: v for cell, (v, _) in forced.items() if known[cell] != v}
    errata_details = {cell: forced[cell][1] for cell in errata}
    unknown = {(j, j + 1) for j in range(i, d - 2)} | {
        (c, c + 2) for c in range(i - 1, d - 3)
    }
    unknown -= set(known)
    named_zeros = {
        "first-row-tail-zero": (d - 2, d - 1),
        "strand-break-zero": (i - 2, i),
    }
    nonzero = {
        "second-strand-head": (d - 3, d - 2),
        "linearity-break": (i - 1, i + 1),
    }
    return ExpectedTable(
        label="max<d-1",
        known=known,
        known_details=details,
        unknown=frozenset(unknown),
        named_zeros=named_zeros,
        nonzero_cells=nonzero,
        errata=errata,
        errata_details=errata_details,
    )


def has_catalog(config: PinchConfig) -> bool:
    """True when expected_table has a catalog for config: n = 2 and d >= 3."""
    return config.n == 2 and config.d >= 3


def expected_table(config: PinchConfig) -> ExpectedTable:
    if config.n != 2:
        raise ValueError("expected tables are cataloged for n = 2 only")
    cls = config.pinch_class
    if cls is PinchClass.MAX_D:
        return expected_max_d(config.d)
    if cls is PinchClass.MAX_D_MINUS_1:
        return expected_max_d_minus_1(config.d)
    return expected_interior(config.d, min(config.m))


# -- verification ---------------------------------------------------------


class Check(NamedTuple):
    """One verified claim; passed is None for purely informational items."""

    label: str
    detail: str
    passed: Optional[bool]
    expected: object = None
    actual: object = None

    @property
    def judged(self) -> bool:
        return self.passed is not None

    def to_json_obj(self) -> dict:
        return self._asdict()


class VerificationReport:
    def __init__(self, config: PinchConfig, field: FieldSpec, checks: Optional[list[Check]] = None,
                 classification: Optional[ClassificationReport] = None,
                 table: Optional[BettiTable] = None):
        self.config = config
        self.field = field
        self.checks = [] if checks is None else checks
        self.classification = classification
        self.table = table

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks if c.judged)

    def failed_checks(self) -> list[Check]:
        return [c for c in self.checks if c.judged and not c.passed]

    def to_text(self) -> str:
        lines = [f"verification of n={self.config.n} d={self.config.d} m={tuple(self.config.m)} over {self.field}"]
        if self.table is not None:
            lines.append(self.table.to_text())
        for c in self.checks:
            if not c.judged:
                lines.append(f"  [open] {c.label}: {c.detail} (computed {c.actual})")
                continue
            mark = "PASS" if c.passed else "FAIL"
            suffix = "" if c.passed else f" (expected {c.expected}, got {c.actual})"
            lines.append(f"  [{mark}] {c.label}: {c.detail}{suffix}")
        lines.append(f"  => {'all checks pass' if self.all_pass else 'FAILURES PRESENT'}")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "n": self.config.n,
            "d": self.config.d,
            "m": list(self.config.m),
            "field": self.field.label,
            "all_pass": self.all_pass,
            "checks": [c.to_json_obj() for c in self.checks],
            "classification": self.classification.to_json_obj() if self.classification else None,
            "table": self.table.to_json_obj() if self.table is not None else None,
        }


def _verify_two_variables(
    config: PinchConfig,
    field: FieldSpec,
    cache,
    jobs: int,
    budget: int,
) -> VerificationReport:
    table = graded_betti(config, field, cache=cache, jobs=jobs, budget=budget)
    report = VerificationReport(config=config, field=field, table=table)
    checks = report.checks
    # d = 2 rings are polynomial rings; the catalog starts at d = 3
    exp = expected_table(config) if has_catalog(config) else None
    if exp is not None:
        for (i, s), want in sorted(exp.known.items()):
            got = table.entry(i, s)
            checks.append(Check(f"betti[{i},{s}]", exp.known_details[(i, s)], got == want, want, got))
        for name, (i, s) in sorted(exp.named_zeros.items()):
            got = table.entry(i, s)
            checks.append(Check(f"zero[{i},{s}]", name, got == 0, 0, got))
        zero_cells = exp.implied_zero_cells(table.i_max, table.s_max)
        offenders = [(i, s, table.entry(i, s)) for i, s in zero_cells if table.entry(i, s)]
        checks.append(Check("zero-region", f"{len(zero_cells)} cells outside the cataloged support",
                            not offenders, "all zero", offenders or "all zero"))
        for name, (i, s) in sorted(exp.nonzero_cells.items()):
            got = table.entry(i, s)
            checks.append(Check(f"nonzero[{i},{s}]", name, got != 0, "nonzero", got))

    classification = classify(table)
    report.classification = classification
    want_cm = is_cohen_macaulay(config)
    checks.append(
        Check(
            label="cm-classification",
            detail="depth equals Krull dimension exactly on the two CM classes",
            passed=(classification.is_cm == want_cm),
            expected=want_cm,
            actual=classification.is_cm,
        )
    )
    if config.pinch_class is PinchClass.MAX_D_MINUS_1:
        checks.append(
            Check(
                label="gorenstein",
                detail="the max=d-1 class is Gorenstein",
                passed=classification.is_gorenstein,
                expected=True,
                actual=classification.is_gorenstein,
            )
        )
    if classification.is_gorenstein:
        totals = [table.total(i) for i in range(classification.pdim + 1)]
        checks.append(
            Check(
                label="gorenstein-symmetry",
                detail="total Betti numbers read the same in both directions",
                passed=(totals == totals[::-1]),
                expected=totals[::-1],
                actual=totals,
            )
        )

    if exp is not None:  # the catalog's class formulas (d-3 reads -1 at d = 2)
        cls = config.pinch_class
        if cls is PinchClass.MAX_D:
            want_lin = classification.pdim
        elif cls is PinchClass.MAX_D_MINUS_1:
            want_lin = config.d - 3
        else:
            want_lin = min(config.m) - 2
        lin = classification.linearity_index
        checks.append(Check("linearity-index", "length of the purely linear strand",
                            lin == want_lin, want_lin, lin))
        want_reg = 1 if cls is PinchClass.MAX_D else 2
        reg = classification.observed_regularity
        checks.append(Check("regularity", "observed max of s - i over the support",
                            reg == want_reg, want_reg, reg))
    checks.append(
        Check(
            label="series-identity",
            detail="alternating Betti sums equal the cleared Hilbert numerator",
            passed=k_polynomial_check(table, config),
            expected=True,
            actual=None,
        )
    )

    if exp is not None:
        for i, s in sorted(exp.unknown):
            checks.append(Check(f"open[{i},{s}]", f"no closed form cataloged (field {field.label})",
                                None, None, table.entry(i, s)))
    return report


def _verify_general(
    config: PinchConfig, field: FieldSpec, budget: int
) -> VerificationReport:
    """The n >= 3 report: the exact normality decision for the CM class, which
    does no work, or a non-CM witness complex within `budget`."""
    report = VerificationReport(config=config, field=field)
    if is_cohen_macaulay(config):
        normal = is_normal(config)
        report.checks.append(
            Check(
                label="cm-classification",
                detail="H is normal by its pinch class, so Cohen-Macaulay (Hochster)",
                passed=normal,
                expected=True,
                actual=True if normal else "undecided",
            )
        )
    else:
        witness = witness_non_cm(config, field, budget=budget)
        # a nonzero beta at index i forces pdim >= i, and CM means pdim = N-1-n
        non_cm = witness.index > config.N - 1 - config.n
        report.checks.append(
            Check(
                label="noncm-witness",
                detail=f"homology of the witness complex at h={tuple(witness.h)}, i={witness.index}",
                passed=(witness.dimension >= 1),
                expected=">= 1",
                actual=witness.dimension,
            )
        )
        report.checks.append(
            Check(
                label="cm-classification",
                detail="witness forces depth below the Krull dimension",
                passed=non_cm,
                expected=False,
                actual=False if non_cm else "undecided",
            )
        )
    return report


def verify(
    config: PinchConfig,
    field: FieldSpec = DEFAULT_FIELD,
    *,
    cache=None,
    jobs: int = 1,
    budget: int = DEFAULT_COMPLEX_BUDGET,
) -> VerificationReport:
    """Compute, compare against the catalogs, classify, and itemize the outcome.

    For n = 2 this runs the full pipeline (table, catalog comparison,
    classification, series identity).  For n >= 3 there is no catalog; the
    report carries one cm-classification check, from the exact normality
    decision for the Cohen-Macaulay class and from a non-CM witness otherwise.
    """
    if config.n == 2:
        return _verify_two_variables(config, field, cache, jobs, budget)
    return _verify_general(config, field, budget)
