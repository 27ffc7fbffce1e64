"""Hilbert series and h-vectors on integer coefficient lists.

Every series here has the form z^shift * h(w) / (1 - w)^e with w = z^d and an
integer polynomial h (Brenti-Welker, "The Veronese construction for formal
power series and graded algebras", Adv. Appl. Math. 2009).  It is computed
from its Hilbert function H by convolving H with the coefficients of
(1 - w)^e, so no rational-function arithmetic is needed.  A factor common to
h and (1 - w)^e can only be (1 - w), so lowest terms need only a test h(1) = 0
and a division by (1 - w), which is a running sum.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .errors import UncertifiedTableError
from .semigroup import PinchClass, PinchConfig

if TYPE_CHECKING:  # pragma: no cover
    from .betti import BettiTable


class Polynomial(tuple):
    """Integer coefficients, constant term first, without trailing zeros.

    Reading an index outside 0 .. degree gives 0, so a coefficient formula
    can be compared over any range of degrees.
    """

    def __new__(cls, coeffs: Iterable[int] = ()) -> "Polynomial":
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        return super().__new__(cls, cs)

    def __getitem__(self, k):
        if isinstance(k, int) and not 0 <= k < len(self):
            return 0
        return tuple.__getitem__(self, k)


def one_minus_w(e: int) -> Polynomial:
    """Coefficients of (1 - w)^e."""
    return Polynomial((-1) ** i * comb(e, i) for i in range(e + 1))


def in_z(coeffs: Iterable[int], d: int, shift: int = 0, order: int | None = None) -> list[int]:
    """Coefficients of z^shift * p(z^d) through z^order, from those of p(w).

    The w^j coefficient sits at z^(shift + j*d).  `order` defaults to the
    degree; coefficients past it are dropped and missing ones read 0.
    """
    cs = list(coeffs)
    if order is None:
        order = shift + d * (len(cs) - 1)
    out = [0] * (order + 1)
    width = len(range(shift, order + 1, d))
    out[shift::d] = (cs + [0] * width)[:width]
    return out


class Series(NamedTuple):
    """z^shift * h(w) / (1 - w)^e with w = z^d, in lowest terms: h(1) != 0 or e = 0."""

    h: Polynomial
    e: int
    d: int
    shift: int = 0

    def series(self, order: int) -> list[int]:
        """Power-series coefficients of z^0 .. z^order.

        Dividing by (1 - w) takes running sums, so the w-coefficients are h,
        padded with zeros, summed e times.
        """
        width = len(range(self.shift, order + 1, self.d))
        coeffs = (list(self.h) + [0] * width)[:width]
        for _ in range(self.e):
            coeffs = list(accumulate(coeffs))
        return in_z(coeffs, self.d, self.shift, order)


def _cleared(hilbert: Callable[[int], int], t0: int, e: int) -> Polynomial:
    """The polynomial (1 - w)^e * sum_t hilbert(t) w^t.

    Requires hilbert(t) = P(t) for t >= t0 with P a polynomial of degree
    less than e.  The w^j coefficient is the e-th backward difference
    sum_i (-1)^i C(e, i) hilbert(j - i) (hilbert = 0 below 0).  For
    j >= t0 + e every argument j - i is at least t0, so the coefficient is
    the e-th difference of P, which vanishes since deg P < e.  So the
    product has degree below t0 + e, and only hilbert(0 .. t0+e-1) is read.
    """
    top = t0 + e
    values = [hilbert(t) for t in range(top)]
    signs = one_minus_w(e)
    return Polynomial(
        sum(signs[i] * values[j - i] for i in range(min(j, e) + 1)) for j in range(top)
    )


def _lowest_terms(h: Polynomial, e: int) -> tuple[Polynomial, int]:
    """Divide h / (1 - w)^e by (1 - w) while h(1) = 0."""
    while e and not sum(h):
        # h = (1 - w) * q with q_j = h_0 + ... + h_j; the last sum is h(1) = 0
        h = Polynomial(accumulate(h))
        e -= 1
    return h, e


# -- Hilbert series of the pinched ring ------------------------------------


def _hole_exponent(config: PinchConfig) -> int:
    """q with sum_t holes(t) w^t = w / (1 - w)^q: n, 1 or 0 by class."""
    if config.d == 2 and config.pinch_class is PinchClass.MAX_D_MINUS_1:
        # t vectors (odd, odd, 0, ..., 0) are missing in degree 2t, not one
        return 2
    return {
        PinchClass.MAX_D: config.n,
        PinchClass.MAX_D_MINUS_1: 1,
        PinchClass.INTERIOR: 0,
    }[config.pinch_class]


def hilbert_function(config: PinchConfig, t: int) -> int:
    """Dimension of the coarse degree-t part: C(td+n-1, n-1) minus the holes.

    The holes of degree t number C(t+q-2, q-1) for t >= 1, the w^t
    coefficient of w / (1 - w)^q; for q = 0 that is one hole, at t = 1.
    """
    full = comb(t * config.d + config.n - 1, config.n - 1)
    q = _hole_exponent(config)
    if t == 0 or (q == 0 and t > 1):
        return full
    return full - (1 if q == 0 else comb(t + q - 2, q - 1))


def _cleared_numerator(config: PinchConfig) -> Polynomial:
    """The Hilbert series times (1 - w)^(N-1), in w.

    The hole count is a polynomial in t from t = 2 on for every class (the
    interior one has one hole, at t = 1), and so is H, with degree at most
    n - 1.  For n, d >= 2, N - 1 >= C(n+1, 2) - 1 >= n, so `_cleared`
    applies with t0 = 2 and the numerator has degree below N + 1.  Where
    t0 = 1 would do, the one more value of H read gives a top coefficient
    of 0, which `Polynomial` strips.
    """
    return _cleared(lambda t: hilbert_function(config, t), 2, config.N - 1)


def hilbert_closed(config: PinchConfig) -> Series:
    """Closed Hilbert series of the pinched ring, in lowest terms."""
    return Series(*_lowest_terms(_cleared_numerator(config), config.N - 1), config.d)


def veronese_module_series(n: int, d: int, k: int) -> Series:
    """Hilbert series of the degree-k slice module: sum_t C(td+k+n-1, n-1) z^(td+k).

    The coefficient is a polynomial in t of degree n - 1 from t = 0 on, so
    the h-vector is the cleared numerator over (1 - w)^n.  It is in lowest
    terms: h(1) is (n-1)! times that polynomial's leading coefficient
    d^(n-1)/(n-1)!, so h(1) = d^(n-1) != 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= k < d:
        raise ValueError(f"k must satisfy 0 <= k < d, got k={k}, d={d}")
    h = _cleared(lambda t: comb(t * d + k + n - 1, n - 1), 0, n)
    return Series(h, n, d, k)


def h_polynomial(config: PinchConfig) -> Polynomial:
    """Numerator of the series over (1-z^d)^(N-1), in the coarse variable w = z^d.

    Its w^s coefficient is the alternating Betti sum over homological degrees
    at coarse degree s; the constant term is 1.
    """
    if config.n != 2:
        raise ValueError("the h-polynomial shortcut is defined for n = 2 only")
    return _cleared_numerator(config)


def betti_alternating_polynomial(table: "BettiTable") -> Polynomial:
    """Sum of (-1)^i * beta_{i,s} * w^s over the scanned table."""
    by_s: dict[int, int] = {}
    for (i, s), v in table.entries.items():
        if v:
            by_s[s] = by_s.get(s, 0) + (v if i % 2 == 0 else -v)
    return Polynomial(by_s.get(s, 0) for s in range(max(by_s, default=-1) + 1))


def k_polynomial_check(table: "BettiTable", config: PinchConfig) -> bool:
    """Exact identity: alternating Betti sums equal the cleared Hilbert numerator.

    Requires a certified table (all-zero guard column); comparing anything
    less would silently truncate the left-hand side.
    """
    if not table.is_guard_clean():
        raise UncertifiedTableError(
            f"guard column s = {table.s_max} contains a nonzero entry"
        )
    return betti_alternating_polynomial(table) == _cleared_numerator(config)


# -- canonical modules ----------------------------------------------------


def canonical_partner(n: int, d: int, k: int) -> int:
    """The residue t in [0, d) with t = -n-k (mod d)."""
    if not 0 <= k < d:
        raise ValueError(f"k must satisfy 0 <= k < d, got k={k}, d={d}")
    return (-n - k) % d


def canonical_series_check(n: int, d: int, k: int) -> tuple[bool, int]:
    """Hilbert-level duality: (-1)^n * S_k(1/z) = z^shift * S_t(z), t the partner.

    With S_k = z^k h_k(w) / (1 - w)^n and a = deg h_k,
    (-1)^n S_k(1/z) = z^(-k) w^(n-a) rev(h_k)(w) / (1 - w)^n, where rev
    reverses the coefficients.  Both rev(h_k) and h_t have nonzero constant
    terms, so the quotient by S_t is a monomial c*z^shift exactly when
    rev(h_k) = c*h_t, and then shift = d(n - a) - k - t (Stanley, "Hilbert
    functions of graded algebras", Adv. Math. 1978).  The slices are
    Cohen-Macaulay, so their h-vectors are nonnegative and c = -1 cannot
    occur: the duality holds when rev(h_k) = h_t.  Returns (holds, shift),
    with shift 0 when it fails.
    """
    t = canonical_partner(n, d, k)
    hk = veronese_module_series(n, d, k).h
    holds = hk[::-1] == veronese_module_series(n, d, t).h
    a = len(hk) - 1
    return holds, (d * (n - a) - k - t if holds else 0)
