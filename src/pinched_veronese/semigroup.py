"""Pinched Veronese semigroups.

The semigroup H sits in N^n and is generated by all exponent vectors of
total degree d except one distinguished vector m (the "pinch").  Membership
in H has a closed form that depends only on max(m) (d, d-1, or smaller);
this module provides that closed form, an independent brute-force oracle,
degree-wise enumeration, and a bounded normality probe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import sub
from typing import Callable, Iterator, NamedTuple, Optional, Sequence


class Multidegree(tuple):
    """Exponent vector in N^n; a tuple with componentwise arithmetic."""

    __slots__ = ()

    def __new__(cls, coords) -> "Multidegree":
        t = tuple(int(c) for c in coords)
        if any(c < 0 for c in t):
            raise ValueError(f"multidegree has a negative coordinate: {t}")
        return tuple.__new__(cls, t)

    def __getnewargs__(self):
        return (tuple(self),)

    @property
    def total(self) -> int:
        return sum(self)

    def __add__(self, other) -> "Multidegree":
        if len(self) != len(other):
            raise ValueError(f"dimension mismatch: {len(self)} vs {len(other)}")
        return Multidegree(a + b for a, b in zip(self, other))

    __radd__ = __add__

    def minus(self, other) -> Optional["Multidegree"]:
        """Componentwise difference, or None if it leaves N^n."""
        if len(self) != len(other):
            raise ValueError(f"dimension mismatch: {len(self)} vs {len(other)}")
        diff = tuple(a - b for a, b in zip(self, other))
        if any(c < 0 for c in diff):
            return None
        return Multidegree(diff)

    def scaled(self, k: int) -> "Multidegree":
        return Multidegree(k * c for c in self)

    def permuted(self, perm: Sequence[int]) -> "Multidegree":
        """Reindex coordinates: result[j] = self[perm[j]]."""
        return Multidegree(self[p] for p in perm)


def _compositions_desc(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # descending lexicographic order: (total,0,...,0) first
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions_desc(total - head, parts - 1):
            yield (head,) + rest


class PinchClass(enum.Enum):
    MAX_D = "max=d"
    MAX_D_MINUS_1 = "max=d-1"
    INTERIOR = "max<d-1"


@dataclass(frozen=True)
class PinchConfig:
    """The ring data (n, d, m): n variables, Veronese degree d, pinched vector m."""

    n: int
    d: int
    m: Multidegree

    def __post_init__(self):
        object.__setattr__(self, "m", Multidegree(self.m))
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if len(self.m) != self.n:
            raise ValueError(f"pinch vector {self.m} has length {len(self.m)}, expected n={self.n}")
        if self.m.total != self.d:
            raise ValueError(f"pinch vector {self.m} has total degree {self.m.total}, expected d={self.d}")

    @classmethod
    def from_pinch_index(cls, d: int, i: int) -> "PinchConfig":
        """Two-variable configuration pinched at (i, d-i)."""
        if not 0 <= i <= d:
            raise ValueError(f"pinch index {i} out of range 0..{d}")
        return cls(2, d, Multidegree((i, d - i)))

    @property
    def pinch_class(self) -> PinchClass:
        top = max(self.m)
        if top == self.d:
            return PinchClass.MAX_D
        if top == self.d - 1:
            return PinchClass.MAX_D_MINUS_1
        return PinchClass.INTERIOR

    @property
    def N(self) -> int:
        """Number of degree-d exponent vectors, binom(n+d-1, d)."""
        return comb(self.n + self.d - 1, self.d)

    def normalization(self) -> tuple[Multidegree, tuple[int, ...]]:
        """Sorted-descending pinch vector and the permutation realizing it.

        The permutation `perm` satisfies m.permuted(perm) = sorted m; it is the
        stable sort by descending coordinate, recorded so callers (e.g. the
        result cache) can map arbitrary m onto a canonical representative.
        """
        perm = tuple(sorted(range(self.n), key=lambda j: (-self.m[j], j)))
        return self.m.permuted(perm), perm


@lru_cache(maxsize=128)
def generate_generators(config: PinchConfig) -> tuple[Multidegree, ...]:
    """The generating set A_{n,d} minus the pinch, descending lex."""
    gens = tuple(
        Multidegree(c)
        for c in _compositions_desc(config.d, config.n)
        if c != tuple(config.m)
    )
    assert len(gens) == config.N - 1
    return gens


@lru_cache(maxsize=128)
def _hole_test(config: PinchConfig) -> Callable[[tuple[int, ...]], bool]:
    """Predicate for the vectors of N^n with total a positive multiple of d not in H.

    Only meaningful on such vectors (and on 0, which is never a hole):
      max m = d   (d at position p): everything with |h| - h_p < t;
      max m = d-1 (d-1 at p, 1 at r): the single vector (td-1)e_p + e_r;
      max m < d-1: only m itself (degree d).
    """
    d = config.d
    cls = config.pinch_class
    if cls is PinchClass.MAX_D:
        p = config.m.index(d)
        return lambda h: sum(h) - h[p] < sum(h) // d
    if cls is PinchClass.MAX_D_MINUS_1:
        p = config.m.index(d - 1)
        r = next(j for j in range(config.n) if j != p and config.m[j] == 1)
        rest = [j for j in range(config.n) if j not in (p, r)]
        if d == 2:
            # removing (1,1,0,...,0) leaves no generator pairing positions p
            # and r, so everything odd at both and zero elsewhere is missing
            return lambda h: h[p] % 2 == 1 and h[r] % 2 == 1 and not any(h[j] for j in rest)
        return lambda h: h[r] == 1 and not any(h[j] for j in rest)
    m = tuple(config.m)
    return lambda h: h == m


def is_member_closed(h, config: PinchConfig) -> bool:
    """Closed-form membership test for h in the pinched semigroup.

    h = 0 is a member (empty sum).  Otherwise |h| must equal t*d with t >= 1,
    and h must not be one of the missing vectors of `_hole_test`.
    """
    h = Multidegree(h)
    if len(h) != config.n:
        raise ValueError(f"dimension mismatch: len(h)={len(h)}, n={config.n}")
    if h.total % config.d != 0:
        return False
    return not _hole_test(config)(h)


def is_member_bruteforce(h, config: PinchConfig, degree_cap: int | None = None) -> bool:
    """Membership by exhaustive dynamic programming; independent of the closed form.

    Refuses inputs above `degree_cap` (default 8*d) to keep the search bounded.
    """
    h = Multidegree(h)
    if len(h) != config.n:
        raise ValueError(f"dimension mismatch: len(h)={len(h)}, n={config.n}")
    cap = 8 * config.d if degree_cap is None else degree_cap
    if h.total > cap:
        raise ValueError(f"|h| = {h.total} exceeds the configured bound {cap}")
    if h.total % config.d != 0:
        return False
    gens = [tuple(g) for g in generate_generators(config)]

    # DP over representations of h as a sum of exactly |h|/d generators; the
    # recursion depth is bounded by that count, and the memo lives for this call
    @lru_cache(maxsize=None)
    def member(v: tuple[int, ...]) -> bool:
        if not any(v):
            return True
        for g in gens:
            rest = tuple(map(sub, v, g))
            if min(rest) >= 0 and member(rest):
                return True
        return False

    return member(tuple(h))


def enumerate_degree(config: PinchConfig, t: int) -> list[Multidegree]:
    """All semigroup elements of total degree t*d, descending lex."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return [Multidegree((0,) * config.n)]
    hole = _hole_test(config)
    # compositions are tuples of non-negative ints already: skip re-validation
    return [tuple.__new__(Multidegree, c)
            for c in _compositions_desc(t * config.d, config.n) if not hole(c)]


class NormalityCounterexample(NamedTuple):
    z: Multidegree
    multiplier: int


def normality_probe(
    config: PinchConfig, degree_bound: int, multiplier_bound: int
) -> Optional[NormalityCounterexample]:
    """Bounded search for a witness of non-normality.

    Scans z in N^n with |z| = t*d for 1 <= t <= degree_bound and z not in H;
    reports the first (descending lex within each degree) z such that
    mult*z lies in H for some 2 <= mult <= multiplier_bound.  Negative
    coordinates need not be scanned: mult*z must land in N^n.  A None result
    is only a bounded refutation failure, not a proof of normality.
    """
    if degree_bound <= 0 or multiplier_bound <= 0:
        raise ValueError("bounds must be positive")
    # z and its multiples have totals that are positive multiples of d, so
    # each is in H exactly when it is not a hole
    hole = _hole_test(config)
    for t in range(1, degree_bound + 1):
        for z in _compositions_desc(t * config.d, config.n):
            if not hole(z):
                continue
            for mult in range(2, multiplier_bound + 1):
                if not hole(tuple(mult * x for x in z)):
                    return NormalityCounterexample(z=Multidegree(z), multiplier=mult)
    return None
