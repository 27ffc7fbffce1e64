"""Pinched Veronese semigroups.

The semigroup H sits in N^n and is generated by all exponent vectors of
total degree d except one distinguished vector m (the "pinch").  Membership
in H has a closed form that depends only on max(m) (d, d-1, or smaller);
this module provides that closed form, an independent brute-force oracle,
degree-wise enumeration, and the two ring properties decided by the pinch
class alone: normality (proved in `is_normal`) and the paper's
Cohen-Macaulay characterization (`is_cohen_macaulay`).
"""

from __future__ import annotations

import enum
from functools import lru_cache
from math import comb
from operator import sub
from typing import Iterator, NamedTuple, Optional, Sequence


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

    def permuted(self, perm: Sequence[int]) -> "Multidegree":
        """Reindex coordinates: result[j] = self[perm[j]]."""
        return Multidegree(self[p] for p in perm)


def _compositions_desc(
    total: int, parts: int, caps: Optional[Sequence[int]] = None
) -> Iterator[tuple[int, ...]]:
    # descending lexicographic order: (total,0,...,0) first; with caps, only
    # the compositions c with c_j <= caps[j] at every j
    if caps is None:
        caps = (total,) * parts
    if parts == 1:
        if total <= caps[0]:
            yield (total,)
        return
    room = sum(caps[1:])
    for head in range(min(total, caps[0]), max(0, total - room) - 1, -1):
        for rest in _compositions_desc(total - head, parts - 1, caps[1:]):
            yield (head,) + rest


class PinchClass(enum.Enum):
    MAX_D = "max=d"
    MAX_D_MINUS_1 = "max=d-1"
    INTERIOR = "max<d-1"


class _PinchFields(NamedTuple):
    n: int
    d: int
    m: Multidegree


class PinchConfig(_PinchFields):
    """The ring data (n, d, m): n variables, Veronese degree d, pinched vector m."""

    __slots__ = ()

    def __new__(cls, n: int, d: int, m) -> "PinchConfig":
        m = Multidegree(m)
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        if d < 2:
            raise ValueError(f"d must be >= 2, got {d}")
        if len(m) != n:
            raise ValueError(f"pinch vector {m} has length {len(m)}, expected n={n}")
        if m.total != d:
            raise ValueError(f"pinch vector {m} has total degree {m.total}, expected d={d}")
        return super().__new__(cls, n, d, m)

    @classmethod
    def _make(cls, iterable) -> "PinchConfig":
        # the NamedTuple default (and `_replace`, which calls it) skips __new__
        return cls(*iterable)

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

    def normalization(self) -> Multidegree:
        """The pinch vector sorted descending: the canonical representative
        of m under permuting coordinates, which the result cache files by."""
        return Multidegree(sorted(self.m, reverse=True))


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


class _HoleSet(NamedTuple):
    """The vectors of N^n of one total that are missing from H, in three
    parts of O(n) size: `half` = (p, low), those with h_p >= low; `odd` =
    (p, r), those odd at p and at r and zero elsewhere; and `points`."""

    half: Optional[tuple[int, int]] = None
    odd: Optional[tuple[int, int]] = None
    points: tuple[tuple[int, ...], ...] = ()

    def has(self, h: Sequence[int]) -> bool:
        """Whether h, of the holes' total, is one of them, in O(n)."""
        half, odd = self.half, self.odd
        # h_p odd and h_p + h_r = |h| (even) make h_r odd and the rest zero
        return (bool(half) and h[half[0]] >= half[1] or bool(odd) and h[odd[0]] % 2 == 1
                and h[odd[0]] + h[odd[1]] == sum(h) or h in self.points)

    def listed(self, h: Sequence[int], total: int) -> Iterator[tuple[int, ...]]:
        """The holes r <= h of `odd` with this total, in descending lex
        order, then the `points`.  Only the a*e_p + (total-a)*e_r with
        total - h_r <= a <= h_p are looked at, however large the total."""
        if self.odd:
            p, r = self.odd
            top = min(h[p], total - 1)
            for a in range(top - 1 + top % 2, max(1, total - h[r]) - 1, -2):
                yield tuple(a if j == p else total - a if j == r else 0 for j in range(len(h)))
        yield from self.points

    def count(self, n: int, total: int) -> int:
        """How many holes there are, in N^n at this total: the half-space
        has C(total - low + n - 1, n - 1), `odd` has one for each odd
        a < total, and each point is one."""
        half = comb(total - self.half[1] + n - 1, n - 1) if self.half else 0
        return half + (total // 2 if self.odd else 0) + len(self.points)


@lru_cache(maxsize=512)
def _holes(config: PinchConfig, t: int) -> _HoleSet:
    """The vectors of N^n with total t*d missing from H (bounded memo):

      t = 0: none (0 is the empty sum);
      max m = d (d at p): the half-space h_p >= t(d-1) + 1, or |h| - h_p < t;
      max m = d-1 (d-1 at p, 1 at r), d >= 3: the vector (td-1)e_p + e_r;
      d = 2, m = e_p + e_r (p < r): no generator is left pairing p and r,
        so the t vectors a*e_p + (2t-a)*e_r with a odd, the part `odd`;
      max m < d-1: only m itself, at t = 1.
    """
    n, d, m = config
    if t == 0:
        return _HoleSet()
    cls = config.pinch_class
    if cls is PinchClass.MAX_D:
        return _HoleSet(half=(m.index(d), t * (d - 1) + 1))
    if cls is PinchClass.MAX_D_MINUS_1:
        if d == 2:
            return _HoleSet(odd=tuple(j for j in range(n) if m[j]))
        p = m.index(d - 1)
        return _HoleSet(points=(tuple(c + (t - 1) * d * (j == p) for j, c in enumerate(m)),))
    return _HoleSet(points=(tuple(m),) if t == 1 else ())


def is_member_closed(h, config: PinchConfig) -> bool:
    """Closed-form membership test for h in the pinched semigroup, in O(n).

    h = 0 is a member (empty sum).  Otherwise |h| must equal t*d with t >= 1,
    and h must not be one of the holes `_holes(config, t)`.
    """
    h = Multidegree(h)
    if len(h) != config.n:
        raise ValueError(f"dimension mismatch: len(h)={len(h)}, n={config.n}")
    if h.total % config.d != 0:
        return False
    return not _holes(config, h.total // config.d).has(h)


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


def enumerate_degree(
    config: PinchConfig, t: int, below: Optional[Sequence[int]] = None
) -> list[Multidegree]:
    """All semigroup elements of total degree t*d, descending lex; with
    `below`, only those h with h_q < below[q] at every q.

    A half-space of holes h_p >= low caps the compositions at h_p <= low - 1,
    and the other holes are dropped."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    total = t * config.d
    holes = _holes(config, t)
    caps = [total] * config.n if below is None else [b - 1 for b in below]
    if holes.half:
        p, low = holes.half
        caps[p] = min(caps[p], low - 1)
    # compositions are tuples of non-negative ints already: skip re-validation
    return [tuple.__new__(Multidegree, c)
            for c in _compositions_desc(total, config.n, caps) if not holes.has(c)]


def is_normal(config: PinchConfig) -> bool:
    """Whether H = gp(H) ∩ R+H (normality; Bruns-Gubeladze, Polytopes,
    Rings, and K-Theory, 2009), decided by the pinch class.

    H is normal exactly when no hole of `_holes` lies in both the cone
    R+H and the group gp(H).  p is the position of max m.
      max m = d: gp(H) = {x : |x| = 0 mod d}, as e_p - e_q = ((d-1)e_p + e_q)
        - ((d-2)e_p + 2e_q) and d*e_p = ((d-1)e_p + e_q) + (e_p - e_q).  The
        cone is {x >= 0 : |x| - x_p >= |x|/d}; its lattice points of degree
        t*d are exactly H_t = {|x| - x_p >= t}.  Normal.
      max m < d-1: m has a second positive coordinate q, and
        m = 1/2 (m + e_p - e_q) + 1/2 (m - e_p + e_q) is in the cone, and
        m = (m + e_p - e_q) - (d*e_p - ((d-1)e_p + e_q)) in the group.
        Not normal.
      max m = d-1, d >= 3 (m = (d-1)e_p + e_r): m = 1/2 ((d-2)e_p + 2e_r)
        + 1/2 (d*e_p) is in the cone.  It is in the group, as m = d*e_p
        + ((d-2)e_p + e_r + e_s) - ((d-1)e_p + e_s) for n >= 3, and as
        m = d*e_p - ((d-2)e_p + 2e_r) + ((d-3)e_p + 3e_r) for n = 2.
        Not normal.
      d = 2, m = e_p + e_r: H = N(2e_p) + N(2e_r) is free for n = 2, so
        normal.  For n >= 3, m = 1/2 (2e_p + 2e_r) is in the cone and
        m = (e_p + e_s) + (e_r + e_s) - 2e_s in the group.  Not normal.
    """
    cls = config.pinch_class
    return cls is PinchClass.MAX_D or (
        cls is PinchClass.MAX_D_MINUS_1 and config.d == 2 and config.n == 2)


def is_cohen_macaulay(config: PinchConfig) -> bool:
    """The paper's characterization: k[H] is Cohen-Macaulay exactly when
    max m = d, or max m = d-1 with n = 2.  For n >= 3 that is the normal
    class (`is_normal`; normal implies CM by Hochster, Ann. Math. 1972).
    It fails at d = 2, n = 3, max m = 1, which `witness_non_cm` refuses:
    the computed table of m=(1,1,0) reads Cohen-Macaulay.  At n = 4 the
    observed table of m=(1,1,0,0) (s <= 11) agrees with it: pdim 6 > 5."""
    cls = config.pinch_class
    return cls is PinchClass.MAX_D or (cls is PinchClass.MAX_D_MINUS_1 and config.n == 2)
