"""Graded Betti tables of pinched Veronese rings, and ring classifications.

The table entry at (i, s) is the sum over all semigroup elements h of total
degree s*d of dim H~_{i-1} of the divisor complex of h.  Projective dimension,
depth, Cohen-Macaulayness, Gorensteinness and linearity are read off the
certified table.
"""

from __future__ import annotations

import atexit
import os
from itertools import accumulate, repeat
from math import comb
from typing import Callable, NamedTuple, Optional

from .complexes import build_divisor_complex, divisor_bits, table_bytes, veronese_generators
from .errors import DEFAULT_COMPLEX_BUDGET, ResourceLimitExceeded, UncertifiedTableError
from .homology import HomologyProfile, reduced_homology, settled_profile
from .linalg import DEFAULT_FIELD, FieldSpec
from .semigroup import (
    Multidegree,
    PinchClass,
    PinchConfig,
    enumerate_degree,
    generate_generators,
    is_cohen_macaulay,
)
from .series import hilbert_function


class BettiTable:
    """Rectangle of graded Betti numbers with explicit zeros.

    `entries` holds every cell (i, s) with 0 <= i <= i_max, 0 <= s <= s_max,
    so shape claims (zero regions) are decidable from the table alone.
    `certified_cones` counts the elements h whose divisor complex the cone
    certificate settled without building it: the Hilbert function summed over
    the scanned degrees, less the `scanned` count of each degree's column
    (computed, or read from the column cache).  It is not part of the JSON
    form.
    """

    def __init__(self, config: PinchConfig, field: FieldSpec, i_max: int, s_max: int,
                 entries: dict[tuple[int, int], int], certified_cones: int = 0):
        self.config = config
        self.field = field
        self.i_max = i_max
        self.s_max = s_max
        self.entries = entries
        self.certified_cones = certified_cones

    def entry(self, i: int, s: int) -> int:
        return self.entries.get((i, s), 0)

    def total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def totals(self) -> list[int]:
        """Total Betti numbers beta_0 .. beta_pdim (trailing zeros dropped)."""
        out = [self.total(i) for i in range(self.i_max + 1)]
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def nonzero_cells(self) -> list[tuple[int, int, int]]:
        return sorted((i, s, v) for (i, s), v in self.entries.items() if v)

    def is_guard_clean(self) -> bool:
        """True when the last scanned coarse degree is identically zero."""
        return all(self.entry(i, self.s_max) == 0 for i in range(self.i_max + 1))

    def to_text(self) -> str:
        """Macaulay-style rendering: row r collects the entries with s - i = r."""
        max_row = max((s - i for (i, s), v in self.entries.items() if v), default=0)
        cols = range(self.i_max + 1)
        grid = [["total:"] + [str(t) if (t := self.total(i)) else "." for i in cols]]
        for r in range(max_row + 1):
            row = [f"{r}:"]
            for i in cols:
                v = self.entry(i, i + r)
                row.append(str(v) if v else ".")
            grid.append(row)
        header = [""] + [str(i) for i in cols]
        widths = [
            max(len(grid[r][c]) for r in range(len(grid))) for c in range(len(header))
        ]
        widths = [max(w, len(h)) for w, h in zip(widths, header)]
        lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
        for row in grid:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "n": self.config.n,
            "d": self.config.d,
            "m": list(self.config.m),
            "field": self.field.label,
            "i_max": self.i_max,
            "s_max": self.s_max,
            "entries": [[i, s, self.entry(i, s)]
                        for i in range(self.i_max + 1)
                        for s in range(self.s_max + 1)],
        }


def _count_lattice_points(n: int, degree: int) -> int:
    return comb(degree + n - 1, n - 1)


def estimate_cost(config: PinchConfig, s_max: int) -> int:
    """Pessimistic cost proxy: candidate complexes times subset count."""
    return sum(degree_cost(config, s) for s in range(s_max + 1))


def degree_cost(config: PinchConfig, t: Optional[int] = None) -> int:
    """Cost proxy of the complexes at coarse degree t (lattice points times
    the 2^(N-1) generator subsets), or of one complex when t is None."""
    complexes = 1 if t is None else _count_lattice_points(config.n, t * config.d)
    return complexes * (1 << (config.N - 1))


def _element_profile(h, config: PinchConfig, field: FieldSpec, cap: int) -> HomologyProfile:
    """The profile of h in H, settled on the bitset of its divisor complex
    (a `divisor_bits` table with cap >= |h|) when the matching can; else
    that bitset is built as a complex, whose pair's cells are reduced.
    h = 0 has {empty face} and needs no table."""
    if not any(h):
        return HomologyProfile({-1: 1})
    faces, bits = divisor_bits(h, config, cap)
    profile = settled_profile(faces, bits.vertices, bits.sizes)
    if profile is None:
        profile = reduced_homology(build_divisor_complex(h, config, cap), field)
    return profile


# one coordinate demand of a cone apex g: (q, T_q, need_q), see `_cone_apexes`
_Condition = tuple[int, list[int], Callable[[int], int]]


def _cone_apexes(config: PinchConfig) -> list[list[_Condition]]:
    """The generators g that the cone certificate tries, each as the list of
    its coordinate conditions (q, T_q, need_q); `_apex_bounds` has the proofs.

    Tried are every pure power d*e_q that is a generator (m_q <= d-1) and,
    for max m = d at p, every (d-1)*e_p + e_q with q != p.  T_q[k] is the sum
    of the k largest q-coordinates among the generators other than g (g is
    left out by index), so it bounds the q-coordinate of sum(F) for every set
    F of k generators avoiding g.  need_q(t), for t >= 1, is the q-coordinate
    that a remainder of total t*d must reach for g to come off it inside H.
    """
    d, m, n, cls = config.d, config.m, config.n, config.pinch_class
    gens = generate_generators(config)

    def condition(g: tuple[int, ...], q: int, need: Callable[[int], int]) -> _Condition:
        skip = gens.index(g)
        coords = sorted((x[q] for j, x in enumerate(gens) if j != skip), reverse=True)
        return q, [0, *accumulate(coords)], need

    def power_need(q: int) -> Callable[[int], int]:
        if m[q] == d - 1:
            return lambda t: d
        if cls is PinchClass.INTERIOR:
            return lambda t: d + m[q] + 1 if t == 2 else d
        if cls is PinchClass.MAX_D:
            return lambda t: d + t - 1
        return lambda t: d if t == 1 else (d + 2 if m[q] == 1 else d + 1)

    def vector(coords: dict[int, int]) -> tuple[int, ...]:
        return tuple(coords.get(j, 0) for j in range(n))

    apexes = [[condition(vector({q: d}), q, power_need(q))] for q in range(n) if m[q] < d]
    if cls is PinchClass.MAX_D:
        p = m.index(d)
        for q in range(n):
            if q != p:
                g = vector({p: d - 1, q: 1})
                apexes.append([condition(g, p, lambda t: d - 1)]
                              + ([condition(g, q, lambda t: 1)] if n >= 3 else []))
    return apexes


def _apex_bounds(apexes: list[list[_Condition]], s: int) -> list[list[tuple[int, int]]]:
    """Per apex g, the pairs (q, b): g is an apex of the divisor complex of
    every h of coarse degree s with h_q >= b at each of its pairs, so that
    complex is a cone.

    Let F be a face avoiding g, with f = |F| vertices (so f <= min(s, N-2)).
    Its remainder r = h - sum(F) lies in H, has total t*d with t = s - f, and
    r_q >= h_q - T_q[f] at every q.  F + g is a face when r - g is in H, and
    that holds once r_q >= need_q(t) at each condition of g.  At t = 0 the
    need is 1, which r = 0 cannot meet, so no such F exists.  For t >= 1:
      pure power e = d*e_q:
        t = 1: d, so r - e = 0;
        t >= 2: d makes r - e non-negative, and r - e must miss the holes:
          max m < d-1: the one hole m has total d, so d + m_q + 1 at t = 2;
          max m = d (at p): r - e needs mass t-1 off p and has at least
            r_q - d there, so d + t - 1;
          max m = d-1 (d-1 at p, 1 at p'), m_q < d-1: a hole is 1 at p' and
            0 off p and p', so d + 2 for q = p' and d + 1 for the other q;
          max m = d-1, m_q = d-1 (q = p, or either pinch position when
            d = 2): d.  A hole plus e is again a hole: for d >= 3,
            (td-1)e_p + e_p' goes to ((t+1)d-1)e_p + e_p', and for d = 2 the
            parities at p and p' and the zeros elsewhere are unchanged.  So
            r - e, once non-negative, is no hole because r is none.
      max m = d (d at p), g = (d-1)e_p + e_q with q != p: the degree-t part
        of H is H_t = {r : |r| - r_p >= t}.  So r in H_t with r_p >= d-1 and
        r_q >= 1 gives r - g >= 0 with |r - g| - (r - g)_p >= t - 1, that is
        r - g in H_(t-1): need_p = d-1 and need_q = 1.  For n = 2,
        r_q = |r| - r_p >= t >= 1 holds anyway, so only the condition at p
        is kept.
    Every face avoiding g then extends by g, so b = max over f of
    T_q[f] + need_q(s - f).  A cone has zero reduced homology, so h adds
    nothing to the Betti numbers (Bruns-Herzog, JPAA 1997, express them
    through these divisor complexes).
    """
    return [[(q, max(T[f] + (need(s - f) if f < s else 1)
                     for f in range(min(s, len(T) - 1) + 1)))
             for q, T, need in conditions]
            for conditions in apexes]


def _certified(bounds: list[list[tuple[int, int]]], h: Multidegree) -> bool:
    """True when some apex of `_apex_bounds` meets all of its bounds at h."""
    return any(all(h[q] >= b for q, b in pairs) for pairs in bounds)


_pool = None  # (jobs, executor): this process's one worker pool, once started


def _worker_pool(jobs: int):
    """The pool of `jobs` workers that later scans reuse, so a sweep starts
    its workers once; one of another size is shut down first, the last at exit."""
    global _pool
    if _pool is None or _pool[0] != jobs:
        from concurrent.futures import ProcessPoolExecutor

        if _pool is not None:
            _pool[1].shutdown()
        _pool = (jobs, ProcessPoolExecutor(max_workers=jobs))
        atexit.register(_pool[1].shutdown)
    return _pool[1]


def _profiles_for_degrees(config: PinchConfig, field: FieldSpec, degrees: list[int],
                          jobs: int = 1):
    """Yield (s, h, profile) for the h that the cone certificate of
    `_apex_bounds` leaves, deterministically (s ascending, h descending lex).

    A certified h has a cone for its divisor complex, so zero reduced
    homology; it is never built or sent to the worker pool.  An apex with
    one condition h_q >= b certifies every h outside the box h_q < b, so
    only the box is enumerated, and what the two-condition apexes certify
    in it is dropped.  The rest are computed by `_element_profile`, with
    jobs capped at the CPU count; more than one job runs on `_worker_pool`.
    It first settles h on the bitset of its divisor complex
    (`complexes.divisor_bits`, read on a table of rows up to
    max(degrees)*d that the first such h builds), by an element matching
    (`homology.settled_profile`); an h it leaves is built as the same
    bitset on the same table, and only its pair's cells are reduced.
    """
    apexes = _cone_apexes(config)
    work: list[tuple[int, Multidegree]] = []
    for s in degrees:
        bounds = _apex_bounds(apexes, s)
        below = [s * config.d + 1] * config.n
        for (q, b), *more in bounds:
            if not more:
                below[q] = min(below[q], b)
        pairs = [p for p in bounds if len(p) > 1]
        work.extend((s, h) for h in enumerate_degree(config, s, below)
                    if not _certified(pairs, h))
    hs = [h for _, h in work]
    jobs = min(jobs, os.cpu_count() or 1)
    # map stops at `hs`, the one finite iterable
    fixed = repeat(config), repeat(field), repeat(max(degrees) * config.d)
    if jobs > 1 and len(hs) > 1:
        results = _worker_pool(jobs).map(
            _element_profile, hs, *fixed, chunksize=max(1, len(hs) // (4 * jobs)))
    else:
        results = map(_element_profile, hs, *fixed)
    for (s, h), profile in zip(work, results):
        yield s, h, profile


def graded_betti(
    config: PinchConfig,
    field: FieldSpec = DEFAULT_FIELD,
    i_max: Optional[int] = None,
    s_max: Optional[int] = None,
    *,
    cache=None,
    jobs: int = 1,
    budget: int = DEFAULT_COMPLEX_BUDGET,
) -> BettiTable:
    """Scan the (i, s) rectangle and aggregate homology into a Betti table.

    Defaults: i_max = N-2 (the a-priori bound on projective dimension) and,
    for n = 2, s_max = i_max + 3 so the regularity-2 support fits with an
    all-zero guard column.  For n >= 3 no regularity bound is cited, so s_max
    must be supplied; the scanned range is recorded on the table either way.
    The table is read off one column per degree s (`cache.Column`): a
    `cache` serves those it holds, and only the other degrees are scanned.
    """
    if i_max is None:
        i_max = config.N - 2
    if s_max is None:
        if config.n != 2:
            raise ValueError("s_max must be supplied for n >= 3 (no scan bound is known)")
        s_max = i_max + 3
    if not 0 <= i_max <= config.N - 2:
        raise ValueError(f"i_max must lie in 0..{config.N - 2}, got {i_max}")
    if s_max < i_max + 1:
        raise ValueError(f"s_max must be at least i_max + 1 = {i_max + 1}, got {s_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cost = estimate_cost(config, s_max)
    if cost > budget:
        raise ResourceLimitExceeded(cost, budget)
    degrees = range(s_max + 1)
    columns = {s: cache.get(s) for s in degrees} if cache is not None else {}
    if missing := [s for s in degrees if columns.get(s) is None]:
        columns.update((s, (0, {})) for s in missing)
        for s, _h, profile in _profiles_for_degrees(config, field, missing, jobs=jobs):
            scanned, sums = columns[s]
            for k, v in profile.items():
                sums[k + 1] = sums.get(k + 1, 0) + v
            columns[s] = scanned + 1, sums
        if cache is not None:
            for s in missing:
                cache.put(s, columns[s])
            cache.save()
    entries = {(i, s): columns[s][1].get(i, 0) for i in range(i_max + 1) for s in degrees}
    certified = sum(hilbert_function(config, s) - columns[s][0] for s in degrees)
    return BettiTable(config=config, field=field, i_max=i_max, s_max=s_max, entries=entries,
                      certified_cones=certified)


def multigraded_betti(
    config: PinchConfig,
    field: FieldSpec = DEFAULT_FIELD,
    i: int = 0,
    t: int = 0,
    *,
    budget: int = DEFAULT_COMPLEX_BUDGET,
) -> dict[Multidegree, int]:
    """Per-h contributions to the (i, t) table entry (only nonzero values kept)."""
    if i < 0 or t < 0:
        raise ValueError("homological and coarse degrees must be non-negative")
    cost = degree_cost(config, t)
    if cost > budget:
        raise ResourceLimitExceeded(cost, budget)
    out: dict[Multidegree, int] = {}
    for _s, h, profile in _profiles_for_degrees(config, field, [t]):
        v = profile[i - 1]
        if v:
            out[h] = v
    return out


class ClassificationReport(NamedTuple):
    """Derived ring invariants; depth comes from the projective dimension."""

    pdim: int
    depth: int
    krull_dim: int
    is_cm: bool
    is_gorenstein: bool
    linearity_index: int
    observed_regularity: int

    def to_json_obj(self) -> dict:
        return self._asdict()


def classify(table: BettiTable) -> ClassificationReport:
    """Read pdim, depth, CM/Gorenstein and linearity off a certified table.

    Certification demands the scan to reach i = N-2 and an all-zero final
    coarse degree; otherwise the reported pdim could be an artifact of the
    window, and the error says so.
    """
    config = table.config
    if table.i_max < config.N - 2:
        raise UncertifiedTableError(
            f"scan reaches i = {table.i_max} < N-2 = {config.N - 2}; pdim not certifiable"
        )
    if not table.is_guard_clean():
        raise UncertifiedTableError(
            f"guard column s = {table.s_max} is nonzero; extend s_max to certify"
        )
    nonzero = table.nonzero_cells()
    pdim = max((i for i, _s, _v in nonzero), default=0)
    if not config.N - config.n - 1 <= pdim <= config.N - 2:
        # depth must land in 1..n for these rings; anything else is a rank bug
        raise ArithmeticError(
            f"computed pdim {pdim} violates the bounds "
            f"[{config.N - config.n - 1}, {config.N - 2}] for {config}"
        )
    depth = (config.N - 1) - pdim
    is_cm = depth == config.n
    is_gorenstein = is_cm and table.total(pdim) == 1
    linearity_index = 0
    for i in range(1, pdim + 1):
        if all(v == 0 for (ii, s), v in table.entries.items() if ii == i and s != i + 1):
            linearity_index = i
        else:
            break
    observed_regularity = max((s - i for i, s, _v in nonzero), default=0)
    return ClassificationReport(pdim, depth, config.n, is_cm, is_gorenstein,
                                linearity_index, observed_regularity)


class NonCmWitness(NamedTuple):
    h: Multidegree
    index: int
    dimension: int


def witness_non_cm(
    config: PinchConfig,
    field: FieldSpec = DEFAULT_FIELD,
    *,
    budget: int = DEFAULT_COMPLEX_BUDGET,
) -> NonCmWitness:
    """Single-complex witness that the ring is not Cohen-Macaulay.

    Interior pinch: h = sum of every degree-d vector; its divisor complex is
    the boundary of a simplex on all generators, giving top homology at
    i = N-2.  max(m) = d-1 with n > 2: h = m plus N-n+1 generators avoiding m
    and the pure power at m's top position, giving homology at i = N-n.
    Much cheaper than a table scan: one complex, settled on its bitset as
    the scan settles h, whose cost proxy is `degree_cost(config)` plus the
    bytes of that table at cap = |h| (`complexes.table_bytes`), charged
    before the table is built.
    """
    if is_cohen_macaulay(config):
        raise ValueError(
            f"{config} lies in a Cohen-Macaulay class; there is no witness"
        )
    cls = config.pinch_class
    if cls is PinchClass.MAX_D_MINUS_1 and config.d == 2:
        # the degree-2 semigroup misses more than (td-1, 1, 0, ...); the
        # witness construction (and the classification it supports) needs d >= 3
        raise ValueError("the non-CM witness construction requires d >= 3")
    if cls is PinchClass.INTERIOR:
        h = sum(veronese_generators(config.n, config.d), Multidegree((0,) * config.n))
        k = config.N - 3
        index = config.N - 2
    else:
        p = config.m.index(config.d - 1)
        top = Multidegree(config.d if j == p else 0 for j in range(config.n))
        avoid = {config.m, top}
        gens = generate_generators(config)
        chosen = [g for g in gens if g not in avoid][: config.N - config.n + 1]
        h = sum(chosen, config.m)
        k = config.N - config.n - 1
        index = config.N - config.n
    cost = degree_cost(config) + table_bytes(config, h.total)
    if cost > budget:
        raise ResourceLimitExceeded(cost, budget)
    dim = _element_profile(h, config, field, h.total)[k]
    if dim <= 0:
        raise ArithmeticError(
            f"witness construction produced trivial homology at degree {k} for {config}"
        )
    return NonCmWitness(h=h, index=index, dimension=dim)
