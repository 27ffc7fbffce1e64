"""Graded Betti tables of pinched Veronese rings, and ring classifications.

The table entry at (i, s) is the sum over all semigroup elements h of total
degree s*d of dim H~_{i-1} of the divisor complex of h.  Projective dimension,
depth, Cohen-Macaulayness, Gorensteinness and linearity are read off the
certified table.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from math import comb
from typing import NamedTuple, Optional

from .complexes import build_divisor_complex, veronese_generators
from .errors import ResourceLimitExceeded, UncertifiedTableError
from .homology import HomologyProfile, reduced_homology
from .linalg import DEFAULT_FIELD, FieldSpec
from .semigroup import (
    Multidegree,
    PinchClass,
    PinchConfig,
    enumerate_degree,
    generate_generators,
)

DEFAULT_COMPLEX_BUDGET = 100_000_000


@dataclass(eq=False)
class BettiTable:
    """Rectangle of graded Betti numbers with explicit zeros.

    `entries` holds every cell (i, s) with 0 <= i <= i_max, 0 <= s <= s_max,
    so shape claims (zero regions) are decidable from the table alone.
    """

    config: PinchConfig
    field: FieldSpec
    i_max: int
    s_max: int
    entries: dict[tuple[int, int], int]

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

    def same_entries(self, other: "BettiTable") -> bool:
        return self.nonzero_cells() == other.nonzero_cells()

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


def _profile_worker(args) -> list[list[int]]:
    config, field, h = args
    profile = reduced_homology(build_divisor_complex(h, config), field)
    return profile.to_pairs()


def _profiles_for_degrees(
    config: PinchConfig,
    field: FieldSpec,
    degrees: list[int],
    cache=None,
    jobs: int = 1,
):
    """Yield (s, h, profile) deterministically (s ascending, h descending lex).

    jobs is capped at the CPU count.
    """
    work: list[tuple[int, Multidegree]] = []
    for s in degrees:
        for h in enumerate_degree(config, s):
            work.append((s, h))
    profiles: dict[Multidegree, HomologyProfile] = {}
    missing: list[Multidegree] = []
    for _, h in work:
        hit = cache.get(h) if cache is not None else None
        if hit is not None:
            profiles[h] = hit
        else:
            missing.append(h)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1 and len(missing) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = pool.map(
                _profile_worker,
                [(config, field, h) for h in missing],
                chunksize=max(1, len(missing) // (4 * jobs)),
            )
            for h, pairs in zip(missing, results):
                profiles[h] = HomologyProfile.from_pairs(pairs)
    else:
        for h in missing:
            profiles[h] = reduced_homology(build_divisor_complex(h, config), field)
    if cache is not None:
        for h in missing:
            cache.put(h, profiles[h])
        cache.save()
    for s, h in work:
        yield s, h, profiles[h]


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
    cost = estimate_cost(config, s_max)
    if cost > budget:
        raise ResourceLimitExceeded(cost, budget)
    entries = {(i, s): 0 for i in range(i_max + 1) for s in range(s_max + 1)}
    for s, _h, profile in _profiles_for_degrees(
        config, field, list(range(s_max + 1)), cache=cache, jobs=jobs
    ):
        for k, v in profile.items():
            i = k + 1
            if 0 <= i <= i_max:
                entries[(i, s)] += v
    return BettiTable(config=config, field=field, i_max=i_max, s_max=s_max, entries=entries)


def multigraded_betti(
    config: PinchConfig,
    field: FieldSpec = DEFAULT_FIELD,
    i: int = 0,
    t: int = 0,
    *,
    cache=None,
    budget: int = DEFAULT_COMPLEX_BUDGET,
) -> dict[Multidegree, int]:
    """Per-h contributions to the (i, t) table entry (only nonzero values kept)."""
    if i < 0 or t < 0:
        raise ValueError("homological and coarse degrees must be non-negative")
    cost = degree_cost(config, t)
    if cost > budget:
        raise ResourceLimitExceeded(cost, budget)
    out: dict[Multidegree, int] = {}
    for _s, h, profile in _profiles_for_degrees(config, field, [t], cache=cache):
        v = profile[i - 1]
        if v:
            out[h] = v
    return out


@dataclass(frozen=True)
class ClassificationReport:
    """Derived ring invariants; depth comes from the projective dimension."""

    pdim: int
    depth: int
    krull_dim: int
    is_cm: bool
    is_gorenstein: bool
    linearity_index: int
    observed_regularity: int

    def to_json_obj(self) -> dict:
        return asdict(self)


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
    return ClassificationReport(
        pdim=pdim,
        depth=depth,
        krull_dim=config.n,
        is_cm=is_cm,
        is_gorenstein=is_gorenstein,
        linearity_index=linearity_index,
        observed_regularity=observed_regularity,
    )


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
    Much cheaper than a table scan: one complex, one homology degree.
    """
    cls = config.pinch_class
    if cls is PinchClass.MAX_D or (cls is PinchClass.MAX_D_MINUS_1 and config.n == 2):
        raise ValueError(
            f"{config} lies in a Cohen-Macaulay class; there is no witness"
        )
    if cls is PinchClass.MAX_D_MINUS_1 and config.d == 2:
        # the degree-2 semigroup misses more than (td-1, 1, 0, ...); the
        # witness construction (and the classification it supports) needs d >= 3
        raise ValueError("the non-CM witness construction requires d >= 3")
    gens = generate_generators(config)
    if cls is PinchClass.INTERIOR:
        h = Multidegree((0,) * config.n)
        for g in veronese_generators(config.n, config.d):
            h = h + g
        k = config.N - 3
        index = config.N - 2
    else:
        p = config.m.index(config.d - 1)
        top = Multidegree(config.d if j == p else 0 for j in range(config.n))
        avoid = {config.m, top}
        chosen = [g for g in gens if g not in avoid][: config.N - config.n + 1]
        h = config.m
        for g in chosen:
            h = h + g
        k = config.N - config.n - 1
        index = config.N - config.n
    size_cap = k + 2
    cost = sum(comb(len(gens), j) for j in range(size_cap + 1))
    if cost > budget:
        raise ResourceLimitExceeded(cost, budget)
    complex_ = build_divisor_complex(h, config, size_cap=size_cap)
    dim = reduced_homology(complex_, field, window=(k, k))[k]
    if dim <= 0:
        raise ArithmeticError(
            f"witness construction produced trivial homology at degree {k} for {config}"
        )
    return NonCmWitness(h=h, index=index, dimension=dim)
