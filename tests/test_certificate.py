"""The cone certificate that lets a Betti scan skip divisor complexes.

`betti._apex_bounds` names, per coarse degree, the elements h whose divisor
complex has a generator g as an apex: a pure power d*e_q, or for max m = d
at p a generator (d-1)*e_p + e_q.  The scan never builds those complexes;
these tests build them anyway and check that each is a cone, pin how many
the certificate settles, and check that the column cache counts only the
elements it leaves.
"""

import itertools
import json
import shutil
from pathlib import Path

import pytest

from pinched_veronese import (
    DEFAULT_FIELD,
    HomologyCache,
    HomologyProfile,
    Multidegree,
    PinchConfig,
    build_divisor_complex,
    enumerate_degree,
    graded_betti,
    hilbert_function,
)
from pinched_veronese import betti
from pinched_veronese.betti import _apex_bounds, _certified, _cone_apexes, _profiles_for_degrees
from pinched_veronese.cache import ENGINE
from test_cli_golden import DATA as GOLDEN, run

# per-element profile files that `betti -d 5 --pinch 2` and `verify -d 5
# --pinch 2 --field 2` wrote before the scan skipped certified cones, under an
# engine before the column cache
OLD_CACHE = Path(__file__).parent / "data" / "cache_before_certificate"


def cfg(n, d, m):
    return PinchConfig(n, d, Multidegree(m))


def certified(config, s):
    bounds = _apex_bounds(_cone_apexes(config), s)
    return [h for h in enumerate_degree(config, s) if _certified(bounds, h)]


def certified_in_scan(config, s_max):
    return [h for s in range(s_max + 1) for h in certified(config, s)]


def assert_certified_are_cones(config, s_max):
    hs = certified_in_scan(config, s_max)
    bad = [h for h in hs if not build_divisor_complex(h, config).is_cone()]
    assert not bad, f"certified non-cones for {config}: {bad[:5]}"
    return len(hs)


# -- soundness ----------------------------------------------------------------


@pytest.mark.parametrize("d", range(2, 10))
def test_certified_elements_are_cones_two_vars(d):
    for i in range(d + 1):
        config = PinchConfig.from_pinch_index(d, i)
        # the rule is not vacuous: every class has an apex to try, d = 2
        # max=d-1 the pure powers at its two pinch positions
        assert assert_certified_are_cones(config, config.N + 1) > 0


@pytest.mark.parametrize("n, d, m, s_max", [
    (3, 3, (3, 0, 0), 11),
    (3, 3, (2, 1, 0), 11),
    (3, 3, (1, 1, 1), 11),
    (3, 3, (0, 2, 1), 11),  # a permuted max=d-1 pinch
    (3, 3, (0, 3, 0), 11),  # a permuted max=d pinch
    (3, 2, (1, 1, 0), 6),   # d = 2 max=d-1: a pure power apex at every position
    (3, 2, (0, 0, 2), 6),
    (3, 4, (3, 1, 0), 6),
    (4, 2, (2, 0, 0, 0), 6),
    (4, 2, (1, 1, 0, 0), 6),
])
def test_certified_elements_are_cones_three_vars(n, d, m, s_max):
    assert assert_certified_are_cones(cfg(n, d, m), s_max) > 0


# over s <= N+1; at d = 8, i = 0 (max=d) and i = 1 (max=d-1), the pure-power
# apexes of the first-cut rule certified 171 each; the interior d = 9 rule
# tries only pure powers
@pytest.mark.parametrize("d, i, cones, certified_cones", [
    (8, 0, 324, 318),
    (8, 1, 368, 356),
    (9, 4, 449, 439),
    (9, 5, 449, 439),
])
def test_certified_count(d, i, cones, certified_cones):
    config = PinchConfig.from_pinch_index(d, i)
    table = graded_betti(config)
    assert cones == sum(build_divisor_complex(h, config).is_cone()
                        for s in range(table.s_max + 1) for h in enumerate_degree(config, s))
    assert table.certified_cones == len(certified_in_scan(config, table.s_max)) == certified_cones


def test_certified_count_stays_out_of_json():
    table = graded_betti(PinchConfig.from_pinch_index(5, 2))
    assert table.certified_cones > 0
    assert "certified_cones" not in table.to_json_obj()


# -- the guard column ---------------------------------------------------------


@pytest.mark.parametrize("d", range(4, 10))
def test_guard_column_is_proved_zero_on_interior_configs(d):
    # every h of the default guard degree s_max = N+1 is a certified cone, so
    # none is scanned, and the all-zero guard column that `classify` demands
    # is a theorem there
    for i in range(2, d - 1):
        config = PinchConfig.from_pinch_index(d, i)
        s = config.N + 1
        assert list(_profiles_for_degrees(config, DEFAULT_FIELD, [s])) == []
        assert (len(certified(config, s)) == hilbert_function(config, s)
                == len(enumerate_degree(config, s)) > 0)


# -- the scanned elements -----------------------------------------------------


def pinches(n, d):
    return [m for m in itertools.product(range(d + 1), repeat=n) if sum(m) == d]


@pytest.mark.parametrize("n, d, s_max", [
    *((2, d, None) for d in range(2, 7)),
    *((3, d, None) for d in (2, 3, 4)),
    (4, 2, 8), (4, 3, 8),
])
def test_scan_enumerates_exactly_the_uncertified_elements(monkeypatch, n, d, s_max):
    # every pinch vector, permuted ones too; s <= N+2 unless given.  The
    # scan enumerates only the box that the one-condition apexes leave, and
    # must still meet the elements outside the certificate, in scan order
    monkeypatch.setattr(betti, "_element_profile", lambda *args: HomologyProfile())
    for m in pinches(n, d):
        config = cfg(n, d, m)
        top = config.N + 2 if s_max is None else s_max
        scanned = [(s, h) for s, h, _ in
                   _profiles_for_degrees(config, DEFAULT_FIELD, list(range(top + 1)))]
        expected = [(s, h) for s in range(top + 1)
                    for bounds in [_apex_bounds(_cone_apexes(config), s)]
                    for h in enumerate_degree(config, s) if not _certified(bounds, h)]
        assert scanned == expected, config


# -- the column cache ---------------------------------------------------------


@pytest.mark.parametrize("case", [
    ["betti", "-d", "5", "--pinch", "2"],
    ["verify", "-d", "5", "--pinch", "2", "--field", "2"],
])
def test_cache_written_before_the_certificate_gives_identical_output(tmp_path, case):
    # the old files are per-element profiles of another engine: the first
    # run discards the file it reads and rewrites it under the current
    # ENGINE, and the later runs read it and rewrite nothing
    cache_dir = tmp_path / "cache"
    shutil.copytree(OLD_CACHE, cache_dir)
    old = {p.name: p.read_bytes() for p in cache_dir.iterdir()}
    assert all(json.loads(raw)["engine"] != ENGINE for raw in old.values())
    golden = {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}
    seen = None
    for fmt in ("text", "json", "csv"):
        argv = [*case, "--format", fmt]
        got = run([*argv, "--cache-dir", str(cache_dir)])
        assert {**got, "argv": argv} == golden[tuple(argv)]
        now = {p.name: p.read_bytes() for p in cache_dir.iterdir()}
        if seen is None:
            assert now.keys() == old.keys()
            rewritten = [name for name in now if now[name] != old[name]]
            assert len(rewritten) == 1
            assert json.loads(now[rewritten[0]])["engine"] == ENGINE
        else:
            assert now == seen
        seen = now


def test_cold_scan_caches_no_certified_element(tmp_path):
    # each degree's column counts the elements the certificate leaves
    config = PinchConfig.from_pinch_index(6, 2)
    table = graded_betti(config, cache=HomologyCache(tmp_path, config, DEFAULT_FIELD))
    reloaded = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    assert len(reloaded) == table.s_max + 1
    skipped = 0
    for s in range(table.s_max + 1):
        scanned, _sums = reloaded.get(s)
        uncertified = hilbert_function(config, s) - len(certified(config, s))
        assert scanned == uncertified == len(list(
            _profiles_for_degrees(config, DEFAULT_FIELD, [s]))), s
        skipped += len(certified(config, s))
    assert skipped == table.certified_cones > 0
    assert graded_betti(config, cache=reloaded).nonzero_cells() == table.nonzero_cells()
