import json
import multiprocessing

import pytest

from pinched_veronese import (
    DEFAULT_FIELD,
    HomologyCache,
    Multidegree,
    PinchConfig,
    SCHEMA_VERSION,
    graded_betti,
)
from pinched_veronese import betti
from pinched_veronese.betti import _profiles_for_degrees
from pinched_veronese.cache import ENGINE
from pinched_veronese.cli import CACHE_ENV_VAR, MAX_EXPAND, main


def cfg(n, d, m):
    return PinchConfig(n, d, Multidegree(m))


# -- cache --------------------------------------------------------------------


def column(config, s, field=DEFAULT_FIELD):
    """The column at coarse degree s added up from the per-element profiles:
    the elements scanned, and the sums of dim H~_{i-1} by i."""
    scanned, sums = 0, {}
    for _, _, profile in _profiles_for_degrees(config, field, [s]):
        scanned += 1
        for k, v in profile.items():
            sums[k + 1] = sums.get(k + 1, 0) + v
    return scanned, sums


def refuse_to_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(betti, "enumerate_degree", refuse)
    monkeypatch.setattr(betti, "_element_profile", refuse)


def test_cache_round_trip(tmp_path):
    config = cfg(2, 5, (2, 3))
    cache = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    col = column(config, 3)
    assert col[0] > 0 and len(col[1]) > 1
    assert cache.get(3) is None
    cache.put(3, col)
    cache.save()
    assert cache.path.exists()
    reloaded = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    assert reloaded.get(3) == col
    assert reloaded.get(4) is None and len(reloaded) == 1


def test_cache_shared_across_permuted_pinch(tmp_path):
    config_a = cfg(2, 5, (2, 3))
    config_b = cfg(2, 5, (3, 2))
    cache_a = HomologyCache(tmp_path, config_a, DEFAULT_FIELD)
    cache_b = HomologyCache(tmp_path, config_b, DEFAULT_FIELD)
    assert cache_a.path == cache_b.path
    for s in range(config_a.N + 2):
        assert column(config_a, s) == column(config_b, s), s
    cache_a.put(3, column(config_a, 3))
    cache_a.save()
    # the permuted configuration reads the same column under the same degree
    reloaded_b = HomologyCache(tmp_path, config_b, DEFAULT_FIELD)
    assert reloaded_b.get(3) == column(config_b, 3)
    assert list(tmp_path.iterdir()) == [cache_a.path]


def test_cache_discards_corruption(tmp_path):
    config = cfg(2, 4, (2, 2))
    cache = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    cache.put(2, (4, {1: 3}))
    cache.save()
    cache.path.write_text("{ not json")
    fresh = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    assert fresh.get(2) is None
    # each malformed column is dropped alone, and the valid one survives
    payload = {
        "schema": SCHEMA_VERSION,
        "engine": ENGINE,
        "columns": {
            "2": {"scanned": 4, "betti": {"1": 3}},
            "3": "garbage",
            "4": {"scanned": -1, "betti": {}},
            "5": {"scanned": 2, "betti": {"1": 0}},
            "6": {"scanned": 2, "betti": [[1, 1]]},
            "7": {"scanned": "2", "betti": {}},
            "8": {"betti": {}},
            "9": {"scanned": 1, "betti": {"-1": 1}},
            "x": {"scanned": 1, "betti": {}},
        },
    }
    cache.path.write_text(json.dumps(payload))
    mixed = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    assert mixed.get(2) == (4, {1: 3})
    assert len(mixed) == 1


def test_cache_recomputes_columns_of_another_engine(tmp_path):
    config = cfg(2, 5, (2, 3))
    cache = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    cache.put(3, (1, {0: 99}))
    cache.save()
    raw = json.loads(cache.path.read_text())
    assert raw["engine"] == ENGINE
    untagged = {key: value for key, value in raw.items() if key != "engine"}
    for stale in ({**raw, "engine": "older-engine"}, untagged):
        cache.path.write_text(json.dumps(stale))
        reloaded = HomologyCache(tmp_path, config, DEFAULT_FIELD)
        assert reloaded.get(3) is None
        assert len(reloaded) == 0
    # a scan through the stale file computes the true columns and rewrites it
    table = graded_betti(config, cache=HomologyCache(tmp_path, config, DEFAULT_FIELD))
    assert table.nonzero_cells() == graded_betti(config).nonzero_cells()
    rewritten = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    assert len(rewritten) == table.s_max + 1
    assert all(rewritten.get(s) == column(config, s) for s in range(table.s_max + 1))
    assert json.loads(cache.path.read_text())["engine"] == ENGINE


def test_cache_files_separate_by_field(tmp_path):
    from pinched_veronese import GF2

    config = cfg(2, 4, (2, 2))
    a = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    b = HomologyCache(tmp_path, config, GF2)
    assert a.path != b.path
    a.put(2, column(config, 2))
    a.save()
    assert HomologyCache(tmp_path, config, GF2).get(2) is None
    assert HomologyCache(tmp_path, config, DEFAULT_FIELD).get(2) == column(config, 2)


def test_cache_writers_sharing_a_file_keep_each_others_entries(tmp_path):
    config = cfg(2, 5, (2, 3))
    a = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    b = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    a.put(1, (3, {}))
    a.put(3, (1, {0: 2}))
    a.save()
    b.put(2, (7, {1: 4}))
    b.put(3, (1, {0: 3}))
    b.save()
    merged = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    assert len(merged) == 3
    assert merged.get(1) == (3, {})
    assert merged.get(2) == (7, {1: 4})
    assert merged.get(3) == (1, {0: 3})  # the later writer's column wins
    # a file of another engine is not merged in
    raw = json.loads(merged.path.read_text())
    merged.path.write_text(json.dumps({**raw, "engine": "older-engine"}))
    c = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    c.put(2, (7, {1: 4}))
    c.save()
    assert len(HomologyCache(tmp_path, config, DEFAULT_FIELD)) == 1


def _save_at_once(directory, writer, barrier):
    cache = HomologyCache(directory, cfg(2, 5, (2, 3)), DEFAULT_FIELD)
    for j in range(50):
        cache.put(50 * writer + j, (1, {0: writer + 1}))
    barrier.wait()
    cache.save()


def test_cache_saves_at_the_same_instant_lose_no_entries(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    writers = 4  # more than the cores of a small machine
    for round_ in range(2):
        directory = tmp_path / str(round_)
        barrier = ctx.Barrier(writers, timeout=60)
        procs = [ctx.Process(target=_save_at_once, args=(directory, w, barrier))
                 for w in range(writers)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(120)
        assert not any(p.is_alive() for p in procs)
        assert all(p.exitcode == 0 for p in procs)
        cache = HomologyCache(directory, cfg(2, 5, (2, 3)), DEFAULT_FIELD)
        assert len(cache) == writers * 50
        assert all(cache.get(50 * w + j) == (1, {0: w + 1})
                   for w in range(writers) for j in range(50))


def test_cache_file_is_compact_sorted_json(tmp_path):
    # the bytes that json.dump wrote before saves went through json.dumps;
    # degrees past 9 check that the keys sort as the strings a reload reads
    config = cfg(2, 5, (2, 3))
    cache = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    graded_betti(config, s_max=12, cache=cache)
    text = cache.path.read_text()
    assert len(json.loads(text)["columns"]) == 13
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


def test_cache_feeds_graded_betti(tmp_path):
    config = cfg(2, 4, (3, 1))
    cache = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    cold = graded_betti(config, cache=cache)
    assert cache.path.exists()
    warm_cache = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    assert len(warm_cache) > 0
    warm = graded_betti(config, cache=warm_cache)
    assert cold.entries == warm.entries


@pytest.mark.parametrize("d, i", [(5, 2), (6, 0), (7, 2)])
def test_warm_graded_betti_does_no_per_element_work(tmp_path, monkeypatch, d, i):
    # every degree's column is read, so nothing is enumerated or settled
    config = PinchConfig.from_pinch_index(d, i)
    cold = graded_betti(config, cache=HomologyCache(tmp_path, config, DEFAULT_FIELD))
    refuse_to_scan(monkeypatch)
    warm = graded_betti(config, cache=HomologyCache(tmp_path, config, DEFAULT_FIELD))
    assert warm.entries == cold.entries
    assert warm.certified_cones == cold.certified_cones > 0


def test_cache_serves_smaller_windows_with_no_scan(tmp_path, monkeypatch):
    # the columns are not cut at i_max, so any smaller window reads them
    config = PinchConfig.from_pinch_index(6, 2)
    graded_betti(config, cache=HomologyCache(tmp_path, config, DEFAULT_FIELD))
    windows = [(i_max, s_max) for i_max in range(config.N - 1)
               for s_max in range(i_max + 1, config.N + 2)]
    want = {w: graded_betti(config, i_max=w[0], s_max=w[1]) for w in windows}
    refuse_to_scan(monkeypatch)
    for (i_max, s_max), table in want.items():
        got = graded_betti(config, i_max=i_max, s_max=s_max,
                           cache=HomologyCache(tmp_path, config, DEFAULT_FIELD))
        assert got.entries == table.entries, (i_max, s_max)
        assert got.certified_cones == table.certified_cones, (i_max, s_max)


def test_larger_smax_scans_only_the_new_degrees(tmp_path, monkeypatch):
    # the cache is written at i_max = 1, and read at the default i_max: a
    # column cut at the window would lose the entries of the larger one
    config = PinchConfig.from_pinch_index(7, 3)
    graded_betti(config, i_max=1, s_max=config.N + 1,
                 cache=HomologyCache(tmp_path, config, DEFAULT_FIELD))
    enumerate_degree = betti.enumerate_degree
    asked = []

    def record(config, s, below=None):
        asked.append(s)
        return enumerate_degree(config, s, below)

    monkeypatch.setattr(betti, "enumerate_degree", record)
    top = config.N + 4
    table = graded_betti(config, s_max=top,
                         cache=HomologyCache(tmp_path, config, DEFAULT_FIELD))
    assert asked == list(range(config.N + 2, top + 1))
    want = graded_betti(config, s_max=top)
    assert table.entries == want.entries
    assert table.certified_cones == want.certified_cones
    assert len(HomologyCache(tmp_path, config, DEFAULT_FIELD)) == top + 1


# -- CLI ----------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_gens(capsys):
    code, out = run_cli(capsys, "gens", "-d", "3", "--pinch", "0")
    assert code == 0
    assert "(2, 1)" in out and "(0, 3)" in out


def test_cli_member_answers_a_huge_element(capsys):
    # a d = 2 parity hole of degree 10**12 is found from the pinch class alone
    code, out = run_cli(capsys, "member", "-d", "2", "--pinch", "1",
                        "--element", "1000000000001,999999999999")
    assert code == 0
    assert out == "(1000000000001, 999999999999) is not in the semigroup\n"


def test_cli_member_cross_check(capsys):
    code, out = run_cli(capsys, "member", "-d", "3", "--pinch", "3,0",
                        "--element", "5,1", "--cross-check")
    assert code == 0
    assert "not in" in out and "agrees" in out


def test_cli_hilbert_json(capsys):
    code, out = run_cli(capsys, "hilbert", "-d", "4", "--pinch", "0",
                        "--expand", "16", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == SCHEMA_VERSION
    # lattice counting: 3t+1 points in coarse degree t once the pinch is gone
    assert [payload["expansion"][4 * t] for t in range(5)] == [1, 4, 7, 10, 13]


def test_cli_hilbert_expands_through_the_cap(capsys):
    code, out = run_cli(capsys, "hilbert", "-d", "3", "--pinch", "0",
                        "--expand", str(MAX_EXPAND), "--format", "csv")
    assert code == 0
    part, coefficients = out.splitlines()[-1].split(",")
    assert part == "expansion" and len(coefficients.split()) == MAX_EXPAND + 1


@pytest.mark.parametrize("expand", (MAX_EXPAND + 1, 30_000_000))
def test_cli_hilbert_refuses_expansions_over_the_cap(capsys, expand):
    assert main(["hilbert", "-d", "3", "--pinch", "0", "--expand", str(expand)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"refused: --expand {expand} exceeds the cap {MAX_EXPAND}\n"


def test_cli_hpoly(capsys):
    code, out = run_cli(capsys, "hpoly", "-d", "5", "--pinch", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["coarse_coefficients"] == [1, 0, -5, 5, 0, -1]


def test_cli_betti_text_and_csv(capsys):
    code, out = run_cli(capsys, "betti", "-d", "5", "--pinch", "1")
    assert code == 0
    assert "total:" in out and "cataloged entries" in out
    code, out = run_cli(capsys, "betti", "-d", "5", "--pinch", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "i,s,value"


def test_cli_betti_text_without_a_catalog(capsys):
    # n=2, d=2 has no catalog: the table alone, and no error
    code = main(["betti", "-d", "2", "--pinch", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "total:" in captured.out and "cataloged entries" not in captured.out
    assert captured.err == ""


def test_cli_betti_text_marks_cells_outside_the_scan(capsys):
    code, out = run_cli(capsys, "betti", "-d", "6", "--pinch", "2",
                        "--imax", "2", "--smax", "4")
    assert code == 0
    assert "  betti[5,7] = 1  [top corner] not scanned\n" in out
    assert "  betti[3,4] = ?  [no closed form] not scanned\n" in out
    assert "  betti[2,4] = 4  [no closed form]\n" in out
    assert "MISMATCH" not in out


def test_cli_betti_text_shows_errata(capsys):
    code, out = run_cli(capsys, "betti", "-d", "5", "--pinch", "2")
    assert code == 0
    assert ("  betti[2,4] = 9  [C(d,2) - 1] MISMATCH (computed 6; erratum 6 ok)\n"
            in out)
    assert ("  betti[3,5] = 1  [C(d,3) - C(d,2) + 1] MISMATCH (computed 5; erratum 5 ok)\n"
            in out)
    # a cell without an erratum keeps the plain form
    assert "  betti[4,6] = 1  [top corner] ok\n" in out


def test_cli_betti_text_erratum_mismatch():
    from pinched_veronese.cli import _catalog_lines

    table = graded_betti(cfg(2, 5, (2, 3)))
    table.entries[(2, 4)] = 7
    assert ("  betti[2,4] = 9  [C(d,2) - 1] MISMATCH (computed 7; erratum 6 MISMATCH)"
            in _catalog_lines(table))


def test_cli_classify(capsys):
    code, out = run_cli(capsys, "classify", "-d", "5", "--pinch", "1",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_gorenstein"] is True and payload["pdim"] == 3


def test_cli_verify_single(capsys):
    code, out = run_cli(capsys, "verify", "-d", "5", "--pinch", "1")
    assert code == 0
    assert "all checks pass" in out


def test_cli_verify_sweep_exit_code(capsys):
    code, out = run_cli(capsys, "verify", "--sweep", "n=2,d=3..3")
    assert code == 0
    assert "[PASS]" in out
    code, out = run_cli(capsys, "verify", "--sweep", "n=2,d=4..4")
    assert code == 1  # the interior catalog defect at d=4
    assert "[FAIL] d=4 m=(2, 2)" in out


def test_cli_canonical(capsys):
    code, out = run_cli(capsys, "canonical", "-n", "2", "-d", "5", "-k", "1",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["partner"] == 2 and payload["holds"] is True


def test_cli_dualcheck(capsys):
    code, out = run_cli(capsys, "dualcheck", "-d", "5", "--pinch", "2",
                        "--coarse", "3")
    assert code == 0
    assert "all pass" in out


def test_cli_dualcheck_serializes_faces(capsys):
    code, out = run_cli(capsys, "dualcheck", "-d", "3", "--pinch", "3,0",
                        "--element", "4,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["complexes_checked"] == 1
    assert [] in payload["faces"]  # the empty face
    assert all(f == sorted(f) for f in payload["faces"])


GOLDEN_DUALCHECKS = [
    ["dualcheck", "-d", "5", "--pinch", "2", "--coarse", "3"],
    ["dualcheck", "-d", "3", "--pinch", "3,0", "--element", "4,2", "--field", "q"],
]


@pytest.mark.parametrize("argv", GOLDEN_DUALCHECKS, ids=("coarse", "element"))
def test_cli_dualcheck_refuses_over_budget(capsys, argv):
    assert main([*argv, "--budget", "1"]) == 3
    assert capsys.readouterr().err.startswith("refused: ")


@pytest.mark.parametrize("argv", GOLDEN_DUALCHECKS, ids=("coarse", "element"))
def test_cli_dualcheck_default_budget_passes_golden_cases(capsys, argv):
    assert main(argv) == 0


def test_cli_dualcheck_charges_the_table_it_reads(capsys):
    # a one-off build reads a table of 2^V-bit rows: at V = 26 that alone
    # is 82 rows of 8 MB, refused before any is built
    assert main(["dualcheck", "-d", "26", "--pinch", "13", "--element", "26,0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused: ") and captured.err.count("\n") == 1
    # the 23 complexes of n=2 d=22 at coarse degree 1 and their table of
    # 70 rows of 2^22 bits come to 23 * 2^22 + 70 * 2^19 = 133,169,152
    argv = ["dualcheck", "-d", "22", "--pinch", "11", "--coarse", "1"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("refused: estimated cost 133169152 ")
    assert main([*argv, "--budget", "1000000000"]) == 0
    assert "all pass" in capsys.readouterr().out


def test_cli_verify_decides_the_cm_class_without_work(capsys):
    # normality of the max=d class is decided from the pinch class alone
    assert main(["verify", "-n", "3", "-d", "3", "--pinch", "3,0,0", "--budget", "1"]) == 0
    assert "[PASS] cm-classification" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["betti", "-d", "3", "--pinch", "0", "--jobs", "0"],
    ["betti", "-d", "3", "--pinch", "0", "--jobs", "-3"],
    ["verify", "-d", "3", "--pinch", "0", "--jobs", "0"],
], ids=("betti-zero", "betti-negative", "verify-zero"))
def test_cli_rejects_jobs_below_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --jobs: must be a positive integer" in captured.err


@pytest.mark.parametrize("argv", [
    ["betti", "-d", "3", "--pinch", "1", "--budget", "0"],
    ["betti", "-d", "3", "--pinch", "1", "--budget", "-5"],
    ["dualcheck", "-d", "3", "--pinch", "3,0", "--coarse", "2", "--budget", "0"],
], ids=("betti-zero", "betti-negative", "dualcheck-zero"))
def test_cli_rejects_budget_below_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --budget: must be a positive integer" in captured.err


@pytest.mark.parametrize("argv", [
    ["gens", "-d", "3", "--pinch", "0", "--jobs", "2"],
    ["member", "-d", "3", "--pinch", "0", "--element", "3,3", "--jobs", "2"],
    ["hilbert", "-d", "3", "--pinch", "0", "--jobs", "2"],
    ["hpoly", "-d", "3", "--pinch", "0", "--jobs", "2"],
    ["canonical", "-d", "5", "-k", "1", "--jobs", "2"],
    ["verify", "-d", "4", "--pinch", "1", "--smax", "4"],
], ids=lambda argv: argv[0])
def test_cli_rejects_flags_the_subcommand_does_not_read(capsys, argv):
    assert main(argv[:-2]) == 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


def test_cli_usage_error(capsys):
    code = main(["gens", "-d", "9"])
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--sweep", "n=2,d=8..3"], "d range 8..3"),
    (["dualcheck", "-d", "3", "--pinch", "0", "--coarse", "-1"], "--coarse"),
    (["hilbert", "-d", "3", "--pinch", "0", "--expand", "-4"], "--expand"),
], ids=("reversed-sweep", "negative-coarse", "negative-expand"))
def test_cli_rejects_empty_ranges_and_negative_degrees(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and flag in captured.err


def test_cli_verify_refuses_the_witness_over_budget(capsys):
    # the witness complex of n=3 d=3 (2,1,0) costs 2^(N-1) = 512 subsets,
    # and its table of cap |h| = 27 holds 30 + 9 + 9 + 1 rows of 2^9 bits
    argv = ["verify", "-n", "3", "-d", "3", "--pinch", "2,1,0"]
    assert main([*argv, "--budget", "3647"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused: estimated cost 3648 ")
    assert main([*argv, "--budget", "3648"]) == 0


def test_cli_resource_refusal(capsys):
    code = main(["betti", "-n", "3", "-d", "4", "--pinch", "2,1,1",
                 "--smax", "16"])
    assert code == 3


def test_cli_rationals_field(capsys):
    code, out = run_cli(capsys, "classify", "-d", "4", "--pinch", "2",
                        "--field", "q", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["field"] == "QQ" and payload["pdim"] == 3


def test_cli_large_prime_fields(capsys):
    # a 61-bit prime field is accepted at once; a prime above the bound of
    # the deterministic primality test is a usage error
    code, out = run_cli(capsys, "betti", "-d", "3", "--pinch", "1",
                        "--field", str(2**61 - 1), "--format", "json")
    assert code == 0 and json.loads(out)["table"]["field"] == f"GF({2**61 - 1})"
    assert main(["betti", "-d", "3", "--pinch", "1", "--field", str(2**89 - 1)]) == 2
    assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["betti", "verify"])
@pytest.mark.parametrize("where", ["flag", "env", "under"])
def test_cli_cache_dir_naming_a_file_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                      command, where):
    # a save makes the cache directory; a path that names a file, or lies
    # under one, is refused before any output, with no traceback
    path = tmp_path / "profiles"
    path.write_text("")
    argv = [command, "-d", "3", "--pinch", "1"]
    if where == "env":
        monkeypatch.setenv(CACHE_ENV_VAR, str(path))
    else:
        argv += ["--cache-dir", str(path / "sub" if where == "under" else path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(path) in captured.err
    assert path.read_text() == ""


def test_cli_cache_round_trip_bytes(tmp_path, capsys):
    argv = ["betti", "-d", "5", "--pinch", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code_cold, out_cold = run_cli(capsys, *argv)
    assert code_cold == 0
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    code_warm, out_warm = run_cli(capsys, *argv)
    assert code_warm == 0
    assert out_cold == out_warm


def test_cli_json_outputs_carry_schema(capsys):
    for argv in (
        ["gens", "-d", "4", "--pinch", "1", "--format", "json"],
        ["classify", "-d", "4", "--pinch", "0", "--format", "json"],
        ["verify", "-d", "4", "--pinch", "0", "--format", "json"],
        ["dualcheck", "-d", "4", "--pinch", "1", "--format", "json"],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["schema"] == SCHEMA_VERSION
