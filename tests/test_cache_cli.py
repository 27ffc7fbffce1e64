import json
import multiprocessing

import pytest

from pinched_veronese import (
    DEFAULT_FIELD,
    HomologyCache,
    HomologyProfile,
    Multidegree,
    PinchConfig,
    SCHEMA_VERSION,
    build_divisor_complex,
    graded_betti,
    reduced_homology,
)
from pinched_veronese.cache import ENGINE
from pinched_veronese.cli import main


def cfg(n, d, m):
    return PinchConfig(n, d, Multidegree(m))


# -- cache --------------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    config = cfg(2, 5, (2, 3))
    cache = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    h = Multidegree((4, 6))
    profile = reduced_homology(build_divisor_complex(h, config))
    assert cache.get(h) is None
    cache.put(h, profile)
    cache.save()
    assert cache.path.exists()
    reloaded = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    assert reloaded.get(h) == profile


def test_cache_shared_across_permuted_pinch(tmp_path):
    config_a = cfg(2, 5, (2, 3))
    config_b = cfg(2, 5, (3, 2))
    cache_a = HomologyCache(tmp_path, config_a, DEFAULT_FIELD)
    cache_b = HomologyCache(tmp_path, config_b, DEFAULT_FIELD)
    assert cache_a.path == cache_b.path
    h = Multidegree((4, 6))
    profile = reduced_homology(build_divisor_complex(h, config_a))
    cache_a.put(h, profile)
    cache_a.save()
    reloaded_b = HomologyCache(tmp_path, config_b, DEFAULT_FIELD)
    # the permuted configuration reads the same entry through the swapped key
    assert reloaded_b.get(h.permuted((1, 0))) == profile


def test_cache_discards_corruption(tmp_path):
    config = cfg(2, 4, (2, 2))
    cache = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    cache.put(Multidegree((4, 4)), HomologyProfile({0: 1}))
    cache.save()
    cache.path.write_text("{ not json")
    fresh = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    assert fresh.get(Multidegree((4, 4))) is None
    # malformed single entry is skipped, valid ones survive
    payload = {
        "schema": SCHEMA_VERSION,
        "engine": ENGINE,
        "profiles": {"4,4": [[0, 1]], "8,0": "garbage"},
    }
    cache.path.write_text(json.dumps(payload))
    mixed = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    assert mixed.get(Multidegree((4, 4))) == HomologyProfile({0: 1})
    assert mixed.get(Multidegree((8, 0))) is None


def test_cache_recomputes_profiles_of_another_engine(tmp_path):
    config = cfg(2, 5, (2, 3))
    h = Multidegree((4, 6))
    cache = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    cache.put(h, HomologyProfile({0: 99}))
    cache.save()
    raw = json.loads(cache.path.read_text())
    assert raw["engine"] == ENGINE
    untagged = {key: value for key, value in raw.items() if key != "engine"}
    for stale in ({**raw, "engine": "older-engine"}, untagged):
        cache.path.write_text(json.dumps(stale))
        reloaded = HomologyCache(tmp_path, config, DEFAULT_FIELD)
        assert reloaded.get(h) is None
        assert len(reloaded) == 0
    # a scan through the stale file computes the true profile and rewrites it
    table = graded_betti(config, cache=HomologyCache(tmp_path, config, DEFAULT_FIELD))
    assert table.same_entries(graded_betti(config))
    rewritten = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    assert rewritten.get(h) == reduced_homology(build_divisor_complex(h, config))
    assert json.loads(cache.path.read_text())["engine"] == ENGINE


def test_cache_files_separate_by_field(tmp_path):
    from pinched_veronese import GF2

    config = cfg(2, 4, (2, 2))
    a = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    b = HomologyCache(tmp_path, config, GF2)
    assert a.path != b.path
    h = Multidegree((4, 4))
    a.put(h, HomologyProfile({0: 1}))
    a.save()
    assert HomologyCache(tmp_path, config, GF2).get(h) is None


def test_cache_writers_sharing_a_file_keep_each_others_entries(tmp_path):
    config = cfg(2, 5, (2, 3))
    a = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    b = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    h_a, h_b, shared = Multidegree((4, 6)), Multidegree((6, 4)), Multidegree((5, 5))
    a.put(h_a, HomologyProfile({0: 1}))
    a.put(shared, HomologyProfile({0: 2}))
    a.save()
    b.put(h_b, HomologyProfile({1: 1}))
    b.put(shared, HomologyProfile({0: 3}))
    b.save()
    merged = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    assert len(merged) == 3
    assert merged.get(h_a) == HomologyProfile({0: 1})
    assert merged.get(h_b) == HomologyProfile({1: 1})
    assert merged.get(shared) == HomologyProfile({0: 3})  # the later writer's entry wins
    # a file of another engine is not merged in
    raw = json.loads(merged.path.read_text())
    merged.path.write_text(json.dumps({**raw, "engine": "older-engine"}))
    c = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    c.put(h_b, HomologyProfile({1: 1}))
    c.save()
    assert len(HomologyCache(tmp_path, config, DEFAULT_FIELD)) == 1


def _save_at_once(directory, writer, barrier):
    cache = HomologyCache(directory, cfg(2, 5, (2, 3)), DEFAULT_FIELD)
    for j in range(50):
        cache.put(Multidegree((writer, j)), HomologyProfile({0: 1}))
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


def test_cache_feeds_graded_betti(tmp_path):
    config = cfg(2, 4, (3, 1))
    cache = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    cold = graded_betti(config, cache=cache)
    assert cache.path.exists()
    warm_cache = HomologyCache(tmp_path, config, DEFAULT_FIELD)
    assert len(warm_cache) > 0
    warm = graded_betti(config, cache=warm_cache)
    assert cold.entries == warm.entries


# -- CLI ----------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_gens(capsys):
    code, out = run_cli(capsys, "gens", "-d", "3", "--pinch", "0")
    assert code == 0
    assert "(2, 1)" in out and "(0, 3)" in out


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
