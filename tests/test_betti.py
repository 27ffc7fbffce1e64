import subprocess
import sys
from pathlib import Path

import pytest

import pinched_veronese
from pinched_veronese import (
    GF2,
    Multidegree,
    PinchConfig,
    ResourceLimitExceeded,
    UncertifiedTableError,
    build_divisor_complex,
    classify,
    graded_betti,
    k_polynomial_check,
    multigraded_betti,
    reduced_homology,
    witness_non_cm,
)
from pinched_veronese.betti import degree_cost
from pinched_veronese.complexes import table_bytes


def cfg(n, d, m):
    return PinchConfig(n, d, Multidegree(m))


# ground truth for the d=5 interior pinch, certified over two fields before
# being frozen here (the open cells of the table have no closed form)
INTERIOR_D5 = {
    (0, 0): 1, (1, 2): 4, (1, 3): 1, (2, 3): 2,
    (2, 4): 6, (3, 5): 5, (4, 6): 1,
}

INTERIOR_D6_I2 = {
    (0, 0): 1, (1, 2): 8, (1, 3): 1, (2, 3): 12, (2, 4): 4,
    (3, 4): 3, (3, 5): 10, (4, 6): 6, (5, 7): 1,
}

INTERIOR_D6_I3 = {
    (0, 0): 1, (1, 2): 8, (2, 3): 11, (2, 4): 4,
    (3, 4): 3, (3, 5): 10, (4, 6): 6, (5, 7): 1,
}


def nonzero(table):
    return {(i, s): v for (i, s), v in table.entries.items() if v}


# -- tables -------------------------------------------------------------------


def test_totals_max_d():
    table = graded_betti(cfg(2, 4, (4, 0)))
    assert table.totals() == [1, 3, 2]
    assert nonzero(table) == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_totals_gorenstein():
    table = graded_betti(cfg(2, 5, (4, 1)))
    assert table.totals() == [1, 5, 5, 1]
    assert nonzero(table) == {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}


def test_interior_d5_two_field_fixture():
    config = cfg(2, 5, (2, 3))
    table = graded_betti(config)
    assert nonzero(table) == INTERIOR_D5
    table_gf2 = graded_betti(config, GF2)
    assert nonzero(table_gf2) == INTERIOR_D5


def test_interior_d6_fixtures():
    assert nonzero(graded_betti(cfg(2, 6, (2, 4)))) == INTERIOR_D6_I2
    assert nonzero(graded_betti(cfg(2, 6, (3, 3)))) == INTERIOR_D6_I3


def test_row_zero_is_only_the_unit():
    table = graded_betti(cfg(2, 5, (2, 3)))
    assert table.entry(0, 0) == 1
    assert all(table.entry(0, s) == 0 for s in range(1, table.s_max + 1))


def test_pinch_reversal_symmetry():
    for d, i in ((5, 2), (6, 2), (7, 3)):
        a = graded_betti(cfg(2, d, (i, d - i)))
        b = graded_betti(cfg(2, d, (d - i, i)))
        assert a.nonzero_cells() == b.nonzero_cells(), (d, i)


def test_table_determinism_and_jobs():
    config = cfg(2, 5, (2, 3))
    t1 = graded_betti(config)
    t2 = graded_betti(config)
    assert t1.entries == t2.entries
    t3 = graded_betti(config, jobs=2)
    assert t1.nonzero_cells() == t3.nonzero_cells()
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            graded_betti(config, jobs=jobs)


def in_process_pools(monkeypatch):
    """Replace the worker pool by one that runs the real worker in this
    process, with no pool started yet; the list gets each pool's size."""
    import concurrent.futures

    from pinched_veronese import betti

    requested = []

    class InProcessPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(betti, "_pool", None)
    return requested


def test_jobs_capped_at_cpu_count(monkeypatch):
    import os

    requested = in_process_pools(monkeypatch)
    config = cfg(2, 4, (2, 2))
    cpus = os.cpu_count() or 1
    table = graded_betti(config, jobs=cpus + 3)
    assert requested == ([cpus] if cpus > 1 else [])
    assert table.nonzero_cells() == graded_betti(config).nonzero_cells()


def test_sweep_starts_one_worker_pool(monkeypatch, capsys):
    import os

    from pinched_veronese.cli import main

    argv = ["verify", "--sweep", "n=2,d=3..5", "--format", "json"]
    assert main([*argv, "--jobs", "1"]) == 1
    serial = capsys.readouterr().out
    requested = in_process_pools(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert main([*argv, "--jobs", "2"]) == 1
    assert capsys.readouterr().out == serial
    assert requested == [2]  # one pool for the nine configurations


def test_scan_range_validation():
    config = cfg(2, 4, (2, 2))
    with pytest.raises(ValueError):
        graded_betti(config, i_max=9)
    with pytest.raises(ValueError):
        graded_betti(config, i_max=3, s_max=3)
    with pytest.raises(ValueError):
        graded_betti(cfg(3, 3, (1, 1, 1)))  # s_max required for n >= 3


def test_resource_refusal():
    with pytest.raises(ResourceLimitExceeded) as err:
        graded_betti(cfg(2, 8, (4, 4)), budget=1000)
    assert err.value.estimate > err.value.budget
    with pytest.raises(ResourceLimitExceeded):
        multigraded_betti(cfg(2, 8, (4, 4)), i=2, t=3, budget=1000)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_degree_zero_needs_no_bitset_table():
    # h = 0 has the complex {empty face}; a bitset table over the 26
    # generators of n=2 d=26 has 26 vertex masks of 2^26 bits, past 64 MiB
    code = ("import resource, sys; sys.path.insert(0, sys.argv[1]); "
            "resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20)); "
            "from pinched_veronese import PinchConfig, multigraded_betti; "
            "print(multigraded_betti(PinchConfig.from_pinch_index(26, 13), i=0, t=0))")
    src = str(Path(pinched_veronese.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-I", "-c", code, src],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "{(0, 0): 1}"


def test_k_polynomial_consistency_invariant():
    for config in (cfg(2, 4, (4, 0)), cfg(2, 6, (5, 1)), cfg(2, 6, (3, 3))):
        table = graded_betti(config)
        assert k_polynomial_check(table, config)


def test_text_rendering():
    table = graded_betti(cfg(2, 5, (4, 1)))
    text = table.to_text()
    assert "total:" in text
    lines = text.splitlines()
    assert lines[2].split() == ["0:", "1", ".", ".", ".", "."]
    assert lines[3].split() == ["1:", ".", "5", "5", ".", "."]


# -- multigraded --------------------------------------------------------------


def test_multigraded_unit():
    out = multigraded_betti(cfg(2, 5, (2, 3)), i=0, t=0)
    assert out == {Multidegree((0, 0)): 1}


def test_multigraded_top_corner_two_vars():
    # the sum of every degree-d vector carries the lone top Betti contribution
    out = multigraded_betti(cfg(2, 5, (2, 3)), i=4, t=6)
    assert out == {Multidegree((15, 15)): 1}


def test_multigraded_top_corner_three_vars():
    out = multigraded_betti(cfg(3, 3, (1, 1, 1)), i=8, t=10)
    assert out == {Multidegree((10, 10, 10)): 1}


def test_multigraded_sums_to_graded_entry():
    config = cfg(2, 5, (2, 3))
    table = graded_betti(config)
    for (i, s) in ((1, 2), (2, 3), (2, 4), (3, 5)):
        out = multigraded_betti(config, i=i, t=s)
        assert sum(out.values()) == table.entry(i, s), (i, s)


# -- classification -----------------------------------------------------------


def test_classify_gorenstein_case():
    report = classify(graded_betti(cfg(2, 5, (4, 1))))
    assert report.pdim == 3
    assert report.depth == 2
    assert report.krull_dim == 2
    assert report.is_cm and report.is_gorenstein
    assert report.linearity_index == 2
    assert report.observed_regularity == 2


def test_classify_interior_case():
    report = classify(graded_betti(cfg(2, 5, (2, 3))))
    assert report.pdim == 4  # N - 2
    assert report.depth == 1
    assert not report.is_cm and not report.is_gorenstein
    assert report.linearity_index == 0
    assert report.observed_regularity == 2


def test_classify_max_d_linear():
    report = classify(graded_betti(cfg(2, 6, (6, 0))))
    assert report.is_cm
    assert report.linearity_index == report.pdim == 4
    assert report.observed_regularity == 1


def test_classify_requires_full_scan():
    config = cfg(2, 5, (2, 3))
    with pytest.raises(UncertifiedTableError):
        classify(graded_betti(config, i_max=2, s_max=8))


def test_classify_requires_clean_guard():
    config = cfg(2, 5, (2, 3))
    with pytest.raises(UncertifiedTableError):
        classify(graded_betti(config, s_max=5))


# -- witnesses ----------------------------------------------------------------


def test_witness_interior_two_vars():
    w = witness_non_cm(cfg(2, 6, (3, 3)))
    assert w.h == (21, 21)
    assert w.index == 5  # N - 2
    assert w.dimension == 1
    # the settled witness against the elimination of its whole complex
    config = cfg(2, 5, (2, 3))
    w = witness_non_cm(config)
    assert w.dimension == 1
    k = config.N - 3
    assert reduced_homology(build_divisor_complex(w.h, config))[k] == w.dimension


def test_witness_max_d_minus_1_three_vars():
    config = cfg(3, 3, (2, 1, 0))
    w = witness_non_cm(config)
    assert w.index == config.N - 3  # N - n
    assert w.h.total == (config.N - 3 + 2) * config.d
    assert w.dimension >= 1


def test_witness_is_settled_without_building_its_complex(monkeypatch):
    from pinched_veronese import betti

    def refuse(*args):
        raise AssertionError("the witness complex was built")

    monkeypatch.setattr(betti, "build_divisor_complex", refuse)
    interior = {5: (15, 15), 6: (21, 21), 7: (28, 28)}
    for d, h in interior.items():
        for i in range(2, d - 1):
            assert witness_non_cm(cfg(2, d, (i, d - i))) == (h, d - 1, 1), (d, i)
    for n, d, m, h, index in [
        (3, 3, (2, 1, 0), (7, 10, 10), 7), (3, 3, (1, 1, 1), (10, 10, 10), 8),
        (3, 4, (3, 1, 0), (16, 20, 20), 12), (3, 4, (2, 2, 0), (20, 20, 20), 13),
        (3, 4, (2, 1, 1), (20, 20, 20), 13),
        (4, 3, (2, 1, 0, 0), (12, 15, 15, 12), 16), (4, 3, (1, 1, 1, 0), (15, 15, 15, 15), 18),
    ]:
        assert witness_non_cm(cfg(n, d, m)) == (h, index, 1), m


@pytest.mark.parametrize("n, d, m", [(2, 5, (2, 3)), (3, 3, (2, 1, 0)), (3, 3, (1, 1, 1))])
def test_witness_refused_just_below_its_budget(n, d, m):
    # one complex, and the bytes of the table of cap |h| it is settled on
    config = cfg(n, d, m)
    cost = degree_cost(config) + table_bytes(config, witness_non_cm(config).h.total)
    with pytest.raises(ResourceLimitExceeded) as err:
        witness_non_cm(config, budget=cost - 1)
    assert err.value.estimate == cost and err.value.budget == cost - 1
    assert witness_non_cm(config, budget=cost).dimension >= 1


def test_witness_table_is_charged_before_it_is_built():
    # the n=2 d=22 interior witness has |h| = 506, so its table holds 531
    # rows of 2^22 bits (about 2.8e8 bytes), past the default budget
    from pinched_veronese import complexes

    config = cfg(2, 22, (11, 11))
    complexes._subset_bits.cache_clear()
    with pytest.raises(ResourceLimitExceeded) as err:
        witness_non_cm(config)
    assert err.value.estimate == degree_cost(config) + 531 * 2**19
    assert complexes._subset_bits.cache_info().currsize == 0


def test_witness_rejected_for_cm_classes():
    with pytest.raises(ValueError):
        witness_non_cm(cfg(2, 5, (4, 1)))
    with pytest.raises(ValueError):
        witness_non_cm(cfg(3, 3, (3, 0, 0)))
    with pytest.raises(ValueError):
        witness_non_cm(cfg(3, 2, (1, 1, 0)))  # construction needs d >= 3
