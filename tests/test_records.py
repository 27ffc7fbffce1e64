"""What callers see of the package's record types, and what importing the CLI
costs.

The records are `FieldSpec`, `PinchConfig`, `ClassificationReport`,
`ExpectedTable` and `Check` (immutable), and `BettiTable` and
`VerificationReport` (mutable).  Error messages embed the reprs of
`PinchConfig` and `FieldSpec`; the `--jobs` pool pickles `(config, field, h)`;
the CLI's JSON reads `ClassificationReport` in field order.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from pinched_veronese import (
    GF2,
    RATIONALS,
    BettiTable,
    Check,
    ClassificationReport,
    ExpectedTable,
    FieldSpec,
    Multidegree,
    PinchConfig,
    VerificationReport,
    classify,
    expected_table,
    graded_betti,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def cfg(n, d, m):
    return PinchConfig(n, d, Multidegree(m))


def catalog(errata=None):
    if errata is None:
        return ExpectedTable("t", {(0, 0): 1}, {(0, 0): "unit"}, frozenset(), {}, {})
    return ExpectedTable("t", {(0, 0): 1}, {(0, 0): "unit"}, frozenset(), {}, {}, errata, {})


def test_reprs_that_error_messages_embed():
    assert repr(cfg(3, 4, (2, 1, 1))) == "PinchConfig(n=3, d=4, m=(2, 1, 1))"
    assert repr(FieldSpec()) == "FieldSpec(p=None)"
    assert repr(RATIONALS) == "FieldSpec(p=None)"
    assert repr(GF2) == "FieldSpec(p=2)"
    assert repr(FieldSpec(32003)) == "FieldSpec(p=32003)"
    assert str(GF2) == "GF(2)" and str(RATIONALS) == "QQ"
    assert f"{cfg(2, 5, (2, 3))}" == "PinchConfig(n=2, d=5, m=(2, 3))"


def test_pinch_vector_becomes_a_multidegree():
    config = PinchConfig(n=2, d=5, m=[2, 3])
    assert type(config.m) is Multidegree and config.m == (2, 3)
    assert config == cfg(2, 5, (2, 3))


def test_equality_and_hashing_are_by_value():
    a, b = cfg(3, 4, (2, 1, 1)), PinchConfig(3, 4, (2, 1, 1))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != cfg(3, 4, (1, 2, 1))
    assert len({a, b, cfg(3, 4, (1, 2, 1))}) == 2
    assert FieldSpec(2) == GF2 and hash(FieldSpec(2)) == hash(GF2)
    assert FieldSpec(None) == RATIONALS and FieldSpec(3) != GF2
    assert {FieldSpec(2): "x"}[GF2] == "x"
    table = graded_betti(cfg(2, 4, (2, 2)))
    report = classify(table)
    assert report == classify(graded_betti(cfg(2, 4, (2, 2))))
    assert hash(report) == hash(classify(table))
    assert expected_table(cfg(2, 5, (2, 3))) == expected_table(cfg(2, 5, (2, 3)))
    assert Check("a", "b", True, 1, 1) == Check("a", "b", True, 1, 1)
    assert Check("a", "b", True) != Check("a", "b", False)


@pytest.mark.parametrize("make, name", [
    (lambda: cfg(2, 5, (2, 3)), "n"),
    (lambda: cfg(2, 5, (2, 3)), "m"),
    (lambda: GF2, "p"),
    (lambda: classify(graded_betti(cfg(2, 4, (2, 2)))), "pdim"),
    (lambda: expected_table(cfg(2, 5, (2, 3))), "errata"),
], ids=("config-n", "config-m", "field", "classification", "catalog"))
def test_frozen_records_refuse_assignment(make, name):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.extra = 0  # no per-instance attributes either


def test_pickle_round_trips_the_worker_arguments():
    job = (cfg(3, 4, (2, 1, 1)), GF2, Multidegree((4, 4, 4)))
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(job, protocol))
        assert back == job
        assert [type(x) for x in back] == [PinchConfig, FieldSpec, Multidegree]
        assert type(back[0].m) is Multidegree
    assert pickle.loads(pickle.dumps(RATIONALS)) == RATIONALS


@pytest.mark.parametrize("make, message", [
    (lambda: PinchConfig(1, 3, (3,)), "n must be >= 2, got 1"),
    (lambda: PinchConfig(2, 1, (1, 0)), "d must be >= 2, got 1"),
    (lambda: PinchConfig(2, 3, (1, 1, 1)), "pinch vector (1, 1, 1) has length 3, expected n=2"),
    (lambda: PinchConfig(2, 3, (1, 1)), "pinch vector (1, 1) has total degree 2, expected d=3"),
    (lambda: FieldSpec(4), "4 is not prime"),
    (lambda: FieldSpec.parse("gf(1)"), "1 is not prime"),
    # strong pseudoprimes to the bases 2..23 and 2, 3, 5, 7
    (lambda: FieldSpec(3825123056546413051), "3825123056546413051 is not prime"),
    (lambda: FieldSpec(3215031751), "3215031751 is not prime"),
    # a prime above the bound where Miller-Rabin on 13 bases is exact
    (lambda: FieldSpec(2**89 - 1), "618970019642690137449562111 is too large: "
                                   "primes are decided only below 3317044064679887385961981"),
    # the NamedTuple helpers validate as the constructor does
    (lambda: PinchConfig(2, 3, (1, 2))._replace(d=7),
     "pinch vector (1, 2) has total degree 3, expected d=7"),
    (lambda: PinchConfig._make((1, 3, (3,))), "n must be >= 2, got 1"),
    (lambda: FieldSpec._make((4,)), "4 is not prime"),
    (lambda: GF2._replace(p=6), "6 is not prime"),
], ids=("n", "d", "pinch-length", "pinch-total", "field", "parsed-field",
        "pseudoprime-23", "pseudoprime-7", "field-too-large", "config-replace", "config-make", "field-make", "field-replace"))
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


def test_prime_fields_small_and_large_are_accepted():
    # decided by Miller-Rabin, not by trial division up to the square root
    def accepted(p):
        try:
            FieldSpec(p)
        except ValueError:
            return False
        return True

    assert [p for p in range(-2, 50) if accepted(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert FieldSpec(2**61 - 1).p == 2**61 - 1
    assert FieldSpec.parse("1000000000000000003").p == 10**18 + 3


def test_namedtuple_helpers_build_valid_records():
    config = PinchConfig(2, 3, (1, 2))._replace(d=4, m=(3, 1))
    assert config == cfg(2, 4, (3, 1)) and type(config.m) is Multidegree
    assert PinchConfig._make([3, 2, [1, 1, 0]]) == cfg(3, 2, (1, 1, 0))
    assert FieldSpec._make((5,)) == FieldSpec(5) and RATIONALS._replace(p=2) == GF2


def test_catalogs_without_errata_do_not_share_a_dict():
    a, b = catalog(), catalog()
    assert a.errata == {} and a.errata_details == {}
    assert a.errata is not b.errata and a.errata_details is not b.errata_details
    a.errata[(0, 0)] = 2
    assert b.errata == {}
    assert catalog({(0, 0): 2}).errata == {(0, 0): 2}


def test_classification_json_keeps_field_order():
    report = classify(graded_betti(cfg(2, 4, (2, 2))))
    assert list(report.to_json_obj()) == [
        "pdim", "depth", "krull_dim", "is_cm", "is_gorenstein",
        "linearity_index", "observed_regularity"]


def test_mutable_records_take_positional_arguments():
    config = cfg(2, 4, (2, 2))
    table = BettiTable(config, GF2, 1, 2, {(0, 0): 1})
    assert (table.i_max, table.s_max, table.certified_cones) == (1, 2, 0)
    table.certified_cones = 3
    a, b = VerificationReport(config, GF2), VerificationReport(config, GF2, table=table)
    assert a.checks == [] and a.checks is not b.checks
    assert a.classification is None and b.table is table


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -I ignores PYTHONPATH and user site-packages; modules that site imported
    # before the package are left out by taking the difference
    code = ("import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
            "import pinched_veronese.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    loaded = set(out.split())
    assert "pinched_veronese.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


def test_importing_the_cli_loads_no_file_helpers():
    # -S skips site, whose .pth files can load these modules first; only a
    # run with a cache directory needs them, and only --jobs above 1 a pool
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pinched_veronese.cli; "
            "print(' '.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    loaded = set(out.split())
    assert "pinched_veronese.cli" in loaded
    unwanted = {"tempfile", "shutil", "random", "pathlib", "concurrent.futures"}
    assert not loaded & unwanted, sorted(loaded & unwanted)


def package_modules_after(*statements):
    """The package's modules that a fresh `python -I -S` has loaded after
    running `statements` with the package importable; -S keeps site's .pth
    files from loading anything first.  Their stdout is discarded."""
    code = "\n".join(["import contextlib, io, sys", "sys.path.insert(0, sys.argv[1])",
                      "with contextlib.redirect_stdout(io.StringIO()):",
                      *(f"    {s}" for s in statements),
                      "print(' '.join(sorted(m for m in sys.modules "
                      "if m.startswith('pinched_veronese.'))))"])
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    return {name.removeprefix("pinched_veronese.") for name in out.split()}


def test_importing_the_package_loads_no_module():
    assert package_modules_after("import pinched_veronese") == set()


def test_gens_loads_no_scan_series_or_catalog():
    loaded = package_modules_after(
        "from pinched_veronese.cli import main",
        "main(['gens', '-d', '3', '--pinch', '1', '--format', 'json'])")
    assert "cli" in loaded
    assert not loaded & {"betti", "complexes", "homology", "series", "theorems"}, sorted(loaded)


def test_a_json_table_loads_no_catalog():
    loaded = package_modules_after(
        "from pinched_veronese.cli import main",
        "main(['betti', '-d', '4', '--pinch', '2', '--format', 'json'])")
    assert "betti" in loaded and "theorems" not in loaded, sorted(loaded)


def test_every_exported_name_resolves_on_first_use():
    import pinched_veronese

    assert len(pinched_veronese.__all__) == 52
    names = dir(pinched_veronese)
    for name in pinched_veronese.__all__:
        assert name in names
        assert getattr(pinched_veronese, name) is not None
    assert pinched_veronese.graded_betti is graded_betti
    with pytest.raises(AttributeError, match="nope"):
        pinched_veronese.nope
    from pinched_veronese.betti import DEFAULT_COMPLEX_BUDGET
    from pinched_veronese.errors import DEFAULT_COMPLEX_BUDGET as moved

    assert DEFAULT_COMPLEX_BUDGET is moved
