"""What each CLI process pays for besides its answer: the exit hook that lets
the interpreter's final collection skip every object, the parser that gives
options only to the invoked subcommand, and the JSON writer that stands in
for json.dumps with an indent; and how it ends when its reader leaves."""

from __future__ import annotations

import atexit
import contextlib
import gc
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pinched_veronese import DEFAULT_FIELD, HomologyCache, Multidegree, PinchConfig
from pinched_veronese import cli
from pinched_veronese.cli import COMMANDS, _write_json, build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"
# what the installed console script runs, with the source directory first
ENTRY = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
         "from pinched_veronese.cli import main; sys.exit(main())")


def run_process(*argv):
    return subprocess.run([sys.executable, "-I", "-c", ENTRY, str(SRC), *argv],
                          capture_output=True, timeout=60)


def test_a_reader_that_leaves_early_gets_exit_141_and_no_traceback():
    # the sweep's JSON is larger than a pipe buffer, so the write is still
    # running when the reader closes after one line
    argv = ["verify", "--sweep", "n=2,d=3..8", "--format", "json"]
    with subprocess.Popen([sys.executable, "-I", "-c", ENTRY, str(SRC), *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


# -- the exit hook ------------------------------------------------------------


def test_main_registers_the_exit_freeze_once(monkeypatch, capsys):
    registered = []
    monkeypatch.setattr(atexit, "register", registered.append)
    monkeypatch.setattr(cli, "_freeze_registered", False)
    for _ in range(2):
        assert main(["gens", "-d", "3", "--pinch", "1"]) == 0
    assert registered == [gc.freeze]
    assert gc.isenabled()


def test_a_pool_run_exits_with_its_workers_and_one_jobs_bytes():
    # a worker that outlived the parent would hold the pipe open: a timeout
    argv = ["betti", "-d", "10", "--pinch", "5", "--format", "csv"]
    pool, single = run_process(*argv, "--jobs", "2"), run_process(*argv, "--jobs", "1")
    assert pool.returncode == single.returncode == 0, pool.stderr
    assert pool.stdout == single.stdout and pool.stderr == b""
    assert len(pool.stdout.splitlines()) > 100


def test_a_process_leaves_a_cache_with_a_column_per_degree(tmp_path):
    done = run_process("betti", "-d", "6", "--pinch", "2", "--format", "json",
                       "--cache-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    s_max = json.loads(done.stdout)["table"]["s_max"]
    cache = HomologyCache(tmp_path, PinchConfig.from_pinch_index(6, 2), DEFAULT_FIELD)
    assert len(cache) == s_max + 1
    assert all(cache.get(s) is not None for s in range(s_max + 1))


# -- the parser ---------------------------------------------------------------

CHOICES = "{" + ",".join(COMMANDS) + "}"


def outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    *([name, "--bogus"] for name in COMMANDS),
    ["betti", "-d", "5", "--pinch", "1", "extra"],
    ["member", "-d", "3", "--pinch", "1"],
    ["canonical", "-d", "5"],
    [],
    ["bogus"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_errors_match_the_parser_with_every_option(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = outcome(main, argv)
    assert (code, out, err) == outcome(build_parser().parse_args, argv)
    assert code == 2 and out == "" and err.startswith("usage: pinched-veronese")
    if "unrecognized arguments" in err:  # the top-level usage, with all nine choices
        assert CHOICES in err


# -- the JSON writer ----------------------------------------------------------


def write(obj) -> str:
    out = []
    _write_json(obj, out)
    return "".join(out)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


awkward = st.text(st.sampled_from('aZ"\\/\x00\x1f\x7f\n\té☃\U0001d11e'), max_size=6)
strings = awkward | st.text(max_size=6)
scalars = (st.none() | st.booleans() | strings | st.floats()
           | st.integers() | st.integers(-2 ** 80, 2 ** 80))
old_keys = st.integers(-20, 20) | st.booleans() | st.floats(allow_nan=False)
trees = st.recursive(scalars, lambda children: (
    st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.lists(st.integers(0, 2 ** 70), max_size=4).map(Multidegree)
    | st.lists(st.integers(-3, 3) | st.booleans(), max_size=4)
    | st.dictionaries(strings, children, max_size=4)
    | st.dictionaries(old_keys, children, max_size=4)
), max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_writer_matches_json_dumps(obj):
    assert write(obj) == dumps(obj)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[], {}]],
    math.nan, [math.inf, -math.inf, math.nan, -0.0, 1e300],
    {10: 0, 9: 1, 2.5: 2, True: 3, False: 4}, {None: 1}, {"b": 1, "a": {"z": [1, 2]}},
    [1, True, None, 2], Multidegree((3, 0, 2)), (1, (2, "x")),
], ids=repr)
def test_writer_matches_json_dumps_on_edge_cases(obj):
    assert write(obj) == dumps(obj)


@pytest.mark.parametrize("obj", [{1, 2}, [1, {2}], {(1, 2): 0}, {1: 0, "a": 0}, object()],
                         ids=("set", "nested-set", "tuple-key", "mixed-keys", "object"))
def test_writer_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError) as expected:
        dumps(obj)
    with pytest.raises(TypeError) as got:
        write(obj)
    assert str(got.value) == str(expected.value)


def test_writer_matches_json_dumps_on_the_sweep_payload():
    argv = ["verify", "--sweep", "n=2,d=3..8", "--format", "json"]
    args = build_parser(argv).parse_args(argv)
    code, payload, _, _ = COMMANDS[args.command][0](args)
    assert code == 1 and len(payload["reports"]) == 24
    assert write(payload) == dumps(payload)
    assert len(dumps(payload)) > 150_000
