#!/usr/bin/env python3
"""Benchmark of the pinched-veronese command line, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Run it from the root of a source checkout; the package is imported from
./src.  Every command runs as a fresh child process through the CLI entry
point (``pinched_veronese.cli.main``), one child at a time at --jobs 1, so
each rep starts with empty in-process memos, exactly as a CLI user does.

A rep runs the workload's commands once against a fresh --cache-dir (the
cold pass, which computes and writes the profile cache) and then again a
fixed number of times against the same directory (warm passes, which only
read it).  Every output is checked against reference.json; warm stdout must
be byte-identical to the cold pass.  Only sweep_n2 and cross_field are in
BENCHMARK.json; see README.md for why the other two are run by hand.

The speed of the shared machine this was tuned on drifts by up to 1.7x for
tens of seconds at a time, so every command runs between runs of a fixed
calibration job that imports nothing from the package; a command that runs
longer than SEGMENT_S is stopped every SEGMENT_S for one more.  Each stretch
of a command's wall time is scaled by CALIBRATION_REF_S over the mean of the
two calibrations around it.  Raw wall times are kept in the report and the
record.

--trace 0 prints the end-to-end metrics: wall_s, cold_s and warm_s (medians
over reps of the rep, its cold pass and its mean warm pass), setup_s (median
of SETUP_PROBES_PER_REP trivial `gens` calls before each rep), all scaled,
and peak_rss_mb (the largest child max RSS from wait4, median over reps).
--trace 1 alternates untraced reps with reps whose children run under
tracer.py and prints the per-module metrics.  The last line of stdout is one
JSON object; a record with every sample is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

from tracer import FIELDS, MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
TRACER = HERE / "tracer.py"

# the installed console script does exactly this; the first argument is the
# source directory, so the checkout's code runs whatever else is installed
ENTRY = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
         "from pinched_veronese.cli import main; sys.exit(main())")
SETUP_ARGV = ["gens", "-d", "3", "--pinch", "1", "--format", "json"]
SETUP_PROBES_PER_REP = 2
MIN_REPS = 2
MIN_TRACED_REPS = 2
CHILD_TIMEOUT_S = 150
SWEEP_DEGREES = range(3, 9)
# criterion-1 catalog cells that disagree with the forced values on the sweep
EXPECTED_SWEEP_FAILURES = 20
# Stdlib only: process start, imports, then set and Fraction work like the
# package's.  It takes about CALIBRATION_REF_S on that machine in a typical state.
CALIBRATION = """\
import argparse, fractions, itertools, json
acc = 0
for k in range(2, 8):
    faces = {frozenset(c) for c in itertools.combinations(range(18), k)}
    acc += sum(len(f & {1, 3, 5, 7}) for f in faces)
q = sum(fractions.Fraction(1, n) for n in range(1, 300))
print(acc, q.denominator % 1000003)
"""
CALIBRATION_OUT = "87108 555847\n"
CALIBRATION_REF_S = 0.25
# the machine's fast and slow spells last from seconds to minutes
SEGMENT_S = 2.0

END_TO_END = {"wall_s": "s", "cold_s": "s", "warm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# unscaled, for the report and the record only
RAW_TIMES = {"raw.wall_s": "s", "raw.cold_s": "s", "raw.warm_s": "s", "raw.setup_s": "s",
             "calibration_s": "s"}
COUNTS = (*(f"linalg.{f}.{k}" for k in ("rank_calls", "entries") for f in FIELDS),
          "complexes.built", "complexes.faces", "complexes.void",
          "semigroup.elements", "semigroup.member_calls",
          "homology.calls", "homology.computed", "homology.cones",
          "cache.hits", "cache.misses", "cache.bytes_written", "betti.estimate_cost")
# times that are structurally zero on some workloads; kept in the record
# and the report lines, not in the result line
RECORD_ONLY_TIMES = ("series.self_s", "theorems.self_s",
                     *(f"linalg.{f}.self_s" for f in FIELDS))
PER_LAYER = {
    **{name: "count" for name in COUNTS},
    "homology.memo_hit_ratio": "ratio",
    "homology.cone_ratio": "ratio",
    **{f"{m}.self_s": "s" for m in MODULES if f"{m}.self_s" not in RECORD_ONLY_TIMES},
    "homology.boundary_s": "s",
    "cache.load_s": "s",
    "cache.save_s": "s",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_s": "s",
}


class Mismatch(Exception):
    """A command's exit code or output differs from the reference."""


@dataclass
class Command:
    argv: list[str]
    check: Callable[[int, str], None]


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    trace: dict | None = None
    scaled_s: float = 0.0


@dataclass
class Rep:
    traced: bool
    cold_s: float = 0.0
    warm_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    raw_cold_s: float = 0.0
    raw_warm_s: list[float] = field(default_factory=list)
    raw_wall_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


# -- references and checks --------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def field_label(spec: str) -> str:
    return "QQ" if spec == "q" else f"GF({spec})"


def table_key(n: int, d: int, m, label: str) -> str:
    # relabeling the coordinates gives the same ring, hence the same table
    return f"n{n}-d{d}-m{','.join(map(str, sorted(m, reverse=True)))}-{label}"


def match_table(table: dict, ref: dict, n: int, d: int, m, label: str) -> None:
    shown = (table.get("n"), table.get("d"), tuple(table.get("m", ())), table.get("field"))
    if shown != (n, d, tuple(m), label):
        raise Mismatch(f"table is for {shown}, expected {(n, d, tuple(m), label)}")
    want = ref["tables"][table_key(n, d, m, label)]
    for k in ("i_max", "s_max", "entries"):
        if table.get(k) != want[k]:
            raise Mismatch(f"{k} of {table_key(n, d, m, label)} differs from the reference")


def parse_json(out: str) -> dict:
    try:
        return json.loads(out)
    except ValueError as exc:
        raise Mismatch(f"stdout is not JSON: {exc}") from None


def check_betti(ref: dict, n: int, d: int, m, spec: str):
    def check(code: int, out: str) -> None:
        if code != 0:
            raise Mismatch(f"exit code {code}, expected 0")
        obj = parse_json(out)
        if obj.get("command") != "betti":
            raise Mismatch(f"command {obj.get('command')!r}, expected 'betti'")
        match_table(obj["table"], ref, n, d, m, field_label(spec))
    return check


def criterion_1_failures(d: int, m) -> dict[str, int]:
    """Catalog cells of criterion 1 that must fail, with the value forced there.

    For an interior pinch the h-polynomial and the zero cells force
    beta[d-3,d-1] = C(d-1,2) and beta[d-2,d] = d; the catalog says C(d,2)-1
    and C(d,3)-C(d,2)+1, which agree with the forced value only at d=6.
    """
    if max(m) >= d - 1:
        return {}
    cells = {(d - 3, d - 1): (comb(d - 1, 2), comb(d, 2) - 1),
             (d - 2, d): (d, comb(d, 3) - comb(d, 2) + 1)}
    return {f"betti[{i},{s}]": forced
            for (i, s), (forced, catalog) in cells.items() if forced != catalog}


def sweep_configs() -> list[tuple[int, tuple[int, int]]]:
    return [(d, (i, d - i)) for d in SWEEP_DEGREES for i in range((d + 1) // 2 + 1)]


def check_sweep(ref: dict):
    def check(code: int, out: str) -> None:
        if code != 1:
            raise Mismatch(f"exit code {code}, expected 1 (criterion-1 failures)")
        obj = parse_json(out)
        reports = obj.get("reports", [])
        shown = [(r["d"], tuple(r["m"])) for r in reports]
        if obj.get("all_pass") is not False or shown != sweep_configs():
            raise Mismatch("sweep reports do not cover the expected 24 configurations")
        total = 0
        for r in reports:
            d, m = r["d"], r["m"]
            match_table(r["table"], ref, 2, d, m, "GF(32003)")
            want = criterion_1_failures(d, m)
            failed = {c["label"] for c in r["checks"] if c["passed"] is False}
            if failed != set(want):
                raise Mismatch(f"d={d} m={m}: failed checks {sorted(failed)}, "
                               f"expected {sorted(want)}")
            values = {f"betti[{i},{s}]": v for i, s, v in r["table"]["entries"]}
            for label, forced in want.items():
                if values[label] != forced:
                    raise Mismatch(f"d={d} m={m}: {label} is not the forced value {forced}")
            total += len(failed)
        if total != EXPECTED_SWEEP_FAILURES:
            raise Mismatch(f"{total} failed checks, expected {EXPECTED_SWEEP_FAILURES}")
    return check


def check_gens(ref: dict):
    def check(code: int, out: str) -> None:
        if code != 0:
            raise Mismatch(f"exit code {code}, expected 0")
        if parse_json(out).get("generators") != ref["gens"]:
            raise Mismatch("generator list differs from the reference")
    return check


# -- workloads --------------------------------------------------------------


def betti_n2(rng, ref, d: int, i: int, spec: str = "32003") -> Command:
    i = rng.choice((i, d - i))  # the same ring with the two variables swapped
    argv = ["betti", "-d", str(d), "--pinch", str(i), "--field", spec, "--format", "json"]
    return Command(argv, check_betti(ref, 2, d, (i, d - i), spec))


def betti_n3(rng, ref, d: int, m: tuple[int, ...], smax: int) -> Command:
    perm = rng.sample(range(len(m)), len(m))
    m = tuple(m[p] for p in perm)
    argv = ["betti", "-n", str(len(m)), "-d", str(d), "--pinch", ",".join(map(str, m)),
            "--smax", str(smax), "--format", "json"]
    return Command(argv, check_betti(ref, len(m), d, m, "32003"))


def sweep_n2(rng, ref) -> list[Command]:
    # the sweep enumerates its own pinch indices, so the seed has nothing to relabel
    return [Command(["verify", "--sweep", "n=2,d=3..8", "--format", "json"], check_sweep(ref))]


def table_n2_d10(rng, ref) -> list[Command]:
    return [betti_n2(rng, ref, 10, 5)]


def tables_n3_d3(rng, ref) -> list[Command]:
    return [betti_n3(rng, ref, 3, (2, 1, 0), 11), betti_n3(rng, ref, 3, (1, 1, 1), 11)]


def cross_field(rng, ref) -> list[Command]:
    return [betti_n2(rng, ref, 9, 4, "2"), betti_n2(rng, ref, 9, 4, "q")]


# name -> (commands from the seed, warm passes per rep)
WORKLOADS = {
    "sweep_n2": (sweep_n2, 4),
    "table_n2_d10": (table_n2_d10, 2),
    "tables_n3_d3": (tables_n3_d3, 2),
    "cross_field": (cross_field, 2),
}


# -- children ---------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PINCHED_VERONESE_CACHE_DIR", None)  # a user's cache must not make a run warm
    return env


def cli_command(argv: list[str], trace_path: Path | None = None) -> list[str]:
    if trace_path is None:
        return [sys.executable, "-I", "-c", ENTRY, str(SRC), *argv]
    return [sys.executable, "-I", str(TRACER), str(SRC), str(trace_path), "--", *argv]


def wait_in_segments(proc: subprocess.Popen, segment_s: float | None,
                     pause: Callable[[float], None]):
    """Wait for proc, stopping it after every segment_s of running time.

    pause(seconds run) is called while proc is stopped and once more after it
    exits; returns the exit status, its rusage and the total running time.
    """
    running = 0.0
    with open(os.pidfd_open(proc.pid), "rb", buffering=0) as exited:
        while True:
            start = time.perf_counter()
            done = select.select([exited], [], [], segment_s)[0]
            if not done:
                os.kill(proc.pid, signal.SIGSTOP)
            seg = time.perf_counter() - start
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            running += seg
            pause(seg)
            if not os.WIFSTOPPED(status):
                return status, usage, running
            os.kill(proc.pid, signal.SIGCONT)


def run_child(cmd: list[str], workdir: Path, trace_path: Path | None = None,
              segment_s: float | None = None,
              pause: Callable[[float], None] | None = None) -> Child:
    """Run one process to completion; wall time, exit code and max RSS.

    With pause, the wall time counts only the stretches the process ran; see
    wait_in_segments.
    """
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=workdir)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            if pause is None:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            else:
                status, usage, wall = wait_in_segments(proc, segment_s, pause)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    proc.returncode = os.waitstatus_to_exitcode(status)
    trace = None
    if trace_path is not None and trace_path.exists():
        trace = json.loads(trace_path.read_text())
        trace_path.unlink()
    return Child(code=proc.returncode, wall_s=wall, rss_mb=usage.ru_maxrss / 1024,
                 stdout=stdout, stderr=stderr, trace=trace)


class Meter:
    """Runs CLI commands one at a time, between runs of CALIBRATION.

    An untraced command is also stopped for a calibration after every
    SEGMENT_S it runs; a traced one is not, since its spans would count the
    stop.  Each stretch of its wall time is scaled by CALIBRATION_REF_S over
    the mean of the calibrations just before and just after it, and
    scaled_s is the sum: the time the command would take on a machine that
    ran the calibration job in CALIBRATION_REF_S.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.samples: list[float] = []
        self.calibrate()  # untimed: brings the interpreter and stdlib into the page cache
        self.samples.clear()
        self.before = self.calibrate()

    def calibrate(self) -> float:
        child = run_child([sys.executable, "-I", "-c", CALIBRATION], self.workdir)
        if child.code != 0 or child.stdout != CALIBRATION_OUT:
            raise RuntimeError(f"calibration job failed: exit {child.code}, "
                               f"stdout {child.stdout!r}, stderr {child.stderr.strip()!r}")
        self.samples.append(child.wall_s)
        return child.wall_s

    def run(self, argv: list[str], trace_path: Path | None = None) -> Child:
        scaled = 0.0

        def pause(seconds: float) -> None:
            nonlocal scaled
            after = self.calibrate()
            scaled += seconds * CALIBRATION_REF_S * 2 / (self.before + after)
            self.before = after

        child = run_child(cli_command(argv, trace_path), self.workdir, trace_path,
                          None if trace_path else SEGMENT_S, pause)
        child.scaled_s = scaled
        return child


def flatten_trace(trace: dict) -> dict[str, float]:
    flat = {f"{m}.self_s": trace["layers"][m] for m in MODULES}
    for f in FIELDS:
        for k, v in trace["linalg"][f].items():
            flat[f"linalg.{f}.{k}"] = v
    flat.update(trace["counts"])
    flat["homology.boundary_s"] = trace["boundary_s"]
    flat["cache.load_s"] = trace["cache_load_s"]
    flat["cache.save_s"] = trace["cache_save_s"]
    return flat


def run_rep(commands: list[Command], warm_passes: int, traced: bool, meter: Meter) -> Rep:
    rep = Rep(traced=traced)
    workdir = meter.workdir
    cache_dir = workdir / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cold_out: dict[int, tuple[int, str]] = {}

    def run(idx: int, cmd: Command, warm: bool) -> Child:
        child = meter.run([*cmd.argv, "--cache-dir", str(cache_dir)],
                          workdir / "trace.json" if traced else None)
        rep.attempted += 1
        rep.rss_mb = max(rep.rss_mb, child.rss_mb)
        label = " ".join(cmd.argv) + (" [warm]" if warm else "")
        try:
            if warm:
                if (child.code, child.stdout) != cold_out[idx]:
                    raise Mismatch("warm output differs from the cold pass")
            else:
                cold_out[idx] = (child.code, child.stdout)
                cmd.check(child.code, child.stdout)
            if traced and child.trace is None:
                raise Mismatch("the tracer wrote no trace")
        except (Mismatch, KeyError, TypeError, IndexError) as exc:
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            rep.errors.append(f"{label}: {exc} {tail[0]}".strip())
        if child.trace is not None:
            for k, v in flatten_trace(child.trace).items():
                rep.layers[k] = rep.layers.get(k, 0) + v
        return child

    for idx, cmd in enumerate(commands):
        child = run(idx, cmd, False)
        rep.cold_s += child.scaled_s
        rep.raw_cold_s += child.wall_s
    for _ in range(warm_passes):
        children = [run(idx, cmd, True) for idx, cmd in enumerate(commands)]
        rep.warm_s.append(sum(c.scaled_s for c in children))
        rep.raw_warm_s.append(sum(c.wall_s for c in children))
    rep.wall_s = rep.cold_s + sum(rep.warm_s)
    rep.raw_wall_s = rep.raw_cold_s + sum(rep.raw_warm_s)
    return rep


# -- statistics and reporting -----------------------------------------------


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, ref: dict,
                 workdir: Path) -> dict:
    build, warm_passes = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    commands = build(rng, ref)
    errors: list[str] = []
    attempted = 0
    setup_samples: list[float] = []
    raw_setup_samples: list[float] = []

    check_setup = check_gens(ref)
    run_child(cli_command(SETUP_ARGV), workdir)  # writes bytecode, as installing the package does
    meter = Meter(workdir)

    reps: list[Rep] = []
    start = time.perf_counter()
    last = 0.0
    while True:
        untraced = [r for r in reps if not r.traced]
        traced = [r for r in reps if r.traced]
        if trace:
            enough = len(traced) >= MIN_TRACED_REPS
            want_traced = len(traced) < len(untraced)
        else:
            enough = len(reps) >= MIN_REPS
            want_traced = False
        rep_start = time.perf_counter()
        if enough and rep_start - start + last > seconds:
            break
        # probes are spread over the run: the machine's speed drifts within seconds
        for _ in range(0 if trace else SETUP_PROBES_PER_REP):
            child = meter.run(SETUP_ARGV)
            attempted += 1
            setup_samples.append(child.scaled_s)
            raw_setup_samples.append(child.wall_s)
            try:
                check_setup(child.code, child.stdout)
            except (Mismatch, KeyError, TypeError) as exc:
                errors.append(f"gens: {exc}")
        rng.shuffle(commands)
        reps.append(run_rep(commands, warm_passes, want_traced, meter))
        attempted += reps[-1].attempted
        errors.extend(reps[-1].errors)
        last = time.perf_counter() - rep_start

    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    samples = {
        "wall_s": [r.wall_s for r in untraced],
        "cold_s": [r.cold_s for r in untraced],
        "warm_s": [statistics.fmean(r.warm_s) for r in untraced],
        "peak_rss_mb": [r.rss_mb for r in untraced],
    }
    if trace:
        counts = [{k: r.layers[k] for k in COUNTS} for r in traced]
        if any(c != counts[0] for c in counts):
            errors.append("per-layer counts differ between traced reps of one seed")
        for before, r in zip(reps, reps[1:]):
            if not r.traced:
                continue
            lay = r.layers
            lay["trace.wall_s"] = r.raw_wall_s
            lay["trace.remainder_s"] = r.raw_wall_s - sum(lay[f"{m}.self_s"] for m in MODULES)
            # each traced rep follows an untraced one, so both see the same machine state
            lay["trace.overhead_s"] = r.raw_wall_s - before.raw_wall_s
            lay["homology.memo_hit_ratio"] = (
                (lay["homology.calls"] - lay["homology.void_calls"] - lay["homology.computed"])
                / lay["homology.calls"] if lay["homology.calls"] else 0.0)
            lay["homology.cone_ratio"] = (lay["homology.cones"] / lay["homology.computed"]
                                          if lay["homology.computed"] else 0.0)
        for k in (*PER_LAYER, *RECORD_ONLY_TIMES):
            samples[k] = [r.layers[k] for r in traced]
        units = {**PER_LAYER, **{k: "s" for k in RECORD_ONLY_TIMES}}
    else:
        samples["setup_s"] = setup_samples
        samples["raw.wall_s"] = [r.raw_wall_s for r in untraced]
        samples["raw.cold_s"] = [r.raw_cold_s for r in untraced]
        samples["raw.warm_s"] = [statistics.fmean(r.raw_warm_s) for r in untraced]
        samples["raw.setup_s"] = raw_setup_samples
        samples["calibration_s"] = meter.samples
        units = {**END_TO_END, **RAW_TIMES}
    stats = {k: summarize(samples[k]) for k in units}
    return {"workload": name, "seed": seed, "trace": int(trace), "units": units,
            "stats": stats, "errors": errors, "attempted": attempted,
            "reps": [vars(r) for r in reps]}


def result_line(runs: list[dict], prefix: bool) -> dict:
    metrics = {}
    for run in runs:
        keys = PER_LAYER if run["trace"] else END_TO_END
        for k in keys:
            name = f"{run['workload']}.{k}" if prefix else k
            metrics[name] = {"value": run["stats"][k]["median"], "unit": run["units"][k]}
    failed = sum(len(r["errors"]) for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def report_lines(run: dict) -> list[str]:
    lines = []
    for k, unit in run["units"].items():
        s = run["stats"][k]
        lines.append(f"{run['workload']:<13} {k:<28} {s['median']:>14.6g} {unit:<6} "
                     f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    failed, attempted = len(run["errors"]), run["attempted"]
    lines.append(f"{run['workload']:<13} {'error_rate':<28} {failed / attempted:>14.6g} "
                 f"ratio  ({failed} of {attempted} commands wrong or failed)")
    lines.extend(f"{run['workload']:<13} ERROR {e}" for e in run["errors"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pinched_veronese" / "cli.py").is_file():
        print(f"no pinched_veronese sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"missing {REFERENCE}", file=sys.stderr)
        return 2
    ref = load_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    load_start = os.getloadavg()
    runs = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), ref, Path(tmp))
            runs.append(run)
            print("\n".join(report_lines(run)), flush=True)
    result = result_line(runs, prefix=args.workload == "all")
    record = {
        "python": sys.version, "nproc": os.cpu_count(), "git_sha": git_sha(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "args": vars(args), "runs": runs, "result": result,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
