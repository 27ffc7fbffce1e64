#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the CLI, with cross-checks.

    python3 perfbench/make_reference.py

Each reference table is computed through the CLI under every relabeling the
benchmark's seeds can choose, and written only when:

  * every relabeling of a configuration gives the same table;
  * the d=9 table agrees over GF(2), GF(32003) and QQ;
  * each two-variable table satisfies the exact identity between alternating
    Betti sums and the cleared Hilbert numerator (pinched_veronese.series).

The sweep's own tables come from its JSON reports, whose series-identity
checks must pass.  Takes about two minutes on one core.
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
from pathlib import Path

import run


def cli_json(argv: list[str], workdir: Path, want_code: int = 0) -> dict:
    child = run.run_child(argv, workdir)
    if child.code != want_code:
        sys.exit(f"{' '.join(argv)}: exit code {child.code}\n{child.stderr}")
    return json.loads(child.stdout)


def series_identity_holds(table: dict) -> bool:
    sys.path.insert(0, str(run.SRC))
    from pinched_veronese import BettiTable, FieldSpec, PinchConfig
    from pinched_veronese.series import k_polynomial_check

    config = PinchConfig(table["n"], table["d"], tuple(table["m"]))
    field = FieldSpec.parse("q" if table["field"] == "QQ" else table["field"][3:-1])
    entries = {(i, s): v for i, s, v in table["entries"]}
    return k_polynomial_check(
        BettiTable(config, field, table["i_max"], table["s_max"], entries), config)


def add_table(tables: dict, table: dict) -> None:
    key = run.table_key(table["n"], table["d"], table["m"], table["field"])
    entry = {k: table[k] for k in ("i_max", "s_max", "entries")}
    if tables.setdefault(key, entry) != entry:
        sys.exit(f"{key}: relabelings of one ring give different tables")


def main() -> int:
    tables: dict[str, dict] = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        workdir = Path(tmp)
        gens = cli_json(run.SETUP_ARGV, workdir)["generators"]

        jobs = [["-d", "10", "--pinch", "5"]]
        for spec in ("2", "32003", "q"):
            jobs += [["-d", "9", "--pinch", str(i), "--field", spec] for i in (4, 5)]
        for m in ((2, 1, 0), (1, 1, 1)):
            for perm in sorted(set(itertools.permutations(m))):
                jobs.append(["-n", "3", "-d", "3", "--pinch", ",".join(map(str, perm)),
                             "--smax", "11"])
        for args in jobs:
            table = cli_json(["betti", *args, "--format", "json"], workdir)["table"]
            if table["n"] == 2 and not series_identity_holds(table):
                sys.exit(f"series identity fails for {args}")
            add_table(tables, table)
            print(" ".join(args), "ok", flush=True)
        d9 = [tables[run.table_key(2, 9, (5, 4), label)]
              for label in ("GF(2)", "GF(32003)", "QQ")]
        if any(t != d9[0] for t in d9):
            sys.exit("the d=9 table depends on the field")

        sweep = cli_json(["verify", "--sweep", "n=2,d=3..8", "--format", "json"], workdir, 1)
        for report in sweep["reports"]:
            identity = [c for c in report["checks"] if c["label"] == "series-identity"]
            if [c["passed"] for c in identity] != [True]:
                sys.exit(f"series identity fails in the sweep at {report['m']}")
            add_table(tables, report["table"])
        print("sweep ok", flush=True)

    run.REFERENCE.write_text(json.dumps({"gens": gens, "tables": tables},
                                        sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {run.REFERENCE.relative_to(run.ROOT)} ({len(tables)} tables)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
