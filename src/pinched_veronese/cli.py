"""Command-line front end.

Each subcommand computes its result once; main() alone picks the output
format, renders only that one, and writes stdout.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
refusal.  JSON output is schema-versioned and key-sorted; identical inputs
produce identical bytes, warm cache or cold.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from .betti import DEFAULT_COMPLEX_BUDGET, BettiTable, classify, degree_cost, graded_betti
from .cache import SCHEMA_VERSION, HomologyCache
from .complexes import alexander_dual, build_divisor_complex, table_bytes
from .errors import ResourceLimitExceeded
from .homology import (
    boundary_square_is_zero,
    euler_characteristic_matches,
    reduced_homology,
)
from .linalg import FieldSpec
from .semigroup import (
    Multidegree,
    PinchConfig,
    enumerate_degree,
    generate_generators,
    is_member_bruteforce,
    is_member_closed,
)
from .series import (
    canonical_partner,
    canonical_series_check,
    h_polynomial,
    hilbert_closed,
    in_z,
    one_minus_w,
)
from .theorems import expected_table, has_catalog, verify

CACHE_ENV_VAR = "PINCHED_VERONESE_CACHE_DIR"
# largest `hilbert --expand`: the expansion is one list of that many + 1
# integers, held whole and printed whole (8.6 MB of JSON at the cap)
MAX_EXPAND = 1_000_000


def _parse_vector(text: str) -> Multidegree:
    try:
        return Multidegree(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse multidegree {text!r}: {exc}") from None


def _config_from_args(args) -> PinchConfig:
    if args.d is None:
        raise ValueError("-d is required")
    if args.pinch is None:
        raise ValueError("--pinch is required (an index for n=2, or an explicit vector)")
    if "," in args.pinch:
        m = _parse_vector(args.pinch)
        return PinchConfig(args.n, args.d, m)
    if args.n != 2:
        raise ValueError("a bare pinch index is only defined for n=2; pass a vector")
    return PinchConfig.from_pinch_index(args.d, int(args.pinch))


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _require_non_negative(flag: str, value) -> None:
    if value is not None and value < 0:
        raise ValueError(f"{flag} must be non-negative, got {value}")


def _cache_for(args, config, field):
    directory = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    if not directory:
        return None
    path = os.path.abspath(directory)
    while not os.path.exists(path):  # a save makes it; no file may be in the way
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ValueError(f"cache directory {directory!r}: {path!r} is not a directory")
    return HomologyCache(directory, config, field)


def _config_fields(config: PinchConfig) -> dict:
    return {"n": config.n, "d": config.d, "m": list(config.m)}


def _header_and_row(obj: dict) -> list[list]:
    keys = sorted(obj)
    return [keys, [obj[k] for k in keys]]


# -- subcommands -----------------------------------------------------------

# What every subcommand returns: (exit code, JSON payload, text renderer, CSV
# rows with the header first).  The renderer returns the text lines; main()
# calls it only when text output is asked for.
CommandResult = tuple[int, dict, Callable[[], list[str]], list]


def _cmd_gens(args) -> CommandResult:
    config = _config_from_args(args)
    gens = generate_generators(config)
    payload = {**_config_fields(config), "count": len(gens),
               "generators": [list(g) for g in gens]}

    def text():
        return [f"{len(gens)} generators (descending lex), pinch {tuple(config.m)} removed:",
                *(f"  [{i}] {tuple(g)}" for i, g in enumerate(gens))]

    rows = [["index", "generator"],
            *([i, " ".join(str(c) for c in g)] for i, g in enumerate(gens))]
    return 0, payload, text, rows


def _cmd_member(args) -> CommandResult:
    config = _config_from_args(args)
    h = _parse_vector(args.element)
    closed = is_member_closed(h, config)
    payload = {"element": list(h), "member": closed}
    status = 0
    if args.cross_check:
        payload["bruteforce"] = is_member_bruteforce(h, config, degree_cap=args.degree_cap)
        status = int(payload["bruteforce"] != closed)

    def text():
        verdict = "in" if closed else "not in"
        lines = [f"{tuple(h)} is {verdict} the semigroup"]
        if args.cross_check:
            agree = "agrees" if status == 0 else "DISAGREES"
            lines.append(f"bruteforce oracle {agree}: {payload['bruteforce']}")
        return lines

    return status, payload, text, _header_and_row(payload)


def _cmd_hilbert(args) -> CommandResult:
    config = _config_from_args(args)
    _require_non_negative("--expand", args.expand)
    if args.expand is not None and args.expand > MAX_EXPAND:
        raise ResourceLimitExceeded(args.expand, MAX_EXPAND,
                                    f"--expand {args.expand} exceeds the cap {MAX_EXPAND}")
    series = hilbert_closed(config)
    num, den = in_z(series.h, config.d), in_z(one_minus_w(series.e), config.d)
    payload = {**_config_fields(config), "numerator": num, "denominator": den}
    rows = [["part", "coefficients"],
            ["numerator", " ".join(map(str, num))], ["denominator", " ".join(map(str, den))]]
    if args.expand is not None:
        payload["expansion"] = series.series(args.expand)
        rows.append(["expansion", " ".join(map(str, payload["expansion"]))])

    def text():
        lines = [f"Hilbert series of n={config.n} d={config.d} m={tuple(config.m)}:",
                 f"  numerator coefficients:   {num}",
                 f"  denominator coefficients: {den}"]
        if args.expand is not None:
            lines.append(f"  series through z^{args.expand}: {payload['expansion']}")
        return lines

    return 0, payload, text, rows


def _cmd_hpoly(args) -> CommandResult:
    config = _config_from_args(args)
    coeffs = list(h_polynomial(config))
    return (0, {**_config_fields(config), "coarse_coefficients": coeffs},
            lambda: [f"h-polynomial in w = z^{config.d}: {coeffs}"],
            [["s", "coefficient"], *enumerate(coeffs)])


def _scan(args) -> BettiTable:
    config = _config_from_args(args)
    field = FieldSpec.parse(args.field)
    return graded_betti(config, field, args.imax, args.smax,
                        cache=_cache_for(args, config, field), jobs=args.jobs, budget=args.budget)


def _catalog_lines(table: BettiTable) -> list[str]:
    """Each cataloged cell against the table; cells outside its rectangle are
    marked not scanned, and a mismatch shows the erratum where there is one."""
    exp = expected_table(table.config)
    lines = ["cataloged entries:"]
    for (i, s), v in sorted(exp.known.items()):
        got, erratum = table.entry(i, s), exp.errata.get((i, s))
        if i > table.i_max or s > table.s_max:
            mark = "not scanned"
        elif got == v:
            mark = "ok"
        elif erratum is None:
            mark = f"MISMATCH (computed {got})"
        else:
            verdict = "ok" if got == erratum else "MISMATCH"
            mark = f"MISMATCH (computed {got}; erratum {erratum} {verdict})"
        lines.append(f"  betti[{i},{s}] = {v}  [{exp.known_details[(i, s)]}] {mark}")
    for i, s in sorted(exp.unknown):
        if i > table.i_max or s > table.s_max:
            lines.append(f"  betti[{i},{s}] = ?  [no closed form] not scanned")
        else:
            lines.append(f"  betti[{i},{s}] = {table.entry(i, s)}  [no closed form]")
    return lines


def _cmd_betti(args) -> CommandResult:
    table = _scan(args)
    config = table.config
    payload = {"table": table.to_json_obj()}

    def text():
        lines = [f"graded Betti table, n={config.n} d={config.d} m={tuple(config.m)} "
                 f"over {table.field}", table.to_text()]
        if has_catalog(config):
            lines += _catalog_lines(table)
        return lines

    return 0, payload, text, [["i", "s", "value"], *payload["table"]["entries"]]


def _cmd_classify(args) -> CommandResult:
    table = _scan(args)
    config = table.config
    report = classify(table).to_json_obj()
    payload = {**_config_fields(config), "field": table.field.label, **report}

    def text():
        return [f"classification of n={config.n} d={config.d} m={tuple(config.m)}:",
                *(f"  {k}: {v}" for k, v in sorted(report.items()))]

    return 0, payload, text, _header_and_row(report)


def _parse_sweep(spec: str) -> list[PinchConfig]:
    n = None
    d_lo = d_hi = None
    for part in spec.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "n":
            n = int(value)
        elif key == "d":
            if ".." in value:
                lo, hi = value.split("..")
                d_lo, d_hi = int(lo), int(hi)
            else:
                d_lo = d_hi = int(value)
        else:
            raise ValueError(f"unknown sweep key {key!r}")
    if n != 2:
        raise ValueError("sweeps are defined for n=2 (pinch indices)")
    if d_lo is None:
        raise ValueError("sweep needs a d range, e.g. d=3..7")
    if d_lo > d_hi:
        raise ValueError(f"sweep d range {d_lo}..{d_hi} is empty; write it low..high")
    return [PinchConfig.from_pinch_index(d, i)
            for d in range(d_lo, d_hi + 1) for i in range((d + 1) // 2 + 1)]


def _cmd_verify(args) -> CommandResult:
    field = FieldSpec.parse(args.field)
    configs = _parse_sweep(args.sweep) if args.sweep else [_config_from_args(args)]
    reports = [verify(config, field, cache=_cache_for(args, config, field),
                      jobs=args.jobs, budget=args.budget)
               for config in configs]
    any_fail = any(not r.all_pass for r in reports)
    payload = {"all_pass": not any_fail, "reports": [r.to_json_obj() for r in reports]}
    rows = [["n", "d", "m", "check", "result"],
            *([r.config.n, r.config.d, " ".join(map(str, r.config.m)),
               c.label, "pass" if c.passed else "fail"]
              for r in reports for c in r.checks if c.judged)]

    def text():
        if not args.sweep:
            return [r.to_text() for r in reports]
        lines = []
        for r in reports:
            mark = "PASS" if r.all_pass else "FAIL"
            fails = ", ".join(c.label for c in r.failed_checks())
            suffix = f" ({fails})" if fails else ""
            lines.append(f"[{mark}] d={r.config.d} m={tuple(r.config.m)}{suffix}")
        lines.append("=> " + ("all configurations pass" if not any_fail else "failures present"))
        return lines

    return (1 if any_fail else 0), payload, text, rows


def _cmd_canonical(args) -> CommandResult:
    if args.d is None:
        raise ValueError("-d is required")
    t = canonical_partner(args.n, args.d, args.k)
    holds, shift = canonical_series_check(args.n, args.d, args.k)
    payload = {"n": args.n, "d": args.d, "k": args.k,
               "partner": t, "holds": holds, "shift": shift}

    def text():
        verdict = f"monomial quotient holds, shift {shift}" if holds else "monomial quotient FAILS"
        return [f"canonical partner of k={args.k} (n={args.n}, d={args.d}): t = {t}",
                f"series duality: {verdict}"]

    return (0 if holds else 1), payload, text, _header_and_row(payload)


def _cmd_dualcheck(args) -> CommandResult:
    config = _config_from_args(args)
    field = FieldSpec.parse(args.field)
    _require_non_negative("--coarse", args.coarse)
    element = _parse_vector(args.element) if args.element else None
    # each complex is read off a subset table of cap |h|, charged beside it
    cap = element.total if args.element else args.coarse * config.d
    cost = degree_cost(config, None if args.element else args.coarse) + table_bytes(config, cap)
    if cost > args.budget:
        raise ResourceLimitExceeded(cost, args.budget)
    elements = [element] if args.element else enumerate_degree(config, args.coarse)
    failures = []
    checked = 0
    for h in elements:
        c = build_divisor_complex(h, config)
        if c.is_void:
            continue
        checked += 1
        profile = reduced_homology(c, field)
        if not boundary_square_is_zero(c):
            failures.append((h, "boundary composition"))
        if not euler_characteristic_matches(c, profile):
            failures.append((h, "euler characteristic"))
        if c.dim >= 0:  # duality over an empty vertex set degenerates
            dual = alexander_dual(c)
            dual_profile = reduced_homology(dual, field)
            nv = len(c.support())
            span = range(-1, nv + 2)
            if any(dual_profile[i - 2] != profile[nv - i - 1] for i in span):
                failures.append((h, "alexander duality"))
            # the dual is void exactly when c is the full simplex on its
            # support; the involution only applies to non-void complexes.
            # Levels are canonical (bit v is vertex v, lexicographic order),
            # so equal levels are equal face sets.
            if not dual.is_void and alexander_dual(dual, dual.ground).levels != c.levels:
                failures.append((h, "dual involution"))
    payload = {**_config_fields(config), "field": field.label,
               "complexes_checked": checked,
               "failures": [[list(h), why] for h, why in failures]}
    if args.element:  # c is the element's complex, built by the loop
        payload["faces"] = sorted(sorted(f) for f in c.faces)
    rows = [["element", "failure"],
            *([[" ".join(map(str, h)), why] for h, why in failures] or [["-", "none"]])]

    def text():
        return [f"checked {checked} complexes: boundary^2, euler, duality, involution",
                *([f"  FAIL {tuple(h)}: {why}" for h, why in failures] or ["  all pass"])]

    return (1 if failures else 0), payload, text, rows


# -- parser ----------------------------------------------------------------


# Options that several subcommands share, in the order --help lists them.
# Each subcommand takes only the ones its code reads.
SHARED_OPTIONS = {
    "-n": dict(type=int, default=2, help="number of variables (default 2)"),
    "-d": dict(type=int, default=None, help="Veronese degree"),
    "--pinch": dict(help="pinch index (n=2) or explicit vector a,b,..."),
    "--field": dict(default="32003", help="coefficient field: a prime, or q for the rationals"),
    "--format": dict(choices=("text", "json", "csv"), default="text"),
    "--cache-dir": dict(default=None, help=f"profile cache directory (default: ${CACHE_ENV_VAR})"),
    "--jobs": dict(type=_positive_int, default=1, help="parallel homology jobs"),
    "--budget": dict(type=_positive_int, default=DEFAULT_COMPLEX_BUDGET,
                     help="resource budget (complexes x subsets)"),
    "--imax": dict(type=int, default=None, help="largest homological degree"),
    "--smax": dict(type=int, default=None, help="largest coarse degree"),
}
BASE_OPTIONS = ("-n", "-d", "--pinch", "--format")
COMPUTE_OPTIONS = (*BASE_OPTIONS, "--field", "--cache-dir", "--jobs", "--budget")
SCAN_OPTIONS = (*COMPUTE_OPTIONS, "--imax", "--smax")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinched-veronese",
        description="Exact Betti tables, Hilbert series and classification of "
                    "pinched Veronese rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, options, summary):
        p = sub.add_parser(name, help=summary)
        for flag, kwargs in SHARED_OPTIONS.items():
            if flag in options:
                p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    command("gens", _cmd_gens, BASE_OPTIONS, "list the semigroup generators")

    p = command("member", _cmd_member, BASE_OPTIONS, "semigroup membership test")
    p.add_argument("--element", required=True, help="multidegree a,b,...")
    p.add_argument("--cross-check", action="store_true",
                   help="also run the brute-force oracle")
    p.add_argument("--degree-cap", type=int, default=None,
                   help="brute-force degree bound (default 8d)")

    p = command("hilbert", _cmd_hilbert, BASE_OPTIONS, "closed Hilbert series")
    p.add_argument("--expand", type=int, default=None,
                   help="also expand the series through this degree")

    command("hpoly", _cmd_hpoly, BASE_OPTIONS, "h-polynomial (n=2)")
    command("betti", _cmd_betti, SCAN_OPTIONS, "graded Betti table")
    command("classify", _cmd_classify, SCAN_OPTIONS,
            "pdim/depth/CM/Gorenstein/linearity report")

    p = command("verify", _cmd_verify, COMPUTE_OPTIONS,
                "verify cataloged claims against the computed table")
    p.add_argument("--sweep", default=None, help='e.g. "n=2,d=3..7"')

    p = command("canonical", _cmd_canonical, ("-n", "-d", "--format"),
                "canonical partner index and series duality check")
    p.add_argument("-k", type=int, required=True, help="slice index, 0 <= k < d")

    p = command("dualcheck", _cmd_dualcheck, (*BASE_OPTIONS, "--field", "--budget"),
                "boundary/euler/duality property checks on divisor complexes")
    p.add_argument("--coarse", type=int, default=1,
                   help="check every complex at this coarse degree")
    p.add_argument("--element", default=None, help="check one multidegree a,b,...")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, text, rows = args.func(args)
        if args.format == "json":
            out = json.dumps({"schema": SCHEMA_VERSION, "command": args.command, **payload},
                             sort_keys=True, indent=2)
        elif args.format == "csv":
            out = "\n".join(",".join(str(x) for x in row) for row in rows)
        else:
            out = "\n".join(text())
        print(out)
        return code
    except ResourceLimitExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
