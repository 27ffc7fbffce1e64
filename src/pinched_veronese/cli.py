"""Command-line front end.

Each subcommand computes its result once; main() alone picks the output
format, renders only that one, and writes stdout.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
refusal, 141 (128 + SIGPIPE) stdout closed by its reader.  JSON output is
schema-versioned and key-sorted; identical inputs produce identical bytes,
warm cache or cold.

Every command is a fresh process, so each pays only for what it runs.  This
module loads `cache`, `errors`, `linalg` and `semigroup`; each subcommand
imports the rest when it runs (`series` for hilbert, hpoly and canonical,
`betti` for the scans, `theorems` for verify and the betti text catalog,
`complexes` and `homology` for dualcheck).  The parser gives options only to
the subcommand named first, and JSON goes through `_write_json`.  main()
freezes the garbage collector's objects at exit, so the interpreter's final
collection skips them.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Callable

from .cache import SCHEMA_VERSION, HomologyCache
from .errors import DEFAULT_COMPLEX_BUDGET, ResourceLimitExceeded
from .linalg import FieldSpec
from .semigroup import (
    Multidegree,
    PinchConfig,
    enumerate_degree,
    generate_generators,
    is_member_bruteforce,
    is_member_closed,
)

if TYPE_CHECKING:
    from .betti import BettiTable

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
    from .series import hilbert_closed, in_z, one_minus_w

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
    from .series import h_polynomial

    config = _config_from_args(args)
    coeffs = list(h_polynomial(config))
    return (0, {**_config_fields(config), "coarse_coefficients": coeffs},
            lambda: [f"h-polynomial in w = z^{config.d}: {coeffs}"],
            [["s", "coefficient"], *enumerate(coeffs)])


def _scan(args) -> BettiTable:
    from .betti import graded_betti

    config = _config_from_args(args)
    field = FieldSpec.parse(args.field)
    return graded_betti(config, field, args.imax, args.smax,
                        cache=_cache_for(args, config, field), jobs=args.jobs, budget=args.budget)


def _catalog_lines(table: BettiTable) -> list[str]:
    """Each cataloged cell against the table, none when there is no catalog;
    cells outside its rectangle are marked not scanned, and a mismatch shows
    the erratum where there is one."""
    from .theorems import expected_table, has_catalog

    if not has_catalog(table.config):
        return []
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
        return [f"graded Betti table, n={config.n} d={config.d} m={tuple(config.m)} "
                f"over {table.field}", table.to_text(), *_catalog_lines(table)]

    return 0, payload, text, [["i", "s", "value"], *payload["table"]["entries"]]


def _cmd_classify(args) -> CommandResult:
    from .betti import classify

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
    from .theorems import verify

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
    from .series import canonical_partner, canonical_series_check

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
    from .betti import degree_cost
    from .complexes import alexander_dual, build_divisor_complex, table_bytes
    from .homology import boundary_square_is_zero, euler_characteristic_matches, reduced_homology

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
            if not dual.is_void and alexander_dual(dual, dual.ground).bits != c.bits:
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

# name: (function, shared options, summary, its own options after them)
COMMANDS = {
    "gens": (_cmd_gens, BASE_OPTIONS, "list the semigroup generators", {}),
    "member": (_cmd_member, BASE_OPTIONS, "semigroup membership test", {
        "--element": dict(required=True, help="multidegree a,b,..."),
        "--cross-check": dict(action="store_true", help="also run the brute-force oracle"),
        "--degree-cap": dict(type=int, default=None,
                             help="brute-force degree bound (default 8d)")}),
    "hilbert": (_cmd_hilbert, BASE_OPTIONS, "closed Hilbert series", {
        "--expand": dict(type=int, default=None,
                         help="also expand the series through this degree")}),
    "hpoly": (_cmd_hpoly, BASE_OPTIONS, "h-polynomial (n=2)", {}),
    "betti": (_cmd_betti, SCAN_OPTIONS, "graded Betti table", {}),
    "classify": (_cmd_classify, SCAN_OPTIONS, "pdim/depth/CM/Gorenstein/linearity report", {}),
    "verify": (_cmd_verify, COMPUTE_OPTIONS, "verify cataloged claims against the computed table",
               {"--sweep": dict(default=None, help='e.g. "n=2,d=3..7"')}),
    "canonical": (_cmd_canonical, ("-n", "-d", "--format"),
                  "canonical partner index and series duality check",
                  {"-k": dict(type=int, required=True, help="slice index, 0 <= k < d")}),
    "dualcheck": (_cmd_dualcheck, (*BASE_OPTIONS, "--field", "--budget"),
                  "boundary/euler/duality property checks on divisor complexes", {
        "--coarse": dict(type=int, default=1, help="check every complex at this coarse degree"),
        "--element": dict(default=None, help="check one multidegree a,b,...")}),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """Every subcommand with its summary, and options for the one that
    argv[0] names, or for all of them when it names none (help, a usage
    error): the options of the others are never parsed."""
    parser = argparse.ArgumentParser(
        prog="pinched-veronese",
        description="Exact Betti tables, Hilbert series and classification of "
                    "pinched Veronese rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = argv[0] if argv and argv[0] in COMMANDS else None
    for name, (_, shared, summary, own) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if invoked in (None, name):
            for flag, kwargs in SHARED_OPTIONS.items():
                if flag in shared:
                    p.add_argument(flag, **kwargs)
            for flag, kwargs in own.items():
                p.add_argument(flag, **kwargs)
    return parser


def _write_json(obj, out: list[str], indent: str = "\n") -> None:
    """Append the text of json.dumps(obj, sort_keys=True, indent=2) to `out`;
    `indent` is the newline and spaces before obj's closing bracket.

    It checks types in json's order, so subclasses (a Multidegree is a tuple)
    encode as json encodes them, and hands floats, empty containers and what
    json refuses (with its TypeError) to json.dumps, one value each.  Before
    CPython 3.13, json.dumps with an indent runs json's pure-Python encoder.
    """
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)) and obj:
        inner = indent + "  "
        if all(type(x) is int for x in obj):
            out += ("[", inner, ("," + inner).join(map(int.__repr__, obj)), indent, "]")
            return
        sep = "[" + inner
        for x in obj:
            out.append(sep)
            _write_json(x, out, inner)
            sep = "," + inner
        out += (indent, "]")
    elif isinstance(obj, dict) and obj:
        inner = indent + "  "
        sep = "{" + inner
        # keys sort as they are; json.dumps of a one-key dict writes a non-str
        # key (3, True, 1.5) as the string json makes of it, or refuses it
        for key, value in sorted(obj.items()):
            out += (sep, encode_basestring_ascii(key) if isinstance(key, str)
                    else json.dumps({key: 0})[1:-4], ": ")
            _write_json(value, out, inner)
            sep = "," + inner
        out += (indent, "}")
    else:
        out.append(json.dumps(obj))


_freeze_registered = False


def main(argv=None) -> int:
    global _freeze_registered
    if not _freeze_registered:
        # atexit runs its callbacks last in, first out, before the final
        # collection: a worker pool started later shuts down first, and the
        # collection then skips every object that the freeze moved aside
        atexit.register(gc.freeze)
        _freeze_registered = True
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        code, payload, text, rows = COMMANDS[args.command][0](args)
        if args.format == "json":
            chunks: list[str] = []
            _write_json({"schema": SCHEMA_VERSION, "command": args.command, **payload}, chunks)
            out = "".join(chunks)
        elif args.format == "csv":
            out = "\n".join(",".join(str(x) for x in row) for row in rows)
        else:
            out = "\n".join(text())
        try:
            print(out, flush=True)
        except BrokenPipeError:
            # stdout's reader left; the interpreter's last flush writes to nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        return code
    except ResourceLimitExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
