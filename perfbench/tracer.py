"""Run one pinched-veronese CLI command with per-module spans and counters.

Usage: python3 tracer.py SRC_DIR TRACE_JSON -- CLI_ARGS...

The package under SRC_DIR is imported unmodified; this script rebinds the
functions of each ``pinched_veronese`` module to timing or counting wrappers,
in every module namespace that imported them, then calls ``cli.main`` with
CLI_ARGS.  The exit code is the command's.  TRACE_JSON receives:

  layers    self seconds per module (a span's duration minus its child spans)
  linalg    rank calls, entries (rows x cols) and self seconds per field
  counts    exact work counts (see COUNT_KEYS)
  boundary_s, cache_load_s, cache_save_s
            self seconds of boundary_matrix, HomologyCache.__init__ (which
            loads the file) and HomologyCache.save

The layer self times sum to the duration of the cli.main span; the rest of
the process's wall time (interpreter start, imports, this script) is the
caller's to account for.

A function not wrapped here is charged to the nearest wrapped caller, so
``SimplicialComplex.is_cone`` and ``canonical_form`` count as homology (the
cone test and the memo key) and membership tests made while growing a complex
count as complexes.  ``is_member_closed`` is counted but not timed: it runs
hundreds of thousands of times, and a span around each call would swamp the
figures it is meant to explain.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

MODULES = ("semigroup", "complexes", "homology", "linalg", "betti",
           "series", "theorems", "cache", "cli")
FIELDS = ("modp", "gf2", "qq")
# private functions that carry a layer's work under a public caller of another layer
PRIVATE_SPANS = {"complexes": ("_grow_complex",), "homology": ("_compute_profile",)}
COUNT_KEYS = ("semigroup.elements", "semigroup.member_calls",
              "complexes.built", "complexes.faces", "complexes.void",
              "homology.calls", "homology.void_calls", "homology.computed", "homology.cones",
              "cache.hits", "cache.misses", "cache.bytes_written",
              "betti.estimate_cost")


class Tracer:
    def __init__(self):
        self.layers = {name: 0.0 for name in MODULES}
        self.linalg = {f: {"rank_calls": 0, "entries": 0, "self_s": 0.0} for f in FIELDS}
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.boundary_s = 0.0
        self.cache_load_s = 0.0
        self.cache_save_s = 0.0
        self._children = []  # child-span seconds accumulated for each open span

    def span(self, layer, fn, after=None):
        """Wrap fn so its self time is charged to `layer`; `after(args, result, self_s)`."""
        clock = time.perf_counter
        stack = self._children

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - stack.pop()
                self.layers[layer] += own
                if stack:
                    stack[-1] += duration
            if after is not None:
                after(args, result, own)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function hooks -------------------------------------------------

    def _on_rank(self, args, _result, own):
        rows, ncols, field = args
        tag = "qq" if field.is_rationals else ("gf2" if field.p == 2 else "modp")
        stats = self.linalg[tag]
        stats["rank_calls"] += 1
        stats["entries"] += len(rows) * ncols
        stats["self_s"] += own

    def _on_build(self, _args, complex_, _own):
        self.counts["complexes.built"] += 1
        self.counts["complexes.faces"] += len(complex_.faces)
        self.counts["complexes.void"] += complex_.is_void

    def _on_homology(self, args, _result, _own):
        self.counts["homology.calls"] += 1
        self.counts["homology.void_calls"] += args[0].is_void

    def _on_compute(self, _args, _result, _own):
        self.counts["homology.computed"] += 1

    def _on_boundary(self, _args, _result, own):
        self.boundary_s += own

    def _on_enumerate(self, _args, elements, _own):
        self.counts["semigroup.elements"] += len(elements)

    def _on_estimate(self, _args, cost, _own):
        self.counts["betti.estimate_cost"] += cost

    def _on_cache_get(self, _args, hit, _own):
        self.counts["cache.hits" if hit is not None else "cache.misses"] += 1

    def _on_cache_load(self, _args, _result, own):
        self.cache_load_s += own

    def _on_cache_save(self, _args, _result, own):
        self.cache_save_s += own

    def install(self):
        """Rebind every wrapped function in each package module that refers to it."""
        mods = {name: importlib.import_module(f"pinched_veronese.{name}") for name in MODULES}
        hooks = {
            ("linalg", "matrix_rank"): self._on_rank,
            ("complexes", "build_divisor_complex"): self._on_build,
            ("homology", "reduced_homology"): self._on_homology,
            ("homology", "_compute_profile"): self._on_compute,
            ("homology", "boundary_matrix"): self._on_boundary,
            ("semigroup", "enumerate_degree"): self._on_enumerate,
            ("betti", "estimate_cost"): self._on_estimate,
        }
        replaced = {}
        for layer, mod in mods.items():
            qualname = f"pinched_veronese.{layer}"
            for name, obj in vars(mod).items():
                if not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != qualname:
                    continue
                if name.startswith("_") and name not in PRIVATE_SPANS.get(layer, ()):
                    continue
                if inspect.isgeneratorfunction(inspect.unwrap(obj)):
                    continue  # its work runs in the caller's span
                if (layer, name) == ("semigroup", "is_member_closed"):
                    replaced[id(obj)] = self.count("semigroup.member_calls", obj)
                else:
                    replaced[id(obj)] = self.span(layer, obj, hooks.get((layer, name)))
        package = importlib.import_module("pinched_veronese")
        for mod in (*mods.values(), package):
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

        complex_cls = mods["complexes"].SimplicialComplex
        is_cone = complex_cls.is_cone
        counts = self.counts

        def counted_is_cone(c):
            cone = is_cone(c)
            counts["homology.cones"] += cone
            return cone

        complex_cls.is_cone = counted_is_cone

        cache_cls = mods["cache"].HomologyCache
        save = cache_cls.save

        def save_counting_bytes(cache):
            dirty = cache._dirty
            save(cache)
            if dirty:
                counts["cache.bytes_written"] += cache.path.stat().st_size

        cache_cls.__init__ = self.span("cache", cache_cls.__init__, self._on_cache_load)
        cache_cls.get = self.span("cache", cache_cls.get, self._on_cache_get)
        cache_cls.put = self.span("cache", cache_cls.put)
        cache_cls.save = self.span("cache", save_counting_bytes, self._on_cache_save)
        return mods["cli"]

    def to_json_obj(self) -> dict:
        return {"layers": self.layers, "linalg": self.linalg, "counts": self.counts,
                "boundary_s": self.boundary_s, "cache_load_s": self.cache_load_s,
                "cache_save_s": self.cache_save_s}


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    src, out = argv[0], argv[1]
    sys.path.insert(0, src)
    tracer = Tracer()
    cli = tracer.install()
    try:
        code = cli.main(argv[3:])
    finally:
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump(tracer.to_json_obj(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
