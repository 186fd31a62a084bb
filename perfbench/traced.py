"""Traced pass: run a job list in one process through
``youngfock.cli.main(argv)`` under cProfile and write per-layer numbers.

Usage: python3 perfbench/traced.py JOBS.json OUT.json
(with the package importable, e.g. PYTHONPATH=src).

Nothing under ``src/`` is changed: every number is taken from outside,
at the public functions that bound each layer.
- Every ``functools.lru_cache`` in the package is cleared before each
  job, so cache reuse across jobs matches one fresh process per job;
  hits and misses come from ``cache_info()``.
- Self time is charged to the module that defines the function.  A
  frame outside the package is charged to its nearest package caller,
  except ``fractions`` and whatever it calls, which count as ``rings``
  (scalar arithmetic is ``Fraction`` plus ``Poly``).
- One record per (job, boundary function) holds calls, inclusive and
  self time, and the callers.
"""

from __future__ import annotations

import cProfile
import contextlib
import fractions
import hashlib
import importlib
import io
import json
import os
import pstats
import sys
import time
import traceback
from collections import defaultdict

LAYERS = ("partitions", "fock", "rings", "operators", "measures", "conversion",
          "repstructure", "suites", "cli")

# metric -> (kind, boundary functions as "module:qualname", cache field)
METRICS = {
    "partitions.partitions_of.misses": ("cache", ["partitions:partitions_of"], "misses"),
    "partitions.rim_hooks.misses": ("cache", ["partitions:_rim_hooks"], "misses"),
    "fock.states_built": ("calls", ["fock:MayaState.__post_init__"], None),
    "fock.boson_moves.hits": ("cache", ["fock:boson_moves"], "hits"),
    "fock.boson_moves.misses": ("cache", ["fock:boson_moves"], "misses"),
    "fock.linear_apply.calls": ("calls", ["fock:FockVector.linear_apply"], None),
    "rings.fractions_built": ("calls", ["fractions:Fraction.__new__"], None),
    "rings.poly_mul.calls": ("calls", ["rings:Poly.__mul__"], None),
    "rings.series_exp.calls": ("calls", ["rings:series_exp"], None),
    "rings.divexact.calls": ("calls", ["rings:divexact"], None),
    "operators.exp_raising.calls": ("calls", ["operators:exp_raising"], None),
    "operators.exp_raising.incl_s": ("incl", ["operators:exp_raising"], None),
    "operators.virasoro_state.hits": ("cache", ["operators:_virasoro_state"], "hits"),
    "operators.virasoro_state.misses": ("cache", ["operators:_virasoro_state"], "misses"),
    "operators.m_virasoro_state.misses": ("cache", ["operators:_m_virasoro_state"], "misses"),
    "operators.commutator_check.incl_s": ("incl", ["operators:commutator_check"], None),
    "measures.schur_polynomial.calls": ("calls", ["measures:schur_polynomial"], None),
    "measures.schur_polynomial.incl_s": ("incl", ["measures:schur_polynomial"], None),
    "measures.weight_table.incl_s": ("incl", ["measures:weight_table"], None),
    "conversion.vir_row.calls": ("calls", ["conversion:vir_row"], None),
    "conversion.vir_row.incl_s": ("incl", ["conversion:vir_row"], None),
    "conversion.path_polynomial.calls": ("calls", ["conversion:path_polynomial"], None),
    "repstructure.matrix_of.calls": ("calls", ["repstructure:matrix_of"], None),
    "repstructure.matrix_of.incl_s": ("incl", ["repstructure:matrix_of"], None),
    "repstructure.bareiss_rank.incl_s": ("incl", ["repstructure:bareiss_rank"], None),
    "repstructure.rref_nullspace.incl_s": ("incl", ["repstructure:rref_nullspace"], None),
    "suites.checks": ("calls", ["suites:_check"], None),
    "cli.serialize.incl_s": ("incl", ["cli:_dump", "cli:_emit", "measures:WeightTable.to_json",
                                      "repstructure:DecompositionReport.to_json"], None),
}


def _resolve(path: str):
    """'module:qualname' -> the function object, or None if it is gone."""
    mod, _, qual = path.partition(":")
    obj = importlib.import_module(mod if mod == "fractions" else "youngfock." + mod)
    for part in qual.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _code_key(fn):
    code = getattr(fn, "__wrapped__", fn).__code__
    return code.co_filename, code.co_firstlineno


def _package_caches():
    """Every lru_cache defined at module or class level in the package."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("youngfock"):
            continue
        for value in list(vars(mod).values()):
            members = vars(value).values() if isinstance(value, type) else [value]
            for fn in members:
                if hasattr(fn, "cache_clear") and hasattr(fn, "cache_info") \
                        and getattr(fn, "__module__", "").startswith("youngfock"):
                    found[id(fn)] = fn
    return list(found.values())


class Layers:
    """Maps profiler keys to the layer they are charged to."""

    def __init__(self, package_dir: str):
        self.package_dir = os.path.realpath(package_dir)
        self.fractions_file = os.path.realpath(fractions.__file__)

    def own(self, key):
        filename = key[0]
        if filename.startswith("~") or filename.startswith("<"):
            return None
        real = os.path.realpath(filename)
        if real == self.fractions_file:
            return "rings"
        if os.path.dirname(real) == self.package_dir:
            stem = os.path.splitext(os.path.basename(real))[0]
            return stem if stem in LAYERS else "cli"
        return None

    def self_times(self, stats) -> dict:
        memo = {}

        def shares(key, stack):
            layer = self.own(key)
            if layer:
                return {layer: 1.0}
            if key in memo:
                return memo[key]
            if key in stack or key not in stats:
                return {}
            callers = stats[key][4]
            total = sum(c[3] for c in callers.values())
            out = defaultdict(float)
            for ck, cv in callers.items():
                if total > 0:
                    for layer, f in shares(ck, stack | {key}).items():
                        out[layer] += f * cv[3] / total
            memo[key] = dict(out)
            return memo[key]

        totals = defaultdict(float)
        for key, (_, _, tt, _, callers) in stats.items():
            layer = self.own(key)
            if layer:
                totals[layer] += tt
                continue
            for ck, cv in callers.items():
                for layer, f in shares(ck, frozenset([key])).items():
                    totals[layer] += cv[2] * f
        return totals

    def label(self, key) -> str:
        layer = self.own(key)
        if layer:
            return f"{layer}.{key[2]}"
        return key[2] if key[0].startswith("~") else f"{os.path.basename(key[0])}.{key[2]}"


def run(jobs: list) -> dict:
    import youngfock.cli as cli

    layers = Layers(os.path.dirname(cli.__file__))
    caches = _package_caches()
    boundary = {}
    missing = []
    for path in sorted({p for _, paths, _ in METRICS.values() for p in paths}):
        fn = _resolve(path)
        if fn is None:
            missing.append(path)
        else:
            boundary[path] = fn
    keys = {path: _code_key(fn) for path, fn in boundary.items()}

    metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    metrics.update({m: 0.0 if kind == "incl" else 0 for m, (kind, _, _) in METRICS.items()})
    metrics["cli.out_bytes"] = 0
    records, results = [], []
    for job in jobs:
        for cache in caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        prof = cProfile.Profile()
        error = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            prof.enable()
            try:
                rc = cli.main(job["argv"])
            except Exception:  # a crash is a failed job, reported below
                rc, error = None, traceback.format_exc()
            finally:
                prof.disable()
        wall = time.perf_counter() - t0
        text = out.getvalue().encode()
        results.append({"id": job["id"], "rc": rc, "wall_s": wall, "error": error,
                        "out_bytes": len(text), "out_sha256": hashlib.sha256(text).hexdigest()})
        metrics["cli.out_bytes"] += len(text)

        stats = pstats.Stats(prof).stats
        for layer, t in layers.self_times(stats).items():
            if layer in LAYERS:
                metrics[f"{layer}.self_s"] += t
        by_line = {(k[0], k[1]): k for k in stats}
        for path, code_key in keys.items():
            key = by_line.get(code_key)
            if key is None:
                continue
            _, nc, tt, ct, callers = stats[key]
            records.append({"job": job["id"], "function": path, "calls": nc, "incl_s": ct,
                            "self_s": tt,
                            "callers": {layers.label(ck): cv[0] for ck, cv in callers.items()}})
        for metric, (kind, paths, field) in METRICS.items():
            for path in paths:
                if path not in boundary:
                    continue
                if kind == "cache":
                    metrics[metric] += getattr(boundary[path].cache_info(), field)
                    continue
                key = by_line.get(keys[path])
                if key is not None:
                    metrics[metric] += stats[key][1] if kind == "calls" else stats[key][3]
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units["cli.out_bytes"] = "bytes"
    units.update({m: "s" if kind == "incl" else "count" for m, (kind, _, _) in METRICS.items()})
    return {"jobs": results, "records": records,
            "metrics": {m: [v, units[m]] for m, v in sorted(metrics.items())},
            "missing": missing, "caches": sorted(f"{c.__module__}.{c.__qualname__}" for c in caches)}


def main(argv) -> int:
    jobs_path, out_path = argv
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    report = run(jobs)
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
