"""Timing wrappers around cadlab's public functions, and the per-layer
metrics computed from the spans they record.

The wrappers replace module and class attributes from outside the package
and are removed again by :meth:`Tracer.uninstall`.  The cadlab modules look
one another's functions up through module attributes at call time, so a
wrapped function is reached from every caller without touching ``src/``.
Functions that a module imports by name at its own import time (for
example ``fixtures`` importing ``piecewise_linear``) are not reached that
way; the ``CadlagPath`` constructor underneath them still is.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: per-layer metrics in report order: name -> unit
LAYER_METRICS = {}


def _declare(names, unit):
    for name in names:
        LAYER_METRICS[name] = unit


CLI_CHECKS = ("ecf_linnik", "fdd_gamma", "hyp_c", "hyp_d", "standardization",
              "lindeberg", "mcleish", "lenglart", "rescaling", "transform_cf",
              "counterexample_m1", "tightness")
_declare([f"cli.check_s.{c}" for c in CLI_CHECKS], "s")
_declare(["cli.cores_used"], "ratio")
_declare(["cli.load_config_ms"], "ms")
_declare(["levy.import_s"], "s")
_declare(["levy.increments_ns_per_cell"], "ns")
_declare(["levy.rescaling_check_s"], "s")
_declare(["levy.weighted_cf_ms"], "ms")
_declare(["levy.generator_calls"], "count")
_declare(["arrays.marginal_samples_ns_per_cell"], "ns")
_declare(["arrays.cells_drawn"], "count")
_declare(["arrays.batch_mb_computed"], "MB")
_declare(["arrays.check_hyp_c_ms_per_rep", "arrays.check_hyp_d_ms_per_rep"],
         "ms")
_declare(["arrays.sample_increments_calls"], "count")
_declare(["arrays.running_sup_ns_per_cell",
          "arrays.check_mcleish_ns_per_cell"], "ns")
_declare(["convtest.ecf_distance_ms", "convtest.ks_two_sample_ms"], "ms")
_declare([f"convtest.{f}_self_ms" for f in
          ("fdd_test", "standardization_test", "lenglart_check",
           "transform_cf_test")], "ms")
_declare(["paths.cadlagpath_inits"], "count")
_declare(["paths.build_us_per_segment"], "us")
_declare(["paths.compose_ms"], "ms")
_declare(["timechange.inverse_us_per_segment"], "us")
_declare(["timechange.inverse_calls"], "count")
_declare(["skorohod.modulus_ms.M", "skorohod.modulus_ms.J",
          "skorohod.oscillation_ms"], "ms")
_declare(["skorohod.modulus_calls"], "count")
_declare(["fixtures.composed_ramp_ms"], "ms")
_declare(["trace.coverage"], "ratio")
_declare(["trace.overhead_s"], "s")

#: metrics that are exact counts of work; they must repeat run to run
COUNT_METRICS = tuple(n for n, u in LAYER_METRICS.items() if u == "count")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _cells(args, kwargs, result):
    """Cells sampled by a call taking (spec, _, samples, ...)."""
    spec = _arg(args, kwargs, 0, "spec")
    return {"cells": _arg(args, kwargs, 2, "samples") * spec.cells}


def _increment_batch(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    samples = _arg(args, kwargs, 2, "samples")
    arrays = (result.dX, result.dA, result.dQV, result.dO)
    return {"cells": samples * spec.cells,
            "bytes": sum(a.nbytes for a in arrays if a is not None)}


def _targets():
    """(owner, attribute, span name, attrs function) for every wrapper."""
    from cadlab import (arrays, cli, convtest, fixtures, levy, paths,
                        skorohod, timechange)

    out = [
        (cli, "run_experiment", "cli.run_experiment", None),
        (cli, "write_report", "cli.write_report", None),
        (levy.RngStream, "generator", "levy.generator", None),
        (levy, "rescaling_check", "levy.rescaling_check", None),
        (levy, "weighted_gamma_subordinated_cf", "levy.weighted_cf", None),
        (arrays, "sample_increments", "arrays.sample_increments",
         _increment_batch),
        (arrays, "marginal_samples", "arrays.marginal_samples", _cells),
        (arrays, "running_sup_samples", "arrays.running_sup_samples",
         _cells),
        (arrays, "check_mcleish", "arrays.check_mcleish", _cells),
        (arrays, "check_hyp_c", "arrays.check_hyp_c",
         lambda a, k, r: {"reps": _arg(a, k, 2, "samples")}),
        (arrays, "check_hyp_d", "arrays.check_hyp_d",
         lambda a, k, r: {"reps": _arg(a, k, 2, "samples")}),
        (arrays, "check_lindeberg", "arrays.check_lindeberg", None),
        (convtest, "ecf_distance", "convtest.ecf_distance",
         lambda a, k, r: {"n": int(np.size(_arg(a, k, 0, "samples"))),
                          "grid": int(np.size(_arg(a, k, 2, "lambda_grid")))}),
        (convtest, "ks_two_sample", "convtest.ks_two_sample",
         lambda a, k, r: {"n": int(np.size(_arg(a, k, 0, "a"))
                                   + np.size(_arg(a, k, 1, "b")))}),
        (paths.CadlagPath, "__init__", "paths.CadlagPath.__init__",
         lambda a, k, r: {"segments": len(_arg(a, k, 3, "segments"))}),
        (paths, "compose", "paths.compose", None),
        (paths, "step_path", "paths.step_path", None),
        (paths, "piecewise_linear", "paths.piecewise_linear", None),
        (timechange, "inverse", "timechange.inverse",
         lambda a, k, r: {"segments": len(_arg(a, k, 0, "A").segments)}),
        (skorohod, "modulus", "skorohod.modulus",
         lambda a, k, r: {"kind": skorohod.TripleKind(
             _arg(a, k, 1, "kind")).value}),
        (skorohod, "oscillation", "skorohod.oscillation", None),
        (skorohod, "empirical_tightness", "skorohod.empirical_tightness",
         None),
        (skorohod, "composition_condition", "skorohod.composition_condition",
         None),
        (fixtures, "composed_ramp", "fixtures.composed_ramp", None),
    ]
    for name in ("fdd_test", "standardization_test", "lenglart_check",
                 "transform_cf_test"):
        out.append((convtest, name, f"convtest.{name}", None))
    for cls in (levy.GammaSpec, levy.InverseGaussianSpec, levy.StableSpec,
                levy.CompoundPoissonSpec, levy.DriftSpec, levy.CompositeSpec):
        out.append((cls, "increments", "levy.increments",
                    lambda a, k, r: {"cells": int(np.size(_arg(a, k, 2, "dl")))}))
    return out


class Tracer:
    """Records spans [name, start, end, parent span, thread, attrs] in
    memory; attrs holds the work a call did (cells, segments, points ...)
    and stays empty when the call raised."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, attrs):
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    threading.get_ident(), {}]
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                spans.append(span)
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        from cadlab import cli

        for owner, attr, name, attrs in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, attrs))
        registry = cli._REGISTRY
        self._saved.append((registry, None, dict(registry)))
        for check, (runner, *rest) in list(registry.items()):
            registry[check] = (self._wrap(f"cli.check.{check}", runner, None),
                               *rest)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)

    def dump(self, path: Path):
        """Write every span as one JSON line; parents are line indices."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[0], "start": s[1], "end": s[2],
                    "parent": None if s[3] is None else index[id(s[3])],
                    "thread": s[4], "run_id": self.run_id, "attrs": s[5],
                }) + "\n")


def _union(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, t0: float, t1: float, cpu_s: float) -> dict:
    """name -> [value, base] for every metric of LAYER_METRICS that a single
    traced repetition yields; a layer that did no work reads 0."""
    by = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        by[s[0]].append(s)
        if s[3] is not None:
            child_time[id(s[3])] += s[2] - s[1]

    def dur(name, where=None):
        return sum(s[2] - s[1] for s in by[name] if where is None or where(s))

    def attr_sum(name, key, where=None):
        return sum(s[5].get(key, 0) for s in by[name]
                   if where is None or where(s))

    def ratio(num, den, factor):
        return num / den * factor if den else 0.0

    def per_call(name, where=None):
        calls = [s for s in by[name] if where is None or where(s)]
        value = ratio(sum(s[2] - s[1] for s in calls), len(calls), 1e3)
        return [value, f"mean of {len(calls)} calls"]

    def per_unit(name, key, factor, unit_name, where=None):
        work = attr_sum(name, key, where)
        return [ratio(dur(name, where), work, factor),
                f"{dur(name, where):.4g} s over {work} {unit_name}"]

    wall = t1 - t0
    m = {}
    for check in CLI_CHECKS:
        calls = by[f"cli.check.{check}"]
        m[f"cli.check_s.{check}"] = [dur(f"cli.check.{check}"),
                                     f"sum of {len(calls)} runner calls"]
    m["cli.cores_used"] = [ratio(cpu_s, wall, 1.0),
                           f"cpu {cpu_s:.4g} s / wall {wall:.4g} s"]
    outer = lambda s: s[3] is None or s[3][0] != "levy.increments"
    m["levy.increments_ns_per_cell"] = per_unit(
        "levy.increments", "cells", 1e9, "cells", outer)
    m["levy.rescaling_check_s"] = [dur("levy.rescaling_check"),
                                   f"{len(by['levy.rescaling_check'])} calls"]
    m["levy.weighted_cf_ms"] = per_call("levy.weighted_cf")
    m["levy.generator_calls"] = [len(by["levy.generator"]), "calls"]
    m["arrays.marginal_samples_ns_per_cell"] = per_unit(
        "arrays.marginal_samples", "cells", 1e9, "cells")
    m["arrays.cells_drawn"] = [attr_sum("arrays.sample_increments", "cells"),
                               "samples x cells over sample_increments calls"]
    batches = [s[5].get("bytes", 0) for s in by["arrays.sample_increments"]]
    m["arrays.batch_mb_computed"] = [max(batches, default=0) / 2**20,
                                     "largest IncrementBatch, from shapes"]
    m["arrays.check_hyp_c_ms_per_rep"] = per_unit(
        "arrays.check_hyp_c", "reps", 1e3, "replicates")
    m["arrays.check_hyp_d_ms_per_rep"] = per_unit(
        "arrays.check_hyp_d", "reps", 1e3, "replicates")
    m["arrays.sample_increments_calls"] = [len(by["arrays.sample_increments"]),
                                           "calls"]
    m["arrays.running_sup_ns_per_cell"] = per_unit(
        "arrays.running_sup_samples", "cells", 1e9, "cells")
    m["arrays.check_mcleish_ns_per_cell"] = per_unit(
        "arrays.check_mcleish", "cells", 1e9, "cells")
    for name, keys in (("ecf_distance", ("n", "grid")),
                       ("ks_two_sample", ("n",))):
        value, base = per_call(f"convtest.{name}")
        sizes = sorted({"x".join(str(s[5].get(k)) for k in keys)
                        for s in by[f"convtest.{name}"]})
        label = "samples x grid" if name == "ecf_distance" else "a+b samples"
        m[f"convtest.{name}_ms"] = [value, f"{base}; {label} {sizes}"]
    for name in ("fdd_test", "standardization_test", "lenglart_check",
                 "transform_cf_test"):
        calls = by[f"convtest.{name}"]
        self_s = sum(s[2] - s[1] - child_time[id(s)] for s in calls)
        m[f"convtest.{name}_self_ms"] = [self_s * 1e3,
                                         f"self time of {len(calls)} calls"]
    m["paths.cadlagpath_inits"] = [len(by["paths.CadlagPath.__init__"]),
                                   "calls"]
    m["paths.build_us_per_segment"] = per_unit(
        "paths.CadlagPath.__init__", "segments", 1e6, "segments")
    m["paths.compose_ms"] = per_call("paths.compose")
    m["timechange.inverse_us_per_segment"] = per_unit(
        "timechange.inverse", "segments", 1e6, "segments")
    m["timechange.inverse_calls"] = [len(by["timechange.inverse"]), "calls"]
    for kind in ("M", "J"):
        m[f"skorohod.modulus_ms.{kind}"] = per_call(
            "skorohod.modulus", lambda s, k=kind: s[5].get("kind") == k)
    m["skorohod.oscillation_ms"] = per_call("skorohod.oscillation")
    m["skorohod.modulus_calls"] = [len(by["skorohod.modulus"]), "calls"]
    m["fixtures.composed_ramp_ms"] = per_call("fixtures.composed_ramp")
    library = [(max(s[1], t0), min(s[2], t1)) for s in spans
               if not s[0].startswith("cli.") and s[2] > t0 and s[1] < t1]
    m["trace.coverage"] = [ratio(_union(library), wall, 1.0),
                           "share of wall_s inside non-cli spans"]
    return m
