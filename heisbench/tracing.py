"""Span tracing of heis from outside the package.

`Tracer.install()` replaces the public functions the benchmark measures
with wrappers, at every name a heis module holds them by (so a name that
`heis.verify` imported from `heis.transport` is wrapped too), and the
`volume` methods of the region classes.  `uninstall()` puts the originals
back.  Each wrapped call records a span (name, start, end, parent, counts)
in memory.  Spans nest by a call stack, which is exact only while heis
runs on one thread: the benchmark pins it to one worker.

`layer_metrics(spans, overhead_s)` turns the spans of one round into the
per-layer metrics of BENCHMARK.json.  Every `.s` metric is self time: the
span's duration minus the time of its traced children, so the self times
of all spans add up to the time spent inside traced calls.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

import heis
from heis import core, distortion, geodesy, measures, transport, verify

MODULES = (heis, core, distortion, geodesy, measures, transport, verify)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _pair_table_counts(args, kwargs, out):
    return {"pairs": int(out.dist.size)}


def _midpoint_set_counts(args, kwargs, out):
    A, B = _arg(args, kwargs, 1, "A"), _arg(args, kwargs, 2, "B")
    return {"points_in": len(A) * len(B) - out.skipped, "points_out": len(out.points)}


def _estimate_volume_counts(args, kwargs, out):
    pts = np.atleast_2d(_arg(args, kwargs, 0, "points"))
    return {"points_in": len(pts), "cells_occupied": out.cells_occupied,
            "cells_boundary": out.cells_boundary}


def _sample_uniform_counts(args, kwargs, out):
    return {"points": len(out)}


def _entropy_counts(args, kwargs, out):
    return {"points": len(_arg(args, kwargs, 0, "m").points)}


def _step_counts(args, kwargs, out):
    return {"cells": len(out.regions)}


def _uniform_weights(a, b):
    """The test `solve_exact` applies to pick the assignment path."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    b = b * (a.sum() / b.sum())
    return bool(len(a) == len(b) and np.all(a == a[0]) and np.all(b == b[0])
                and a[0] == b[0])


def _solve_exact_counts(args, kwargs, out):
    a = _arg(args, kwargs, 1, "src_weights")
    b = _arg(args, kwargs, 2, "tgt_weights")
    return {"assignment": int(_uniform_weights(a, b)), "atoms": len(a) + len(b),
            "support": len(out)}


def _interpolate_counts(args, kwargs, out):
    return {"atoms": len(out.points)}


def _tau_counts(args, kwargs, out):
    s, theta = _arg(args, kwargs, 1, "s"), _arg(args, kwargs, 2, "theta")
    return {"evals": int(np.broadcast(np.asarray(s), np.asarray(theta)).size)}


def _reports_counts(args, kwargs, out):
    return {"reports": len(out) if isinstance(out, list) else 1}


# (module, attribute, span name, counter); a dotted attribute is a method
TARGETS = [
    (core, "group_mul", "core.group_mul", None),
    (distortion, "tau", "distortion.tau", _tau_counts),
    (distortion, "tau_tilde", "distortion.tau_tilde", None),
    (distortion, "p_mean", "distortion.p_mean", None),
    (geodesy, "pair_table", "geodesy.pair_table", _pair_table_counts),
    (geodesy, "midpoint_set", "geodesy.midpoint_set", _midpoint_set_counts),
    (geodesy, "angle", "geodesy.scalar", None),
    (geodesy, "midpoint", "geodesy.scalar", None),
    (geodesy, "gamma_inverse", "geodesy.scalar", None),
    (geodesy, "cc_distance", "geodesy.scalar", None),
    (measures, "BoxRegion.volume", "measures.region_volume", None),
    (measures, "CCBallRegion.volume", "measures.region_volume", None),
    (measures, "UnionRegion.volume", "measures.region_volume", None),
    (measures, "sample_uniform", "measures.sample_uniform", _sample_uniform_counts),
    (measures, "estimate_volume", "measures.estimate_volume", _estimate_volume_counts),
    (measures, "renyi_entropy_estimate", "measures.renyi_entropy_estimate",
     _entropy_counts),
    (measures, "step_approximate", "measures.step_approximate", _step_counts),
    (transport, "cost_matrix", "transport.cost_matrix", None),
    (transport, "solve_exact", "transport.solve_exact", _solve_exact_counts),
    (transport, "interpolate", "transport.interpolate", _interpolate_counts),
    (verify, "verify_bmi_sweep", "verify", _reports_counts),
    (verify, "verify_cd_sweep", "verify", _reports_counts),
    (verify, "verify_bbl", "verify", _reports_counts),
    (verify, "step_limit_experiment", "verify", _reports_counts),
    (verify, "cd_functional", "verify", None),
]


class Tracer:
    """Wraps the TARGETS and records one span per wrapped call."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, counts]
        self._stack = []
        self._patches = []   # (owner, attribute, original)

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, out)
            return out

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod, attr, name, counter in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, counter))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, name, counter)
            for owner in MODULES:
                for key, val in list(vars(owner).items()):
                    if val is orig:
                        self._patches.append((owner, key, orig))
                        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []

    def take(self):
        """Spans recorded since the last call, which are then forgotten."""
        if self._stack:
            raise RuntimeError("spans still open")
        out, self.spans[:] = list(self.spans), []
        return out


def self_times(spans):
    """Per-span duration minus the duration of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "geodesy.pair_table.s": ("s", "lower"),
    "geodesy.pair_table.pairs": ("count", "lower"),
    "geodesy.pair_table.pairs_per_s": ("1/s", "higher"),
    "geodesy.midpoint_set.s": ("s", "lower"),
    "geodesy.midpoint_set.points_in": ("count", "lower"),
    "geodesy.midpoint_set.points_out": ("count", "lower"),
    "geodesy.midpoint_set.kept_ratio": ("ratio", "lower"),
    "geodesy.scalar.calls": ("count", "lower"),
    "geodesy.scalar.s": ("s", "lower"),
    "measures.region_volume.calls": ("count", "lower"),
    "measures.region_volume.s": ("s", "lower"),
    "measures.sample_uniform.s": ("s", "lower"),
    "measures.sample_uniform.points": ("count", "lower"),
    "measures.estimate_volume.s": ("s", "lower"),
    "measures.estimate_volume.calls": ("count", "lower"),
    "measures.estimate_volume.points_in": ("count", "lower"),
    "measures.estimate_volume.cells_occupied": ("count", "lower"),
    "measures.estimate_volume.cells_boundary": ("count", "lower"),
    "measures.renyi_entropy_estimate.s": ("s", "lower"),
    "measures.renyi_entropy_estimate.points": ("count", "lower"),
    "measures.step_approximate.s": ("s", "lower"),
    "measures.step_approximate.cells": ("count", "lower"),
    "transport.solve_exact.assignment_s": ("s", "lower"),
    "transport.solve_exact.lp_s": ("s", "lower"),
    "transport.solve_exact.calls": ("count", "lower"),
    "transport.solve_exact.atoms": ("count", "lower"),
    "transport.solve_exact.support": ("count", "lower"),
    "transport.cost_matrix.self_s": ("s", "lower"),
    "transport.interpolate.s": ("s", "lower"),
    "transport.interpolate.atoms": ("count", "lower"),
    "distortion.tau.s": ("s", "lower"),
    "distortion.tau.evals": ("count", "lower"),
    "distortion.tau_tilde.calls": ("count", "lower"),
    "distortion.p_mean.calls": ("count", "lower"),
    "core.group_mul.calls": ("count", "lower"),
    "core.group_mul.s": ("s", "lower"),
    "verify.self_s": ("s", "lower"),
    "verify.reports": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_totals(spans):
    """name -> {"calls", "s" (self time), summed counts} over the spans.

    A call made from inside the same layer (a ball's volume asking for its
    bounding box's, `angle` inverting through `gamma_inverse`) adds its
    time but is not counted as another call."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        name, _, _, parent, counts = span
        agg = out.setdefault(name, {"calls": 0, "s": 0.0})
        agg["calls"] += parent is None or spans[parent][0] != name
        agg["s"] += own
        if name == "transport.solve_exact":
            path = "assignment_s" if counts["assignment"] else "lp_s"
            agg[path] = agg.get(path, 0.0) + own
        for key, val in (counts or {}).items():
            agg[key] = agg.get(key, 0) + val
    return out


def layer_metrics(spans, overhead_s):
    """The per-layer metrics of one traced round (0 where a layer is idle)."""
    tot = layer_totals(spans)

    def get(layer, key):
        return tot.get(layer, {}).get(key, 0)

    pairs, pair_s = get("geodesy.pair_table", "pairs"), get("geodesy.pair_table", "s")
    p_in = get("geodesy.midpoint_set", "points_in")
    p_out = get("geodesy.midpoint_set", "points_out")
    vals = {"trace.overhead_s": overhead_s,
            "geodesy.pair_table.pairs_per_s": pairs / pair_s if pair_s > 0 else 0.0,
            "geodesy.midpoint_set.kept_ratio": p_out / p_in if p_in else 0.0,
            "transport.cost_matrix.self_s": get("transport.cost_matrix", "s"),
            "verify.self_s": get("verify", "s")}
    for metric in PER_LAYER:
        if metric not in vals:
            layer, key = metric.rsplit(".", 1)
            vals[metric] = get(layer, key)
    return vals


def write_jsonl(path, rounds):
    """One line per span; `round` numbers the traced round it belongs to."""
    with open(path, "w") as fh:
        for k, spans in enumerate(rounds):
            for sid, (name, start, end, parent, counts) in enumerate(spans):
                fh.write(json.dumps({"round": k, "id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "counts": counts}) + "\n")
