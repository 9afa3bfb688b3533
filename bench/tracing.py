"""Spans and counters at the layer boundaries of the chernoff package.

The package has no tracing of its own, so the wrappers live here: each one
replaces a module attribute (the name the callers look up at call time),
records a span with its parent, and updates the layer's counters.  Spans are
kept in memory and written out when the benchmark ends.  A wrapped name that
no longer exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

import numpy as np

SERIES_RADIUS = 8.0  # chernoff.airy switches from the series to asymptotics here

# Per-layer metric names and units, reported once for the setup phase and
# once (per round) for the timed pass.
LAYER_METRICS = [
    ("airy.calls", "count"), ("airy.points", "count"),
    ("airy.points_series", "count"), ("airy.points_asymptotic", "count"),
    ("airy.distinct_ratio", "ratio"), ("airy.self_s", "s"),
    ("airy.points_per_s", "1/s"),
    ("quad.integrals", "count"), ("quad.evaluations", "count"),
    ("quad.evals_per_integral", "count"), ("quad.budget_errors", "count"),
    ("quad.self_s", "s"),
    ("h.calls", "count"), ("h.points", "count"), ("h.self_s", "s"),
    ("phi.calls", "count"), ("phi.self_s", "s"),
    ("g.calls", "count"), ("g.self_s", "s"),
    ("hitting.calls", "count"), ("hitting.self_s", "s"),
    ("cache.residue_s", "s"), ("cache.phi_s", "s"), ("cache.fz_cdf_s", "s"),
    ("cache.g0_s", "s"),
    ("mc.two_sided_s", "s"), ("mc.hitting_s", "s"), ("mc.purebm_s", "s"),
    ("mc.path_steps", "count"), ("mc.path_steps_per_s", "1/s"),
    ("mc.rng_floor_s", "s"),
    ("cli.calls", "count"), ("cli.self_s", "s"),
]
PHASES = ("setup", "pass")
TRACE_METRICS = [
    ("trace.pass_untraced_s", "s"), ("trace.pass_traced_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"),
    ("trace.missing", "count"),
]


def per_layer_names():
    """Every per-layer metric the traced run prints, with its unit."""
    return ([("%s.%s" % (p, n), u) for p in PHASES for n, u in LAYER_METRICS]
            + TRACE_METRICS)


def _airy_args(name, args, kwargs):
    """The Airy arguments one call evaluates: z, and z + shift for the
    log-ratio difference."""
    z = np.atleast_1d(np.asarray(args[0] if args else kwargs["z"],
                                 dtype=np.complex128))
    if name != "log_ai_diff":
        return z.ravel()
    shift = args[1] if len(args) > 1 else kwargs["shift"]
    zb, sb = np.broadcast_arrays(z, np.asarray(shift, dtype=np.float64))
    return np.concatenate([zb.ravel(), (zb + sb).ravel()])


def _airy_counts(name, args, kwargs, result):
    pts = _airy_args(name, args, kwargs)
    n_series = int(np.count_nonzero(np.abs(pts) < SERIES_RADIUS))
    return {"points": pts.size, "points_series": n_series,
            "points_asymptotic": pts.size - n_series,
            "distinct": np.unique(pts).size}


def _quad_counts(name, args, kwargs, result):
    return {"integrals": 1, "evaluations": result.evaluations}


def _points_counts(name, args, kwargs, result):
    return {"points": np.asarray(args[1] if name == "_h_shift" else args[0]).size}


# (layer, module name, attribute, counter); the module names are resolved
# against the imported package when the tracer is installed.
BOUNDARIES = [
    ("airy", "airy", "airy_many", _airy_counts),
    ("airy", "airy", "log_ai_many", _airy_counts),
    ("airy", "airy", "log_ai_diff", _airy_counts),
    ("quad", "densities", "integrate_real_line", _quad_counts),
    ("quad", "densities", "integrate_semi_infinite", _quad_counts),
    ("quad", "densities", "integrate_interval", _quad_counts),
    ("h", "densities", "_h_shift", _points_counts),
    ("h", "densities", "_h_over_shifts", _points_counts),
    ("phi", "densities", "phi", None),
    ("g", "densities", "tilted_g", None),
    ("hitting", "densities", "hitting_prob", None),
    ("cache.residue", "densities", "_residue_data", None),
    ("cache.phi", "densities", "_phi_interp", None),
    ("cache.fz_cdf", "densities", "_fz_cdf_interp", None),
    ("cache.g0", "densities", "_g0_interp", None),
    ("mc.two_sided", "mcsim", "simulate_two_sided", None),
    ("mc.hitting", "mcsim", "estimate_hitting_prob", None),
    ("mc.purebm", "mcsim", "simulate_pure_bm_passage", None),
    ("cli", "cli", "main", None),
]


class Tracer:
    """Installs the boundary wrappers and aggregates their spans."""

    def __init__(self, modules: dict, budget_error: type | None = None):
        self.modules = modules
        self.budget_error = budget_error
        self.spans: list[dict] = []
        self.phase = "setup"
        self.missing: list[str] = []
        self._originals: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for layer, mod_name, attr, counter in BOUNDARIES:
            mod = self.modules.get(mod_name)
            if mod is None or not callable(getattr(mod, attr, None)):
                self.missing.append("%s.%s" % (mod_name, attr))
                continue
            orig = getattr(mod, attr)
            self._originals.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(layer, attr, orig, counter))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._originals):
            setattr(mod, attr, orig)
        self._originals = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, layer, attr, orig, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1]["layer"] == layer:
                # a layer calling itself: counted at the outermost call only
                return orig(*args, **kwargs)
            span = {"id": None, "parent": stack[-1]["id"] if stack else None,
                    "layer": layer, "name": attr, "phase": tracer.phase,
                    "thread": threading.get_ident(), "children": {},
                    "counts": {}}
            with tracer._lock:
                span["id"] = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                if tracer.budget_error and isinstance(exc, tracer.budget_error):
                    span["counts"] = {"budget_errors": 1, "integrals": 1,
                                      "evaluations": exc.result.evaluations}
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if stack and "error" in span:
                    tracer._add_child(stack[-1], layer, span["end"] - span["start"])
            if counter is not None:
                span["counts"] = counter(attr, args, kwargs, result)
            if stack:
                # the counting is tracing cost, not the parent's own work
                tracer._add_child(stack[-1], layer, time.perf_counter() - span["start"])
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    @staticmethod
    def _add_child(parent: dict, layer: str, seconds: float) -> None:
        parent["children"][layer] = parent["children"].get(layer, 0.0) + seconds

    # -- aggregation -------------------------------------------------------

    def layer_totals(self, phase: str) -> dict:
        """Summed calls, self time and counters per layer for one phase.
        Self time is the span minus the spans it caused; a cache build's
        time is its span minus the other cache builds it caused."""
        tot = defaultdict(lambda: defaultdict(float))
        for sp in self.spans:
            if sp["phase"] != phase or "end" not in sp:
                continue
            t = tot[sp["layer"]]
            dur = sp["end"] - sp["start"]
            t["calls"] += 1
            t["span_s"] += dur
            t["self_s"] += dur - sum(sp["children"].values())
            t["build_s"] += dur - sum(v for k, v in sp["children"].items()
                                      if k.startswith("cache."))
            for k, v in sp["counts"].items():
                t[k] += v
        return tot

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tot: dict, scale: float, path_steps: float,
                  rng_floor_s: float) -> dict:
    """Per-layer metric values for one phase; counts and times are divided by
    ``scale`` (the number of traced rounds for the pass)."""
    a, q, h = tot["airy"], tot["quad"], tot["h"]
    mc_s = sum(tot[k]["span_s"] for k in ("mc.two_sided", "mc.hitting", "mc.purebm"))
    vals = {
        "airy.calls": a["calls"], "airy.points": a["points"],
        "airy.points_series": a["points_series"],
        "airy.points_asymptotic": a["points_asymptotic"],
        "airy.self_s": a["self_s"],
        "quad.integrals": q["integrals"], "quad.evaluations": q["evaluations"],
        "quad.budget_errors": q["budget_errors"], "quad.self_s": q["self_s"],
        "h.calls": h["calls"], "h.points": h["points"], "h.self_s": h["self_s"],
        "phi.calls": tot["phi"]["calls"], "phi.self_s": tot["phi"]["self_s"],
        "g.calls": tot["g"]["calls"], "g.self_s": tot["g"]["self_s"],
        "hitting.calls": tot["hitting"]["calls"],
        "hitting.self_s": tot["hitting"]["self_s"],
        "cache.residue_s": tot["cache.residue"]["build_s"],
        "cache.phi_s": tot["cache.phi"]["build_s"],
        "cache.fz_cdf_s": tot["cache.fz_cdf"]["build_s"],
        "cache.g0_s": tot["cache.g0"]["build_s"],
        "mc.two_sided_s": tot["mc.two_sided"]["span_s"],
        "mc.hitting_s": tot["mc.hitting"]["span_s"],
        "mc.purebm_s": tot["mc.purebm"]["span_s"],
        "mc.path_steps": path_steps,
        "mc.rng_floor_s": rng_floor_s,
        "cli.calls": tot["cli"]["calls"], "cli.self_s": tot["cli"]["self_s"],
    }
    vals = {k: v / scale for k, v in vals.items()}
    vals["airy.distinct_ratio"] = _ratio(a["distinct"], a["points"])
    vals["airy.points_per_s"] = _ratio(a["points"], a["self_s"])
    vals["quad.evals_per_integral"] = _ratio(q["evaluations"], q["integrals"])
    vals["mc.path_steps_per_s"] = _ratio(path_steps, mc_s)
    return vals
