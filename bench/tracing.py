"""Span tracer that wraps the public functions of each obgcs layer from outside.

Wrapping rebinds names: every obgcs module that binds a traced function
object gets the wrapper, so ``obgcs.decoders.forward_batch`` is traced as
well as ``obgcs.generator.forward_batch``, and the spans inside ``ls_decode``
separate generator time from the decoder's own matmuls. Methods are wrapped
on their class. Nothing under ``src/`` changes; the original functions are
restored when the tracer is closed.

A span is (id, parent id, name, start, end). Spans stay in memory and are
written once, when the run ends. A span's self time is its duration minus
the durations of its direct children; calls are sequential, so children
never overlap and the self times of one pass add up to the pass's duration.
"""

import functools
import gzip
import importlib
import json
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# layer -> public functions traced in it ("Class.method" for methods)
TRACED = {
    "generator": ("forward_batch", "latent_vjp_batch", "forward", "lipschitz_upper_bound"),
    "measurement": ("sample_ensemble", "observe", "sigma_norm", "CovarianceSpec.cholesky"),
    "decoders": ("ls_decode", "biht_decode", "pv_convex_decode", "project_l1_ball",
                 "hard_threshold", "estimation_error"),
    "theory": ("build_eps_net", "EpsNet.covering_radius_sampled", "check_srec",
               "estimate_local_mean_width", "mean_width_of_directions",
               "concentration_diagnostics"),
    "memorizer": ("build_theorem_generator", "build_indexed_memorizer"),
    "harness": ("run_grid", "fit_scaling", "write_csv", "read_csv"),
    "serialization": ("save_generator", "save_ensemble", "save_observation",
                      "load_generator", "load_ensemble", "load_observation"),
    "cli": ("main",),
}
CLI_SUBCOMMANDS = ("synth-gen", "measure", "decode", "grid", "fit")
# builders whose peak allocation is recorded (tracemalloc runs inside their span)
PEAK_TRACKED = ("theory.build_eps_net", "memorizer.build_theorem_generator")
ROOT = "bench.pass"
MB = float(1 << 20)


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, funcs in TRACED.items():
        if layer == "cli":
            out += [(f"cli.main.{sub}.self_s", "s") for sub in CLI_SUBCOMMANDS]
            continue
        for func in funcs:
            name = f"{layer}.{func}"
            out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
            if name == "generator.lipschitz_upper_bound":
                out.append((f"{name}.cache_hit_frac", "frac"))
            elif name == "theory.build_eps_net":
                out += [(f"{name}.points", "count"), (f"{name}.peak_mb", "MB")]
            elif name == "memorizer.build_theorem_generator":
                out += [(f"{name}.peak_mb", "MB"), (f"{name}.params", "count"),
                        (f"{name}.nonzero_frac", "frac")]
    out += [("serialization.bytes_written", "B"), ("bench.wall_s", "s"),
            ("bench.self_s", "s"), ("bench.trace_overhead_s", "s")]
    return out


class Tracer:
    """Collects spans while active (``with tracer:``) and sums them per name."""

    def __init__(self):
        self.spans = []          # (run id, span id, parent id, name, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)  # counts and sizes observed at boundaries
        self.run_id = None
        self._stack = []         # open spans: [span id, name, start, child time]
        self._restore = []

    # -- spans -------------------------------------------------------------
    def open(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append([sid, name, time.perf_counter(), 0.0])

    def close(self):
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = None
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][3] += dur
        self.spans[sid] = (self.run_id, sid, parent, name, start, end)
        self.calls[name] += 1
        self.self_s[name] += dur - child
        return dur

    def root(self, run_id, fn):
        """Run ``fn`` under a root span; returns (result, duration)."""
        self.run_id = run_id
        self.open(ROOT)
        try:
            result = fn()
        finally:
            dur = self.close()
        return result, dur

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                span = f"cli.main.{argv[0] if argv else '?'}"
            elif name == "generator.lipschitz_upper_bound" and args[0].lipschitz_bound is not None:
                tracer.extra[name + ".cache_hits"] += 1
            peak = name in PEAK_TRACKED and not tracemalloc.is_tracing()
            tracer.open(span)
            if peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                if peak:
                    tracer.extra[name + ".peak_mb"] += tracemalloc.get_traced_memory()[1] / MB
            finally:
                if peak:
                    tracemalloc.stop()
                tracer.close()
            tracer._observe(name, args, kwargs, result)
            return result

        return traced

    def _observe(self, name, args, kwargs, result):
        if name == "theory.build_eps_net":
            self.extra[name + ".points"] += len(result)
        elif name == "memorizer.build_theorem_generator":
            arrays = result.net.weights + result.net.biases
            self.extra[name + ".params"] += sum(a.size for a in arrays)
            self.extra[name + ".nonzero"] += sum(int(np.count_nonzero(a)) for a in arrays)
        elif name.startswith("serialization.save_"):
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.extra["serialization.bytes_written"] += os.path.getsize(path)

    def __enter__(self):
        modules = [importlib.import_module("obgcs")]
        modules += [importlib.import_module(f"obgcs.{m}")
                    for m in ("util", "errors", *TRACED)]
        for layer, funcs in TRACED.items():
            home = importlib.import_module(f"obgcs.{layer}")
            for func in funcs:
                name = f"{layer}.{func}"
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig))
                    continue
                orig = getattr(home, func)
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)
        return False

    # -- results -----------------------------------------------------------
    def per_pass(self, passes, traced_wall, untraced_wall):
        """Per-layer metrics as means over ``passes`` traced passes."""
        values = {}
        for name, unit in per_layer_names():
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = self.calls[base] / passes
            elif kind == "self_s":
                values[name] = self.self_s[ROOT if base == "bench" else base] / passes
            elif kind == "cache_hit_frac":
                calls = self.calls[base]
                values[name] = self.extra[base + ".cache_hits"] / calls if calls else 0.0
            elif kind == "nonzero_frac":
                params = self.extra[base + ".params"]
                values[name] = self.extra[base + ".nonzero"] / params if params else 0.0
            elif name == "bench.wall_s":
                values[name] = traced_wall
            elif name == "bench.trace_overhead_s":
                values[name] = traced_wall - untraced_wall
            else:
                values[name] = self.extra[name] / passes
        return values

    def write(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for run_id, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
