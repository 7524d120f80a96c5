"""Layer spans for the traced benchmark run, installed from outside ``src/``.

The layers are the pathkernel modules.  ``Tracer.install()`` replaces every
public function and public method of those modules, under every name the
package looks it up by (``from .rng import ...`` binds a second name), with
a wrapper that opens a span when a call crosses from one layer into another.
Calls inside one layer open no span, so ``<layer>.calls`` counts boundary
crossings.  A layer's self time is the time inside its spans minus the time
inside the spans they open; the self times add up to the root ``cli`` span.

Two arguments are wrapped as well, because the work they carry belongs to
the layer that wrote them, not to the one that calls them:

* the integrand handed to a quadrature routine runs in its own layer, and
  the points it is asked for are counted;
* the task handed to ``parallel.run_blocks`` runs in its own layer and
  returns its duration and worker pid alongside the unchanged result, from
  which the pool's overhead is derived.

The spectral oracle is timed as its own layer, ``oracle``, so that the
Feynman-Kac reduction's self time excludes it.  Spans opened in forked
pool workers stay in the workers; only the task durations come back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "diagnostics", "feynman_kac", "heat_kernel", "manifold",
          "parallel", "path_sampler", "quadrature", "rng")
ORACLE = "oracle"
_ORACLE_NAMES = {"spectral_oracle", "SpectralOracle"}
_QUADRATURE_DRIVERS = {"adaptive_simpson", "integrate_with_expansion", "maximize_scalar"}


def _layer_of(obj, default=None):
    if getattr(obj, "__name__", None) in _ORACLE_NAMES:
        return ORACLE
    layer = getattr(obj, "__module__", "").rpartition(".")[2]
    return layer if layer in LAYERS else default


class Tracer:
    def __init__(self):
        self._stack = []  # open spans as [layer, time covered by child spans]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.pool_s = 0.0
        self.pool_overhead_s = 0.0
        self._tallies = {"heat_kernel": self._tally_points, "path_sampler": self._tally_ensemble}

    # -- spans -----------------------------------------------------------

    def _inside(self, layer):
        return bool(self._stack) and self._stack[-1][0] == layer

    def span(self, layer, fn, args, kwargs, tally=None):
        if self._inside(layer):
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[layer] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
        self.counts[f"{layer}.calls"] += 1
        if tally is not None:
            tally(result)
        return result

    def _tally_points(self, result):
        self.counts["heat_kernel.points"] += int(np.size(result))

    def _tally_ensemble(self, result):
        if not hasattr(result, "kill_step"):
            return
        n, cols = result.positions.shape[:2]
        self.counts["path_sampler.samples"] += n
        self.counts["path_sampler.path_steps"] += n * (cols - 1)
        self.counts["path_sampler.killed"] += int(np.count_nonzero(result.kill_step >= 0))
        self.counts["path_sampler.rejection_rounds"] += int(result.rejection_attempts)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer):
        if layer == "parallel" and fn.__name__ == "run_blocks":
            return self._wrap_run_blocks(fn)
        if layer == "quadrature" and fn.__name__ in _QUADRATURE_DRIVERS:

            def call(*args, **kwargs):
                if not self._inside(layer):
                    args = (self._integrand(args[0]),) + args[1:]
                return self.span(layer, fn, args, kwargs)

        elif layer == "rng" and fn.__qualname__ == "uniforms":
            # every draw funnels through rng.uniforms, nested or not
            def call(*args, **kwargs):
                out = self.span(layer, fn, args, kwargs)
                self.counts["rng.uniform_slots"] += int(np.size(out))
                return out

        else:
            tally = self._tallies.get(layer)

            def call(*args, **kwargs):
                return self.span(layer, fn, args, kwargs, tally)

        return functools.wraps(fn)(call)

    def _integrand(self, f):
        layer = _layer_of(f, default="quadrature")
        tally = self._tallies.get(layer)

        def integrand(x):
            self.counts["quadrature.integrand_points"] += int(np.size(x))
            return self.span(layer, f, (x,), {}, tally)

        return integrand

    def _wrap_run_blocks(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            task = bound.arguments["task"]
            layer = _layer_of(task, default="parallel")

            def timed(first, count):
                t0 = time.perf_counter()
                result = self.span(layer, task, (first, count), {})
                return result, time.perf_counter() - t0, os.getpid()

            bound.arguments["task"] = timed
            t0 = time.perf_counter()
            parts = self.span("parallel", fn, bound.args, bound.kwargs)
            wall = time.perf_counter() - t0
            self.counts["parallel.blocks"] += len(parts)
            busy = defaultdict(float)
            for _, dur, pid in parts:
                busy[pid] += dur
            if set(busy) != {os.getpid()}:
                self.counts["parallel.pools"] += 1
                self.pool_s += wall
                self.pool_overhead_s += wall - max(busy.values())
            return [result for result, _, _ in parts]

        return call

    # -- installation and report --------------------------------------------

    def install(self):
        """Wrap the public functions and methods of every layer module."""
        wrapped = {}
        for name in LAYERS:
            mod = importlib.import_module(f"pathkernel.{name}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType):
                    layer = _layer_of(obj)
                    if layer is None:
                        continue
                    if obj not in wrapped:
                        wrapped[obj] = self._wrap(obj, layer)
                    setattr(mod, attr, wrapped[obj])
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    layer = _layer_of(obj)
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            setattr(obj, meth, self._wrap(fn, layer))

    def report(self):
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "pool_s": self.pool_s,
            "pool_overhead_s": self.pool_overhead_s,
        }
