"""Per-layer tracing from outside the package.

``Tracer.patch()`` replaces every binding of the traced public functions in
the ``irislab`` modules with a timing wrapper, and restores them on exit.
Spans nest on one stack, so a layer's self time is its spans' time minus the
time of the spans they caused.  Three stand-ins reach below function level:

* the generator that ``geometry.stream`` returns is wrapped in a forwarding
  object that times ``gamma`` calls, counts samples and records each draw
  call, for the redundant-draw share;
* ``montecarlo.math`` becomes a namespace whose ``fsum`` is timed;
* ``montecarlo.ProcessPoolExecutor`` becomes a subclass that counts pools
  and times each from creation to shutdown.

Spans inside forked pool workers stay in the workers and are not collected.
None of this changes a random stream or a result: a traced batch must give
the same CSV digests as an untraced one.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("harness", "analysis", "specfun", "montecarlo", "geometry", "beamforming")

TRACED = {
    "harness": ("run_experiment",),
    "analysis": ("op_closed_form", "op_asymptotic", "op_gamma_approx", "ergodic_rate_meijer"),
    "specfun": ("hyp2f2", "meijer_g_3123"),
    "montecarlo": ("simulate_op", "simulate_ergodic_rate", "af_relay_rate", "df_relay_rate",
                   "optimal_power_split"),
    "geometry": ("stream", "sample_user_distance", "draw_channel"),
    "beamforming": ("solve_beamforming", "solve_passive_weights", "detection_vector",
                    "link_snr"),
}

_ENGINES = ("simulate_op", "simulate_ergodic_rate", "af_relay_rate", "df_relay_rate")

# every counter a summary reports, zero when the batch never touched it
COUNTERS = tuple(
    [f"{layer}.{name}.{kind}"
     for layer, names in list(TRACED.items()) + [("geometry", ("gamma",)), ("montecarlo", ("fsum",))]
     for name in names for kind in ("calls", "busy_s")]
    + ["harness.points", "harness.rows", "harness.point_failures",
       "specfun.hyp2f2.terms", "specfun.hyp2f2.path.series", "specfun.hyp2f2.path.gamma_repr",
       "specfun.meijer_g_3123.path.slater", "specfun.meijer_g_3123.path.contour",
       "montecarlo.trials_requested", "montecarlo.degenerate_draws",
       "montecarlo.pool.created", "montecarlo.pool.busy_s", "geometry.gamma.samples"])


class _TracedGenerator:
    """Forwards to a numpy Generator; times ``gamma`` and records every draw."""

    def __init__(self, gen, tracer, calls):
        self._gen = gen
        self._tracer = tracer
        self._calls = calls

    def gamma(self, *args, **kwargs):
        out = self._tracer.timed("geometry", "gamma", self._gen.gamma, args, kwargs)
        self._tracer.counters["geometry.gamma.samples"] += np.size(out)
        self._calls.append(("gamma", args, tuple(sorted(kwargs.items())), np.size(out)))
        return out

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def forward(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._calls.append((name, args, tuple(sorted(kwargs.items())), np.size(out)))
            return out
        return forward


class Tracer:
    """Counters and per-layer self time for one traced batch."""

    def __init__(self):
        self.counters = defaultdict(float, dict.fromkeys(COUNTERS, 0.0))
        self.self_s = defaultdict(float)
        self._stack = []
        self._streams = []          # (stream key, list of draw calls)

    # -- spans ---------------------------------------------------------------
    def timed(self, layer, name, fn, args, kwargs):
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dt
            self.counters[f"{layer}.{name}.calls"] += 1
            self.counters[f"{layer}.{name}.busy_s"] += dt
            self.self_s[layer] += dt - child

    def _wrap(self, layer, name, fn):
        after = getattr(self, f"_after_{name}", None)
        if name in _ENGINES:
            after = self._after_engine

        def wrapper(*args, **kwargs):
            out = self.timed(layer, name, fn, args, kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    # -- result hooks ---------------------------------------------------------
    def _after_run_experiment(self, result, spec, *args, **kwargs):
        self.counters["harness.points"] += math.prod(len(v) for _, v in spec.sweep)
        self.counters["harness.rows"] += len(result.rows)
        self.counters["harness.point_failures"] += len(result.failures)

    def _after_hyp2f2(self, result, *args, **kwargs):
        self.counters["specfun.hyp2f2.terms"] += result.terms_used
        self.counters[f"specfun.hyp2f2.path.{result.method}"] += 1

    def _after_meijer_g_3123(self, result, *args, **kwargs):
        self.counters[f"specfun.meijer_g_3123.path.{result.method}"] += 1

    def _after_engine(self, est, plan, *args, **kwargs):
        self.counters["montecarlo.trials_requested"] += plan.trials
        self.counters["montecarlo.degenerate_draws"] += est.degenerate_draws

    def _traced_generator(self, gen, master_seed, *key):
        calls = []
        self._streams.append(((int(master_seed),) + tuple(int(k) for k in key), calls))
        return _TracedGenerator(gen, self, calls)

    # -- patching -------------------------------------------------------------
    @contextmanager
    def patch(self):
        """Install the wrappers in every ``irislab`` module, restore on exit."""
        modules = {layer: importlib.import_module(f"irislab.{layer}") for layer in LAYERS}
        saved = []

        def put(module, attr, value):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

        for layer, names in TRACED.items():
            for name in names:
                fn = getattr(modules[layer], name)
                wrapper = self._wrap_stream(fn) if name == "stream" else self._wrap(layer, name, fn)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            put(module, attr, wrapper)
        mc = modules["montecarlo"]
        put(mc, "math", _TimedMath(self))
        put(mc, "ProcessPoolExecutor", _timed_pool(self, mc.ProcessPoolExecutor))
        try:
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def _wrap_stream(self, fn):
        inner = self._wrap("geometry", "stream", fn)

        def wrapper(master_seed, *key):
            return self._traced_generator(inner(master_seed, *key), master_seed, *key)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- summary ---------------------------------------------------------------
    def redundant_draw_share(self) -> float:
        """Share of drawn samples whose stream repeats an earlier one exactly.

        Two streams are the same work only when their key and their whole
        sequence of draw calls (method, arguments, size) match; keying on
        the stream key alone would count differently shaped draws as repeats.
        """
        seen, total, repeated = set(), 0, 0
        for key, calls in self._streams:
            samples = sum(c[-1] for c in calls)
            total += samples
            signature = (key, repr(calls))
            if signature in seen:
                repeated += samples
            else:
                seen.add(signature)
        return repeated / total if total else 0.0

    def summary(self, traced_wall_s: float) -> dict:
        out = dict(self.counters)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        trials = out["montecarlo.trials_requested"]
        degenerate = out["montecarlo.degenerate_draws"]
        out["montecarlo.useful_draw_ratio"] = trials / (trials + degenerate) if trials else 1.0
        out["geometry.redundant_draw_share"] = self.redundant_draw_share()
        out["trace.wall_s"] = traced_wall_s
        out["trace.unattributed_s"] = traced_wall_s - sum(self.self_s[l] for l in LAYERS)
        return out


class _TimedMath:
    """``math`` with a timed ``fsum``."""

    def __init__(self, tracer):
        self._tracer = tracer

    def fsum(self, values):
        return self._tracer.timed("montecarlo", "fsum", math.fsum, (values,), {})

    def __getattr__(self, name):
        return getattr(math, name)


def _timed_pool(tracer, base):
    class TimedPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._t0 = time.perf_counter()
            tracer.counters["montecarlo.pool.created"] += 1

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._t0 is not None:
                    tracer.counters["montecarlo.pool.busy_s"] += time.perf_counter() - self._t0
                    self._t0 = None
    return TimedPool


def median_summary(summaries) -> dict:
    """Per-counter median over the summaries of several traced batches."""
    return {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
