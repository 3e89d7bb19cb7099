"""Layer tracing from outside the package.

``Tracer.install()`` replaces selected functions and methods of the
``caplim`` modules with wrappers that time each call as a span and count
the work it did; ``uninstall()`` puts the originals back. A wrapper calls
the original with the same arguments and returns its result unchanged, so
a traced run writes the same artifacts as an untraced one.

Span keys start with the module that owns the code (``measures.ppf.normal``,
``limits.scan``). A span's self time is its duration minus the spans it
called on the same thread. Trajectory runners hand batches to a thread pool
(``limits._indexed_map``); spans on pool threads overlap in time, so the
wall time of each pooled map is shared out over the pool spans in
proportion to their self times. With that, the self times of all spans add
up to the summed duration of the ``cli.main`` calls.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np


class _ThreadState:
    __slots__ = ("stack", "self_s", "counts", "incl_s")

    def __init__(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.incl_s = defaultdict(float)


class _CountingGenerator:
    """Stands in for the ``np.random.Generator`` from ``philox_stream``.

    ``random`` is timed as a ``measures.uniform`` span and counts the
    uniforms it returns; every other attribute is the generator's own.
    """

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def random(self, *args, **kwargs):
        tracer = self._tracer
        st, frame, t0 = tracer._enter()
        try:
            out = self._gen.random(*args, **kwargs)
        finally:
            tracer._exit(st, frame, t0, "measures.uniform")
        st.counts["measures.uniform.draws"] += int(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Span timer and counters over the ``caplim`` modules."""

    def __init__(self):
        self._tls = threading.local()
        self._main = _ThreadState()
        self._tls.state = self._main
        self._patches = []  # (owner, attribute name, original)

    # -- span bookkeeping ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "state", None)
        if st is None:
            st = self._tls.state = _ThreadState()
        return st

    def _enter(self):
        st = self._state()
        frame = [0.0]
        st.stack.append(frame)
        return st, frame, time.perf_counter()

    @staticmethod
    def _exit(st, frame, t0, key) -> float:
        dur = time.perf_counter() - t0
        st.stack.pop()
        if st.stack:
            st.stack[-1][0] += dur
        st.self_s[key] += dur - frame[0]
        return dur

    def _span(self, fn, key_of, after=None):
        """Wrap ``fn`` as a span keyed by ``key_of(args, kwargs, result)``.

        ``result`` is None when ``fn`` raised. ``after(state, args, kwargs,
        result, seconds)`` records counts once the call returned.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st, frame, t0 = self._enter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = self._exit(st, frame, t0, key_of(args, kwargs, result))
                if after is not None:
                    after(st, args, kwargs, result, dur)

        return wrapper

    def _pooled_map(self, original):
        """Wrap ``limits._indexed_map`` so pool-thread spans share its wall time."""

        @functools.wraps(original)
        def indexed_map(fn, items, workers):
            parts = []
            lock = threading.Lock()

            def task(item):
                part = _ThreadState()
                with lock:
                    parts.append(part)
                owner = getattr(self._tls, "state", None)
                self._tls.state = part
                frame = [0.0]
                part.stack.append(frame)
                t0 = time.perf_counter()
                try:
                    return fn(item)
                finally:
                    dur = self._exit(part, frame, t0, "limits.scan")
                    part.incl_s["limits.pool.busy"] += dur
                    self._tls.state = owner

            st, frame, t0 = self._enter()
            try:
                return original(task, items, workers)
            finally:
                wall = time.perf_counter() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += wall
                busy = sum(sum(p.self_s.values()) for p in parts)
                scale = wall / busy if busy > 0 else 0.0
                if busy <= 0:
                    st.self_s["limits.scan"] += wall
                for part in parts:
                    for key, value in part.self_s.items():
                        st.self_s[key] += value * scale
                    for key, value in part.counts.items():
                        st.counts[key] += value
                    for key, value in part.incl_s.items():
                        st.incl_s[key] += value

        return indexed_map

    # -- installing the wrappers ----------------------------------------------

    def _replace(self, owner, name, wrapper):
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _replace_function(self, modules, module, name, wrapper):
        """Rebind a module-level function wherever a caplim module imported it."""
        original = getattr(module, name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapper)

    def install(self) -> None:
        from caplim import bounds, cli, config, dependence, limits, measures, sublinear

        modules = [sys.modules["caplim"], measures, sublinear, dependence,
                   bounds, limits, config, cli]
        engine = sublinear.SublinearEngine

        def fixed(key):
            return lambda args, kwargs, result: key

        def count(key):
            def after(st, args, kwargs, result, seconds):
                st.counts[key] += 1
            return after

        def count_by_key(key_of):
            def after(st, args, kwargs, result, seconds):
                st.counts[_calls_key(key_of(args, kwargs, result))] += 1
            return after

        def inclusive(key):
            def after(st, args, kwargs, result, seconds):
                st.incl_s[key] += seconds
            return after

        def envelope_key(args, kwargs, result):
            sense = args[2] if len(args) > 2 else kwargs["sense"]
            side = "upper_exp" if sense == "max" else "lower_exp"
            return f"sublinear.{side}.{_method(result)}"

        def choquet_key(args, kwargs, result):
            return f"sublinear.choquet.{_method(result)}"

        def ppf_after(st, args, kwargs, result, seconds):
            st.counts[f"measures.ppf.draws.{args[0].kind}"] += int(np.size(result))

        def run_after(st, args, kwargs, result, seconds):
            cfg = args[0]
            st.incl_s[f"limits.run.{cfg.mode}"] += seconds
            st.incl_s["limits.run.capacity"] += seconds * max(int(cfg.workers), 1)

        def parse_after(st, args, kwargs, result, seconds):
            st.counts["config.parse_config.calls"] += 1
            st.incl_s["config.parse_config"] += seconds

        philox_span = self._span(measures.philox_stream, fixed("measures.philox_stream"),
                                 count("measures.philox_stream.builds"))

        @functools.wraps(measures.philox_stream)
        def philox_stream(*args, **kwargs):
            return _CountingGenerator(philox_span(*args, **kwargs), self)

        def function(module, name, key_of, after=None):
            self._replace_function(modules, module, name,
                                   self._span(getattr(module, name), key_of, after))

        def method(cls, name, key_of, after=None):
            self._replace(cls, name, self._span(cls.__dict__[name], key_of, after))

        self._replace_function(modules, measures, "philox_stream", philox_stream)
        function(measures, "uniform_block", fixed("measures.uniform_block"))
        method(measures.Marginal, "ppf", lambda a, k, r: f"measures.ppf.{a[0].kind}",
               ppf_after)
        method(measures.Marginal, "expect", fixed("measures.expect"),
               count("measures.expect.calls"))

        # upper_exp, lower_exp and the capacities all evaluate through here.
        method(engine, "_expectation_report", envelope_key, count_by_key(envelope_key))
        method(engine, "choquet", choquet_key, count_by_key(choquet_key))
        method(engine, "sup_marginal_moment", fixed("sublinear.sup_marginal_moment"))
        function(sublinear, "run_axiom_suite", fixed("sublinear.axiom_suite"))

        function(dependence, "correlate_pairs", fixed("dependence.correlate_pairs"))
        function(dependence, "verify_end", fixed("dependence.verify"),
                 inclusive("dependence.verify_end"))
        function(dependence, "verify_extended_independence", fixed("dependence.verify"))
        method(dependence.SequenceSampler, "draw", fixed("dependence.sampler_draw"))

        for name in _public_functions(bounds):
            function(bounds, name, fixed("bounds"), count("bounds.calls"))

        function(limits, "run_experiment", fixed("limits.scan"), run_after)
        self._replace_function(modules, limits, "_indexed_map",
                               self._pooled_map(limits._indexed_map))
        function(limits, "_transform_chunk", fixed("limits.transform"))

        function(config, "parse_config", fixed("config.parse_config"), parse_after)
        function(cli, "main", fixed("cli.write"), inclusive("cli.main"))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Self seconds, counts and inclusive seconds recorded so far."""
        st = self._main
        return {"self_s": dict(st.self_s), "counts": dict(st.counts),
                "incl_s": dict(st.incl_s)}


def _method(report) -> str:
    return report.method if report is not None else "raised"


def _calls_key(span_key: str) -> str:
    """``sublinear.upper_exp.mc`` -> ``sublinear.upper_exp.calls.mc``."""
    head, method = span_key.rsplit(".", 1)
    return f"{head}.calls.{method}"


def _public_functions(module) -> list[str]:
    return sorted(
        name for name, value in vars(module).items()
        if not name.startswith("_") and callable(value) and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    )
