"""Spans around calls into hidacur's layers, recorded from outside the library.

Tracer.install() replaces each traced function with a wrapper in every
hidacur module namespace that binds it (integrate_singular, for one, is
imported by name into stransform, chaos and experiments), and on the classes
for methods.  Montecarlo worker threads look their functions up as module
globals, so they see the wrappers too.  Integrands handed to
integrate_singular are wrapped as spans of the calling layer, so quad's self
time is the quadrature's own bookkeeping.

A span is (id, name, start, end, parent id, op id, thread id).  Spans stay
in memory, in flat arrays, until write() dumps them at the end of the run.
A layer's self time is the time of its spans minus the time of their child
spans on the same thread.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
from array import array
from collections import defaultdict
from itertools import count
from time import perf_counter

def _traced_functions():
    """(layer, owner, attribute, span name) for every wrapped callable."""
    from hidacur import chaos, montecarlo, quad, schwartz, special, stransform

    tf, uf = schwartz.TestFunction, stransform.UFunctional
    return [
        ("schwartz", schwartz, "hermite_values", "schwartz.hermite_values"),
        ("schwartz", schwartz, "hermite_antiderivatives",
         "schwartz.hermite_antiderivatives"),
        *[("schwartz", tf, m, f"schwartz.{m}")
          for m in ("eval", "eval_all", "cumulative", "cumulative_all",
                    "l2_norm", "l2_norm_on_interval", "sup_norm",
                    "combined_norm")],
        ("special", special, "upper_incomplete_gamma",
         "special.upper_incomplete_gamma"),
        ("special", special, "singular_mass_closed",
         "special.singular_mass_closed"),
        ("quad", quad, "integrate_singular", "quad.integrate_singular"),
        ("stransform", stransform, "s_current", "stransform.s_current"),
        ("stransform", stransform, "s_current_mollified", "stransform.mollified"),
        ("stransform", stransform, "s_donsker", "stransform.s_donsker"),
        ("stransform", stransform, "current_ufunctional",
         "stransform.current_ufunctional"),
        ("stransform", stransform, "donsker_ufunctional",
         "stransform.donsker_ufunctional"),
        ("stransform", stransform, "wick_integrand_ufunctional",
         "stransform.wick_integrand_ufunctional"),
        ("stransform", stransform, "fit_ufunctional_bound", "stransform.fit_bound"),
        ("stransform", uf, "__call__", "stransform.ufunctional"),
        ("chaos", chaos, "extract_chaos_pairing", "chaos.extract"),
        ("chaos", chaos, "first_chaos_pairing_closed", "chaos.closed_first"),
        ("chaos", chaos, "second_chaos_pairing_closed", "chaos.closed_second"),
        ("montecarlo", montecarlo, "mc_s_transform", "montecarlo.mc_s_transform"),
        ("montecarlo", montecarlo, "_block_moments", "montecarlo.block"),
        ("montecarlo", montecarlo, "simulate_increments", "montecarlo.rng"),
        ("montecarlo", montecarlo, "mollified_current_sample",
         "montecarlo.kernel"),
    ]


class Tracer:
    def __init__(self):
        self.op = -1  # id of the benchmark op in progress
        self.calls = defaultdict(int)      # span name -> calls
        self.total = defaultdict(float)    # span name -> inclusive seconds
        self.self_time = defaultdict(float)  # layer -> self seconds
        self.entries = defaultdict(int)    # layer -> calls from another layer
        self.errors = defaultdict(int)     # (span name, exception) -> count
        self.counts = defaultdict(int)     # work counters
        self._names = {}
        self._cols = {k: array(t) for k, t in (
            ("id", "q"), ("name", "H"), ("start", "d"), ("end", "d"),
            ("parent", "q"), ("op", "q"), ("thread", "Q"))}
        self._ids = count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    @property
    def n_spans(self):
        return len(self._cols["id"])

    def add(self, key, value):
        with self._lock:
            self.counts[key] += value

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, layer, name, fn, on_call=None, on_return=None):
        """fn with a span around each call.

        on_call(args, kwargs, parent_frame) may return replacement args;
        on_return(args, kwargs, result) sees each successful result.
        """
        tracer = self
        name_id = self._names.setdefault(name, len(self._names))

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if on_call is not None:
                args, kwargs = on_call(args, kwargs, parent)
            frame = [next(tracer._ids), layer, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.add_error(name, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(frame, parent, name_id, start, end)
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return traced

    def add_error(self, name, exc):
        with self._lock:
            self.errors[(name, type(exc).__name__)] += 1

    def _close(self, frame, parent, name_id, start, end):
        dur = end - start
        layer = frame[1]
        if parent is not None:
            parent[3] += dur
        cols = self._cols
        with self._lock:
            self.calls[frame[2]] += 1
            self.total[frame[2]] += dur
            self.self_time[layer] += dur - frame[3]
            if parent is None or parent[1] != layer:
                self.entries[layer] += 1
            cols["id"].append(frame[0])
            cols["name"].append(name_id)
            cols["start"].append(start)
            cols["end"].append(end)
            cols["parent"].append(parent[0] if parent is not None else 0)
            cols["op"].append(self.op)
            cols["thread"].append(threading.get_ident())

    # -- installing the wrappers --------------------------------------------

    def _hooks(self, name):
        def points(args, kwargs, out):
            if out.shape[0]:
                self.add("schwartz.points", out.size // out.shape[0])

        def integrand(args, kwargs, parent):
            layer = parent[1] if parent is not None else "bench"
            f = self.wrap(layer, f"{layer}.integrand", args[0])
            return (f,) + args[1:], kwargs

        def nodes(args, kwargs, out):
            self.add("quad.nodes", out.node_count)

        def f_eval(args, kwargs, parent):
            if parent is not None and parent[2] == "chaos.extract":
                self.add("chaos.extract_f_evals", 1)
            return args, kwargs

        def normals(args, kwargs, out):
            self.add("montecarlo.normals", out.size)
            self.add("montecarlo.bytes_computed", out.nbytes)

        return {
            "schwartz.hermite_values": {"on_return": points},
            "quad.integrate_singular": {"on_call": integrand,
                                        "on_return": nodes},
            "stransform.ufunctional": {"on_call": f_eval},
            "montecarlo.rng": {"on_return": normals},
        }.get(name, {})

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hidacur" or n.startswith("hidacur.")]
        for layer, owner, attr, name in _traced_functions():
            orig = owner.__dict__[attr]
            traced = self.wrap(layer, name, orig, **self._hooks(name))
            targets = [(owner, attr)]
            if not isinstance(owner, type):
                targets += [(m, k) for m in modules
                            for k, v in vars(m).items()
                            if v is orig and (m, k) != (owner, attr)]
            for obj, key in targets:
                self._patches.append((obj, key, orig))
                setattr(obj, key, traced)

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path):
        names = sorted(self._names, key=self._names.get)
        body = {"names": names,
                **{k: col.tolist() for k, col in self._cols.items()}}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(body, fh)
