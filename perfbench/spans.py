"""Span tracing of the rescube layers from outside the library.

``Tracer`` wraps the public functions and methods of each layer module in a
timing span, for as long as it is active, and restores the originals on
exit.  A wrapped function is replaced in every ``rescube`` module namespace
that binds it, because ``from .x import f`` makes a second binding that a
patch of ``x`` alone would miss.  Spans nest on one stack; a layer's self
time is the duration of its spans minus the time of the child spans they
contain.  Spans are aggregated as they close (per layer, per function),
so a long pass holds no span list in memory.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "benzenoid",
    "plane_graph",
    "matchings",
    "resonance",
    "decomposition",
    "coding",
    "cube_kit",
    "cli",
)

# One-line helpers called millions of times, whose work is about the cost of
# a span; their time stays with the caller.
UNTRACED = frozenset(
    {
        "edge_key",
        "label_leq",
        "theta_related",
        "end_edge_state",
        "is_resonant",
        "alternation_kind",
        "handle_predicate",
        "neighbors",
        "degree",
        "color",
        "d",
    }
)


class Tracer:
    """Per-layer self time, per-function inclusive time, and counters."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive_s = Counter()  # "layer.function" -> outermost-call seconds
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []
        self._active = Counter()
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer, key, fn, after=None, before=None):
        clock = time.perf_counter
        stack = self._stack
        active = self._active
        self_s = self.self_s
        inclusive = self.inclusive_s
        calls = self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            token = before(*args, **kwargs) if before else None
            frame = [0.0]
            stack.append(frame)
            active[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                self_s[layer] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                active[key] -= 1
                if not active[key]:
                    inclusive[key] += took
                calls[key] += 1
            if after:
                after(token, result, *args, **kwargs)
            return result

        return span

    # -- patching ----------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "rescube"]
        hooks = self._hooks()
        for layer in LAYERS:
            mod = sys.modules[f"rescube.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in UNTRACED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    key = f"{layer}.{name}"
                    span = self._wrap(layer, key, obj, **hooks.get(key, {}))
                    for ns in modules:
                        if vars(ns).get(name) is obj:
                            self._set(ns, name, span)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(layer, obj, hooks)
        return self

    def _patch_class(self, layer, cls, hooks):
        for name, attr in list(vars(cls).items()):
            key = f"{layer}.{cls.__name__}.{name}"
            if name in UNTRACED or (name.startswith("_") and name != "__init__"):
                continue
            if name == "__init__" and dataclasses.is_dataclass(cls):
                continue
            if isinstance(attr, functools.cached_property):
                prop = functools.cached_property(
                    self._wrap(layer, key, attr.func, **hooks.get(key, {}))
                )
                prop.__set_name__(cls, name)
                self._set(cls, name, prop)
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(layer, key, attr, **hooks.get(key, {})))

    def __exit__(self, *exc):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        return False

    # -- counters at the layer boundaries ----------------------------------

    def _hooks(self):
        counts = self.counts

        def matchings_found(_, result, *args, **kwargs):
            counts["matchings_enumerated"] += len(result)

        def resonance_pairs(_, result, g, family):
            n = len(family)
            counts["resonance_pairs"] += n * (n - 1) // 2
            counts["resonance_edges"] += len(result.edges)

        def cycles_cached(g):
            return getattr(g, "_all_cycles", None) is not None

        def cycles_found(was_cached, result, g):
            if not was_cached:
                counts["cycles"] += len(result)

        def subset_cached(g, family, face_id, selector, handle_index=None):
            return (face_id, selector, handle_index) in family._cache

        def subset_lookup(was_cached, result, *args, **kwargs):
            counts["subset_calls"] += 1
            counts["subset_hits"] += bool(was_cached)

        def dist_table(*_):
            counts["dist_tables"] += 1

        return {
            "plane_graph.enumerate_matching_edge_sets": {"after": matchings_found},
            "resonance.build_resonance": {"after": resonance_pairs},
            "plane_graph.all_cycles": {"before": cycles_cached, "after": cycles_found},
            "matchings.matching_subset": {"before": subset_cached, "after": subset_lookup},
            "cube_kit.MetricGraph.dist": {"after": dist_table},
        }
