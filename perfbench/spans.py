"""Span tracing of the package's layers, from outside the package.

Each public function of a layer is replaced, in every module namespace where
its callers look it up, by a wrapper that records a span: name, start, end,
parent span and the input it belongs to.  Spans stay in memory and are
reduced to per-layer metrics once the run is over.  A layer function that
the package no longer has is reported as absent rather than as an error.

Every ``*_s`` metric is self time (a span's duration minus the time covered
by its child spans) in seconds per input, so the layers add up to the time
spent in ``cli.main``.  ``*_calls`` and the other counts are per input too.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (span name, defining module, attribute, namespaces to patch or None for all)
TARGETS = (
    ("cli.main", "taitstates.cli", "main", None),
    ("diagram.parse", "taitstates.diagram", "parse_pd", None),
    ("diagram.parse", "taitstates.diagram", "load_diagram_json", None),
    ("diagram.color", "taitstates.diagram", "checkerboard", None),
    ("diagram.tait", "taitstates.diagram", "tait", None),
    ("sgraph.from_json", "taitstates.sgraph", "from_json", None),
    ("search", "taitstates.adequacy", "enumerate_adequate", None),
    ("adequacy.poly", "taitstates.adequacy", "adequacy_polynomial", None),
    ("adequacy.state", "taitstates.adequacy", "state_from_partition", None),
    ("adequacy.homog", "taitstates.adequacy", "homogeneous_adequate", None),
    ("adequacy.render", "taitstates.adequacy", "report_to_json", None),
    # the per-state restrictions and contractions, not the package's other uses
    ("sgraph.restrict", "taitstates.sgraph", "restrict", ("taitstates.adequacy",)),
    ("sgraph.contract", "taitstates.sgraph", "contract", ("taitstates.adequacy",)),
    ("tutte", "taitstates.tutte", "TutteEngine.tutte", None),
)

# per-layer metric -> (unit, span names it needs); a metric whose spans were
# all absent from the package reads 0 and is listed as absent
METRICS = {
    "cli.self_s": ("s", ("cli.main",)),
    "diagram.parse_s": ("s", ("diagram.parse",)),
    "diagram.color_s": ("s", ("diagram.color",)),
    "diagram.tait_s": ("s", ("diagram.tait",)),
    "sgraph.from_json_s": ("s", ("sgraph.from_json",)),
    "search.self_s": ("s", ("search",)),
    "search.states": ("count", ("search",)),
    "search.self_s_per_state": ("s", ("search",)),
    "search.enumerations_per_report": ("count", ("search", "cli.main")),
    "adequacy.poly_s": ("s", ("adequacy.poly",)),
    "adequacy.poly_calls": ("count", ("adequacy.poly",)),
    "adequacy.state_s": ("s", ("adequacy.state",)),
    "adequacy.homog_s": ("s", ("adequacy.homog",)),
    "adequacy.homog_calls": ("count", ("adequacy.homog",)),
    "adequacy.render_s": ("s", ("adequacy.render",)),
    "sgraph.restrict_s": ("s", ("sgraph.restrict",)),
    "sgraph.restrict_calls": ("count", ("sgraph.restrict",)),
    "sgraph.contract_s": ("s", ("sgraph.contract",)),
    "sgraph.contract_calls": ("count", ("sgraph.contract",)),
    "tutte.s": ("s", ("tutte",)),
    "tutte.calls": ("count", ("tutte",)),
    "tutte.cert_s": ("s", ("tutte", "search")),
    "tutte.cache_entries": ("count", ("tutte",)),
}


def _count_states(args, result):
    return len(getattr(result, "states", ()))


def _count_cache(args, result):
    return len(getattr(args[0], "cache", ()))


# a count taken from a span's arguments or result once it ends
COUNTERS = {"search": _count_states, "tutte": _count_cache}


class Tracer:
    """Records spans; ``input_id`` tags them with the input being run."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.input: list[int] = []
        self.count: list[int] = []
        self.stack: list[int] = []
        self.input_id = -1
        self.present: set[str] = set()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.input.append(self.input_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.count.append(0)
            self.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                self.count[idx] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target the package still has."""
        for name, modname, attr, scope in TARGETS:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                continue
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                if cls is None or not hasattr(cls, meth):
                    continue
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                self.present.add(name)
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original)
            for modname2, mod in list(sys.modules.items()):
                if modname2.split(".")[0] != "taitstates" or (scope and modname2 not in scope):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self.present.add(name)

    def metrics(self, n_inputs: int) -> tuple[dict[str, float], list[str]]:
        """(per-layer metrics, names of metrics whose layer is absent)."""
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        # an input may enumerate its states more than once; each enumeration
        # returns the same states, so the states of an input are counted once
        states_of: dict[int, int] = {}
        cert_s = 0.0
        peak_cache: dict[int, int] = {}
        for i, name in enumerate(self.names):
            own = self.end[i] - self.start[i] - child_time[i]
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if name == "search":
                states_of[self.input[i]] = max(states_of.get(self.input[i], 0), self.count[i])
            if name == "tutte":
                p = self.parent[i]
                if p >= 0 and self.names[p] == "search":
                    cert_s += own
                peak_cache[self.input[i]] = max(peak_cache.get(self.input[i], 0), self.count[i])

        per = max(n_inputs, 1)
        states = sum(states_of.values())
        special = {
            "search.states": states / per,
            "search.self_s_per_state": self_s.get("search", 0.0) / states if states else 0.0,
            "search.enumerations_per_report":
                calls.get("search", 0) / calls["cli.main"] if calls.get("cli.main") else 0.0,
            "tutte.cert_s": cert_s / per,
            "tutte.cache_entries": sum(peak_cache.values()) / per,
        }
        values = {}
        for metric, (unit, needs) in METRICS.items():
            if metric in special:
                values[metric] = special[metric]
            elif unit == "count":
                values[metric] = calls.get(needs[0], 0) / per
            else:
                values[metric] = self_s.get(needs[0], 0.0) / per
        absent = [m for m, (_, needs) in METRICS.items()
                  if not all(s in self.present for s in needs)]
        for m in absent:
            values[m] = 0.0
        return values, absent
