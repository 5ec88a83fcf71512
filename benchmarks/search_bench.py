#!/usr/bin/env python3
"""Time the adequate-state enumeration and the Tutte engine on seeded maps.

Two tables, each drawn from its own ``random.Random(seed)`` by
``tests/helpers.random_bridgeless_map``:

* ``enumerate_adequate`` on one map per size m = 16..40, with the edge cap
  raised to m.  ``states`` is the number of adequate states.  ``search`` is
  the search alone, ``cyclic_flat_leaves`` drained with each leaf's
  classes; ``polys`` is the rest of the enumeration (per-state polynomials,
  diagonal certificate, records), the whole ``enumerate_adequate`` call
  minus a separate timing of the search.  ``render`` is ``report_to_json``
  on the enumeration's report.  ``factors`` is the number of calls the
  enumeration makes to its Tutte engine's ``evaluate``, not counting the
  engine's calls to itself: one per class whose T(0, t) it has not yet
  evaluated.  ``memo`` is the number of entries the enumeration's fresh
  Tutte engine ends with, and ``memo/st`` that number per state.
* ``tutte`` with a fresh engine, the work of one ``taitstates tutte`` call,
  on four maps per size m = 20, 24, ..., 36 with the vertex count pinned at
  m/2 + 1.  ``memo`` is the number of entries the engine ends with.

A case that runs past the budget is abandoned and reported as such.

Usage: python benchmarks/search_bench.py [seed] [budget_seconds]
"""

import random
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import random_bridgeless_map  # noqa: E402
from taitstates import TutteEngine, enumerate_adequate  # noqa: E402
from taitstates.adequacy import report_to_json  # noqa: E402
from taitstates._scan import cyclic_flat_leaves  # noqa: E402


class OverBudget(Exception):
    pass


def _on_alarm(signum, frame):
    raise OverBudget


class CountingEngine:
    """A Tutte engine that counts the ``evaluate`` calls made to it from
    outside; the recursion inside calls the engine it wraps."""

    def __init__(self):
        self.inner = TutteEngine()
        self.cache = self.inner.cache
        self.factors = 0

    def evaluate(self, mg, mode):
        self.factors += 1
        return self.inner.evaluate(mg, mode)

    def tutte(self, g):
        return self.inner.tutte(g)


def _timed(fn, budget: float):
    """(result, seconds); the result is None past the budget."""
    signal.setitimer(signal.ITIMER_REAL, budget)
    t0 = time.perf_counter()
    try:
        result = fn()
    except OverBudget:
        result = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, time.perf_counter() - t0


def search_table(seed: int, budget: float) -> None:
    rng = random.Random(seed)
    print(f"{'edges':>6} {'vertices':>9} {'states':>7} {'search':>9} {'polys':>9} "
          f"{'render':>9} {'factors':>8} {'memo':>7} {'memo/st':>8}")
    for m in range(16, 41):
        g = random_bridgeless_map(m, rng)
        leaves, t_search = _timed(lambda: sum(1 for _ in cyclic_flat_leaves(g)), budget)
        eng = CountingEngine()
        report, t_total = _timed(lambda: enumerate_adequate(g, eng, max_edges=m), budget)
        if leaves is None or report is None:
            print(f"{m:>6} {g.n_vertices:>9} {'-':>7}  over budget")
            continue
        text, t_render = _timed(lambda: report_to_json(report), budget)
        render = "-" if text is None else f"{t_render:.4f}s"
        print(f"{m:>6} {g.n_vertices:>9} {report.count:>7} "
              f"{t_search:>8.4f}s {t_total - t_search:>8.4f}s {render:>9} "
              f"{eng.factors:>8} {len(eng.cache):>7} {len(eng.cache) / report.count:>8.2f}")


def tutte_table(seed: int, budget: float) -> None:
    rng = random.Random(seed)
    print(f"{'edges':>6} {'vertices':>9} {'trees':>14} {'tutte':>9} {'memo':>7}")
    total = 0.0
    for m in range(20, 37, 4):
        for _ in range(4):
            g = random_bridgeless_map(m, rng, n_vertices=m // 2 + 1)
            eng = TutteEngine()
            chi, elapsed = _timed(lambda: eng.tutte(g), budget)
            total += elapsed
            trees = "-" if chi is None else str(chi.eval(1, 1))
            note = "  over budget" if chi is None else ""
            print(f"{m:>6} {g.n_vertices:>9} {trees:>14} {elapsed:>8.3f}s "
                  f"{len(eng.cache):>7}{note}")
    print(f"total {total:.3f}s")


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 11
    budget = float(sys.argv[2]) if len(sys.argv) > 2 else 30.0
    signal.signal(signal.SIGALRM, _on_alarm)
    print(f"seed {seed}, budget {budget:g} s per case")
    print("\nenumerate_adequate")
    search_table(seed, budget)
    print("\ntutte")
    tutte_table(seed, budget)


if __name__ == "__main__":
    main()
