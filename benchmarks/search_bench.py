#!/usr/bin/env python3
"""Time ``enumerate_adequate`` on seeded random bridgeless maps.

One map per size m = 16..24 (the default edge cap), drawn in order from one
``random.Random(seed)`` by ``tests/helpers.random_bridgeless_map``.  A case
that runs past the budget is abandoned and reported as such.  The time
includes the per-state polynomials and the diagonal certificate.

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
from taitstates import enumerate_adequate  # noqa: E402


class OverBudget(Exception):
    pass


def _on_alarm(signum, frame):
    raise OverBudget


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 11
    budget = float(sys.argv[2]) if len(sys.argv) > 2 else 30.0
    rng = random.Random(seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    print(f"seed {seed}, budget {budget:g} s per case")
    print(f"{'edges':>6} {'vertices':>9} {'states':>7} {'seconds':>9}")
    for m in range(16, 25):
        g = random_bridgeless_map(m, rng)
        signal.setitimer(signal.ITIMER_REAL, budget)
        t0 = time.perf_counter()
        try:
            states = str(enumerate_adequate(g).count)
        except OverBudget:
            states = "-"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        note = "  over budget" if states == "-" else ""
        print(f"{m:>6} {g.n_vertices:>9} {states:>7} {elapsed:>8.3f}s{note}")


if __name__ == "__main__":
    main()
