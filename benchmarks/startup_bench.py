#!/usr/bin/env python3
"""Start-up time of the CLI: fresh interpreters that import ``taitstates.cli``.

Alternates ``n`` launches (default 100) between this checkout's ``src/`` and
the ``src`` of another tree, e.g. a checkout of the parent commit, switching
which side goes first on every round.  Each launch is made as perfbench's
worker makes its ``setup_s`` launches: ``PYTHONPATH`` holds the tree's
``src`` ahead of any inherited path, and the working directory is the
tree's root.  Prints each side's median launch time with its quartiles, then
the modules that ``import taitstates.cli`` adds to a bare interpreter on each
side.  Run it with the environment the benchmark runs with: under
``PYTHONDONTWRITEBYTECODE=1`` every launch compiles the package again.

Usage: python benchmarks/startup_bench.py OTHER_SRC [n]
"""

import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
ADDED = ("import sys; before = set(sys.modules); import taitstates.cli; "
         "print(*sorted(set(sys.modules) - before))")


def launch(src: Path, code: str = "import taitstates.cli") -> tuple[float, str]:
    """(wall time, standard output) of one fresh interpreter running ``code``
    against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=src.parent,
                          stdout=subprocess.PIPE, text=True, check=True)
    return perf_counter() - t0, proc.stdout


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.rstrip().splitlines()[-1], file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    n = int(argv[1]) if len(argv) == 2 else 100
    if not (other / "taitstates" / "cli.py").is_file():
        print(f"error: {other} holds no taitstates/cli.py", file=sys.stderr)
        return 2
    if n < 2:
        print("error: quartiles need at least 2 launches a side", file=sys.stderr)
        return 2
    sides = [("src", SRC), ("other", other)]
    times: dict[str, list[float]] = {name: [] for name, _ in sides}
    for i in range(n):
        for name, src in sides if i % 2 == 0 else sides[::-1]:
            times[name].append(launch(src)[0])
    for name, src in sides:
        q1, median, q3 = statistics.quantiles(times[name], n=4)
        print(f"{name} {src}: median {median * 1e3:.1f} ms, quartiles "
              f"[{q1 * 1e3:.1f}, {q3 * 1e3:.1f}] ms over {n} launches")
    for name, src in sides:
        added = launch(src, ADDED)[1].split()
        print(f"{name}: import taitstates.cli adds {len(added)} modules: {' '.join(added)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
