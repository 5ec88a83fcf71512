"""Seeded benchmark of the taitstates CLI: knots and search workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload knots --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics: one workload run through
``taitstates.cli.main`` in a fresh worker interpreter, which also times
fresh interpreters importing the package between its inputs.  ``--trace 1``
runs the same inputs twice, untraced and then with every layer wrapped in
spans, and reports the per-layer metrics and the tracing overhead.  Every output is checked for correctness.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md beside
this file for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("knots", "search")
SETUP_LAUNCHES = 21


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def stamp(workload: str, seed: int) -> dict:
    """What decides the code path the package takes, so that results taken on
    different paths are never compared silently."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "TAITSTATES_DISABLE_JIT": os.environ.get("TAITSTATES_DISABLE_JIT"),
        "nproc": os.cpu_count(),
    }


def worker(workload: str, seed: int, trace: int, deadline: float, *,
           seconds: float | None = None, count: int | None = None,
           setup_launches: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--setup-launches", str(setup_launches)]
    cmd += ["--seconds", repr(seconds)] if count is None else ["--count", str(count)]
    # the worker gets a process group of its own, so that a timeout also
    # stops the interpreter it may be timing at that moment
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(deadline - perf_counter(), 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least ten
    samples beyond it, i.e. the eleventh largest latency."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Seeded benchmark of the taitstates CLI.")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    # a run times about --seconds of inputs; the limit leaves as much again
    # for launches, input generation, checks and tracing, and a minute for a
    # last input that nears its budget
    deadline = perf_counter() + 2 * args.seconds + 60
    if not (SRC / "taitstates" / "cli.py").is_file():
        return _fail(f"no package source under {SRC}")

    info = stamp(args.workload, args.seed)
    print("stamp " + json.dumps(info))
    units: dict[str, str] = {}
    metrics: dict[str, float] = {}
    try:
        if args.trace == 0:
            run = worker(args.workload, args.seed, 0, deadline, seconds=args.seconds,
                         setup_launches=SETUP_LAUNCHES)
            launches, lat = run["setup_s"], run["latencies"]
            tail_s, tail_pct, n = tail(lat)
            metrics = {
                "setup_s": statistics.median(launches),
                "inputs_per_s": run["inputs"] / run["timed_s"],
                "latency_p50_s": statistics.median(lat),
                "latency_tail_s": tail_s,
                "peak_rss_mb": run["peak_rss_mb"],
            }
            units = {"setup_s": "s", "inputs_per_s": "1/s", "latency_p50_s": "s",
                     "latency_tail_s": "s", "peak_rss_mb": "MB"}
            notes = {"setup_s": f"median of {len(launches)} launches spread over the run",
                     "latency_tail_s": f"p{tail_pct:.2f} of {n} samples, 10 beyond it",
                     "peak_rss_mb": f"after the first {run['rss_inputs']} inputs; "
                                    f"{run['end_rss_mb']:.1f} MB after all {n}"}
            runs = [run]
        else:
            from spans import METRICS

            # half the time untraced, then exactly the same inputs traced
            plain = worker(args.workload, args.seed, 0, deadline, seconds=args.seconds / 2)
            traced = worker(args.workload, args.seed, 1, deadline, count=plain["inputs"])
            if traced["corpus_sha256"] != plain["corpus_sha256"]:
                return _fail("the traced run saw other inputs than the untraced run")
            metrics = dict(traced["layers"])
            metrics["trace.overhead"] = traced["timed_s"] / plain["timed_s"]
            units = {name: unit for name, (unit, _) in METRICS.items()}
            units["trace.overhead"] = "1"
            notes = {name: "absent from the package" for name in traced["absent"]}
            notes["trace.overhead"] = (f"traced {traced['timed_s']:.3f} s against "
                                       f"untraced {plain['timed_s']:.3f} s")
            print("enumerations per report " + json.dumps(traced["enumerations_by_input"]))
            runs = [plain, traced]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return _fail(str(exc))

    run = runs[-1]
    attempted, failed = run["inputs"], len(run["failures"])
    failures = [f for r in runs for f in r["failures"]]
    print(f"corpus {run['inputs']} inputs, sha256 {run['corpus_sha256']}")
    print("known answers " + json.dumps(run["known_answers"]))
    for f in failures[:20]:
        print(f"FAILED {f}")
    for name, value in metrics.items():
        note = notes.get(name)
        print(f"{name:34} {value:14.6g} {units[name]:6}" + (f"  ({note})" if note else ""))
    print(f"{'failed_frac':34} {failed / attempted:14.6g} {'1':6}  ({failed} of {attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
