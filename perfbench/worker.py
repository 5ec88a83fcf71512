"""Run one workload through ``taitstates.cli.main`` in this fresh interpreter.

A closed loop: one client, one input at a time, no threads.  Inputs are
generated between calls, outside the timed region.  The loop stops once
``--seconds`` of timed work are done and at least ``RSS_INPUTS`` inputs have
run, or after exactly ``--count`` inputs.  With ``--setup-launches N`` it
also times N fresh interpreters importing ``taitstates.cli``, spread evenly
over the timed work and run between inputs, outside the timed region.
Prints one JSON line with the latencies, failures, launch times, peak RSS
and, with ``--trace 1``, the per-layer metrics.

Usage: python3 perfbench/worker.py --workload knots --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# an input that runs longer than this counts as failed and is abandoned
BUDGET_S = {"knots": 10.0, "search": 30.0}
# peak RSS is read once this many inputs have run, and a timed run goes on
# until it has run them.  The package's per-diagram caches grow with every
# new input, so a peak read at the end of a timed run would grow with
# throughput rather than with the memory an input needs.
RSS_INPUTS = {"knots": 200, "search": 40}


class InputTimeout(BaseException):
    """Raised by the timer inside a call that ran over its budget."""


def _on_alarm(signum, frame):
    raise InputTimeout


def setup_seconds() -> float:
    """Wall time of a fresh interpreter that imports ``taitstates.cli``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import taitstates.cli"], env=env,
                   cwd=SRC.parent, check=True)
    return perf_counter() - t0


def run_one(cli, inp, budget: float) -> tuple[float, str | None, str]:
    """(latency, failure reason or None, stdout) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(inp.stdin)
    signal.setitimer(signal.ITIMER_REAL, budget)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(inp.argv))
    except InputTimeout:
        return perf_counter() - t0, f"over the {budget:g} s budget", ""
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed input, not a crash of the run
        return perf_counter() - t0, f"raised {exc!r}", ""
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdin = saved_stdin
    elapsed = perf_counter() - t0
    if code != 0:
        return elapsed, f"exit code {code}: {err.getvalue().strip()[:200]}", ""
    return elapsed, None, out.getvalue()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--count", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-launches", type=int, default=0)
    args = p.parse_args(argv)
    if (args.seconds is None) == (args.count is None):
        p.error("give exactly one of --seconds and --count")
    if args.setup_launches and args.seconds is None:
        p.error("--setup-launches needs --seconds")

    sys.path.insert(0, str(SRC))
    from checks import check
    from corpus import stream
    from taitstates import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"taitstates imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    signal.signal(signal.SIGALRM, _on_alarm)
    budget = BUDGET_S[args.workload]
    corpus_hash = hashlib.sha256()
    latencies: list[float] = []
    failures: list[str] = []
    known: dict[str, str] = {}
    known_ids: dict[str, int] = {}
    # this interpreter's own import of the package has already written its
    # bytecode, so no launch below pays for compiling it
    launches: list[float] = []
    rss_inputs = RSS_INPUTS[args.workload]
    peak_rss_mb = None
    timed = 0.0
    for i, inp in enumerate(stream(args.workload, args.seed)):
        # the machine's speed drifts over tens of seconds, so the launches
        # are spread over the whole run rather than bunched at one end
        while len(launches) < args.setup_launches and \
                timed >= len(launches) * args.seconds / args.setup_launches:
            launches.append(setup_seconds())
        if args.count is not None and i >= args.count:
            break
        if args.seconds is not None and timed >= args.seconds and i >= rss_inputs:
            break
        corpus_hash.update(inp.digest.encode())
        if tracer is not None:
            tracer.input_id = i
        elapsed, failure, out = run_one(cli, inp, budget)
        timed += elapsed
        latencies.append(elapsed)
        if failure is None:
            failure = check(inp, out)
        if failure is not None:
            failures.append(f"{inp.name}: {failure}")
        if inp.expect is not None:
            known_ids[inp.name] = i
            known[inp.name] = "ok" if failure is None else failure
        if len(latencies) == rss_inputs:
            peak_rss_mb = _peak_rss_mb()

    result = {
        "inputs": len(latencies),
        "timed_s": timed,
        "latencies": latencies,
        "failures": failures,
        "corpus_sha256": corpus_hash.hexdigest(),
        "known_answers": known,
        "setup_s": launches,
        "rss_inputs": rss_inputs,
        "peak_rss_mb": peak_rss_mb,
        "end_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"], result["absent"] = tracer.metrics(len(latencies))
        searches = Counter(i for name, i in zip(tracer.names, tracer.input) if name == "search")
        result["enumerations_by_input"] = {name: searches[i] for name, i in known_ids.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
