"""Byte-exact CLI outputs, frozen per input under ``tests/data/golden``.

The inputs are the bundled 11n95 diagram, T(2,5) as PD text (from
``helpers.torus2n_diagram(5)``), the Hopf sum n=3 as diagram JSON (from
``helpers.hopf_sum_diagram(3)``), and two graph JSONs of
``helpers.random_bridgeless_map(m, random.Random(seed))``, named
``map_<m>_<seed>``, that carry an ``outer_face`` key.  Each input is run
through ``adequate`` in every output format, with and without
``--homogeneous``, and through ``tutte --diag --trees``, each under the
canonical coloring, the swapped coloring and ``--mirror``.

``<input>.out.json`` maps each case to its exit code and its stdout.
Regenerate them, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

from taitstates.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "golden")
INPUTS = {
    "11n95": (os.path.join(HERE, "data", "11n95.json"), "json"),
    "t2_5": (os.path.join(GOLDEN, "t2_5.pd"), "pd"),
    "hopf3": (os.path.join(GOLDEN, "hopf3.json"), "json"),
    "map_9_115": (os.path.join(GOLDEN, "map_9_115.json"), "json"),
    "map_10_158": (os.path.join(GOLDEN, "map_10_158.json"), "json"),
}
VARIANTS = ((), ("--coloring", "swapped"), ("--mirror",))


def cases() -> list[tuple[str, ...]]:
    out = []
    for variant in VARIANTS:
        for fmt in ("table", "json", "csv"):
            for homog in ((), ("--homogeneous",)):
                out.append(("adequate", "--output", fmt, *homog, *variant))
        out.append(("tutte", "--diag", "--trees", *variant))
    return out


def run_case(name: str, case: tuple[str, ...]) -> dict:
    path, fmt = INPUTS[name]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([case[0], path, "--format", fmt, *case[1:]])
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def expected_path(name: str) -> str:
    return os.path.join(GOLDEN, f"{name}.out.json")


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_outputs_byte_identical(name):
    with open(expected_path(name), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert sorted(expected) == sorted(" ".join(c) for c in cases())
    for case in cases():
        assert run_case(name, case) == expected[" ".join(case)], case


if __name__ == "__main__":
    for name in sorted(INPUTS):
        doc = {" ".join(case): run_case(name, case) for case in cases()}
        with open(expected_path(name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
