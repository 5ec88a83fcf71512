import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import taitstates

from taitstates.cli import build_parser, main

from helpers import (cycle_graph, diagram_for_graph, diagram_to_json, ladder_graph,
                     random_bridgeless_map, to_json)
from taitstates import diagram
from taitstates.adequacy import enumerate_adequate
from taitstates.diagram import tait

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
# two crossings whose arcs pass straight through both: 2 regions, v - e + f = 0
NON_PLANAR = "X[1,2,3,4] X[3,4,1,2]"
HERE = os.path.dirname(__file__)
FIXTURE = os.path.join(HERE, "data", "11n95.json")


@pytest.fixture
def trefoil_file(tmp_path):
    p = tmp_path / "trefoil.pd"
    p.write_text(TREFOIL)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTutte:
    def test_polynomial(self, capsys, trefoil_file):
        code, out, _ = run(capsys, "tutte", trefoil_file)
        assert code == 0
        assert out.strip() == "x^2 + x + y"

    def test_diag_and_trees(self, capsys, trefoil_file):
        code, out, _ = run(capsys, "tutte", trefoil_file, "--diag", "--trees")
        assert code == 0
        assert out.splitlines() == ["t^2 + 2 t", "3"]

    def test_graph_json_input(self, capsys, tmp_path):
        p = tmp_path / "c5.json"
        p.write_text(to_json(cycle_graph(5)))
        code, out, _ = run(capsys, "tutte", str(p), "--format", "json", "--diag")
        assert code == 0
        assert out.strip() == "t^4 + t^3 + t^2 + 2 t"

    def test_trees_hopf4(self, capsys, tmp_path):
        from helpers import hopf_sum_diagram

        p = tmp_path / "hopf4.json"
        p.write_text(diagram_to_json(hopf_sum_diagram(4)))
        code, out, _ = run(capsys, "tutte", str(p), "--format", "json", "--trees")
        assert code == 0
        assert out.strip() == "16"

    def test_edgeless_graph_is_one(self, capsys, tmp_path):
        from taitstates.sgraph import SignedMap

        p = tmp_path / "point.json"
        p.write_text(to_json(SignedMap([()], [])))
        code, out, _ = run(capsys, "tutte", str(p), "--format", "json")
        assert code == 0
        assert out.strip() == "1"

    def test_parse_error_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.pd"
        p.write_text("X[1,2,3,4]")
        code, _, err = run(capsys, "tutte", str(p))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command", ["tutte", "adequate"])
    def test_non_planar_projection_exit_2(self, capsys, tmp_path, command):
        p = tmp_path / "np.pd"
        p.write_text(NON_PLANAR)
        code, out, err = run(capsys, command, str(p))
        assert code == 2
        assert out == ""
        assert err == "error: the projection is not planar: v - e + f = 0, not 2\n"

    def test_ladder_too_deep_exit_3(self, capsys, tmp_path):
        ladder = ladder_graph(400)
        assert ladder.n_edges == 1198
        p = tmp_path / "ladder.json"
        p.write_text(to_json(ladder))
        code, out, err = run(capsys, "tutte", str(p), "--format", "json")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "--max-edges" not in err


class TestAdequate:
    def test_table_output(self, capsys, trefoil_file):
        code, out, _ = run(capsys, "adequate", trefoil_file)
        assert code == 0
        assert "count: 2" in out
        assert "verified: true" in out

    def test_deterministic(self, capsys, trefoil_file):
        _, out1, _ = run(capsys, "adequate", trefoil_file, "--output", "json")
        _, out2, _ = run(capsys, "adequate", trefoil_file, "--output", "json")
        assert out1 == out2

    def test_verify_flag(self, capsys, trefoil_file):
        code, _, _ = run(capsys, "adequate", trefoil_file, "--verify")
        assert code == 0

    def test_cap_exit_3(self, capsys, trefoil_file):
        code, _, err = run(capsys, "adequate", trefoil_file, "--max-edges", "2")
        assert code == 3
        assert "--max-edges" in err

    def test_fixture_knot(self, capsys):
        code, out, _ = run(capsys, "adequate", FIXTURE, "--format", "json", "--verify")
        assert code == 0
        assert "count: 20" in out
        assert "2 t^6 + 16 t^5 + 48 t^4 + 62 t^3 + 33 t^2 + 6 t" in out
        assert "spanning trees: 167" in out

    def test_fixture_homogeneous_empty(self, capsys):
        code, out, _ = run(capsys, "adequate", FIXTURE, "--format", "json", "--homogeneous")
        assert code == 0
        assert "count: 0" in out

    def test_fixture_ab(self, capsys):
        code, out, _ = run(capsys, "adequate", FIXTURE, "--format", "json", "--ab",
                           "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["a_adequate"] is False and doc["b_adequate"] is False
        assert doc["plus_poly"] == "0" and doc["minus_poly"] == "0"

    def test_fixture_golden_csv(self, capsys):
        # frozen end-to-end output; any ordering or rendering drift fails
        code, out, _ = run(capsys, "adequate", FIXTURE, "--format", "json",
                           "--output", "csv")
        assert code == 0
        with open(os.path.join(HERE, "data", "11n95_expected.csv")) as fh:
            expected = fh.read()
        assert out == expected

    def test_csv_output(self, capsys, trefoil_file):
        code, out, _ = run(capsys, "adequate", trefoil_file, "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "state,edge_subset,polynomial"
        assert len(lines) == 3

    def test_json_output(self, capsys, trefoil_file):
        code, out, _ = run(capsys, "adequate", trefoil_file, "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 2 and doc["verified"] is True

    def test_mirror_flag(self, capsys, trefoil_file):
        code, out, _ = run(capsys, "adequate", trefoil_file, "--mirror")
        assert code == 0
        assert "count: 2" in out

    def test_swapped_coloring(self, capsys, trefoil_file):
        _, out_can, _ = run(capsys, "adequate", trefoil_file, "--output", "json")
        _, out_sw, _ = run(capsys, "adequate", trefoil_file, "--coloring", "swapped",
                           "--output", "json")
        a, b = json.loads(out_can), json.loads(out_sw)
        assert a["count"] == b["count"]
        assert a["diagonal_coeffs"] == b["diagonal_coeffs"]

    def test_non_spherical_map_exit_2(self, capsys, tmp_path):
        # one vertex, two interleaved loops: a map on the torus (v - e + f = 0)
        p = tmp_path / "torus.json"
        p.write_text(json.dumps({
            "vertices": [[0, 2, 1, 3]],
            "edges": [{"halves": [0, 1], "sign": "+", "label": 0},
                      {"halves": [2, 3], "sign": "-", "label": 1}],
        }))
        for extra in ("--verify", "--ab"):
            code, out, err = run(capsys, "adequate", str(p), "--format", "json", extra)
            assert code == 2, extra
            assert out == ""
            assert err.startswith("error: map is not spherical")
            assert len(err.strip().splitlines()) == 1

    def test_graph_json_homogeneous_without_outer_face(self, capsys, tmp_path):
        # graph JSON marks no unbounded face, and the flags do not need one
        d = diagram_for_graph(random_bridgeless_map(9, random.Random(115)))
        diagram_file = tmp_path / "d.json"
        diagram_file.write_text(diagram_to_json(d))
        graph_file = tmp_path / "g.json"
        graph_file.write_text(to_json(tait(d)[0]))
        assert "outer_face" not in graph_file.read_text()
        outs = []
        for p in (diagram_file, graph_file):
            code, out, _ = run(capsys, "adequate", str(p), "--format", "json",
                               "--homogeneous", "--output", "json")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert 0 < json.loads(outs[1])["count"] < len(enumerate_adequate(tait(d)[0]).states)

    def test_tait_face_check_exits_1(self, capsys, monkeypatch):
        # hugging the wrong quadrant breaks the Tait-face / white-region bijection
        monkeypatch.setattr(diagram, "_WHITE_SIDE", 1)
        code, out, err = run(capsys, "adequate", FIXTURE, "--format", "json")
        assert code == 1
        assert out == ""
        assert err.startswith("verification failure: tait face")
        assert len(err.splitlines()) == 1

    def test_checks_survive_optimize_flag(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(taitstates.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "taitstates.cli", "adequate", FIXTURE,
             "--format", "json", "--verify"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "count: 20" in proc.stdout
        assert "verified: true" in proc.stdout


class TestParser:
    def test_built_once_with_fresh_namespaces(self, capsys):
        assert build_parser() is build_parser()
        # a flag of one run does not carry over to the next
        code, out, _ = run(capsys, "adequate", FIXTURE, "--format", "json", "--homogeneous")
        assert code == 0 and "count: 0\n" in out
        code, out, _ = run(capsys, "adequate", FIXTURE, "--format", "json")
        assert code == 0 and "count: 20\n" in out


class TestCheck:
    def test_valid_trefoil(self, capsys, trefoil_file):
        code, out, _ = run(capsys, "check", trefoil_file)
        assert code == 0
        assert "reduced: ok" in out

    def test_kink_reports_nugatory(self, capsys, tmp_path):
        p = tmp_path / "kink.pd"
        p.write_text("X[1,2,2,1]")
        code, out, _ = run(capsys, "check", str(p))
        assert code == 1
        assert "not reduced: crossing 0 is nugatory" in out

    def test_split_link_fails(self, capsys, tmp_path):
        p = tmp_path / "split.pd"
        p.write_text(
            "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3] "
            "X[7,10,8,11] X[9,12,10,7] X[11,8,12,9]"
        )
        code, _, err = run(capsys, "check", str(p))
        assert code == 2
        assert "disconnected" in err

    def test_non_planar_projection_fails_euler(self, capsys, tmp_path):
        p = tmp_path / "np.pd"
        p.write_text(NON_PLANAR)
        code, out, _ = run(capsys, "check", str(p))
        assert code == 1
        assert out.splitlines() == [
            "crossings: 2", "regions: 2", "euler (v - e + f): 0  FAIL", "coloring: ok",
            "not reduced: crossing 0 is nugatory", "not reduced: crossing 1 is nugatory",
        ]

    def test_graph_json_exit_2(self, capsys, tmp_path):
        p = tmp_path / "c3.json"
        p.write_text(to_json(cycle_graph(3)))
        code, out, err = run(capsys, "check", str(p), "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


GRAPH_EDGE = {"halves": [0, 1], "sign": "+", "label": 0}


class TestMalformedInput:
    @pytest.mark.parametrize("doc", [
        {"vertices": 5, "edges": []},
        {"vertices": [[0, 1]], "edges": [dict(GRAPH_EDGE, label=[0])]},
        5,
        {"crossings": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]], "outer_arc": [1]},
        {"vertices": [[0, 1]], "edges": [dict(GRAPH_EDGE, sign="minus")]},
        {"crossings": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, float("inf")]]},
        {"crossings": [[1.9, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]},
        {"crossings": [[1, 4, 2, 5], ["3", 6, 4, 1], [5, 2, 6, 3]]},
        {"crossings": [[1, 4, 2, 5], [3, 6, 4, True], [5, 2, 6, 3]]},
        {"crossings": [[1.0, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]},
        {"crossings": [[1, 4, 2, 5], "3641", [5, 2, 6, 3]]},
        {"crossings": 5},
        # labels 1 and "1" would print as one: a "state" object one key
        # short and a table row "edges [1,1,e]"
        {"vertices": [[0, 2, 5], [1, 4, 3]],
         "edges": [dict(GRAPH_EDGE, halves=[0, 1], label=1),
                   dict(GRAPH_EDGE, halves=[2, 3], sign="-", label="1"),
                   dict(GRAPH_EDGE, halves=[4, 5], label="e")]},
        # raw text: deeper than the JSON parser can recurse
        "[" * 200_000,
    ], ids=["vertices-not-a-list", "label-is-a-list", "top-level-number",
            "outer-arc-is-a-list", "sign-not-plus-or-minus", "arc-is-infinite",
            "arc-is-a-fraction", "arc-is-a-numeric-string", "arc-is-a-bool",
            "arc-is-an-integral-float", "crossing-is-a-string", "crossings-not-a-list",
            "labels-print-alike", "nested-too-deeply"])
    def test_exit_2_with_one_error_line(self, capsys, tmp_path, doc):
        p = tmp_path / "bad.json"
        p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run(capsys, "adequate", str(p), "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1


def run_stdin(text: str, *argv: str) -> tuple[int, str]:
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["adequate", "-", "--format", "json", *argv])
    finally:
        sys.stdin = saved
    return code, err.getvalue()


small_int = st.integers(min_value=-1, max_value=9)
scalar = st.none() | st.booleans() | small_int | st.floats(allow_nan=False) | st.text(max_size=3)
json_value = st.recursive(scalar, lambda inner: st.lists(inner, max_size=4)
                          | st.dictionaries(st.text(max_size=8), inner, max_size=4),
                          max_leaves=12)
graph_doc = st.fixed_dictionaries(
    {"vertices": st.lists(st.lists(small_int, max_size=4), max_size=4),
     "edges": st.lists(st.fixed_dictionaries(
         {"halves": st.lists(small_int, min_size=2, max_size=2) | json_value,
          "sign": st.sampled_from(["+", "-"]) | json_value,
          "label": small_int | st.text(max_size=2) | json_value}), max_size=5)},
    optional={"outer_face": json_value})
diagram_doc = st.fixed_dictionaries(
    {"crossings": st.lists(st.lists(st.integers(1, 8), min_size=4, max_size=4)
                           | json_value, max_size=4)},
    optional={"outer_arc": small_int | json_value,
              "coloring": st.sampled_from(["canonical", "swapped"]) | json_value})
flags = st.lists(st.sampled_from([("--homogeneous",), ("--mirror",), ("--coloring", "swapped"),
                                  ("--output", "csv"), ("--ab",)]), max_size=3, unique=True)


@settings(max_examples=100, deadline=None)
@given(doc=graph_doc | diagram_doc | json_value, flag_groups=flags)
def test_fuzz_exit_codes(doc, flag_groups):
    # no input may end in a traceback; an input error is one line
    code, err = run_stdin(json.dumps(doc), *(f for group in flag_groups for f in group))
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err
