"""The public surface: every exported name resolves, the test oracles and
writers, which live in ``tests/helpers.py``, are not exported, importing the
package loads only what a run uses, and the value types keep their
``repr``, ``==``, ``hash`` and immutability."""

import importlib
import os
import subprocess
import sys

import pytest

import taitstates
from taitstates.adequacy import AdequacyReport, StateRecord, enumerate_adequate
from taitstates.bipoly import BiPoly
from taitstates.diagram import LinkDiagram, State, checkerboard, parse_pd
from taitstates.sgraph import Edge, SignedMap

from helpers import cycle_graph, to_json

SUBMODULES = ["_scan", "adequacy", "bipoly", "cli", "diagram", "sgraph", "tutte"]

# moved to tests/helpers.py, deleted in favor of the code they wrapped, or,
# for the diagram caches, moved onto the diagram as cached attributes
GONE = [
    "tutte_oracle", "kook_sum", "dual_symmetry_check", "spanning_tree_count",
    "graphs_isomorphic", "_graph_profile", "to_json", "diagram_to_json",
    "cycle_membership", "blocks", "delete", "diagram_report",
    "projection_map", "region_colors", "DIAGRAM_CACHE_SIZE", "STATE_CACHE_SIZE",
    "EdgePartition", "classify", "checkerboard_states", "state_circles",
    "segment_self_touch", "state_from_partition",
    "cyclic_flat_masks", "_signed_sides", "_homogeneous", "Y_ZERO",
]
GONE_METHODS = [
    (BiPoly, "const"), (BiPoly, "coeff"), (BiPoly, "scale"), (BiPoly, "to_json_terms"),
    (BiPoly, "__pow__"), (BiPoly, "swap_vars"), (BiPoly, "t_poly"), (BiPoly, "nonnegative"),
    (State, "as_dict"), (State, "keys"), (State, "uniform"), (LinkDiagram, "unknot"),
    (SignedMap, "edge_of_half"),
]

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"


@pytest.mark.parametrize("modname", [None] + SUBMODULES)
def test_all_resolves(modname):
    mod = taitstates if modname is None else importlib.import_module(f"taitstates.{modname}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), (modname, name)


@pytest.mark.parametrize("name", GONE)
def test_gone_from_the_package(name):
    assert not hasattr(taitstates, name)
    for modname in SUBMODULES:
        mod = importlib.import_module(f"taitstates.{modname}")
        assert name not in getattr(mod, "__all__", ()), (modname, name)
        assert not hasattr(mod, name), (modname, name)


@pytest.mark.parametrize("cls, name", GONE_METHODS)
def test_gone_methods(cls, name):
    assert not hasattr(cls, name)


def test_errors_importable_where_they_were():
    from taitstates import adequacy, diagram, sgraph

    assert diagram.PDParseError is sgraph.PDParseError is taitstates.PDParseError
    assert adequacy.VerificationError is diagram.VerificationError is sgraph.VerificationError
    assert taitstates.VerificationError is sgraph.VerificationError


# ---------------------------------------------------------------------------
# start-up: what a fresh interpreter loads
# ---------------------------------------------------------------------------


def fresh(code: str) -> str:
    """Standard output of ``code`` in a fresh interpreter that imports the
    package from the same tree as this test run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(taitstates.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_out_dataclasses_csv_and_diagram():
    added = fresh("import sys\n"
                  "before = set(sys.modules)\n"
                  "import taitstates.cli\n"
                  "print(*sorted(set(sys.modules) - before))\n").split()
    assert "taitstates.cli" in added
    for name in ("dataclasses", "csv", "taitstates.diagram"):
        assert name not in added


def test_diagram_code_loads_on_the_first_diagram_input(tmp_path):
    graph, pd = tmp_path / "c3.json", tmp_path / "trefoil.pd"
    graph.write_text(to_json(cycle_graph(3)))
    pd.write_text(TREFOIL)
    out = fresh("import contextlib, io, sys\n"
                "from taitstates import cli\n"
                f"for path, fmt in [({str(graph)!r}, 'json'), ({str(pd)!r}, 'pd')]:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        code = cli.main(['adequate', path, '--format', fmt])\n"
                "    print(code, 'taitstates.diagram' in sys.modules)\n")
    assert out == "0 False\n0 True\n"


def test_bare_import_loads_no_submodule():
    out = fresh("import sys\n"
                "import taitstates\n"
                "print(*sorted(m for m in sys.modules if m.startswith('taitstates')))\n"
                "print([n for n in taitstates.__all__ if not hasattr(taitstates, n)])\n")
    assert out == "taitstates\n[]\n"


def test_submodule_import_keeps_exports():
    # ``taitstates.tutte`` is the function, even once the submodule of that
    # name has been imported before the function was looked up
    out = fresh("import importlib, types\n"
                "import taitstates.cli\n"
                f"for m in {SUBMODULES!r}:\n"
                "    importlib.import_module('taitstates.' + m)\n"
                "print([n for n in taitstates.__all__\n"
                "       if isinstance(getattr(taitstates, n), types.ModuleType)])\n"
                "print(taitstates.tutte is importlib.import_module('taitstates.tutte').tutte)\n")
    assert out == "[]\nTrue\n"


# ---------------------------------------------------------------------------
# value types: repr, ==, hash, no assignment
# ---------------------------------------------------------------------------


def trefoil_report() -> AdequacyReport:
    return enumerate_adequate(checkerboard(parse_pd(TREFOIL)).tait_graph)


def test_edge_value():
    e = Edge(0, 1, -1, "a")
    assert repr(e) == "Edge(half_a=0, half_b=1, sign=-1, label='a')"
    assert e == Edge(0, 1, -1, "a") and hash(e) == hash(Edge(0, 1, -1, "a"))
    assert e != Edge(0, 1, +1, "a")
    with pytest.raises(AttributeError):
        e.sign = 1


def test_state_value():
    s = State.from_dict({1: "A", 0: "B"})
    assert repr(s) == "State(items=((0, 'B'), (1, 'A')))"
    assert s == State.from_dict({0: "B", 1: "A"}) and hash(s) == hash(State(((0, "B"), (1, "A"))))
    assert s != s.dual()
    with pytest.raises(AttributeError):
        s.items = ()


def test_link_diagram_value():
    d = LinkDiagram(((3, 4, 1, 2),), 5)
    # a crossing listed from the other end of its under-strand is normalized
    assert d.crossings == ((1, 2, 3, 4),)
    assert repr(d) == "LinkDiagram(crossings=((1, 2, 3, 4),), outer_arc=5, swap_colors=None)"
    assert d == LinkDiagram([(1, 2, 3, 4)], outer_arc=5) and d != LinkDiagram(d.crossings)
    assert hash(d) == hash(LinkDiagram(((1, 2, 3, 4),), 5))
    colored = checkerboard(parse_pd(TREFOIL))
    assert repr(colored) == ("LinkDiagram(crossings=((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)), "
                             "outer_arc=None, swap_colors=False)")
    # what is cached on the diagram stays outside == and hash
    bare = LinkDiagram(colored.crossings, swap_colors=False)
    colored.tait_graph
    assert "tait_graph" in vars(colored) and "tait_graph" not in vars(bare)
    assert colored == bare and hash(colored) == hash(bare)
    assert colored != LinkDiagram(colored.crossings, swap_colors=True)
    for name in ("crossings", "outer_arc", "projection", "tait_graph"):
        with pytest.raises(AttributeError):
            setattr(colored, name, None)
        with pytest.raises(AttributeError):
            delattr(colored, name)


def test_records_and_reports_are_values():
    report = trefoil_report()
    assert repr(report) == (
        "AdequacyReport(states=(StateRecord(mask=0, poly=BiPoly(x^2 + x), homogeneous=None), "
        "StateRecord(mask=7, poly=BiPoly(x), homogeneous=None)), state_sum=BiPoly(x^2 + 2 x), "
        "diagonal=BiPoly(x^2 + 2 x), tree_count=3, verified=True)")
    again = trefoil_report()
    assert report == again and hash(report) == hash(again)
    assert report.states[0] == again.states[0] and hash(report.states[0]) == hash(again.states[0])
    assert report.states[0] != report.states[1]
    with pytest.raises(AttributeError):
        report.verified = False
    with pytest.raises(AttributeError):
        report.states[0].mask = 1
    assert isinstance(report.states[0], StateRecord)
