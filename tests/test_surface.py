"""The public surface: every exported name resolves, and the test oracles
and writers, which live in ``tests/helpers.py``, are not exported."""

import importlib

import pytest

import taitstates
from taitstates.bipoly import BiPoly
from taitstates.diagram import LinkDiagram, State

SUBMODULES = ["_scan", "adequacy", "bipoly", "cli", "diagram", "sgraph", "tutte"]

# moved to tests/helpers.py, or deleted in favor of the code they wrapped
GONE = [
    "tutte_oracle", "kook_sum", "dual_symmetry_check", "spanning_tree_count",
    "graphs_isomorphic", "_graph_profile", "to_json", "diagram_to_json",
    "cycle_membership", "blocks", "delete", "diagram_report",
]
GONE_METHODS = [
    (BiPoly, "const"), (BiPoly, "coeff"), (BiPoly, "scale"), (BiPoly, "to_json_terms"),
    (State, "as_dict"), (State, "keys"), (LinkDiagram, "unknot"),
]


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
