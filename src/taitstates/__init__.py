"""Tait graphs, Tutte polynomials, and adequate-state enumeration.

The package takes checkerboard-colorable link diagrams (PD codes or JSON),
builds their signed Tait graphs as combinatorial maps, and enumerates every
state of the diagram whose state graph has no segment joining a circle to
itself.  Each such state carries a product of one-variable Tutte
specializations; the products sum to the diagonal Tutte polynomial of the
Tait graph, which the enumeration uses as a completeness certificate.  A
further filter keeps the homogeneously adequate states.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# each export and the submodule that defines it; a submodule is imported on
# the first access to one of its names, so ``import taitstates`` loads none
_EXPORTS = {
    "BiPoly": "bipoly",
    "SignedMap": "sgraph",
    "Edge": "sgraph",
    "LinkDiagram": "diagram",
    "State": "diagram",
    "AdequacyReport": "adequacy",
    "StateRecord": "adequacy",
    "TutteEngine": "tutte",
    "DisconnectedError": "sgraph",
    "UnknownEdgeError": "sgraph",
    "PDParseError": "sgraph",
    "ColoringError": "diagram",
    "CapExceededError": "tutte",
    "VerificationError": "sgraph",
    "parse_pd": "diagram",
    "load_diagram_json": "diagram",
    "checkerboard": "diagram",
    "tait": "diagram",
    "mirror": "diagram",
    "is_reduced": "diagram",
    "restrict": "sgraph",
    "contract": "sgraph",
    "components": "sgraph",
    "classify_edges": "sgraph",
    "faces": "sgraph",
    "planar_dual": "sgraph",
    "flip_signs": "sgraph",
    "tutte": "tutte",
    "adequate_by_partition": "adequacy",
    "adequacy_polynomial": "adequacy",
    "enumerate_adequate": "adequacy",
    "enumerate_homogeneous": "adequacy",
    "ab_adequacy": "adequacy",
    "homogeneous_adequate": "adequacy",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        modname = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{modname}"), name)
    globals()[name] = value
    return value


class _Package(ModuleType):
    """The package module.  Importing a submodule binds it on the package,
    and ``tutte`` names both a submodule and the function exported from it,
    so a submodule is never bound over an export of the same name."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _EXPORTS and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
