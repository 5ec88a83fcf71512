"""Tait graphs, Tutte polynomials, and adequate-state enumeration.

The package takes checkerboard-colorable link diagrams (PD codes or JSON),
builds their signed Tait graphs as combinatorial maps, and enumerates every
state of the diagram whose state graph has no segment joining a circle to
itself.  Each such state carries a product of one-variable Tutte
specializations; the products sum to the diagonal Tutte polynomial of the
Tait graph, which the enumeration uses as a completeness certificate.  A
further filter keeps the homogeneously adequate states.
"""

from .bipoly import BiPoly
from .sgraph import (
    DisconnectedError,
    Edge,
    SignedMap,
    UnknownEdgeError,
    classify_edges,
    components,
    contract,
    faces,
    flip_signs,
    planar_dual,
    restrict,
)
from .tutte import (
    CapExceededError,
    TutteEngine,
    tutte,
)
from .diagram import (
    ColoringError,
    EdgePartition,
    LinkDiagram,
    PDParseError,
    State,
    checkerboard,
    checkerboard_states,
    classify,
    is_reduced,
    load_diagram_json,
    mirror,
    parse_pd,
    segment_self_touch,
    state_circles,
    tait,
)
from .adequacy import (
    AdequacyReport,
    StateRecord,
    VerificationError,
    ab_adequacy,
    adequacy_polynomial,
    adequate_by_partition,
    enumerate_adequate,
    enumerate_homogeneous,
    homogeneous_adequate,
    state_from_partition,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "SignedMap",
    "Edge",
    "LinkDiagram",
    "State",
    "EdgePartition",
    "AdequacyReport",
    "StateRecord",
    "TutteEngine",
    "DisconnectedError",
    "UnknownEdgeError",
    "PDParseError",
    "ColoringError",
    "CapExceededError",
    "VerificationError",
    "parse_pd",
    "load_diagram_json",
    "checkerboard",
    "tait",
    "mirror",
    "is_reduced",
    "classify",
    "checkerboard_states",
    "state_circles",
    "segment_self_touch",
    "restrict",
    "contract",
    "components",
    "classify_edges",
    "faces",
    "planar_dual",
    "flip_signs",
    "tutte",
    "adequate_by_partition",
    "adequacy_polynomial",
    "state_from_partition",
    "enumerate_adequate",
    "enumerate_homogeneous",
    "ab_adequacy",
    "homogeneous_adequate",
]
