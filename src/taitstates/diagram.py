"""Link diagrams from PD codes: coloring, Tait graphs and states.

Conventions, fixed once and checked by the invariant suite rather than by
pictures:

* A crossing record ``X[a, b, c, d]`` lists the four incident strand arcs in
  counterclockwise order starting at an end of the under-strand.  Slot ``k``
  of crossing ``ci`` is half-edge ``4*ci + k`` of the 4-valent projection
  map; quadrant ``q_k`` is the corner between slots ``k`` and ``k+1``.

* The A-resolution reconnects slots ``(0,1)`` and ``(2,3)``, merging the
  quadrants ``q1`` and ``q3`` into one region; the B-resolution reconnects
  ``(1,2)`` and ``(3,0)``, merging ``q0`` and ``q2``.  (This is invariant
  under listing the same crossing from the other under-strand end.)

* Opposite quadrants carry equal checkerboard colors.  A crossing's Tait
  edge is positive exactly when its black quadrant pair is the pair merged
  by the A-resolution, i.e. when ``q1`` is black.  Consequently the black
  checkerboard state B-resolves positive crossings and A-resolves negative
  ones, and the white checkerboard state does the reverse.

* Mirroring rotates every crossing record by one position, which swaps the
  two resolution channels and therefore flips every Tait sign.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .sgraph import (
    DisconnectedError,
    Edge,
    PDParseError,
    SignedMap,
    VerificationError,
    _DSU,
    _Frozen,
    _is_int,
    classify_edges,
    face_of_half,
    faces,
    label_sort_key,
)

__all__ = [
    "LinkDiagram",
    "State",
    "PDParseError",
    "ColoringError",
    "VerificationError",
    "parse_pd",
    "load_diagram_json",
    "checkerboard",
    "tait",
    "mirror",
    "is_reduced",
]


class ColoringError(ValueError):
    pass


_TOKEN = re.compile(r"[Xx]\s*[\[\(]([^\]\)]*)[\]\)]")


class LinkDiagram(_Frozen):
    """A link diagram as a crossing list, plus coloring bookkeeping.

    A crossing listed from either end of its under-strand is the same
    crossing, so listings are canonicalized to the lexicographically smaller
    of the two rotations; this makes mirroring a literal involution.

    ``swap_colors`` is None until ``checkerboard`` has been applied; False
    means the unbounded region is white (canonical), True means black.

    The projection map (its faces are the regions), the regions at each
    crossing, their colors and the Tait graph are computed on first use and
    kept on the diagram, outside ``==`` and ``hash``, so they are freed with
    it.
    """

    _fields = ("crossings", "outer_arc", "swap_colors")

    def __init__(self, crossings: Iterable[tuple[int, int, int, int]],
                 outer_arc: int | None = None, swap_colors: bool | None = None):
        normalized = tuple(min(cr, (cr[2], cr[3], cr[0], cr[1])) for cr in crossings)
        super().__init__(crossings=normalized, outer_arc=outer_arc, swap_colors=swap_colors)

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def arcs(self) -> list[int]:
        return sorted({a for cr in self.crossings for a in cr})

    @cached_property
    def projection(self) -> SignedMap:
        """The 4-valent projection as a combinatorial map (signs are dummies)."""
        if not self.crossings:
            raise ValueError("zero-crossing diagram has no projection map")
        by_arc: dict[int, list[int]] = {}
        for ci, cr in enumerate(self.crossings):
            for k, a in enumerate(cr):
                by_arc.setdefault(a, []).append(_slot(ci, k))
        edges = [Edge(slots[0], slots[1], +1, arc) for arc, slots in by_arc.items()]
        vertices = [tuple(range(4 * ci, 4 * ci + 4)) for ci in range(self.n_crossings)]
        return SignedMap(vertices, edges)

    @cached_property
    def corner_faces(self) -> tuple[tuple[int, int, int, int], ...]:
        """``corner_faces[ci][k]`` is the region index of quadrant q_k (the
        corner between slots k and k+1 of crossing ci)."""
        foh = face_of_half(self.projection)
        return tuple(
            tuple(foh[_slot(ci, k + 1)] for k in range(4))
            for ci in range(self.n_crossings)
        )

    @cached_property
    def colors(self) -> tuple[str, ...]:
        """Proper 2-coloring of the regions; requires ``checkerboard`` first."""
        if self.swap_colors is None:
            raise ColoringError("diagram has not been checkerboard-colored yet")
        nf = len(faces(self.projection))
        foh = face_of_half(self.projection)
        adj: list[set[int]] = [set() for _ in range(nf)]
        for e in self.projection.edges:
            f1, f2 = foh[e.half_a], foh[e.half_b]
            if f1 == f2:
                raise ColoringError(
                    f"region {f1} lies on both sides of arc {e.label}; diagram not colorable"
                )
            adj[f1].add(f2)
            adj[f2].add(f1)
        color = [-1] * nf
        stack = [0]
        color[0] = 0
        while stack:
            f = stack.pop()
            for g in adj[f]:
                if color[g] == -1:
                    color[g] = 1 - color[f]
                    stack.append(g)
                elif color[g] == color[f]:
                    raise ColoringError("projection regions are not 2-colorable")
        outer = outer_region(self)
        # canonical: unbounded region white
        outer_color = "black" if self.swap_colors else "white"
        other = "white" if outer_color == "black" else "black"
        return tuple(outer_color if color[f] == color[outer] else other for f in range(nf))

    @cached_property
    def tait_graph(self) -> SignedMap:
        """The signed Tait graph, edge ci for crossing ci (``tait`` has more);
        a projection that is not planar raises ``PDParseError``."""
        walks, corner_face = faces(self.projection), self.corner_faces
        euler = len(walks) - self.n_crossings  # v - e + f, as e = 2v
        if euler != 2:
            raise PDParseError(f"the projection is not planar: v - e + f = {euler}, not 2")
        colors = self.colors

        # walk index equals region index (faces() enumeration order)
        black_walks = [wi for wi in range(len(walks)) if colors[wi] == "black"]
        vertex_of_walk = {wi: i for i, wi in enumerate(black_walks)}

        signs: list[int] = []
        black_corners: list[tuple[int, int]] = []
        for ci in range(self.n_crossings):
            cc = [colors[f] for f in corner_face[ci]]
            if cc[0] != cc[2] or cc[1] != cc[3] or cc[0] == cc[1]:
                raise ColoringError(f"crossing {ci}: quadrant colors do not alternate")
            if cc[1] == "black":
                signs.append(+1)
                black_corners.append((1, 3))
            else:
                signs.append(-1)
                black_corners.append((0, 2))

        # vertex rotations: black corners in face-walk order
        rotations: list[list[int]] = [[] for _ in black_walks]
        for wi in black_walks:
            rot = rotations[vertex_of_walk[wi]]
            for h in walks[wi]:
                ci, j = divmod(h, 4)
                k = (j - 1) % 4  # corner between slots k and k+1 is entered via slot k+1
                rot.append(_slot(ci, k))

        edges = []
        for ci in range(self.n_crossings):
            k1, k2 = black_corners[ci]
            edges.append(Edge(_slot(ci, k1), _slot(ci, k2), signs[ci], ci))

        g = SignedMap(rotations, edges)

        # check that the Tait face walks and the white regions biject
        tait_walks = faces(g)
        white_of_walk: list[int] = []
        for ti, tw in enumerate(tait_walks):
            whites = set()
            for h in tw:
                ci, k = divmod(h, 4)
                whites.add(corner_face[ci][(k + _WHITE_SIDE) % 4])
            if len(whites) != 1:
                raise VerificationError(
                    f"tait face {ti} hugs several white regions: {sorted(whites)}")
            white_of_walk.append(whites.pop())
        if len(set(white_of_walk)) != len(tait_walks):
            raise VerificationError("tait faces and white regions do not biject")
        return g


class State(NamedTuple):
    """A choice of resolution ('A' or 'B') for every crossing / edge label."""

    items: tuple[tuple[object, str], ...]

    @classmethod
    def from_dict(cls, d: Mapping) -> "State":
        for v in d.values():
            if v not in ("A", "B"):
                raise ValueError(f"resolution must be 'A' or 'B', got {v!r}")
        return cls(tuple(sorted(d.items(), key=lambda kv: label_sort_key(kv[0]))))

    def __str__(self) -> str:
        return "".join(v for _, v in self.items)


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def parse_pd(text: str, outer_arc: int | None = None) -> LinkDiagram:
    """Parse PD text such as ``X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]``."""
    if not text.strip():
        raise PDParseError("empty input")
    body = text.strip()
    if body.startswith("PD[") and body.endswith("]"):
        body = body[3:-1]
    crossings: list[tuple[int, int, int, int]] = []
    matched_spans: list[tuple[int, int]] = []
    for m in _TOKEN.finditer(body):
        matched_spans.append(m.span())
        fields = [f.strip() for f in m.group(1).split(",")]
        if len(fields) != 4:
            raise PDParseError(f"crossing needs 4 arcs: {m.group(0)!r}")
        try:
            crossings.append(tuple(int(f) for f in fields))  # type: ignore[arg-type]
        except ValueError:
            raise PDParseError(f"non-integer arc label in {m.group(0)!r}") from None
    leftover = body
    for s, e in reversed(matched_spans):
        leftover = leftover[:s] + leftover[e:]
    leftover = leftover.replace(",", " ").strip()
    if leftover:
        raise PDParseError(f"unrecognized input near {leftover.split()[0]!r}")
    if not crossings:
        raise PDParseError("no crossings found")
    d = LinkDiagram(crossings=tuple(crossings), outer_arc=outer_arc)
    _validate(d)
    return d


def load_diagram_json(doc) -> LinkDiagram:
    """The diagram of a parsed diagram JSON document."""
    if not isinstance(doc, dict):
        raise PDParseError("malformed diagram JSON: expected an object")
    crossings = doc.get("crossings")
    if not isinstance(crossings, list):
        raise PDParseError("malformed diagram JSON: expected a 'crossings' list")
    for cr in crossings:
        if not (isinstance(cr, list) and all(map(_is_int, cr))):
            raise PDParseError(f"malformed diagram JSON: crossing {cr!r} is not a list of integers")
    crossings = tuple(map(tuple, crossings))
    if any(len(cr) != 4 for cr in crossings):
        raise PDParseError("each crossing needs exactly 4 arcs")
    if not crossings:
        raise PDParseError("no crossings found")
    outer_arc = doc.get("outer_arc")
    if outer_arc is not None and not _is_int(outer_arc):
        raise PDParseError(f"malformed diagram JSON: outer_arc {outer_arc!r} is not an integer")
    d = LinkDiagram(crossings=crossings, outer_arc=outer_arc)
    _validate(d)
    if "coloring" in doc:
        d = checkerboard(d, doc["coloring"])
    return d


def _validate(d: LinkDiagram) -> None:
    counts: dict[int, int] = {}
    for cr in d.crossings:
        for a in cr:
            counts[a] = counts.get(a, 0) + 1
    bad = sorted(a for a, c in counts.items() if c != 2)
    if bad:
        raise PDParseError(f"arc label {bad[0]} occurs {counts[bad[0]]} time(s), expected 2")
    if d.outer_arc is not None and d.outer_arc not in counts:
        raise PDParseError(f"outer_arc {d.outer_arc} is not an arc of the diagram")
    # connectivity of the projection graph
    n = d.n_crossings
    dsu = _DSU(n)
    where: dict[int, int] = {}
    for ci, cr in enumerate(d.crossings):
        for a in cr:
            if a in where:
                dsu.union(where[a], ci)
            else:
                where[a] = ci
    if n and len({dsu.find(i) for i in range(n)}) != 1:
        raise DisconnectedError("projection graph is disconnected")


# ---------------------------------------------------------------------------
# projection map, regions, coloring
# ---------------------------------------------------------------------------


def _slot(ci: int, k: int) -> int:
    return 4 * ci + (k % 4)


def region_count(d: LinkDiagram) -> int:
    return len(faces(d.projection))


def _anchor_slot(d: LinkDiagram, arc: int) -> int:
    """A deterministic half-edge on a fixed geometric side of the arc.

    Anchoring to the arc end at the lower crossing (or, within one crossing,
    to the end whose counterclockwise successor slot holds the same arc)
    keeps the choice stable under relisting crossings from the other
    under-strand end and under mirroring.
    """
    occ = sorted(
        (ci, k)
        for ci, cr in enumerate(d.crossings)
        for k, a in enumerate(cr)
        if a == arc
    )
    (c1, k1), (c2, k2) = occ
    if c1 != c2:
        return _slot(c1, k1)
    if (k1 + 1) % 4 == k2:
        return _slot(c1, k1)
    if (k2 + 1) % 4 == k1:
        return _slot(c1, k2)
    # opposite slots of one crossing would force an odd intersection count
    raise PDParseError(f"arc {arc} meets crossing {c1} at opposite ends")


def outer_region(d: LinkDiagram) -> int:
    """Region index of the unbounded face.

    Taken from the ``outer_arc`` marker when present, else from the lowest
    numbered arc; the region is the one traced through the anchor end.
    """
    arc = d.outer_arc if d.outer_arc is not None else min(d.arcs())
    return face_of_half(d.projection)[_anchor_slot(d, arc)]


def checkerboard(d: LinkDiagram, convention: str = "canonical") -> LinkDiagram:
    """Color the regions; canonical shades the unbounded region white."""
    if convention not in ("canonical", "swapped"):
        raise ValueError("convention must be 'canonical' or 'swapped'")
    colored = LinkDiagram(d.crossings, d.outer_arc, swap_colors=(convention == "swapped"))
    colored.colors  # force validation
    return colored


# ---------------------------------------------------------------------------
# the Tait graph
# ---------------------------------------------------------------------------

# A Tait face walk hugs, at each black corner (ci, k) it traverses, the white
# quadrant one step clockwise of it; equivalently the walk containing corner
# (ci, k) encloses white quadrant (ci, k-1).  Fixed here once; the region
# oracle tests in the suite pin it down.
_WHITE_SIDE = -1


def tait(d: LinkDiagram) -> tuple[SignedMap, dict[int, int]]:
    """Tait graph of a colored diagram plus the crossing-to-edge-label map.

    One vertex per black region, one signed edge per crossing; rotations are
    inherited from the cyclic order of crossings around each black region.
    """
    return d.tait_graph, {ci: ci for ci in range(d.n_crossings)}


def mirror(d: LinkDiagram) -> LinkDiagram:
    """Swap over- and under-strand at every crossing."""
    rotated = tuple((b, c, dd, a) for (a, b, c, dd) in d.crossings)
    return LinkDiagram(rotated, d.outer_arc, d.swap_colors)


def is_reduced(d: LinkDiagram) -> bool:
    """True iff no crossing meets a region twice (no nugatory crossings)."""
    nugatory = nugatory_crossings(d)
    if d.swap_colors is not None:
        g, _ = tait(d)
        bridges, loops = classify_edges(g)
        if bool(nugatory) != bool(bridges | loops):
            raise VerificationError("nugatory/bridge-loop mismatch")
    return not nugatory


def nugatory_crossings(d: LinkDiagram) -> list[int]:
    return [ci for ci in range(d.n_crossings) if len(set(d.corner_faces[ci])) < 4]
