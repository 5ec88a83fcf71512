"""Seeded input streams for the two benchmark workloads.

The generators are ports of ``random_bridgeless_map``, ``cycle_graph``,
``double_edge_path`` and the medial PD construction of the test helpers.
They live here, free of any import from the package under test, so that an
edit to the test helpers or to the package cannot silently change what the
benchmark feeds the program: the same seed always yields byte-identical
inputs, and each run records a hash of the inputs it consumed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import count
from typing import Iterator

# The 11n95 diagram bundled with the test data, copied so that the workload
# does not depend on files outside the benchmark.  Known answers: diagonal
# 2t^6 + 16t^5 + 48t^4 + 62t^3 + 33t^2 + 6t, 167 spanning trees, 20
# adequate states of which none is homogeneously adequate.
KNOT_11N95 = {
    "crossings": [[1, 8, 2, 9], [9, 2, 10, 3], [13, 1, 14, 22], [17, 12, 18, 13],
                  [18, 12, 19, 11], [10, 8, 11, 7], [21, 5, 22, 4], [3, 15, 4, 14],
                  [16, 6, 17, 5], [20, 16, 21, 15], [6, 20, 7, 19]],
    "outer_arc": 3,
    "coloring": "canonical",
}
KNOT_11N95_DIAGONAL = [0, 6, 33, 62, 48, 16, 2]
KNOT_11N95_TREES = 167

# Sizes are cycled in order rather than drawn, so every run of a workload
# has the same mix of sizes whatever its seed.  The cost of an input rises
# about twofold per extra edge, so each size forms its own band of
# latencies, and the mix must put the median and the tail latency inside a
# band rather than in the gap between two, where they would jump.  On knots
# an odd number of sizes puts the median in the middle band.  On search two
# thirds of the maps have 15 edges and hold the median, from many samples;
# the 16-edge third holds the tail, inside its band, so that a few inputs
# slowed by the machine do not set it.  Vertex counts are pinned too: the
# cost of the 2^m scan and of the deletion-contraction depends on them, and
# leaving them to chance spreads the figures from seed to seed.  Random
# diagrams and search maps take v = m // 2 + 1, so that vertices and faces
# balance as in the Tait graphs of knot-table diagrams.
KNOT_CROSSINGS = (7, 8, 9, 10, 11, 12, 13)
TORUS_N = range(3, 13)  # T(2,n): 3..12 crossings
HOPF_N = range(2, 7)  # connected sums of n Hopf diagrams: 4..12 crossings
SEARCH_EDGES = (15, 15, 16)


# ---------------------------------------------------------------------------
# plane maps
# ---------------------------------------------------------------------------


class PlaneMap:
    """Signed plane multigraph given by a rotation system.

    ``rotations[v]`` is the counterclockwise cyclic order of the half-edges
    at vertex ``v``; ``edges`` holds ``(half_a, half_b, sign, label)``.
    This is the layout of the package's graph JSON.
    """

    def __init__(self, rotations, edges):
        self.rotations = [list(rot) for rot in rotations]
        self.edges = [tuple(e) for e in edges]

    def vertex_of_half(self) -> dict[int, int]:
        return {h: v for v, rot in enumerate(self.rotations) for h in rot}

    def endpoints(self) -> list[tuple[int, int]]:
        where = self.vertex_of_half()
        return [(where[a], where[b]) for a, b, _, _ in self.edges]

    def face_of_half(self) -> dict[int, int]:
        """half-edge -> face index; faces are numbered in the order the walk
        h -> next-at-vertex(partner(h)) first meets them, vertex by vertex."""
        where = self.vertex_of_half()
        pos = {h: i for rot in self.rotations for i, h in enumerate(rot)}
        partner = {}
        for a, b, _, _ in self.edges:
            partner[a] = b
            partner[b] = a
        out: dict[int, int] = {}
        n_faces = 0
        for rot in self.rotations:
            for h0 in rot:
                if h0 in out:
                    continue
                h = h0
                while True:
                    out[h] = n_faces
                    p = partner[h]
                    prot = self.rotations[where[p]]
                    h = prot[(pos[p] + 1) % len(prot)]
                    if h == h0:
                        break
                n_faces += 1
        return out

    def spanning_trees(self) -> int:
        """tau(G) as the determinant of a reduced Laplacian, computed exactly
        by fraction-free (Bareiss) elimination."""
        n = len(self.rotations)
        lap = [[0] * n for _ in range(n)]
        for u, v in self.endpoints():
            if u != v:
                lap[u][u] += 1
                lap[v][v] += 1
                lap[u][v] -= 1
                lap[v][u] -= 1
        a = [row[1:] for row in lap[1:]]
        size = n - 1
        sign, prev = 1, 1
        for k in range(size):
            if a[k][k] == 0:
                swap = next((r for r in range(k + 1, size) if a[r][k]), None)
                if swap is None:
                    return 0
                a[k], a[swap] = a[swap], a[k]
                sign = -sign
            for i in range(k + 1, size):
                for j in range(k + 1, size):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[size - 1][size - 1] if size else 1

    def to_json(self) -> str:
        return json.dumps({
            "vertices": self.rotations,
            "edges": [{"halves": [a, b], "sign": "+" if s > 0 else "-", "label": lab}
                      for a, b, s, lab in self.edges],
        }, separators=(",", ":"))


def cycle_graph(n: int, sign: int = +1) -> PlaneMap:
    rotations = [(2 * ((v - 1) % n) + 1, 2 * v) for v in range(n)]
    return PlaneMap(rotations, [(2 * i, 2 * i + 1, sign, i) for i in range(n)])


def double_edge_path(n: int, sign: int = +1) -> PlaneMap:
    """Path of n double edges: n+1 vertices, consecutive pairs doubly joined."""
    rotations: list[list[int]] = [[] for _ in range(n + 1)]
    edges = []
    for i in range(n):
        h = 4 * i
        edges.append((h, h + 1, sign, 2 * i))
        edges.append((h + 2, h + 3, sign, 2 * i + 1))
        rotations[i].extend([h, h + 2])
        rotations[i + 1].extend([h + 3, h + 1])
    return PlaneMap(rotations, edges)


def random_bridgeless_map(n_edges: int, rng: random.Random,
                          n_vertices: int | None = None) -> PlaneMap:
    """Random loopless bridgeless signed plane map: a cycle plus chords.

    Chords join corners of one face at distinct vertices, so every edge lies
    on a cycle and no loop appears.  The cycle length (the vertex count) is
    drawn from 2..n_edges unless ``n_vertices`` pins it.
    """
    if n_edges < 2:
        raise ValueError("need at least 2 edges for a bridgeless map")
    k = rng.randint(2, n_edges) if n_vertices is None else n_vertices
    if not 2 <= k <= n_edges:
        raise ValueError("need 2 <= n_vertices <= n_edges")
    base = cycle_graph(k)
    rotations = base.rotations
    edges = [(a, b, rng.choice([+1, -1]), lab) for a, b, _, lab in base.edges]
    h = 2 * k
    for step in range(k, n_edges):
        foh = PlaneMap(rotations, edges).face_of_half()
        gaps_by_face: dict[int, list[tuple[int, int]]] = {}
        for v, rot in enumerate(rotations):
            for i in range(len(rot)):
                gaps_by_face.setdefault(foh[rot[i]], []).append((v, i))
        candidates = [f for f in sorted(gaps_by_face)
                      if len({v for v, _ in gaps_by_face[f]}) >= 2]
        gaps = gaps_by_face[rng.choice(candidates)]
        v1, i1 = rng.choice(gaps)
        v2, i2 = rng.choice([(v, i) for (v, i) in gaps if v != v1])
        rotations[v1].insert(i1, h)
        rotations[v2].insert(i2, h + 1)
        edges.append((h, h + 1, rng.choice([+1, -1]), step))
        h += 2
    return PlaneMap(rotations, edges)


# ---------------------------------------------------------------------------
# medial construction: signed plane map -> PD code
# ---------------------------------------------------------------------------


def _normalized(crossings) -> tuple:
    """A crossing listed from either end of its under-strand is the same
    crossing; keep the lexicographically smaller listing, as the package's
    diagram type does."""
    return tuple(min(tuple(cr), (cr[2], cr[3], cr[0], cr[1])) for cr in crossings)


def medial_pd(g: PlaneMap) -> tuple:
    """Crossings of a diagram whose Tait graph is ``g`` or its planar dual.

    Crossing i corresponds to ``g.edges[i]``.  Arcs are renumbered 1..2n
    along oriented strands so the output looks like a knot-table code.
    """
    arc_ids: dict[tuple[int, int], int] = {}
    for v, rot in enumerate(g.rotations):
        for i in range(len(rot)):
            arc_ids[(v, i)] = len(arc_ids) + 1

    def corner(v: int, i: int) -> int:
        return arc_ids[(v, i % len(g.rotations[v]))]

    where = g.vertex_of_half()
    crossings = []
    for a, b, sign, _ in g.edges:
        u, w = where[a], where[b]
        p1 = g.rotations[u].index(a)
        p2 = g.rotations[w].index(b)
        e1, e2 = corner(u, p1 - 1), corner(u, p1)
        e3, e4 = corner(w, p2 - 1), corner(w, p2)
        # positive edges put the black quadrants in the A-channel
        crossings.append((e2, e3, e4, e1) if sign > 0 else (e1, e2, e3, e4))
    return _renumber_arcs(_normalized(crossings))


def _renumber_arcs(crossings: tuple) -> tuple:
    """Renumber arcs 1..2n along oriented strands, under-in at slot 0."""
    occ: dict[int, list[tuple[int, int]]] = {}
    for ci, cr in enumerate(crossings):
        for k, a in enumerate(cr):
            occ.setdefault(a, []).append((ci, k))

    visited: set[tuple[int, int]] = set()
    new_label: dict[int, int] = {}
    under_in: dict[int, int] = {}
    for a0 in sorted(occ):
        if a0 in new_label:
            continue
        arc, entry = a0, occ[a0][0]
        while True:
            if arc not in new_label:
                new_label[arc] = len(new_label) + 1
            ci, k = entry
            if (ci, k) in visited:
                break
            visited.add((ci, k))
            if k in (0, 2):
                under_in[ci] = k
            out_k = (k + 2) % 4
            arc = crossings[ci][out_k]
            entry = next(o for o in occ[arc] if o != (ci, out_k))

    rotated = []
    for ci, cr in enumerate(crossings):
        r = under_in.get(ci, 0)
        rotated.append(tuple(new_label[cr[(r + i) % 4]] for i in range(4)))
    return _normalized(rotated)


def pd_text(crossings) -> str:
    return " ".join("X[%d,%d,%d,%d]" % tuple(cr) for cr in crossings)


# ---------------------------------------------------------------------------
# workload streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Input:
    """One CLI invocation and what its output must satisfy.

    ``kind`` selects the correctness check; ``graph`` is the generating map
    (its spanning-tree count equals that of the Tait graph the program
    builds, which is the map or its planar dual); ``expect`` carries known
    answers for the fixed families.
    """

    name: str
    argv: tuple[str, ...]
    stdin: str
    kind: str
    digest: str
    graph: PlaneMap | None = None
    expect: dict | None = None


ADEQUATE_KNOT = ("adequate", "-", "--homogeneous", "--verify", "--output", "json")
ADEQUATE_GRAPH = ("adequate", "-", "--format", "json", "--verify", "--output", "json")


def _digest(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()


def _knot(name: str, g: PlaneMap, expect: dict | None = None) -> Input:
    crossings = medial_pd(g)
    # the digest is taken over the normalized crossing tuple, which is what
    # the package's per-diagram caches are keyed by
    return Input(name, ADEQUATE_KNOT, pd_text(crossings), "knot",
                 _digest(crossings), g, expect)


def _graph_input(name: str, g: PlaneMap) -> Input:
    text = g.to_json()
    return Input(name, ADEQUATE_GRAPH, text, "adequate", _digest(text), g)


def _knots(rng: random.Random) -> Iterator[Input]:
    text = json.dumps(KNOT_11N95)
    yield Input("11n95", ("adequate", "-", "--format", "json") + ADEQUATE_KNOT[2:], text,
                "knot", _digest(text), None,
                {"diagonal": KNOT_11N95_DIAGONAL, "trees": KNOT_11N95_TREES, "count": 0})
    for n in TORUS_N:
        yield _knot(f"T(2,{n})", cycle_graph(n), {"count": 2})
    for n in HOPF_N:
        yield _knot(f"hopf{n}", double_edge_path(n),
                    {"count": 2 ** n, "diagonal": [0] * n + [2 ** n]})
    for i in count():
        m = KNOT_CROSSINGS[i % len(KNOT_CROSSINGS)]
        yield _knot(f"pd{m}", random_bridgeless_map(m, rng, m // 2 + 1))


def _search(rng: random.Random) -> Iterator[Input]:
    for i in count():
        m = SEARCH_EDGES[i % len(SEARCH_EDGES)]
        yield _graph_input(f"map{m}", random_bridgeless_map(m, rng, m // 2 + 1))


WORKLOADS = {"knots": _knots, "search": _search}


def stream(workload: str, seed: int) -> Iterator[Input]:
    """Endless stream of distinct inputs; a repeat is skipped, so the program
    never meets an input twice in one run and always starts cold."""
    seen: set[str] = set()
    for inp in WORKLOADS[workload](random.Random(f"{workload}:{seed}")):
        if inp.digest not in seen:
            seen.add(inp.digest)
            yield inp
