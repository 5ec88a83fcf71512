"""Shared test machinery: diagram builders, generators, independent oracles.

The medial construction here inverts the Tait correspondence: given a signed
plane map it produces a PD code whose canonically colored Tait graph is
isomorphic to the input.  It exists only for building test inputs; the
package under test never consumes it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import replace
from itertools import combinations
from typing import Any

from taitstates.bipoly import BiPoly
from taitstates.diagram import (
    LinkDiagram,
    State,
    checkerboard,
    segment_self_touch,
    tait,
)
from taitstates.sgraph import (
    SignedMap,
    contract,
    face_of_half,
    faces,
    label_sort_key,
    planar_dual,
    restrict,
)
from taitstates.tutte import CapExceededError, TutteEngine, _mgraph_of


# ---------------------------------------------------------------------------
# medial construction: signed plane map -> PD code
# ---------------------------------------------------------------------------


def medial_pd(g: SignedMap) -> LinkDiagram:
    """PD diagram whose Tait graph (under the right coloring) is ``g``.

    Crossing i corresponds to ``g.edges[i]``.  Arc labels are renumbered
    1..2n along oriented strands so the output looks like a knot-table code.
    """
    # one arc per corner (vertex, rotation position)
    arc_ids: dict[tuple[int, int], int] = {}
    for v, rot in enumerate(g.vertices):
        for i in range(len(rot)):
            arc_ids[(v, i)] = len(arc_ids) + 1

    def corner(v: int, i: int) -> int:
        return arc_ids[(v, i % len(g.vertices[v]))]

    crossings: list[tuple[int, int, int, int]] = []
    for e in g.edges:
        u = g.vertex_of_half(e.half_a)
        w = g.vertex_of_half(e.half_b)
        p1 = g.vertices[u].index(e.half_a)
        p2 = g.vertices[w].index(e.half_b)
        e1 = corner(u, p1 - 1)
        e2 = corner(u, p1)
        e3 = corner(w, p2 - 1)
        e4 = corner(w, p2)
        # cyclic slot order (e1, e2, e3, e4): quadrants (e1,e2)=black u side,
        # (e3,e4)=black w side.  Positive edges put the blacks in the
        # A-channel (q1, q3), so the listing starts one slot later.
        if e.sign > 0:
            crossings.append((e2, e3, e4, e1))
        else:
            crossings.append((e1, e2, e3, e4))

    return _renumber_arcs(LinkDiagram(tuple(crossings)))


def _renumber_arcs(d: LinkDiagram) -> LinkDiagram:
    """Renumber arcs 1..2n along oriented strands, under-in at slot 0."""
    n = d.n_crossings
    occ: dict[int, list[tuple[int, int]]] = {}
    for ci, cr in enumerate(d.crossings):
        for k, a in enumerate(cr):
            occ.setdefault(a, []).append((ci, k))

    # orient strands: entering slot k leaves via slot (k+2) % 4
    visited: set[tuple[int, int]] = set()
    new_label: dict[int, int] = {}
    next_label = 1
    under_in: dict[int, int] = {}  # crossing -> slot where an oriented strand enters under
    for a0 in sorted(occ):
        if a0 in new_label:
            continue
        # walk the strand containing arc a0, in the direction that traverses
        # its first occurrence "into" the crossing
        arc = a0
        entry = occ[a0][0]
        while True:
            if arc not in new_label:
                new_label[arc] = next_label
                next_label += 1
            ci, k = entry
            if (ci, k) in visited:
                break
            visited.add((ci, k))
            if k in (0, 2):
                under_in[ci] = k
            out_k = (k + 2) % 4
            out_arc = d.crossings[ci][out_k]
            nxt = [(cj, m) for (cj, m) in occ[out_arc] if (cj, m) != (ci, out_k)]
            arc = out_arc
            entry = nxt[0]

    rotated = []
    for ci, cr in enumerate(d.crossings):
        r = under_in.get(ci, 0) if under_in.get(ci, 0) in (0, 2) else 0
        cr2 = tuple(new_label[cr[(r + i) % 4]] for i in range(4))
        rotated.append(cr2)
    return LinkDiagram(tuple(rotated), outer_arc=None)


def diagram_for_graph(g: SignedMap) -> LinkDiagram:
    """Build a colored diagram whose canonical Tait graph is signed-isomorphic to ``g``.

    Scans outer_arc choices deterministically until the canonical coloring
    reproduces ``g``; raises if none does (which would mean the medial
    emitter broke).
    """
    d0 = medial_pd(g)
    for arc in d0.arcs():
        d = checkerboard(replace(d0, outer_arc=arc), "canonical")
        t, _ = tait(d)
        if t.n_vertices == g.n_vertices and graphs_isomorphic(t, g, respect_signs=True):
            return d
    raise AssertionError("no outer_arc choice reproduces the input graph")


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------


def cycle_graph(n: int, sign: int = +1) -> SignedMap:
    verts = []
    for v in range(n):
        prev = (v - 1) % n
        verts.append((2 * prev + 1, 2 * v))
    edges = [(2 * i, 2 * i + 1, sign, i) for i in range(n)]
    return SignedMap(verts, edges)


def double_edge_path(n: int, sign: int = +1) -> SignedMap:
    """Path of n double edges: n+1 vertices, consecutive pairs doubly joined."""
    verts: list[list[int]] = [[] for _ in range(n + 1)]
    edges = []
    h = 0
    for i in range(n):
        # two parallel edges between i and i+1; nested rotations keep it plane
        e1 = (h, h + 1, sign, 2 * i)
        e2 = (h + 2, h + 3, sign, 2 * i + 1)
        verts[i].extend([h, h + 2])
        verts[i + 1].extend([h + 3, h + 1])
        edges.append(e1)
        edges.append(e2)
        h += 4
    return SignedMap([tuple(v) for v in verts], edges)


def theta_graph(lengths: list[int], sign: int = +1) -> SignedMap:
    """Two poles joined by internally disjoint paths of the given lengths.

    Paths of equal length make a theta graph; one path per length 1 edge is
    a bond, and a bond with longer paths is a subdivided bond.  The paths are
    nested arcs from pole 0 to pole 1, so the map is plane.
    """
    verts: list[list[int]] = [[], []]
    edges = []
    h = 0
    for length in lengths:
        prev = 0
        for step in range(length):
            nxt = 1 if step == length - 1 else len(verts)
            if nxt != 1:
                verts.append([])
            verts[prev].append(h)
            verts[nxt].append(h + 1)
            edges.append((h, h + 1, sign, len(edges)))
            h += 2
            prev = nxt
    # the arcs reach pole 1 in the reverse of their order at pole 0
    verts[1].reverse()
    return SignedMap([tuple(v) for v in verts], edges)


def fat_cycle(multiplicities: list[int], sign: int = +1) -> SignedMap:
    """A cycle on ``len(multiplicities)`` vertices whose i-th edge, from
    vertex i to vertex i+1, is replaced by that many parallel edges; plane."""
    c = len(multiplicities)
    outgoing: list[list[int]] = [[] for _ in range(c)]
    incoming: list[list[int]] = [[] for _ in range(c)]
    edges = []
    h = 0
    for i, k in enumerate(multiplicities):
        for _ in range(k):
            outgoing[i].append(h)
            incoming[(i + 1) % c].append(h + 1)
            edges.append((h, h + 1, sign, len(edges)))
            h += 2
    return SignedMap([tuple(reversed(incoming[v])) + tuple(outgoing[v]) for v in range(c)],
                     edges)


def ladder_graph(rungs: int, sign: int = +1) -> SignedMap:
    """The ladder with the given number of rungs: 3 * rungs - 2 edges.  Vertex
    i sits at (i // 2, i % 2) in the plane, and each rotation lists its
    half-edges by angle, so the map is plane."""
    pairs = [(i, i + 1) for i in range(0, 2 * rungs, 2)]  # the rungs
    pairs += [(i, i + 2) for i in range(2 * rungs - 2)]  # the two rails
    around: list[list[tuple[float, int]]] = [[] for _ in range(2 * rungs)]
    for k, (u, v) in enumerate(pairs):
        dx, dy = v // 2 - u // 2, v % 2 - u % 2
        around[u].append((math.atan2(dy, dx), 2 * k))
        around[v].append((math.atan2(-dy, -dx), 2 * k + 1))
    edges = [(2 * k, 2 * k + 1, sign, k) for k in range(len(pairs))]
    return SignedMap([tuple(h for _, h in sorted(a)) for a in around], edges)


def torus2n_diagram(n: int) -> LinkDiagram:
    """Standard (2,n) torus link diagram, canonically colored, Tait graph C_n."""
    return diagram_for_graph(cycle_graph(n))


def hopf_sum_diagram(n: int) -> LinkDiagram:
    """Connect sum of n Hopf diagrams: Tait graph is a path of n double edges."""
    return diagram_for_graph(double_edge_path(n))


# ---------------------------------------------------------------------------
# random generators (seeded, deterministic)
# ---------------------------------------------------------------------------


def random_planar_map(n_edges: int, rng: random.Random, signed: bool = True,
                      allow_loops: bool = True) -> SignedMap:
    """Random connected plane map grown by inserting edges into face corners.

    Each insertion joins two corners of one face (or sprouts a leaf vertex
    into a face), which preserves planarity and connectivity by
    construction.  A "gap" (v, i) is the slot before rotation position i.
    """
    rotations: list[list[int]] = [[]]
    edges: list[tuple[int, int, int, object]] = []
    h = 0

    for step in range(n_edges):
        sign = rng.choice([+1, -1]) if signed else +1
        label = step
        if not edges:
            if allow_loops and rng.random() < 0.25:
                rotations[0] = [h, h + 1]
            else:
                rotations[0] = [h]
                rotations.append([h + 1])
            edges.append((h, h + 1, sign, label))
            h += 2
            continue

        m = SignedMap([tuple(r) for r in rotations], edges)
        foh = face_of_half(m)
        gaps_by_face: dict[int, list[tuple[int, int]]] = {}
        for v, rot in enumerate(rotations):
            for i in range(len(rot)):
                # the gap before position i opens into the face entered via rot[i]
                gaps_by_face.setdefault(foh[rot[i]], []).append((v, i))
        face = rng.choice(sorted(gaps_by_face))
        gaps = gaps_by_face[face]

        sprout = rng.random() < 0.35
        if not sprout:
            v1, i1 = rng.choice(gaps)
            v2, i2 = rng.choice(gaps)
            if v1 == v2 and not allow_loops:
                others = [(v, i) for (v, i) in gaps if v != v1]
                if others:
                    v2, i2 = rng.choice(others)
                else:
                    sprout = True
            if not sprout:
                if v1 == v2:
                    # insert at the larger index first so the smaller stays valid
                    if i1 < i2:
                        rotations[v1].insert(i2, h + 1)
                        rotations[v1].insert(i1, h)
                    else:
                        rotations[v1].insert(i1, h)
                        rotations[v1].insert(i2, h + 1)
                else:
                    rotations[v1].insert(i1, h)
                    rotations[v2].insert(i2, h + 1)
        if sprout:
            v1, i1 = rng.choice(gaps)
            rotations[v1].insert(i1, h)
            rotations.append([h + 1])
        edges.append((h, h + 1, sign, label))
        h += 2

    return SignedMap([tuple(r) for r in rotations], edges)


def random_bridgeless_map(n_edges: int, rng: random.Random, signed: bool = True,
                          n_vertices: int | None = None) -> SignedMap:
    """Random loopless bridgeless plane map: a cycle plus chord insertions.

    Chords join corners of one face at distinct vertices, so every edge ends
    up on a cycle and no loops appear; the result is always reduced in the
    Tait sense.  The cycle length (the vertex count) is drawn from
    2..n_edges unless ``n_vertices`` pins it.
    """
    if n_edges < 2:
        raise ValueError("need at least 2 edges for a bridgeless map")
    k = rng.randint(2, n_edges) if n_vertices is None else n_vertices
    if not 2 <= k <= n_edges:
        raise ValueError("need 2 <= n_vertices <= n_edges")
    base = cycle_graph(k)
    rotations = [list(rot) for rot in base.vertices]
    edges = [(e.half_a, e.half_b, rng.choice([+1, -1]) if signed else +1, e.label)
             for e in base.edges]
    h = 2 * k
    for step in range(k, n_edges):
        m = SignedMap([tuple(r) for r in rotations], edges)
        foh = face_of_half(m)
        gaps_by_face: dict[int, list[tuple[int, int]]] = {}
        for v, rot in enumerate(rotations):
            for i in range(len(rot)):
                gaps_by_face.setdefault(foh[rot[i]], []).append((v, i))
        candidates = [f for f in sorted(gaps_by_face)
                      if len({v for v, _ in gaps_by_face[f]}) >= 2]
        face = rng.choice(candidates)
        gaps = gaps_by_face[face]
        v1, i1 = rng.choice(gaps)
        v2, i2 = rng.choice([(v, i) for (v, i) in gaps if v != v1])
        rotations[v1].insert(i1, h)
        rotations[v2].insert(i2, h + 1)
        sign = rng.choice([+1, -1]) if signed else +1
        edges.append((h, h + 1, sign, step))
        h += 2
    return SignedMap([tuple(r) for r in rotations], edges)


def random_diagram(n_crossings: int, rng: random.Random, reduced_only: bool = False,
                   max_tries: int = 200) -> LinkDiagram:
    """Random connected colored diagram built through the Tait bijection."""
    from taitstates.diagram import is_reduced
    from taitstates.sgraph import classify_edges

    for _ in range(max_tries):
        if reduced_only:
            g = random_bridgeless_map(max(2, n_crossings), rng)
        else:
            g = random_planar_map(n_crossings, rng)
        if reduced_only:
            bridges, loops = classify_edges(g)
            if bridges or loops:
                continue
        d0 = medial_pd(g)
        arc = min(d0.arcs())
        d = checkerboard(replace(d0, outer_arc=arc), "canonical")
        if reduced_only and not is_reduced(d):
            continue
        return d
    raise AssertionError("generator failed to produce a diagram")


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def brute_spanning_tree_count(g: SignedMap) -> int:
    """Count spanning trees by exhausting edge subsets of size v-1."""
    n = g.n_vertices
    labels = [e.label for e in g.edges if not g.is_loop(e.label)]
    ends = {lab: g.endpoints(lab) for lab in labels}
    count = 0
    if n == 1:
        return 1
    for subset in combinations(labels, n - 1):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for lab in subset:
            u, v = ends[lab]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[rv] = ru
        if ok:
            count += 1
    return count


def tutte_oracle(g: SignedMap, cap: int = 14) -> BiPoly:
    """Independent check: Whitney rank-nullity expansion over all edge subsets."""
    m = g.n_edges
    if m > cap:
        raise CapExceededError(f"oracle capped at {cap} edges, got {m}")
    n, edges = _mgraph_of(g)

    def rank_of(subset: tuple[int, ...]) -> int:
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        k = n
        for i in subset:
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
                k -= 1
        return n - k

    xm1 = BiPoly.x() - BiPoly.one()
    ym1 = BiPoly.y() - BiPoly.one()
    xpow = [BiPoly.one()]
    ypow = [BiPoly.one()]
    for _ in range(m + 1):
        xpow.append(xpow[-1] * xm1)
        ypow.append(ypow[-1] * ym1)

    r_full = rank_of(tuple(range(m)))
    total = BiPoly.zero()
    for size in range(m + 1):
        for subset in combinations(range(m), size):
            r = rank_of(subset)
            total = total + xpow[r_full - r] * ypow[size - r]
    return total


def kook_sum(g: SignedMap, engine: TutteEngine | None = None, cap: int = 14) -> BiPoly:
    """Subset convolution for the diagonal: sum over all H of
    (restriction polynomial at x=0) times (contraction polynomial at y=0).

    Must agree with the x=y specialization of the Tutte polynomial.
    """
    m = g.n_edges
    if m > cap:
        raise CapExceededError(f"subset sum capped at {cap} edges, got {m}")
    eng = engine or TutteEngine()
    labels = g.sorted_labels()
    total = BiPoly.zero()
    for mask in range(1 << m):
        subset = frozenset(labels[i] for i in range(m) if mask >> i & 1)
        left = eng.tutte(restrict(g, subset)).specialize("x_to_zero")
        right = eng.tutte(contract(g, subset)).specialize("y_to_zero")
        total = total + left * right
    return total


def dual_symmetry_check(g: SignedMap, engine: TutteEngine | None = None) -> bool:
    """True iff the dual's polynomial equals the original with x and y swapped."""
    eng = engine or TutteEngine()
    return eng.tutte(planar_dual(g)) == eng.tutte(g).swap_vars()


def _graph_profile(g: SignedMap, respect_signs: bool):
    n = g.n_vertices
    pairs: dict[tuple[int, int, int], int] = {}
    loops: dict[tuple[int, int], int] = {}
    for e in g.edges:
        u = g.vertex_of_half(e.half_a)
        v = g.vertex_of_half(e.half_b)
        s = e.sign if respect_signs else 0
        if u == v:
            loops[(u, s)] = loops.get((u, s), 0) + 1
        else:
            key = (min(u, v), max(u, v), s)
            pairs[key] = pairs.get(key, 0) + 1
    return n, pairs, loops


def graphs_isomorphic(g1: SignedMap, g2: SignedMap, respect_signs: bool = False) -> bool:
    """Abstract multigraph isomorphism by brute force (desk scale only)."""
    n1, pairs1, loops1 = _graph_profile(g1, respect_signs)
    n2, pairs2, loops2 = _graph_profile(g2, respect_signs)
    if n1 != n2 or g1.n_edges != g2.n_edges:
        return False

    def degree_sig(n, pairs, loops):
        deg = [0] * n
        for (u, v, _s), m in pairs.items():
            deg[u] += m
            deg[v] += m
        for (u, _s), m in loops.items():
            deg[u] += 2 * m
        return deg

    deg1 = degree_sig(n1, pairs1, loops1)
    deg2 = degree_sig(n2, pairs2, loops2)
    if sorted(deg1) != sorted(deg2):
        return False
    if n1 > 12:
        raise ValueError("isomorphism test capped at 12 vertices")

    # group candidate images by degree to cut the permutation space
    order = sorted(range(n1), key=lambda v: deg1[v])
    buckets: dict[int, list[int]] = {}
    for v in range(n2):
        buckets.setdefault(deg2[v], []).append(v)

    def backtrack(i: int, mapping: dict[int, int], used: set[int]) -> bool:
        if i == len(order):
            mapped_pairs: dict[tuple[int, int, int], int] = {}
            for (u, v, s), m in pairs1.items():
                a, b = mapping[u], mapping[v]
                mapped_pairs[(min(a, b), max(a, b), s)] = mapped_pairs.get((min(a, b), max(a, b), s), 0) + m
            if mapped_pairs != pairs2:
                return False
            mapped_loops: dict[tuple[int, int], int] = {}
            for (u, s), m in loops1.items():
                mapped_loops[(mapping[u], s)] = mapped_loops.get((mapping[u], s), 0) + m
            return mapped_loops == loops2
        v = order[i]
        for w in buckets.get(deg1[v], []):
            if w in used:
                continue
            mapping[v] = w
            used.add(w)
            if backtrack(i + 1, mapping, used):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return backtrack(0, {}, set())


def brute_adequate_masks(g: SignedMap) -> list[int]:
    """Every adequate subset of ``g`` as ascending bitmasks over
    ``g.sorted_labels()``, by testing all 2^m subsets.

    A subset passes when no edge outside it joins one component of the
    restriction (union-find) and the restriction has no bridge (low-link
    DFS).  Needs no embedding, so it holds on any map.
    """
    eu, ev = [], []
    for lab in g.sorted_labels():
        u, v = g.endpoints(lab)
        eu.append(u)
        ev.append(v)
    nv, m = g.n_vertices, len(eu)
    out: list[int] = []
    parent = list(range(nv))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for mask in range(1 << m):
        for v in range(nv):
            parent[v] = v
        for i in range(m):
            if mask >> i & 1:
                ra, rb = find(eu[i]), find(ev[i])
                if ra != rb:
                    parent[rb] = ra
        if any(not mask >> i & 1 and find(eu[i]) == find(ev[i]) for i in range(m)):
            continue
        if not _has_bridge(nv, eu, ev, mask):
            out.append(mask)
    return out


def _has_bridge(nv: int, eu: list[int], ev: list[int], mask: int) -> bool:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for i in range(len(eu)):
        if mask >> i & 1 and eu[i] != ev[i]:
            adj[eu[i]].append((ev[i], i))
            adj[ev[i]].append((eu[i], i))
    disc = [-1] * nv
    low = [0] * nv
    timer = 0
    for start in range(nv):
        if disc[start] != -1 or not adj[start]:
            continue
        stack = [(start, -1, 0)]
        while stack:
            v, pedge, ptr = stack[-1]
            if ptr == 0:
                disc[v] = low[v] = timer
                timer += 1
            if ptr < len(adj[v]):
                stack[-1] = (v, pedge, ptr + 1)
                w, eidx = adj[v][ptr]
                if eidx == pedge:
                    continue
                if disc[w] == -1:
                    stack.append((w, eidx, 0))
                else:
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] > disc[pv]:
                        return True
    return False


def homogeneity_oracle(d: LinkDiagram, s: State) -> bool:
    """Definitional check: no complementary region of the state circles
    contains both A- and B-segments.

    Regions of the resolved diagram are projection regions merged across the
    open channel of each resolution.
    """
    proj = d.projection
    walks = faces(proj)
    foh = face_of_half(proj)
    parent = list(range(len(walks)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    def corner_face(ci, k):
        return foh[4 * ci + (k + 1) % 4]

    seg_region: list[tuple[int, str]] = []
    for ci in range(d.n_crossings):
        res = s.resolution(ci)
        if res == "A":
            f1, f2 = corner_face(ci, 1), corner_face(ci, 3)
        else:
            f1, f2 = corner_face(ci, 0), corner_face(ci, 2)
        union(f1, f2)
        seg_region.append((f1, res))

    by_region: dict[int, set[str]] = {}
    for f, res in seg_region:
        by_region.setdefault(find(f), set()).add(res)
    return all(len(kinds) == 1 for kinds in by_region.values())


def adequacy_oracle(d: LinkDiagram, s: State) -> bool:
    return not segment_self_touch(d, s)


def all_states(d: LinkDiagram):
    n = d.n_crossings
    for mask in range(1 << n):
        yield State.from_dict({ci: ("A" if mask >> ci & 1 else "B") for ci in range(n)})


def crossing_change(d: LinkDiagram, ci: int) -> LinkDiagram:
    """Change the crossing type of a single crossing."""
    cr = list(d.crossings)
    a, b, c, dd = cr[ci]
    cr[ci] = (b, c, dd, a)
    return LinkDiagram(tuple(cr), d.outer_arc, d.swap_colors)


# ---------------------------------------------------------------------------
# reference renderers: the reports as the per-state label sets print them
# ---------------------------------------------------------------------------


def reference_doc(report) -> dict:
    """The JSON document of a report, built from each record's ``state`` and
    ``edge_subset``; ``report_to_json`` must print ``json.dumps`` of it with
    ``indent=2``."""
    return {
        "states": [
            {
                "state": {str(k): v for k, v in rec.state.items},
                "edge_subset": [str(x) for x in sorted(rec.edge_subset, key=label_sort_key)],
                "poly_coeffs": rec.poly.t_coeffs(),
                **({"homogeneous": rec.homogeneous} if rec.homogeneous is not None else {}),
            }
            for rec in report.states
        ],
        "count": report.count,
        "state_sum_coeffs": report.state_sum.t_coeffs(),
        "diagonal_coeffs": report.diagonal.t_coeffs(),
        "spanning_trees": report.tree_count,
        "verified": report.verified,
    }


def reference_csv(report) -> str:
    """``report_to_csv`` from each record's ``state`` and ``edge_subset``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    has_flags = any(rec.homogeneous is not None for rec in report.states)
    writer.writerow(["state", "edge_subset", "polynomial"] + ["homogeneous"] * has_flags)
    for rec in report.states:
        row = [str(rec.state),
               ";".join(str(x) for x in sorted(rec.edge_subset, key=label_sort_key)),
               rec.poly.render_t()]
        if has_flags:
            row.append("" if rec.homogeneous is None else str(rec.homogeneous).lower())
        writer.writerow(row)
    return buf.getvalue()


def reference_table(report) -> str:
    """``report_to_table`` from each record's ``state`` and ``edge_subset``."""
    lines = []
    for rec in report.states:
        edges = ",".join(str(x) for x in sorted(rec.edge_subset, key=label_sort_key))
        flag = "  homogeneous" if rec.homogeneous else ""
        lines.append(f"state {rec.state}  edges [{edges}]  poly {rec.poly.render_t()}{flag}\n")
    lines.append(f"count: {report.count}\n")
    lines.append(f"diagonal: {report.diagonal.render_t()}\n")
    lines.append(f"spanning trees: {report.tree_count}\n")
    lines.append(f"verified: {str(report.verified).lower()}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# writers: graph and diagram JSON, the inputs the package reads
# ---------------------------------------------------------------------------


def to_json(g: SignedMap) -> str:
    doc: dict[str, Any] = {
        "vertices": [list(rot) for rot in g.vertices],
        "edges": [
            {"halves": [e.half_a, e.half_b], "sign": "+" if e.sign > 0 else "-", "label": e.label}
            for e in g.edges
        ],
    }
    return json.dumps(doc, indent=2)


def diagram_to_json(d: LinkDiagram) -> str:
    doc: dict = {"crossings": [list(cr) for cr in d.crossings]}
    if d.outer_arc is not None:
        doc["outer_arc"] = d.outer_arc
    if d.swap_colors is not None:
        doc["coloring"] = "swapped" if d.swap_colors else "canonical"
    return json.dumps(doc, indent=2)
