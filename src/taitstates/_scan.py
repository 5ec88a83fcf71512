"""Search for the adequate edge subsets of a spherical signed map.

An edge subset S is adequate when the restriction ``G|S`` has no bridge and
the contraction ``G/S`` has no loop.  These are the cyclic flats of the
cycle matroid: ``G/S`` is loopless exactly when S is closed, and ``G|S`` is
bridgeless exactly when S is a union of circuits.  On a plane map an edge e
of S is a bridge of ``G|S`` exactly when e is a loop of the dual contracted
along the edges outside S, so the two conditions mirror each other.

The search keeps two edge bitmasks.  VC holds the edges whose endpoints are
joined by the edges taken in, plus the loops: each must be in S.  FC holds
the edges whose faces are joined by the edges left out, plus the bridges:
each must stay out.  Every vertex class and every face class carries the OR
of its incident-edge masks, so joining two classes closes exactly the edges
in the AND of theirs.  A taken-in edge lands in VC and a left-out edge in FC
by its own join, so a node is dead exactly when ``VC & FC`` is nonzero: the
conflict is caught at the decision that makes it, and no leaf re-checks.
An undecided edge already in ``VC | FC`` is forced and joins nothing, so it
is passed over without branching, and a conflict-free leaf is ``S = VC``.
Edges are decided in breadth-first order from vertex 0, which closes cycles
early.  The duality needs genus zero: callers check ``euler_genus_ok``
first.
"""

from __future__ import annotations

from .sgraph import DisconnectedError, SignedMap, face_of_half, faces


def cyclic_flat_masks(g: SignedMap) -> list[int]:
    """Every adequate subset of the connected spherical map ``g``, as
    ascending bitmasks over ``g.edges``."""
    foh = face_of_half(g)
    bits = {}  # half-edge -> the bit of its edge
    for i, e in enumerate(g.edges):
        bits[e.half_a] = bits[e.half_b] = 1 << i
    vinc = [0] * g.n_vertices  # vertex -> OR of the edge masks incident to its class
    finc = [0] * len(faces(g))  # the same for face classes
    vc = fc = 0
    # the edges in breadth-first order from vertex 0, each as
    # bit -> (bit, vertex, vertex, face, face)
    steps: dict[int, tuple[int, int, int, int, int]] = {}
    queue, seen = [0][:g.n_vertices], {0}
    for u in queue:
        for half in g.vertices[u]:
            twin = g.partner(half)
            bit, v = bits[half], g.vertex_of_half(twin)
            f, h = foh[half], foh[twin]
            vinc[u] |= bit
            finc[f] |= bit
            if bit not in steps:
                steps[bit] = (bit, u, v, f, h)
                vc |= bit if u == v else 0
                fc |= bit if f == h else 0
            if v not in seen:
                seen.add(v)
                queue.append(v)
    if len(steps) < g.n_edges:
        raise DisconnectedError("the search needs a connected map")
    order = list(steps.values())
    m = len(order)
    out: list[int] = []

    # depth-first with an explicit stack, so the depth is not bounded by the
    # interpreter's recursion limit.  A frame is a live node: the next step
    # to decide, VC, FC and the class masks.  The class lists are never
    # changed in place, so a frame shares them with its parent until a join
    # makes a new one.  The classes that meet a deciding edge are the two
    # whose masks carry its bit.
    stack = [] if vc & fc else [(0, vc, fc, vinc, finc)]
    while stack:
        pos, vc, fc, vinc, finc = stack.pop()
        closed = vc | fc
        while pos < m and closed & order[pos][0]:
            pos += 1
        if pos == m:
            out.append(vc)
            continue
        bit, u, v, f, h = order[pos]
        pos += 1
        a, b = vinc[u], vinc[v]  # take the edge in: join its endpoints
        if not a & b & fc:
            ab = a | b
            stack.append((pos, vc | a & b, fc, [ab if x & bit else x for x in vinc], finc))
        a, b = finc[f], finc[h]  # leave it out: join its faces
        if not a & b & vc:
            ab = a | b
            stack.append((pos, vc, fc | a & b, vinc, [ab if x & bit else x for x in finc]))
    return sorted(out)
