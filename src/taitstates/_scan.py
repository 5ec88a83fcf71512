"""Search for the adequate edge subsets of a spherical signed map.

An edge subset S is adequate when the restriction ``G|S`` has no bridge and
the contraction ``G/S`` has no loop.  These are the cyclic flats of the
cycle matroid: ``G/S`` is loopless exactly when S is closed, and ``G|S`` is
bridgeless exactly when S is a union of circuits.  On a plane map an edge e
of S is a bridge of ``G|S`` exactly when e is a loop of the dual contracted
along the edges outside S, so the two conditions mirror each other and the
search prunes both of its branches:

* an edge is left out only while its endpoints are apart in the vertex
  classes joined along the edges taken in, and
* an edge is taken in only while its two faces are apart in the face
  classes joined along the edges left out.

Later decisions can still join a pair that was apart when an edge was
decided, so every leaf checks both conditions over all edges once more.
The duality needs genus zero: callers check ``euler_genus_ok`` first.
"""

from __future__ import annotations

from .sgraph import SignedMap, face_of_half, faces


def cyclic_flat_masks(g: SignedMap) -> list[int]:
    """Every adequate subset of the spherical map ``g``, as ascending
    bitmasks over ``g.sorted_labels()``."""
    nv = g.n_vertices
    foh = face_of_half(g)
    # one undoable union-find: vertices first, then faces offset by nv
    ends = []
    for lab in g.sorted_labels():
        e = g.edge(lab)
        ends.append((g.vertex_of_half(e.half_a), g.vertex_of_half(e.half_b),
                     nv + foh[e.half_a], nv + foh[e.half_b]))
    m = len(ends)
    parent = list(range(nv + len(faces(g))))
    size = [1] * len(parent)
    trail: list[int] = []
    out: list[int] = []

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        trail.append(rb)

    def undo(mark: int) -> None:
        while len(trail) > mark:
            rb = trail.pop()
            size[parent[rb]] -= size[rb]
            parent[rb] = rb

    # depth-first with an explicit stack, so the depth is not bounded by the
    # interpreter's recursion limit.  A frame is a node to visit: (edge index,
    # mask, trail length of its parent, the pair its parent's decision joins).
    # Whether a branch is open is read at the parent, whose classes are the
    # same again once the sibling branch is undone.  The root joins nothing.
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        i, mask, mark, a, b = stack.pop()
        if len(trail) > mark:
            undo(mark)
        union(a, b)
        if i == m:
            for j, (u, v, f, h) in enumerate(ends):
                a, b = (f, h) if mask >> j & 1 else (u, v)
                if find(a) == find(b):
                    break
            else:
                out.append(mask)
            continue
        u, v, f, h = ends[i]
        mark = len(trail)
        if find(f) != find(h):  # take edge i in
            stack.append((i + 1, mask | 1 << i, mark, u, v))
        if find(u) != find(v):  # leave edge i out
            stack.append((i + 1, mask, mark, f, h))
    return sorted(out)
