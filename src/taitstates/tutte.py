"""Tutte polynomial engine: deletion-contraction with block factorization.

One recursion serves the full polynomial and its one-variable
specialization at x = 0.  It multiplies over the blocks of the graph, and a
block of one edge contributes a fixed value: y for a loop and x for a bridge
in the full polynomial T(x, y).  At x = 0 a bridge contributes zero and a
loop t, giving T(0, t).  A zero block ends the product before any block is
expanded.  The per-state polynomials of the adequacy layer are T(G|S; 0, t)
and T(G/S; t, 0) (Kook, Reiner, Stanton, JCTB 76, 1999); on a plane map the
second is T(0, t) of the dual restricted to the edges outside S, so T(0, t)
serves both.

A block of two or more edges is a bond, a cycle or neither.  A bond of m
edges is x + y + ... + y^(m-1) and a cycle of m edges y + x + ... +
x^(m-1).  Any other block splits on its largest parallel class or series
path P (a path through vertices of degree two) of k edges, after the
multi-edge and series reductions of Haggard, Pearce and Royle (ACM TOMS 37,
2010):

    T(G) = T(G - P) + [k]_y T(G/P)     for a parallel class,
    T(G) = [k]_x T(G - P) + T(G/P)     for a series path,

with [k]_z = 1 + z + ... + z^(k-1).  G/P contracts the whole of P: a class
leaves k - 1 loops, which are dropped, and a path merges all its vertices.
Each mode reads x and y as it reads a bridge and a loop, so [k]_z is 1 on
the variable that is zero and no mode needs a rule of its own.  A class of
one edge is the plain split T(G - e) + T(G/e).

Blocks are memoized under the mode and their edge sequence: edges in label
order, vertices numbered by first appearance.  Equal keys are equal
multigraphs, so the memo is exact, and one engine can serve any number of
host graphs.

Signs and the embedding are ignored throughout: the polynomial only sees the
abstract multigraph.
"""

from __future__ import annotations

from typing import Iterable

from .bipoly import BiPoly
from .sgraph import SignedMap, edge_blocks

__all__ = [
    "TutteEngine",
    "tutte",
    "CapExceededError",
]


class CapExceededError(ValueError):
    """An enumeration, or a brute-force oracle, asked to run past its edge cap."""


# internal multigraph: vertex count + tuple of (u, v) edges in label order
_MG = tuple

# evaluation modes: T(x, y) and T(0, t)
FULL, X_ZERO = 0, 1

# (loop, bridge) value of a one-edge block per mode, as the exponent pair of
# a monomial: y is (0, 1), x is (1, 0), and t, which one-variable results
# carry on the first axis, is (1, 0) too; None is zero
_EDGE_VALUES = {
    FULL: ((0, 1), (1, 0)),
    X_ZERO: ((1, 0), None),
}


def _mg_induce_edges(edges, idxs: Iterable[int]) -> _MG:
    """Sub-multigraph on the given edge indices, in index order, with the
    vertices renumbered by first appearance."""
    remap: dict[int, int] = {}
    out = []
    for i in sorted(idxs):
        u, v = edges[i]
        a = remap.setdefault(u, len(remap))
        b = remap.setdefault(v, len(remap))
        out.append((a, b))
    return (len(remap), tuple(out))


def _geometric(z, lo: int, hi: int) -> BiPoly:
    """z^lo + ... + z^(hi-1) for the monomial with exponent pair ``z``;
    ``None`` is zero, and is only passed with lo >= 1."""
    if z is None:
        return BiPoly.zero()
    i, j = z
    return BiPoly({(a * i, a * j): 1 for a in range(lo, hi)})


class TutteEngine:
    """Deletion-contraction evaluator with a per-engine memo cache.

    The cache maps (mode, block) keys to polynomials; concurrent insertions
    of the same key always carry equal values, so sharing an engine across
    threads is safe in principle, though the implementation does not lock.
    """

    def __init__(self):
        self.cache: dict[tuple, BiPoly] = {}

    # public entry -------------------------------------------------------

    def tutte(self, g: SignedMap) -> BiPoly:
        return self.evaluate((g.n_vertices, g.ends), FULL)

    # recursion ----------------------------------------------------------

    def evaluate(self, mg: _MG, mode: int) -> BiPoly:
        """T(x, y) or T(0, t) of an index-level multigraph, by
        ``mode``; vertices outside every edge are ignored."""
        n, edges = mg
        loop, bridge = _EDGE_VALUES[mode]
        i = j = 0  # exponents of the product of the one-edge blocks
        big = []
        for blk in edge_blocks(n, edges):
            if len(blk) > 1:
                big.append(blk)
                continue
            u, v = edges[blk[0]]
            value = loop if u == v else bridge
            if value is None:
                return BiPoly.zero()
            i += value[0]
            j += value[1]
        out = BiPoly({(i, j): 1}) if i or j or not big else None
        for blk in big:
            # a block of two or more edges has no loop and no bridge, so its
            # value is nonzero in every mode
            value = self._evaluate_block(_mg_induce_edges(edges, blk), mode)
            out = value if out is None else out * value
        return out

    def _evaluate_block(self, mg: _MG, mode: int) -> BiPoly:
        key = (mode, mg)
        hit = self.cache.get(key)
        if hit is None:
            hit = self._split(mg, mode)
            self.cache[key] = hit
        return hit

    def _split(self, mg: _MG, mode: int) -> BiPoly:
        """Split a block (2-connected, >= 2 edges, so no loop and no bridge)
        on its largest parallel class or series path P of k edges:
        T = T(G - P) + [k]_y T(G/P) for a class and [k]_x T(G - P) + T(G/P)
        for a path, where [k]_z = 1 + z + ... + z^(k-1).  A bond and a cycle
        have closed forms."""
        n, edges = mg
        m = len(edges)
        loop, bridge = _EDGE_VALUES[mode]
        if n == 2:  # a bond: x + y + ... + y^(m-1)
            return _geometric(bridge, 1, 2) + _geometric(loop, 1, m)
        if m == n:  # 2-connected with as many edges as vertices: a cycle,
            # y + x + ... + x^(m-1)
            return _geometric(loop, 1, 2) + _geometric(bridge, 1, m)
        classes: dict[tuple[int, int], list[int]] = {}
        inc: list[list[int]] = [[] for _ in range(n)]
        for i, (u, v) in enumerate(edges):
            classes.setdefault((u, v) if u < v else (v, u), []).append(i)
            inc[u].append(i)
            inc[v].append(i)
        part = max(classes.values(), key=len)  # the first of the largest
        part_verts = edges[part[0]]
        series = False
        # each series path: walk both ways from a vertex of degree two to the
        # vertices of higher degree that end it
        seen = [False] * n
        for w in range(n):
            if seen[w] or len(inc[w]) != 2:
                continue
            walk, verts = [], [w]
            for e in inc[w]:
                cur = w
                while True:
                    walk.append(e)
                    a, b = edges[e]
                    cur = b if a == cur else a
                    verts.append(cur)
                    if len(inc[cur]) != 2:
                        break
                    seen[cur] = True
                    e0, e1 = inc[cur]
                    e = e1 if e0 == e else e0
            if len(walk) > len(part):
                part, part_verts, series = walk, verts, True
        k = len(part)
        # G - P keeps the other edges; G/P also merges the vertices of P
        dropped = set(part)
        rest = [e for i, e in enumerate(edges) if i not in dropped]
        merged = set(part_verts)
        r = part_verts[0]
        rest_merged = tuple((r if u in merged else u, r if v in merged else v) for u, v in rest)
        deleted = self.evaluate((n, tuple(rest)), mode)
        contracted = self.evaluate((n, rest_merged), mode)
        # [k]_z weighs the deletion of a path and the contraction of a class;
        # it is 1 for k = 1 and for z = 0
        z = bridge if series else loop
        if k > 1 and z is not None:
            if series:
                deleted = _geometric(z, 0, k) * deleted
            else:
                contracted = _geometric(z, 0, k) * contracted
        return deleted + contracted


def tutte(g: SignedMap, engine: TutteEngine | None = None) -> BiPoly:
    """Tutte polynomial of the underlying multigraph of ``g``."""
    return (engine or TutteEngine()).tutte(g)
