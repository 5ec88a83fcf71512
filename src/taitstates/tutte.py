"""Tutte polynomial engine: deletion-contraction with block factorization.

One recursion serves the full polynomial and its two one-variable
specializations.  It multiplies over the blocks of the graph, and a block
of one edge contributes a fixed value: y for a loop and x for a bridge in
the full polynomial T(x, y).  At x = 0 a bridge contributes zero and a loop
t, giving T(0, t); at y = 0 a loop contributes zero and a bridge t, giving
T(t, 0).  A zero block ends the product before any block is expanded.
Every other block (2-connected, at least two edges) splits by
deletion-contraction on its lowest edge.  The one-variable modes first look
for an edge with a zero branch and follow only the other branch: at x = 0
an edge at a vertex of degree two, whose deletion leaves a bridge, and at
y = 0 an edge with a parallel partner, whose contraction leaves a loop.
The per-state polynomials of the adequacy layer are T(G|S; 0, t) and
T(G/S; t, 0) (Kook, Reiner, Stanton, JCTB 76, 1999); on the Tait graphs
of knot diagrams more than half of their splits take such an edge.

Blocks are memoized under the mode and their edge sequence: edges in label
order, vertices numbered by first appearance.  Equal keys are equal
multigraphs, so the memo is exact, and one engine can serve any number of
host graphs.

Signs and the embedding are ignored throughout: the polynomial only sees the
abstract multigraph.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .bipoly import BiPoly
from .sgraph import SignedMap, edge_blocks, label_sort_key

__all__ = [
    "TutteEngine",
    "tutte",
    "tutte_oracle",
    "kook_sum",
    "dual_symmetry_check",
    "spanning_tree_count",
    "CapExceededError",
]


class CapExceededError(ValueError):
    """Brute-force operation asked to run past its edge cap."""


# internal multigraph: vertex count + tuple of (u, v) edges in label order
_MG = tuple

# evaluation modes: T(x, y), T(0, t) and T(t, 0)
FULL, X_ZERO, Y_ZERO = 0, 1, 2

# (loop, bridge) value of a one-edge block per mode, as the exponent pair of
# a monomial: y is (0, 1), x is (1, 0), and t, which one-variable results
# carry on the first axis, is (1, 0) too; None is zero
_EDGE_VALUES = {
    FULL: ((0, 1), (1, 0)),
    X_ZERO: ((1, 0), None),
    Y_ZERO: (None, (1, 0)),
}


def _mgraph_of(g: SignedMap) -> _MG:
    """Edges of ``g`` in ``g.sorted_labels()`` order, as vertex-index pairs."""
    ends = sorted(
        (label_sort_key(e.label), g.vertex_of_half(e.half_a), g.vertex_of_half(e.half_b))
        for e in g.edges
    )
    return (g.n_vertices, tuple((u, v) for _, u, v in ends))


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


def _mg_contract(mg: _MG, idx: int) -> _MG:
    """Contract edge ``idx`` (not a loop): its second end merges into the first."""
    n, edges = mg
    u0, v0 = edges[idx]
    out = []
    for i, (u, v) in enumerate(edges):
        if i != idx:
            out.append((u0 if u == v0 else u, u0 if v == v0 else v))
    return (n, tuple(out))


def _mg_delete(mg: _MG, idx: int) -> _MG:
    n, edges = mg
    return (n, edges[:idx] + edges[idx + 1:])


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
        return self.evaluate(_mgraph_of(g), FULL)

    # recursion ----------------------------------------------------------

    def evaluate(self, mg: _MG, mode: int) -> BiPoly:
        """T(x, y), T(0, t) or T(t, 0) of an index-level multigraph, by
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
        """Deletion-contraction on a block: 2-connected with >= 2 edges, so
        no edge is a bridge or a loop."""
        n, edges = mg
        if mode == X_ZERO:
            # deleting an edge at a vertex of degree two leaves the other
            # edge there a bridge: only the contraction survives
            deg = [0] * n
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            for idx, (u, v) in enumerate(edges):
                if deg[u] == 2 or deg[v] == 2:
                    return self.evaluate(_mg_contract(mg, idx), mode)
        elif mode == Y_ZERO:
            # contracting an edge with a parallel partner leaves the partner
            # a loop: only the deletion survives
            seen = set()
            for idx, (u, v) in enumerate(edges):
                pair = (u, v) if u < v else (v, u)
                if pair in seen:
                    return self.evaluate(_mg_delete(mg, idx), mode)
                seen.add(pair)
        return self.evaluate(_mg_contract(mg, 0), mode) + self.evaluate(_mg_delete(mg, 0), mode)


def tutte(g: SignedMap, engine: TutteEngine | None = None) -> BiPoly:
    """Tutte polynomial of the underlying multigraph of ``g``."""
    return (engine or TutteEngine()).tutte(g)


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
    from .sgraph import restrict, contract  # local import to avoid cycles

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
    from .sgraph import planar_dual

    eng = engine or TutteEngine()
    return eng.tutte(planar_dual(g)) == eng.tutte(g).swap_vars()


def spanning_tree_count(g: SignedMap, engine: TutteEngine | None = None) -> int:
    """Number of spanning trees (forests of maximal rank for disconnected input)."""
    return tutte(g, engine).eval(1, 1)
