"""Tutte polynomial engine: deletion-contraction with block factorization.

The recursion follows the standard four cases (edgeless graph, bridge, loop,
generic edge) and multiplies over connected components and over blocks of a
connected graph.  Intermediate minors are memoized under a canonical form of
the unlabeled underlying multigraph, which pays off heavily when many
restrictions/contractions of one host graph are processed in a row.

Signs and the embedding are ignored throughout: the polynomial only sees the
abstract multigraph.
"""

from __future__ import annotations

from itertools import combinations, permutations
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


# internal multigraph: vertex count + sorted tuple of (u, v, key) with u <= v
_MG = tuple


def _mgraph_of(g: SignedMap) -> _MG:
    edges = []
    for e in g.edges:
        u = g.vertex_of_half(e.half_a)
        v = g.vertex_of_half(e.half_b)
        if u > v:
            u, v = v, u
        edges.append((u, v, label_sort_key(e.label)))
    edges.sort(key=lambda t: t[2])
    return (g.n_vertices, tuple(edges))


def _mg_induce_edges(edges, idxs: Iterable[int]) -> _MG:
    """Sub-multigraph on the given edge indices, vertex ids compacted."""
    sub = sorted((edges[i] for i in idxs), key=lambda t: t[2])
    remap: dict[int, int] = {}
    out = []
    for u, v, k in sub:
        for w in (u, v):
            if w not in remap:
                remap[w] = len(remap)
        a, b = remap[u], remap[v]
        out.append((a, b, k) if a <= b else (b, a, k))
    return (len(remap), tuple(out))


def _mg_contract(mg: _MG, idx: int) -> _MG:
    n, edges = mg
    u0, v0, _ = edges[idx]
    # merge v0 into u0
    out = []
    for i, (u, v, k) in enumerate(edges):
        if i == idx:
            continue
        uu = u0 if u == v0 else u
        vv = u0 if v == v0 else v
        uu, vv = (uu, vv) if uu <= vv else (vv, uu)
        out.append((uu, vv, k))
    # compact vertex ids
    remap = {}
    for w in range(n):
        if w == v0:
            continue
        remap[w] = len(remap)
    out = tuple((remap[u], remap[v], k) if remap[u] <= remap[v] else (remap[v], remap[u], k)
                for u, v, k in out)
    return (n - 1, out)


def _mg_delete(mg: _MG, idx: int) -> _MG:
    n, edges = mg
    return (n, edges[:idx] + edges[idx + 1:])


def _canonical_cert(mg: _MG, budget: int = 2_000) -> tuple | None:
    """Canonical form of the unlabeled multigraph, or None if not worth it.

    Iterated neighbor-color refinement, then exhaustive ordering within the
    surviving color classes.  Bails out (returning None, which just skips
    memoization) on very small graphs, where recursion is cheaper than
    canonicalization, and on highly symmetric ones, where the ordering
    search would dwarf the recursion it is meant to save.
    """
    n, edges = mg
    if len(edges) <= 4:
        return None
    deg = [0] * n
    loops = [0] * n
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in edges:
        if u == v:
            loops[u] += 1
            deg[u] += 2
        else:
            deg[u] += 1
            deg[v] += 1
            nbrs[u].append(v)
            nbrs[v].append(u)

    color = [(deg[v], loops[v]) for v in range(n)]
    for _ in range(n + 1):
        new = [
            (color[v], tuple(sorted(color[w] for w in nbrs[v])))
            for v in range(n)
        ]
        ranks = {c: i for i, c in enumerate(sorted(set(new)))}
        nxt = [ranks[new[v]] for v in range(n)]
        if nxt == color:
            break
        color = nxt

    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(color[v], []).append(v)
    sizes = [len(vs) for vs in classes.values()]
    total = 1
    for s in sizes:
        for i in range(2, s + 1):
            total *= i
        if total > budget:
            return None

    class_order = sorted(classes.items(), key=lambda kv: (len(kv[1]), kv[0]))
    best: tuple | None = None
    prefix: list[int] = []

    def orderings(groups: list[list[int]]):
        if not groups:
            yield []
            return
        head, *rest = groups
        for perm in permutations(head):
            for tail in orderings(rest):
                yield list(perm) + tail

    for ordering in orderings([vs for _, vs in class_order]):
        pos = {v: i for i, v in enumerate(ordering)}
        cert = tuple(sorted(
            (min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v, _ in edges
        ))
        full = (n, cert)
        if best is None or full < best:
            best = full
    return best


class TutteEngine:
    """Deletion-contraction evaluator with a per-engine memo cache.

    The cache maps canonical multigraph forms to polynomials; concurrent
    insertions of the same key always carry equal values, so sharing an
    engine across threads is safe in principle, though the implementation
    does not lock.
    """

    def __init__(self):
        self.cache: dict[tuple, BiPoly] = {}
        self._x = BiPoly.x()
        self._y = BiPoly.y()

    # public entry -------------------------------------------------------

    def tutte(self, g: SignedMap) -> BiPoly:
        return self._poly(_mgraph_of(g))

    # recursion ----------------------------------------------------------

    def _poly(self, mg: _MG) -> BiPoly:
        n, edges = mg
        if not edges:
            return BiPoly.one()
        out = BiPoly.one()
        for blk in edge_blocks(n, edges):
            out = out * self._poly_block(_mg_induce_edges(edges, blk))
        return out

    def _poly_block(self, mg: _MG) -> BiPoly:
        n, edges = mg
        if len(edges) == 1:
            u, v, _ = edges[0]
            return self._y if u == v else self._x

        key = _canonical_cert(mg)
        if key is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return hit

        # 2-connected with >= 2 edges: no edge is a bridge or a loop, so the
        # pivot is simply the lowest label
        result = self._poly(_mg_contract(mg, 0)) + self._poly(_mg_delete(mg, 0))

        if key is not None:
            self.cache[key] = result
        return result


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
            u, v, _ = edges[i]
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
