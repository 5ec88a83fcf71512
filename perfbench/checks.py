"""Correctness checks on CLI output that do not rely on the package.

The reference numbers come from the benchmark's own arithmetic:

* the spanning-tree count tau(G) by an exact integer Kirchhoff determinant
  (fraction-free Bareiss elimination).  A plane graph and its dual have
  the same count, so it also holds for the Tait graph the program builds
  from a medial diagram;
* T(1,1) = tau(G) and T(2,2) = 2^|E| for every graph, so the diagonal
  chi(t,t) must take those values at t = 1 and t = 2;
* every adequate state polynomial has nonnegative coefficients and the
  polynomials of all adequate states sum to the diagonal, so there are
  between 2 and tau(G) of them;
* known answers for 11n95, T(2,n) and the Hopf sums.

Each check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import json

from corpus import Input, PlaneMap


def _at(coeffs: list[int], t: int) -> int:
    return sum(c * t ** i for i, c in enumerate(coeffs))


def _trim(coeffs: list[int]) -> list[int]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _check_diagonal(diag: list[int], trees: int, g: PlaneMap | None, n_edges: int) -> str | None:
    if any(c < 0 for c in diag):
        return f"diagonal has a negative coefficient: {diag}"
    if _at(diag, 1) != trees:
        return f"diagonal at t=1 is {_at(diag, 1)}, spanning trees {trees}"
    if _at(diag, 2) != 2 ** n_edges:
        return f"diagonal at t=2 is {_at(diag, 2)}, expected 2^{n_edges}"
    if g is not None and trees != g.spanning_trees():
        return f"spanning trees {trees}, Kirchhoff gives {g.spanning_trees()}"
    return None


def _is_adequate(g: PlaneMap, subset: set[int]) -> bool:
    """G|S has no bridge and G/S has no loop: every edge of S lies on a cycle
    of S, and no edge outside S joins two vertices that S connects."""
    ends = g.endpoints()

    def joined(edges: list[int], u: int, v: int) -> bool:
        parent = list(range(len(g.rotations)))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in edges:
            parent[find(ends[e][0])] = find(ends[e][1])
        return find(u) == find(v)

    inside = sorted(subset)
    if any(joined(inside, *ends[e]) for e in range(len(ends)) if e not in subset):
        return False
    return all(joined([f for f in inside if f != e], *ends[e]) for e in inside)


def _check_adequate(inp: Input, doc: dict) -> str | None:
    if doc.get("verified") is not True:
        return "report not verified"
    states = doc["states"]
    if doc["count"] != len(states):
        return f"count {doc['count']} but {len(states)} states listed"
    diag = _trim(doc["diagonal_coeffs"])
    if _trim(doc["state_sum_coeffs"]) != diag:
        return "state sum differs from the diagonal"
    n_edges = len(inp.graph.edges) if inp.graph else len(json.loads(inp.stdin)["crossings"])
    trees = doc["spanning_trees"]
    bad = _check_diagonal(diag, trees, inp.graph, n_edges)
    if bad:
        return bad
    total = [0] * len(diag)
    for st in states:
        coeffs = st["poly_coeffs"]
        if any(c < 0 for c in coeffs) or not any(coeffs) or len(coeffs) > len(diag):
            return f"state {st['state']} has a bad polynomial {coeffs}"
        for i, c in enumerate(coeffs):
            total[i] += c
    subsets = {tuple(st["edge_subset"]) for st in states}
    if len(subsets) != len(states):
        return "a state is listed twice"
    if inp.kind == "knot":
        # only the homogeneous states are listed: a part of the state sum
        if any(st.get("homogeneous") is not True for st in states):
            return "a listed state is not flagged homogeneous"
        if any(t > d for t, d in zip(total, diag)) or len(states) > trees:
            return "listed states exceed the diagonal"
    else:
        if total != diag:
            return "listed state polynomials do not sum to the diagonal"
        if not 2 <= len(states) <= trees:
            return f"{len(states)} states, outside [2, {trees}]"
        for sub in subsets:
            if not _is_adequate(inp.graph, {int(x) for x in sub}):
                return f"edge subset {list(sub)} is not adequate"
    expect = inp.expect or {}
    if "count" in expect and len(states) != expect["count"]:
        return f"{len(states)} states, expected {expect['count']}"
    if "diagonal" in expect and diag != expect["diagonal"]:
        return f"diagonal {diag}, expected {expect['diagonal']}"
    if "trees" in expect and trees != expect["trees"]:
        return f"{trees} spanning trees, expected {expect['trees']}"
    return None


def check(inp: Input, out: str) -> str | None:
    """None when ``out`` is a correct answer for ``inp``, else the reason."""
    try:
        return _check_adequate(inp, json.loads(out))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
