"""Signed multigraphs carried as combinatorial maps (rotation systems).

A ``SignedMap`` stores, for every vertex, the cyclic order of half-edge
identifiers around it, and for every edge the pair of half-edges it joins
plus a sign and a stable label.  Edges are kept in label order, so bit i of
an edge-subset bitmask is ``edges[i]`` everywhere.  Faces are recovered by
rotation-and-pair face tracing, so planar structure needs no coordinates.
Labels survive restriction and contraction, which keeps the crossing-to-edge
correspondence of a Tait graph intact through graph surgery.

Maps are immutable values: every operation returns a new map.  What is
derived from a map (its faces, its bridges and loops) is computed on first
use and kept on the map.
"""

from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple, Sequence

__all__ = [
    "Edge",
    "SignedMap",
    "UnknownEdgeError",
    "DisconnectedError",
    "PDParseError",
    "VerificationError",
    "restrict",
    "contract",
    "components",
    "is_connected",
    "classify_edges",
    "edge_blocks",
    "faces",
    "face_of_half",
    "euler_genus_ok",
    "planar_dual",
    "flip_signs",
    "label_sort_key",
    "from_json",
]

Label = Hashable


class UnknownEdgeError(ValueError):
    """Raised when an edge set mentions a label the host map lacks."""


class DisconnectedError(ValueError):
    """Raised by operations that require a connected map."""


class PDParseError(ValueError):
    """Malformed input, PD text or JSON; names the offending token when known."""


class VerificationError(RuntimeError):
    """An internal cross-check or certificate failed; indicates a bug."""


class Edge(NamedTuple):
    half_a: int
    half_b: int
    sign: int  # +1 or -1
    label: Label


def label_sort_key(label: Label):
    """Deterministic order for possibly mixed int/str labels."""
    if isinstance(label, bool):  # bools are ints; keep them distinct anyway
        return (2, str(label))
    if isinstance(label, int):
        return (0, label)
    return (1, str(label))


class _Frozen:
    """An immutable value with named ``_fields``: they alone decide ``==``,
    ``hash`` and ``repr``, so what ``cached_property`` keeps on the value
    stays outside them."""

    _fields: tuple[str, ...] = ()

    def __init__(self, **values):
        self.__dict__.update(values)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class SignedMap:
    """Immutable signed multigraph with a rotation system."""

    __slots__ = ("vertices", "edges", "_half2vertex", "_half2edge", "_label2edge", "_faces",
                 "_face_of_half", "_classified")

    def __init__(self, vertices: Sequence[Sequence[int]], edges: Sequence[Edge | tuple]):
        vtuple = tuple(tuple(rot) for rot in vertices)
        etuple = tuple(sorted((e if isinstance(e, Edge) else Edge(*e) for e in edges),
                              key=lambda e: label_sort_key(e.label)))

        half2vertex: dict[int, int] = {}
        for vi, rot in enumerate(vtuple):
            for h in rot:
                if h in half2vertex:
                    raise ValueError(f"half-edge {h} appears in two rotations")
                half2vertex[h] = vi

        half2edge: dict[int, Edge] = {}
        label2edge: dict[Label, Edge] = {}
        text2label: dict[str, Label] = {}
        for e in etuple:
            if e.sign not in (+1, -1):
                raise ValueError(f"edge {e.label!r} has sign {e.sign}")
            for h in (e.half_a, e.half_b):
                if h not in half2vertex:
                    raise ValueError(f"half-edge {h} of edge {e.label!r} not in any rotation")
                if h in half2edge:
                    raise ValueError(f"half-edge {h} appears in two edges")
                half2edge[h] = e
            if e.label in label2edge:
                raise ValueError(f"duplicate edge label {e.label!r}")
            # reports print labels with str(), so two labels may not print alike
            text = str(e.label)
            if text in text2label:
                raise ValueError(f"edge labels {text2label[text]!r} and {e.label!r} "
                                 f"both print as {text!r}")
            text2label[text] = e.label
            label2edge[e.label] = e
        if len(half2edge) != len(half2vertex):
            missing = set(half2vertex) - set(half2edge)
            raise ValueError(f"half-edges {sorted(missing)} belong to no edge")

        self.vertices = vtuple
        self.edges = etuple
        self._half2vertex = half2vertex
        self._half2edge = half2edge
        self._label2edge = label2edge
        self._faces = self._face_of_half = self._classified = None

    # -- basic queries -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def labels(self) -> frozenset:
        return frozenset(self._label2edge)

    def sorted_labels(self) -> list:
        return [e.label for e in self.edges]

    def edge(self, label: Label) -> Edge:
        try:
            return self._label2edge[label]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge label {label!r}") from None

    def vertex_of_half(self, h: int) -> int:
        return self._half2vertex[h]

    def partner(self, h: int) -> int:
        e = self._half2edge[h]
        return e.half_b if h == e.half_a else e.half_a

    def endpoints(self, label: Label) -> tuple[int, int]:
        e = self.edge(label)
        return (self._half2vertex[e.half_a], self._half2vertex[e.half_b])

    def is_loop(self, label: Label) -> bool:
        u, v = self.endpoints(label)
        return u == v

    def sign(self, label: Label) -> int:
        return self.edge(label).sign

    def positive_labels(self) -> frozenset:
        return frozenset(e.label for e in self.edges if e.sign > 0)

    def negative_labels(self) -> frozenset:
        return frozenset(e.label for e in self.edges if e.sign < 0)

    def check_edge_set(self, labels: Iterable[Label]) -> frozenset:
        out = frozenset(labels)
        for lab in out:
            if lab not in self._label2edge:
                raise UnknownEdgeError(f"unknown edge label {lab!r}")
        return out

    def next_at_vertex(self, h: int) -> int:
        rot = self.vertices[self._half2vertex[h]]
        i = rot.index(h)
        return rot[(i + 1) % len(rot)]

    # -- equality ------------------------------------------------------

    def _key(self):
        return (self.vertices, self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedMap):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"SignedMap(v={self.n_vertices}, e={self.n_edges})"


# ---------------------------------------------------------------------------
# surgery: restrict / contract
# ---------------------------------------------------------------------------


def restrict(g: SignedMap, keep: Iterable[Label]) -> SignedMap:
    """Spanning subgraph on the given edges; rotations inherit the embedding."""
    keep = g.check_edge_set(keep)
    kept_halves = set()
    new_edges = []
    for e in g.edges:
        if e.label in keep:
            new_edges.append(e)
            kept_halves.add(e.half_a)
            kept_halves.add(e.half_b)
    new_vertices = [tuple(h for h in rot if h in kept_halves) for rot in g.vertices]
    return SignedMap(new_vertices, new_edges)


def contract(g: SignedMap, labels: Iterable[Label]) -> SignedMap:
    """Contract the given edges one at a time (loops contract as deletions).

    A non-loop contraction merges the two endpoint rotations by splicing at
    the contracted edge's half-edge positions, which keeps the embedding
    coherent (checked by the Euler-formula invariant in the test suite).
    """
    contracted = g.check_edge_set(labels)
    todo = [e for e in g.edges if e.label in contracted]
    vertices: list[list[int] | None] = [list(rot) for rot in g.vertices]
    half2vertex = dict(g._half2vertex)

    for e in todo:
        u = half2vertex[e.half_a]
        w = half2vertex[e.half_b]
        if u == w:
            vertices[u] = [h for h in vertices[u] if h not in (e.half_a, e.half_b)]
            continue
        rot_u = vertices[u]
        rot_w = vertices[w]
        ia = rot_u.index(e.half_a)
        ib = rot_w.index(e.half_b)
        merged = rot_u[ia + 1:] + rot_u[:ia] + rot_w[ib + 1:] + rot_w[:ib]
        vertices[u] = merged
        vertices[w] = None
        for h in rot_w[ib + 1:] + rot_w[:ib]:
            half2vertex[h] = u

    new_vertices = [rot for rot in vertices if rot is not None]
    new_edges = [e for e in g.edges if e.label not in contracted]
    return SignedMap(new_vertices, new_edges)


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------


class _DSU:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def components(g: SignedMap) -> tuple[int, tuple[int, ...]]:
    """Component count and a vertex -> component-id assignment."""
    dsu = _DSU(g.n_vertices)
    for e in g.edges:
        dsu.union(g.vertex_of_half(e.half_a), g.vertex_of_half(e.half_b))
    roots: dict[int, int] = {}
    assignment = []
    for v in range(g.n_vertices):
        r = dsu.find(v)
        roots.setdefault(r, len(roots))
        assignment.append(roots[r])
    return len(roots), tuple(assignment)


def is_connected(g: SignedMap) -> bool:
    return g.n_vertices <= 1 or components(g)[0] == 1


def edge_blocks(n: int, edges: Sequence[tuple]) -> list[list[int]]:
    """Block decomposition of a multigraph on vertices ``0..n-1``.

    ``edges[i]`` starts with ``u, v``, the endpoints of edge i; anything
    after them is ignored.
    Returns the blocks as lists of edge indices: each loop alone, split off
    before the DFS, then each bridge alone and each maximal 2-connected
    piece, component by component.  Isolated vertices are in no block.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    out: list[list[int]] = []
    for i, e in enumerate(edges):
        u, v = e[0], e[1]
        if u == v:
            out.append([i])
        else:
            adj[u].append((v, i))
            adj[v].append((u, i))
    disc = [-1] * n
    low = [0] * n
    timer = 0
    edge_stack: list[int] = []
    for start in range(n):
        if disc[start] != -1 or not adj[start]:
            continue
        disc[start] = low[start] = timer
        timer += 1
        stack = [(start, -1, iter(adj[start]))]  # vertex, parent edge, neighbors left
        while stack:
            v, pedge, nbrs = stack[-1]
            for w, eidx in nbrs:
                if disc[w] == -1:
                    edge_stack.append(eidx)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eidx, iter(adj[w])))
                    break
                # a non-tree edge is taken once, from its lower end
                if eidx != pedge and disc[w] < disc[v]:
                    edge_stack.append(eidx)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if low[v] >= disc[pv]:
                        # pv is a cut vertex or the root: pop one block
                        blk: list[int] = []
                        while True:
                            eidx = edge_stack.pop()
                            blk.append(eidx)
                            if eidx == pedge:
                                break
                        out.append(blk)
    return out


def _ends(g: SignedMap) -> list[tuple[int, int, Label]]:
    return [(g.vertex_of_half(e.half_a), g.vertex_of_half(e.half_b), e.label) for e in g.edges]


def classify_edges(g: SignedMap) -> tuple[frozenset, frozenset]:
    """(bridges, loops) as label sets. Loops are never bridges.

    A bridge is a block of one edge that is not a loop.  The result is
    cached on the map.
    """
    if g._classified is not None:
        return g._classified
    ends = _ends(g)
    bridges, loops = set(), set()
    for blk in edge_blocks(g.n_vertices, ends):
        if len(blk) == 1:
            u, v, lab = ends[blk[0]]
            (loops if u == v else bridges).add(lab)
    g._classified = (frozenset(bridges), frozenset(loops))
    return g._classified


# ---------------------------------------------------------------------------
# faces and duality
# ---------------------------------------------------------------------------


def faces(g: SignedMap) -> tuple[tuple[int, ...], ...]:
    """Face walks as half-edge cycles (orbits of h -> next-at-vertex(partner(h))).

    Isolated vertices contribute no walk.  The walks and ``face_of_half``
    are traced together once and cached on the map.
    """
    if g._faces is not None:
        return g._faces
    foh: dict[int, int] = {}
    walks: list[tuple[int, ...]] = []
    for rot in g.vertices:
        for h0 in rot:
            if h0 in foh:
                continue
            walk = []
            h = h0
            while True:
                walk.append(h)
                foh[h] = len(walks)
                h = g.next_at_vertex(g.partner(h))
                if h == h0:
                    break
            walks.append(tuple(walk))
    g._faces, g._face_of_half = tuple(walks), foh
    return g._faces


def face_of_half(g: SignedMap) -> dict[int, int]:
    """half-edge -> index of the face walk containing it.  The dict is the
    map's cached one, so callers must not change it."""
    faces(g)
    return g._face_of_half


def euler_genus_ok(g: SignedMap) -> bool:
    """Every connected piece satisfies v - e + f == 2 on its own sphere.

    Per-component genus is nonnegative, so the summed relation
    v - e + f == 2k holds exactly when every piece is spherical.
    """
    k, _ = components(g)
    iso = sum(1 for rot in g.vertices if not rot)
    f = len(faces(g)) + iso  # an isolated vertex is a sphere with one face
    return g.n_vertices - g.n_edges + f == 2 * k


def planar_dual(g: SignedMap) -> SignedMap:
    """Faces become vertices; edges correspond bijectively, keeping sign and label."""
    if not is_connected(g):
        raise DisconnectedError("planar dual requires a connected map")
    walks = faces(g)
    if g.n_vertices - g.n_edges + len(walks) != 2:
        raise ValueError("map is not spherical; dual undefined")
    dual_vertices = [tuple(walk) for walk in walks]
    return SignedMap(dual_vertices, g.edges)


def flip_signs(g: SignedMap) -> SignedMap:
    return SignedMap(g.vertices, [Edge(e.half_a, e.half_b, -e.sign, e.label) for e in g.edges])


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def from_json(doc) -> SignedMap:
    """The map of a parsed graph JSON document.  Keys other than ``vertices``
    and ``edges`` are ignored, among them the unbounded-face marker that older
    files carry."""
    if not isinstance(doc, dict) or not isinstance(doc.get("vertices"), list) \
            or not isinstance(doc.get("edges"), list):
        raise ValueError("malformed graph JSON: expected an object with "
                         "'vertices' and 'edges' lists")
    for rot in doc["vertices"]:
        if not (isinstance(rot, list) and all(map(_is_int, rot))):
            raise ValueError(f"malformed graph JSON: rotation {rot!r} is not a list of integers")
    edges = []
    for e in doc["edges"]:
        if not isinstance(e, dict):
            raise ValueError(f"malformed graph JSON: edge {e!r} is not an object")
        halves, sign, label = e.get("halves"), e.get("sign"), e.get("label")
        if not (isinstance(halves, list) and len(halves) == 2 and all(map(_is_int, halves))):
            raise ValueError(f"malformed graph JSON: edge halves {halves!r} are not two integers")
        if sign not in ("+", "-"):
            raise ValueError(f"malformed graph JSON: edge sign {sign!r} is not '+' or '-'")
        if not (isinstance(label, str) or _is_int(label)):
            raise ValueError(f"malformed graph JSON: edge label {label!r} "
                             "is not a string or an integer")
        edges.append(Edge(halves[0], halves[1], +1 if sign == "+" else -1, label))
    return SignedMap(doc["vertices"], edges)
