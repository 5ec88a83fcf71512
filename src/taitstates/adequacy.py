"""Adequate-state machinery on signed plane maps.

Everything here runs on the Tait-graph side of the dictionary: a state of
the diagram corresponds to the edge subset collecting positive A-resolved
and negative B-resolved crossings, and the diagram is adequate with respect
to the state exactly when that subset restricts without bridges and
contracts without loops.  Each adequate subset carries a nonvanishing
product of one-variable Tutte specializations, these products sum to the
diagonal Tutte polynomial of the whole graph, and their count is squeezed
between 2 and the spanning-tree count.  The enumeration below leans on all
three facts: the search finds the subsets, the products certify them, and
the diagonal sum certifies completeness of the search.

A state's structure is read once, as its classes: the edge sets of the
components of G|S (vertex classes) and of the components of the dual
restricted to the edges outside S (face classes).  The search yields them
at each leaf, and ``classes`` gives them for any one subset.  The state's
polynomial T(G|S; 0, t) * T(G/S; t, 0) is the product of T(0, t) over its
classes, since on the sphere T(G/S; t, 0) = T(G*|(E - S); 0, t), and each
class's factor is evaluated once per map.

Homogeneous adequacy adds sign-purity constraints: per component of the
restriction, and per face of the embedded restriction, the unbounded one
included, so the answer depends on the state alone.  These are the same
classes: a state is homogeneous when no class holds edges of both signs.
"""

from __future__ import annotations

import io
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from ._scan import classes, cyclic_flat_leaves
from .bipoly import BiPoly
from .sgraph import (
    DisconnectedError,
    SignedMap,
    VerificationError,
    _Frozen,
    classify_edges,
    contract,
    euler_genus_ok,
    face_of_half,
    faces,
    is_connected,
    restrict,
)
from .tutte import X_ZERO, CapExceededError, TutteEngine

if TYPE_CHECKING:
    from .diagram import State

__all__ = [
    "AdequacyReport",
    "StateRecord",
    "VerificationError",
    "adequate_by_partition",
    "adequacy_polynomial",
    "enumerate_adequate",
    "enumerate_homogeneous",
    "ab_adequacy",
    "homogeneous_adequate",
    "report_to_json",
    "report_to_csv",
    "report_to_table",
]

DEFAULT_MAX_EDGES = 24


def _require_connected(g: SignedMap) -> None:
    if not is_connected(g):
        raise DisconnectedError("operation requires a connected graph")


def _mask_of(g: SignedMap, edge_subset: frozenset) -> int:
    """``edge_subset`` as a bitmask over ``g.edges``."""
    return sum(1 << i for i, e in enumerate(g.edges) if e.label in edge_subset)


def adequate_by_partition(g: SignedMap, edge_subset: Iterable) -> bool:
    """Partition test: the restriction to ``edge_subset`` has no bridges and the
    contraction of ``edge_subset`` has no loops.

    Valid for non-reduced inputs too; on reduced diagrams it coincides with
    the cycle/endpoint formulation (the suite asserts the coincidence).
    """
    _require_connected(g)
    if g.n_edges == 0:
        raise ValueError("graph must have at least one edge")
    edge_subset = g.check_edge_set(edge_subset)
    bridges, _ = classify_edges(restrict(g, edge_subset))
    if bridges:
        return False
    return not any(u == v for u, v in contract(g, edge_subset).ends)


def _require_plane(g: SignedMap) -> None:
    _require_connected(g)
    if g.n_edges == 0:
        raise ValueError("graph must have at least one edge")
    if not euler_genus_ok(g):
        raise ValueError("map is not spherical (v - e + f != 2); "
                         "adequate states need a plane map")


def adequacy_polynomial(g: SignedMap, edge_subset: Iterable,
                        engine: TutteEngine | None = None) -> BiPoly:
    """Product of the restriction polynomial at x=0 with the contraction
    polynomial at y=0; univariate in t, nonzero exactly on adequate subsets.

    ``g`` is a connected plane map with at least one edge and
    ``edge_subset`` a set of its labels.  The contraction polynomial is
    read on the planar dual, so a map that is not spherical is refused.
    """
    _require_plane(g)
    mask = _mask_of(g, g.check_edge_set(edge_subset))
    return _state_polys(g, engine or TutteEngine())(*classes(g, mask))


def _state_polys(g: SignedMap, engine: TutteEngine) -> Callable[[set[int], set[int]], BiPoly]:
    """The polynomial of a state of the plane map ``g`` from its vertex
    and face classes: the product of T(0, t) over the classes, each class
    evaluated once per map.  A vertex class is read on the index graph of
    ``g``, a face class on that of the dual, whose vertices are faces and
    whose edge i joins edge i's two faces."""
    foh = face_of_half(g)
    dual = tuple((foh[e.half_a], foh[e.half_b]) for e in g.edges)
    sides = ((g.n_vertices, g.ends, {}), (len(faces(g)), dual, {}))

    def state_poly(vertex_classes: set[int], face_classes: set[int]) -> BiPoly:
        poly = BiPoly.one()
        for (size, edges, factors), masks in zip(sides, (vertex_classes, face_classes)):
            for x in masks:
                factor = factors.get(x)
                if factor is None:
                    minor = tuple(e for i, e in enumerate(edges) if x >> i & 1)
                    factor = factors[x] = engine.evaluate((size, minor), X_ZERO)
                poly = poly * factor
        return poly

    return state_poly


def _sign_pure(negative: int, vertex_classes: set[int], face_classes: set[int]) -> bool:
    """No class holds both a negative edge and a positive one."""
    return not any(x & negative and x & ~negative
                   for masks in (vertex_classes, face_classes) for x in masks)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


class _LabelTable(_Frozen):
    """What records and renderers read of a map, once per map: its labels in
    ``edges`` order, the negative ones as a bitmask, and each label's text.
    Equal tables come from maps with equal labels and signs."""

    _fields = ("labels", "negative")

    @classmethod
    def of(cls, g: SignedMap) -> "_LabelTable":
        labels = tuple(e.label for e in g.edges)
        negative = sum(1 << i for i, e in enumerate(g.edges) if e.sign < 0)
        return cls(labels=labels, negative=negative, text=tuple(map(str, labels)))

    def indices(self, mask: int) -> list[int]:
        return [i for i in range(len(self.labels)) if mask >> i & 1]

    def members(self, mask: int) -> list:
        """The labels of ``mask`` in sorted order."""
        return [self.labels[i] for i in self.indices(mask)]

    def letters(self, mask: int) -> str:
        """The resolution of each label, in order: 'A' where the edge is
        positive and inside ``mask`` or negative and outside it."""
        bits = format(mask ^ self.negative, f"0{len(self.labels)}b")[::-1]
        return bits.translate(_LETTERS)

    def state(self, mask: int) -> State:
        from .diagram import State

        return State(tuple(zip(self.labels, self.letters(mask))))

    @cached_property
    def json_pieces(self) -> tuple[tuple[dict[str, str], ...], tuple[str, ...]]:
        """Per label, its ``"state"`` entry for each resolution and its
        ``"edge_subset"`` item, each on a new line at a record's depth."""
        quoted = [_JSON_ITEM + encode_basestring_ascii(t) for t in self.text]
        return (tuple({r: f'{q}: "{r}"' for r in "AB"} for q in quoted), tuple(quoted))


_LETTERS = str.maketrans("01", "BA")


class StateRecord(NamedTuple):
    """One adequate state.  ``mask`` is its edge subset as a bitmask over the
    map's ``edges``; ``edge_subset`` and ``state`` are built from it on each
    access."""

    mask: int
    poly: BiPoly
    homogeneous: bool | None
    table: _LabelTable

    def __repr__(self) -> str:
        return (f"StateRecord(mask={self.mask!r}, poly={self.poly!r}, "
                f"homogeneous={self.homogeneous!r})")

    @property
    def edge_subset(self) -> frozenset:
        return frozenset(self.table.members(self.mask))

    @property
    def state(self) -> State:
        return self.table.state(self.mask)


class AdequacyReport(NamedTuple):
    states: tuple[StateRecord, ...]
    state_sum: BiPoly
    diagonal: BiPoly
    tree_count: int
    verified: bool

    @property
    def count(self) -> int:
        return len(self.states)


def enumerate_adequate(
    g: SignedMap,
    engine: TutteEngine | None = None,
    max_edges: int = DEFAULT_MAX_EDGES,
    with_homogeneous: bool = False,
) -> AdequacyReport:
    """All adequate edge subsets with their polynomials, verified against the
    diagonal Tutte polynomial, the diagonal at t = 1 against the spanning-tree
    count of the matrix-tree theorem, and the count of subsets against its
    bounds: at most the spanning-tree count, and on a map without loops and
    bridges the empty and the full subset among them.  A failed check raises
    ``VerificationError``.

    Records are ordered by subset size then lexicographic edge labels, so
    rendered reports are byte-stable.  The map must be spherical: the search
    reads bridges of a restriction as loops of the planar dual.
    """
    _require_plane(g)
    if g.n_edges > max_edges:
        raise CapExceededError(
            f"enumeration capped at {max_edges} edges, got {g.n_edges}"
        )

    table = _LabelTable.of(g)
    bridges, loops = classify_edges(g)
    if with_homogeneous and (bridges or loops):
        raise ValueError("homogeneity conditions require a reduced graph")
    eng = engine or TutteEngine()
    state_poly = _state_polys(g, eng)
    records = []
    total = BiPoly.zero()
    for mask, vertex_classes, face_classes in cyclic_flat_leaves(g):
        poly = state_poly(vertex_classes, face_classes)
        if poly.is_zero():
            raise VerificationError(
                f"subset {table.members(mask)} passed the partition "
                "test but its polynomial vanishes"
            )
        flag = (_sign_pure(table.negative, vertex_classes, face_classes)
                if with_homogeneous else None)
        records.append(StateRecord(mask, poly, flag, table))
        total = total + poly
    # by size, then by sorted labels: of two subsets of one size the first
    # holds the lowest label where they differ, so it has the larger mask
    # once the bit order is reversed
    width = f"0{g.n_edges}b"
    records.sort(key=lambda r: (r.mask.bit_count(), -int(format(r.mask, width)[::-1], 2)))
    # the count checks count leaves, not distinct masks, so a search that
    # gives a state twice meets the spanning-tree bound with both copies
    full = (1 << g.n_edges) - 1
    if not bridges and not loops and (not records or records[0].mask != 0
                                      or records[-1].mask != full):
        raise VerificationError(
            "the search missed the empty or the full subset of a reduced map"
        )
    tree_count = _spanning_trees(g)
    if len(records) > tree_count:
        raise VerificationError(
            f"{len(records)} states exceed the spanning-tree count {tree_count}"
        )
    diagonal = eng.tutte(g).specialize("x_equals_y")
    if diagonal.eval(1, 1) != tree_count:
        raise VerificationError(
            f"the diagonal counts {diagonal.eval(1, 1)} spanning trees, "
            f"the matrix-tree theorem {tree_count}"
        )
    verified = total == diagonal
    if not verified:
        raise VerificationError(
            f"state sum {total.render_t()} differs from the diagonal {diagonal.render_t()}"
        )
    return AdequacyReport(
        states=tuple(records),
        state_sum=total,
        diagonal=diagonal,
        tree_count=tree_count,
        verified=verified,
    )


def _spanning_trees(g: SignedMap) -> int:
    """Spanning trees of ``g`` by the matrix-tree theorem: the determinant of
    the Laplacian without its last row and column, by fraction-free (Bareiss)
    elimination in exact integers.  Parallel edges count and loops do not.
    It shares no code with the Tutte engine, so it certifies the diagonal."""
    n = g.n_vertices
    lap = [[0] * n for _ in range(n)]
    for u, v in g.ends:
        if u != v:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
    a = [row[:-1] for row in lap[:-1]]
    size = n - 1
    prev = 1
    for k in range(size):
        if a[k][k] == 0:
            # the pivot is a leading minor, and a zero leading minor of a
            # positive semidefinite matrix makes it singular
            return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return prev


def enumerate_homogeneous(
    g: SignedMap,
    engine: TutteEngine | None = None,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> AdequacyReport:
    """Adequate states filtered down to the homogeneously adequate ones.

    The verification fields still describe the full enumeration (the sum
    identity holds over all adequate states, not the filtered subset).
    """
    full = enumerate_adequate(g, engine, max_edges, with_homogeneous=True)
    kept = tuple(r for r in full.states if r.homogeneous)
    return full._replace(states=kept)


def ab_adequacy(g: SignedMap, engine: TutteEngine | None = None
                ) -> tuple[bool, bool, BiPoly, BiPoly]:
    """(A-adequate, B-adequate, plus-polynomial, minus-polynomial).

    The boolean answers come from the partition test and must agree with
    nonvanishing of the corresponding polynomial; disagreement would be an
    internal bug and raises ``VerificationError``.
    """
    eng = engine or TutteEngine()
    e_plus = g.positive_labels()
    e_minus = g.negative_labels()
    poly_plus = adequacy_polynomial(g, e_plus, eng)
    poly_minus = adequacy_polynomial(g, e_minus, eng)
    a_ok = adequate_by_partition(g, e_plus)
    b_ok = adequate_by_partition(g, e_minus)
    if a_ok == poly_plus.is_zero():
        raise VerificationError("partition test vs polynomial mismatch (+)")
    if b_ok == poly_minus.is_zero():
        raise VerificationError("partition test vs polynomial mismatch (-)")
    return a_ok, b_ok, poly_plus, poly_minus


# ---------------------------------------------------------------------------
# homogeneous adequacy
# ---------------------------------------------------------------------------


def homogeneous_adequate(g: SignedMap, edge_subset: Iterable) -> bool:
    """Sign-purity conditions on top of adequacy.

    * each edge-bearing component of the restriction is sign-pure;
    * complement edges grouped by the face of the embedded restriction that
      contains them are sign-pure per face, the unbounded one included, so
      no face needs to be marked as unbounded.

    Both groupings are the subset's classes: a complement edge lies in the
    face of the restriction that its face class merged.  Requires the map
    to be reduced (no bridges, no loops) and spherical: on any other surface
    the face classes are not the faces of the embedded restriction.
    """
    _require_plane(g)
    mask = _mask_of(g, g.check_edge_set(edge_subset))
    bridges, loops = classify_edges(g)
    if bridges or loops:
        raise ValueError("homogeneity conditions require a reduced graph")
    return _sign_pure(_mask_of(g, g.negative_labels()), *classes(g, mask))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


# report_to_json prints what ``json.dumps(doc, indent=2)`` prints for the
# document {"states": [{"state": {label: resolution}, "edge_subset": [label],
# "poly_coeffs": [int], "homogeneous": bool (when set)}], "count": int,
# "state_sum_coeffs": [int], "diagonal_coeffs": [int], "spanning_trees": int,
# "verified": bool}, with every label as its str().  A record sits at depth
# 2, so its entries start lines at depth 4.
_JSON_ITEM = "\n        "


def _json_ints(values: list[int], depth: int) -> str:
    if not values:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(map(str, values)) + "\n" + "  " * depth + "]"


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _json_record(rec: StateRecord) -> str:
    table = rec.table
    entries, items = table.json_pieces
    state = ",".join([entry[r] for entry, r in zip(entries, table.letters(rec.mask))])
    subset = [items[i] for i in table.indices(rec.mask)]
    subset_text = "[" + ",".join(subset) + "\n      ]" if subset else "[]"
    flag = "" if rec.homogeneous is None else \
        f',\n      "homogeneous": {_bool_text(rec.homogeneous)}'
    return (
        "{\n"
        f'      "state": {{{state}\n      }},\n'
        f'      "edge_subset": {subset_text},\n'
        f'      "poly_coeffs": {_json_ints(rec.poly.t_coeffs(), 3)}{flag}\n'
        "    }"
    )


def report_to_json(report: AdequacyReport) -> str:
    records = [_json_record(rec) for rec in report.states]
    states = "[\n    " + ",\n    ".join(records) + "\n  ]" if records else "[]"
    return (
        "{\n"
        f'  "states": {states},\n'
        f'  "count": {report.count},\n'
        f'  "state_sum_coeffs": {_json_ints(report.state_sum.t_coeffs(), 1)},\n'
        f'  "diagonal_coeffs": {_json_ints(report.diagonal.t_coeffs(), 1)},\n'
        f'  "spanning_trees": {report.tree_count},\n'
        f'  "verified": {_bool_text(report.verified)}\n'
        "}"
    )


def _texts(rec: StateRecord) -> list[str]:
    """The record's labels as text, in sorted order."""
    text = rec.table.text
    return [text[i] for i in rec.table.indices(rec.mask)]


def report_to_csv(report: AdequacyReport) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    has_flags = any(rec.homogeneous is not None for rec in report.states)
    header = ["state", "edge_subset", "polynomial"]
    if has_flags:
        header.append("homogeneous")
    writer.writerow(header)
    for rec in report.states:
        row = [
            rec.table.letters(rec.mask),
            ";".join(_texts(rec)),
            rec.poly.render_t(),
        ]
        if has_flags:
            row.append("" if rec.homogeneous is None else _bool_text(rec.homogeneous))
        writer.writerow(row)
    return buf.getvalue()


def report_to_table(report: AdequacyReport) -> str:
    """The plain-text report: one line per state, then the count, the
    diagonal, the spanning-tree count and the verdict."""
    lines = []
    for rec in report.states:
        flag = "  homogeneous" if rec.homogeneous else ""
        lines.append(f"state {rec.table.letters(rec.mask)}  edges [{','.join(_texts(rec))}]  "
                     f"poly {rec.poly.render_t()}{flag}\n")
    lines.append(f"count: {report.count}\n")
    lines.append(f"diagonal: {report.diagonal.render_t()}\n")
    lines.append(f"spanning trees: {report.tree_count}\n")
    lines.append(f"verified: {_bool_text(report.verified)}\n")
    return "".join(lines)
