import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from taitstates.adequacy import (
    _spanning_trees,
    ab_adequacy,
    adequacy_polynomial,
    adequate_by_partition,
    enumerate_adequate,
    enumerate_homogeneous,
    homogeneous_adequate,
    report_to_csv,
    report_to_json,
    report_to_table,
    VerificationError,
)
from taitstates.diagram import LinkDiagram, checkerboard, parse_pd, tait
from taitstates.sgraph import (
    DisconnectedError,
    Edge,
    SignedMap,
    flip_signs,
    label_sort_key,
    planar_dual,
)
from taitstates.tutte import X_ZERO, CapExceededError, TutteEngine

from helpers import (
    adequacy_oracle,
    all_states,
    brute_adequate_masks,
    brute_spanning_tree_count,
    classify,
    cycle_graph,
    double_edge_path,
    dual,
    dual_symmetry_check,
    graphs_isomorphic,
    homogeneity_oracle,
    nonnegative,
    random_bridgeless_map,
    random_diagram,
    random_planar_map,
    reference_csv,
    reference_doc,
    reference_table,
    state_from_partition,
    t_poly,
    torus2n_diagram,
    tutte_oracle,
    uniform_state,
)

FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
HERE = os.path.dirname(__file__)
FIXTURE = os.path.join(HERE, "data", "11n95.json")


def fixture_graph():
    from taitstates.diagram import load_diagram_json

    with open(FIXTURE) as fh:
        d = load_diagram_json(json.loads(fh.read()))
    return d, *tait(d)


class TestPartitionTest:
    def test_empty_set_on_loopless(self):
        assert adequate_by_partition(cycle_graph(5), ())

    def test_full_set_on_bridgeless(self):
        g = cycle_graph(5)
        assert adequate_by_partition(g, g.labels())

    def test_single_cycle_edge_fails(self):
        assert not adequate_by_partition(cycle_graph(5), {0})

    def test_chord_failure(self):
        # triangle with a doubled edge: the doubled partner is a chord
        g = SignedMap(
            [(0, 5, 7), (1, 2), (3, 4, 6)],
            [(0, 1, +1, 0), (2, 3, +1, 1), (4, 5, +1, 2), (6, 7, +1, 3)],
        )
        assert not adequate_by_partition(g, {0, 1, 2})
        assert adequate_by_partition(g, {0, 1, 2, 3})

    def test_requires_connected(self):
        g = SignedMap([(0,), (1,), ()], [(0, 1, +1, 0)])
        with pytest.raises(DisconnectedError):
            adequate_by_partition(g, ())

    def test_loop_outside_fails(self):
        g = SignedMap([(0, 1, 2), (3,)], [(0, 1, +1, "loop"), (2, 3, +1, "bridge")])
        assert not adequate_by_partition(g, ())
        assert not adequate_by_partition(g, {"loop", "bridge"})  # bridge in restriction


class TestPolynomial:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_cycle_empty_set(self, n):
        expect = t_poly([0] + [1] * (n - 1))
        assert adequacy_polynomial(cycle_graph(n), ()) == expect

    @pytest.mark.parametrize("n", range(2, 8))
    def test_cycle_full_set(self, n):
        g = cycle_graph(n)
        assert adequacy_polynomial(g, g.labels()) == t_poly([0, 1])

    def test_vanishes_iff_inadequate(self):
        rng = random.Random(71)
        eng = TutteEngine()
        for _ in range(10):
            g = random_planar_map(rng.randint(1, 8), rng)
            from taitstates.sgraph import is_connected

            if not is_connected(g):
                continue
            labels = sorted(g.labels())
            for _ in range(8):
                subset = frozenset(l for l in labels if rng.random() < 0.5)
                poly = adequacy_polynomial(g, subset, eng)
                assert poly.is_zero() == (not adequate_by_partition(g, subset))
                assert nonnegative(poly) or poly.is_zero()

    def test_matches_oracle_product_every_subset(self):
        # per-state minors built at index level against SignedMap surgery
        # and the subset-expansion oracle, on every subset of small maps
        from taitstates.sgraph import contract, is_connected, restrict

        rng = random.Random(83)
        eng = TutteEngine()
        tried = 0
        while tried < 12:
            g = random_planar_map(rng.randint(1, 7), rng)
            if not is_connected(g):
                continue
            tried += 1
            labels = [e.label for e in g.edges]
            adequate = set(brute_adequate_masks(g))
            for mask in range(1 << len(labels)):
                subset = frozenset(labels[i] for i in range(len(labels)) if mask >> i & 1)
                expect = (tutte_oracle(restrict(g, subset)).specialize("x_to_zero")
                          * tutte_oracle(contract(g, subset)).specialize("y_to_zero"))
                poly = adequacy_polynomial(g, subset, eng)
                assert poly == expect, (tried, mask)
                assert poly.is_zero() == (mask not in adequate), (tried, mask)


class TestStateFromPartition:
    def test_round_trip_with_diagram(self):
        rng = random.Random(73)
        for _ in range(8):
            d = random_diagram(rng.randint(2, 6), rng)
            g, corr = tait(d)
            labels = sorted(g.labels())
            for _ in range(6):
                subset = frozenset(l for l in labels if rng.random() < 0.5)
                s = state_from_partition(g, subset, d, corr)
                assert classify(d, g, corr, s).selected == subset

    def test_diagram_needs_corr(self):
        d = checkerboard(parse_pd(FIG8))
        g, _ = tait(d)
        with pytest.raises(ValueError, match="corr"):
            state_from_partition(g, (), d)

    def test_extremes(self):
        g = cycle_graph(4, +1)
        assert state_from_partition(g, ()) == uniform_state(range(4), "B")
        assert state_from_partition(g, g.labels()) == uniform_state(range(4), "A")
        flipped = flip_signs(g)
        assert state_from_partition(flipped, ()) == uniform_state(range(4), "A")


class TestEnumeration:
    def test_matches_brute_force_oracle(self):
        rng = random.Random(79)
        for _ in range(16):
            if rng.random() < 0.5:
                g = random_planar_map(rng.randint(1, 12), rng)
            else:
                g = random_bridgeless_map(rng.randint(2, 12), rng)
            labels = [e.label for e in g.edges]
            expected = {frozenset(lab for i, lab in enumerate(labels) if mask >> i & 1)
                        for mask in brute_adequate_masks(g)}
            rep = enumerate_adequate(g)
            assert rep.verified
            assert {r.edge_subset for r in rep.states} == expected
            assert rep.count == len(expected)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_adequate(cycle_graph(5), max_edges=4)

    def test_count_certificate_needs_empty_and_full(self, monkeypatch):
        import taitstates.adequacy as adequacy

        search = adequacy.cyclic_flat_leaves
        monkeypatch.setattr(adequacy, "cyclic_flat_leaves",
                            lambda g: (leaf for leaf in search(g) if leaf[0] != 0))
        with pytest.raises(VerificationError, match="empty or the full subset"):
            enumerate_adequate(random_bridgeless_map(10, random.Random(4)))

    def test_count_certificate_bounded_by_trees(self, monkeypatch):
        import taitstates.adequacy as adequacy

        # C_4 has 4 spanning trees; five copies of its two states exceed them
        search = adequacy.cyclic_flat_leaves
        monkeypatch.setattr(adequacy, "cyclic_flat_leaves", lambda g: list(search(g)) * 5)
        with pytest.raises(VerificationError, match="exceed the spanning-tree count 4"):
            enumerate_adequate(cycle_graph(4))

    def test_each_class_evaluated_once(self):
        # the engine sees one call per distinct vertex or face class of the
        # map, however many states share the class
        from taitstates._scan import cyclic_flat_leaves

        class RecordingEngine:
            def __init__(self):
                self.inner = TutteEngine()
                self.calls = 0

            def evaluate(self, mg, mode):
                self.calls += 1
                return self.inner.evaluate(mg, mode)

            def tutte(self, g):
                return self.inner.tutte(g)

        rng = random.Random(31)
        for _ in range(6):
            g = random_bridgeless_map(rng.randint(8, 18), rng)
            vertex_classes, face_classes = set(), set()
            for _, vc, fc in cyclic_flat_leaves(g):
                vertex_classes |= vc
                face_classes |= fc
            eng = RecordingEngine()
            enumerate_adequate(g, eng)
            assert eng.calls == len(vertex_classes) + len(face_classes)

    def test_diagonal_certified_by_matrix_tree_count(self):
        # an engine that doubles T(0, t) and T(x, y) keeps the state sum equal
        # to the diagonal; only the independent tree count can catch it
        class DoublingEngine:
            def __init__(self):
                self.inner = TutteEngine()

            def evaluate(self, mg, mode):
                value = self.inner.evaluate(mg, mode)
                return value + value if mode == X_ZERO else value

            def tutte(self, g):
                value = self.inner.tutte(g)
                return value + value

        with pytest.raises(VerificationError, match="matrix-tree theorem 4"):
            enumerate_adequate(cycle_graph(4), DoublingEngine())

    def test_homogeneity_flags_match_per_subset_check(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_bridgeless_map(rng.randint(2, 14), rng)
            rep = enumerate_adequate(g, with_homogeneous=True)
            for rec in rep.states:
                assert rec.homogeneous == homogeneous_adequate(g, rec.edge_subset)

    def test_requires_connected(self):
        g = SignedMap([(0,), (1,), ()], [(0, 1, +1, 0)])
        with pytest.raises(DisconnectedError):
            enumerate_adequate(g)

    def test_report_fields(self):
        rep = enumerate_adequate(cycle_graph(4))
        assert rep.verified
        assert rep.count == 2
        assert rep.tree_count == 4
        assert rep.tree_count - rep.count == 2
        assert rep.state_sum == rep.diagonal

    def test_deterministic_order(self):
        g = double_edge_path(3)
        rep = enumerate_adequate(g)
        sizes = [len(r.edge_subset) for r in rep.states]
        assert sizes == sorted(sizes)
        assert rep.count == 8

    def test_checkerboard_partitions_always_present(self):
        rng = random.Random(83)
        for _ in range(10):
            g = random_bridgeless_map(rng.randint(2, 9), rng)
            rep = enumerate_adequate(g)
            subsets = {r.edge_subset for r in rep.states}
            assert frozenset() in subsets and g.labels() in subsets
            assert 2 <= rep.count <= rep.tree_count

    def test_recoloring_preserves_count_and_sum(self):
        rng = random.Random(89)
        for _ in range(10):
            g = random_planar_map(rng.randint(2, 9), rng)
            from taitstates.sgraph import is_connected

            if not is_connected(g) or g.n_edges == 0:
                continue
            gd = flip_signs(planar_dual(g))
            a = enumerate_adequate(g)
            b = enumerate_adequate(gd)
            assert a.count == b.count
            assert a.state_sum == b.state_sum
            # complements correspond
            subs_a = {frozenset(r.edge_subset) for r in a.states}
            subs_b = {g.labels() - s for s in {frozenset(r.edge_subset) for r in b.states}}
            assert subs_a == subs_b

    def test_mirror_dualizes_states(self):
        # sign flip leaves the passing subset family alone (the partition
        # test never looks at signs) but dualizes the state each subset
        # names; equivalently, a fixed state's subset complements
        rng = random.Random(97)
        for _ in range(10):
            g = random_planar_map(rng.randint(2, 9), rng)
            from taitstates.sgraph import is_connected

            if not is_connected(g) or g.n_edges == 0:
                continue
            a = enumerate_adequate(g)
            b = enumerate_adequate(flip_signs(g))
            assert a.count == b.count
            assert {(r.state, r.edge_subset) for r in b.states} == {
                (dual(r.state), r.edge_subset) for r in a.states
            }
            # per fixed state: the flipped graph assigns the complement
            for r in a.states:
                flipped_subset = g.labels() - r.edge_subset
                assert state_from_partition(flip_signs(g), flipped_subset) == r.state


class TestMatrixTreeCount:
    def test_matches_brute_force(self):
        # random plane maps carry loops and parallel edges
        rng = random.Random(67)
        loops = parallels = 0
        for trial in range(80):
            g = random_planar_map(rng.randint(1, 11), rng)
            ends = [tuple(sorted(g.endpoints(lab))) for lab in g.labels()]
            loops += any(u == v for u, v in ends)
            parallels += len(set(ends)) < len(ends)
            assert _spanning_trees(g) == brute_spanning_tree_count(g), trial
        assert loops and parallels

    def test_disconnected_has_none(self):
        g = SignedMap([(0,), (1,), (2,), (3,)], [(0, 1, +1, "a"), (2, 3, +1, "b")])
        assert _spanning_trees(g) == 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_hopf_path(self, n):
        assert _spanning_trees(double_edge_path(n)) == 2 ** n


class TestABAdequacy:
    def test_figure8(self):
        d = checkerboard(parse_pd(FIG8))
        g, _ = tait(d)
        a_ok, b_ok, pp, pm = ab_adequacy(g)
        assert a_ok and b_ok
        assert not pp.is_zero() and not pm.is_zero()

    def test_alternating_always_both(self):
        for n in range(2, 7):
            g, _ = tait(torus2n_diagram(n))
            a_ok, b_ok, _, _ = ab_adequacy(g)
            assert a_ok and b_ok

    def test_matches_oracle(self):
        rng = random.Random(103)
        for _ in range(10):
            d = random_diagram(rng.randint(2, 6), rng)
            g, _ = tait(d)
            n = d.n_crossings
            a_ok, b_ok, _, _ = ab_adequacy(g)
            assert a_ok == adequacy_oracle(d, uniform_state(range(n), "A"))
            assert b_ok == adequacy_oracle(d, uniform_state(range(n), "B"))

    def test_disagreement_raises(self, monkeypatch):
        # the cross-check is a raise, not an assert, so it holds under -O too
        import taitstates.adequacy as adequacy

        monkeypatch.setattr(adequacy, "adequate_by_partition", lambda g, s: False)
        with pytest.raises(VerificationError, match="mismatch"):
            ab_adequacy(cycle_graph(3))


class TestHomogeneous:
    def test_uniform_signs_always_pass(self):
        g, _ = tait(torus2n_diagram(5))
        rep = enumerate_adequate(g)
        for rec in rep.states:
            assert homogeneous_adequate(g, rec.edge_subset)

    def test_empty_set_mixed_signs_single_region(self):
        # cycle with mixed signs: empty subset puts every edge in one region
        g = cycle_graph(4, +1)
        mixed = SignedMap(
            g.vertices,
            [(e.half_a, e.half_b, +1 if e.label < 2 else -1, e.label) for e in g.edges],
        )
        assert not homogeneous_adequate(mixed, ())
        assert homogeneous_adequate(g, ())

    def test_requires_reduced(self):
        g = SignedMap([(0, 1, 2), (3,)], [(0, 1, +1, 0), (2, 3, +1, 1)])
        with pytest.raises(ValueError):
            homogeneous_adequate(g, ())

    def test_requires_spherical(self):
        # a reduced theta on the torus (v - e + f = 0): its face classes are
        # not the faces of an embedded restriction, so no subset is answered
        g = SignedMap([(0, 2, 4), (1, 3, 5)],
                      [(0, 1, +1, "a"), (2, 3, -1, "b"), (4, 5, +1, "c")])
        for subset in ((), {"a", "b"}, {"a", "b", "c"}):
            with pytest.raises(ValueError, match="not spherical"):
                homogeneous_adequate(g, subset)

    def test_matches_definitional_oracle(self):
        # the flags need no marked unbounded face, so the Tait graph of
        # either coloring gives the definitional answer
        for coloring in ("canonical", "swapped"):
            rng = random.Random(107)
            checked = 0
            for _ in range(60):
                d = random_diagram(rng.randint(3, 8), rng, reduced_only=True)
                d = checkerboard(LinkDiagram(d.crossings, d.outer_arc), coloring)
                g, corr = tait(d)
                for s in all_states(d):
                    if not adequacy_oracle(d, s):
                        continue
                    es = classify(d, g, corr, s).selected
                    assert homogeneous_adequate(g, es) == homogeneity_oracle(d, s)
                    checked += 1
            assert checked > 150, coloring

    def test_filtered_report(self):
        g, _ = tait(torus2n_diagram(4))
        hom = enumerate_homogeneous(g)
        assert hom.count == 2
        assert all(r.homogeneous for r in hom.states)


class TestDiagramReport:
    def test_swapped_coloring_same_flags(self):
        rng = random.Random(109)
        done = 0
        for _ in range(20):
            d = random_diagram(rng.randint(3, 6), rng, reduced_only=True)
            d_sw = checkerboard(LinkDiagram(d.crossings, d.outer_arc), "swapped")
            a = enumerate_adequate(tait(d)[0], with_homogeneous=True)
            b = enumerate_adequate(tait(d_sw)[0], with_homogeneous=True)
            flags_a = {rec.state: rec.homogeneous for rec in a.states}
            flags_b = {rec.state: rec.homogeneous for rec in b.states}
            assert flags_a == flags_b
            done += 1
            if done >= 6:
                break
        assert done >= 6


class TestSerialization:
    def test_json_shape(self):
        rep = enumerate_adequate(cycle_graph(3))
        doc = json.loads(report_to_json(rep))
        assert doc["count"] == 2
        assert doc["verified"] is True
        assert doc["spanning_trees"] == 3
        assert doc["states"][0]["edge_subset"] == []
        assert doc["states"][1]["edge_subset"] == ["0", "1", "2"]
        assert doc["diagonal_coeffs"] == [0, 2, 1]

    def test_csv_shape(self):
        rep = enumerate_adequate(cycle_graph(3))
        lines = report_to_csv(rep).strip().splitlines()
        assert lines[0] == "state,edge_subset,polynomial"
        assert len(lines) == 3

    def test_csv_homogeneous_column(self):
        g, _ = tait(torus2n_diagram(3))
        rep = enumerate_adequate(g, with_homogeneous=True)
        lines = report_to_csv(rep).strip().splitlines()
        assert lines[0].endswith(",homogeneous")
        assert all(line.endswith("true") for line in lines[1:])


# labels that JSON must escape: quotes, backslashes, control characters,
# non-ASCII text, astral and lone-surrogate code points; mixed with ints
label_text = st.text(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\t ae\u00e9\u2028\u65e5\U0001f600\ud800')
                     | st.characters(), max_size=4)
labels = st.integers(-10**20, 10**20) | label_text


def relabeled(g: SignedMap, new_labels: list) -> SignedMap:
    return SignedMap(g.vertices, [Edge(e.half_a, e.half_b, e.sign, lab)
                                  for e, lab in zip(g.edges, new_labels)])


def assert_renders_as_reference(g: SignedMap, rep) -> None:
    assert report_to_json(rep) == json.dumps(reference_doc(rep), indent=2)
    assert report_to_csv(rep) == reference_csv(rep)
    assert report_to_table(rep) == reference_table(rep)
    # the records come in the order of (size, sorted label keys), and each
    # lazy state is the state of its subset
    order = [(len(r.edge_subset), sorted(map(label_sort_key, r.edge_subset)))
             for r in rep.states]
    assert order == sorted(order)
    for rec in rep.states:
        assert rec.state == state_from_partition(g, rec.edge_subset)


class TestRenderingAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), m=st.integers(2, 9), data=st.data())
    def test_random_labels(self, seed, m, data):
        g = random_bridgeless_map(m, random.Random(seed))
        g = relabeled(g, data.draw(st.lists(labels, min_size=m, max_size=m, unique_by=str)))
        for rep in (enumerate_adequate(g), enumerate_adequate(g, with_homogeneous=True),
                    enumerate_homogeneous(g)):
            assert_renders_as_reference(g, rep)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_homogeneous_report_without_states(self, data):
        _, g, _ = fixture_graph()
        g = relabeled(g, data.draw(st.lists(labels, min_size=g.n_edges,
                                            max_size=g.n_edges, unique_by=str)))
        rep = enumerate_homogeneous(g)
        assert rep.count == 0
        assert '"states": [],' in report_to_json(rep)
        assert_renders_as_reference(g, rep)


class TestBundledKnot:
    """Structural facts about the bundled 11-crossing knot's Tait graph."""

    def test_graph_shape(self):
        _, g, corr = fixture_graph()
        assert g.n_vertices == 7 and g.n_edges == 11
        from taitstates.sgraph import components, faces, restrict as rstr

        assert components(rstr(g, ()))[0] == g.n_vertices
        assert len(faces(g)) == 6  # five bounded regions plus the outer one

    def test_dual_involution_and_symmetry(self):
        _, g, _ = fixture_graph()
        assert graphs_isomorphic(planar_dual(planar_dual(g)), g, respect_signs=True)
        assert dual_symmetry_check(g)

    def test_black_state_polynomial(self):
        _, g, _ = fixture_graph()
        assert adequacy_polynomial(g, ()) == t_poly([0, 3, 9, 11, 8, 4, 1])
        assert adequacy_polynomial(g, g.labels()) == t_poly([0, 3, 9, 10, 5, 1])

    def test_four_states_with_pure_components(self):
        # the sign-purity condition on components holds for exactly four of
        # the twenty adequate states, and none survives the region conditions
        from taitstates.sgraph import components as comps, restrict as rstr

        _, g, _ = fixture_graph()
        rep = enumerate_adequate(g, with_homogeneous=True)
        pure = 0
        for rec in rep.states:
            sub = rstr(g, rec.edge_subset)
            _, assign = comps(sub)
            comp_signs = {}
            ok = True
            for lab in rec.edge_subset:
                c = assign[g.vertex_of_half(g.edge(lab).half_a)]
                s = g.edge(lab).sign
                if comp_signs.setdefault(c, s) != s:
                    ok = False
                    break
            pure += ok
            assert rec.homogeneous is False
        assert pure == 4


    def test_all_states_against_segment_oracle(self):
        # independent route to the same twenty states: resolve all 2^11
        # states of the diagram and keep those with no self-touching segment
        d, g, corr = fixture_graph()
        from helpers import all_states, adequacy_oracle

        adequate = [s for s in all_states(d) if adequacy_oracle(d, s)]
        assert len(adequate) == 20
        rep = enumerate_adequate(g)
        assert {rec.state for rec in rep.states} == set(adequate)


class TestHomogeneousNested:
    """Hand-built nested configuration: a doubled pair inside a square,
    joined by two connectors.  Restricting to both cycles leaves the pair
    nested inside the square with the connectors in the bounded region
    between them, which is precisely the case the face-merge logic has to
    group correctly.
    """

    @staticmethod
    def build(square, e_sign, f_sign, p_sign, q_sign):
        edges = [
            (0, 1, square, "a"), (2, 3, square, "b"),
            (4, 5, square, "c"), (6, 7, square, "d"),
            (8, 9, e_sign, "e"), (10, 11, f_sign, "f"),
            (12, 13, p_sign, "p"), (14, 15, q_sign, "q"),
        ]
        rots = [
            (0, 12, 7),   # square corner with connector p
            (2, 1),
            (4, 14, 3),   # square corner with connector q
            (5, 6),
            (10, 8, 13),  # inner vertex with connector p
            (15, 9, 11),  # inner vertex with connector q
        ]
        return SignedMap(rots, edges)

    BOTH = frozenset("abcdef")
    SQUARE = frozenset("abcd")
    PAIR = frozenset("ef")

    def test_all_candidate_subsets_adequate(self):
        g = self.build(+1, +1, +1, +1, +1)
        for subset in (frozenset(), self.BOTH, self.SQUARE, self.PAIR, g.labels()):
            assert adequate_by_partition(g, subset), sorted(subset)

    def test_uniform_signs_all_homogeneous(self):
        g = self.build(+1, +1, +1, +1, +1)
        for subset in (frozenset(), self.BOTH, self.SQUARE, self.PAIR):
            assert homogeneous_adequate(g, subset), sorted(subset)

    def test_mixed_connectors_fail_inside_the_nest(self):
        # the connectors sit together in the bounded region between the
        # cycles, so differing signs there break homogeneity even though
        # every component of the restriction is pure
        g = self.build(+1, +1, +1, +1, -1)
        assert not homogeneous_adequate(g, self.BOTH)

    def test_mixed_components_pure_regions(self):
        # opposite signs on the two cycles are fine as long as each region
        # of complement edges stays pure
        g = self.build(+1, -1, -1, +1, +1)
        assert homogeneous_adequate(g, self.BOTH)
        # selecting just the pair leaves six positive edges outside: pure
        assert homogeneous_adequate(g, self.PAIR)
        # selecting just the square dumps {e,f,p,q} = {-,-,+,+} into one
        # bounded region: mixed
        assert not homogeneous_adequate(g, self.SQUARE)
        # nothing selected: all eight edges share the unbounded region: mixed
        assert not homogeneous_adequate(g, frozenset())

    def test_impure_component_fails(self):
        g = self.build(+1, +1, -1, +1, +1)
        assert not homogeneous_adequate(g, self.BOTH)
        assert not homogeneous_adequate(g, self.PAIR)
