import gc
import random
import weakref

import pytest

from taitstates.diagram import (
    ColoringError,
    LinkDiagram,
    PDParseError,
    State,
    checkerboard,
    checkerboard_states,
    classify,
    is_reduced,
    load_diagram_json,
    mirror,
    nugatory_crossings,
    parse_pd,
    region_count,
    outer_region,
    segment_self_touch,
    state_circles,
    tait,
)
from taitstates.sgraph import DisconnectedError, classify_edges, components, restrict

from helpers import (
    adequacy_oracle,
    all_states,
    crossing_change,
    cycle_graph,
    diagram_to_json,
    double_edge_path,
    graphs_isomorphic,
    hopf_sum_diagram,
    random_diagram,
    torus2n_diagram,
)

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
KINK = "X[1,2,2,1]"  # one-crossing unknot diagram


class TestParsing:
    def test_trefoil(self):
        d = parse_pd(TREFOIL)
        assert d.n_crossings == 3
        assert region_count(d) == 5  # v=3, e=6 forces f=5

    def test_figure8(self):
        d = parse_pd(FIG8)
        assert d.n_crossings == 4
        assert region_count(d) == 6

    def test_alternate_delimiters(self):
        d = parse_pd("PD[X(1,4,2,5), X(3,6,4,1), X(5,2,6,3)]")
        assert d.crossings == parse_pd(TREFOIL).crossings

    def test_arc_appearing_once(self):
        with pytest.raises(PDParseError, match="occurs"):
            parse_pd("X[1,2,3,4] X[1,2,3,5]")

    def test_empty_input(self):
        with pytest.raises(PDParseError, match="empty"):
            parse_pd("   ")

    def test_garbage_token(self):
        with pytest.raises(PDParseError, match="unrecognized"):
            parse_pd("X[1,4,2,5] Y[3,6,4,1] X[5,2,6,3]")

    def test_disconnected(self):
        two = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3] X[7,10,8,11] X[9,12,10,7] X[11,8,12,9]"
        with pytest.raises(DisconnectedError):
            parse_pd(two)

    def test_json_round_trip(self):
        d = checkerboard(parse_pd(TREFOIL))
        d2 = load_diagram_json(diagram_to_json(d))
        assert d2 == d

    def test_bad_outer_arc(self):
        with pytest.raises(PDParseError):
            parse_pd(TREFOIL, outer_arc=99)


class TestColoring:
    def test_canonical_outer_is_white(self):
        d = checkerboard(parse_pd(TREFOIL), "canonical")
        assert d.colors[outer_region(d)] == "white"

    def test_swapped_outer_is_black(self):
        d = checkerboard(parse_pd(TREFOIL), "swapped")
        assert d.colors[outer_region(d)] == "black"

    def test_proper_coloring(self):
        rng = random.Random(3)
        for _ in range(10):
            d = random_diagram(rng.randint(2, 7), rng)
            colors = d.colors
            g, corr = tait(d)
            # one vertex per black region, one face per white region
            assert g.n_vertices == sum(1 for c in colors if c == "black")
            from taitstates.sgraph import faces
            assert len(faces(g)) == sum(1 for c in colors if c == "white")

    def test_uncolored_rejects(self):
        d = parse_pd(TREFOIL)
        with pytest.raises(ColoringError):
            d.colors

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            checkerboard(parse_pd(TREFOIL), "sideways")


class TestTaitGraph:
    def test_trefoil_is_uniform_cycle(self):
        d = checkerboard(parse_pd(TREFOIL))
        g, corr = tait(d)
        signs = {g.sign(lab) for lab in g.labels()}
        assert len(signs) == 1  # alternating diagram: uniform signs
        assert graphs_isomorphic(g, cycle_graph(3)) or graphs_isomorphic(
            g, cycle_graph(3, -1)
        ) or g.n_vertices == 2
        assert sorted(corr) == [0, 1, 2]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_torus_link_cycle(self, n):
        d = torus2n_diagram(n)
        g, _ = tait(d)
        assert g.n_vertices == n and g.n_edges == n
        assert len({g.sign(lab) for lab in g.labels()}) == 1
        assert graphs_isomorphic(g, cycle_graph(n))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_hopf_sum_double_edge_path(self, n):
        d = hopf_sum_diagram(n)
        g, _ = tait(d)
        assert graphs_isomorphic(g, double_edge_path(n))

    def test_swapped_coloring_is_planar_dual(self):
        from taitstates.sgraph import flip_signs, planar_dual

        rng = random.Random(19)
        for _ in range(10):
            d = random_diagram(rng.randint(2, 7), rng)
            g_can, _ = tait(d)
            d_sw = checkerboard(LinkDiagram(d.crossings, d.outer_arc), "swapped")
            g_sw, _ = tait(d_sw)
            assert graphs_isomorphic(
                g_sw, flip_signs(planar_dual(g_can)), respect_signs=True
            )

    def test_stable_labels_survive_surgery(self):
        d = checkerboard(parse_pd(FIG8))
        g, corr = tait(d)
        sub = restrict(g, {corr[0], corr[2]})
        assert sub.labels() == {corr[0], corr[2]}


class TestMirror:
    def test_involution(self):
        d = parse_pd(TREFOIL)
        assert mirror(mirror(d)) == d

    def test_flips_all_signs(self):
        rng = random.Random(29)
        for _ in range(10):
            d = random_diagram(rng.randint(2, 7), rng)
            g, _ = tait(d)
            gm, _ = tait(mirror(d))
            assert all(gm.sign(lab) == -g.sign(lab) for lab in g.labels())

    def test_swaps_a_and_b_adequacy(self):
        rng = random.Random(37)
        for _ in range(8):
            d = random_diagram(rng.randint(2, 6), rng)
            dm = mirror(d)
            n = d.n_crossings
            a_d = adequacy_oracle(d, State.uniform(range(n), "A"))
            b_dm = adequacy_oracle(dm, State.uniform(range(n), "B"))
            assert a_d == b_dm
            b_d = adequacy_oracle(d, State.uniform(range(n), "B"))
            a_dm = adequacy_oracle(dm, State.uniform(range(n), "A"))
            assert b_d == a_dm


class TestReduced:
    def test_trefoil_reduced(self):
        assert is_reduced(checkerboard(parse_pd(TREFOIL)))

    def test_kink_not_reduced(self):
        d = checkerboard(parse_pd(KINK))
        assert not is_reduced(d)
        assert nugatory_crossings(d) == [0]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_torus_reduced(self, n):
        assert is_reduced(torus2n_diagram(n))

    def test_matches_bridge_loop_criterion(self):
        rng = random.Random(41)
        for _ in range(15):
            d = random_diagram(rng.randint(2, 7), rng)
            g, _ = tait(d)
            bridges, loops = classify_edges(g)
            assert is_reduced(d) == (not bridges and not loops)


class TestStates:
    def test_state_construction(self):
        s = State.from_dict({0: "A", 1: "B"})
        assert s.resolution(0) == "A"
        assert s.dual() == State.from_dict({0: "B", 1: "A"})
        with pytest.raises(ValueError):
            State.from_dict({0: "C"})

    def test_black_state_classification(self):
        # black state: positive edges B-resolved, negative A-resolved
        rng = random.Random(43)
        for _ in range(10):
            d = random_diagram(rng.randint(2, 7), rng)
            g, corr = tait(d)
            black, white = checkerboard_states(d, g, corr)
            assert black.dual() == white
            pb = classify(d, g, corr, black)
            assert pb.selected == frozenset()
            assert pb.plus_a == frozenset() and pb.minus_b == frozenset()
            pw = classify(d, g, corr, white)
            assert pw.selected == g.labels()

    def test_all_a_state_takes_positives(self):
        rng = random.Random(47)
        for _ in range(10):
            d = random_diagram(rng.randint(2, 7), rng)
            g, corr = tait(d)
            part = classify(d, g, corr, State.uniform(range(d.n_crossings), "A"))
            assert part.selected == g.positive_labels()

    def test_dual_state_complements(self):
        rng = random.Random(53)
        for _ in range(8):
            d = random_diagram(rng.randint(2, 6), rng)
            g, corr = tait(d)
            for s in all_states(d):
                p = classify(d, g, corr, s)
                pd_ = classify(d, g, corr, s.dual())
                assert pd_.selected == p.complement

    def test_alternating_checkerboard_states_are_extremes(self):
        for src in (TREFOIL, FIG8):
            d = checkerboard(parse_pd(src))
            g, corr = tait(d)
            black, white = checkerboard_states(d, g, corr)
            n = d.n_crossings
            extremes = {State.uniform(range(n), "A"), State.uniform(range(n), "B")}
            assert {black, white} == extremes


class TestStateCircles:
    def test_unknot(self):
        assert state_circles(LinkDiagram(()), State.from_dict({}))[0] == 1

    def test_trefoil_counts(self):
        d = checkerboard(parse_pd(TREFOIL))
        n_a, _ = state_circles(d, State.uniform(range(3), "A"))
        n_b, _ = state_circles(d, State.uniform(range(3), "B"))
        assert {n_a, n_b} == {2, 3}  # reduced alternating: |sA| + |sB| = n + 2

    def test_figure8_all_a(self):
        d = checkerboard(parse_pd(FIG8))
        s = State.uniform(range(4), "A")
        cnt, circles = state_circles(d, s)
        g, corr = tait(d)
        part = classify(d, g, corr, s)
        sub = restrict(g, part.selected)
        k, _ = components(sub)
        assert cnt == sub.n_edges - sub.n_vertices + 2 * k
        assert sum(len(c) for c in circles) == 8  # every arc on exactly one circle

    def test_count_formula_exhaustive(self):
        rng = random.Random(59)
        for _ in range(8):
            d = random_diagram(rng.randint(2, 7), rng)
            g, corr = tait(d)
            for s in all_states(d):
                cnt, _ = state_circles(d, s)
                sub = restrict(g, classify(d, g, corr, s).selected)
                k, _ = components(sub)
                assert cnt == sub.n_edges - sub.n_vertices + 2 * k

    def test_black_state_bounds_black_regions(self):
        rng = random.Random(61)
        for _ in range(8):
            d = random_diagram(rng.randint(2, 7), rng)
            g, corr = tait(d)
            black, white = checkerboard_states(d, g, corr)
            assert state_circles(d, black)[0] == g.n_vertices
            colors = d.colors
            assert state_circles(d, white)[0] == sum(1 for c in colors if c == "white")


class TestSelfTouch:
    def test_kink_one_resolution_touches(self):
        # resolving a kink one way closes a circle onto itself; the other
        # way splits off a second circle, so exactly one state self-touches
        d = checkerboard(parse_pd(KINK))
        touching = [
            res
            for res in ("A", "B")
            if segment_self_touch(d, State.from_dict({0: res}))
        ]
        assert len(touching) == 1
        res = touching[0]
        assert state_circles(d, State.from_dict({0: res}))[0] == 1
        other = "B" if res == "A" else "A"
        assert state_circles(d, State.from_dict({0: other}))[0] == 2

    def test_figure8_all_a_adequate(self):
        d = checkerboard(parse_pd(FIG8))
        assert segment_self_touch(d, State.uniform(range(4), "A")) == frozenset()

    def test_trefoil_mixed_states_touch(self):
        d = checkerboard(parse_pd(TREFOIL))
        adequate = [s for s in all_states(d) if not segment_self_touch(d, s)]
        assert len(adequate) == 2
        assert all(len(set(dict(s.items).values())) == 1 for s in adequate)

    def test_crossing_change_criterion(self):
        rng = random.Random(67)
        for _ in range(6):
            d = random_diagram(rng.randint(2, 6), rng)
            for s in all_states(d):
                cnt, _ = state_circles(d, s)
                drops = all(
                    state_circles(crossing_change(d, ci), s)[0] < cnt
                    for ci in range(d.n_crossings)
                )
                assert drops == (not segment_self_touch(d, s))


def test_derived_data_is_freed_with_the_diagram():
    # the projection, regions, colors and Tait graph live on the diagram, so
    # nothing else keeps a diagram alive once its caller drops it
    rng = random.Random(113)
    refs = []
    for _ in range(3):
        d = checkerboard(random_diagram(rng.randint(5, 7), rng), "swapped")
        tait(d)
        refs.append(weakref.ref(d))
    del d
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
