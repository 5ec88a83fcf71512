import json
import random

import pytest

from taitstates.sgraph import (
    DisconnectedError,
    SignedMap,
    UnknownEdgeError,
    classify_edges,
    components,
    contract,
    edge_blocks,
    euler_genus_ok,
    faces,
    flip_signs,
    from_json,
    planar_dual,
    restrict,
)

from helpers import cycle_graph, double_edge_path, graphs_isomorphic, random_planar_map, to_json


# a theta graph whose labels 1 and "1" both print as 1
LABELS_PRINT_ALIKE = {
    "vertices": [[0, 2, 5], [1, 4, 3]],
    "edges": [{"halves": [0, 1], "sign": "+", "label": 1},
              {"halves": [2, 3], "sign": "-", "label": "1"},
              {"halves": [4, 5], "sign": "+", "label": "e"}],
}


def single_loop():
    return SignedMap([(0, 1)], [(0, 1, +1, "l")])


def single_bridge():
    return SignedMap([(0,), (1,)], [(0, 1, +1, "b")])


def triangle():
    return cycle_graph(3)


def blocks_of(g):
    """``edge_blocks`` of a map, each block as the (vertices, edges) it spans."""
    ends = [(g.vertex_of_half(e.half_a), g.vertex_of_half(e.half_b)) for e in g.edges]
    return [({w for i in blk for w in ends[i]}, blk) for blk in edge_blocks(g.n_vertices, ends)]


class TestConstruction:
    def test_half_edge_in_two_rotations(self):
        with pytest.raises(ValueError):
            SignedMap([(0,), (0, 1)], [(0, 1, +1, "e")])

    def test_half_edge_in_two_edges(self):
        with pytest.raises(ValueError):
            SignedMap([(0, 1, 2)], [(0, 1, +1, "a"), (1, 2, +1, "b")])

    def test_duplicate_label(self):
        with pytest.raises(ValueError):
            SignedMap([(0, 1, 2, 3)], [(0, 1, +1, "a"), (2, 3, +1, "a")])

    def test_labels_that_print_alike(self):
        # reports print labels with str(), so 1 and "1" would merge there
        with pytest.raises(ValueError, match="both print as '1'"):
            SignedMap([(0, 2, 5), (1, 4, 3)],
                      [(0, 1, +1, 1), (2, 3, -1, "1"), (4, 5, +1, "e")])
        with pytest.raises(ValueError, match="both print as '1'"):
            from_json(LABELS_PRINT_ALIKE)

    def test_edges_kept_in_label_order(self):
        # bit i of a subset mask is edges[i], whatever order the edges came in
        given = [(4, 5, +1, "e"), (2, 3, -1, 10), (0, 1, +1, 2)]
        g = SignedMap([(0, 2, 5), (1, 4, 3)], given)
        assert [e.label for e in g.edges] == [2, 10, "e"] == g.sorted_labels()
        assert g == SignedMap([(0, 2, 5), (1, 4, 3)], given[::-1])

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            SignedMap([(0, 1)], [(0, 1, 2, "a")])

    def test_json_round_trip(self):
        g = cycle_graph(4)
        assert from_json(json.loads(to_json(g))) == g


class TestRestrictDeleteContract:
    def test_restrict_everything(self):
        g = triangle()
        assert restrict(g, g.labels()) == g

    def test_restrict_empty_keeps_vertices(self):
        g = triangle()
        r = restrict(g, ())
        assert r.n_vertices == 3 and r.n_edges == 0
        assert components(r)[0] == 3

    def test_restrict_one_edge_is_bridge(self):
        r = restrict(triangle(), {0})
        bridges, loops = classify_edges(r)
        assert bridges == {0} and not loops

    def test_unknown_label(self):
        with pytest.raises(UnknownEdgeError):
            restrict(triangle(), {"nope"})
        with pytest.raises(UnknownEdgeError):
            contract(triangle(), {99})

    def test_delete_one_of_double(self):
        g = cycle_graph(2)
        d = restrict(g, g.labels() - {0})
        bridges, loops = classify_edges(d)
        assert d.n_edges == 1 and bridges == {1}

    def test_delete_cycle_edge_gives_path(self):
        g = cycle_graph(5)
        d = restrict(g, g.labels() - {2})
        bridges, _ = classify_edges(d)
        assert len(bridges) == 4

    def test_contract_double_edge_gives_loop(self):
        c = contract(cycle_graph(2), {0})
        assert c.n_vertices == 1 and c.n_edges == 1
        _, loops = classify_edges(c)
        assert loops == {1}

    def test_contract_nothing(self):
        g = triangle()
        assert contract(g, ()) == g

    @pytest.mark.parametrize("n", range(3, 8))
    def test_contract_cycle_edge(self, n):
        assert graphs_isomorphic(contract(cycle_graph(n), {0}), cycle_graph(n - 1))

    def test_delete_is_restrict_of_complement(self):
        # deleting h keeps every vertex, and each rotation loses only the
        # half-edges of h
        rng = random.Random(3)
        for _ in range(25):
            g = random_planar_map(rng.randint(1, 10), rng)
            labels = list(g.labels())
            for _ in range(6):
                h = frozenset(lab for lab in labels if rng.random() < 0.5)
                d = restrict(g, g.labels() - h)
                assert d.labels() == g.labels() - h
                dropped = {x for lab in h for x in (g.edge(lab).half_a, g.edge(lab).half_b)}
                assert d.vertices == tuple(tuple(x for x in rot if x not in dropped)
                                           for rot in g.vertices)

    def test_contract_order_independent(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_planar_map(rng.randint(2, 8), rng)
            labels = sorted(g.labels())
            subset = [lab for lab in labels if rng.random() < 0.5]
            a = g
            for lab in subset:
                a = contract(a, {lab})
            b = g
            for lab in reversed(subset):
                b = contract(b, {lab})
            assert graphs_isomorphic(a, b)
            assert graphs_isomorphic(a, contract(g, subset))


class TestStructure:
    def test_components_edge_free(self):
        g = SignedMap([(), (), ()], [])
        assert components(g) == (3, (0, 1, 2))

    def test_components_cycle(self):
        assert components(cycle_graph(6))[0] == 1

    def test_classify_cycle(self):
        assert classify_edges(cycle_graph(5)) == (frozenset(), frozenset())

    def test_classify_path(self):
        g = cycle_graph(4)
        p = restrict(g, g.labels() - {0})
        bridges, loops = classify_edges(p)
        assert bridges == {1, 2, 3} and not loops

    def test_classify_loop(self):
        bridges, loops = classify_edges(single_loop())
        assert not bridges and loops == {"l"}

    def test_cycle_membership(self):
        # an edge lies on a cycle exactly when it is not a bridge; a loop does
        assert classify_edges(cycle_graph(4))[0] == frozenset()
        assert classify_edges(single_bridge())[0] == {"b"}
        assert classify_edges(single_loop())[0] == frozenset()

    def test_blocks_cycle(self):
        assert len(blocks_of(cycle_graph(5))) == 1

    def test_blocks_two_triangles_joined_by_bridge(self):
        # triangles on {0,1,2} and {3,4,5}, bridge 2-3
        g = SignedMap(
            [(0, 5), (1, 2), (3, 4, 6), (7, 8, 13), (9, 10), (11, 12)],
            [(0, 1, +1, "a"), (2, 3, +1, "b"), (4, 5, +1, "c"),
             (8, 9, +1, "d"), (10, 11, +1, "e"), (12, 13, +1, "f"),
             (6, 7, +1, "g")],
        )
        blks = blocks_of(g)
        assert len(blks) == 3
        sizes = sorted(len(edges) for _, edges in blks)
        assert sizes == [1, 3, 3]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_blocks_double_edge_path(self, n):
        blks = blocks_of(double_edge_path(n))
        assert len(blks) == n
        assert all(len(edges) == 2 and len(verts) == 2 for verts, edges in blks)

    def test_blocks_isolated_vertex(self):
        # the loop is a block of its own, and the isolated vertex is in none
        g = SignedMap([(), (0, 1)], [(0, 1, +1, "l")])
        assert blocks_of(g) == [({1}, [0])]


class TestFacesAndDual:
    def test_faces_triangle(self):
        assert len(faces(triangle())) == 2

    def test_faces_double_edge(self):
        assert len(faces(cycle_graph(2))) == 2

    def test_faces_edge_free_vertex(self):
        g = SignedMap([()], [])
        assert faces(g) == ()
        assert euler_genus_ok(g)

    def test_dual_cycle_is_multiedge(self):
        d = planar_dual(cycle_graph(5))
        assert d.n_vertices == 2 and d.n_edges == 5
        assert all(not d.is_loop(lab) for lab in d.labels())

    def test_dual_bridge_is_loop(self):
        d = planar_dual(single_bridge())
        bridges, loops = classify_edges(d)
        assert not bridges and loops == {"b"}

    def test_dual_requires_connected(self):
        g = SignedMap([(0,), (1,), ()], [(0, 1, +1, "e")])
        with pytest.raises(DisconnectedError):
            planar_dual(g)

    def test_dual_involution_random(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_planar_map(rng.randint(1, 10), rng)
            assert graphs_isomorphic(planar_dual(planar_dual(g)), g, respect_signs=True)

    def test_bridge_loop_swap_random(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_planar_map(rng.randint(1, 10), rng)
            gb, gl = classify_edges(g)
            db, dl = classify_edges(planar_dual(g))
            assert gb == dl and gl == db

    def test_euler_after_surgery(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_planar_map(rng.randint(1, 9), rng)
            assert euler_genus_ok(g)
            labels = list(g.labels())
            h = frozenset(lab for lab in labels if rng.random() < 0.4)
            assert euler_genus_ok(restrict(g, h))
            assert euler_genus_ok(contract(g, h))
            assert euler_genus_ok(planar_dual(g))

    def test_flip_signs(self):
        g = cycle_graph(3, +1)
        f = flip_signs(g)
        assert all(f.sign(lab) == -1 for lab in f.labels())
        assert flip_signs(f) == g


class TestIsomorphism:
    def test_respects_signs(self):
        assert not graphs_isomorphic(cycle_graph(3, +1), cycle_graph(3, -1), respect_signs=True)
        assert graphs_isomorphic(cycle_graph(3, +1), cycle_graph(3, -1), respect_signs=False)

    def test_distinguishes_multiedge_from_cycle(self):
        assert not graphs_isomorphic(cycle_graph(3), planar_dual(cycle_graph(3)))

    def test_loop_vs_parallel(self):
        g1 = SignedMap([(0, 1, 2, 3)], [(0, 1, +1, "a"), (2, 3, +1, "b")])
        g2 = cycle_graph(2)
        assert not graphs_isomorphic(g1, g2)
