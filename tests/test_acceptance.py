"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All equality checks are exact (integer/polynomial identity); the
stated wall-clock budgets are asserted where the criteria carry one.
"""

import json
import os
import random
import time

from taitstates.adequacy import (
    adequacy_polynomial,
    adequate_by_partition,
    enumerate_adequate,
)
from taitstates.bipoly import BiPoly
from taitstates.diagram import (
    LinkDiagram,
    checkerboard,
    load_diagram_json,
    mirror,
    tait,
)
from taitstates.sgraph import (
    classify_edges,
    components,
    flip_signs,
    is_connected,
    planar_dual,
    restrict,
)
from taitstates.tutte import TutteEngine, tutte

from helpers import (
    adequacy_oracle,
    all_states,
    brute_spanning_tree_count,
    classify,
    crossing_change,
    cycle_graph,
    dual_symmetry_check,
    graphs_isomorphic,
    hopf_sum_diagram,
    kook_sum,
    nonnegative,
    random_diagram,
    random_planar_map,
    segment_self_touch,
    state_circles,
    t_poly,
    torus2n_diagram,
    tutte_oracle,
    uniform_state,
)

HERE = os.path.dirname(__file__)
FIXTURE = os.path.join(HERE, "data", "11n95.json")

# the 19 published adequacy polynomials of the bundled 11-crossing knot's
# standard diagram, plus the one further state found by the search
KNOT_11N95_POLYS = sorted([
    (0, 3, 9, 11, 8, 4, 1),
    (0, 0, 3, 8, 8, 4, 1),
    (0, 0, 1, 3, 2, 1),
    (0, 0, 1, 2, 2, 1),
    (0, 0, 1, 2, 1),
    (0, 0, 1, 2, 1),
    (0, 0, 0, 1, 2, 1),
    (0, 0, 0, 1, 2, 1),
    (0, 0, 0, 1, 1),
    (0, 0, 1, 2, 1),
    (0, 0, 1, 3, 3, 1),
    (0, 0, 1, 2, 1),
    (0, 0, 1, 2, 1),
    (0, 0, 1, 2, 1),
    (0, 0, 0, 1, 2, 1),
    (0, 0, 0, 1, 1),
    (0, 0, 1, 2, 1),
    (0, 0, 2, 5, 4, 1),
    (0, 3, 9, 10, 5, 1),
    (0, 0, 0, 1, 1),
])
KNOT_11N95_DIAGONAL = [0, 6, 33, 62, 48, 16, 2]


def t_poly_ones(top):
    """t + t^2 + ... + t^top"""
    return t_poly([0] + [1] * top)


class TestCriterion1Knot11n95:
    def test_reproduction(self):
        with open(FIXTURE) as fh:
            d = load_diagram_json(json.loads(fh.read()))
        t0 = time.perf_counter()
        report = enumerate_adequate(tait(d)[0], with_homogeneous=True)
        elapsed = time.perf_counter() - t0

        diag = report.diagonal
        assert diag == t_poly(KNOT_11N95_DIAGONAL), diag.render_t()
        assert report.count == 20
        got = sorted(tuple(rec.poly.t_coeffs()) for rec in report.states)
        assert got == KNOT_11N95_POLYS
        assert sum(1 for rec in report.states if rec.homogeneous) == 0
        assert report.verified
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        print(f"\n[criterion 1] PASS: 11n95 diagram: diagonal exact, 20 adequate states, "
              f"published polynomial multiset, 0 homogeneous ({elapsed:.2f}s)")


class TestCriterion2TorusLinks:
    def test_two_states_each(self):
        diagrams = {n: torus2n_diagram(n) for n in range(2, 11)}
        t0 = time.perf_counter()
        for n, d in diagrams.items():
            g, _ = tait(d)
            report = enumerate_adequate(g)
            assert report.count == 2, n
            polys = sorted(rec.poly.t_coeffs() for rec in report.states)
            assert polys == sorted([[0, 1], [0] + [1] * (n - 1)]), n
            assert report.state_sum == t_poly([0, 2] + [1] * (n - 2)), n
            assert report.verified
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        print(f"\n[criterion 2] PASS: T(2,n) n=2..10 each has exactly 2 adequate states "
              f"with the stated polynomials ({elapsed:.2f}s)")


class TestCriterion3HopfSums:
    def test_upper_bound_attained(self):
        diagrams = {n: hopf_sum_diagram(n) for n in range(1, 9)}
        t0 = time.perf_counter()
        for n, d in diagrams.items():
            g, _ = tait(d)
            report = enumerate_adequate(g)
            assert report.count == 2**n, n
            assert report.diagonal == t_poly([0] * n + [2 ** n]), n
            assert report.tree_count == 2**n, n
            assert report.verified
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        print(f"\n[criterion 3] PASS: Hopf sums n=1..8 attain the spanning-tree bound "
              f"2^n exactly ({elapsed:.2f}s)")


class TestCriterion4OracleEquivalence:
    def test_all_states_all_oracles(self):
        rng = random.Random(20240)
        diagrams = [random_diagram(rng.randint(2, 8), rng) for _ in range(20)]
        n_states = 0
        eng = TutteEngine()
        for d in diagrams:
            g, corr = tait(d)
            for s in all_states(d):
                part = classify(d, g, corr, s)
                es = part.selected
                by_segments = not segment_self_touch(d, s)
                by_partition = adequate_by_partition(g, es)
                by_poly = not adequacy_polynomial(g, es, eng).is_zero()
                assert by_segments == by_partition == by_poly

                cnt, _ = state_circles(d, s)
                sub = restrict(g, es)
                k, _assign = components(sub)
                assert cnt == sub.n_edges - sub.n_vertices + 2 * k

                by_crossing_change = all(
                    state_circles(crossing_change(d, ci), s)[0] < cnt
                    for ci in range(d.n_crossings)
                )
                assert by_crossing_change == by_segments
                n_states += 1
        print(f"\n[criterion 4] PASS: 3-way adequacy equivalence, crossing-change "
              f"criterion, and circle-count formula over {n_states} states of "
              f"{len(diagrams)} random diagrams, zero discrepancies")


class TestCriterion5StateSum:
    def test_state_sum_and_subset_convolution(self):
        rng = random.Random(555)
        maps = []
        while len(maps) < 50:
            g = random_planar_map(rng.randint(1, 12), rng)
            if is_connected(g) and g.n_edges >= 1:
                maps.append(g)
        for i, g in enumerate(maps):
            eng = TutteEngine()
            report = enumerate_adequate(g, eng)  # raises on sum mismatch
            assert report.state_sum == eng.tutte(g).specialize("x_equals_y"), i
            assert kook_sum(g, eng) == report.diagonal, i
        print("\n[criterion 5] PASS: state-sum identity and subset-convolution "
              f"identity exact on {len(maps)} random connected maps (<= 12 edges)")


class TestCriterion6TutteValidation:
    def test_engine_against_oracles(self):
        rng = random.Random(666)
        corpus = []
        while len(corpus) < 200:
            nv = rng.randint(1, 5)
            ne = rng.randint(0, 10)
            rots = [[] for _ in range(nv)]
            edges = []
            for i in range(ne):
                u, v = rng.randrange(nv), rng.randrange(nv)
                rots[u].append(2 * i)
                rots[v].append(2 * i + 1)
                edges.append((2 * i, 2 * i + 1, +1, i))
            for r in rots:
                rng.shuffle(r)
            from taitstates.sgraph import SignedMap

            corpus.append(SignedMap([tuple(r) for r in rots], edges))
        for i, g in enumerate(corpus):
            assert tutte(g) == tutte_oracle(g), i

        for n in range(2, 13):
            expect = BiPoly({(i, 0): 1 for i in range(1, n)} | {(0, 1): 1})
            assert tutte(cycle_graph(n)) == expect, n

        rng = random.Random(667)
        planar_corpus = [random_planar_map(rng.randint(1, 10), rng) for _ in range(60)]
        eng = TutteEngine()
        for i, g in enumerate(planar_corpus):
            assert dual_symmetry_check(g, eng), i
            assert tutte(g, eng).eval(1, 1) == brute_spanning_tree_count(g), i
        print("\n[criterion 6] PASS: engine == subset-expansion oracle on 200 random "
              "multigraphs; cycle formula n=2..12; dual symmetry and spanning-tree "
              "counts on 60 planar maps")


class TestCriterion7Bounds:
    def test_bounds_and_structure(self):
        rng = random.Random(777)
        inputs = []
        for _ in range(15):
            d = random_diagram(rng.randint(2, 8), rng, reduced_only=True)
            inputs.append(tait(d)[0])
        inputs += [tait(torus2n_diagram(n))[0] for n in range(2, 8)]
        inputs += [tait(hopf_sum_diagram(n))[0] for n in range(1, 6)]
        for i, g in enumerate(inputs):
            bridges, loops = classify_edges(g)
            assert not bridges and not loops, i
            report = enumerate_adequate(g)
            assert 2 <= report.count <= report.tree_count, i
            subsets = {rec.edge_subset for rec in report.states}
            assert frozenset() in subsets and g.labels() in subsets, i
            assert all(nonnegative(rec.poly) for rec in report.states), i
        print(f"\n[criterion 7] PASS: 2 <= count <= spanning trees, checkerboard "
              f"partitions present, nonnegative coefficients on {len(inputs)} "
              "reduced connected inputs")


class TestCriterion8Symmetry:
    def test_mirror_recolor_alternating(self):
        rng = random.Random(888)
        diagrams = [random_diagram(rng.randint(2, 7), rng) for _ in range(10)]
        for d in diagrams:
            g, _ = tait(d)
            gm, _ = tait(mirror(d))
            assert all(gm.edge(lab).sign == -g.edge(lab).sign for lab in g.labels())
            n = d.n_crossings
            for res, res_m in (("A", "B"), ("B", "A")):
                assert adequacy_oracle(d, uniform_state(range(n), res)) == adequacy_oracle(
                    mirror(d), uniform_state(range(n), res_m)
                )

        for d in diagrams:
            g_can, _ = tait(d)
            d_sw = checkerboard(LinkDiagram(d.crossings, d.outer_arc), "swapped")
            g_sw, _ = tait(d_sw)
            assert graphs_isomorphic(g_sw, flip_signs(planar_dual(g_can)),
                                     respect_signs=True)
            eng = TutteEngine()
            assert eng.tutte(g_sw).specialize("x_equals_y") == eng.tutte(
                g_can
            ).specialize("x_equals_y")
            a = enumerate_adequate(g_can)
            b = enumerate_adequate(g_sw)
            assert a.count == b.count

        for n in range(2, 7):
            d = torus2n_diagram(n)
            report = enumerate_adequate(tait(d)[0], with_homogeneous=True)
            assert all(rec.homogeneous for rec in report.states), n
        d8 = checkerboard(parse_fig8())
        report = enumerate_adequate(tait(d8)[0], with_homogeneous=True)
        assert all(rec.homogeneous for rec in report.states)
        print("\n[criterion 8] PASS: mirroring flips signs and swaps A/B adequacy; "
              "recoloring dualizes and preserves the diagonal and the count; "
              "alternating diagrams report every adequate state homogeneous")


def parse_fig8():
    from taitstates.diagram import parse_pd

    return parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")
