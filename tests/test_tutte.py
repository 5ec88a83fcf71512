import functools
import random

import pytest

from taitstates.bipoly import BiPoly
from taitstates.sgraph import SignedMap, euler_genus_ok, is_connected, planar_dual
from taitstates.tutte import (
    FULL,
    X_ZERO,
    CapExceededError,
    TutteEngine,
    tutte,
)

from helpers import (
    brute_spanning_tree_count,
    cycle_graph,
    double_edge_path,
    dual_symmetry_check,
    fat_cycle,
    kook_sum,
    nonnegative,
    random_bridgeless_map,
    random_planar_map,
    swap_vars,
    t_poly,
    theta_graph,
    tutte_oracle,
)


def cycle_poly(n):
    terms = {(i, 0): 1 for i in range(1, n)}
    terms[(0, 1)] = 1
    return BiPoly(terms)


def on_dual(g):
    """The index graph of the planar dual of ``g`` where ``g`` is connected,
    spherical and has an edge, else None.  On the sphere T(G; t, 0) is
    T(G*; 0, t), which is how the adequacy layer reads T(G/S; t, 0)."""
    if g.n_edges and is_connected(g) and euler_genus_ok(g):
        d = planar_dual(g)
        return (d.n_vertices, d.ends)
    return None


def random_multigraph(rng, max_v=5, max_e=10):
    """Arbitrary multigraph with loops, as a map with arbitrary rotations."""
    nv = rng.randint(1, max_v)
    ne = rng.randint(0, max_e)
    rots = [[] for _ in range(nv)]
    edges = []
    for i in range(ne):
        u, v = rng.randrange(nv), rng.randrange(nv)
        rots[u].append(2 * i)
        rots[v].append(2 * i + 1)
        edges.append((2 * i, 2 * i + 1, +1, i))
    for r in rots:
        rng.shuffle(r)
    return SignedMap([tuple(r) for r in rots], edges)


class TestEngine:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_cycle_formula(self, n):
        assert tutte(cycle_graph(n)) == cycle_poly(n)

    def test_edgeless(self):
        g = SignedMap([(), (), ()], [])
        assert tutte(g) == BiPoly.one()

    def test_bridge_and_loop_factors(self):
        g = SignedMap([(0,), (1, 2, 3)], [(0, 1, +1, "b"), (2, 3, +1, "l")])
        assert tutte(g) == BiPoly({(1, 1): 1})

    def test_block_multiplicativity(self):
        # two triangles sharing one vertex: product of the blocks
        g = SignedMap(
            [(0, 5, 6, 11), (1, 2), (3, 4), (7, 8), (9, 10)],
            [(0, 1, +1, 0), (2, 3, +1, 1), (4, 5, +1, 2),
             (6, 7, +1, 3), (8, 9, +1, 4), (10, 11, +1, 5)],
        )
        assert tutte(g) == cycle_poly(3) * cycle_poly(3)

    def test_signs_ignored(self):
        assert tutte(cycle_graph(4, +1)) == tutte(cycle_graph(4, -1))

    def test_oracle_agreement_200(self):
        rng = random.Random(101)
        for trial in range(200):
            g = random_multigraph(rng)
            eng = TutteEngine()
            assert eng.tutte(g) == tutte_oracle(g), trial

    def test_oracle_agreement_200_shared_engine(self):
        # block keys from different host graphs meet in one memo
        rng = random.Random(101)
        eng = TutteEngine()
        for trial in range(200):
            g = random_multigraph(rng)
            assert eng.tutte(g) == tutte_oracle(g), trial

    def test_nonnegative_coefficients(self):
        rng = random.Random(7)
        for trial in range(60):
            g = random_multigraph(rng)
            assert nonnegative(tutte(g)) or tutte(g).is_zero(), trial

    def test_oracle_cap(self):
        with pytest.raises(CapExceededError):
            tutte_oracle(cycle_graph(15))

    def test_shared_engine_caching(self):
        eng = TutteEngine()
        a = eng.tutte(cycle_graph(6))
        assert eng.cache  # memo populated
        assert eng.tutte(cycle_graph(6)) == a


def _small_graphs():
    rng = random.Random(59)
    for _ in range(60):
        yield random_multigraph(rng, max_v=6, max_e=12)
    for _ in range(60):
        yield random_planar_map(rng.randint(1, 12), rng)


class TestSpecializations:
    """The x=0 and y=0 recursions against the subset-expansion oracle, on
    graphs with loops and bridges so that the zero branches run."""

    @pytest.mark.parametrize("shared", [False, True])
    def test_against_oracle(self, shared):
        eng = TutteEngine()
        for trial, g in enumerate(_small_graphs()):
            if not shared:
                eng = TutteEngine()
            chi = tutte_oracle(g)
            mg = (g.n_vertices, g.ends)
            assert eng.evaluate(mg, X_ZERO) == chi.specialize("x_to_zero"), trial
            if dual := on_dual(g):
                assert eng.evaluate(dual, X_ZERO) == chi.specialize("y_to_zero"), trial
            assert eng.evaluate(mg, FULL).specialize("x_equals_y") == \
                chi.specialize("x_equals_y"), trial

    def test_zero_blocks(self):
        eng = TutteEngine()
        bridge_and_loop = SignedMap([(0,), (1, 2, 3)], [(0, 1, +1, "b"), (2, 3, +1, "l")])
        c4 = cycle_graph(4)
        assert eng.evaluate((bridge_and_loop.n_vertices, bridge_and_loop.ends), X_ZERO).is_zero()
        assert eng.evaluate(on_dual(bridge_and_loop), X_ZERO).is_zero()
        assert eng.evaluate((c4.n_vertices, c4.ends), X_ZERO) == t_poly([0, 1])
        assert eng.evaluate(on_dual(c4), X_ZERO) == t_poly([0, 1, 1, 1])


def inflated_multigraph(rng, max_e=14):
    """A random multigraph whose edges are replaced by parallel classes and
    series paths of up to four edges, so that its blocks hold whole classes."""
    nv = rng.randint(2, 4)
    ends = []
    for _ in range(rng.randint(1, 5)):
        u, v = rng.randrange(nv), rng.randrange(nv)
        k = rng.randint(1, 4)
        if len(ends) + k > max_e:
            break
        if rng.random() < 0.5:
            ends.extend([(u, v)] * k)
        else:
            for step in range(k):
                if step == k - 1:
                    w = v
                else:
                    w = nv
                    nv += 1
                ends.append((u, w))
                u = w
    rots = [[] for _ in range(nv)]
    edges = []
    for i, (u, v) in enumerate(ends):
        rots[u].append(2 * i)
        rots[v].append(2 * i + 1)
        edges.append((2 * i, 2 * i + 1, +1, i))
    return SignedMap([tuple(r) for r in rots], edges)


@functools.cache
def _class_cases():
    """(graph, oracle polynomial) for theta graphs, subdivided bonds, fat
    cycles, single cycles and bonds, and random multigraphs built from whole
    classes: at most 14 edges."""
    return [(g, tutte_oracle(g)) for g in _class_graphs()]


def _class_graphs():
    for lengths in ([2, 2], [3, 3], [2, 2, 2], [3, 3, 3], [4, 4, 4], [2, 3, 4],
                    [1, 2], [1, 2, 3, 4], [1, 1, 5], [1, 1, 1, 2, 2], [2, 5, 5],
                    [1, 6, 6], [1, 4], [1, 13], [1] * 6, [1] * 14, [3] * 4):
        yield theta_graph(lengths)
    for mults in ([2, 2, 2], [3, 3, 3, 3], [1, 2, 3], [4, 1, 4], [2] * 7,
                  [1, 1, 1, 5], [1, 1, 2, 2, 1, 1], [5, 5], [6, 1], [1] * 9, [4]):
        yield fat_cycle(mults)
    rng = random.Random(71)
    for _ in range(80):
        yield inflated_multigraph(rng)


class TestClassSplits:
    """Splits on whole parallel classes and series paths, and the cycle and
    bond closed forms, against the subset-expansion oracle in all modes."""

    @pytest.mark.parametrize("shared", [False, True])
    def test_against_oracle(self, shared):
        eng = TutteEngine()
        for trial, (g, chi) in enumerate(_class_cases()):
            if not shared:
                eng = TutteEngine()
            mg = (g.n_vertices, g.ends)
            assert eng.evaluate(mg, FULL) == chi, trial
            assert eng.evaluate(mg, X_ZERO) == chi.specialize("x_to_zero"), trial
            if dual := on_dual(g):
                assert eng.evaluate(dual, X_ZERO) == chi.specialize("y_to_zero"), trial

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bond_formula(self, n):
        assert tutte(theta_graph([1] * n)) == swap_vars(cycle_poly(n))

    @pytest.mark.parametrize("g, classes", [
        (theta_graph([3] * 8), 8), (fat_cycle([3] * 8), 8),
        (theta_graph([2] * 6), 6), (fat_cycle([4] * 5), 5),
    ])
    def test_one_memo_entry_per_class(self, g, classes):
        # the split on one of c classes leaves c - 1 of them, down to a
        # cycle or a bond, so at most one block per class is memoized
        eng = TutteEngine()
        eng.tutte(g)
        assert len(eng.cache) <= classes


def _maps_past_the_cap():
    rng = random.Random(83)
    for m in range(20, 41):
        yield random_bridgeless_map(m, rng)
    for m in range(20, 41, 4):
        yield random_bridgeless_map(m, rng, n_vertices=m // 2 + 1)


class TestPastOracleCap:
    """Maps of 20 to 40 edges, beyond ``tutte_oracle``: planar duality turns
    parallel classes into series paths, so each half of the split checks the
    other, and the one-variable modes must agree with the full polynomial."""

    def test_dual_symmetry(self):
        eng = TutteEngine()
        for trial, g in enumerate(_maps_past_the_cap()):
            assert dual_symmetry_check(g, eng), trial

    def test_modes_agree(self):
        eng = TutteEngine()
        for trial, g in enumerate(_maps_past_the_cap()):
            mg = (g.n_vertices, g.ends)
            chi = eng.evaluate(mg, FULL)
            assert eng.evaluate(mg, X_ZERO) == chi.specialize("x_to_zero"), trial
            if dual := on_dual(g):
                assert eng.evaluate(dual, X_ZERO) == chi.specialize("y_to_zero"), trial


class TestSpanningTrees:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_cycle_count(self, n):
        assert tutte(cycle_graph(n)).eval(1, 1) == n

    def test_tree_has_one(self):
        g = SignedMap([(0,), (1, 2), (3,)], [(0, 1, +1, "a"), (2, 3, +1, "b")])
        assert tutte(g).eval(1, 1) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hopf_path_count(self, n):
        assert tutte(double_edge_path(n)).eval(1, 1) == 2**n

    def test_matches_brute_force(self):
        rng = random.Random(23)
        for trial in range(60):
            g = random_planar_map(rng.randint(1, 10), rng)
            assert tutte(g).eval(1, 1) == brute_spanning_tree_count(g), trial


class TestKookSum:
    def test_double_edge(self):
        assert kook_sum(cycle_graph(2)) == t_poly([0, 2])

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cycle(self, n):
        expect = tutte(cycle_graph(n)).specialize("x_equals_y")
        assert kook_sum(cycle_graph(n)) == expect

    def test_edgeless(self):
        g = SignedMap([()], [])
        assert kook_sum(g) == BiPoly.one()

    def test_random_agreement(self):
        rng = random.Random(31)
        eng = TutteEngine()
        for trial in range(25):
            g = random_planar_map(rng.randint(1, 9), rng)
            assert kook_sum(g, eng) == eng.tutte(g).specialize("x_equals_y"), trial

    def test_cap(self):
        with pytest.raises(CapExceededError):
            kook_sum(cycle_graph(15))


class TestDualSymmetry:
    def test_cycle_vs_multiedge(self):
        assert tutte(planar_dual(cycle_graph(3))) == swap_vars(cycle_poly(3))

    def test_double_edge_self_dual(self):
        assert dual_symmetry_check(cycle_graph(2))

    def test_random_corpus(self):
        rng = random.Random(47)
        eng = TutteEngine()
        for trial in range(40):
            g = random_planar_map(rng.randint(1, 10), rng)
            assert dual_symmetry_check(g, eng), trial
