import random

from taitstates._scan import cyclic_flat_masks
from taitstates.sgraph import planar_dual

from helpers import (
    brute_adequate_masks,
    cycle_graph,
    double_edge_path,
    random_bridgeless_map,
    random_planar_map,
)


def test_cycle_masks():
    assert cyclic_flat_masks(cycle_graph(5)) == [0, 31]


def test_double_edge_path_masks():
    masks = cyclic_flat_masks(double_edge_path(3))
    # each doubled pair is all-in or all-out
    assert len(masks) == 8
    assert masks == brute_adequate_masks(double_edge_path(3))


def test_search_equals_oracle_planar():
    # grown maps carry loops and bridges: loops are always in, bridges out
    rng = random.Random(1)
    for _ in range(60):
        g = random_planar_map(rng.randint(1, 12), rng)
        assert cyclic_flat_masks(g) == brute_adequate_masks(g)


def test_search_equals_oracle_bridgeless():
    rng = random.Random(3)
    for _ in range(40):
        g = random_bridgeless_map(rng.randint(2, 12), rng)
        assert cyclic_flat_masks(g) == brute_adequate_masks(g)


def test_dual_flats_are_complements():
    # the dual keeps labels, so a subset of g and its complement in the dual
    # share one bit order; this holds past the sizes the oracle can scan
    rng = random.Random(5)
    for _ in range(30):
        g = random_bridgeless_map(rng.randint(2, 20), rng)
        full = (1 << g.n_edges) - 1
        dual = cyclic_flat_masks(planar_dual(g))
        assert dual == sorted(full ^ mask for mask in cyclic_flat_masks(g))
