import random

import pytest

from taitstates._scan import classes, cyclic_flat_leaves
from taitstates.adequacy import adequate_by_partition
from taitstates.sgraph import (
    DisconnectedError,
    SignedMap,
    components,
    is_connected,
    planar_dual,
    restrict,
)

from helpers import (
    brute_adequate_masks,
    cycle_graph,
    double_edge_path,
    random_bridgeless_map,
    random_planar_map,
)


def sorted_masks(g):
    return sorted(mask for mask, _, _ in cyclic_flat_leaves(g))


def test_cycle_masks():
    assert sorted_masks(cycle_graph(5)) == [0, 31]


def test_long_cycle_needs_no_recursion():
    # 1,200 decisions deep, past the interpreter's default recursion limit
    assert sorted_masks(cycle_graph(1200)) == [0, (1 << 1200) - 1]


def test_disconnected_map_is_refused():
    # a loop at each of two vertices: the walk from vertex 0 misses one edge
    g = SignedMap([(0, 1), (2, 3)], [(0, 1, +1, 0), (2, 3, +1, 1)])
    with pytest.raises(DisconnectedError):
        sorted_masks(g)


def test_double_edge_path_masks():
    masks = sorted_masks(double_edge_path(3))
    # each doubled pair is all-in or all-out
    assert len(masks) == 8
    assert masks == brute_adequate_masks(double_edge_path(3))


def test_search_equals_oracle_planar():
    # grown maps carry loops and bridges: loops are always in, bridges out
    rng = random.Random(1)
    for _ in range(60):
        g = random_planar_map(rng.randint(1, 12), rng)
        assert sorted_masks(g) == brute_adequate_masks(g)


def test_search_equals_oracle_bridgeless():
    rng = random.Random(3)
    for _ in range(40):
        g = random_bridgeless_map(rng.randint(2, 12), rng)
        assert sorted_masks(g) == brute_adequate_masks(g)


def test_dual_flats_are_complements():
    # the dual keeps labels, so a subset of g and its complement in the dual
    # share one bit order; this holds past the sizes the oracle can scan
    rng = random.Random(5)
    for _ in range(30):
        g = random_bridgeless_map(rng.randint(2, 40), rng)
        full = (1 << g.n_edges) - 1
        dual = sorted_masks(planar_dual(g))
        assert dual == sorted(full ^ mask for mask in sorted_masks(g))


def test_masks_pass_partition_test_past_oracle():
    # every mask found on maps too large for the oracle is adequate by the
    # definition: its restriction has no bridge, its contraction no loop
    rng = random.Random(7)
    for m in range(24, 41):
        g = random_bridgeless_map(m, rng)
        labels = [e.label for e in g.edges]
        masks = sorted_masks(g)
        assert masks[0] == 0 and masks[-1] == (1 << m) - 1
        for mask in masks:
            subset = [labels[i] for i in range(m) if mask >> i & 1]
            assert adequate_by_partition(g, subset), (m, mask)


def component_masks(g, keep):
    """The edge masks, over ``g.edges``, of the components of ``g``
    restricted to the labels ``keep`` that hold an edge."""
    bit = {e.label: 1 << i for i, e in enumerate(g.edges)}
    h = restrict(g, keep)
    _, comp = components(h)
    out = {}
    for e in h.edges:
        c = comp[h.vertex_of_half(e.half_a)]
        out[c] = out.get(c, 0) | bit[e.label]
    return set(out.values())


def test_classes_are_components():
    # vertex classes are the components of G|S, face classes those of the
    # dual restricted to the edges outside S; any subset, adequate or not
    rng = random.Random(9)
    tried = 0
    while tried < 30:
        g = random_planar_map(rng.randint(1, 14), rng)
        if not is_connected(g):
            continue
        tried += 1
        labels = [e.label for e in g.edges]
        dual = planar_dual(g)
        for _ in range(10):
            mask = rng.getrandbits(len(labels))
            inside = {lab for i, lab in enumerate(labels) if mask >> i & 1}
            assert classes(g, mask) == (component_masks(g, inside),
                                        component_masks(dual, set(labels) - inside))


def test_leaves_carry_their_classes():
    rng = random.Random(11)
    for _ in range(20):
        g = random_bridgeless_map(rng.randint(2, 16), rng)
        for mask, vertex_classes, face_classes in cyclic_flat_leaves(g):
            assert classes(g, mask) == (vertex_classes, face_classes), mask
