import random
from collections import deque
from itertools import combinations

import pytest

from srdual import (
    UNBOUNDED,
    build,
    build_dual_graph,
    diameter,
    distance_pair,
    eccentricity,
    from_facets,
    from_masks,
    mask_of,
)
from srdual import dual_graph
from srdual.dual_graph import bfs
from srdual.errors import (
    DimensionTooSmall,
    EmptyGraph,
    NotPure,
    UnknownNode,
)
from srdual.families import TABLE1, FamilyId, expected_diameter

from conftest import corpus, induced_on_superfacets, random_pure_complex, track


def _graph(name):
    cx = build(FamilyId(name), check=False)
    return cx, build_dual_graph(cx)


def test_golden_edge_counts():
    for name, nodes, edges in [("fig_a1", 4, 3), ("fig_a2", 10, 12),
                               ("fig_a4", 11, 13), ("dim4", 18, 28)]:
        cx, g = _graph(name)
        assert (g.node_count, g.edge_count) == (nodes, edges), name


def test_disjoint_facets_yield_empty_edge_set():
    cx = from_facets([[0, 1, 2], [3, 4, 5]])
    g = build_dual_graph(cx)
    assert g.node_count == 2 and g.edge_count == 0
    assert diameter(g) is UNBOUNDED
    assert distance_pair(g, *g.node_facets) == (UNBOUNDED, None)


def test_build_requires_pure_and_dimension():
    with pytest.raises(NotPure):
        build_dual_graph(from_facets([[0, 1, 2], [3, 4]]))
    with pytest.raises(DimensionTooSmall):
        build_dual_graph(from_facets([[0], [1]]))


def test_adjacency_is_definitional():
    cx, g = _graph("fig_a5")
    for i in range(g.node_count):
        for j in range(g.node_count):
            expect = (i != j and
                      (g.node_facets[i] & g.node_facets[j]).bit_count() == g.d - 1)
            assert bool(g.adjacency[i] >> j & 1) == expect
        assert not g.adjacency[i] >> i & 1  # no self-loops


def test_diameters():
    assert diameter(_graph("fig_a1")[1]) == 3
    assert diameter(_graph("dim4")[1]) == 6
    single = build_dual_graph(from_facets([[0, 1, 2]]))
    assert diameter(single) == 0


def test_dim4_diameter_realized_by_known_pair():
    cx, g = _graph("dim4")
    abcd = mask_of([0, 1, 2, 3])
    efgh = mask_of([4, 5, 6, 7])
    assert distance_pair(g, abcd, efgh)[0] == 6


def test_empty_graph_rejected():
    g = build_dual_graph(from_facets([[0, 1]]))
    empty = induced_on_superfacets(g, mask_of([0, 1, 5]))
    with pytest.raises(EmptyGraph):
        diameter(empty)


def test_distance_pair_examples():
    cx, g = _graph("fig_a2")
    abc = mask_of([0, 1, 2])
    ghj = mask_of([3, 4, 5])  # DEF
    assert distance_pair(g, abc, ghj)[0] == 5
    assert distance_pair(g, abc, abc) == (0, [abc])

    cx5, g5 = _graph("fig_a5")
    assert distance_pair(g5, mask_of([0, 1, 2]), mask_of([7, 8, 9]))[0] == 9


def test_distance_pair_unknown_node():
    cx, g = _graph("fig_a1")
    with pytest.raises(UnknownNode):
        distance_pair(g, mask_of([0, 2]), mask_of([0, 1]))


def test_path_is_deterministic_and_valid():
    cx, g = _graph("fig_a2")
    a, b = mask_of([0, 1, 2]), mask_of([3, 4, 5])
    dist, path = distance_pair(g, a, b)
    assert dist == 5 and len(path) == 6
    assert path[0] == a and path[-1] == b
    for u, v in zip(path, path[1:]):
        assert (u & v).bit_count() == g.d - 1
    assert distance_pair(g, a, b)[1] == path  # stable


def test_induced_on_superfacets_fig5():
    cx, g = _graph("fig_a2")
    red = induced_on_superfacets(g, mask_of([4]))  # vertices containing E
    labels = {red.node_label(i) for i in range(red.node_count)}
    assert labels == {"AEG", "CEG", "BCE", "AEF", "DEF"}
    assert diameter(red) is not UNBOUNDED


def test_induced_trivial_and_pair_cases():
    cx, g = _graph("fig_a2")
    assert induced_on_superfacets(g, 0).node_facets == g.node_facets
    sub = induced_on_superfacets(g, mask_of([0, 1]))
    labels = {sub.node_label(i) for i in range(sub.node_count)}
    assert labels == {"ABD", "ABC"} and sub.edge_count == 1


def test_induced_monotone():
    cx, g = _graph("fig_a4")
    s, t = mask_of([4]), mask_of([3, 4])
    small = set(induced_on_superfacets(g, t).node_facets)
    large = set(induced_on_superfacets(g, s).node_facets)
    assert small <= large


def test_bfs_levels_depth_and_allowed_mask():
    adj = [0b0010, 0b0101, 0b1010, 0b0100]  # the path 0 - 1 - 2 - 3
    assert bfs(adj, 0b0001, 0b1111) == (0b1111, [0b0001, 0b0010, 0b0100, 0b1000])
    # node 2 is not allowed, so the walk stops at 1
    assert bfs(adj, 0b0001, 0b1011) == (0b0011, [0b0001, 0b0010])
    # a start mask of several nodes searches from all of them at once
    assert bfs(adj, 0b1001, 0b1111) == (0b1111, [0b1001, 0b0110])


def test_unbounded_is_not_an_integer():
    assert not isinstance(UNBOUNDED, int)
    assert repr(UNBOUNDED)


def test_eccentricity_matches_diameter():
    cx, g = _graph("fig_a4_ehi")
    assert max(eccentricity(g, i) for i in range(g.node_count)) == 7
    track(cx, 7)


@pytest.mark.parametrize("start", [4, -1, 1.0, True, "0", None])
def test_eccentricity_rejects_a_start_that_is_not_a_node(start):
    cx, g = _graph("fig_a1")  # 4 nodes
    with pytest.raises(UnknownNode):
        eccentricity(g, start)


def test_complement_labels():
    cx, g = _graph("fig_a2")
    i = g.node_index(mask_of([0, 1, 2]))
    assert g.node_label(i) == "ABC"
    assert g.node_label(i, complement=True) == "DEFG"


def _edges(g):
    """The edge set, as pairs of facet masks."""
    return {frozenset((g.node_facets[i], g.node_facets[j]))
            for i in range(g.node_count) for j in range(i + 1, g.node_count)
            if g.adjacency[i] >> j & 1}


def test_complementing_every_facet_keeps_the_dual_graph():
    # |F^c ∩ G^c| = n - 2d + |F ∩ G|, so F, G share d-1 vertices exactly
    # when F^c, G^c share (n-d)-1
    rng = random.Random(67)
    checked = 0
    while checked < 300:
        n = rng.randint(5, 8)
        d = rng.randint(2, n - 2)
        full = (1 << n) - 1
        pool = [mask_of(c) for c in combinations(range(n), d)]
        masks = rng.sample(pool, rng.randint(2, min(len(pool), 3 * n)))
        covered, common = 0, full
        for f in masks:
            covered |= f
            common &= f
        if covered != full or common:  # a vertex unused on either side
            continue
        cx = from_masks(masks, n)
        co = from_masks([full ^ f for f in masks], n)
        g, h = build_dual_graph(cx), build_dual_graph(co)
        assert {frozenset(full ^ f for f in e) for e in _edges(g)} == _edges(h)
        assert diameter(g) == diameter(h)
        checked += 1


def _reference_paths(g, a):
    """{b: (dist, path)} for every node b: a per-node distance table from
    a queue BFS, each path walked back through the lowest-index neighbor
    one step closer to a."""
    ia = g.node_index(a)
    dist_to = {ia: 0}
    queue = deque([ia])
    while queue:
        i = queue.popleft()
        for j in _bits(g.adjacency[i]):
            if j not in dist_to:
                dist_to[j] = dist_to[i] + 1
                queue.append(j)
    step_back = {j: next(k for k in _bits(g.adjacency[j])
                         if dist_to.get(k) == dist - 1)
                 for j, dist in dist_to.items() if dist}
    paths = {}
    for ib, b in enumerate(g.node_facets):
        if ib not in dist_to:
            paths[b] = UNBOUNDED, None
            continue
        path = [ib]
        while path[-1] != ia:
            path.append(step_back[path[-1]])
        path.reverse()
        paths[b] = dist_to[ib], [g.node_facets[i] for i in path]
    return paths


def _bits(mask):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _table_diameter(dists):
    """The diameter a full distance table states."""
    return UNBOUNDED if any(d is UNBOUNDED for d in dists) else max(dists)


def _counted_sweeps(g, monkeypatch):
    """(diameter, number of bfs sweeps it ran)."""
    calls = []

    def counting_bfs(*args):
        calls.append(args)
        return bfs(*args)

    with monkeypatch.context() as patched:
        patched.setattr(dual_graph, "bfs", counting_bfs)
        return diameter(g), len(calls)


def test_paths_match_the_distance_table_walk(monkeypatch):
    rng = random.Random(71)
    complexes = [cx for _, cx, _ in corpus()]
    complexes += [random_pure_complex(rng, max_n=9) for _ in range(200)]
    unbounded = 0
    for cx in complexes:
        g = build_dual_graph(cx)
        table = []
        for a in g.node_facets:
            expected = _reference_paths(g, a)
            for b in g.node_facets:
                got = distance_pair(g, a, b)
                assert got == expected[b], (cx, a, b)
                unbounded += got[0] is UNBOUNDED
                table.append(got[0])
        diam, sweeps = _counted_sweeps(g, monkeypatch)
        assert diam == _table_diameter(table), cx
        assert 1 <= sweeps <= g.node_count
    assert unbounded  # the random complexes include disconnected ones


def _cycle(n):
    return from_facets([[i, (i + 1) % n] for i in range(n)])


#: (name, complex, stated diameter or None, vertex-transitive dual graph)
DIAMETER_CASES = (
    [("single node", from_facets([[0, 1, 2]]), 0, True),
     ("two nodes", from_facets([[0, 1, 2], [0, 1, 3]]), 1, True)]
    + [("path P%d" % n, from_facets([[i, i + 1] for i in range(n)]), n - 1,
        False) for n in range(2, 13)]
    + [("cycle C%d" % n, _cycle(n), n // 2, True) for n in range(5, 13)]
    + [("all %d-sets of %d" % (d, n), from_facets(combinations(range(n), d)),
        None, True) for n, d in ((5, 2), (6, 3), (7, 3), (8, 2), (9, 4))]
    + [(str(fam), build(fam, check=False), expected_diameter(fam), False)
       for fam in [FamilyId(name, k=k, j=j)
                   for name, js in (("glued_d4", (0, 1)), ("glued_d3", (0, 1)),
                                    ("glued_d3_g0", (4, 5)))
                   for k in range(1, 7) for j in js]]
    + [(str(fam), build(fam, check=False), expected_diameter(fam), False)
       for fam in [FamilyId("table1_witness", d=d, n=n) for d, n in TABLE1]]
)


@pytest.mark.parametrize("name, cx, stated, transitive", DIAMETER_CASES,
                         ids=[case[0] for case in DIAMETER_CASES])
def test_diameter_matches_the_distance_table(name, cx, stated, transitive,
                                             monkeypatch):
    g = build_dual_graph(cx)
    table = [d for a in g.node_facets for d, _ in _reference_paths(g, a).values()]
    diam, sweeps = _counted_sweeps(g, monkeypatch)
    assert diam == _table_diameter(table)
    if stated is not None:
        assert diam == stated
    assert 1 <= sweeps <= g.node_count
    if transitive:  # every eccentricity is the diameter: nothing is bounded
        assert sweeps == g.node_count


def test_diameter_prunes_sweeps_on_a_long_glued_chain(monkeypatch):
    cx = build(FamilyId("glued_d4", k=6, j=1), check=False)
    g = build_dual_graph(cx)
    assert g.node_count == 104
    diam, sweeps = _counted_sweeps(g, monkeypatch)
    assert diam == 37 and sweeps <= 6


def test_diameter_of_a_disconnected_graph_takes_one_sweep(monkeypatch):
    g = build_dual_graph(from_facets([[0, 1, 2], [0, 1, 3], [4, 5, 6]]))
    assert _counted_sweeps(g, monkeypatch) == (UNBOUNDED, 1)
