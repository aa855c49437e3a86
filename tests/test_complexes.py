import pickle
import random
from dataclasses import replace
from itertools import combinations, count

import pytest
from hypothesis import given, strategies as st

from srdual import (
    SimplicialComplex,
    alexander_dual_ideal,
    build,
    build_dual_graph,
    cone,
    diameter,
    from_facets,
    from_masks,
    is_s2,
    mask_of,
    parse_facet_file,
    serialize_facet_file,
    vertices_of,
)
from srdual.complexes import MAX_UNIVERSE, _grow, antichain
from srdual.errors import (
    BadParams,
    EmptyInput,
    IsolatedVertex,
    NotPure,
    VertexOutOfRange,
)
from srdual.families import FamilyId, from_letters

from conftest import complex_of_ideal, corpus, link, relabel, track


def test_from_facets_path():
    cx = from_letters("AB BC CD DE")
    assert cx.n == 5 and cx.d == 2 and len(cx.facets) == 4
    assert cx.is_pure


def test_from_facets_antichain_reduction():
    cx = from_facets([[0, 1, 2], [0, 1]])
    assert cx.facets == (0b111,)


def test_from_facets_dim4():
    cx = build(FamilyId("dim4"), check=False)
    assert cx.n == 8 and cx.d == 4 and len(cx.facets) == 18


def test_from_facets_errors():
    with pytest.raises(EmptyInput):
        from_facets([])
    with pytest.raises(EmptyInput):
        from_facets([[0, 1], []])
    with pytest.raises(IsolatedVertex):
        from_facets([[0, 1]], universe_size=3)
    with pytest.raises(VertexOutOfRange):
        from_facets([[0, 5]], universe_size=3)
    # vertex indices follow the one integer rule, and none is negative
    for bad, error in (([0, "a"], BadParams), ([0, True], BadParams),
                       ([0, -1], VertexOutOfRange)):
        with pytest.raises(error):
            from_facets([bad])


def test_facets_sorted_and_duplicate_free():
    cx = from_facets([[2, 3], [0, 1], [2, 3], [1, 2]])
    assert list(cx.facets) == sorted(set(cx.facets))


def test_link_of_vertex_in_fig_a2():
    a2 = build(FamilyId("fig_a2"), check=False)
    e = mask_of([4])  # vertex E
    lk = link(a2, e)
    got = {lk.facet_name(f) for f in lk.facets}
    assert got == {"AG", "CG", "BC", "AF", "DF"}


def test_link_trivial_cases():
    a2 = build(FamilyId("fig_a2"), check=False)
    assert link(a2, 0) == a2
    full = from_facets([[0, 1, 2]])
    void = link(full, 0b111)
    assert void.n == 0 and void.facets == (0,)


def test_alexander_dual_three_primes_example():
    # facets are the complements of <x1,x2>, <x3,x4>, <x5,x6>
    cx = from_facets([[2, 3, 4, 5], [0, 1, 4, 5], [0, 1, 2, 3]])
    ideal = alexander_dual_ideal(cx)
    assert set(ideal.generators) == {0b000011, 0b001100, 0b110000}
    assert {g.bit_count() for g in ideal.generators} == {2}
    assert 0 not in ideal.generators


def test_alexander_dual_unit_degenerate():
    cx = from_facets([[0, 1, 2]])
    assert 0 in alexander_dual_ideal(cx).generators


def test_alexander_dual_involution():
    rng = random.Random(7)
    from conftest import random_pure_complex
    for _ in range(50):
        cx = random_pure_complex(rng)
        back = complex_of_ideal(alexander_dual_ideal(cx))
        assert back.facets == cx.facets and back.n == cx.n


def test_alexander_dual_requires_pure():
    cx = from_facets([[0, 1, 2], [3, 4]])
    with pytest.raises(NotPure):
        alexander_dual_ideal(cx)


def test_cone_of_path_keeps_diameter():
    a1 = build(FamilyId("fig_a1"), check=False)
    c = track(cone(a1, 1))
    assert c.d == 3 and c.n == 6
    assert diameter(build_dual_graph(c)) == 3


def test_cone_rejects_zero():
    a1 = build(FamilyId("fig_a1"), check=False)
    with pytest.raises(BadParams):
        cone(a1, 0)


def test_cone_primes_a_colliding_apex_name():
    cx = parse_facet_file("vertices: a c0 b\na c0\nc0 b\n")
    c = track(cone(cx, 1))
    assert c.names == ("a", "c0", "b", "c0'")
    again = parse_facet_file(serialize_facet_file(c))
    assert again == c and again.names == c.names


def test_cone_stops_at_the_vertex_cap():
    a1 = build(FamilyId("fig_a1"), check=False)  # 5 vertices
    assert cone(a1, MAX_UNIVERSE - 5).n == MAX_UNIVERSE
    with pytest.raises(VertexOutOfRange):
        cone(a1, MAX_UNIVERSE - 4)


def test_growth_reads_names_to_the_cap_and_no_facet_past_it():
    # cone and append_facet_chain pass lazy names and facets, so a huge
    # extra or step count is refused before anything of its size is built
    a1 = build(FamilyId("fig_a1"), check=False)
    read = []

    def names():
        for i in count():
            read.append(i)
            yield "v%d" % i

    def facets():
        raise AssertionError("facets read past the cap")
        yield
    with pytest.raises(VertexOutOfRange):
        _grow(a1, facets(), names())
    assert len(read) == MAX_UNIVERSE - a1.n + 1


def test_cone_codim4_witness():
    # adding d-4 apex vertices to dim4 realizes diameter 6 in any dimension
    dim4 = build(FamilyId("dim4"), check=False)
    for extra in (1, 2, 3):
        c = track(cone(dim4, extra))
        assert c.d == 4 + extra and c.n - c.d == 4
        assert diameter(build_dual_graph(c)) == 6
        assert is_s2(c).holds


def test_cone_dual_graph_isomorphic():
    a2 = build(FamilyId("fig_a2"), check=False)
    g0 = build_dual_graph(a2)
    g1 = build_dual_graph(cone(a2, 2))
    assert g1.adjacency == g0.adjacency  # same facet order, same edges


def test_relabel_identity_and_involution():
    a2 = build(FamilyId("fig_a2"), check=False)
    assert relabel(a2, list(range(a2.n))) == a2
    perm = list(range(a2.n))
    perm[0], perm[3] = perm[3], perm[0]
    assert relabel(relabel(a2, perm), perm) == a2


def test_relabel_invariance_of_diameter_and_s2():
    a2 = build(FamilyId("fig_a2"), check=False)
    rng = random.Random(11)
    for _ in range(20):
        perm = list(range(a2.n))
        rng.shuffle(perm)
        rl = relabel(a2, perm)
        assert diameter(build_dual_graph(rl)) == 5
        assert is_s2(rl).holds


def test_relabel_rejects_non_bijection():
    a2 = build(FamilyId("fig_a2"), check=False)
    with pytest.raises(ValueError):
        relabel(a2, [0] * a2.n)


@given(st.lists(st.integers(min_value=1, max_value=2 ** 10 - 1),
                min_size=1, max_size=12))
def test_antichain_property(masks):
    out = antichain(masks)
    for i, a in enumerate(out):
        for j, b in enumerate(out):
            if i != j:
                assert a & b != a  # no containment survives
    # idempotent and order-canonical
    assert antichain(out) == out == sorted(out)


def _reference_antichain(masks):
    """The quadratic loop: each mask against every mask kept before it."""
    uniq = sorted(set(masks), key=lambda m: (bin(m).count("1"), m),
                  reverse=True)
    keep = []
    for m in uniq:
        if not any(m & k == m for k in keep):
            keep.append(m)
    keep.sort()
    return keep


class _CountedMask(int):
    """An int mask that counts the `&` it takes part in."""
    ands = 0

    def __and__(self, other):
        _CountedMask.ands += 1
        return int(self) & other


def test_antichain_matches_reference_loop():
    rng = random.Random(15)
    dropped = 0
    for _ in range(300):
        n = rng.randint(1, 10)
        d = rng.randint(1, n)
        one_size = [mask_of(rng.sample(range(n), d))
                    for _ in range(rng.randint(1, 30))]
        mixed = [rng.randint(1, 2 ** n - 1) for _ in range(rng.randint(1, 30))]
        duplicated = mixed + rng.choices(mixed, k=len(mixed))
        order = rng.sample(range(n), n)
        chain = [mask_of(order[:i]) for i in range(1, n + 1)]
        nested = rng.sample(chain, rng.randint(1, n)) + mixed[:rng.randint(0, 5)]
        for masks in (one_size, mixed, duplicated, nested):
            want = _reference_antichain(masks)
            assert antichain(masks) == want
            dropped += len(set(masks)) > len(want)
    assert dropped >= 300  # containment removes masks in many inputs
    # distinct masks of one size never contain each other: no test at all
    _CountedMask.ands = 0
    assert antichain(map(_CountedMask, [0b0111, 0b1011, 0b1101, 0b1110,
                                        0b0111])) == [7, 11, 13, 14]
    assert _CountedMask.ands == 0


def test_empty_face_complex_representation():
    void = SimplicialComplex(0, (0,))
    assert void.is_pure and void.d == 0


def test_reading_d_leaves_equality_hash_pickle_and_replace_alone():
    # d is derived once into the instance dict; the dataclass machinery
    # reads only the fields
    for cx in (from_facets([[0, 1, 2], [1, 2, 3]], names="abcd"),
               from_facets([[0, 1, 2], [2, 3]])):
        fresh = SimplicialComplex(cx.n, cx.facets, cx.names)
        before = (hash(cx), repr(cx), pickle.dumps(cx))
        d = cx.d
        assert cx.d is d and cx.is_pure == (d is not None)
        assert cx == fresh and fresh == cx and hash(cx) == hash(fresh)
        assert (hash(cx), repr(cx)) == before[:2]
        for blob in (before[2], pickle.dumps(cx)):
            back = pickle.loads(blob)
            assert back == cx and back.names == cx.names and back.d == d
        grown = replace(cx, n=6, facets=cx.facets + (0b110000,), names=None)
        assert grown.d is None and grown != cx
        same = replace(cx)
        assert same == cx and same.d == d
        assert len({cx, fresh, same}) == 1


def test_faces_in_size_then_mask_order():
    complexes = [cx for _, cx, _ in corpus()]
    complexes += [from_facets([[0, 1, 2], [2, 3], [4]]),
                  SimplicialComplex(0, (0,))]
    for cx in complexes:
        seen = set()
        for f in cx.facets:
            vs = vertices_of(f)
            for k in range(1, len(vs) + 1):
                seen.update(mask_of(c) for c in combinations(vs, k))
        assert cx.faces() == sorted(seen, key=lambda m: (m.bit_count(), m))


def test_ideal_antichain_degrees():
    a5 = build(FamilyId("fig_a5"), check=False)
    ideal = alexander_dual_ideal(a5)
    assert all(g.bit_count() == a5.n - a5.d for g in ideal.generators)


# masks and the universe size follow the one integer rule: an int that
# is not a bool
@pytest.mark.parametrize("masks,universe,names,error", [
    ([], None, None, EmptyInput),
    ([3, -1], None, None, VertexOutOfRange),  # a negative mask
    ([3, 1 << MAX_UNIVERSE], None, None, VertexOutOfRange),  # past the cap
    ([3, 6], None, ("a", "b"), BadParams),  # three vertices, two names
    ([3], 2.5, None, BadParams),
    ([3], "2", None, BadParams),
    ([1], True, None, BadParams),
    ([3.0], None, None, BadParams),
    ([True, 2], None, None, BadParams),
], ids=["no-facets", "negative", "past-cap", "name-table-size",
        "universe-2.5", "universe-str", "universe-True", "mask-3.0",
        "mask-True"])
def test_from_masks_errors(masks, universe, names, error):
    with pytest.raises(error):
        from_masks(masks, universe, names)


def test_from_masks_explicit_universe():
    cx = from_masks([0b011, 0b110], 3)
    assert cx.n == 3 and cx.d == 2
