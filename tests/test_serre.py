import random
import signal
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from srdual import (
    MonomialIdeal,
    SimplicialComplex,
    UNBOUNDED,
    alexander_dual_ideal,
    build,
    build_dual_graph,
    connected_components,
    diameter,
    distance_pair,
    from_facets,
    is_buchsbaum,
    is_locally_connected,
    is_s2,
    linear_syzygy_check,
    mask_of,
    reduced_betti,
    vertices_of,
)
from srdual import serre
from srdual.complexes import antichain, compact
from srdual.dual_graph import bfs
from srdual.errors import BadParams, DimensionTooSmall, EmptyInput, NotEquigenerated
from srdual.families import FamilyId
from srdual.serre import _rank

from conftest import (corpus, induced_on_superfacets, link, random_pure_complex,
                      track)


def test_fig_a2_locally_connected():
    a2 = build(FamilyId("fig_a2"), check=False)
    assert is_locally_connected(a2).holds


def test_local_connectedness_failure_witness():
    cx = from_facets([[0, 1, 2], [0, 3, 4]])  # ABC, ADE
    v = is_locally_connected(cx)
    assert not v.holds
    u, w, sep = v.witness
    assert {u, w} == {mask_of([0, 1, 2]), mask_of([0, 3, 4])}
    assert sep == mask_of([0])


def test_glued_fig7_locally_connected():
    fig7 = build(FamilyId("glued_d4", k=2, j=0), check=False)
    assert is_locally_connected(fig7).holds


def test_is_s2_corpus_figures():
    for name in ("fig_a1", "fig_a2", "fig_a4", "fig_a4_ehi", "fig_a5",
                 "dim4", "dim4_efgi", "g2"):
        assert is_s2(build(FamilyId(name), check=False)).holds, name


def test_is_s2_disconnected_and_non_pure():
    # a pure failure names its first failing pair; a non-pure one has none
    v = is_s2(from_facets([[0, 1], [2, 3]]))
    assert not v.holds and v.witness == (0b0011, 0b1100, 0)
    v = is_s2(from_facets([[0, 1, 2], [3, 4]]))
    assert not v.holds and v.witness is None


def test_is_s2_of_no_facets_is_a_typed_error():
    with pytest.raises(EmptyInput):
        is_s2(SimplicialComplex(0, ()))


def test_s2_implies_connected_dual_graph():
    rng = random.Random(23)
    for _ in range(300):
        cx = track(random_pure_complex(rng))
        if is_s2(cx).holds:
            assert diameter(build_dual_graph(cx)) is not UNBOUNDED


def test_linear_syzygy_three_disjoint_supports():
    ideal = MonomialIdeal(6, (0b000011, 0b001100, 0b110000))
    assert not linear_syzygy_check(ideal)


def test_linear_syzygy_matches_fig_a2():
    a2 = build(FamilyId("fig_a2"), check=False)
    assert linear_syzygy_check(alexander_dual_ideal(a2))


def test_linear_syzygy_single_generator():
    assert linear_syzygy_check(MonomialIdeal(4, (0b0011,)))


def test_linear_syzygy_rejects_mixed_degrees():
    with pytest.raises(NotEquigenerated):
        linear_syzygy_check(MonomialIdeal(4, (0b0011, 0b0111)))


def _reference_syzygy_check(ideal):
    """linear_syzygy_check with a scan of every generator for each box."""
    gens = ideal.generators
    t = gens[0].bit_count()
    m = len(gens)
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if (gens[i] | gens[j]).bit_count() == t + 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    for i in range(m):
        for j in range(i + 1, m):
            box = gens[i] | gens[j]
            allowed = 0
            for k in range(m):
                if gens[k] & ~box == 0:
                    allowed |= 1 << k
            if not bfs(adj, 1 << i, allowed)[0] >> j & 1:
                return False
    return True


def test_linear_syzygy_matches_reference_box_scan():
    rng = random.Random(47)
    complexes = [random_pure_complex(rng) for _ in range(400)]
    complexes += [cx for _, cx, _ in corpus()]
    failing = 0
    for cx in complexes:
        ideal = alexander_dual_ideal(cx)
        want = _reference_syzygy_check(ideal)
        failing += not want
        assert linear_syzygy_check(ideal) == want, cx
    assert failing >= 100


def test_linear_syzygy_matches_reference_pair_loop():
    """The box scan again, on the inputs of the S2 pair-scan test."""
    failing = 0
    for cx in _oracle_inputs(59):
        ideal = alexander_dual_ideal(cx)
        want = _reference_syzygy_check(ideal)
        failing += not want
        assert linear_syzygy_check(ideal) == want, cx
    assert failing >= 100


def test_reduced_betti_hollow_triangle():
    circle = from_facets([[0, 1], [1, 2], [0, 2]])
    for field in (0, 2, 3):
        bv = reduced_betti(circle, field)
        assert bv.betti(0) == 0 and bv.betti(1) == 1


def test_reduced_betti_solid_triangle():
    solid = from_facets([[0, 1, 2]])
    for field in (0, 2):
        bv = reduced_betti(solid, field)
        assert all(bv.betti(i) == 0 for i in range(-1, 3))


def test_reduced_betti_depends_on_the_field():
    # the 6-vertex real projective plane: H_1 = Z/2, so it is acyclic over
    # Q and GF(3) but has one cycle in degrees 1 and 2 over GF(2)
    for field, want in [(0, (0, 0, 0, 0)), (3, (0, 0, 0, 0)), (2, (0, 0, 1, 1))]:
        bv = reduced_betti(_RP2, field)
        assert bv.reduced_betti == want and bv.field_tag == field


def test_reduced_betti_b0_is_components_minus_one():
    rng = random.Random(31)
    for _ in range(100):
        cx = random_pure_complex(rng, max_n=7)
        comps = connected_components(cx)
        for field in (0, 2):
            assert reduced_betti(cx, field).betti(0) == comps - 1


def _reference_rank_q(rows):
    """Rank over the rationals by dense Gaussian elimination."""
    rows = [[Fraction(x) for x in r] for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        for r in range(rank + 1, len(rows)):
            c = rows[r][col]
            if c:
                f = c * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        rank += 1
        col += 1
    return rank


def _reference_rank_mod_p(rows, p):
    """Rank over GF(p), p prime, by dense Gaussian elimination."""
    rows = [[x % p for x in r] for r in rows if any(x % p for x in r)]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            c = rows[r][col]
            if c:
                f = c * inv % p
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _reference_reduced_betti(cx, field=0):
    """Reduced Betti numbers from dense boundary matrices, graded by
    dimension, with {∅} as a special case."""
    if cx.facets == (0,):
        return (1,)
    by_dim = []
    for face in cx.faces():
        k = face.bit_count() - 1
        while len(by_dim) <= k:
            by_dim.append({})
        by_dim[k][face] = len(by_dim[k])
    top = len(by_dim) - 1

    def boundary_rows(k):
        lower = by_dim[k - 1] if k > 0 else {0: 0}
        rows = []
        for face, _ in sorted(by_dim[k].items(), key=lambda kv: kv[1]):
            row = [0] * len(lower)
            vs = vertices_of(face)
            for i in range(len(vs)):
                sub = mask_of(v for idx, v in enumerate(vs) if idx != i)
                row[lower[sub]] = (-1) ** i
            rows.append(row)
        return rows

    if field == 0:
        rank = _reference_rank_q
    else:
        rank = lambda rows: _reference_rank_mod_p(rows, field)  # noqa: E731
    ranks = [rank(boundary_rows(k)) for k in range(top + 1)]
    ranks.append(0)
    betti = [1 - ranks[0]]
    for k in range(top + 1):
        betti.append(len(by_dim[k]) - ranks[k] - ranks[k + 1])
    return tuple(betti)


def _reference_is_buchsbaum(cx, field=0):
    """Buchsbaum check that builds the link of every nonempty face."""
    d = cx.d
    if d is None:
        return False
    if d < 2:
        raise DimensionTooSmall("need facet size >= 2")
    for face in cx.faces():
        lk = link(cx, face)
        if lk.facets == (0,):
            continue
        top = max(f.bit_count() for f in lk.facets) - 1
        bv = _reference_reduced_betti(lk, field)
        if any(bv[i + 1] for i in range(-1, top)):
            return False
    return True


_RP2 = from_facets([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
                    [1, 2, 4], [1, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5]])


def _outcome(fn, *args):
    """fn's result, or the type of the error it raised."""
    try:
        return fn(*args)
    except DimensionTooSmall as exc:
        return type(exc)


def _random_non_pure_complex(rng):
    """Seeded facets of 1 to 4 of at most 7 vertices, of mixed sizes, so
    that the 1-skeleton often has several components or isolated
    vertices."""
    while True:
        n = rng.randint(2, 7)
        masks = [mask_of(rng.sample(range(n), rng.randint(1, min(4, n))))
                 for _ in range(rng.randint(2, 6))]
        cx = compact(antichain(masks))
        if cx.d is None:
            return cx


#: Complexes whose 1-skeleton is disconnected or has isolated vertices.
_SPLIT_SKELETONS = [
    from_facets([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]),
    from_facets([[0, 1, 2], [3, 4]]),
    from_facets([[0, 1], [1, 2], [0, 2], [3, 4]]),
    from_facets([[0, 1, 2], [0, 3, 4]]),  # the link of 0 is two edges
    from_facets([[0, 1, 2], [3, 4, 5]]),
    from_facets([[0, 1], [2]]),
    from_facets([[0], [1], [2]]),
]


def test_homology_matches_reference_dense_elimination():
    rng = random.Random(53)
    complexes = [random_pure_complex(rng, dims=(d,))
                 for d in (2, 3, 4, 5) for _ in range(40)]
    complexes += [cx for _, cx, _ in corpus() if len(cx.facets) <= 40]
    complexes += [_RP2, SimplicialComplex(0, (0,)), from_facets([[0]])]
    complexes += _SPLIT_SKELETONS
    complexes += [_random_non_pure_complex(rng) for _ in range(200)]
    verdicts = {d: set() for d in range(6)}
    for cx in complexes:
        for field in (0, 2, 3):
            bv = reduced_betti(cx, field)
            assert bv.reduced_betti == _reference_reduced_betti(cx, field), cx
            assert bv.field_tag == field
        for field in (0, 2):
            want = _outcome(_reference_is_buchsbaum, cx, field)
            assert _outcome(is_buchsbaum, cx, field) == want, (cx, field)
            if cx.d is not None:
                verdicts[cx.d].add(want)
    assert verdicts[4] == verdicts[5] == {True, False}


def test_graph_homology_needs_no_elimination(monkeypatch):
    # the two lowest boundary ranks come from connectivity: a graph's
    # homology, and so every vertex link of a 2-dimensional complex,
    # never reaches _rank
    calls = []
    rank = serre._rank

    def counted(rows, field):
        calls.append(field)
        return rank(rows, field)

    monkeypatch.setattr(serre, "_rank", counted)
    rng = random.Random(67)
    graphs = [random_pure_complex(rng, dims=(2,)) for _ in range(20)]
    graphs += [cx for cx in _SPLIT_SKELETONS
               if max(f.bit_count() for f in cx.facets) <= 2]
    complexes = [build(FamilyId("fig_a2"), check=False), _RP2]
    complexes += [random_pure_complex(rng, dims=(3,)) for _ in range(20)]
    verdicts = set()
    for field in (0, 2):
        for cx in graphs:
            reduced_betti(cx, field)
        for cx in complexes:
            assert cx.d == 3
            verdicts.add(is_buchsbaum(cx, field))
    assert calls == [] and verdicts == {True, False}
    reduced_betti(_RP2, 2)  # the boundary from size 3 still needs it
    assert calls == [2]


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block after `seconds`, so that an
    elimination that stops terminating fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("no result within %s s" % seconds)
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _random_int_rows(rng):
    """A dense integer matrix with entries in -3..3, some zero rows, and
    some rows repeated or scaled, so that pivots need not lead with 1."""
    ncols = rng.randint(1, 9)
    rows = [[rng.randint(-3, 3) for _ in range(ncols)]
            for _ in range(rng.randint(1, 9))]
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(3)
        if kind == 0:
            rows.append([0] * ncols)
        elif kind == 1:
            rows.append(list(rng.choice(rows)))
        else:
            f = rng.choice((-3, -2, 2, 3))
            rows.append([f * x for x in rng.choice(rows)])
    rng.shuffle(rows)
    return rows


def test_rank_matches_dense_references():
    rng = random.Random(61)
    lower = {2: 0, 3: 0, 5: 0}  # matrices whose GF(p) rank is below Q's
    with _deadline(60):
        for _ in range(600):
            dense = _random_int_rows(rng)
            sparse = [{c: x for c, x in enumerate(r) if x} for r in dense]
            want_q = _reference_rank_q(dense)
            assert _rank(sparse, 0) == want_q, dense
            for p in lower:
                want = _reference_rank_mod_p(dense, p)
                assert _rank(sparse, p) == want, (dense, p)
                lower[p] += want < want_q
    assert all(count >= 5 for count in lower.values()), lower


def _cyclic_polytope(n, dim):
    """Boundary of the cyclic dim-polytope on n vertices: the dim-sets
    that pass Gale's evenness condition."""
    facets = []
    for facet in combinations(range(n), dim):
        inside = set(facet)
        gaps = [v for v in range(n) if v not in inside]
        if all(sum(i < v < j for v in facet) % 2 == 0
               for i, j in combinations(gaps, 2)):
            facets.append(facet)
    return from_facets(facets)


def test_cyclic_polytope_c12_6_is_a_buchsbaum_sphere():
    c12_6 = _cyclic_polytope(12, 6)
    assert len(c12_6.facets) == 112 and c12_6.n == 12
    with _deadline(60):
        for field in (0, 2, 3):
            bv = reduced_betti(c12_6, field)
            assert bv.reduced_betti == (0, 0, 0, 0, 0, 0, 1)
        for field in (0, 2):
            assert is_buchsbaum(c12_6, field)


@pytest.mark.parametrize("field", [1, 4, 9, -2, 2**31 + 11, 2**61 - 1,
                                   0.0, False, True])
def test_field_must_be_zero_or_prime(field):
    circle = from_facets([[0, 1], [1, 2], [0, 2]])
    t0 = time.perf_counter()
    for cx in (circle, _RP2):
        with pytest.raises(BadParams):
            reduced_betti(cx, field)
        with pytest.raises(BadParams):
            is_buchsbaum(cx, field)
    assert time.perf_counter() - t0 < 1


def test_largest_prime_field_below_the_bound():
    # 2^31 - 1 is prime; 2^31 + 11, the next prime, is refused above
    circle = from_facets([[0, 1], [1, 2], [0, 2]])
    assert reduced_betti(circle, 2**31 - 1).reduced_betti == (0, 0, 1)
    assert is_buchsbaum(_RP2, 2**31 - 1)


def test_buchsbaum_examples():
    a2 = build(FamilyId("fig_a2"), check=False)
    dim4 = build(FamilyId("dim4"), check=False)
    simplex = from_facets([[0, 1, 2, 3]])
    for field in (0, 2):
        assert is_buchsbaum(a2, field)
        assert not is_buchsbaum(dim4, field)
        assert is_buchsbaum(simplex, field)


def test_failure_witness_reverifies():
    rng = random.Random(37)
    seen = 0
    while seen < 50:
        cx = random_pure_complex(rng)
        v = is_s2(cx)
        if v.holds or v.witness is None:
            continue
        seen += 1
        u, w, sep = v.witness
        g = build_dual_graph(cx)
        sub = induced_on_superfacets(g, sep)
        iu = sub.node_facets.index(u)
        iw = sub.node_facets.index(w)
        # BFS from u inside the separator-star subgraph must miss w
        seen_mask, frontier = 1 << iu, 1 << iu
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= sub.adjacency[b.bit_length() - 1]
                f ^= b
            frontier = nxt & ~seen_mask
            seen_mask |= frontier
        assert not seen_mask >> iw & 1


def test_oracle_agreement_sample():
    rng = random.Random(41)
    for _ in range(500):
        cx = track(random_pure_complex(rng))
        assert is_s2(cx).holds == linear_syzygy_check(alexander_dual_ideal(cx))


def test_corpus_is_s2():
    for fam, cx, _ in corpus():
        assert is_s2(cx).holds, str(fam)


def _reference_witness(cx):
    """(u, v, u∩v) of the first facet pair, in facet order, that no path
    through facets containing u∩v joins; None when every pair is joined."""
    g = build_dual_graph(cx)
    facets = g.node_facets
    subgraphs = {}  # separator -> the dual graph induced on its star
    for i, u in enumerate(facets):
        for v in facets[i + 1:]:
            if u & v not in subgraphs:
                subgraphs[u & v] = induced_on_superfacets(g, u & v)
            if distance_pair(subgraphs[u & v], u, v)[0] is UNBOUNDED:
                return u, v, u & v
    return None


def _with_one_facet_dropped(rng, cx):
    """cx less one seeded facet; dropping it may split a separator star."""
    facets = list(cx.facets)
    facets.pop(rng.randrange(len(facets)))
    return compact(facets)


def _oracle_inputs(seed):
    """400 seeded complexes, the corpus, the corpus less one facet each,
    and glued_d4(k=6, j=1), the largest bench build."""
    rng = random.Random(seed)
    complexes = [random_pure_complex(rng) for _ in range(400)]
    complexes += [cx for _, cx, _ in corpus()]
    complexes += [_with_one_facet_dropped(rng, cx) for _, cx, _ in corpus()]
    complexes.append(build(FamilyId("glued_d4", k=6, j=1), check=False))
    return complexes


def test_s2_matches_reference_pair_scan():
    failing = 0
    for cx in _oracle_inputs(43):
        want = _reference_witness(cx)
        failing += want is not None
        for verdict in (is_s2(cx), is_locally_connected(cx)):
            assert verdict.holds == (want is None), cx
            assert verdict.witness == want, cx
    assert failing >= 100  # the failure path and its witness are exercised


def test_one_pass_oracles_on_larger_separators():
    # facets of 5 or 6 vertices on at most 10: separators of 3 or more
    # vertices, and boxes with up to d - 2 = 4 variables outside
    rng = random.Random(71)
    verdicts = set()
    widest_sep = most_outside = 0
    for _ in range(150):
        cx = random_pure_complex(rng, max_n=10, dims=(5, 6))
        want = _reference_witness(cx)
        for verdict in (is_s2(cx), is_locally_connected(cx)):
            assert verdict.holds == (want is None), cx
            assert verdict.witness == want, cx
        ideal = alexander_dual_ideal(cx)
        syz = _reference_syzygy_check(ideal)
        assert linear_syzygy_check(ideal) == syz, cx
        verdicts.add((want is None, syz))
        for u, v in combinations(cx.facets, 2):
            if (u & v).bit_count() < cx.d - 1:
                widest_sep = max(widest_sep, (u & v).bit_count())
        universe = 0
        for g in ideal.generators:
            universe |= g
        t = ideal.generators[0].bit_count()
        for g, h in combinations(ideal.generators, 2):
            if (g | h).bit_count() > t + 1:
                most_outside = max(most_outside,
                                   (universe & ~(g | h)).bit_count())
    assert verdicts == {(True, True), (False, False)}
    assert widest_sep >= 3 and most_outside == 4
