import json
import os
import random
import time
from dataclasses import replace
from functools import cache, reduce
from importlib import resources
from itertools import chain, combinations, islice, permutations
from operator import and_, or_

import pytest

from srdual import (
    SearchBudget,
    SimplicialComplex,
    bounds,
    build,
    build_dual_graph,
    canonical_form,
    diameter,
    enumerate_mu,
    from_facets,
    from_masks,
    is_s2,
    mask_of,
    search,
    verify_bounds,
    vertices_of,
)
from srdual.complexes import star_masks
from srdual.dual_graph import UNBOUNDED, bfs, eccentricity
from srdual.errors import BadParams, ContractViolation, IsolatedVertex
from srdual.families import FamilyId

from conftest import corpus, random_pure_complex, relabel, track


def test_bounds_examples():
    assert bounds(3, 7).best == 5
    assert bounds(3, 9).best == 8
    assert bounds(4, 8).best == 6
    assert bounds(3, 10).best == 10
    assert bounds(3, 6).best == 3  # codim-3 cap
    assert bounds(5, 10).best == 8  # codim-5 cap (thm36)


def test_bounds_entries_applicability():
    b = bounds(4, 8)
    e = b.entries
    assert e["codim4"] == 6 and e["thm35"] == 16
    assert "thm32" not in e  # d != 3
    assert "codim3" not in e
    # insertion order is the key order of `bounds --json`
    assert list(e) == ["thm35", "thm38", "codim4"]
    assert list(bounds(3, 8).entries) == ["thm32", "thm35", "thm36", "thm38",
                                          "klee_walkup_reduced"]


def test_thm38_is_the_floor_of_its_formula():
    # thm38 is the floor of 3 * 2^((k-5)/2) * k, the root of the integer
    # 9 * k^2 * 2^(k-5); a float lost the floor from k = 94 on and
    # overflowed past k = 2,000
    for k in range(4, 3001):
        g, square = bounds(2, k + 2).entries["thm38"], 9 * k * k << k >> 5
        assert g * g <= square < (g + 1) * (g + 1), k
    assert bounds(2, 6).entries["thm38"] == 8  # isqrt(72)
    b = bounds(2, 2100)
    assert all(type(v) is int for v in b.entries.values())
    assert type(b.best) is int and b.best == 2098


def test_bounds_klee_walkup_fixed_point():
    b = bounds(4, 8)
    assert "klee_walkup_reduced" not in b.entries or b.d != b.n - b.d
    # (k, 2k) cells are fixed points of the reduction and must not recurse
    assert "klee_walkup_reduced" not in bounds(6, 12).entries


def test_bounds_rejects_bad_params():
    with pytest.raises(BadParams):
        bounds(1, 5)
    with pytest.raises(BadParams):
        bounds(5, 5)
    # d and n must be non-bool ints, and a given diameter an int
    for d, n in [(2.0, 5), (2, 5.0), (3, 6.0), (2.5, 6), (True, 5), (2, "5")]:
        for fn in (bounds, search.leaf_count):
            with pytest.raises(BadParams):
                fn(d, n)
    cx = build(FamilyId("fig_a2"), check=False)
    for diam in ("x", 2.5, 3.0, True):
        with pytest.raises(BadParams):
            verify_bounds(cx, diam)
    assert verify_bounds(cx, None) and verify_bounds(cx, UNBOUNDED)


@pytest.mark.parametrize("facets", [[[0, 1, 2]], [[0], [1]],
                                    [[0, 1, 2], [2, 3]]],
                         ids=["full-facet", "points", "not-pure"])
def test_verify_bounds_holds_where_no_bound_applies(facets):
    # a single full facet (d = n), points (d = 1) and a complex that is
    # not pure have no (d, n) cell: bounds would raise BadParams
    cx = from_facets(facets)
    assert verify_bounds(cx) and verify_bounds(cx, 99)


def test_verify_bounds_corpus_samples():
    for name, diam in [("fig_a5", 9), ("dim4", 6)]:
        cx = build(FamilyId(name), check=False)
        assert verify_bounds(cx, diam)
    glued = build(FamilyId("glued_d4", k=3, j=0), check=False)
    assert glued.d == 4 and glued.n == 16
    assert verify_bounds(glued, 18)  # thm35 = 4 * 12 = 48


def test_canonical_form_relabel_invariance():
    a2 = build(FamilyId("fig_a2"), check=False)
    key = canonical_form(a2)
    assert key.exact
    rng = random.Random(5)
    for _ in range(25):
        perm = list(range(a2.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(a2, perm)) == key


def _facet_list_invariants(facets, n):
    """Per-vertex invariants computed straight from the facet list."""
    deg = [0] * n
    for f in facets:
        for v in vertices_of(f):
            deg[v] += 1
    prof = []
    for v in range(n):
        co = []
        for f in facets:
            if f >> v & 1:
                co.extend(deg[w] for w in vertices_of(f) if w != v)
        prof.append((deg[v], tuple(sorted(co))))
    return prof


def test_vertex_invariants_from_star_masks():
    rng = random.Random(5)
    complexes = [random_pure_complex(rng) for _ in range(300)]
    complexes += [cx for _, cx, _ in corpus()]
    for cx in complexes:
        got = search._vertex_invariants(star_masks(cx.facets, cx.n))
        assert got == _facet_list_invariants(cx.facets, cx.n), cx


def _reference_canonical_form(cx):
    """The permutation routine canonical_form replaced, kept as its oracle."""
    n = cx.n
    facets = cx.facets
    prof = search._vertex_invariants(star_masks(facets, n))
    if n > search.EXACT_CANONICAL_N:
        return search.CanonicalKey((hash(tuple(sorted(prof))),), exact=False)
    # vertices grouped by invariant; images must stay inside a group
    groups = {}
    for v in range(n):
        groups.setdefault(prof[v], []).append(v)
    # block order must itself be relabeling-invariant: sort by profile key
    ordered = [groups[k] for k in sorted(groups)]
    best = None
    # assign new labels block by block; only same-class permutations matter
    blocks = [list(permutations(g)) for g in ordered]
    facet_vs = [vertices_of(f) for f in facets]

    def rec(i, perm):
        nonlocal best
        if i == len(blocks):
            key = tuple(sorted(
                sum(1 << perm[v] for v in vs) for vs in facet_vs))
            if best is None or key < best:
                best = key
            return
        base = sum(len(b[0]) for b in blocks[:i])
        for arrangement in blocks[i]:
            for newpos, v in enumerate(arrangement):
                perm[v] = base + newpos
            rec(i + 1, perm)

    rec(0, [0] * n)
    if best is None:
        raise ContractViolation("no labeling of %r was tried" % (cx,))
    return search.CanonicalKey(best, exact=True)


def _cyclic_triples(n):
    return SimplicialComplex(n, tuple(sorted(
        mask_of([i, (i + 1) % n, (i + 2) % n]) for i in range(n))))


def test_canonical_form_matches_permutation_reference():
    rng = random.Random(5)
    complexes = [cx for _, cx, _ in corpus() if cx.n <= 10]
    complexes += [random_pure_complex(rng) for _ in range(300)]
    complexes += [_cyclic_triples(n) for n in (6, 7, 8)]
    complexes += [SimplicialComplex(n, tuple(
        mask_of(c) for c in combinations(range(n), 3))) for n in (5, 6)]
    for cx in complexes:
        assert canonical_form(cx) == _reference_canonical_form(cx), cx


def test_canonical_form_small_cases():
    p1 = from_facets([[0, 1], [1, 2]])
    p2 = from_facets([[1, 2], [0, 2]])
    assert canonical_form(p1) == canonical_form(p2)
    path = from_facets([[0, 1], [1, 2], [2, 3]])
    tri = from_facets([[0, 1], [1, 2], [0, 2]])
    assert canonical_form(path) != canonical_form(tri)
    # a triangle on a 4-point universe would leave a vertex isolated
    with pytest.raises(IsolatedVertex):
        from_facets([[0, 1], [1, 2], [0, 2]], universe_size=4)


def test_enumerate_mu_tiny_cells():
    for n, want in [(4, 2), (5, 3)]:
        res = enumerate_mu(2, n)
        assert res.mu == want and res.exhaustive
        w = track(res.witness, res.mu)
        assert w.n == n and w.d == 2 and is_s2(w).holds
        assert diameter(build_dual_graph(w)) == res.mu


def test_budget_truncates_search():
    res = enumerate_mu(3, 7, budget=SearchBudget(max_nodes=500))
    assert not res.exhaustive
    assert res.nodes_explored == 500
    if res.witness is not None:
        track(res.witness, res.mu)
    # the clock is read before every block, the first one included
    timed = enumerate_mu(2, 6, budget=SearchBudget(max_seconds=0))
    assert not timed.exhaustive and timed.nodes_explored == 0


def test_uncanonical_witness_keeps_sorted_facets():
    # past EXACT_CANONICAL_N the witness is the leaf itself, not relabeled;
    # its facets still come out ascending, as from_masks would order them
    w = enumerate_mu(2, 13, SearchBudget(max_nodes=3000)).witness
    assert w.n > search.EXACT_CANONICAL_N
    assert w == from_masks(w.facets, w.n)


def test_checkpoint_resume(tmp_path):
    ck = str(tmp_path / "ck.txt")
    partial = enumerate_mu(2, 6, budget=SearchBudget(max_nodes=200),
                           checkpoint=ck)
    assert not partial.exhaustive
    resumed = enumerate_mu(2, 6, checkpoint=ck)
    full = enumerate_mu(2, 6)
    assert resumed.exhaustive and resumed.mu == full.mu == 4
    assert resumed.witness.facets == full.witness.facets


def test_checkpoint_survives_failed_write(tmp_path, monkeypatch):
    ck = str(tmp_path / "ck.txt")
    enumerate_mu(2, 5, checkpoint=ck)
    before = search._read_checkpoint(ck, 2, 5, 8)
    assert set(before[0]) == set(range(8))

    real_open = open

    class FailingWrites:
        """A file handle whose writes fail, as on a full disk."""

        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            raise OSError("no space left on device")

    monkeypatch.setattr(search, "open", FailingWrites, raising=False)
    with pytest.raises(OSError):
        search._write_checkpoint(ck, 2, 5, {0: 1}, (1, (3, 6)))
    monkeypatch.undo()
    assert search._read_checkpoint(ck, 2, 5, 8) == before
    assert os.listdir(tmp_path) == ["ck.txt"]


def test_checkpoint_parameter_mismatch(tmp_path):
    ck = str(tmp_path / "ck.txt")
    enumerate_mu(2, 5, checkpoint=ck)
    with pytest.raises(BadParams):
        enumerate_mu(2, 6, checkpoint=ck)


def test_unwritable_checkpoint_path_fails_before_the_search(tmp_path):
    # μ(3,7) runs for minutes; the bad path must be named up front, and
    # not as the temporary file of the first checkpoint write.  The time
    # budget stops the search before its first checkpoint write would fail
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    for ck in (tmp_path / "missing" / "ck.txt", tmp_path / "file" / "ck.txt",
               tmp_path / "dir"):
        t0 = time.perf_counter()
        with pytest.raises(BadParams, match="checkpoint %s:" % ck):
            enumerate_mu(3, 7, SearchBudget(max_seconds=0.5),
                         checkpoint=str(ck))
        assert time.perf_counter() - t0 < 1
    assert sorted(os.listdir(tmp_path)) == ["dir", "file"]
    assert os.listdir(tmp_path / "dir") == []


def test_mu_dominates_table_witness():
    res = enumerate_mu(2, 6)
    witness = build(FamilyId("table1_witness", d=2, n=6), check=False)
    assert res.mu >= diameter(build_dual_graph(witness))


@pytest.mark.parametrize("d,n,leaves", [(3, 5, 497), (2, 6, 14513),
                                         (4, 6, 16353)])
def test_search_matches_brute_force(d, n, leaves):
    # every candidate subset holding {0..d-1} and covering all n vertices
    # is a search leaf; mu is the max diameter of those that are (S2)
    cands = [mask_of(c) for c in combinations(range(n), d)]
    first, rest = cands[0], cands[1:]
    full = (1 << n) - 1
    count, mu = 0, -1
    for pick in range(1 << len(rest)):
        facets = [first] + [c for i, c in enumerate(rest) if pick >> i & 1]
        covered = 0
        for f in facets:
            covered |= f
        if covered != full:
            continue
        count += 1
        cx = SimplicialComplex(n, tuple(sorted(facets)))
        if is_s2(cx).holds:
            mu = max(mu, diameter(build_dual_graph(cx)))
    res = enumerate_mu(d, n)
    assert count == leaves == res.nodes_explored == search.leaf_count(d, n)
    assert res.mu == mu and res.exhaustive


def _plain_bfs(adj, start, allowed):
    """A BFS from the node mask `start` through the nodes of the mask
    `allowed`, along the adjacency masks `adj`: (reached, ecc), the nodes
    reached and the distance of the last level.  It stops once it has
    reached every allowed node.  The reference's own, independent of
    dual_graph.bfs."""
    reached = frontier = start
    ecc = 0
    while reached != allowed:
        grown = 0
        while frontier:
            b = frontier & -frontier
            grown |= adj[b.bit_length() - 1]
            frontier ^= b
        frontier = grown & allowed & ~reached
        if not frontier:
            break
        reached |= frontier
        ecc += 1
    return reached, ecc


class _ReferenceLeaves:
    """A leaf-by-leaf evaluator with the search's rules, kept as its oracle.

    No blocks and no bit slices: `ecc0` runs one BFS from candidate 0,
    which also finds a disconnected leaf; `verdict` runs one BFS per face
    star and a packed diameter; `offer` runs the proved bound and the
    tie-break; a call drops the leaves of ecc0 below mu, then runs the
    other two.  Its BFS is _plain_bfs, not the library's.
    """

    def __init__(self, d, n):
        self.d, self.n = d, n
        self.cands = tuple(mask_of(c) for c in combinations(range(n), d))
        self.adj = build_dual_graph(
            SimplicialComplex(n, self.cands)).adjacency
        self.star = star_masks(self.cands, n)
        self.face_stars = [reduce(and_, (self.star[v] for v in s))
                           for k in range(1, d - 1)
                           for s in combinations(range(n), k)]
        self.best_bound = bounds(d, n).best
        self.mu, self.witness, self.prekey, self.key = -1, None, None, None

    def verdict(self, chosen):
        """The diameter of a leaf, or None when it is not connected (S2).

        A leaf's dual graph is the all-candidate graph's subgraph induced
        on the leaf.  (S2) holds iff it is connected and the leaf's star of
        each face s of 1 to d-2 vertices is connected: two facets u, v of
        that star meet in d-1 vertices, and are adjacent, or in a
        separator u∩v ⊇ s of fewer, whose star lies inside that of s.
        """
        adj = self.adj
        for fs in self.face_stars:
            sub = fs & chosen
            if _plain_bfs(adj, sub & -sub, sub)[0] != sub:
                return None
        # row p of one packed int, bits [p*m, (p+1)*m), is the ball around
        # the leaf's p-th facet, and each step grows every ball by one edge;
        # col has bit p*m set for every row.  The diameter is the number of
        # steps until every ball is the leaf; a disconnected leaf stops
        # growing first
        idxs = vertices_of(chosen)
        m = len(adj)
        col = ((1 << len(idxs) * m) - 1) // ((1 << m) - 1)
        balls = 0
        for p, i in enumerate(idxs):
            balls |= 1 << (p * m + i)
        full = chosen * col
        steps = 0
        while balls != full:
            grown = balls
            for j in idxs:
                grown |= ((balls >> j) & col) * adj[j]
            if grown & full == balls:
                return None
            balls = grown & full
            steps += 1
        return steps

    def ecc0(self, chosen):
        """The eccentricity of candidate 0 in a leaf, or None when the
        leaf is not connected."""
        reached, ecc = _plain_bfs(self.adj, 1, chosen)
        return ecc if reached == chosen else None

    def __call__(self, chosen):
        """Offer a connected (S2) leaf of ecc0 at least mu: its ecc0, or
        None when a rule drops it."""
        ecc = self.ecc0(chosen)
        if ecc is None or ecc < self.mu or self.verdict(chosen) is None:
            return None
        self.offer(chosen, ecc)
        return ecc

    def offer(self, chosen, ecc):
        """The proved bound, then the tie-break, for a connected (S2) leaf
        of ecc0 `ecc`."""
        idxs = vertices_of(chosen)
        cx = SimplicialComplex(self.n,
                               tuple(sorted(self.cands[i] for i in idxs)))
        if ecc > self.best_bound:
            raise search.BoundViolation(
                "ecc0 %d exceeds proved bound %d for d=%d n=%d: %r"
                % (ecc, self.best_bound, self.d, self.n, cx), cx)
        if ecc < self.mu:
            return
        size = len(idxs)
        if ecc == self.mu and size > self.prekey[0]:
            return
        pk = search._prekey([s & chosen for s in self.star], size)
        if ecc == self.mu and pk > self.prekey:
            return
        if ecc > self.mu or pk < self.prekey:
            self.mu, self.witness, self.prekey, self.key = ecc, cx, pk, None
        else:
            if self.key is None:
                self.key = canonical_form(self.witness).facets
            key = canonical_form(cx).facets
            if key < self.key:
                self.witness, self.key = cx, key


def test_tie_break_keeps_the_least_canonical_key():
    # the 6-cycle and two triangles are (2,6) leaves of six facets whose
    # vertices all have the profile (2, (2, 2)), so size and pre-key tie
    # and the canonical key decides: the triangles win in either order
    cycle = from_facets([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]])
    triangles = from_facets([[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]])
    key = (3, 5, 6, 24, 40, 48)
    assert canonical_form(triangles).facets == key < canonical_form(
        cycle).facets
    assert len({search._prekey(star_masks(cx.facets, 6), 6)
                for cx in (cycle, triangles)}) == 1
    for order in ((cycle, triangles), (triangles, cycle)):
        fast, ref = search._Leaves(2, 6), _ReferenceLeaves(2, 6)
        index = {c: i for i, c in enumerate(ref.cands)}
        for cx in order:
            chosen = sum(1 << index[f] for f in cx.facets)
            fast._offer(chosen, 3)
            ref.offer(chosen, 3)
        for leaves in (fast, ref):
            assert (leaves.witness.facets, leaves.key) == (key, key), order


def _reference_leaves(d, n):
    """Every leaf of (d, n) in search order, from the reference DFS."""
    cands = [mask_of(c) for c in combinations(range(n), d)]
    levels = search._Leaves(d, n).levels
    return chain.from_iterable(_reference_task_leaves(cands, levels, t)
                               for t in range(1 << levels))


def _block_ends(d, n, total):
    """Leaf counts at the ends of the search's blocks, up to `total`."""
    leaves = search._Leaves(d, n)
    ends, count = [], 0
    for t in range(1 << leaves.levels):
        for _, covers in leaves.blocks(t):
            count += covers.bit_count()
            if count > total:
                return ends
            ends.append(count)
    return ends


@pytest.mark.parametrize("d,n,limit", [(3, 5, None), (2, 6, None),
                                       (4, 6, None), (3, 7, 20000),
                                       (4, 7, 20000), (4, 8, 2000)])
def test_leaves_match_reference_evaluator(d, n, limit):
    # a search cut after N leaves ends where the reference evaluator
    # ends after the first N reference leaves, and reports its witness's
    # diameter: on every block boundary and at seeded random N
    total = search.leaf_count(d, n) if limit is None else limit
    rng = random.Random(d * 100 + n)
    cuts = set(_block_ends(d, n, total))
    cuts.update(rng.randint(0, total) for _ in range(4))
    ref = _ReferenceLeaves(d, n)
    want = {0: (-1, None)}
    for count, chosen in enumerate(
            islice(_reference_leaves(d, n), total), 1):
        ref(chosen)
        if count in cuts:
            want[count] = (diameter(build_dual_graph(ref.witness)),
                           canonical_form(ref.witness).facets)
    assert ref.witness is not None and set(want) >= cuts
    for cut in sorted(cuts):
        res = enumerate_mu(d, n, SearchBudget(max_nodes=cut))
        got = res.mu, res.witness and res.witness.facets
        assert got == want[cut], (d, n, cut)
        assert res.nodes_explored == cut
        assert res.exhaustive == (cut == search.leaf_count(d, n))
    # no covering leaf has one facet, so candidate 0 on its own is
    # offered to fresh evaluators as the last position of a full-width
    # block, the one that holds no block candidate
    fast, ref = search._Leaves(d, n), _ReferenceLeaves(d, n)
    fast.block(1, 1 << (1 << fast.k) - 1)
    assert ref(1) == fast.mu == 0
    assert (fast.mu, fast.witness) == (ref.mu, ref.witness)


@pytest.mark.parametrize("d,n,mu", [(3, 5, 2), (2, 6, 4), (4, 6, 2)])
def test_largest_ecc0_is_the_largest_diameter(d, n, mu):
    # the rooted search rests on this: over the connected (S2) leaves the
    # largest ecc0 is the largest diameter, since a complex of diameter D
    # has a leaf copy whose candidate 0 is one end of a pair at distance
    # D; and each isomorphism class's diameter is the largest ecc0 over
    # its leaf copies.  Diameters from the packed reference, ecc0 from
    # its BFS.  (3,6)'s 522,775 leaves are checked for the largest values in
    # test_block_verdicts_match_the_oracles, which computes both for each
    ref = _ReferenceLeaves(d, n)
    by_class = {}  # canonical key -> (diameter, largest ecc0 of a copy)
    for chosen in _reference_leaves(d, n):
        diam = ref.verdict(chosen)
        if diam is None:
            continue
        ecc = ref.ecc0(chosen)
        key = canonical_form(SimplicialComplex(n, tuple(sorted(
            ref.cands[i] for i in vertices_of(chosen))))).facets
        was_diam, was_ecc = by_class.setdefault(key, (diam, ecc))
        assert was_diam == diam, key
        by_class[key] = (diam, max(was_ecc, ecc))
    assert len(by_class) > 1
    assert all(diam == ecc for diam, ecc in by_class.values())
    assert max(diam for diam, _ in by_class.values()) == mu


def _swap_image(chosen, cands, index, a, b):
    """The leaf `chosen` with vertices a and b exchanged in its facets."""
    image = 0
    for i in vertices_of(chosen):
        c = cands[i]
        if (c >> a & 1) != (c >> b & 1):
            c ^= 1 << a | 1 << b
        image |= 1 << index[c]
    return image


# the kept-leaf totals were counted by the relabeling reference below
@pytest.mark.parametrize("d,n,kept", [(3, 5, 110), (2, 6, 745),
                                      (4, 6, 977)])
def test_orbit_filter_matches_the_relabeling_reference(monkeypatch, d, n,
                                                        kept):
    # a leaf is kept exactly when no transposition of two vertices below
    # d, or of two from d on, relabels it into a leaf the reference DFS
    # visits earlier.  Checked at the search's block width and at width
    # 2, where the block prefixes decide more pairs, and on random
    # subsets of each block's positions, as a node budget cuts them
    cands = [mask_of(c) for c in combinations(range(n), d)]
    index = {c: i for i, c in enumerate(cands)}
    leaves = list(_reference_leaves(d, n))
    rank = {chosen: r for r, chosen in enumerate(leaves)}
    swaps = [(a, b) for a, b in combinations(range(n), 2)
             if (a < d) == (b < d)]
    want = [x for x in leaves
            if all(rank[_swap_image(x, cands, index, a, b)] >= rank[x]
                   for a, b in swaps)]
    assert len(want) == kept
    rng = random.Random(d * 100 + n)
    for width in (search._BLOCK_LEVELS, 2):
        monkeypatch.setattr(search, "_BLOCK_LEVELS", width)
        cell = search._Leaves(d, n)
        k = cell.k
        got = []
        for t in range(1 << cell.levels):
            for prefix, covers in cell.blocks(t):
                leaders = cell.leaders(prefix, covers)
                got += _block_leaves(len(cands), prefix, leaders, k)
                cut = covers & rng.getrandbits(1 << k)
                assert cell.leaders(prefix, cut) == leaders & cut
        assert got == want, k
    # every isomorphism class keeps a leaf

    def forms(chosen_leaves):
        return {canonical_form(SimplicialComplex(n, tuple(
            cands[i] for i in vertices_of(x)))).facets for x in chosen_leaves}
    assert forms(want) == forms(leaves)


def _record_offers(monkeypatch):
    """Record each leaf the search offers to the incumbent, and offer it."""
    offered = []
    real = search._Leaves._offer

    def offer(leaves, chosen, diam):
        offered.append((chosen, diam))
        return real(leaves, chosen, diam)
    monkeypatch.setattr(search._Leaves, "_offer", offer)
    return offered


def test_exhaustive_mu_2_8(monkeypatch):
    offered = _record_offers(monkeypatch)
    res = enumerate_mu(2, 8)
    assert res.mu == 6 and res.exhaustive
    assert res.nodes_explored == search.leaf_count(2, 8) == 128_162_249
    assert res.witness.facets == (5, 10, 20, 40, 80, 160, 192)
    assert len(offered) == 52


# counted at block width 16: fewer, wider blocks make fewer calls
@pytest.mark.parametrize("d,n,probe,star", [(2, 7, 5, 0), (3, 6, 4, 24)])
def test_kernel_calls_are_pinned(monkeypatch, d, n, probe, star):
    # one sweep from candidate 0 per evaluated block, and one call per
    # face star until no leaf is live; no leaf needs its diameter
    assert search._BLOCK_LEVELS == 16
    calls = {"probe": 0, "star": 0}
    real = search._sliced_bfs

    def sliced_bfs(nbrs, pres, frontier):
        calls["star" if isinstance(nbrs, dict) else "probe"] += 1
        return real(nbrs, pres, frontier)
    monkeypatch.setattr(search, "_sliced_bfs", sliced_bfs)
    assert enumerate_mu(d, n).exhaustive
    assert calls == {"probe": probe, "star": star}


# offers counted at block width 16: a block offers its lowest leaf above
# the proved bound and its best class, so a wider block offers fewer
@pytest.mark.parametrize("d,n,budget,offers", [
    (2, 6, None, 2), (3, 6, None, 2), (4, 6, None, 2), (2, 7, None, 3),
    (5, 7, None, 2), (3, 7, 20000, 3), (2, 7, 12345, 1)])
def test_incumbents_do_not_depend_on_the_block_width(tmp_path, monkeypatch,
                                                     d, n, budget, offers):
    # the incumbent after every finished task, as the checkpoint records
    # it, and the result are the same at every width; the budgets end
    # inside a block at every width
    monkeypatch.setattr(search, "_CHECKPOINT_SECONDS", 0)
    writes = _count_writes(monkeypatch)
    offered, runs = _record_offers(monkeypatch), []
    for width in (10, 12, 16):
        monkeypatch.setattr(search, "_BLOCK_LEVELS", width)
        assert budget not in _block_ends(d, n, budget or 0)
        writes.clear()
        offered.clear()
        res = enumerate_mu(d, n, SearchBudget(max_nodes=budget),
                           checkpoint=tmp_path / ("%d.txt" % width))
        runs.append((writes[:], res.mu, res.witness.facets,
                     res.nodes_explored, res.exhaustive))
    assert runs[0] == runs[1] == runs[2]
    assert len(offered) == offers
    assert runs[0][4] == (budget is None)


@pytest.mark.parametrize("d,n,budget", [
    (2, 6, None), (3, 6, None), (4, 6, None), (2, 7, None), (5, 7, None),
    (3, 7, 20000), (4, 8, 2000), (3, 7, 200000), (4, 7, 200000),
    (2, 7, 12345)])
def test_best_class_leaves_a_leaf_by_leaf_incumbent(monkeypatch, d, n,
                                                     budget):
    # the reference offered every live leaf of each block, in position
    # order, as a leaf-by-leaf run offers them, ends every block with the
    # search's incumbent, its pre-key and its canonical key.  evaluate
    # runs on packed positions, read back through the kept bytes of the
    # block's covers.  The result reports the witness's diameter
    ref, kept, blocks = _ReferenceLeaves(d, n), [], [0]
    evaluate, block = search._Leaves.evaluate, search._Leaves.block

    def evaluate_once(leaves, pres, covers):
        kept.append(evaluate(leaves, pres, covers))
        live, wider = kept[-1]
        # no leaf of ecc0 below mu is left live
        assert leaves.mu < 1 or not live or wider[leaves.mu - 1] == live
        return kept[-1]

    def block_and_compare(leaves, prefix, covers):
        kept.clear()
        block(leaves, prefix, covers)
        k = leaves.k
        (live, wider), = kept
        for (_, ecc), chosen in zip(_verdicts(live, wider), _block_leaves(
                len(ref.cands), prefix, _unpack(covers, k, live), k)):
            ref.offer(chosen, ecc)
        assert (ref.mu, ref.witness and ref.witness.facets, ref.prekey,
                ref.key) == (leaves.mu, leaves.witness
                             and leaves.witness.facets, leaves.prekey,
                             leaves.key), (prefix, k)
        blocks[0] += 1
    monkeypatch.setattr(search._Leaves, "evaluate", evaluate_once)
    monkeypatch.setattr(search._Leaves, "block", block_and_compare)
    res = enumerate_mu(d, n, SearchBudget(max_nodes=budget))
    assert blocks[0] and ref.mu >= 1
    assert res.mu == diameter(build_dual_graph(ref.witness)) >= ref.mu


def _unpack(covers, k, packed):
    """The block positions of the packed positions of `packed`: packed
    position t is bit t & 7 of the (t >> 3)-th byte of `covers` that holds
    a position."""
    kept = [i for i in range((1 << k) + 7 >> 3) if covers >> 8 * i & 0xFF]
    return sum(1 << 8 * kept[t >> 3] + (t & 7) for t in _positions(packed))


def _packing_cases():
    """(prefix, covers, k, m) blocks: for every k, all positions, the lone
    first and last ones, random ones and clusters between runs of empty
    bytes; then the orbit leaders of the blocks of (2,6), (3,6) and (2,7)
    that keep any."""
    rng = random.Random(33)
    for k in range(17):
        width = 1 << k
        clustered = 0
        for _ in range(4):  # runs of empty bytes between the clusters
            at = rng.randrange(width)
            clustered |= rng.getrandbits(24) << at & (1 << width) - 1
        for covers in ((1 << width) - 1, 1, 1 << width - 1,
                       rng.getrandbits(width), clustered):
            if covers:
                yield 5, covers, k, k + 3
    for d, n in ((2, 6), (3, 6), (2, 7)):
        leaves = search._Leaves(d, n)
        for t in range(1 << leaves.levels):
            for prefix, covers in leaves.blocks(t):
                if covers := leaves.leaders(prefix, covers):
                    yield prefix, covers, leaves.k, len(leaves.cands)


def test_packing_round_trips_a_block():
    # the packed rows give back the block's leaves in position order, as
    # an offered leaf reads them; at_least reads each packed position's
    # set-bit count
    seen = set()
    for prefix, covers, k, m in _packing_cases():
        seen.add(k)
        packed, inc, pops = search._pack(covers, k)
        assert len(pops) == packed.bit_length() + 7 >> 3 and len(inc) == k
        assert packed.bit_count() == covers.bit_count()
        assert all(row & ~packed == 0 for row in inc)
        assert _unpack(covers, k, packed) == covers
        want = list(_block_leaves(m, prefix, covers, k))
        spots = list(_positions(packed))
        positions = list(_positions(covers))
        base = m - k
        held = dict.fromkeys(spots, 0)  # packed position -> candidates
        for j, row in enumerate(inc):
            for t in _positions(row):
                held[t] |= 1 << j
        assert [prefix | held[t] << base for t in spots] == want, (k, covers)
        at_least = search._packing(k)[-1]
        counts = [p.bit_count() for p in positions]
        for c in range(k + 1):
            got = int.from_bytes(pops.translate(at_least[c]), "little")
            assert list(_positions(got & packed)) == [
                t for t, count in zip(spots, counts) if count >= c], (k, c)
    assert seen == set(range(17))


def _positions_mask(width, holds):
    """The mask of the positions p < width for which holds(p) is true."""
    return int("".join("01"[holds(p)] for p in reversed(range(width))), 2)


@cache
def _full_rows(k):
    """For each block candidate j < k, the mask of the positions p < 2^k
    that include it, read off _position_cands."""
    table = _position_cands(k)
    return tuple(_positions_mask(1 << k, lambda p: table[p] >> j & 1)
                 for j in range(k))


def test_position_tables_match_their_definition():
    # the cached full-block rows that the generator and the orbit filter
    # read, at every width
    for k in range(17):
        assert search._rows(k) == _full_rows(k), k
    # the cells of one block width share the one cached copy
    assert search._Leaves(2, 7).rows is search._Leaves(3, 6).rows


def _old_cut(covers, left):
    """The lowest `left` set bits of `covers`, one bit at a time."""
    keep = 0
    for _ in range(left):
        keep |= covers & -covers
        covers &= covers - 1
    return keep


def test_budget_cut_keeps_the_lowest_positions():
    # the bisection keeps what a bit-by-bit cut keeps: every cut of
    # small masks, and the shortest, longest and random cuts of masks up
    # to a width-16 block, sparse and dense
    rng = random.Random(24)
    for _ in range(300):
        mask = rng.getrandbits(rng.randint(1, 24))
        for left in range(1, mask.bit_count()):
            assert search._lowest(mask, left) == _old_cut(mask, left)
    for width in (1 << 5, 1 << 8, 1 << 12, 1 << 16):
        for sparsity in (1, 2, 6):  # about width / 2^sparsity set bits
            mask = reduce(and_, (rng.getrandbits(width)
                                 for _ in range(sparsity)))
            if mask.bit_count() < 2:
                continue
            for left in {1, mask.bit_count() - 1,
                         rng.randrange(1, mask.bit_count())}:
                got = search._lowest(mask, left)
                assert got == _old_cut(mask, left), (width, left)
                assert got.bit_count() == left


def test_sliced_bfs_matches_per_leaf_bfs():
    # random graphs of up to 12 nodes, up to 64 leaves that each hold a
    # random node set and start at one node of it: bit p of far[r] is
    # set exactly when leaf p holds a node farther than r from its start,
    # or one it does not reach; levels past the end equal the last
    rng = random.Random(22)
    cut_off = 0  # leaves whose start misses some node
    for trial in range(400):
        m = rng.randint(1, 12)
        density = rng.random()
        adj = [0] * m
        for i, j in combinations(range(m), 2):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        nbrs = [vertices_of(a) for a in adj]
        leaves = []
        for _ in range(rng.randint(1, 64)):
            held = rng.getrandbits(m) | 1 << rng.randrange(m)
            leaves.append((held, rng.choice(vertices_of(held))))
        pres = [sum(1 << p for p, (held, _) in enumerate(leaves)
                    if held >> i & 1) for i in range(m)]
        frontier = {}
        for p, (_, start) in enumerate(leaves):
            frontier[start] = frontier.get(start, 0) | 1 << p
        far = search._sliced_bfs(nbrs, pres, frontier)
        for p, (held, start) in enumerate(leaves):
            reached, levels = bfs(adj, 1 << start, held)
            cut_off += reached != held
            for r in range(m + 1):
                beyond = reduce(or_, levels[r + 1:], held & ~reached)
                got = far[min(r, len(far) - 1)] >> p & 1
                assert got == bool(beyond), (trial, p, r)
    assert cut_off


@pytest.mark.parametrize("d,n,limit", [(2, 6, None), (3, 6, None),
                                       (4, 6, None), (3, 7, 2048),
                                       (4, 8, 1024)])
def test_block_verdicts_match_the_oracles(d, n, limit):
    # with the incumbent at mu = -1, evaluate keeps exactly a block's
    # connected (S2) leaves, each with its ecc0: every leaf of a cell, or
    # its first `limit` leaves with the block they end in cut to its
    # lowest positions, as a node budget cuts it, and the complex of all
    # candidates as a block of one position.  The reference verdict and
    # ecc0 are checked against is_s2, diameter and eccentricity on every
    # leaf but (3,6)'s 522,775, where they stand alone.  Over a whole
    # cell the largest ecc0 is the largest diameter, the rooted search's
    # lemma
    leaves, ref = search._Leaves(d, n), _ReferenceLeaves(d, n)
    cands = leaves.cands
    m = len(cands)
    reference = (d, n) != (3, 6)
    verdicts, tops = [], {"ecc": -1, "diam": -1}

    def check(prefix, covers, k):
        pres = [covers if prefix >> i & 1 else 0 for i in range(m - k)]
        pres += [covers & s for s in _full_rows(k)]
        verdicts[:] = _verdicts(*leaves.evaluate(pres, covers))
        want = []
        for p, chosen in zip(_positions(covers),
                             _block_leaves(m, prefix, covers, k)):
            diam = ref.verdict(chosen)
            if reference:
                cx = SimplicialComplex(n, tuple(c for i, c in enumerate(cands)
                                                if chosen >> i & 1))
                g = build_dual_graph(cx)
                assert diam == (diameter(g) if is_s2(cx) else None), chosen
            if diam is not None:
                ecc = ref.ecc0(chosen)
                assert ecc <= diam, chosen
                assert not reference or ecc == eccentricity(g, 0), chosen
                want.append((p, ecc))
                tops["ecc"] = max(tops["ecc"], ecc)
                tops["diam"] = max(tops["diam"], diam)
        assert verdicts == want, (prefix, k)
        return covers.bit_count()

    k = leaves.k
    checked = 0
    for prefix, covers in chain.from_iterable(map(leaves.blocks,
                                                  range(1 << leaves.levels))):
        if limit is not None:
            if checked == limit:
                break
            for _ in range(covers.bit_count() - (limit - checked)):
                covers &= ~(1 << covers.bit_length() - 1)
        checked += check(prefix, covers, k)
    assert checked == (search.leaf_count(d, n) if limit is None else limit)
    assert check((1 << m) - 1, 1, 0) == 1 and verdicts
    assert leaves.mu == -1
    if limit is None:
        assert tops["ecc"] == tops["diam"] == enumerate_mu(d, n).mu


# mu (the witness's diameter), canonical witness and leaf count of
# budgeted runs, as computed by the reference evaluator, `diameter` and
# the permutation canonical form; the runs of 200,000 leaves, at block
# width 12, end 3,392 leaves into a block of width 16
@pytest.mark.parametrize("d,n,budget,mu,facets", [
    (3, 7, 20000, 3, (14, 25, 26, 49, 50, 52, 56, 67, 69, 70, 73, 74, 76,
                      84, 97, 98, 100, 104, 112)),
    (4, 8, 2000, 4, (30, 39, 43, 45, 53, 57, 71, 75, 77, 78, 83, 85, 86, 89,
                     90, 92, 99, 101, 102, 105, 106, 108, 113, 114, 116, 120,
                     135, 139, 141, 142, 147, 149, 150, 153, 154, 156, 163,
                     165, 166, 169, 170, 172, 177, 178, 180, 184, 198, 202,
                     204, 209, 210, 212, 216, 225, 226, 228, 232, 240)),
    (3, 7, 200000, 3, (28, 38, 42, 50, 69, 73, 76, 81, 82, 84, 88, 97, 98,
                       100, 104, 112)),
    (4, 7, 200000, 3, (77, 78, 83, 85, 86, 89, 90, 101, 102, 105, 106, 108,
                       113, 114, 116, 120)),
])
def test_budgeted_search_is_pinned(d, n, budget, mu, facets):
    assert budget not in _block_ends(d, n, budget)
    res = enumerate_mu(d, n, budget=SearchBudget(max_nodes=budget))
    assert not res.exhaustive
    assert res.mu == mu and res.witness.facets == facets
    assert res.nodes_explored == budget


def test_mu_4_6_runs_the_separator_check():
    # d >= 4 leaves test the stars of faces of size 1 and 2 for
    # connectedness, as d = 3 leaves test the vertex stars
    res = enumerate_mu(4, 6)
    assert res.mu == 2 and res.exhaustive
    assert res.witness.facets == (53, 58, 60)
    assert res.nodes_explored == 16353
    track(res.witness, res.mu)


# the facets of the leaf that raises, ascending, as a run that offers
# every live leaf in position order computes them
_GATE_FACETS = {
    (2, 6, 3): (3, 12, 20, 24, 33, 34, 36),
    (3, 6, 2): (7, 13, 14, 21, 22, 25, 26, 28, 37, 38, 41, 42, 44, 49, 50,
                52, 56),
    (4, 6, 1): (15, 29, 30, 43, 45, 46, 51, 53, 54, 57, 58, 60),
    (2, 6, 1): (3, 6, 10, 12, 18, 20, 24, 33, 34, 36, 40, 48),
    (2, 7, 3): (3, 12, 20, 24, 33, 34, 36, 65, 66, 68, 96)}


@pytest.mark.parametrize("d,n,best", list(_GATE_FACETS))
def test_bound_gate_fires_inside_blocks(monkeypatch, d, n, best):
    # with the bound lowered below mu, the lowest leaf of ecc0 above it
    # raises, of ecc0 best + 1, not the block's leaf of largest ecc0: the
    # block rules drop only ecc0 <= mu and the leaves that fail (S2).
    # Its first facet is candidate 0, {0..d-1}
    real = search.bounds
    monkeypatch.setattr(search, "bounds",
                        lambda d, n: replace(real(d, n), best=best))
    with pytest.raises(search.BoundViolation) as ei:
        enumerate_mu(d, n)
    cx = ei.value.complex_
    assert is_s2(cx) and cx.facets[0] == (1 << d) - 1
    g = build_dual_graph(cx)
    assert eccentricity(g, 0) == best + 1 <= diameter(g)
    assert cx.facets == _GATE_FACETS[d, n, best]


def test_bound_gate_checks_the_witness_diameter(monkeypatch):
    # (2,7) cut at 12,345 leaves ends with a witness of ecc0 3 and
    # diameter 4: with the bound lowered to 3 no leaf raises inside a
    # block, and the diameter the run would report does
    real = search.bounds
    monkeypatch.setattr(search, "bounds",
                        lambda d, n: replace(real(d, n), best=3))
    with pytest.raises(search.BoundViolation) as ei:
        enumerate_mu(2, 7, SearchBudget(max_nodes=12345))
    assert diameter(build_dual_graph(ei.value.complex_)) == 4


def test_exhaustive_leaf_total_is_checked(monkeypatch):
    monkeypatch.setattr(search, "leaf_count", lambda d, n: 428)
    with pytest.raises(ContractViolation):
        enumerate_mu(2, 5)  # 427 leaves
    # a budgeted run is not held to the total
    assert not enumerate_mu(2, 5, SearchBudget(max_nodes=426)).exhaustive


def test_search_rejects_bad_params(monkeypatch):
    with pytest.raises(BadParams):
        enumerate_mu(1, 5)
    for d, n in [(2.0, 5), (2, 5.0), (True, 5), (2, "5")]:
        with pytest.raises(BadParams):
            enumerate_mu(d, n)
    # n beyond the universe cap is rejected before any candidate is built
    def built(d, n):
        raise AssertionError("candidates built for n=%d" % n)
    monkeypatch.setattr(search, "_Leaves", built)
    with pytest.raises(BadParams):
        enumerate_mu(2, search.MAX_UNIVERSE + 1, SearchBudget(max_nodes=10))


@pytest.mark.parametrize("d,n,leaves", [(3, 5, 497), (2, 6, 14513),
                                         (4, 6, 16353)])
def test_exhaustive_means_no_budget_stopped_a_leaf(d, n, leaves):
    assert enumerate_mu(d, n, SearchBudget(max_nodes=leaves)).exhaustive
    short = enumerate_mu(d, n, SearchBudget(max_nodes=leaves - 1))
    assert not short.exhaustive and short.nodes_explored == leaves - 1


def _reference_task_leaves(cands, levels, task):
    """The recursive include-first DFS the block generator replaced."""
    m = len(cands)
    full = (1 << max(c.bit_length() for c in cands)) - 1
    suffix_cover = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix_cover[i] = suffix_cover[i + 1] | cands[i]

    def dfs(idx, chosen, covered):
        if idx == m:
            if covered == full:
                yield chosen
            return
        if covered | suffix_cover[idx] != full:
            return  # cannot cover the remaining vertices
        yield from dfs(idx + 1, chosen | (1 << idx), covered | cands[idx])
        yield from dfs(idx + 1, chosen, covered)

    chosen = 1
    covered = cands[0]
    for lvl in range(levels):
        if task >> lvl & 1:
            chosen |= 1 << (1 + lvl)
            covered |= cands[1 + lvl]
    return dfs(1 + levels, chosen, covered)


def _positions(mask):
    """The set bits of `mask`, lowest first."""
    bits = format(mask, "b")[::-1]  # bit p of mask at index p
    p = bits.find("1")
    while p >= 0:
        yield p
        p = bits.find("1", p + 1)


def _verdicts(live, wider):
    """(position, diameter) of each leaf of `live`, lowest first: wider[r]
    holds the live leaves of diameter > r."""
    width = live.bit_length()
    rows = [format(w, "b")[::-1].ljust(width, "0") for w in wider if w]
    return [(p, sum(row[p] == "1" for row in rows))
            for p in _positions(live)]


@cache
def _position_cands(k):
    """The block candidates of each position p < 2^k, candidate j at bit
    j: position p includes it exactly when bit k-1-j of p is clear."""
    return [sum(1 << j for j in range(k) if not p >> (k - 1 - j) & 1)
            for p in range(1 << k)]


def _block_leaves(m, prefix, covers, k):
    """A block's leaves in position order."""
    table = _position_cands(k)
    return (prefix | table[p] << (m - k) for p in _positions(covers))


def _expand_blocks(leaves, task):
    """A task's leaves read off its blocks."""
    m, k = len(leaves.cands), leaves.k
    for prefix, covers in leaves.blocks(task):
        assert covers and prefix < 1 << m - k and prefix & 1
        assert covers < 1 << (1 << k)
        yield from _block_leaves(m, prefix, covers, k)


@pytest.mark.parametrize("d,n,leaves", [(2, 3, 3), (3, 5, 497),
                                         (2, 6, 14513), (4, 6, 16353)])
def test_leaf_generator_keeps_the_dfs_order(monkeypatch, d, n, leaves):
    # the search's blocks, and blocks of two levels, expand to the
    # reference leaves in order
    cands = [mask_of(c) for c in combinations(range(n), d)]
    for width in (search._BLOCK_LEVELS, 2):
        monkeypatch.setattr(search, "_BLOCK_LEVELS", width)
        cell = search._Leaves(d, n)
        total = 0
        for task in range(1 << cell.levels):
            got = list(_expand_blocks(cell, task))
            want = list(_reference_task_leaves(cands, cell.levels, task))
            assert got == want, (task, cell.k)
            total += len(got)
        assert total == leaves == search.leaf_count(d, n)


def _checkpoint(tmp_path, *lines):
    ck = tmp_path / "ck.txt"
    text = "\n".join((search.CHECKPOINT_VERSION,) + lines) + "\n"
    ck.write_bytes(text.encode("latin-1"))
    return str(ck)


@pytest.mark.parametrize("lines", [
    (),  # no parameter line
    ("d=2 n=5", "done x 1"),
    ("d=2 n=5", "incumbent 3 zz"),
    ("d=2 n=5", "done 99 1"),  # tasks are 0..7
    ("d=2 n=5", "todo 1"),
    ("d=2 n=5", "done \xff 1"),  # not UTF-8
    ("d=2 n=5", "incumbent 3"),  # covers nothing
    ("d=2 n=5", "incumbent 3 5 a 14 1c"),  # 1c = {2,3,4} is no 2-set
    ("d=2 n=5", "incumbent 3 5 5 a 14 18"),  # a facet twice
    ("d=2 n=5", "incumbent 1 3 c 18"),  # {0,1} is cut off
    ("d=2 n=5", "incumbent 9 3 6 c 18"),  # a path of diameter 3
    ("d=2 n=5", "incumbent 2 3 6 c 18"),
    ("d=2 n=5", "incumbent 2 5 6 c 18"),  # diameter 2, but no {0,1}
    ("d=2 n=5", "done 1"),  # no leaf count
    ("d=2 n=5", "done 1 5", "done 1 5"),  # a task twice
    # a task twice, the second time with its true leaf count
    ("d=2 n=5", "done 0 10", "done 0 45", "incumbent 3 3 6 c 18"),
    # connected (S2) of diameter 3, but no {0,1}
    ("d=2 n=5", "incumbent 3 5 6 a 18"),
])
def test_bad_checkpoint_is_rejected(tmp_path, lines):
    with pytest.raises(BadParams):
        enumerate_mu(2, 5, checkpoint=_checkpoint(tmp_path, *lines))


@pytest.mark.parametrize("d,n,tasks", [(2, 5, range(8)),
                                       (2, 3, (1, 2, 3)),
                                       (2, 6, range(7))])
def test_exhaustive_run_without_witness_is_rejected(tmp_path, d, n, tasks):
    # a checkpoint that marks tasks done must hold the incumbent they
    # found: with every task of (2,5) done the run would end with no
    # witness, and with tasks 0..6 of (2,6) done it would end exhaustive
    # with mu=3, though mu(2,6)=4
    counts = _task_leaf_counts(d, n)
    lines = ["d=%d n=%d" % (d, n)] + ["done %d %d" % (t, counts[t])
                                      for t in tasks]
    with pytest.raises(BadParams):
        enumerate_mu(d, n, checkpoint=_checkpoint(tmp_path, *lines))


def test_checkpoint_waits_for_an_incumbent(tmp_path):
    # task 0 of (2,3) leaves out both other candidates: it has no leaves,
    # so it finishes with no incumbent and no checkpoint is written
    assert list(search._Leaves(2, 3).blocks(0)) == []
    ck = str(tmp_path / "ck.txt")
    stopped = enumerate_mu(2, 3, budget=SearchBudget(max_nodes=0),
                           checkpoint=ck)
    assert not stopped.exhaustive and not os.path.exists(ck)
    resumed, full = enumerate_mu(2, 3, checkpoint=ck), enumerate_mu(2, 3)
    assert resumed.exhaustive and resumed.mu == full.mu == 1
    assert resumed.witness.facets == full.witness.facets


def _task_leaf_counts(d, n):
    """The number of leaves of each task of (d, n), read off its blocks."""
    leaves = search._Leaves(d, n)
    return [sum(covers.bit_count() for _, covers in leaves.blocks(t))
            for t in range(1 << leaves.levels)]


def test_old_checkpoint_format_is_rejected(tmp_path):
    # mu-search-v1 recorded no leaf counts: this file, tasks 0..6 of (2,6)
    # done with a valid mu = 3 incumbent, resumed to an exhaustive mu = 3
    # after 1,984 leaves, though mu(2,6) = 4
    ck = tmp_path / "ck.txt"
    ck.write_text("mu-search-v1\nd=2 n=6\n"
                  + "".join("done %d\n" % t for t in range(7))
                  + "incumbent 3 3 5 9 12 24\n")
    with pytest.raises(BadParams, match="not a mu-search-v2 file"):
        enumerate_mu(2, 6, checkpoint=str(ck))


def test_resumed_leaf_total_is_checked(tmp_path):
    # an exhaustive resumed run must count L(d,n) leaves, those its
    # checkpoint records included; a budgeted one is not held to it
    ck = _checkpoint(tmp_path, "d=2 n=6", "incumbent 3 3 6 c 18 28",
                     *("done %d 0" % t for t in range(7)))
    assert not enumerate_mu(2, 6, SearchBudget(max_nodes=100),
                            checkpoint=ck).exhaustive
    with pytest.raises(BadParams, match="ck.txt: .* counted 1984 leaves"):
        enumerate_mu(2, 6, checkpoint=ck)


def test_resumed_run_ends_as_an_uninterrupted_one(tmp_path):
    # a run cut by its node budget and resumed, with a larger budget and
    # then with none, ends with the uninterrupted run's incumbent and
    # nodes_explored; the checkpoint records each task's leaf count
    ck = str(tmp_path / "ck.txt")
    enumerate_mu(2, 6, SearchBudget(max_nodes=6000), checkpoint=ck)
    done, _ = search._read_checkpoint(ck, 2, 6, 8)
    counts = _task_leaf_counts(2, 6)
    assert done and done == {t: counts[t] for t in done}
    for budget in (10000, None):
        want = enumerate_mu(2, 6, SearchBudget(max_nodes=budget))
        got = enumerate_mu(2, 6, SearchBudget(max_nodes=budget),
                           checkpoint=ck)
        assert (got.mu, got.witness.facets, got.nodes_explored,
                got.exhaustive) == (want.mu, want.witness.facets,
                                    want.nodes_explored, want.exhaustive)
    assert got.nodes_explored == search.leaf_count(2, 6)


def _count_writes(monkeypatch):
    """Record the (done, incumbent) of each checkpoint write, and write it."""
    writes = []
    real = search._write_checkpoint

    def write(path, d, n, done, incumbent):
        writes.append((dict(done), incumbent))
        return real(path, d, n, done, incumbent)
    monkeypatch.setattr(search, "_write_checkpoint", write)
    return writes


@pytest.mark.parametrize("d,n", [(2, 6), (3, 6)])
def test_checkpoint_is_written_by_elapsed_time(tmp_path, monkeypatch, d, n):
    # a run shorter than _CHECKPOINT_SECONDS writes once, at its end, the
    # file a run that writes after every finished task leaves
    writes = _count_writes(monkeypatch)
    seconds = search._CHECKPOINT_SECONDS
    ck = tmp_path / "ck.txt"
    enumerate_mu(d, n, checkpoint=ck)
    assert len(writes) == 1 and set(writes[0][0]) == set(range(8))
    once = ck.read_bytes()
    ck.unlink()
    writes.clear()
    monkeypatch.setattr(search, "_CHECKPOINT_SECONDS", 0)
    enumerate_mu(d, n, checkpoint=ck)
    assert [sorted(done) for done, _ in writes] == [list(range(t + 1))
                                                    for t in range(8)]
    assert ck.read_bytes() == once
    # a budget stop writes the tasks finished before it, once
    for every, count in ((0, 3), (seconds, 1)):
        monkeypatch.setattr(search, "_CHECKPOINT_SECONDS", every)
        ck.unlink()
        writes.clear()
        enumerate_mu(2, 6, SearchBudget(max_nodes=6000), checkpoint=ck)
        assert len(writes) == count and sorted(writes[-1][0]) == [0, 1, 2]


def test_interrupted_run_leaves_its_last_finished_task(tmp_path,
                                                        monkeypatch):
    # task 5 of (4,6) reaches the evaluator (in (2,6) and (3,6) the orbit
    # filter drops it whole); an interrupt there leaves tasks 0..4 done
    # with the incumbent as it was after task 4, not as the unfinished
    # task left it, and the run resumes to the uninterrupted result
    writes = _count_writes(monkeypatch)
    monkeypatch.setattr(search, "_CHECKPOINT_SECONDS", 0)
    full = enumerate_mu(4, 6, checkpoint=tmp_path / "every.txt")
    after_task_4 = writes[4]
    assert sorted(after_task_4[0]) == list(range(5))
    monkeypatch.undo()

    real = search._Leaves.block

    def block(leaves, prefix, covers):
        real(leaves, prefix, covers)
        if prefix >> 1 & 7 == 5:
            leaves.mu += 1  # as if the unfinished task had raised mu
            raise KeyboardInterrupt
    monkeypatch.setattr(search._Leaves, "block", block)
    writes = _count_writes(monkeypatch)
    ck = tmp_path / "ck.txt"
    with pytest.raises(KeyboardInterrupt):
        enumerate_mu(4, 6, checkpoint=ck)
    assert len(writes) == 1
    assert search._read_checkpoint(ck, 4, 6, 8) == after_task_4
    monkeypatch.undo()
    resumed = enumerate_mu(4, 6, checkpoint=ck)
    assert (resumed.mu, resumed.witness.facets, resumed.nodes_explored,
            resumed.exhaustive) == (full.mu, full.witness.facets,
                                    full.nodes_explored, True)
    assert resumed.resumed_leaves == sum(after_task_4[0].values())


_TRUSTED_COUNTS = [1663, 1758, 1758, 1864, 1758, 1864, 1864]


def test_resumed_leaves_are_reported(tmp_path):
    # the leaves a resumed run took on trust: this file's tasks 0..6 with
    # a valid incumbent of ecc0 and diameter 3, the path {0,1} {1,2}
    # {2,3} {3,4} with {3,5}, resume to an exhaustive mu = 3, though
    # mu(2,6) = 4, and the 12,529 trusted leaves show it
    ck = _checkpoint(tmp_path, "d=2 n=6", "incumbent 3 3 6 c 18 28",
                     *("done %d %d" % tc for tc in enumerate(_TRUSTED_COUNTS)))
    res = enumerate_mu(2, 6, checkpoint=ck)
    assert (res.mu, res.exhaustive, res.nodes_explored) == (3, True, 14513)
    assert res.resumed_leaves == sum(_TRUSTED_COUNTS) == 12529
    assert enumerate_mu(2, 6).resumed_leaves == 0


def test_checkpoint_incumbent_is_read_as_its_ecc0(tmp_path):
    # {0,1} {0,2} {0,3} {1,4} {2,5} has diameter 3 ({1,4} to {2,5}) but
    # ecc0 2: a file that records it as 3, as one that recorded diameters
    # did, is refused.  Recorded as 2, it resumes, but the witness the
    # run ends with has diameter 3, which the trusted tasks must have
    # hidden: an exhaustive resumed run refuses that too
    facets = (3, 5, 9, 18, 36)
    g = build_dual_graph(SimplicialComplex(6, facets))
    assert (diameter(g), eccentricity(g, 0)) == (3, 2)
    done = ["done %d %d" % tc for tc in enumerate(_TRUSTED_COUNTS)]
    ck = _checkpoint(tmp_path, "d=2 n=6", "incumbent 3 3 5 9 12 24", *done)
    with pytest.raises(BadParams, match="incumbent .* of ecc0 3"):
        enumerate_mu(2, 6, checkpoint=ck)
    ck = _checkpoint(tmp_path, "d=2 n=6", "incumbent 2 3 5 9 12 24", *done)
    with pytest.raises(BadParams, match="ck.txt: .* diameter 3, ecc0 2"):
        enumerate_mu(2, 6, checkpoint=ck)


@pytest.mark.parametrize("d,n", [(3, 6), (5, 7), (3, 7), (4, 7), (2, 9),
                                 (6, 8)])
def test_golden_witnesses_resume_at_their_mu(d, n):
    # each golden witness, relabeled so that a facet of eccentricity mu
    # is {0..d-1}, re-enters a fresh cell as a checkpoint incumbent of
    # ecc0 mu: as the one position of a full-width block
    golden = json.loads(resources.files("srdual.data").joinpath(
        "mu_%d_%d_golden.json" % (d, n)).read_text())
    mu, cx = golden["mu"], from_masks(golden["witness_facet_masks"], n)
    g = build_dual_graph(cx)
    far = next(f for i, f in enumerate(cx.facets) if eccentricity(g, i) == mu)
    order = vertices_of(far) + vertices_of((1 << n) - 1 ^ far)
    perm = [order.index(v) for v in range(n)]
    facets = relabel(cx, perm).facets
    assert facets[0] == (1 << d) - 1
    leaves = search._Leaves(d, n)
    leaves.resume(mu, facets)
    assert leaves.mu == mu and leaves.witness.facets == facets


def test_exhaustive_witness_diameter_is_checked(monkeypatch):
    # over every leaf the largest ecc0 is the largest diameter, so an
    # exhaustive run whose witness has another diameter is a fault; a
    # budgeted run reports the witness's diameter
    real = search.diameter
    monkeypatch.setattr(search, "diameter", lambda g: real(g) - 1)
    with pytest.raises(ContractViolation, match="diameter 2, ecc0 3"):
        enumerate_mu(2, 5)
    assert enumerate_mu(2, 5, SearchBudget(max_nodes=426)).mu == 2


@pytest.mark.parametrize("checkpoint", [123, "", b"ck.txt", 1.5])
def test_checkpoint_must_be_a_path(monkeypatch, checkpoint):
    # anything but None, a non-empty str or an os.PathLike is refused
    # before any candidate is built
    def built(d, n):
        raise AssertionError("candidates built")
    monkeypatch.setattr(search, "_Leaves", built)
    with pytest.raises(BadParams, match="checkpoint must be"):
        enumerate_mu(2, 5, checkpoint=checkpoint)


def test_checkpoint_may_be_a_path_object(tmp_path):
    ck = tmp_path / "ck.txt"
    assert enumerate_mu(2, 5, checkpoint=ck).resumed_leaves == 0
    assert set(search._read_checkpoint(ck, 2, 5, 8)[0]) == set(range(8))
    resumed = enumerate_mu(2, 5, checkpoint=ck)
    assert resumed.exhaustive and resumed.resumed_leaves == 427


@pytest.mark.parametrize("budget", [SearchBudget(max_nodes=-1),
                                    SearchBudget(max_seconds=-0.5),
                                    SearchBudget(max_seconds=float("nan")),
                                    SearchBudget(max_nodes=2.5),
                                    SearchBudget(max_nodes="5"),
                                    SearchBudget(max_nodes=True),
                                    SearchBudget(max_seconds="1"),
                                    SearchBudget(max_seconds=True)])
def test_negative_budget_is_rejected(budget):
    with pytest.raises(BadParams):
        enumerate_mu(2, 5, budget=budget)
