"""End-to-end acceptance run.

Each test covers one release criterion and prints a single PASS line with
its measured numbers; any assertion failure marks the criterion failed.
"""

import json
import random
import time
from collections import Counter
from functools import reduce
from importlib import resources
from itertools import combinations, permutations
from math import factorial, prod
from operator import or_

from srdual import (
    GlueSpec,
    SearchBudget,
    alexander_dual_ideal,
    bounds,
    build,
    build_dual_graph,
    diameter,
    enumerate_mu,
    from_masks,
    glue,
    is_buchsbaum,
    is_s2,
    linear_syzygy_check,
    verify_bounds,
)
from srdual.complexes import image, mask_of
from srdual.families import FamilyId
from srdual.search import _task_levels, leaf_count
from srdual.serre import connected_components

from conftest import BOUND_CHECKS, corpus, random_pure_complex, track

_TABLE_CELLS = ([(2, n, n - 2) for n in range(4, 11)]
                + [(3, 7, 5), (3, 8, 6), (3, 9, 7), (3, 10, 9),
                   (4, 8, 6), (4, 9, 7)])


def test_criterion_1_table_lower_bounds():
    t0 = time.monotonic()
    for d, n, want in _TABLE_CELLS:
        cx = build(FamilyId("table1_witness", d=d, n=n), check=False)
        assert cx.d == d and cx.n == n
        got = diameter(build_dual_graph(track(cx)))
        assert got == want, (d, n, got, want)
        assert is_s2(cx).holds, (d, n)
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print("PASS criterion 1: 13 table cells rebuilt with exact diameters "
          "in %.1f s (< 10 s)" % elapsed)


def test_criterion_2_mu_2n_exhaustive():
    for n in range(4, 8):
        t0 = time.monotonic()
        res = enumerate_mu(2, n)
        elapsed = time.monotonic() - t0
        assert res.exhaustive and res.mu == n - 2, (n, res.mu)
        track(res.witness, res.mu)
        assert elapsed < 60, (n, elapsed)
    print("PASS criterion 2: mu(2,n) = n-2 exhaustively for n = 4..7, "
          "each cell < 60 s")


def _golden(name):
    return json.loads(resources.files("srdual.data").joinpath(name)
                      .read_text())


def test_criterion_3_mu_3_6_arbitration():
    golden = _golden("mu_3_6_golden.json")
    t0 = time.monotonic()
    res = enumerate_mu(3, 6)
    elapsed = time.monotonic() - t0
    assert res.exhaustive and elapsed < 600
    assert res.mu == golden["mu"] == 3
    assert list(res.witness.facets) == golden["witness_facet_masks"]
    assert golden["exhaustive"] and golden["run_log"]
    track(res.witness, res.mu)
    print("PASS criterion 3: mu(3,6) = %d exhaustively (%d leaves, %.1f s "
          "< 600 s), matching the shipped golden record; the value 3 is "
          "ground truth" % (res.mu, res.nodes_explored, elapsed))


def test_criterion_4_gluing_formulas():
    t0 = time.monotonic()
    for k in (1, 2, 3):
        for j in (0, 1, 2, 3):
            cx = track(build(FamilyId("glued_d4", k=k, j=j), check=False))
            assert diameter(build_dual_graph(cx)) == 6 * k + j
            assert is_s2(cx).holds
    for k in (1, 2, 3):
        cx = track(build(FamilyId("glued_d3", k=k, j=0), check=False))
        assert diameter(build_dual_graph(cx)) == 10 * k - 1
        assert is_s2(cx).holds
    for k in (1, 2):
        for j in (4, 5):
            cx = track(build(FamilyId("glued_d3_g0", k=k, j=j), check=False))
            assert diameter(build_dual_graph(cx)) == 10 * k + j + 1
            assert is_s2(cx).holds
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print("PASS criterion 4: all gluing-family diameter formulas hold and "
          "every instance is (S2), in %.1f s (< 30 s)" % elapsed)


def test_criterion_5_figure7_regeneration():
    t0 = time.monotonic()
    dim4 = build(FamilyId("dim4"), check=False)
    glued = track(glue(GlueSpec(dim4, dim4, {4: 0, 5: 1, 6: 2, 7: 3})))
    assert len(glued.facets) == 35 and glued.n == 12
    assert diameter(build_dual_graph(glued)) == 12
    assert is_s2(glued).holds
    elapsed = time.monotonic() - t0
    assert elapsed < 1
    print("PASS criterion 5: glued double-dim4 has 35 facets, n=12, "
          "diameter 12, (S2), in %.2f s (< 1 s)" % elapsed)


def test_criterion_6_oracle_agreement():
    rng = random.Random(20260826)
    t0 = time.monotonic()
    disagreements = 0
    for _ in range(10000):
        cx = track(random_pure_complex(rng, max_n=8, dims=(2, 3, 4)))
        if is_s2(cx).holds != linear_syzygy_check(alexander_dual_ideal(cx)):
            disagreements += 1
    elapsed = time.monotonic() - t0
    assert disagreements == 0 and elapsed < 300
    print("PASS criterion 6: 10000 random pure complexes, local "
          "connectedness vs dual-ideal linear-syzygy oracle: 0 "
          "disagreements in %.0f s (< 300 s)" % elapsed)


def test_criterion_7_bound_invariant():
    for fam, cx, want in corpus():
        assert verify_bounds(cx, want), str(fam)
        track(cx, want)
    assert BOUND_CHECKS["violations"] == 0
    assert BOUND_CHECKS["count"] >= len(_TABLE_CELLS)
    print("PASS criterion 7: diameter <= best proved bound for all %d "
          "complexes produced so far (corpus, witnesses, fuzz), 0 "
          "violations" % BOUND_CHECKS["count"])


def test_criterion_8_buchsbaum():
    t0 = time.monotonic()
    dim4 = build(FamilyId("dim4"), check=False)
    assert not is_buchsbaum(dim4, field=0)
    assert not is_buchsbaum(dim4, field=2)
    rng = random.Random(8122026)
    for _ in range(1000):
        cx = track(random_pure_complex(rng, max_n=7, dims=(3,)))
        s2 = is_s2(cx).holds
        conn = connected_components(cx) == 1
        for field in (0, 2):
            assert (conn and is_buchsbaum(cx, field)) == s2
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print("PASS criterion 8: dim4 is not Buchsbaum; over 1000 random "
          "pure d=3 complexes, (connected and Buchsbaum) iff (S2) in "
          "characteristic 0 and GF(2), in %.0f s (< 300 s)" % elapsed)


def test_criterion_9_desk_scale_limits_documented():
    # The cells mu(3, n >= 8) and mu(4, 8), and the upper-bound *proofs*,
    # are out of reach here; witness constructions (criterion 4) and the
    # blanket bound invariant (criterion 7) stand in for them.  Show the
    # search degrades honestly: a tiny budget on mu(3, 8) must return a
    # non-exhaustive lower bound that still respects every proved bound.
    res = enumerate_mu(3, 8, budget=SearchBudget(max_nodes=5000))
    assert not res.exhaustive
    assert res.mu >= 0
    if res.witness is not None:
        track(res.witness, res.mu)
    print("PASS criterion 9: non-reproducible items documented — "
          "exhaustive mu(3,n>=8)/mu(4,8) and the upper-bound proofs are "
          "substituted by witness + invariant suites; budgeted mu(3,8) "
          "probe returned mu >= %d with exhaustive=false" % res.mu)


def test_criterion_10_mu_5_7_golden_record():
    golden = _golden("mu_5_7_golden.json")
    t0 = time.monotonic()
    res = enumerate_mu(5, 7)
    elapsed = time.monotonic() - t0
    assert res.exhaustive and elapsed < 600
    assert res.mu == golden["mu"] == bounds(5, 7).best == 2
    assert list(res.witness.facets) == golden["witness_facet_masks"]
    assert res.nodes_explored == golden["nodes_explored"] == leaf_count(5, 7)
    assert golden["exhaustive"] and golden["run_log"]
    track(res.witness, res.mu)
    print("PASS criterion 10: mu(5,7) = %d exhaustively (%d leaves, %.1f s "
          "< 600 s), matching the shipped golden record and the proved "
          "bound" % (res.mu, res.nodes_explored, elapsed))


def _cycle_types(k, most=None):
    """The partitions of k, parts in descending order."""
    if not k:
        yield ()
    for first in range(min(k, most or k), 0, -1):
        for rest in _cycle_types(k - first, first):
            yield (first,) + rest


def _class_size(cycles):
    """The permutations of sum(cycles) points with these cycle lengths."""
    return (factorial(sum(cycles)) // prod(cycles)
            // prod(map(factorial, Counter(cycles).values())))


def _burnside_orbits(d, n):
    """The orbits of the mu(d,n) leaves under G = S_d x S_(n-d), which
    fixes {0..d-1}: per cycle type of G, the class size times the leaves
    one of its elements fixes, summed and divided by |G|.  An element
    fixes a leaf that is a union of its cycles on the candidates; those
    that hold {0..d-1} and cover every vertex are counted by
    inclusion-exclusion over the vertices from d on that they miss."""
    cands = [mask_of(c) for c in combinations(range(n), d)]
    missed = [mask_of(s) for r in range(n - d + 1)
              for s in combinations(range(d, n), r)]
    total = 0
    for low in _cycle_types(d):
        for high in _cycle_types(n - d):
            perm = []  # its cycles on consecutive points
            for c in low + high:
                start = len(perm)
                perm += [start + (i + 1) % c for i in range(c)]
            seen, unions = {cands[0]}, []  # {0..d-1} is its own cycle
            for c in cands:
                union = 0
                while c not in seen:
                    seen.add(c)
                    union |= c
                    c = image(c, perm)
                if union:
                    unions.append(union)
            fixed = sum((-1) ** s.bit_count()
                        * 2 ** sum(not u & s for u in unions) for s in missed)
            total += _class_size(low) * _class_size(high) * fixed
    return total // (factorial(d) * factorial(n - d))


def _orbits_by_relabeling(d, n):
    """The same orbits, counted by taking each leaf's least image."""
    cands = [mask_of(c) for c in combinations(range(n), d)]
    group = [low + high for low in permutations(range(d))
             for high in permutations(range(d, n))]
    least = set()
    for rest in range(1 << len(cands) - 1):
        leaf = [cands[0]] + [c for i, c in enumerate(cands[1:])
                             if rest >> i & 1]
        if reduce(or_, leaf) == (1 << n) - 1:
            least.add(min(tuple(sorted(image(f, g) for f in leaf))
                          for g in group))
    return len(least)


def test_frontier_golden_records():
    # the committed records of the exhaustive frontier runs hold what
    # they claim, checked without re-running them
    assert [_burnside_orbits(d, n) for d, n in ((2, 5), (3, 5), (2, 4))] \
        == [_orbits_by_relabeling(d, n) for d, n in ((2, 5), (3, 5), (2, 4))]
    for d, n in ((3, 7), (4, 7), (2, 9), (6, 8)):
        golden = _golden("mu_%d_%d_golden.json" % (d, n))
        assert golden["cell"] == {"d": d, "n": n}
        assert golden["exhaustive"] and golden["resumed_leaves"] == 0
        assert golden["mu"] == bounds(d, n).best
        tasks = golden["task_leaves"]
        assert len(tasks) == 1 << _task_levels(d, n)
        assert golden["nodes_explored"] == sum(tasks) == leaf_count(d, n)
        cx = from_masks(golden["witness_facet_masks"], n)
        assert cx.d == d
        assert [cx.facet_name(f) for f in cx.facets] == golden["witness_facets"]
        assert is_s2(cx).holds
        assert diameter(build_dual_graph(cx)) == golden["mu"]
        assert golden["burnside_orbits"] == _burnside_orbits(d, n)
        assert golden["run_log"]
    print("PASS golden records: mu(3,7), mu(4,7), mu(2,9) and mu(6,8) each "
          "hold an (S2) witness of diameter mu = bounds(d,n).best, leaf "
          "counts that sum to leaf_count(d,n) and their Burnside orbit "
          "counts")
