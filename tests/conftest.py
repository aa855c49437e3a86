import random
from itertools import combinations

from srdual import (DualGraph, SimplicialComplex, antichain, build,
                    expected_diameter, from_masks, is_s2, mask_of,
                    verify_bounds)
from srdual.complexes import compact, image
from srdual.families import _FIGURES, FamilyId

#: every complex any test produces goes through here; the bound invariant
#: is enforced on the spot and the tally is reported by the acceptance run.
BOUND_CHECKS = {"count": 0, "violations": 0}


def track(cx, diam=None):
    """Enforce the construction invariants on every complex, then the
    diameter-vs-proved-bounds invariant on (S2) complexes.

    Facets must be ascending, distinct, containment-free and inside the
    universe, and a name table must name the n vertices apart.  The
    mu(d,n) bounds say nothing about complexes that fail (S2), so those
    pass the bound check unchecked.
    """
    fs = cx.facets
    if (any(f >= g or f & g == f for f, g in combinations(fs, 2))
            or any(f >> cx.n for f in fs)
            or cx.names is not None
            and not len(cx.names) == len(set(cx.names)) == cx.n):
        raise AssertionError("construction invariant broken: %r %r"
                             % (cx, cx.names))
    d = cx.d
    if d is None or d < 2 or d >= cx.n or not is_s2(cx).holds:
        return cx
    BOUND_CHECKS["count"] += 1
    if not verify_bounds(cx, diam):
        BOUND_CHECKS["violations"] += 1
        raise AssertionError("bound violation: %r" % (cx,))
    return cx


def random_pure_complex(rng: random.Random, max_n=8, dims=(2, 3, 4)):
    """Random pure complex with no isolated vertices (universe compacted)."""
    while True:
        d = rng.choice(list(dims))
        n = rng.randint(d + 1, max_n)
        pool = [mask_of(c) for c in combinations(range(n), d)]
        k = rng.randint(2, min(len(pool), 3 * n))
        cx = compact(rng.sample(pool, k))
        if cx.n > d:
            return cx


def induced_on_superfacets(g: DualGraph, s: int) -> DualGraph:
    """Restrict to nodes whose facet contains s; s == 0 keeps everything.

    The separator-star subgraph, built node by node: the (S2) witness
    references use it as an oracle independent of the star masks.
    """
    keep = [i for i, f in enumerate(g.node_facets) if f & s == s]
    pos = {i: k for k, i in enumerate(keep)}
    adj = []
    for i in keep:
        m = 0
        nbrs = g.adjacency[i]
        while nbrs:
            bit = nbrs & -nbrs
            j = bit.bit_length() - 1
            if j in pos:
                m |= 1 << pos[j]
            nbrs ^= bit
        adj.append(m)
    return DualGraph(g.n, g.d, tuple(g.node_facets[i] for i in keep),
                     tuple(adj), g.names)


def relabel(cx, perm):
    """Apply a vertex permutation; perm[v] is the new label of v.

    The oracle of relabel invariance (canonical form, diameter, (S2)).
    """
    if sorted(perm) != list(range(cx.n)):
        raise ValueError("perm is not a bijection on 0..%d" % (cx.n - 1))
    facets = [image(f, perm) for f in cx.facets]
    names = None
    if cx.names is not None:
        names = list(cx.names)
        for v, w in enumerate(perm):
            names[w] = cx.names[v]
        names = tuple(names)
    return SimplicialComplex(cx.n, tuple(sorted(facets)), names)


def complex_of_ideal(ideal):
    """Inverse of alexander_dual_ideal (complementation is an involution):
    the oracle of its round trip."""
    full = (1 << ideal.n) - 1
    return from_masks([full & ~g for g in ideal.generators], ideal.n)


def link(cx, face):
    """Link of a face: residues of the facets containing it.

    The result lives on a compacted universe of the vertices that appear;
    link(cx, 0) is cx, and the link of a whole facet is the {∅} complex.
    The oracle of the Buchsbaum check, which reads links off the face list.
    """
    if face == 0:
        return cx
    residues = antichain(f & ~face for f in cx.facets if face & f == face)
    if residues == [0]:
        return SimplicialComplex(0, (0,))
    return compact(residues, cx.vertex_names)


def corpus():
    """Every fixed figure plus small parameter sweeps, all of them (S2).

    Returns (FamilyId, complex, expected diameter) rows.
    """
    fams = [FamilyId(name) for name in _FIGURES]
    fams += [FamilyId("path2", n=n) for n in range(4, 11)]
    fams += [FamilyId("glued_d4", k=k, j=j) for k in range(1, 4) for j in range(4)]
    fams += [FamilyId("glued_d3", k=k, j=j) for k in range(1, 4) for j in range(4)]
    fams += [FamilyId("glued_d3_g0", k=k, j=j) for k in range(1, 3) for j in (4, 5)]
    return [(fam, build(fam, check=False), expected_diameter(fam))
            for fam in fams]
