"""Serre (S2) oracles, reduced homology, and the Buchsbaum check.

Two independent (S2) tests are provided: local connectedness of the
facet-ridge graph, and the linear-first-syzygy path test on the Alexander
dual ideal.  Their agreement on pure complexes is itself a tested
invariant, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .complexes import (
    MonomialIdeal,
    SimplicialComplex,
    alexander_dual_ideal,
    link,
    mask_of,
    star_masks,
    vertices_of,
)
from .dual_graph import bfs, build_dual_graph
from .errors import DimensionTooSmall, NotEquigenerated, NotPure, UnsupportedLevel


@dataclass(frozen=True)
class S2Verdict:
    holds: bool
    #: (u, v, u∩v) of the lexicographically first failing pair, if any.
    witness: Optional[tuple[int, int, int]] = None
    reason: Optional[str] = None

    def __bool__(self):
        return self.holds


def is_locally_connected(cx: SimplicialComplex) -> S2Verdict:
    """Property (i): every facet pair is joined inside its separator star.

    Checking facet pairs suffices: a path for (u, v) whose nodes all
    contain u∩v stays inside the induced subgraph of any s ⊆ u∩v.  Pairs
    are visited with i before j; pairs sharing d-1 vertices are edges.
    Each distinct separator keeps the components found in its star (the
    AND of the vertex star masks), so no component is searched twice.
    """
    d = cx.d
    if d is None:
        raise NotPure("local connectedness is defined for pure complexes")
    if d < 2:
        raise DimensionTooSmall("need facet size >= 2")
    g = build_dual_graph(cx)
    facets = g.node_facets
    m = len(facets)
    star = star_masks(facets, cx.n)
    by_sep: dict[int, tuple[int, list[int]]] = {}
    for i in range(m):
        fi = facets[i]
        bit = 1 << i
        for j in range(i + 1, m):
            sep = fi & facets[j]
            if sep.bit_count() >= d - 1:
                continue
            if sep not in by_sep:
                allowed = (1 << m) - 1
                for v in vertices_of(sep):
                    allowed &= star[v]
                by_sep[sep] = (allowed, [])
            allowed, comps = by_sep[sep]
            comp = next((c for c in comps if c & bit), 0)
            if not comp:
                comp = bfs(g.adjacency, bit, allowed)[0]
                comps.append(comp)
            if not comp >> j & 1:
                return S2Verdict(False, (fi, facets[j], sep))
    return S2Verdict(True)


def is_s2(cx: SimplicialComplex) -> S2Verdict:
    """(S2) = pure + locally connected facet-ridge graph."""
    sizes = {f.bit_count() for f in cx.facets}
    if max(sizes) < 2:
        raise DimensionTooSmall("need facet size >= 2")
    if len(sizes) != 1:
        return S2Verdict(False, reason="not pure")
    return is_locally_connected(cx)


def check_s_level(cx: SimplicialComplex, level: int) -> bool:
    """Serre level check; only levels 1 and 2 have combinatorial tests."""
    if level == 1:
        return True
    if level == 2:
        return is_s2(cx).holds
    raise UnsupportedLevel("no combinatorial (S_%d) criterion" % level)


def linear_syzygy_check(ideal: MonomialIdeal) -> bool:
    """Syzygy-linearity of an equigenerated squarefree ideal.

    True iff every generator pair (u, v) is joined by a walk of
    generators inside supp(u) ∪ supp(v) whose consecutive supports union
    to degree t+1.  Under complementation this mirrors local
    connectedness of the facet-ridge graph.  The generators inside a box
    are those with no variable outside it, read off the variable star
    masks; each distinct box keeps the components found in it.
    """
    gens = ideal.generators
    if len({g.bit_count() for g in gens}) != 1:
        raise NotEquigenerated("generators have mixed degrees")
    t = gens[0].bit_count()
    m = len(gens)
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if (gens[i] | gens[j]).bit_count() == t + 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    everything = (1 << m) - 1
    universe = 0
    for g in gens:
        universe |= g
    gstar = star_masks(gens, universe.bit_length())
    by_box: dict[int, tuple[int, list[int]]] = {}
    for i in range(m):
        bit = 1 << i
        for j in range(i + 1, m):
            box = gens[i] | gens[j]
            if box not in by_box:
                outside = 0
                for v in vertices_of(universe & ~box):
                    outside |= gstar[v]
                by_box[box] = (everything & ~outside, [])
            allowed, comps = by_box[box]
            comp = next((c for c in comps if c & bit), 0)
            if not comp:
                comp = bfs(adj, bit, allowed)[0]
                comps.append(comp)
            if not comp >> j & 1:
                return False
    return True


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers indexed from -1 up to the complex dimension."""

    reduced_betti: tuple[int, ...]
    field_tag: int  # 0 for characteristic zero, else the prime p

    def betti(self, i: int) -> int:
        return self.reduced_betti[i + 1]


def _rank_q(rows):
    """Rank over the rationals by fraction-free style elimination."""
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


def _rank_mod_p(rows, p):
    """Rank over GF(p), p prime, by Gaussian elimination."""
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


def reduced_betti(cx: SimplicialComplex, field: int = 0) -> BettiVector:
    """Exact reduced Betti numbers over Q (field=0) or GF(p) (field=p)."""
    if cx.facets == (0,):
        # The {∅} complex: one (-1)-cell and nothing else.
        return BettiVector((1,), field)
    # faces graded by dimension; grade k holds (k+1)-element faces
    by_dim: list[dict[int, int]] = []
    for face in cx.faces():
        k = face.bit_count() - 1
        while len(by_dim) <= k:
            by_dim.append({})
        by_dim[k][face] = len(by_dim[k])
    top = len(by_dim) - 1

    def boundary_rows(k):
        """Rows of ∂_k: C_k -> C_{k-1} (one row per k-face)."""
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
        rank = _rank_q
    else:
        rank = lambda rows: _rank_mod_p(rows, field)  # noqa: E731

    ranks = [rank(boundary_rows(k)) for k in range(top + 1)]
    ranks.append(0)  # rank of ∂_{top+1}
    betti = [1 - ranks[0]]  # reduced beta_{-1}; zero for nonempty complexes
    for k in range(top + 1):
        betti.append(len(by_dim[k]) - ranks[k] - ranks[k + 1])
    return BettiVector(tuple(betti), field)


def is_buchsbaum(cx: SimplicialComplex, field: int = 0) -> bool:
    """Pure, and every nonempty face's link has homology only in top dim."""
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
        bv = reduced_betti(lk, field)
        if any(bv.betti(i) for i in range(-1, top)):
            return False
    return True


def connected_components(cx: SimplicialComplex) -> int:
    """Union-find on facets sharing a vertex; independent of homology."""
    parent = list(range(len(cx.facets)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, fi in enumerate(cx.facets):
        for j in range(i + 1, len(cx.facets)):
            if fi & cx.facets[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    return len({find(i) for i in range(len(cx.facets))})


def s2_oracle_pair(cx: SimplicialComplex) -> tuple[bool, bool]:
    """(graph oracle, syzygy oracle) — must agree on pure complexes."""
    graph_side = is_s2(cx).holds
    syz_side = linear_syzygy_check(alexander_dual_ideal(cx))
    return graph_side, syz_side
