"""Serre (S2) oracles, reduced homology, and the Buchsbaum check.

Two independent (S2) tests are provided: local connectedness of the
facet-ridge graph, and the linear-first-syzygy path test on the Alexander
dual ideal.  Each makes one pass over its pairs, which sets the
adjacency and collects the distinct separators (resp. boxes), then takes
one BFS per distinct separator (resp. box), not one per pair.  A box's
generators come from the `miss` stars: the AND, over the variables
outside the box, of the generators without that variable.  The two
share no code past `bfs` and `star_masks`.  Their agreement on pure
complexes is itself a tested invariant, not an assumption.

Homology has one sparse, fraction-free integer elimination for Q and
every GF(p).  Betti numbers come from a face list with the empty face
added.  The two lowest boundary ranks come from connectivity, not
elimination: 1 when there is a vertex, and the vertices less the
components of the 1-skeleton, by a union-find over the edges.  Only
the boundaries from faces of 3 or more vertices are eliminated, so a
graph's homology takes none.  The Buchsbaum check builds every link's
face list in one pass over the complex's face list.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional

from .complexes import (
    MonomialIdeal,
    SimplicialComplex,
    _is_int,
    star_masks,
    vertices_of,
)
from .dual_graph import bfs
from .errors import (
    BadParams,
    DimensionTooSmall,
    EmptyInput,
    NotEquigenerated,
    NotPure,
)


@dataclass(frozen=True)
class S2Verdict:
    holds: bool
    #: (u, v, u∩v) of the lexicographically first failing pair, if any;
    #: None for a complex that fails by not being pure.
    witness: Optional[tuple[int, int, int]] = None

    def __bool__(self):
        return self.holds


def is_locally_connected(cx: SimplicialComplex) -> S2Verdict:
    """Property (i): every facet pair is joined inside its separator star.

    Checking facet pairs suffices: a path for (u, v) whose nodes all
    contain u∩v stays inside the induced subgraph of any s ⊆ u∩v.  So the
    property holds iff the star (the facets containing s, the AND of the
    vertex star masks) of every distinct separator s = u∩v of fewer than
    d-1 vertices is connected; pairs sharing d-1 vertices are edges.  One
    pass over the facet pairs sorts each intersection: d-1 vertices set
    the pair's ridge adjacency, the rule of `build_dual_graph`, and any
    other goes into the separator set.  One BFS per distinct separator
    then tests its star.  Only when a star is split are the pairs with a
    split separator scanned, i before j, to name the first failing one.
    """
    d = cx.d
    if d is None:
        raise NotPure("local connectedness is defined for pure complexes")
    if d < 2:
        raise DimensionTooSmall("need facet size >= 2")
    facets = cx.facets
    m = len(facets)
    ridge = d - 1
    adj = [0] * m
    seps: set[int] = set()
    for i, fi in enumerate(facets):
        bit = 1 << i
        for j in range(i + 1, m):
            sep = fi & facets[j]
            if sep.bit_count() == ridge:
                adj[i] |= 1 << j
                adj[j] |= bit
            else:
                seps.add(sep)
    star = star_masks(facets, cx.n)
    split = {}
    for sep in seps:
        allowed = (1 << m) - 1
        for v in vertices_of(sep):
            allowed &= star[v]
        if bfs(adj, allowed & -allowed, allowed)[0] != allowed:
            split[sep] = allowed
    if split:
        for i, fi in enumerate(facets):
            reached = {}
            for j in range(i + 1, m):
                sep = fi & facets[j]
                if sep in split:
                    if sep not in reached:
                        reached[sep] = bfs(adj, 1 << i, split[sep])[0]
                    if not reached[sep] >> j & 1:
                        return S2Verdict(False, (fi, facets[j], sep))
    return S2Verdict(True)


def is_s2(cx: SimplicialComplex) -> S2Verdict:
    """(S2) = pure + locally connected facet-ridge graph.  The facet
    sizes are read only for a complex that is not pure."""
    if not cx.facets:
        raise EmptyInput("(S2) of a complex with no facets")
    if cx.d is None:
        if max(f.bit_count() for f in cx.facets) < 2:
            raise DimensionTooSmall("need facet size >= 2")
        return S2Verdict(False)
    return is_locally_connected(cx)


def linear_syzygy_check(ideal: MonomialIdeal) -> bool:
    """Syzygy-linearity of an equigenerated squarefree ideal.

    True iff every generator pair (u, v) is joined by a walk of
    generators inside supp(u) ∪ supp(v) whose consecutive supports union
    to degree t+1.  Under complementation this mirrors local
    connectedness of the facet-ridge graph.  A walk for (u, v) inside a
    box B also stays inside any box B' ⊇ B, so this holds iff the
    generators inside each distinct box gi|gj are connected.  One pass
    over the generator pairs sorts each box: t+1 variables set the pair's
    adjacency, and any other box goes into the box set.  The generators
    inside a box are those without any variable outside it, the AND of
    ``miss[v]`` over the variables v outside it, where ``miss[v]`` is the
    star of v among the complements ``universe ^ g``.  One BFS per box
    tests that.
    """
    gens = ideal.generators
    if len({g.bit_count() for g in gens}) != 1:
        raise NotEquigenerated("generators have mixed degrees")
    t = gens[0].bit_count()
    m = len(gens)
    adj = [0] * m
    boxes: set[int] = set()
    for i, gi in enumerate(gens):
        bit = 1 << i
        for j in range(i + 1, m):
            box = gi | gens[j]
            if box.bit_count() == t + 1:
                adj[i] |= 1 << j
                adj[j] |= bit
            else:
                boxes.add(box)
    everything = (1 << m) - 1
    universe = 0
    for g in gens:
        universe |= g
    miss = star_masks([universe ^ g for g in gens], universe.bit_length())
    for box in boxes:
        allowed = everything
        for v in vertices_of(universe & ~box):
            allowed &= miss[v]
        if bfs(adj, allowed & -allowed, allowed)[0] != allowed:
            return False
    return True


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers indexed from -1 up to the complex dimension."""

    reduced_betti: tuple[int, ...]
    field_tag: int  # 0 for characteristic zero, else the prime p

    def betti(self, i: int) -> int:
        return self.reduced_betti[i + 1]


#: Fields from here up are refused before the primality test, whose
#: trial division takes time proportional to the square root of the field.
_FIELD_BOUND = 1 << 31


def _check_field(field):
    """Reject a field that is neither Q (0) nor GF(p) for a prime p below
    _FIELD_BOUND.  The type comes first, so 0.0 and False are not Q."""
    if _is_int(field):
        if field == 0 or (2 <= field < _FIELD_BOUND and all(
                field % q for q in range(2, isqrt(field) + 1))):
            return
    raise BadParams("field must be 0 or a prime below 2^31, not %r"
                    % (field,))


def _rank(rows, field):
    """Rank of sparse integer rows over Q (field=0) or GF(p) (field=p).

    A row is a dict from column to a nonzero int.  Elimination is
    fraction-free: while a row's lowest column leads a kept pivot row, the
    row becomes a*row - b*pivot, where a is the pivot's leading entry and
    b the row's.  A row that is zero is dropped; one that leads a new
    column is kept as it stands, with no scaling to a leading 1.  Since a
    is nonzero in the field, each step keeps the row space.  Over GF(p)
    every entry is reduced mod p; over Q a row scaled by a != 1 is divided
    by the gcd of its entries, so entries cannot grow.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if field:
            row = {c: x % field for c, x in row.items() if x % field}
        else:
            row = dict(row)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            a = piv[lead]
            b = row[lead]
            if a != 1:
                for c, x in row.items():
                    row[c] = a * x % field if field else a * x
            for c, x in piv.items():
                y = row.get(c, 0) - b * x
                if field:
                    y %= field
                if y:
                    row[c] = y
                else:
                    del row[c]
            if a != 1 and not field and row:
                g = gcd(*row.values())
                if g != 1:
                    row = {c: x // g for c, x in row.items()}
    return len(pivots)


def _betti(faces, field):
    """Reduced Betti numbers, from dimension -1 up, of the complex whose
    nonempty faces are `faces`, listed by size.  Faces are numbered
    within their size, the empty face being the one face of size 0.

    The two lowest boundaries need no elimination.  The one from size 1
    to size 0 has rank 1 when there is a vertex.  The one from size 2 to
    size 1 is the signed incidence matrix of the 1-skeleton, whose rank
    over every field is the number of vertices less the number of
    components: the edges that join two components of a union-find
    over the vertices, whose paths are halved inline as each edge is
    numbered.  `_rank` eliminates only the rows of faces of 3
    or more vertices.
    """
    index = {0: 0}
    counts = [1]
    rows: list[list[dict[int, int]]] = [[]]
    root: list[int] = []  # union-find over the vertices, by number
    joins = 0  # rank of the boundary from size 2 to size 1
    for face in faces:
        k = face.bit_count()
        if k == len(counts):
            counts.append(0)
            rows.append([])
        index[face] = counts[k]
        counts[k] += 1
        if k == 1:
            root.append(len(root))
        elif k == 2:
            low = face & -face
            a = index[low]
            while root[a] != a:
                root[a] = a = root[root[a]]
            b = index[face ^ low]
            while root[b] != b:
                root[b] = b = root[root[b]]
            if a != b:
                root[a] = b
                joins += 1
        else:
            row = {}
            sign = 1
            for v in vertices_of(face):
                row[index[face ^ (1 << v)]] = sign
                sign = -sign
            rows[k].append(row)
    # ranks[k] = rank of the boundary from size k to size k-1
    ranks = [0, 1, joins] + [_rank(r, field) for r in rows[3:]]
    ranks = ranks[:len(counts)] + [0]
    return tuple(c - ranks[k] - ranks[k + 1] for k, c in enumerate(counts))


def reduced_betti(cx: SimplicialComplex, field: int = 0) -> BettiVector:
    """Exact reduced Betti numbers over Q (field=0) or GF(p) (field=p)."""
    _check_field(field)
    return BettiVector(_betti(cx.faces(), field), field)


def is_buchsbaum(cx: SimplicialComplex, field: int = 0) -> bool:
    """Pure, and every nonempty face's link has homology only in top dim.

    The faces of lk F are g ^ F for the faces g ⊋ F.  The link of a
    k-face has dimension d-k-1.  Only faces of at most d-2 vertices are
    checked: links of larger faces (point sets and {∅}) have no lower
    homology.  Every link is built in one pass over the face list: each
    face g adds g ^ s to the link of each proper nonempty submask s of
    at most d-2 vertices, so each link's faces come out listed by size.
    The link of a vertex of a 2-dimensional complex is a graph, whose
    homology `_betti` reads off its connectivity, with no elimination.
    """
    _check_field(field)
    d = cx.d
    if d is None:
        return False
    if d < 2:
        raise DimensionTooSmall("need facet size >= 2")
    faces = cx.faces()
    links: dict[int, list[int]] = {f: [] for f in faces
                                   if f.bit_count() <= d - 2}
    for g in faces:
        s = (g - 1) & g
        while s:
            link_faces = links.get(s)
            if link_faces is not None:
                link_faces.append(g ^ s)
            s = (s - 1) & g
    for face, link_faces in links.items():
        if any(_betti(link_faces, field)[:d - face.bit_count()]):
            return False
    return True


def connected_components(cx: SimplicialComplex) -> int:
    """Components of the facets-sharing-a-vertex graph, by `bfs`;
    independent of homology.  A facet's neighbours are the OR of its
    vertices' star masks, read bit by bit."""
    star = star_masks(cx.facets, cx.n)
    adj = []
    for f in cx.facets:
        nbrs = 0
        while f:
            low = f & -f
            nbrs |= star[low.bit_length() - 1]
            f ^= low
        adj.append(nbrs)
    left = (1 << len(adj)) - 1
    count = 0
    while left:
        left &= ~bfs(adj, left & -left, left)[0]
        count += 1
    return count
