"""Facet-ridge graphs of pure complexes and BFS distance queries.

Nodes carry the facet labels; the complement labels (the minimal-prime
side) are derivable and only used for display.  Adjacency is stored as
one bitmask of node indices per node.

`diameter` is exact but does not sweep from every node: a sweep bounds
the eccentricity of each node by the source's eccentricity plus the
node's distance to it, and sources that cannot beat the largest
eccentricity found are skipped (the bound rule of Takes and Kosters,
"Determining the diameter of small world networks", 2011).  A long,
path-like dual graph, as of the glued families, takes about three
sweeps; a vertex-transitive one still takes one per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import SimplicialComplex, _is_int, default_names, facet_label
from .errors import DimensionTooSmall, EmptyGraph, NotPure, UnknownNode


class _Unbounded:
    """Diameter of a disconnected graph; never compares equal to an int."""

    def __repr__(self):
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()


@dataclass(frozen=True)
class DualGraph:
    n: int
    d: int
    node_facets: tuple[int, ...]
    adjacency: tuple[int, ...]  # adjacency[i] = bitmask of neighbor indices
    names: Optional[tuple[str, ...]] = None

    @property
    def node_count(self) -> int:
        return len(self.node_facets)

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2

    def node_index(self, facet: int) -> int:
        try:
            return self.node_facets.index(facet)
        except ValueError:
            raise UnknownNode("facet is not a node: %s" % bin(facet)) from None

    def node_label(self, i: int, complement: bool = False) -> str:
        mask = self.node_facets[i]
        if complement:
            mask = ((1 << self.n) - 1) & ~mask
        names = self.names if self.names is not None else default_names(self.n)
        return facet_label(mask, names)


def build_dual_graph(cx: SimplicialComplex) -> DualGraph:
    """One node per facet; edges exactly where |F_i ∩ F_j| = d - 1."""
    d = cx.d
    if d is None:
        raise NotPure("dual graph requires a pure complex")
    if d < 2:
        raise DimensionTooSmall("dual graph requires facet size >= 2")
    facets = cx.facets
    m = len(facets)
    adj = [0] * m
    for i in range(m):
        fi = facets[i]
        for j in range(i + 1, m):
            if (fi & facets[j]).bit_count() == d - 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return DualGraph(cx.n, d, facets, tuple(adj), cx.names)


def bfs(adj, start: int, allowed: int):
    """Breadth-first search over bitset adjacency, inside `allowed`.

    `adj[i]` is the neighbor mask of node i and `start` a mask of start
    nodes.  Returns (reached, levels): the mask of nodes reached and the
    mask of each level, the start first.
    """
    seen = frontier = start
    levels = [start]
    while True:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= adj[b.bit_length() - 1]
            f ^= b
        frontier = nxt & allowed & ~seen
        if not frontier:
            return seen, levels
        seen |= frontier
        levels.append(frontier)


def eccentricity(g: DualGraph, start: int):
    """Max BFS distance from `start`; UNBOUNDED if some node is unreachable."""
    if not (_is_int(start) and 0 <= start < g.node_count):
        raise UnknownNode("not a node index: %r" % (start,))
    everything = (1 << g.node_count) - 1
    reached, levels = bfs(g.adjacency, 1 << start, everything)
    return len(levels) - 1 if reached == everything else UNBOUNDED


def diameter(g: DualGraph):
    """Max over node pairs of BFS distance; UNBOUNDED when disconnected.

    Exact, from eccentricity bounds: a node at distance r from a source
    of eccentricity e has eccentricity at most e + r.  `candidates` holds
    the nodes that might still beat `best`, the largest eccentricity
    swept so far.  Each sweep from v removes the ball of radius best - e
    around v (levels 0 .. best - e), so v itself; when `best` grows, the
    levels of every earlier sweep are re-applied.  Later sources
    alternate between a candidate on the farthest level of the last
    sweep that holds one (it raises `best`) and one on its level nearest
    the middle (a near-centre, whose ball prunes).  The first sweep, from
    node 0, decides UNBOUNDED.  Every sweep removes its source, so there
    are at most node_count of them; on a vertex-transitive graph there
    are exactly that many.
    """
    if g.node_count == 0:
        raise EmptyGraph("diameter of the empty graph")
    adj = g.adjacency
    everything = (1 << g.node_count) - 1
    reached, levels = bfs(adj, 1, everything)
    if reached != everything:
        return UNBOUNDED
    best = 0
    candidates = everything
    sweeps = []  # the levels of every sweep so far
    far = True
    while True:
        e = len(levels) - 1
        sweeps.append(levels)
        if e > best:
            best = e
            for lv in sweeps:  # levels 0 .. best - (len(lv) - 1)
                for level in lv[:best - len(lv) + 2]:
                    candidates &= ~level
        else:
            for level in levels[:best - e + 1]:
                candidates &= ~level
        if not candidates:
            return best
        if far:
            k = e
            while not levels[k] & candidates:
                k -= 1
        else:  # outward from the middle level, e // 2
            for i in range(e + 1):
                k = (e + i) // 2 if (e + i) % 2 == 0 else (e - i) // 2
                if levels[k] & candidates:
                    break
        far = not far
        nxt = levels[k] & candidates
        _, levels = bfs(adj, nxt & -nxt, everything)


def distance_pair(g: DualGraph, a: int, b: int):
    """BFS distance and a shortest path between two node labels (facet masks).

    Returns (dist, path-of-facet-masks), or (UNBOUNDED, None) when b is
    not reachable from a.  Each step back takes the lowest-index
    neighbor on the level before, so paths are deterministic.
    """
    ia, ib = g.node_index(a), g.node_index(b)
    _, levels = bfs(g.adjacency, 1 << ia, (1 << g.node_count) - 1)
    dist = next((k for k, level in enumerate(levels) if level >> ib & 1), None)
    if dist is None:
        return UNBOUNDED, None
    path = [ib]
    for k in range(dist, 0, -1):
        prev = g.adjacency[path[-1]] & levels[k - 1]
        path.append((prev & -prev).bit_length() - 1)
    path.reverse()
    return dist, [g.node_facets[i] for i in path]
