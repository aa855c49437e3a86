"""Facet-ridge graphs of pure complexes and BFS distance queries.

Nodes carry the facet labels; the complement labels (the minimal-prime
side) are derivable and only used for display.  Adjacency is stored as
one bitmask of node indices per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import SimplicialComplex, default_names, facet_label
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
    everything = (1 << g.node_count) - 1
    reached, levels = bfs(g.adjacency, 1 << start, everything)
    return len(levels) - 1 if reached == everything else UNBOUNDED


def diameter(g: DualGraph):
    """Max over node pairs of BFS distance; UNBOUNDED when disconnected."""
    if g.node_count == 0:
        raise EmptyGraph("diameter of the empty graph")
    best = 0
    for i in range(g.node_count):
        e = eccentricity(g, i)
        if e is UNBOUNDED:
            return UNBOUNDED
        if e > best:
            best = e
    return best


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
