"""Pure simplicial complexes on a labeled integer vertex universe.

Vertex sets are plain int bitmasks over the universe {0, ..., n-1}; the
helpers below convert between masks and index collections.  Complexes are
immutable: every operation returns a fresh value.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterable, Optional, Sequence

from .errors import (
    BadParams,
    EmptyInput,
    IsolatedVertex,
    NotPure,
    VertexOutOfRange,
)

MAX_UNIVERSE = 128

#: A vertex set is an int bitmask; bit v set means vertex v is a member.
VertexSet = int


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def mask_of(vertices: Iterable[int]) -> VertexSet:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: VertexSet) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def star_masks(facets: Sequence[VertexSet], n: int) -> list[int]:
    """stars[v] = mask of the positions in `facets` whose facet holds v."""
    stars = [0] * n
    for i, f in enumerate(facets):
        bit = 1 << i
        while f:
            low = f & -f
            stars[low.bit_length() - 1] |= bit
            f ^= low
    return stars


def image(mask: VertexSet, mapping) -> VertexSet:
    """The vertex set `mask` under a vertex map (dict or sequence)."""
    return mask_of(mapping[v] for v in vertices_of(mask))


def facet_label(mask: VertexSet, names: Sequence[str]) -> str:
    """Vertex names of `mask`, run together when all are one character."""
    parts = [names[v] for v in vertices_of(mask)]
    if all(len(p) == 1 for p in parts):
        return "".join(parts)
    return " ".join(parts)


def default_names(n: int) -> tuple[str, ...]:
    """A..Z for small universes, x1, x2, ... beyond."""
    letters = string.ascii_uppercase
    if n <= len(letters):
        return tuple(letters[:n])
    return tuple("x%d" % (i + 1) for i in range(n))


def antichain(masks: Iterable[int]) -> list[int]:
    """Maximal elements under containment, deduplicated, ascending order."""
    uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m), reverse=True)
    keep: list[int] = []
    larger: list[int] = []  # kept masks strictly larger than the current size
    size = None
    for m in uniq:
        # distinct masks of one size never contain each other
        if m.bit_count() != size:
            size, larger = m.bit_count(), keep[:]
        if not any(m & k == m for k in larger):
            keep.append(m)
    keep.sort()
    return keep


@dataclass(frozen=True)
class SimplicialComplex:
    """A pure-or-not complex given by its facets (maximal faces).

    ``facets`` is a sorted, containment-free tuple of bitmasks.  The
    single complex {∅} (the void link of a full facet) is represented by
    n == 0 and facets == (0,).
    """

    n: int
    facets: tuple[int, ...]
    names: Optional[tuple[str, ...]] = field(default=None, compare=False)

    @property
    def is_pure(self) -> bool:
        return self.d is not None

    @cached_property
    def d(self) -> Optional[int]:
        """Facet cardinality when pure (ring dimension), else None.

        Derived once per instance: the value lands in the instance
        ``__dict__``, which the frozen dataclass's ``==``, hash and repr
        never read.
        """
        sizes = {f.bit_count() for f in self.facets}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    @property
    def vertex_names(self) -> tuple[str, ...]:
        return self.names if self.names is not None else default_names(self.n)

    def vertex_name(self, v: int) -> str:
        return self.vertex_names[v]

    def facet_name(self, mask: int) -> str:
        return facet_label(mask, self.vertex_names)

    def faces(self):
        """All nonempty faces in (size, mask) order: each facet's nonempty
        submasks, enumerated by s -> (s - 1) & f, sorted by mask and then,
        stably, by size."""
        seen: set[int] = set()
        for f in self.facets:
            s = f
            while s:
                seen.add(s)
                s = (s - 1) & f
        return sorted(sorted(seen), key=int.bit_count)

    def __repr__(self):
        body = ",".join(self.facet_name(f) for f in self.facets)
        return "SimplicialComplex(n=%d, facets=[%s])" % (self.n, body)


def from_masks(masks: Iterable[int], universe_size: Optional[int] = None,
               names: Optional[Sequence[str]] = None) -> SimplicialComplex:
    masks = list(masks)
    if not masks:
        raise EmptyInput("no facets given")
    union = 0
    for m in masks:
        if not (type(m) is int or _is_int(m)):  # a call only when rare
            raise BadParams("facet masks must be integers, not %r" % (m,))
        union |= m
    if not (universe_size is None or _is_int(universe_size)):
        raise BadParams("universe size must be an integer, not %r"
                        % (universe_size,))
    if any(m == 0 for m in masks):
        raise EmptyInput("empty facet in input")
    if any(m < 0 for m in masks):
        raise VertexOutOfRange("negative vertex")
    top = union.bit_length()
    if top > MAX_UNIVERSE:
        raise VertexOutOfRange("universe larger than %d vertices" % MAX_UNIVERSE)
    if universe_size is None:
        universe_size = top
    elif top > universe_size:
        raise VertexOutOfRange("facet vertex beyond universe of size %d" % universe_size)
    if union != (1 << universe_size) - 1:
        missing = [v for v in range(universe_size) if not (union >> v) & 1]
        raise IsolatedVertex("universe vertices in no facet: %s" % missing)
    if names is not None:
        names = tuple(names)
        if len(names) != universe_size:
            raise BadParams("name table size != universe size")
        # the names a facet file can hold, as parse_facet_file reads them
        for name in names:
            if not (isinstance(name, str) and name.split() == [name]
                    and "#" not in name):
                raise BadParams("vertex names must be non-empty strings "
                                "without whitespace or '#', not %r" % (name,))
        if len(set(names)) < len(names):
            raise BadParams("vertex names must be distinct")
    return SimplicialComplex(universe_size, tuple(antichain(masks)), names)


def from_facets(facet_list: Iterable[Iterable[int]],
                universe_size: Optional[int] = None,
                names: Optional[Sequence[str]] = None) -> SimplicialComplex:
    """Build a complex from facets given as vertex-index collections.

    Contained and duplicate facets are silently dropped (antichain
    reduction); the universe defaults to the union of the facets.
    """
    masks = []
    for f in facet_list:
        m = 0
        for v in f:  # mask_of, after the checks that keep 1 << v small
            if not (type(v) is int or _is_int(v)):  # a call only when rare
                raise BadParams("vertex %r is not an integer" % (v,))
            if not 0 <= v < MAX_UNIVERSE:
                raise VertexOutOfRange("vertex %d outside 0..%d"
                                       % (v, MAX_UNIVERSE - 1))
            m |= 1 << v
        masks.append(m)
    if not masks:
        raise EmptyInput("no facets given")
    return from_masks(masks, universe_size, names)


def compact(facets: Iterable[int],
            names: Optional[Sequence[str]] = None) -> SimplicialComplex:
    """Complex on just the vertices `facets` use, relabeled in order.

    `names`, if given, names the old universe; the result keeps the names
    of the vertices it retains.
    """
    facets = list(facets)
    used = 0
    for f in facets:
        used |= f
    old = vertices_of(used)
    pos = {v: i for i, v in enumerate(old)}
    remapped = sorted(image(f, pos) for f in facets)
    kept = tuple(names[v] for v in old) if names is not None else None
    return SimplicialComplex(len(old), tuple(remapped), kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """Squarefree monomial ideal given by generator supports (bitmasks)."""

    n: int
    generators: tuple[int, ...]


def alexander_dual_ideal(cx: SimplicialComplex) -> MonomialIdeal:
    """Generators are the facet complements inside the universe."""
    if not cx.is_pure:
        raise NotPure("Alexander dual requires a pure complex")
    full = (1 << cx.n) - 1
    gens = tuple(sorted(full & ~f for f in cx.facets))
    return MonomialIdeal(cx.n, gens)


def _grow(cx: SimplicialComplex, facets: Iterable[int],
          fresh_names: Iterable[str]) -> SimplicialComplex:
    """The complex of `facets`, reduced to an antichain, on cx's vertices
    and then one fresh vertex per entry of `fresh_names`, in order.

    A named cx names each fresh vertex by its entry, primed until unused.
    `fresh_names` is read up to one entry past the MAX_UNIVERSE cap, and
    `facets` only once the cap holds, so lazy arguments cost no more.
    """
    names = list(cx.vertex_names)
    for name in islice(fresh_names, MAX_UNIVERSE - cx.n + 1):
        while name in names:
            name += "'"
        names.append(name)
    if len(names) > MAX_UNIVERSE:
        raise VertexOutOfRange("universe larger than %d vertices" % MAX_UNIVERSE)
    return SimplicialComplex(len(names), tuple(antichain(facets)),
                             tuple(names) if cx.names is not None else None)


def cone(cx: SimplicialComplex, extra: int) -> SimplicialComplex:
    """Add the same `extra` fresh vertices, named c0, c1, ..., to every facet."""
    if not (_is_int(extra) and extra >= 1):
        raise BadParams("cone needs an integer extra >= 1, not %r" % (extra,))
    # lazy, so that no apex is built for an extra past the cap
    return _grow(cx, (f | ((1 << extra) - 1) << cx.n for f in cx.facets),
                 ("c%d" % i for i in range(extra)))
