"""Serre-level-preserving gluing of pure complexes, plus chain appends.

Gluing identifies some right-hand vertices with left-hand vertices and
takes the union of the facet sets; the overlap complex must be pure of
dimension at least d-2 and satisfy the Serre level one below the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Mapping

from .complexes import (
    SimplicialComplex,
    _grow,
    _is_int,
    antichain,
    compact,
    default_names,
    image,
)
from .errors import (
    BadParams,
    ContractViolation,
    DimensionMismatch,
    NotAFacet,
    OverlapNotPure,
    OverlapSerreFailure,
    OverlapTooSmall,
    UnsupportedLevel,
)
from .serre import is_s2


@dataclass(frozen=True)
class GlueSpec:
    left: SimplicialComplex
    right: SimplicialComplex
    #: right-vertex -> left-vertex, injective
    identify: Mapping[int, int] = field(default_factory=dict)
    level: int = 2


def right_vertex_map(spec: GlueSpec) -> dict[int, int]:
    """Map right vertices into the result universe; fresh ones after left."""
    ident = dict(spec.identify)
    if not all(_is_int(v) for pair in ident.items() for v in pair):
        raise BadParams("identification map holds a non-integer: %r" % (ident,))
    if len(set(ident.values())) != len(ident):
        raise BadParams("identification map is not injective")
    for a, b in ident.items():
        if not 0 <= a < spec.right.n:
            raise BadParams("right vertex %d out of range" % a)
        if not 0 <= b < spec.left.n:
            raise BadParams("left vertex %d out of range" % b)
    fresh = count(spec.left.n)
    return {v: ident[v] if v in ident else next(fresh)
            for v in range(spec.right.n)}


def overlap_facets(left_facets, right_facets):
    """Maximal common faces of two facet lists (pairwise intersections)."""
    inters = {f & g for f in left_facets for g in right_facets}
    inters.discard(0)
    if not inters:
        return []
    return antichain(inters)


def glue(spec: GlueSpec) -> SimplicialComplex:
    dl, dr = spec.left.d, spec.right.d
    if dl is None or dr is None or dl != dr:
        raise DimensionMismatch("both complexes must be pure of equal facet size")
    d = dl
    if not (_is_int(spec.level) and spec.level >= 2):
        raise BadParams("glue targets an integer Serre level >= 2, not %r"
                        % (spec.level,))
    if spec.level > 3:
        raise UnsupportedLevel("(S_%d) precondition not checkable" % (spec.level - 1))

    mapping = right_vertex_map(spec)
    right_facets = [image(f, mapping) for f in spec.right.facets]
    gamma = overlap_facets(spec.left.facets, right_facets)
    if not gamma:
        raise OverlapTooSmall("complexes share no face")
    sizes = {f.bit_count() for f in gamma}
    if len(sizes) != 1:
        raise OverlapNotPure("overlap maximal faces have sizes %s" % sorted(sizes))
    if sizes.pop() < d - 1:  # dimension >= d-2
        raise OverlapTooSmall("overlap dimension below d-2")
    if spec.level == 3:
        if not is_s2(compact(gamma)).holds:
            raise OverlapSerreFailure("overlap is not (S_2)")

    result = _grow(spec.left, list(spec.left.facets) + right_facets,
                   [name for v, name in enumerate(spec.right.vertex_names)
                    if v not in spec.identify])
    if spec.level == 2:
        # a result without (S2) breaks the contract only when both inputs
        # have it, so the inputs are checked only then
        verdict = is_s2(result)
        if (not verdict.holds and is_s2(spec.left).holds
                and is_s2(spec.right).holds):
            raise ContractViolation("gluing broke (S2): %r" % (verdict.witness,))
    return result


def append_facet_chain(cx: SimplicialComplex, start: int,
                       steps: int) -> SimplicialComplex:
    """Grow a rolling-window chain of facets off an existing facet.

    Each step drops the oldest retained vertex of the previous end facet
    and adds one fresh vertex, so consecutive chain facets share d-1
    vertices.  steps == 0 returns a copy of cx.
    """
    if start not in cx.facets:
        raise NotAFacet("chain start must be a facet")
    if not (_is_int(steps) and steps >= 0):
        raise BadParams("steps must be an integer >= 0, not %r" % (steps,))
    fresh = range(cx.n, cx.n + steps)

    def facets(f=start):  # lazy: _grow checks the cap before it reads these
        yield from cx.facets
        for v in fresh:
            f = f ^ (f & -f) | 1 << v  # drop the lowest, oldest vertex; add v
            yield f
    return _grow(cx, facets(), (default_names(v + 1)[v] for v in fresh))
