"""Serre-level-preserving gluing of pure complexes, plus chain appends.

Gluing identifies some right-hand vertices with left-hand vertices and
takes the union of the facet sets; the overlap complex must be pure of
dimension at least d-2 and satisfy the Serre level one below the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .complexes import (
    SimplicialComplex,
    _is_int,
    antichain,
    compact,
    default_names,
    image,
    mask_of,
    vertices_of,
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
    if len(set(ident.values())) != len(ident):
        raise BadParams("identification map is not injective")
    for a, b in ident.items():
        if not 0 <= a < spec.right.n:
            raise BadParams("right vertex %d out of range" % a)
        if not 0 <= b < spec.left.n:
            raise BadParams("left vertex %d out of range" % b)
    mapping = {}
    fresh = spec.left.n
    for v in range(spec.right.n):
        if v in ident:
            mapping[v] = ident[v]
        else:
            mapping[v] = fresh
            fresh += 1
    return mapping


def _fresh_name(name: str, taken) -> str:
    """`name` with primes appended until it is not in `taken`."""
    while name in taken:
        name += "'"
    return name


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
    total_n = spec.left.n + spec.right.n - len(spec.identify)
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

    names = None
    if spec.left.names is not None:
        names = list(spec.left.names)
        for v in range(spec.right.n):
            if v not in spec.identify:
                names.append(_fresh_name(spec.right.vertex_name(v), names))
        names = tuple(names)

    result = SimplicialComplex(
        total_n, tuple(antichain(list(spec.left.facets) + right_facets)), names)
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
    vertices.  steps == 0 returns cx unchanged.
    """
    if start not in cx.facets:
        raise NotAFacet("chain start must be a facet")
    if not (_is_int(steps) and steps >= 0):
        raise BadParams("steps must be an integer >= 0, not %r" % (steps,))
    if steps == 0:
        return cx
    window = vertices_of(start)  # ascending: lowest index is dropped first
    facets = list(cx.facets)
    names = list(cx.names) if cx.names is not None else None
    fresh = cx.n
    for _ in range(steps):
        window = window[1:] + [fresh]
        facets.append(mask_of(window))
        if names is not None:
            names.append(_fresh_name(default_names(fresh + 1)[fresh], names))
        fresh += 1
    return SimplicialComplex(fresh, tuple(antichain(facets)),
                             tuple(names) if names is not None else None)
