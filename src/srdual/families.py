"""Named fixed complexes and parametric gluing families, in one table.

Each family is one row of `_FAMILIES`: the `FamilyId` fields it reads,
its parameter check, its builder and the diameter the paper states for
it; setting any other field is an error.  Facet lists of the fixed
figures are letter strings (A -> 0, B -> 1, ...).  Every build can
self-check its expected diameter and (S2) verdict; the search hot path
turns that off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .complexes import (SimplicialComplex, _grow, _is_int, cone, from_facets,
                        image, mask_of, vertices_of)
from .dual_graph import build_dual_graph, diameter
from .errors import BadParams, ContractViolation, UnknownFamily
from .gluing import GlueSpec, append_facet_chain, right_vertex_map
from .serre import is_s2


@dataclass(frozen=True)
class FamilyId:
    name: str
    k: Optional[int] = None
    j: Optional[int] = None
    d: Optional[int] = None
    n: Optional[int] = None

    def __str__(self):
        params = ", ".join("%s=%d" % (key, getattr(self, key))
                           for key in "kjdn" if getattr(self, key) is not None)
        return "%s(%s)" % (self.name, params) if params else self.name


def letters(spec: str) -> list[list[int]]:
    """'ABC BDE' -> [[0,1,2],[1,3,4]]."""
    return [[ord(c) - ord("A") for c in word] for word in spec.split()]


def from_letters(spec: str) -> SimplicialComplex:
    return from_facets(letters(spec))


_FIG_A2 = "CDG AEG CEG ADG ABD BCE ABC AEF CDF DEF"
_FIG_A5 = ("AEI BEJ CEH AEH CEJ BEI BDI CDJ ADH BCD ACD ABC "
           "AFI CFH BFJ BFH CFI AFJ BGH CGI AGJ GHJ GHI HIJ")
_DIM4 = ("ABEG BDEG ACEG ACEF BDGH CDFH BDFH CDGH ACFH "
         "CDEF BCDE ABCD ABGH ABCH ABEF BEFH CEGH EFGH")

#: The fixed figures: name -> (facets as letter strings, diameter).  The
#: extended ones hang one more facet off the far end of their base.
_FIGURES = {
    "fig_a1": ("AB BC CD DE", 3),
    "fig_a2": (_FIG_A2, 5),
    "fig_a4": (_FIG_A2 + " DEH", 6),
    "fig_a4_ehi": (_FIG_A2 + " DEH EHI", 7),
    "fig_a5": (_FIG_A5, 9),
    "g2": (_FIG_A5 + " IJK", 10),
    "dim4": (_DIM4, 6),
    "dim4_efgi": (_DIM4 + " EFGI", 7),
}


def _figure(name):
    return from_letters(_FIGURES[name][0])


def _path(n):
    return from_facets([[i, i + 1] for i in range(n - 1)])


def _block(name, start, end):
    """A figure with the facets a chain enters and leaves it by."""
    return _figure(name), mask_of(letters(start)[0]), mask_of(letters(end)[0])


def _chain(blocks, j):
    """Glue blocks end to start, then grow j facets off the last end.

    Each block is (complex, start facet, end facet).  A block's start
    facet is identified with the previous block's end facet, vertices
    matched in ascending index order; the first block's start is unused.
    Blocks are the unnamed figures, so each step is the facet union that
    `glue` would return, taken without `glue`'s (S2) postcondition: a
    build checks (S2) once, under `check=True`.
    """
    cx, _, end = blocks[0]
    for right, start, right_end in blocks[1:]:
        ident = dict(zip(vertices_of(start), vertices_of(end)))
        mapping = right_vertex_map(GlueSpec(cx, right, ident))
        cx = _grow(cx, list(cx.facets) + [image(f, mapping) for f in right.facets],
                   [name for v, name in enumerate(right.vertex_names)
                    if v not in ident])
        end = image(right_end, mapping)
    return append_facet_chain(cx, end, j)


def _d3_blocks(k):
    """k - 1 copies of g2, then fig_a5: the blocks of glued_d3."""
    return [_block("g2", "ABC", "IJK")] * (k - 1) + [_block("fig_a5", "ABC", "HIJ")]


def _k_j(j_min, j_default=None):
    """Parameter check of a glued family: integers k >= 1 and j >= j_min."""
    def params(fam):
        j = fam.j if fam.j is not None else j_default
        if not (_is_int(fam.k) and fam.k >= 1 and _is_int(j) and j >= j_min):
            raise BadParams("%s needs integers k >= 1, j >= %d"
                            % (fam.name, j_min))
        return fam.k, j
    return params


def _path_n(fam):
    if not (_is_int(fam.n) and fam.n >= 3):
        raise BadParams("path2 needs an integer n >= 3")
    return (fam.n,)


def _cell(fam):
    if not (_is_int(fam.d) and _is_int(fam.n)):
        raise BadParams("table1_witness needs integers d and n")
    if (fam.d, fam.n) not in _WITNESSES:
        raise BadParams("no witness recorded for d=%d, n=%d" % (fam.d, fam.n))
    return fam.d, _WITNESSES[fam.d, fam.n]


def _witness(d, base):
    """The witness of a cell of facet size d, coned up from its base."""
    cx = build(base, check=False)
    return cone(cx, d - cx.d) if cx.d < d else cx


class _Family(NamedTuple):
    fields: str  # the FamilyId fields it reads, of "kjdn"
    params: Callable  # FamilyId -> its checked arguments; raises BadParams
    build: Callable  # arguments -> SimplicialComplex
    diameter: Callable  # arguments -> the stated diameter


_FAMILIES = {
    **dict.fromkeys(_FIGURES, _Family(
        "", lambda fam: (fam.name,), _figure, lambda name: _FIGURES[name][1])),
    "path2": _Family("n", _path_n, _path, lambda n: n - 2),
    "glued_d4": _Family(
        "kj", _k_j(0, 0),
        lambda k, j: _chain([_block("dim4", "ABCD", "EFGH")] * k, j),
        lambda k, j: 6 * k + j),
    "glued_d3": _Family(
        "kj", _k_j(0, 0), lambda k, j: _chain(_d3_blocks(k), j),
        lambda k, j: 10 * k - 1 + j),
    "glued_d3_g0": _Family(
        "kj", _k_j(4),
        lambda k, j: _chain([_block("fig_a4", "DEH", "DEH")] + _d3_blocks(k), j - 4),
        lambda k, j: 10 * k + j + 1),
    "table1_witness": _Family(
        "dn", _cell, _witness, lambda d, base: expected_diameter(base)),
}

FAMILY_NAMES = tuple(_FAMILIES)

#: Table 1 of the paper: (d, n) -> the family instance that witnesses it.
TABLE1 = {(2, n): FamilyId("path2", n=n) for n in range(4, 11)}
TABLE1.update({
    (3, 7): FamilyId("fig_a2"),
    (3, 8): FamilyId("fig_a4"),
    (3, 9): FamilyId("fig_a4_ehi"),
    (3, 10): FamilyId("fig_a5"),
    (4, 8): FamilyId("dim4"),
    (4, 9): FamilyId("dim4_efgi"),
})

#: Witnesses by cell.  The table's (3, 6) entry conflicts with the
#: exhaustive mu(3,6) = 3; the cone over a path attains it, since a cone
#: keeps the dual graph.
_WITNESSES = {**TABLE1, (3, 6): FamilyId("path2", n=5)}


def _lookup(fam):
    """The row of fam's family and fam's checked arguments to it."""
    row = _FAMILIES.get(fam.name)
    if row is None:
        raise UnknownFamily(fam.name)
    unread = [key for key in "kjdn"
              if getattr(fam, key) is not None and key not in row.fields]
    if unread:
        raise BadParams("%s takes no %s" % (fam.name, ", ".join(unread)))
    return row, row.params(fam)


def expected_diameter(fam: FamilyId) -> int:
    """Stated diameter of a family instance; raises as `build` does."""
    row, args = _lookup(fam)
    return row.diameter(*args)


def build(fam: FamilyId, check: bool = True) -> SimplicialComplex:
    """Build a family instance; with check, verify diameter and (S2)."""
    row, args = _lookup(fam)
    cx = row.build(*args)
    if check:
        want = expected_diameter(fam)
        got = diameter(build_dual_graph(cx))
        if got != want:
            raise ContractViolation("%s: diameter %r != %d" % (fam, got, want))
        if not is_s2(cx).holds:
            raise ContractViolation("%s: not (S2)" % (fam,))
    return cx
