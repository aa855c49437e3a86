"""Named builders for the fixed complexes and parametric gluing families.

Facet lists of the fixed examples are embedded as letter strings
(A -> 0, B -> 1, ...).  Every builder can self-check its expected
diameter and (S2) verdict; the search hot path turns that off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from .complexes import (
    SimplicialComplex,
    cone,
    from_facets,
    image,
    mask_of,
    vertices_of,
)
from .dual_graph import build_dual_graph, diameter
from .errors import BadParams, ContractViolation, UnknownFamily
from .gluing import GlueSpec, append_facet_chain, glue, right_vertex_map
from .serre import is_s2

FAMILY_NAMES = (
    "fig_a1", "fig_a2", "fig_a4", "fig_a4_ehi", "fig_a5", "g2",
    "dim4", "dim4_efgi", "path2", "glued_d4", "glued_d3", "glued_d3_g0",
    "table1_witness",
)


@dataclass(frozen=True)
class FamilyId:
    name: str
    k: Optional[int] = None
    j: Optional[int] = None
    d: Optional[int] = None
    n: Optional[int] = None

    def __str__(self):
        parts = [self.name]
        for key in ("k", "j", "d", "n"):
            v = getattr(self, key)
            if v is not None:
                parts.append("%s=%d" % (key, v))
        return "(".join(parts[:1]) + ("(" + ", ".join(parts[1:]) + ")" if len(parts) > 1 else "")


def letters(spec: str) -> list[list[int]]:
    """'ABC BDE' -> [[0,1,2],[1,3,4]]."""
    return [[ord(c) - ord("A") for c in word] for word in spec.split()]


def from_letters(spec: str, universe_size: Optional[int] = None) -> SimplicialComplex:
    return from_facets(letters(spec), universe_size)


_FIG_A1 = "AB BC CD DE"
_FIG_A2 = "CDG AEG CEG ADG ABD BCE ABC AEF CDF DEF"
_FIG_A4 = _FIG_A2 + " DEH"
_FIG_A5 = ("AEI BEJ CEH AEH CEJ BEI BDI CDJ ADH BCD ACD ABC "
           "AFI CFH BFJ BFH CFI AFJ BGH CGI AGJ GHJ GHI HIJ")
_DIM4 = ("ABEG BDEG ACEG ACEF BDGH CDFH BDFH CDGH ACFH "
         "CDEF BCDE ABCD ABGH ABCH ABEF BEFH CEGH EFGH")


def _fig_a1():
    return from_letters(_FIG_A1)


def _fig_a2():
    return from_letters(_FIG_A2)


def _fig_a4():
    return from_letters(_FIG_A4)


def _fig_a4_ehi():
    cx = _fig_a4()
    return append_facet_chain(cx, mask_of(letters("DEH")[0]), 1)


def _fig_a5():
    return from_letters(_FIG_A5)


def _g2():
    # the diameter-9 complex with one more facet hung off its far end
    cx = from_letters(_FIG_A5 + " IJK")
    return cx


def _dim4():
    return from_letters(_DIM4)


def _dim4_efgi():
    return from_letters(_DIM4 + " EFGI")


def _path2(n):
    if n is None or n < 3:
        raise BadParams("path2 needs n >= 3")
    return from_facets([[i, i + 1] for i in range(n - 1)])


def _glue_at(left, left_facet, right, right_facet):
    """Glue right onto left, identifying right_facet with left_facet.

    Vertices are matched in ascending index order; the map of right's
    vertices into the result is returned with it.
    """
    lv, rv = vertices_of(left_facet), vertices_of(right_facet)
    if len(lv) != len(rv):
        raise BadParams("glue facets differ in size")
    spec = GlueSpec(left, right, dict(zip(rv, lv)))
    return glue(spec), right_vertex_map(spec)


def _glued_d4(k, j):
    if k is None or k < 1 or j is None or j < 0:
        raise BadParams("glued_d4 needs k >= 1, j >= 0")
    block = _dim4()
    abcd = mask_of(letters("ABCD")[0])
    efgh = mask_of(letters("EFGH")[0])
    cx = block
    end = efgh
    for _ in range(k - 1):
        cx, mapping = _glue_at(cx, end, block, abcd)
        end = image(efgh, mapping)
    if j:
        cx = append_facet_chain(cx, end, j)
    return cx


def _glued_d3(k, j):
    if k is None or k < 1 or j is None or j < 0:
        raise BadParams("glued_d3 needs k >= 1, j >= 0")
    g1 = _fig_a5()
    g2 = _g2()
    abc = mask_of(letters("ABC")[0])
    ijk = mask_of(letters("IJK")[0])
    hij = mask_of(letters("HIJ")[0])
    cx = None
    end = None
    for _ in range(k - 1):
        if cx is None:
            cx, end = g2, ijk
        else:
            cx, mapping = _glue_at(cx, end, g2, abc)
            end = image(ijk, mapping)
    if cx is None:
        cx, end = g1, hij
    else:
        cx, mapping = _glue_at(cx, end, g1, abc)
        end = image(hij, mapping)
    if j:
        cx = append_facet_chain(cx, end, j)
    return cx


def _glued_d3_g0(k, j):
    if k is None or k < 1 or j is None or j < 4:
        raise BadParams("glued_d3_g0 needs k >= 1, j >= 4")
    g0 = _fig_a4()
    g1 = _fig_a5()
    g2 = _g2()
    abc = mask_of(letters("ABC")[0])
    deh = mask_of(letters("DEH")[0])
    ijk = mask_of(letters("IJK")[0])
    hij = mask_of(letters("HIJ")[0])
    cx, end = g0, deh
    for _ in range(k - 1):
        cx, mapping = _glue_at(cx, end, g2, abc)
        end = image(ijk, mapping)
    cx, mapping = _glue_at(cx, end, g1, abc)
    end = image(hij, mapping)
    if j > 4:
        cx = append_facet_chain(cx, end, j - 4)
    return cx


#: Table 1 of the paper: (d, n) -> (witness builder, its diameter).
TABLE1 = {(2, n): (partial(_path2, n), n - 2) for n in range(4, 11)}
TABLE1.update({
    (3, 7): (_fig_a2, 5),
    (3, 8): (_fig_a4, 6),
    (3, 9): (_fig_a4_ehi, 7),
    (3, 10): (_fig_a5, 9),
    (4, 8): (_dim4, 6),
    (4, 9): (_dim4_efgi, 7),
})

#: Witnesses by cell.  The table's (3, 6) entry conflicts with the
#: exhaustive mu(3,6) = 3; this cone of a path attains it.
_WITNESSES = {**TABLE1, (3, 6): (lambda: cone(_path2(5), 1), 3)}


def _table1_witness(d, n):
    if d is None or n is None:
        raise BadParams("table1_witness needs d and n")
    if (d, n) not in _WITNESSES:
        raise BadParams("no witness recorded for d=%d, n=%d" % (d, n))
    return _WITNESSES[(d, n)][0]()


def expected_diameter(fam: FamilyId) -> Optional[int]:
    """Stated diameter of a family instance, when one is claimed."""
    name, k, j, d, n = fam.name, fam.k, fam.j, fam.d, fam.n
    fixed = {"fig_a1": 3, "fig_a2": 5, "fig_a4": 6, "fig_a4_ehi": 7,
             "fig_a5": 9, "g2": 10, "dim4": 6, "dim4_efgi": 7}
    if name in fixed:
        return fixed[name]
    if name == "path2":
        return n - 2
    if name == "glued_d4":
        return 6 * k + (j or 0)
    if name == "glued_d3":
        return 10 * k - 1 + (j or 0)
    if name == "glued_d3_g0":
        return 10 * k + j + 1
    if name == "table1_witness" and (d, n) in _WITNESSES:
        return _WITNESSES[(d, n)][1]
    return None


def build(fam: FamilyId, check: bool = True) -> SimplicialComplex:
    """Build a family instance; with check, verify diameter and (S2)."""
    name = fam.name
    builders = {
        "fig_a1": _fig_a1,
        "fig_a2": _fig_a2,
        "fig_a4": _fig_a4,
        "fig_a4_ehi": _fig_a4_ehi,
        "fig_a5": _fig_a5,
        "g2": _g2,
        "dim4": _dim4,
        "dim4_efgi": _dim4_efgi,
    }
    if name in builders:
        cx = builders[name]()
    elif name == "path2":
        cx = _path2(fam.n)
    elif name == "glued_d4":
        cx = _glued_d4(fam.k, fam.j if fam.j is not None else 0)
    elif name == "glued_d3":
        cx = _glued_d3(fam.k, fam.j if fam.j is not None else 0)
    elif name == "glued_d3_g0":
        cx = _glued_d3_g0(fam.k, fam.j)
    elif name == "table1_witness":
        cx = _table1_witness(fam.d, fam.n)
    else:
        raise UnknownFamily(name)
    if check:
        want = expected_diameter(fam)
        if want is not None:
            got = diameter(build_dual_graph(cx))
            if got != want:
                raise ContractViolation("%s: diameter %r != %d" % (fam, got, want))
        if not is_s2(cx).holds:
            raise ContractViolation("%s: not (S2)" % (fam,))
    return cx


def corpus():
    """Every fixed figure plus small parameter sweeps, with expectations.

    Yields (FamilyId, complex, expected_diameter, expected_s2).
    """
    fams = [FamilyId(nm) for nm in
            ("fig_a1", "fig_a2", "fig_a4", "fig_a4_ehi", "fig_a5", "g2",
             "dim4", "dim4_efgi")]
    fams += [FamilyId("path2", n=n) for n in range(4, 11)]
    fams += [FamilyId("glued_d4", k=k, j=j) for k in range(1, 4) for j in range(4)]
    fams += [FamilyId("glued_d3", k=k, j=j) for k in range(1, 4) for j in range(4)]
    fams += [FamilyId("glued_d3_g0", k=k, j=j) for k in range(1, 3) for j in (4, 5)]
    out = []
    for fam in fams:
        cx = build(fam, check=False)
        out.append((fam, cx, expected_diameter(fam), True))
    return out
