import argparse

import pytest

from srdual import (
    build,
    build_dual_graph,
    canonical_form,
    diameter,
    expected_diameter,
    is_s2,
)
from srdual import families
from srdual.cli import build_parser
from srdual.complexes import from_masks, image, mask_of, vertices_of
from srdual.errors import (BadParams, ContractViolation, SrdualError,
                           UnknownFamily, VertexOutOfRange)
from srdual.families import FAMILY_NAMES, FamilyId, letters
from srdual.gluing import GlueSpec, append_facet_chain, glue, right_vertex_map
from srdual.serre import S2Verdict

from conftest import corpus, track


def test_corpus_expectations():
    for fam, cx, want_diam in corpus():
        got = diameter(build_dual_graph(cx))
        assert got == want_diam, "%s: %r != %r" % (fam, got, want_diam)
        assert is_s2(cx).holds, str(fam)
        track(cx, got)


def test_glued_d4_base_is_figure7():
    cx = build(FamilyId("glued_d4", k=2, j=0))
    assert cx.n == 12 and len(cx.facets) == 35
    assert diameter(build_dual_graph(cx)) == 12


def test_glued_d3_k1_is_fig_a5():
    one = build(FamilyId("glued_d3", k=1, j=0), check=False)
    a5 = build(FamilyId("fig_a5"), check=False)
    assert canonical_form(one) == canonical_form(a5)


def test_table1_witness_3_9():
    cx = build(FamilyId("table1_witness", d=3, n=9))
    assert diameter(build_dual_graph(cx)) == 7


def test_table1_witness_3_6():
    cx = build(FamilyId("table1_witness", d=3, n=6))
    assert cx.n == 6 and cx.d == 3
    assert diameter(build_dual_graph(cx)) == 3
    assert is_s2(cx).holds


def test_vertex_counts():
    for k in (1, 2, 3):
        for j in (0, 1, 2, 3):
            assert build(FamilyId("glued_d4", k=k, j=j), check=False).n == 4 * k + 4 + j
        assert build(FamilyId("glued_d3", k=k, j=0), check=False).n == 8 * k + 2
    for k in (1, 2):
        for j in (4, 5):
            assert build(FamilyId("glued_d3_g0", k=k, j=j), check=False).n == 8 * k + 3 + j


def test_glued_family_past_the_vertex_cap_raises():
    # 8 + 39 * 4 = 164 vertices
    with pytest.raises(VertexOutOfRange):
        build(FamilyId("glued_d4", k=40, j=0))


def test_build_self_check_catches_expectations():
    # check=True re-verifies diameter and (S2) on every named instance
    for name in ("fig_a1", "fig_a2", "fig_a4", "fig_a4_ehi", "fig_a5",
                 "g2", "dim4", "dim4_efgi"):
        build(FamilyId(name), check=True)


def test_build_check_raises_typed_error(monkeypatch):
    # a typed error, not an assert, so `python -O` keeps the check
    monkeypatch.setattr(families, "expected_diameter", lambda fam: 99)
    with pytest.raises(ContractViolation, match="diameter 5 != 99"):
        build(FamilyId("fig_a2"), check=True)
    monkeypatch.undo()
    monkeypatch.setattr(families, "is_s2", lambda cx: S2Verdict(False))
    with pytest.raises(ContractViolation, match="fig_a2.*: not \\(S2\\)"):
        build(FamilyId("fig_a2"), check=True)


def test_unknown_family_and_bad_params():
    with pytest.raises(UnknownFamily):
        build(FamilyId("fig_a3"))
    with pytest.raises(BadParams):
        build(FamilyId("table1_witness", d=5, n=11))


@pytest.mark.parametrize("fam", [FamilyId("fig_a2", k=7),
                                 FamilyId("path2", n=6, k=2),
                                 FamilyId("glued_d4", k=1, n=3),
                                 FamilyId("table1_witness", d=3, n=7, j=1)])
def test_unread_fields_are_rejected(fam):
    # each family names the fields it reads; any other one is an error,
    # not silently dropped
    for f in (build, expected_diameter):
        with pytest.raises(BadParams, match="takes no"):
            f(fam)


def test_family_id_str():
    assert str(FamilyId("glued_d4", k=2, j=1)) == "glued_d4(k=2, j=1)"
    assert str(FamilyId("dim4")) == "dim4"


#: One valid instance of each family that takes parameters.
_VALID = {
    "path2": FamilyId("path2", n=5),
    "glued_d4": FamilyId("glued_d4", k=1),
    "glued_d3": FamilyId("glued_d3", k=1),
    "glued_d3_g0": FamilyId("glued_d3_g0", k=1, j=4),
    "table1_witness": FamilyId("table1_witness", d=3, n=7),
}


def test_family_names_cover_builders():
    assert set(_VALID) <= set(FAMILY_NAMES)
    for name in FAMILY_NAMES:
        build(_VALID.get(name, FamilyId(name)), check=True)
    assert "table1_witness" in FAMILY_NAMES
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    family = next(a for a in sub.choices["construct"]._actions
                  if a.dest == "family")
    assert family.choices == list(FAMILY_NAMES)


def test_expected_diameter_formulas():
    assert expected_diameter(FamilyId("glued_d4", k=3, j=2)) == 20
    assert expected_diameter(FamilyId("glued_d3", k=3, j=0)) == 29
    assert expected_diameter(FamilyId("glued_d3_g0", k=2, j=5)) == 26
    assert expected_diameter(FamilyId("path2", n=9)) == 7


def _outcome(f, fam):
    try:
        return "ok", f(fam)
    except SrdualError as e:
        return type(e), str(e)


def test_expected_diameter_accepts_what_build_accepts():
    names = FAMILY_NAMES + ("fig_a3",)
    fams = [FamilyId(nm, k=k, j=j) for nm in names
            for k in (None, 0, 1, 2) for j in (None, 0, 1, 3, 4, 5)]
    fams += [FamilyId(nm, n=n) for nm in names for n in (None, 2, 3, 4, 7)]
    fams += [FamilyId(nm, d=d, n=n) for nm in names for d in (None, 2, 3, 4)
             for n in (None, 6, 7, 9, 11)]
    for fam in fams:
        built = _outcome(lambda f: build(f, check=False), fam)
        want = _outcome(expected_diameter, fam)
        if built[0] == "ok":
            assert want[0] == "ok" and isinstance(want[1], int), str(fam)
        else:
            assert want == built, str(fam)


# The gluing loops the family table replaced, kept as the oracle for the
# one `_chain` fold.

def _fig(name):
    return build(FamilyId(name), check=False)


def _mask(word):
    return mask_of(letters(word)[0])


def _glue_at(left, left_facet, right, right_facet):
    lv, rv = vertices_of(left_facet), vertices_of(right_facet)
    spec = GlueSpec(left, right, dict(zip(rv, lv)))
    return glue(spec), right_vertex_map(spec)


def _glued_d4(k, j):
    block = _fig("dim4")
    abcd, efgh = _mask("ABCD"), _mask("EFGH")
    cx = block
    end = efgh
    for _ in range(k - 1):
        cx, mapping = _glue_at(cx, end, block, abcd)
        end = image(efgh, mapping)
    if j:
        cx = append_facet_chain(cx, end, j)
    return cx


def _glued_d3(k, j):
    g1, g2 = _fig("fig_a5"), _fig("g2")
    abc, ijk, hij = _mask("ABC"), _mask("IJK"), _mask("HIJ")
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
    g0, g1, g2 = _fig("fig_a4"), _fig("fig_a5"), _fig("g2")
    abc, deh = _mask("ABC"), _mask("DEH")
    ijk, hij = _mask("IJK"), _mask("HIJ")
    cx, end = g0, deh
    for _ in range(k - 1):
        cx, mapping = _glue_at(cx, end, g2, abc)
        end = image(ijk, mapping)
    cx, mapping = _glue_at(cx, end, g1, abc)
    end = image(hij, mapping)
    if j > 4:
        cx = append_facet_chain(cx, end, j - 4)
    return cx


def _shape(cx):
    return cx.n, cx.facets, cx.names


def test_chain_fold_matches_reference_loops():
    for name, ref, js in (("glued_d4", _glued_d4, range(6)),
                          ("glued_d3", _glued_d3, range(6)),
                          ("glued_d3_g0", _glued_d3_g0, range(4, 8))):
        for k in range(1, 5):
            for j in js:
                got = build(FamilyId(name, k=k, j=j), check=False)
                assert _shape(got) == _shape(ref(k, j)), (name, k, j)


def test_extended_figures_match_their_derivations():
    derived = {
        "fig_a4_ehi": append_facet_chain(_fig("fig_a4"), _mask("DEH"), 1),
        "g2": from_masks(list(_fig("fig_a5").facets) + [_mask("IJK")]),
        "dim4_efgi": from_masks(list(_fig("dim4").facets) + [_mask("EFGI")]),
    }
    for name, cx in derived.items():
        assert _shape(_fig(name)) == _shape(cx), name
