import pytest

from srdual import (
    build,
    build_dual_graph,
    canonical_form,
    corpus,
    diameter,
    expected_diameter,
    is_s2,
)
from srdual import families
from srdual.errors import BadParams, ContractViolation, UnknownFamily
from srdual.families import FAMILY_NAMES, FamilyId

from conftest import track


def test_corpus_expectations():
    for fam, cx, want_diam, want_s2 in corpus():
        got = diameter(build_dual_graph(cx))
        assert got == want_diam, "%s: %r != %r" % (fam, got, want_diam)
        assert is_s2(cx).holds == want_s2, str(fam)
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


def test_unknown_family_and_bad_params():
    with pytest.raises(UnknownFamily):
        build(FamilyId("fig_a3"))
    with pytest.raises(BadParams):
        build(FamilyId("table1_witness", d=5, n=11))


def test_family_id_str():
    assert str(FamilyId("glued_d4", k=2, j=1)) == "glued_d4(k=2, j=1)"
    assert str(FamilyId("dim4")) == "dim4"


def test_family_names_cover_builders():
    for name in FAMILY_NAMES:
        assert isinstance(name, str)
    assert "table1_witness" in FAMILY_NAMES


def test_expected_diameter_formulas():
    assert expected_diameter(FamilyId("glued_d4", k=3, j=2)) == 20
    assert expected_diameter(FamilyId("glued_d3", k=3, j=0)) == 29
    assert expected_diameter(FamilyId("glued_d3_g0", k=2, j=5)) == 26
    assert expected_diameter(FamilyId("path2", n=9)) == 7
