import pytest

from srdual import families, gluing
from srdual import (
    GlueSpec,
    append_facet_chain,
    build,
    build_dual_graph,
    diameter,
    from_facets,
    glue,
    is_s2,
    mask_of,
    overlap_facets,
    parse_facet_file,
    serialize_facet_file,
    vertices_of,
)
from srdual.complexes import MAX_UNIVERSE
from srdual.errors import (
    BadParams,
    ContractViolation,
    DimensionMismatch,
    NotAFacet,
    OverlapNotPure,
    OverlapSerreFailure,
    OverlapTooSmall,
    UnsupportedLevel,
    VertexOutOfRange,
)
from srdual.families import FamilyId
from srdual.serre import S2Verdict

from conftest import track


def _dim4():
    return build(FamilyId("dim4"), check=False)


def test_figure7_gluing():
    dim4 = _dim4()
    # identify the right copy's EFGH with the left copy's ABCD
    identify = {4: 0, 5: 1, 6: 2, 7: 3}
    glued = track(glue(GlueSpec(dim4, dim4, identify)))
    assert len(glued.facets) == 35 and glued.n == 12
    assert diameter(build_dual_graph(glued)) == 12
    assert is_s2(glued).holds


def test_facet_count_bookkeeping():
    dim4 = _dim4()
    glued = glue(GlueSpec(dim4, dim4, {4: 0, 5: 1, 6: 2, 7: 3}))
    # one overlap facet is shared by both copies
    assert len(glued.facets) == 18 + 18 - 1


def test_smallest_legal_gluings():
    tri = from_facets([[0, 1, 2]])
    # full-facet identification collapses to a single simplex
    whole = glue(GlueSpec(tri, tri, {0: 0, 1: 1, 2: 2}))
    assert whole.facets == tri.facets
    # ridge identification gives two facets sharing d-1 vertices
    ridge = glue(GlueSpec(tri, tri, {0: 0, 1: 1}))
    assert len(ridge.facets) == 2 and ridge.n == 4
    assert is_s2(ridge).holds


def test_overlap_too_small():
    left = from_facets([[0, 1, 2], [1, 2, 3]])
    right = from_facets([[0, 1, 2], [0, 1, 3]])
    with pytest.raises(OverlapTooSmall):
        glue(GlueSpec(left, right, {0: 0}))


def test_no_shared_face_rejected():
    left = from_facets([[0, 1, 2]])
    right = from_facets([[0, 1, 2]])
    with pytest.raises(OverlapTooSmall):
        glue(GlueSpec(left, right, {}))


def test_dimension_mismatch():
    left = from_facets([[0, 1, 2]])
    right = from_facets([[0, 1]])
    with pytest.raises(DimensionMismatch):
        glue(GlueSpec(left, right, {0: 0, 1: 1}))


def test_level_constraints():
    tri = from_facets([[0, 1, 2]])
    with pytest.raises(UnsupportedLevel):
        glue(GlueSpec(tri, tri, {0: 0, 1: 1}, level=4))
    # level 3 requires the overlap to be (S2); an edge overlap is
    assert glue(GlueSpec(tri, tri, {0: 0, 1: 1}, level=3)).n == 4
    left = from_facets([[0, 1, 2], [2, 3, 4]])
    right = from_facets([[0, 1, 2], [3, 4, 5]])
    # overlap {01, 3}: maximal faces of sizes 1 and 2, at either level
    for level in (2, 3):
        with pytest.raises(OverlapNotPure, match=r"\[1, 2\]"):
            glue(GlueSpec(left, right, {0: 0, 1: 1, 3: 3}, level=level))
    # overlap {01, 34}: pure of size d - 1 but disconnected, so not (S2);
    # only level 3 asks the overlap for (S2)
    ident = {0: 0, 1: 1, 3: 3, 4: 4}
    with pytest.raises(OverlapSerreFailure):
        glue(GlueSpec(left, right, ident, level=3))
    glued = glue(GlueSpec(left, right, ident))
    assert [glued.facet_name(f) for f in glued.facets] == [
        "ABC", "CDE", "ABF", "DEG"]


@pytest.mark.parametrize("identify,message", [
    ({1: 1, 2: 1}, "not injective"),
    ({99: 1}, "right vertex 99 out of range"),
    ({-1: 1}, "right vertex -1 out of range"),
    ({1: 99}, "left vertex 99 out of range"),
])
def test_right_vertex_map_rejects_bad_identifications(identify, message):
    fig = build(FamilyId("fig_a2"), check=False)
    with pytest.raises(BadParams, match=message):
        gluing.right_vertex_map(GlueSpec(fig, fig, identify))


def test_overlap_facets_antichain():
    out = overlap_facets([0b0111, 0b1110], [0b0111])
    assert out == [0b0111]


def test_gluing_preserves_s2_across_corpus_pairs():
    # facet-to-facet gluings of (S2) figures stay (S2); glue() asserts it,
    # but re-check through the public oracle anyway
    cases = [("fig_a2", [0, 1, 2]), ("fig_a5", [0, 1, 2]),
             ("dim4", [0, 1, 2, 3])]
    for name, facet in cases:
        cx = build(FamilyId(name), check=False)
        d = cx.d
        identify = {v: facet[i] for i, v in enumerate(facet)}
        glued = track(glue(GlueSpec(cx, cx, identify)))
        assert is_s2(glued).holds, name


def test_fresh_labels_are_disjoint():
    tri = from_facets([[0, 1, 2]])
    out = glue(GlueSpec(tri, tri, {0: 0, 1: 1}))
    assert out.n == 4  # one genuinely fresh vertex


def test_append_facet_chain_dim4():
    dim4 = _dim4()
    efgh = mask_of([4, 5, 6, 7])
    ext = track(append_facet_chain(dim4, efgh, 1))
    assert len(ext.facets) == 19 and ext.n == 9
    assert diameter(build_dual_graph(ext)) == 7
    assert is_s2(ext).holds


def test_append_facet_chain_a4():
    a4 = build(FamilyId("fig_a4"), check=False)
    deh = mask_of([3, 4, 7])
    ext = track(append_facet_chain(a4, deh, 1))
    assert ext.n == 9
    assert diameter(build_dual_graph(ext)) == 7
    assert is_s2(ext).holds


def test_append_facet_chain_trivial_and_errors():
    a4 = build(FamilyId("fig_a4"), check=False)
    assert append_facet_chain(a4, mask_of([3, 4, 7]), 0) == a4
    with pytest.raises(NotAFacet):
        append_facet_chain(a4, mask_of([0, 1, 7]), 1)


def test_append_facet_chain_fresh_names_round_trip():
    # the default name of the first fresh vertex, E, is already taken
    cx = parse_facet_file("vertices: E B C D\nE B C\nB C D\n")
    ext = append_facet_chain(cx, mask_of([1, 2, 3]), 2)
    assert ext.names == ("E", "B", "C", "D", "E'", "F")
    assert parse_facet_file(serialize_facet_file(ext)) == ext


def test_growth_stops_at_the_vertex_cap():
    # a chain of 120 steps off dim4 fills the 128-vertex universe; one
    # more chain step, or a glue with fresh vertices, goes past it
    dim4 = _dim4()
    full = append_facet_chain(dim4, mask_of([4, 5, 6, 7]), 120)
    assert full.n == MAX_UNIVERSE
    with pytest.raises(VertexOutOfRange):
        append_facet_chain(full, full.facets[-1], 1)
    with pytest.raises(VertexOutOfRange):
        append_facet_chain(dim4, mask_of([4, 5, 6, 7]), 200)
    end = dict(enumerate(vertices_of(full.facets[-1])))  # ABCD onto it
    with pytest.raises(VertexOutOfRange):
        glue(GlueSpec(full, dim4, end))


def test_chain_facets_share_ridges():
    a5 = build(FamilyId("fig_a5"), check=False)
    hij = mask_of([7, 8, 9])
    ext = append_facet_chain(a5, hij, 3)
    new = [f for f in ext.facets if f not in a5.facets]
    assert len(new) == 3
    seq = [hij] + sorted(new, key=lambda m: m.bit_length())
    for u, v in zip(seq, seq[1:]):
        assert (u & v).bit_count() == ext.d - 1


def test_diameter_additivity_on_construction():
    # one G2 (diam 10) glued to G1 (diam 9) along a diametral facet
    two = build(FamilyId("glued_d3", k=2, j=0), check=False)
    assert diameter(build_dual_graph(two)) == 10 + 9  # 10*2 - 1


def _count_s2_calls(monkeypatch):
    """Record every cx passed to is_s2 by gluing or families."""
    checked = []
    real = gluing.is_s2
    for module in (gluing, families):
        monkeypatch.setattr(module, "is_s2",
                            lambda cx: checked.append(cx) or real(cx))
    return checked


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_glue_checks_only_its_result_when_it_holds(monkeypatch, k):
    left = _dim4()
    right = build(FamilyId("glued_d4", k=k, j=0), check=False)
    checked = _count_s2_calls(monkeypatch)
    # the right chain's ABCD onto the left copy's EFGH
    glued = glue(GlueSpec(left, right, {0: 4, 1: 5, 2: 6, 3: 7}))
    assert checked == [glued]


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_glued_build_checks_s2_once_and_only_under_check(monkeypatch, k):
    checked = _count_s2_calls(monkeypatch)
    fam = FamilyId("glued_d4", k=k, j=1)
    build(fam, check=False)
    assert checked == []
    cx = build(fam, check=True)
    assert checked == [cx]


def test_glue_postcondition_checks_inputs_of_a_failing_result(monkeypatch):
    tri = from_facets([[0, 1, 2]])
    real = gluing.is_s2
    # a result that fails (S2) breaks the contract only if both inputs hold
    monkeypatch.setattr(gluing, "is_s2", lambda cx: S2Verdict(False)
                        if cx.n == 4 else real(cx))
    with pytest.raises(ContractViolation):
        glue(GlueSpec(tri, tri, {0: 0, 1: 1}))
    bowtie = from_facets([[0, 1, 2], [0, 3, 4]])  # not (S2) at vertex 0
    assert not is_s2(bowtie).holds
    glued = glue(GlueSpec(bowtie, tri, {0: 1, 1: 2}))
    assert not is_s2(glued).holds
