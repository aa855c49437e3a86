import json

import pytest

from srdual import (
    build,
    build_dual_graph,
    export_graph,
    from_facets,
    from_masks,
    mask_of,
    parse_facet_file,
    serialize_facet_file,
)
from srdual.errors import BadParams, ParseError
from srdual.families import _FIGURES, FamilyId

from conftest import corpus


def test_parse_letters_mode_fig_a1():
    cx = parse_facet_file("AB\nBC\nCD\nDE", letters=True)
    a1 = build(FamilyId("fig_a1"), check=False)
    assert cx == a1


def test_parse_whitespace_tokens():
    cx = parse_facet_file("x1 x2\nx1 x3")
    assert cx.n == 3 and cx.d == 2 and len(cx.facets) == 2
    assert cx.vertex_name(0) == "x1"


def test_parse_antichain_reduction_warns():
    with pytest.warns(UserWarning):
        cx = parse_facet_file("A B C\nA B")
    assert len(cx.facets) == 1


def test_parse_comments_and_header():
    text = "# a comment\nvertices: A B C D\nAB CD # trailing\n".replace(
        "AB CD", "A B\nC D")
    cx = parse_facet_file(text)
    assert cx.n == 4 and len(cx.facets) == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError):
        parse_facet_file("")
    with pytest.raises(ParseError) as ei:
        parse_facet_file("vertices: A B\nA C")
    assert ei.value.line == 2
    with pytest.raises(ParseError):
        parse_facet_file("vertices: A A\nA")
    with pytest.raises(ParseError):
        parse_facet_file("vertices: A B\nvertices: C D\nA B")
    # a header after the facets is an error, not a facet named "vertices:"
    for text, letters in [("A B C\nB C D\nvertices: A B C D\n", False),
                          ("ABC\nBCD\nvertices: A B C D\n", True)]:
        with pytest.raises(ParseError, match="vertices header after facets") as ei:
            parse_facet_file(text, letters=letters)
        assert ei.value.line == 3


def test_a_vertex_named_like_the_header_round_trips():
    # after an explicit header, a line whose first token is a declared
    # name is a facet line, so the writer's own files read back
    cx = parse_facet_file("vertices: vertices: a\na vertices:\n")
    assert cx.names == ("vertices:", "a") and cx.facets == (0b11,)
    text = serialize_facet_file(cx)
    assert text == "vertices: vertices: a\nvertices: a\n"
    again = parse_facet_file(text)
    assert again == cx and again.names == cx.names
    cx = from_masks([0b011, 0b110], 3, names=["Vertices:", "b", "c"])
    again = parse_facet_file(serialize_facet_file(cx))
    assert again == cx and again.names == cx.names
    # a header token that names no vertex still starts a header
    with pytest.raises(ParseError, match="duplicate vertices header"):
        parse_facet_file("vertices: A B\nvertices: C D\nA B")
    for letters in (False, True):
        with pytest.raises(ParseError, match="vertices header after facets"):
            parse_facet_file("vertices: A B\nA B\nvertices: A B\n",
                             letters=letters)
    # letters mode keeps every vertices: line a header
    with pytest.raises(ParseError, match="duplicate vertices header"):
        parse_facet_file("vertices: vertices: a\nvertices: a\n", letters=True)


def test_round_trip_over_corpus():
    for fam, cx, _ in corpus():
        again = parse_facet_file(serialize_facet_file(cx))
        assert again == cx, str(fam)
        assert tuple(again.vertex_name(v) for v in range(again.n)) == \
               tuple(cx.vertex_name(v) for v in range(cx.n))


def test_round_trip_letters():
    # a letters-mode parse comes back through the one writer, which
    # spaces names apart, and the default reader
    a2 = parse_facet_file(_FIGURES["fig_a2"][0].replace(" ", "\n"),
                          letters=True)
    again = parse_facet_file(serialize_facet_file(a2))
    assert again == a2 and again.names == a2.names


@pytest.mark.parametrize("names", [
    ["a", "a", "b"],  # the written header repeats a name
    ["a b", "c", "#d"],  # the written lines split and comment differently
    [1, 2, 3],  # the writer joins strings only
    ["", "b", "c"],
    ["a\tb", "c", "d"]])
def test_names_a_facet_file_cannot_hold_are_refused(names):
    # a name the writer could not round-trip is refused where it enters
    with pytest.raises(BadParams):
        from_masks([0b011, 0b110], 3, names)
    with pytest.raises(BadParams):
        from_facets([[0, 1], [1, 2]], names=names)


def test_export_dot_fig_a1():
    g = build_dual_graph(build(FamilyId("fig_a1"), check=False))
    dot = export_graph(g, fmt="dot")
    assert dot.count("label=") == 4
    assert dot.count(" -- ") == 3
    assert dot == export_graph(g, fmt="dot")  # deterministic


def test_export_dot_isolated_nodes():
    from srdual import from_facets
    g = build_dual_graph(from_facets([[0, 1, 2], [3, 4, 5]]))
    dot = export_graph(g, fmt="dot")
    assert dot.count("label=") == 2 and " -- " not in dot


def test_export_json_round_trips_fig_a2():
    g = build_dual_graph(build(FamilyId("fig_a2"), check=False))
    doc = json.loads(export_graph(g, fmt="json"))
    assert len(doc["nodes"]) == 10 and len(doc["edges"]) == 12
    assert [mask_of(vs) for vs in doc["nodes"]] == list(g.node_facets)
    adj = [0] * len(doc["nodes"])
    for i, j in doc["edges"]:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    assert tuple(adj) == g.adjacency


def test_export_complement_labels():
    g = build_dual_graph(build(FamilyId("fig_a2"), check=False))
    dot = export_graph(g, fmt="dot", labels="complement")
    assert "DEFG" in dot  # complement of ABC on 7 vertices


def test_export_unknown_format():
    g = build_dual_graph(build(FamilyId("fig_a1"), check=False))
    with pytest.raises(ParseError):
        export_graph(g, fmt="svg")


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_export_unknown_labels(fmt):
    g = build_dual_graph(build(FamilyId("fig_a1"), check=False))
    with pytest.raises(ParseError):
        export_graph(g, fmt=fmt, labels="bogus")
