"""Facet-file parsing/serialization and dual-graph exports.

Facet files are line oriented: an optional ``vertices:`` header naming
the universe, then one facet per line as whitespace-separated vertex
names; ``#`` starts a comment.  In letters mode every character of a
token is its own vertex, matching the ABC labels of the figures.

A line that starts with ``vertices:`` (any case) is a header, with one
exception in the default mode: after an explicit header, a line whose
first token is a declared vertex name is a facet line.  So a vertex may
be named ``vertices:``, and the writer's files read back.
"""

from __future__ import annotations

import json
import warnings

from .complexes import SimplicialComplex, from_masks, mask_of, vertices_of
from .dual_graph import DualGraph
from .errors import ParseError


def parse_facet_file(text: str, letters: bool = False) -> SimplicialComplex:
    names: list[str] = []
    index: dict[str, int] = {}
    explicit_header = False

    def vertex(tok: str, lineno: int) -> int:
        if tok not in index:
            if explicit_header:
                raise ParseError("unknown vertex name %r" % tok, lineno)
            index[tok] = len(names)
            names.append(tok)
        return index[tok]

    facet_masks: list[int] = []
    lines = text.splitlines()
    body_start = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if (line.lower().startswith("vertices:")
                and not (explicit_header and not letters
                         and line.split(None, 1)[0] in index)):
            if facet_masks:
                raise ParseError("vertices header after facets", lineno)
            if explicit_header:
                raise ParseError("duplicate vertices header", lineno)
            for tok in line.split(":", 1)[1].split():
                if tok in index:
                    raise ParseError("duplicate vertex name %r" % tok, lineno)
                index[tok] = len(names)
                names.append(tok)
            explicit_header = True
            body_start = lineno
            continue
        tokens = line.split()
        if letters:
            tokens = [c for tok in tokens for c in tok]
        facet_masks.append(mask_of(vertex(t, lineno) for t in tokens))
    if not facet_masks:
        raise ParseError("no facets in input", body_start or len(lines))
    cx = from_masks(facet_masks, len(names), tuple(names))
    if len(cx.facets) < len(set(facet_masks)):
        warnings.warn("contained facets dropped (antichain reduction)")
    return cx


def serialize_facet_file(cx: SimplicialComplex) -> str:
    """The `vertices:` header, then one facet a line, names spaced apart."""
    names = cx.vertex_names
    lines = ["vertices: " + " ".join(names)]
    lines += [" ".join(names[v] for v in vertices_of(f)) for f in cx.facets]
    return "\n".join(lines) + "\n"


def export_graph(g: DualGraph, fmt: str = "dot", labels: str = "facet") -> str:
    """Deterministic DOT or JSON text for a dual graph.

    labels='facet' prints the facet-ridge labels; 'complement' prints the
    minimal-prime (complement) labels; any other value raises
    ParseError, as an unknown `fmt` does.  DOT labels are quoted
    strings, so a backslash or double quote in a vertex name is escaped.
    """
    if labels not in ("facet", "complement"):
        raise ParseError("unknown label kind %r" % labels)
    comp = labels == "complement"
    node_labels = [g.node_label(i, complement=comp) for i in range(g.node_count)]
    edges = []
    for i in range(g.node_count):
        nbrs = g.adjacency[i]
        while nbrs:
            b = nbrs & -nbrs
            j = b.bit_length() - 1
            if j > i:
                edges.append((i, j))
            nbrs ^= b
    if fmt == "dot":
        lines = ["graph dual {"]
        for i, lab in enumerate(node_labels):
            lab = lab.replace("\\", "\\\\").replace('"', '\\"')
            lines.append('  n%d [label="%s"];' % (i, lab))
        for i, j in edges:
            lines.append("  n%d -- n%d;" % (i, j))
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "version": 1,
            "n": g.n,
            "d": g.d,
            "labels": labels,
            "names": list(g.names) if g.names is not None else None,
            "nodes": [sorted(v for v in range(g.n) if g.node_facets[i] >> v & 1)
                      for i in range(g.node_count)],
            "edges": [list(e) for e in edges],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ParseError("unknown export format %r" % fmt)
