"""Command-line front end.

Exit codes: 0 = success / property holds, 1 = property fails (witness on
stdout), 2 = usage error or bad input (unreadable or malformed file,
unknown facet, bad parameters).  The six report commands print through
`_emit`, as text or, with --json, as one JSON document.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .complexes import SimplicialComplex, alexander_dual_ideal, mask_of
from .dual_graph import UNBOUNDED, build_dual_graph, diameter, distance_pair
from .errors import BadParams, SrdualError
from .families import FAMILY_NAMES, TABLE1, FamilyId, build, expected_diameter
from .fileio import export_graph, parse_facet_file, serialize_facet_file
from .gluing import GlueSpec, glue
from .search import SearchBudget, bounds, enumerate_mu
from .serre import is_buchsbaum, is_locally_connected, is_s2, connected_components


def _read_complex(path: str, letters: bool) -> SimplicialComplex:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise BadParams("%s: not UTF-8 (byte %d)"
                        % (path, exc.start)) from None
    return parse_facet_file(text, letters=letters)


def _lookup_facet(cx: SimplicialComplex, token: str) -> int:
    """Resolve a facet given as letters ('ABC') or space-free name list."""
    names = {cx.vertex_name(v): v for v in range(cx.n)}
    parts = token if all(c in names for c in token) else token.split(",")
    verts = [names.get(p) for p in parts if p]
    mask = None if None in verts else mask_of(verts)
    if mask not in cx.facets:
        raise SrdualError("not a facet: %s" % token)
    return mask


def _emit(args, payload: dict, lines: list[str]):
    """Print a report: its text lines, or with --json its payload."""
    if args.json:
        lines = [json.dumps(payload, indent=2)]
    for ln in lines:
        print(ln)


def _cmd_check(args) -> int:
    prop = args.property
    if args.field is not None and prop != "buchsbaum":
        raise BadParams("--field applies to --property buchsbaum only")
    cx = _read_complex(args.file, args.letters)
    witness = None
    if prop == "pure":
        holds = cx.is_pure
    elif prop == "connected":
        holds = connected_components(cx) == 1
    elif prop == "buchsbaum":
        holds = is_buchsbaum(cx, field=args.field or 0)
    else:  # locally-connected or s2: a verdict with a witness
        v = (is_s2 if prop == "s2" else is_locally_connected)(cx)
        holds, witness = v.holds, v.witness
    lines = ["%s: %s" % (prop, "holds" if holds else "FAILS")]
    payload = {"property": prop, "holds": holds}
    if witness is not None and not holds:
        u, v_, s = witness
        lines.append("witness: %s, %s separated at %s" % (
            cx.facet_name(u), cx.facet_name(v_),
            cx.facet_name(s) if s else "(empty face)"))
        payload["witness"] = [cx.facet_name(u), cx.facet_name(v_),
                              cx.facet_name(s)]
    _emit(args, payload, lines)
    return 0 if holds else 1


def _cmd_diameter(args) -> int:
    if args.path and not args.pair:
        raise BadParams("--path needs --pair")
    cx = _read_complex(args.file, args.letters)
    g = build_dual_graph(cx)
    if args.pair:
        a, b = (_lookup_facet(cx, token) for token in args.pair)
        key, (dist, path) = "distance", distance_pair(g, a, b)
    else:
        key, dist, path = "diameter", diameter(g), None
    lines = ["%s: %s" % (key, "unbounded" if dist is UNBOUNDED else dist)]
    payload = {key: None if dist is UNBOUNDED else dist}
    if args.path and path is not None:
        labels = [cx.facet_name(f) for f in path]
        lines.append("path: " + " -- ".join(labels))
        payload["path"] = labels
    _emit(args, payload, lines)
    return 0 if dist is not UNBOUNDED else 1


def _cmd_dual_graph(args) -> int:
    cx = _read_complex(args.file, args.letters)
    g = build_dual_graph(cx)
    sys.stdout.write(export_graph(g, fmt=args.format, labels=args.labels))
    return 0


def _cmd_alexander_dual(args) -> int:
    cx = _read_complex(args.file, args.letters)
    ideal = alexander_dual_ideal(cx)
    lines = [cx.facet_name(gmask) for gmask in ideal.generators]
    _emit(args, {"n": ideal.n, "generators": lines}, lines)
    return 0


def _cmd_glue(args) -> int:
    left = _read_complex(args.file_a, args.letters)
    right = _read_complex(args.file_b, args.letters)
    lnames = {left.vertex_name(v): v for v in range(left.n)}
    rnames = {right.vertex_name(v): v for v in range(right.n)}
    identify = {}
    for pair in args.identify.split(","):
        a, _, b = pair.partition("=")
        if not a or not b or a not in rnames or b not in lnames:
            raise SrdualError("bad identification %r (want right=left)" % pair)
        identify[rnames[a]] = lnames[b]
    out = glue(GlueSpec(left, right, identify, level=args.level))
    sys.stdout.write(serialize_facet_file(out))
    return 0


def _cmd_construct(args) -> int:
    fam = FamilyId(args.family, k=args.k, j=args.j, d=args.d, n=args.n)
    cx = build(fam, check=True)
    text = serialize_facet_file(cx)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
        print("wrote %s: n=%d, %d facets, diameter %s" % (
            args.output, cx.n, len(cx.facets), expected_diameter(fam)))
    return 0


def _cmd_search_mu(args) -> int:
    budget = SearchBudget(max_nodes=args.budget_nodes,
                          max_seconds=args.budget_seconds)
    res = enumerate_mu(args.d, args.n, budget=budget,
                       checkpoint=args.checkpoint)
    visited = res.nodes_explored - res.resumed_leaves  # by this run
    rate = visited / res.elapsed if res.elapsed else 0
    lines = ["mu(%d, %d) %s %d" % (res.d, res.n,
                                   "=" if res.exhaustive else ">=", res.mu),
             "exhaustive: %s" % res.exhaustive,
             "nodes explored: %d" % res.nodes_explored,
             "resumed leaves: %d" % res.resumed_leaves,
             "elapsed: %.1f s" % res.elapsed,
             "leaf rate: %.0f leaves/s" % rate]
    payload = {"d": res.d, "n": res.n, "mu": res.mu,
               "exhaustive": res.exhaustive,
               "nodes_explored": res.nodes_explored,
               "resumed_leaves": res.resumed_leaves,
               "elapsed": res.elapsed, "leaves_per_s": rate,
               "witness": None}
    if res.witness is not None:
        w = res.witness
        labels = [w.facet_name(f) for f in w.facets]
        lines.append("witness: " + " ".join(labels))
        payload["witness"] = labels
    _emit(args, payload, lines)
    return 0


def _cmd_bounds(args) -> int:
    b = bounds(args.d, args.n)
    lines = ["%s: %d" % (k, v) for k, v in sorted(b.entries.items())]
    lines.append("best: %d" % b.best)
    _emit(args, {"d": b.d, "n": b.n, "bounds": b.entries, "best": b.best}, lines)
    return 0


def _cmd_verify_table(args) -> int:
    t0 = time.monotonic()
    ok = True
    report, lines = [], []
    for d, n in TABLE1:
        fam = FamilyId("table1_witness", d=d, n=n)
        want = expected_diameter(fam)
        cx = build(fam, check=False)
        got = diameter(build_dual_graph(cx))
        s2 = is_s2(cx).holds
        cell_ok = got == want and s2 and cx.n == n and cx.d == d
        ok &= cell_ok
        lines.append("cell (%d,%2d): diameter %s (expected %s), s2=%s  [%s]" % (
            d, n, got, want, s2, "ok" if cell_ok else "FAIL"))
        report.append({"d": d, "n": n, "diameter": got, "expected": want,
                       "s2": s2, "ok": cell_ok})
    elapsed = time.monotonic() - t0
    lines.append("verify-table: %s (%d cells, %.1f s)" % (
        "all ok" if ok else "FAILURES", len(TABLE1), elapsed))
    _emit(args, {"cells": report, "ok": ok, "elapsed": elapsed}, lines)
    return 0 if ok else 1


def _add_file_arg(p):
    p.add_argument("file", help="facet file")
    p.add_argument("--letters", action="store_true",
                   help="treat each character of a token as a vertex")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="srdual",
        description="Dual graphs of (S2) Stanley-Reisner rings: checks, "
                    "constructions, bounds, and diameter search.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a ring-theoretic property")
    _add_file_arg(p)
    p.add_argument("--property", required=True,
                   choices=["pure", "connected", "locally-connected",
                            "s2", "buchsbaum"])
    p.add_argument("--field", type=int, choices=[0, 2],
                   help="coefficient field for buchsbaum (0 or 2; default 0)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("diameter", help="dual-graph diameter or pair distance")
    _add_file_arg(p)
    p.add_argument("--pair", nargs=2, metavar=("F1", "F2"),
                   help="two facets (letter strings or comma-joined names)")
    p.add_argument("--path", action="store_true", help="print a shortest path")
    p.set_defaults(func=_cmd_diameter)

    p = sub.add_parser("dual-graph", help="export the facet-ridge graph")
    _add_file_arg(p)
    p.add_argument("--format", required=True, choices=["dot", "json"])
    p.add_argument("--labels", choices=["facet", "complement"], default="facet")
    p.set_defaults(func=_cmd_dual_graph)

    p = sub.add_parser("alexander-dual", help="generators of the dual ideal")
    _add_file_arg(p)
    p.set_defaults(func=_cmd_alexander_dual)

    p = sub.add_parser("glue", help="glue two complexes along shared faces")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--letters", action="store_true")
    p.add_argument("--identify", required=True,
                   help="comma list b=a mapping right vertices to left")
    p.add_argument("--level", type=int, default=2,
                   help="target Serre level (default 2)")
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("construct", help="build a named family instance")
    p.add_argument("family", choices=list(FAMILY_NAMES))
    p.add_argument("--k", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("-o", "--output", required=True,
                   help="output facet file ('-' for stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("search-mu", help="exhaustive/bounded search for mu(d,n)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget-nodes", type=int)
    p.add_argument("--budget-seconds", type=float)
    p.add_argument("--checkpoint", help="resumable checkpoint file")
    p.set_defaults(func=_cmd_search_mu)

    p = sub.add_parser("bounds", help="all applicable upper-bound formulas")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify-table", help="rebuild every table cell witness")
    p.set_defaults(func=_cmd_verify_table)

    for name in ("check", "diameter", "alexander-dual", "search-mu", "bounds",
                 "verify-table"):
        sub.choices[name].add_argument("--json", action="store_true",
                                       help="JSON output envelope")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call and never mutated.

    Built lazily, not at import, so importing the module stays cheap;
    parse_args keeps no state in the parser, so repeated calls match.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SrdualError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
