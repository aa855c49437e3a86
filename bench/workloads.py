"""The three benchmark workloads.

Each workload builds its inputs in ``__init__`` (the set-up phase) and
runs one fixed unit of checked work per ``run_pass``.  Every call into
srdual goes through ``tracer.call`` under the name
``<module>.<function>`` that the per-layer metrics use.  Every answer is
checked; a wrong answer or an exception fails its operation.

Only ``oracle_fuzz`` depends on the seed.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from itertools import combinations
from math import comb

from srdual import (
    UNBOUNDED,
    GlueSpec,
    alexander_dual_ideal,
    build,
    build_dual_graph,
    canonical_form,
    connected_components,
    diameter,
    enumerate_mu,
    expected_diameter,
    from_masks,
    glue,
    is_buchsbaum,
    is_s2,
    linear_syzygy_check,
    mask_of,
    parse_facet_file,
    serialize_facet_file,
    verify_bounds,
    vertices_of,
)
from srdual.cli import main as cli_main
from srdual.families import FamilyId

from tracing import clock


class Check:
    """Collects the answer mismatches of one operation."""

    def __init__(self):
        self.misses: list[str] = []

    def equal(self, what, got, want):
        if got != want:
            self.misses.append("%s: got %r, want %r" % (what, got, want))

    def true(self, what, cond):
        if not cond:
            self.misses.append(what)


class Tally:
    """Runs checked operations; counts attempts, failures and work."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.latencies: list[float] = []
        self.counts: dict[str, int] = {}

    def run(self, label, fn):
        ck = Check()
        t0 = clock()
        try:
            with self.tracer.op("op." + label):
                fn(ck)
        except Exception as exc:  # a crash is a wrong answer, not the end
            ck.misses.append("raised %s: %s" % (type(exc).__name__, exc))
        self.latencies.append(clock() - t0)
        self.attempted += 1
        if ck.misses:
            self.failed += 1
            self.misses.extend("%s: %s" % (label, m) for m in ck.misses)

    def count(self, name, k):
        self.counts[name] = self.counts.get(name, 0) + k


def read_done_tasks(path):
    """Task ids a mu-search checkpoint file marks as done."""
    with open(path) as fh:
        return {int(ln.split()[1]) for ln in fh if ln.startswith("done ")}


class MuSearch:
    """Exhaustive enumerate_mu(2,7) and enumerate_mu(3,6), fresh checkpoints."""

    #: (d, n, mu, golden witness masks or None)
    CELLS = ((2, 7, 5, None), (3, 6, 3, (21, 42, 52, 56)))
    TASKS = 8

    def __init__(self, seed, workdir, tracer):
        self.workdir = workdir
        self.tracer = tracer

    def run_pass(self, tally):
        for d, n, mu, masks in self.CELLS:
            tally.run("mu_%d_%d" % (d, n),
                      lambda ck: self._search(ck, tally, d, n, mu, masks))

    def _search(self, ck, tally, d, n, mu, masks):
        cell = "mu_%d_%d" % (d, n)
        # a leftover checkpoint would resume the search and shrink the work
        ckdir = tempfile.mkdtemp(prefix=cell + "-", dir=self.workdir)
        path = os.path.join(ckdir, "checkpoint.txt")
        try:
            res = self.tracer.call("search." + cell, enumerate_mu, d, n,
                                   checkpoint=path)
            ck.equal("mu(%d,%d)" % (d, n), res.mu, mu)
            ck.true("mu(%d,%d) exhaustive" % (d, n), res.exhaustive)
            if masks is not None:
                ck.equal("witness masks", tuple(res.witness.facets), masks)
            ck.equal("checkpoint tasks done", read_done_tasks(path),
                     set(range(self.TASKS)))
            tally.count("search.%s.leaves" % cell, res.nodes_explored)
        finally:
            if os.path.exists(path):
                os.remove(path)
            os.rmdir(ckdir)


DIMS = (2, 3, 4)
MAX_N = 8


def shape_schedule(count):
    """(d, n, k) for ``count`` complexes by systematic sampling.

    d is uniform over DIMS, n uniform over d+1..MAX_N and the facet count
    k uniform over 2..min(C(n,d), 3n), as in the test suite's random
    complexes.  Fixing the shape mix leaves only the facets to the seed,
    so the amount of work hardly changes from seed to seed.
    """
    cells = []
    for d in DIMS:
        ns = range(d + 1, MAX_N + 1)
        for n in ns:
            ks = range(2, min(comb(n, d), 3 * n) + 1)
            cells += [((d, n, k), 1 / (len(DIMS) * len(ns) * len(ks)))
                      for k in ks]
    out = []
    acc = 0.0
    for shape, weight in cells:
        acc += weight
        while len(out) < count and (len(out) + 0.5) / count <= acc:
            out.append(shape)
    out += [cells[-1][0]] * (count - len(out))  # float rounding at the end
    return out


def random_pure_complex(rng, tracer, d, n, k):
    """k random d-subsets of n vertices; unused vertices are dropped."""
    masks = rng.sample([mask_of(c) for c in combinations(range(n), d)], k)
    used = 0
    for m in masks:
        used |= m
    pos = {v: i for i, v in enumerate(vertices_of(used))}
    compacted = [mask_of(pos[v] for v in vertices_of(m)) for m in masks]
    return tracer.call("complexes.from_masks", from_masks, compacted, len(pos))


class OracleFuzz:
    """A seeded stream of small random pure complexes through every oracle."""

    COMPLEXES = 1_000

    def __init__(self, seed, workdir, tracer):
        self.tracer = tracer
        rng = random.Random(seed)
        shapes = shape_schedule(self.COMPLEXES)
        rng.shuffle(shapes)
        self.complexes = [random_pure_complex(rng, tracer, *shape)
                          for shape in shapes]

    def run_pass(self, tally):
        for cx in self.complexes:
            tally.run("complex", lambda ck: self._certify(ck, tally, cx))

    def _certify(self, ck, tally, cx):
        call = self.tracer.call
        g = call("dual_graph.build_dual_graph", build_dual_graph, cx)
        diam = call("dual_graph.diameter", diameter, g)
        s2 = call("serre.is_s2", is_s2, cx).holds
        ideal = call("complexes.alexander_dual_ideal", alexander_dual_ideal, cx)
        syz = call("serre.linear_syzygy_check", linear_syzygy_check, ideal)
        ck.equal("is_s2 vs linear_syzygy_check", s2, syz)
        if s2:
            ck.true("(S2) complex has a connected dual graph",
                    diam is not UNBOUNDED)
            ck.true("verify_bounds",
                    call("search.verify_bounds", verify_bounds, cx, diam))
        if cx.d == 3:
            conn = call("serre.connected_components",
                        connected_components, cx) == 1
            for field, tag in ((0, "q"), (2, "gf2")):
                b = call("serre.is_buchsbaum." + tag, is_buchsbaum, cx, field)
                ck.equal("(connected and Buchsbaum over %s) == (S2)" % tag,
                         conn and b, s2)
        tally.count("serre.is_s2.facets", len(cx.facets))
        tally.count("dual_graph.edges", g.edge_count)


def cyclic_triples(n, tracer):
    """C_n: the vertex-transitive complex {i, i+1, i+2 mod n}."""
    masks = [mask_of((i, (i + 1) % n, (i + 2) % n)) for i in range(n)]
    return tracer.call("complexes.from_masks", from_masks, masks, n)


def _degrees(facets, n):
    return sorted(sum(f >> v & 1 for f in facets) for v in range(n))


class GluedFamilies:
    """Few large structured complexes: families, a glue, files, CLI, canon."""

    FAMILIES = ([FamilyId("glued_d4", k=k, j=1) for k in range(1, 7)]
                + [FamilyId("glued_d3", k=k, j=4) for k in range(1, 4)]
                + [FamilyId("glued_d3_g0", k=k, j=4) for k in (1, 2)])
    GLUE_MAP = {4: 0, 5: 1, 6: 2, 7: 3}

    def __init__(self, seed, workdir, tracer):
        self.workdir = workdir
        self.tracer = tracer
        self.expected = [
            (fam, tracer.call("families.expected_diameter",
                              expected_diameter, fam))
            for fam in self.FAMILIES]
        self.cyclic = [("C%d" % n, cyclic_triples(n, tracer)) for n in (8, 9)]

    def run_pass(self, tally):
        call = self.tracer.call
        for fam, want in self.expected:
            tally.run(str(fam), lambda ck: self._certify(
                ck, tally, call("families.build", build, fam, check=False),
                want, "%s-%d-%d" % (fam.name, fam.k, fam.j)))
        tally.run("glue(dim4, dim4)", lambda ck: self._glue(ck, tally))
        for name in ("fig_a2", "fig_a4", "dim4"):
            tally.run("canonical_form(%s)" % name, lambda ck: self._canon(
                ck, call("families.build", build, FamilyId(name), check=False)))
        for name, cx in self.cyclic:
            tally.run("canonical_form(%s)" % name,
                      lambda ck: self._canon(ck, cx))
        for field, tag in ((0, "q"), (2, "gf2")):
            tally.run("is_buchsbaum(fig_a5, %s)" % tag,
                      lambda ck: self._buchsbaum(ck, field, tag))

    def _glue(self, ck, tally):
        call = self.tracer.call
        dim4 = call("families.build", build, FamilyId("dim4"), check=False)
        cx = call("gluing.glue", glue, GlueSpec(dim4, dim4, self.GLUE_MAP))
        ck.equal("glued facets", len(cx.facets), 35)
        ck.equal("glued n", cx.n, 12)
        self._certify(ck, tally, cx, 12, "glue-dim4-dim4")

    def _certify(self, ck, tally, cx, want, tag):
        call = self.tracer.call
        text = call("fileio.serialize_facet_file", serialize_facet_file, cx)
        path = os.path.join(self.workdir, tag + ".txt")
        with open(path, "w") as fh:
            fh.write(text)
        with open(path) as fh:
            back_text = fh.read()
        back = call("fileio.parse_facet_file", parse_facet_file, back_text)
        ck.equal("parse(serialize(cx))", back, cx)
        tally.count("fileio.bytes", 2 * len(text.encode()))
        g = call("dual_graph.build_dual_graph", build_dual_graph, cx)
        ck.equal("diameter", call("dual_graph.diameter", diameter, g), want)
        ck.true("is_s2 holds", call("serre.is_s2", is_s2, cx).holds)
        ideal = call("complexes.alexander_dual_ideal", alexander_dual_ideal, cx)
        ck.true("linear_syzygy_check agrees",
                call("serre.linear_syzygy_check", linear_syzygy_check, ideal))
        tally.count("serre.is_s2.facets", len(cx.facets))
        tally.count("dual_graph.edges", g.edge_count)
        self._cli(ck, "cli.main.check",
                  ["check", path, "--property", "s2", "--json"],
                  {"property": "s2", "holds": True})
        self._cli(ck, "cli.main.diameter", ["diameter", path, "--json"],
                  {"diameter": want})
        os.remove(path)

    def _cli(self, ck, name, argv, want):
        out = StringIO()
        with redirect_stdout(out):
            rc = self.tracer.call(name, cli_main, argv)
        ck.equal("%s exit code" % name, rc, 0)
        ck.equal("%s JSON" % name, json.loads(out.getvalue()), want)

    def _canon(self, ck, cx):
        key = self.tracer.call("search.canonical_form", canonical_form, cx)
        ck.true("canonical form is exact", key.exact)
        facets = key.facets
        ck.equal("canonical facets sorted", list(facets), sorted(facets))
        # an isomorphic image keeps every relabeling invariant
        ck.equal("facet sizes", sorted(f.bit_count() for f in facets),
                 sorted(f.bit_count() for f in cx.facets))
        ck.equal("vertex degrees", _degrees(facets, cx.n),
                 _degrees(cx.facets, cx.n))

    def _buchsbaum(self, ck, field, tag):
        call = self.tracer.call
        a5 = call("families.build", build, FamilyId("fig_a5"), check=False)
        # fig_a5 is a connected (S2) complex with d=3, hence Buchsbaum
        ck.true("fig_a5 Buchsbaum over %s" % tag,
                call("serre.is_buchsbaum." + tag, is_buchsbaum, a5, field))


WORKLOADS = {"mu_search": MuSearch, "oracle_fuzz": OracleFuzz,
             "glued_families": GluedFamilies}
