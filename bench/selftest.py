"""Tests of the benchmark's own machinery; they never run a full workload.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run
import tracing
from tracing import Span, Tracer, self_times, tail

if run.import_srdual() is None:
    sys.exit("srdual sources not found under %s" % run.SRC)

import workloads  # noqa: E402  (needs srdual on the path)
from srdual.families import FamilyId  # noqa: E402
from workloads import Check, GluedFamilies, MuSearch, OracleFuzz, Tally  # noqa: E402


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct, beyond = tail(list(range(1, 101)))
        self.assertEqual((value, pct, beyond), (90, 90.0, 10))

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(tail([5, 1, 4, 2, 3] * 10), tail(sorted([5, 1, 4, 2, 3] * 10)))

    def test_smallest_sample_count_with_a_tail_above_the_median(self):
        value, pct, beyond = tail(list(range(21)))
        self.assertEqual((value, beyond), (10, 10))
        self.assertAlmostEqual(pct, 100 * 11 / 21)

    def test_few_samples_give_the_maximum(self):
        self.assertEqual(tail(list(range(20))), (19, 100.0, 0))
        self.assertEqual(tail([3.5]), (3.5, 100.0, 0))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            tail([])


def _span(start, end, parent=-1):
    return Span("x", start, end, parent, 0, False)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(self_times([_span(1.0, 3.5)]), [2.5])

    def test_overlapping_children_are_covered_once(self):
        spans = [_span(0, 10), _span(1, 3, 0), _span(2, 5, 0), _span(7, 8, 0)]
        self.assertEqual(self_times(spans), [5, 2, 3, 1])

    def test_child_parts_outside_the_parent_are_ignored(self):
        spans = [_span(2, 6), _span(0, 3, 0), _span(5, 9, 0)]
        self.assertEqual(self_times(spans)[0], 2)

    def test_grandchildren_only_reduce_their_own_parent(self):
        spans = [_span(0, 10), _span(2, 8, 0), _span(3, 4, 1)]
        self.assertEqual(self_times(spans), [4, 5, 1])


class Spans(unittest.TestCase):
    def test_calls_inside_an_op_share_its_id_and_name_it_parent(self):
        tr = Tracer()
        with tr.op("op.a"):
            tr.call("m.f", int)
            tr.call("m.g", int)
        with tr.op("op.b"):
            tr.call("m.f", int)
        names = [s.name for s in tr.spans]
        self.assertEqual(names, ["op.a", "m.f", "m.g", "op.b", "m.f"])
        self.assertEqual([s.parent for s in tr.spans], [-1, 0, 0, -1, 3])
        self.assertEqual([s.op for s in tr.spans], [1, 1, 1, 2, 2])
        self.assertTrue(all(s.end >= s.start for s in tr.spans))

    def test_exception_marks_the_span_and_propagates(self):
        tr = Tracer()
        with self.assertRaises(ZeroDivisionError):
            tr.call("m.div", lambda: 1 / 0)
        self.assertTrue(tr.spans[0].error)
        self.assertEqual(tracing.layer_stats(tr.spans)["m.div"]["errors"], 1)


class Failures(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.OUT, exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=run.OUT)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_wrong_answer_and_exception_each_fail_one_op(self):
        tally = Tally(tracing.NullTracer())
        tally.run("right", lambda ck: ck.equal("x", 2, 2))
        tally.run("wrong", lambda ck: ck.equal("x", 1, 2))
        tally.run("crash", lambda ck: 1 / 0)
        tally.run("false", lambda ck: ck.true("holds", False))
        self.assertEqual((tally.attempted, tally.failed), (4, 3))
        self.assertEqual(len(tally.latencies), 4)
        self.assertIn("wrong: x: got 1, want 2", tally.misses)

    def test_search_with_a_wrong_expected_mu_fails(self):
        class TinySearch(MuSearch):
            CELLS = ((2, 5, 3, None), (2, 5, 4, None))
            TASKS = 8

        tally = Tally(Tracer())
        TinySearch(1, self.workdir, tally.tracer).run_pass(tally)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertEqual(os.listdir(self.workdir), [])

    def test_oracle_disagreement_fails_every_complex(self):
        class TinyFuzz(OracleFuzz):
            COMPLEXES = 30

        wl = TinyFuzz(7, self.workdir, tracing.NullTracer())
        tally = Tally(wl.tracer)
        wl.run_pass(tally)
        self.assertEqual((tally.attempted, tally.failed), (30, 0))
        real = workloads.linear_syzygy_check
        workloads.linear_syzygy_check = lambda ideal: not real(ideal)
        try:
            wl.run_pass(tally)
        finally:
            workloads.linear_syzygy_check = real
        self.assertEqual((tally.attempted, tally.failed), (60, 30))

    def test_oracle_inputs_follow_the_seed(self):
        class TinyFuzz(OracleFuzz):
            COMPLEXES = 20

        tr = tracing.NullTracer()
        a = TinyFuzz(3, self.workdir, tr).complexes
        self.assertEqual(a, TinyFuzz(3, self.workdir, tr).complexes)
        self.assertNotEqual(a, TinyFuzz(4, self.workdir, tr).complexes)

    def test_wrong_family_diameter_fails(self):
        wl = GluedFamilies(1, self.workdir, tracing.NullTracer())
        fam = FamilyId("glued_d4", k=1, j=1)
        for want, misses in ((7, 0), (8, 2)):  # diameter and CLI JSON
            ck = Check()
            cx = workloads.build(fam, check=False)
            wl._certify(ck, Tally(wl.tracer), cx, want, "d4")
            self.assertEqual(len(ck.misses), misses, ck.misses)


class Declaration(unittest.TestCase):
    def test_benchmark_json_lists_exactly_what_run_py_reports(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            decl = json.load(fh)
        self.assertEqual([w["name"] for w in decl["workloads"]],
                         list(run.WORKLOAD_NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in decl["end_to_end"]],
                         list(run.END_TO_END))
        metrics, _ = run.per_layer(Tracer(), 0, 1.0, [run.Pass(1.0, [0.001], 1)], {})
        self.assertEqual([(m["name"], m["unit"]) for m in decl["per_layer"]],
                         [(k, unit) for k, (_, unit) in metrics.items()])


class Runner(unittest.TestCase):
    def test_without_sources_it_exits_nonzero_and_prints_no_result(self):
        os.makedirs(run.OUT, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=run.OUT)
        try:
            shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)),
                            os.path.join(tmp, "bench"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "mu_search",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")

    def test_one_pass_at_least_and_whole_passes_only(self):
        class Fixed:
            def run_pass(self, tally):
                tally.run("op", lambda ck: None)

        tally = Tally(tracing.NullTracer())
        passes = run.run_passes(Fixed(), tally, 0)
        self.assertEqual(len(passes), 1)
        self.assertEqual(len(passes[0].latencies), 1)


if __name__ == "__main__":
    unittest.main()
