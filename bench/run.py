#!/usr/bin/env python3
"""srdual benchmark: one workload per run, every answer checked.

    python3 bench/run.py --workload mu_search --seed 1 --seconds 10 --trace 0

Run it from anywhere; it imports srdual from the ``src/`` directory of
the checkout that holds it and from nowhere else.  Whole passes of the
workload's fixed work are repeated while another pass fits into
``--seconds`` (always at least one).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Lines before it, starting with ``#``, give
the environment and the workload's own figures.  Spans (traced runs)
and a result record are written under ``.bench_out/`` in the checkout.
The exit code is 0 only when every answer was right; it is 2 when srdual
cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import NamedTuple

from tracing import NullTracer, Tracer, clock, layer_stats, span_cost_s, tail

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("mu_search", "oracle_fuzz", "glued_families")
SETUP_PROBES = 7

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("op_p50_ms", "ms"), ("op_tail_ms", "ms"))

#: spans reported as ``<name>.calls`` and ``<name>.busy_pct``
LAYERS = (
    "search.mu_2_7", "search.mu_3_6", "search.canonical_form",
    "search.verify_bounds",
    "serre.is_s2", "serre.linear_syzygy_check", "serre.is_buchsbaum.q",
    "serre.is_buchsbaum.gf2", "serre.connected_components",
    "complexes.alexander_dual_ideal", "complexes.from_masks",
    "dual_graph.build_dual_graph", "dual_graph.diameter",
    "gluing.glue", "families.build",
    "fileio.serialize_facet_file", "fileio.parse_facet_file",
    "cli.main.check", "cli.main.diameter",
)
#: work counts reported per pass
COUNTS = ("search.mu_2_7.leaves", "search.mu_3_6.leaves",
          "serre.is_s2.facets", "dual_graph.edges", "fileio.bytes")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed (only oracle_fuzz uses it); "
                         "seed 2 is kept for held-out checks")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_srdual():
    """Import srdual from this checkout's src/, or return None."""
    if not os.path.isfile(os.path.join(SRC, "srdual", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import srdual
    if os.path.dirname(os.path.dirname(os.path.abspath(srdual.__file__))) != SRC:
        return None
    return srdual


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for ln in fh:
                if ln.rstrip().endswith(" " + ref):
                    return ln.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over srdual's source files, to name the code when git cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "srdual")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment():
    return {"python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "commit": git_commit(), "source_digest": source_digest()}


def probe_setup(args):
    """Median time from spawning a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(clock() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError("set-up probe failed with exit code %s" % code)
    return statistics.median(times)


class Pass(NamedTuple):
    wall_s: float
    latencies: list  # seconds per checked operation
    maxrss_kib: int  # peak RSS of the process so far


def run_passes(wl, tally, seconds):
    """Whole passes while another fits into ``seconds``; at least one."""
    passes = []
    t_phase = clock()
    while True:
        first = len(tally.latencies)
        t0 = clock()
        wl.run_pass(tally)
        passes.append(Pass(clock() - t0, tally.latencies[first:],
                           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
        mean_pass = (clock() - t_phase) / len(passes)
        if clock() - t_phase + mean_pass > seconds:
            return passes


def end_to_end(passes, setup_s):
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        # after the first pass: later passes can grow the heap further,
        # and their number depends on the machine's speed
        "peak_rss_mb": passes[0].maxrss_kib / 1024,
        "op_p50_ms": 1e3 * statistics.median(
            statistics.median(p.latencies) for p in passes),
        "op_tail_ms": 1e3 * statistics.median(
            tail(p.latencies)[0] for p in passes),
    }


def per_layer(tracer, n_setup, total_s, passes, counts):
    """Per-layer metrics: set-up spans once, timed spans per pass."""
    npass = len(passes)
    setup = layer_stats(tracer.spans[:n_setup])
    timed = layer_stats(tracer.spans[n_setup:])
    allrows = layer_stats(tracer.spans)
    metrics = {}
    for name in LAYERS:
        calls = (setup.get(name, {}).get("calls", 0)
                 + timed.get(name, {}).get("calls", 0) // npass)
        busy = allrows.get(name, {}).get("busy_s", 0.0)
        metrics[name + ".calls"] = (calls, "count")
        metrics[name + ".busy_pct"] = (100.0 * busy / total_s, "%")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0) // npass, "count")
    for cell in ("mu_2_7", "mu_3_6"):
        busy = allrows.get("search." + cell, {}).get("busy_s", 0.0)
        leaves = counts.get("search.%s.leaves" % cell, 0)
        metrics["search.%s.leaves_per_s" % cell] = (
            leaves / busy if busy else 0.0, "1/s")
    op_self = sum(row["self_s"] for name, row in allrows.items()
                  if name.startswith("op."))
    metrics["bench.op.self_pct"] = (100.0 * op_self / total_s, "%")
    cost = span_cost_s() * len(tracer.spans)
    metrics["trace.overhead_frac"] = (cost / max(total_s - cost, 1e-9), "frac")
    metrics["trace.wall_s"] = (statistics.median(p.wall_s for p in passes), "s")
    return metrics, allrows


def main(argv=None):
    t_start = clock()
    args = parse_args(argv)
    if import_srdual() is None:
        print("error: srdual sources not found under %s" % SRC, file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Tally

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=OUT)
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](args.seed, workdir, NullTracer())
            print("ready", flush=True)
            return 0
        env = environment()
        tracer = Tracer() if args.trace else NullTracer()
        t_setup = clock()
        wl = WORKLOADS[args.workload](args.seed, workdir, tracer)
        n_setup = len(tracer.spans) if args.trace else 0
        tally = Tally(tracer)
        passes = run_passes(wl, tally, args.seconds)
        total_s = clock() - t_setup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "passes": len(passes), "env": env}
    print("# srdual benchmark: workload=%s seed=%d trace=%d passes=%d" % (
        args.workload, args.seed, args.trace, len(passes)))
    print("# env: %s" % json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, rows = per_layer(tracer, n_setup, total_s, passes,
                                  tally.counts)
        spans_path = os.path.join(OUT, "spans-%s.jsonl" % tag)
        tracer.write_jsonl(spans_path)
        record["layers"] = rows
        print("# %-34s %8s %9s %9s %9s %9s %6s" % (
            "span", "calls", "busy_s", "self_s", "p50_ms", "max_ms", "errors"))
        for name in sorted(rows):
            r = rows[name]
            if name.startswith("op."):
                continue
            print("# %-34s %8d %9.3f %9.3f %9.3f %9.3f %6d" % (
                name, r["calls"], r["busy_s"], r["self_s"], r["p50_ms"],
                r["max_ms"], r["errors"]))
        print("# spans: %d written to %s" % (len(tracer.spans), spans_path))
    else:
        values = end_to_end(passes, probe_setup(args))
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        _, pct, beyond = tail(passes[0].latencies)
        print("# op_tail_ms is p%.2f of %d ops per pass, %d ops beyond it" % (
            pct, len(passes[0].latencies), beyond))
        for line in workload_figures(args.workload, passes, values):
            print("# " + line)
    fail_frac = tally.failed / tally.attempted
    print("# fail_frac = %.6g (%d of %d ops)" % (
        fail_frac, tally.failed, tally.attempted))
    for miss in tally.misses[:20]:
        print("# MISS %s" % miss)
    print("# run took %.1f s" % (clock() - t_start))

    record["misses"] = tally.misses
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(OUT, "result-%s.json" % tag), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": record["metrics"]}))
    return 0 if tally.failed == 0 else 1


def workload_figures(workload, passes, values):
    """The workload's own end-to-end figures, medians over passes."""
    if workload == "mu_search":
        return ["%s = %.3f s" % (cell, statistics.median(p.latencies[i] for p in passes))
                for i, cell in enumerate(("mu_2_7_s", "mu_3_6_s"))]
    if workload == "oracle_fuzz":
        rates = [len(p.latencies) / p.wall_s for p in passes]
        return ["complexes_per_s = %.1f 1/s" % statistics.median(rates),
                "complex_p50_ms = %.4f ms" % values["op_p50_ms"],
                "complex_tail_ms = %.3f ms" % values["op_tail_ms"]]
    return []


if __name__ == "__main__":
    sys.exit(main())
