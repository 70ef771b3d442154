"""Benchmark of wordbound: one workload, one run, one JSON line of results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {suite,queries,finite} --seed N \
        --seconds S --trace {0,1}

The program is imported from the checkout's ``src`` directory.  A run sets
up (timed in fresh interpreters), then repeats whole passes over the
workload's fixed operation list until ``--seconds`` have elapsed, checks the
outputs outside the timed region, and prints a summary followed by one JSON
object as the last line.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics from passes traced by ``tracing.py``.
Result and trace files go to ``perfbench/out``.

Every reported time is in reference seconds, so that the host switching this
machine's cores between two speeds does not show as a change of the program:
a time measured in a pass is scaled by the machine-speed factor sampled
around it (``speed.py``), a set-up or import probe by a reference interpreter
timed around it.  The measured pass times are printed in the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 11  # fresh interpreters timed per run; setup_s is their median
IMPORT_PROBES = 7
# Set-up is mostly interpreter start and imports, which slow less than the
# speed sample's search when the machine is slow; so probes are scaled by a
# fresh interpreter doing the same kind of work without the program: it
# imports a fixed list of standard-library modules.  REFERENCE_INTERPRETER_S
# is its time on the reference machine (Python 3.11.7) at the faster speed.
REFERENCE_IMPORTS = ("import unittest, xml.dom.minidom, email.mime.multipart, "
                     "http.cookiejar, pydoc, decimal, statistics, fractions")
REFERENCE_INTERPRETER_S = 0.120
MIN_PASSES = 3
SPEED_EVERY = 0.02  # seconds between machine-speed samples within a pass
FAMILIES = ("free", "product", "int-vector", "heisenberg", "dihedral-finite",
            "dihedral-infinite", "finite-cyclic", "cayley-table")
EXPERIMENTS = ("zxzq", "zd", "heisenberg", "dinfty", "heisenberg-center", "zxd8",
               "prescribe-free", "prescribe-zd", "quotient-orbit", "aut-orbit",
               "uniform-length", "fc-witness")
TINY = {"suite": {}, "queries": {"scale": 1}, "finite": {"scale": 1, "table_groups": ("D8", "Q8")}}


@dataclass
class Pass:
    depth: object  # None untraced, else the tracing depth
    wall: float  # measured seconds, speed sampling taken out
    factor: float  # reference seconds per measured second over the pass
    results: object  # the first pass's results; for the others, whether they repeat it
    latencies: list  # reference seconds per operation
    tracer: object


def _import_program():
    """Put the checkout's src and this directory first on the import path."""
    if not (SRC / "wordbound" / "__init__.py").is_file():
        sys.exit(f"error: no wordbound sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import wordbound

    if Path(wordbound.__file__).resolve().parent != SRC / "wordbound":
        sys.exit(f"error: imported wordbound from {wordbound.__file__}, not from {SRC}")


def _interpreter_s():
    """Wall time of a fresh interpreter importing REFERENCE_IMPORTS."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], check=True, timeout=60)
    return time.perf_counter() - t0


def _probe(args, *extra, count):
    """Reference seconds of ``count`` fresh interpreters running this file:
    for the set-up probe, spawn to exit; for the import probe, the import the
    child times.  A fresh interpreter importing REFERENCE_IMPORTS runs
    before the first probe and after each, all on one CPU, and each probe is
    scaled by REFERENCE_INTERPRETER_S over the mean of the two around it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    if args.tiny:
        cmd.append("--tiny")
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})  # children inherit it
    try:
        refs = [_interpreter_s()]
        times = []
        for _ in range(count):
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
            wall = time.perf_counter() - t0
            refs.append(_interpreter_s())
            if done.returncode != 0:
                sys.exit(f"error: probe {extra} failed: {done.stderr.decode(errors='replace')}")
            seconds = json.loads(done.stdout)["seconds"] if "import" in extra else wall
            times.append(seconds * REFERENCE_INTERPRETER_S / statistics.mean(refs[-2:]))
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def _run_probe(args):
    """The child side of ``_probe``: set up, or import the CLI and report the
    seconds the import took."""
    t0 = time.perf_counter()
    if args.probe == "import":
        sys.path.insert(0, str(SRC))
        import wordbound.cli  # noqa: F401
    else:
        _import_program()
        _build(args)
    print(json.dumps({"seconds": time.perf_counter() - t0}))


def _build(args):
    import workloads

    kwargs = TINY[args.workload] if args.tiny else {}
    return workloads.WORKLOADS[args.workload](args.seed, **kwargs)


def _passes(work, seconds, depths):
    """Run whole passes until ``seconds`` elapse; ``depths`` cycles the tracing."""
    import tracing
    from speed import Speed

    passes = []
    start = time.perf_counter()
    while len(passes) < max(MIN_PASSES, len(depths)) or time.perf_counter() - start < seconds:
        depth = depths[len(passes) % len(depths)]
        speed = Speed(SPEED_EVERY)
        tracer = tracing.Tracer(depth).install() if depth else None
        try:
            t0 = time.perf_counter()
            results, lat, ticks = work.run_pass(speed)
            wall = time.perf_counter() - t0 - speed.spent
        finally:
            if tracer is not None:
                tracer.uninstall()
        if passes:  # the first pass is kept for the checks; the others must repeat it
            results = [work.digest(r) for r in results] == first
        else:
            first = [work.digest(r) for r in results]
        scaled = [x * speed.factor(k) for x, k in zip(lat, ticks)]
        factor = sum(scaled) / sum(lat) if sum(lat) else speed.factor(0)
        passes.append(Pass(depth, wall, factor, results, scaled, tracer))
    return passes


def _judge(work, passes):
    """(attempted, failed, correct): the first pass against the reference,
    operation by operation; every later pass must have repeated it."""
    ok = work.check(passes[0].results)
    n = len(passes[0].results)
    correct = len(ok) == n and all(p.results is True for p in passes[1:])
    attempted = n * len(passes)
    failed = (n - sum(ok)) * len(passes)
    return attempted, failed, correct


def end_to_end(setup, passes, peak_rss_mb):
    ref_walls = [p.wall * p.factor for p in passes]
    ops = sum(len(p.latencies) for p in passes)
    throughput = statistics.median(len(p.latencies) / w for p, w in zip(passes, ref_walls))
    p50 = statistics.median(statistics.median(p.latencies) for p in passes)
    beyond = sum(1 for p in passes for x in p.latencies if x > p50)
    print(f"op_p50_ms: median of per-pass medians over {ops} samples, {beyond} beyond it")
    if beyond < 10:
        print("warning: fewer than ten samples beyond the median")
    print("measured pass s: " + " ".join(f"{p.wall:.3f}" for p in passes))
    print("speed factor:    " + " ".join(f"{p.factor:.3f}" for p in passes))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(ref_walls), "s"),
        "ops_per_s": (throughput, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _child_time(tracer, parent_key, child_key):
    """Seconds the spans named ``child_key`` spend directly under ``parent_key``."""
    spans = tracer.spans
    return sum(
        (end - start) for key, start, end, parent in spans
        if key == child_key and parent is not None and spans[parent][0] == parent_key
    ) / 1e9


def per_layer(args, passes):
    """Counts from the first pass of each depth (they repeat exactly); times
    as the median over the passes of that depth, in reference seconds."""
    coarse = [p for p in passes if p.depth == "coarse"]
    law = [p for p in passes if p.depth == "mul"]
    cont = [p for p in passes if p.depth == "contains"]
    c0, l0 = coarse[0].tracer, law[0].tracer
    for group in (coarse, law, cont):
        counts = [{k: v[0] for k, v in p.tracer.stats.items()} for p in group]
        if any(c != counts[0] for c in counts):
            print("warning: call counts differ between passes of the same tracing depth")

    def med(f, group=coarse):
        return statistics.median(f(p.tracer) * p.factor for p in group)

    m = {}
    searches = {"ball": "metric.ball", "bfs": "metric._length_bfs",
                "bidirectional": "metric._length_bidirectional"}
    for name, key in searches.items():
        m[f"metric.{name}_calls"] = (c0.calls(key), "count")
        m[f"metric.{name}_s"] = (med(lambda t, k=key: t.seconds(k)), "s")
        m[f"metric.{name}_{'nodes' if name == 'ball' else 'explored'}"] = (c0.measure(key), "count")
    nodes = sum(c0.measure(k) for k in searches.values())
    search_s = med(lambda t: sum(t.seconds(k) for k in searches.values()))
    m["metric.nodes_per_s"] = (nodes / search_s if search_s else 0.0, "1/s")
    m["metric.new_node_ratio"] = (
        sum(l0.measure(k) for k in searches.values()) / l0.search_muls if l0.search_muls else 0.0,
        "ratio")

    mul_keys = [f"groups.mul.{f}" for f in FAMILIES]
    m["groups.mul_calls"] = (sum(l0.calls(k) for k in mul_keys), "count")
    m["groups.mul_self_s"] = (med(lambda t: sum(t.seconds(k, 2) for k in mul_keys), law), "s")
    m["groups.contains_s"] = (
        med(lambda t: sum(t.measure(f"groups.contains.{f}") for f in FAMILIES) / 1e9, cont), "s")
    for f in FAMILIES:
        key = f"groups.mul.{f}"
        m[f"groups.mul_ns.{f}"] = (
            med(lambda t, k=key: t.seconds(k) * 1e9 / t.calls(k) if t.calls(k) else 0.0, law), "ns")
    m["groups.closure_calls"] = (c0.calls("groups.closure"), "count")
    m["groups.closure_s"] = (med(lambda t: t.seconds("groups.closure")), "s")

    m["girth.calls"] = (c0.calls("girth.girth"), "count")
    m["girth.s"] = (med(lambda t: t.seconds("girth.girth")), "s")
    m["girth.scan_self_s"] = (
        med(lambda t: t.seconds("girth.girth") - _child_time(t, "girth.girth", "metric.ball")), "s")

    m["gensets.generates_calls"] = (c0.calls("gensets.generates"), "count")
    for name in ("generates", "make_symmetric", "smith_normal_form"):
        m[f"gensets.{name}_s"] = (med(lambda t, k=f"gensets.{name}": t.seconds(k)), "s")

    for name in EXPERIMENTS:
        m[f"experiments.{name}_s"] = (med(lambda t, k=f"experiments.run.{name}": t.seconds(k)), "s")
    for name in ("uniform_length_table", "aut_group"):
        m[f"experiments.{name}_calls"] = (c0.calls(f"experiments.{name}"), "count")
        m[f"experiments.{name}_s"] = (med(lambda t, k=f"experiments.{name}": t.seconds(k)), "s")
    m["reports.render_s"] = (med(lambda t: t.seconds("reports.render_report")), "s")

    m["cli.import_s"] = (statistics.median(_probe(args, "--probe", "import", count=IMPORT_PROBES)), "s")
    for name, group in (("pass_s", coarse), ("mul_pass_s", law), ("contains_pass_s", cont)):
        m[f"trace.{name}"] = (statistics.median(p.wall * p.factor for p in group), "s")
    _write_trace(args, c0, l0)
    return m


def _write_trace(args, coarse, mul):
    """Aggregates of the first coarse and mul passes and every coarse span."""
    OUT.mkdir(exist_ok=True)
    base = coarse.spans[0][1] if coarse.spans else 0
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "fields": ["calls", "inclusive_ns", "self_ns", "measure"],
        "stats": {"coarse": coarse.stats, "mul": mul.stats},
        "search_muls": mul.search_muls,
        "spans": [[k, s - base, e - base, p] for k, s, e, p in coarse.spans],
    }
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(doc))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TINY))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    ap.add_argument("--probe", choices=("setup", "import"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe:
        _run_probe(args)
        return 0
    _import_program()

    setup = None if args.trace else _probe(args, "--probe", "setup", count=SETUP_PROBES)
    work = _build(args)
    passes = _passes(work, args.seconds, ("coarse", "mul", "contains") if args.trace else (None,))
    # taken before the checks, whose reference searches are the benchmark's memory, not the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, correct = _judge(work, passes)
    print(f"{args.workload} seed {args.seed}: attempted {attempted}, failed {failed}")
    metrics = per_layer(args, passes) if args.trace else end_to_end(setup, passes, peak_rss_mb)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
