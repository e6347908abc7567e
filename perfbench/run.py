#!/usr/bin/env python3
"""qgames benchmark: the `sweep`, `scan` and `chain` workloads.

Run from the root of a qgames checkout; the package is imported from
``src/`` of that checkout, nothing is installed.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30     # every workload, one table

With ``--workload``, one workload runs closed loop with one client in this
process, single-threaded. ``--trace 0`` times each of a fixed number of
requests (``rate`` x ``--seconds``, so a seed always attempts the same
ones) untraced and prints the end-to-end metrics, each time scaled to a
reference speed of the shared host by host readings taken on either side
of it (see NOTES.md); ``--trace 1`` runs a fixed number of
requests untraced and then traced, prints the per-layer metrics and the
tracing overhead, and writes the spans under ``perfbench/out/``. Every
output is checked against closed forms. The last line of stdout is one
JSON object: correct, attempted, failed, metrics.

Without ``--workload``, every workload runs in a fresh process of its own,
untraced once and traced twice; the two traced runs must give identical
counts and must hit every binding the workload is meant to use.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads, here and in every process started from here.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import monotonic, perf_counter, perf_counter_ns  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("sweep", "scan", "chain")

MIN_REQUESTS = 100      # p90 then has at least ten samples beyond it
HARD_LIMIT_S = 150.0    # a run stops timing here whatever --seconds says
SETUP_PROBES = 11       # fresh processes whose set-up time is the median setup_s
HOST_REFERENCE_NS = 400_000  # end-to-end times are scaled to this host reading
TRACE_REQUESTS = {"sweep": 24, "scan": 240, "chain": 24}
COUNT_METRICS = (       # deterministic for a given seed and program
    "calls_per_req", "cells_per_req", "field_evals_per_call", "site_updates_per_req",
)
END_TO_END_UNITS = {
    "setup_s": "s", "lat_p50_ms": "ms", "lat_p90_ms": "ms",
    "throughput_rps": "1/s", "peak_rss_mb": "MB",
}


def import_program():
    """Import qgames from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import qgames
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import qgames from {ROOT / 'src'}: {exc}")
    if Path(qgames.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"perfbench: imported qgames from {qgames.__file__}, not from {ROOT / 'src'}")
    import workloads  # perfbench/ is on sys.path as the script's directory
    return workloads


def machine_info():
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def build_inputs(wl, seed):
    """The timed requests' inputs and the warm-up inputs, from the seed alone."""
    import numpy as np
    from workloads import POOL
    pool = wl.inputs(np.random.default_rng([seed, 0]), POOL)
    warm = wl.inputs(np.random.default_rng([seed, 1]), wl.shapes)
    return pool, warm


def warm_up(wl, warm):
    """One request of each shape, so lazy set-up is done before timing."""
    for i, row in enumerate(warm):
        try:
            wl.run(wl.prepare(row, i))
        except Exception:  # a broken program shows in the timed requests
            pass


def one_request(wl, row, index, call=None):
    """Prepare, run and check one request; return (ns, request, problems)."""
    req = wl.prepare(row, index)
    start = perf_counter_ns()
    try:
        out = call(index, wl.run, req) if call else wl.run(req)
    except Exception as exc:
        return perf_counter_ns() - start, req, [f"raised {type(exc).__name__}: {exc}"]
    ns = perf_counter_ns() - start
    try:
        return ns, req, wl.check(req, out)
    except Exception as exc:  # output too malformed to parse
        return ns, req, [f"check raised {type(exc).__name__}: {exc}"]


def print_failures(wl, failures):
    """Print every failure; return (known-defect failures, other failures)."""
    known = [f for f in failures if wl.known_defect(f[1], f[2])]
    other = [f for f in failures if f not in known]
    for failure in failures:
        index, req, problems = failure
        tag = "known defect" if failure in known else "FAILED"
        point = {k: v for k, v in req.items() if k not in ("argv", "argvs")}
        print(f"  request {index} {tag}: {point}")
        for p in problems[:4]:
            print(f"    {p}")
        if len(problems) > 4:
            print(f"    ... {len(problems) - 4} more")
    return known, other


def host_reading():
    """Time of a fixed loop of 4x4 complex NumPy products (about 0.4 ms at
    full speed), the kind of small-array call the program makes. The
    shared host runs this process at changing speeds, up to about 1.75x
    apart, for seconds to minutes at a time; the readings taken on either
    side of a request say at which speed it ran."""
    import numpy as np
    eye, a = np.eye(2), np.eye(4, dtype=complex) * (1 + 0.5j)
    start = perf_counter_ns()
    for _ in range(15):
        a = np.kron(eye, eye) @ a @ a.conj().T * 0.5
    return perf_counter_ns() - start


def at_reference_speed(value, before, after):
    """`value` scaled by HOST_REFERENCE_NS over the mean of the host
    readings before and after it was measured."""
    return value * 2 * HOST_REFERENCE_NS / (before + after)


def setup_probe(workload, seed):
    """Set-up time of a fresh process, from spawning it to the moment it has
    imported qgames and warmed up (CLOCK_MONOTONIC is shared by processes)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--probe"]
    start = monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe for {workload} exited {proc.returncode}\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def timed_loop(wl, pool, count, probe):
    """Closed loop over the first `count` inputs, so that a seed always
    attempts the same requests. Host readings between requests, outside
    the timer, bracket each request. The set-up probes run between
    requests at evenly spaced points of the loop, each bracketed by the
    readings after the requests on either side (a reading just after the
    parent has waited reads slow). Returns (ns, reading before, reading
    after) per request, (s, before, after) per probe, and the failures."""
    lat, failures, setups = [], [], []
    start = perf_counter()
    host_reading()  # the first one reads cold
    before = host_reading()
    for i in range(count):
        if len(setups) < SETUP_PROBES and i >= len(setups) * count / SETUP_PROBES:
            setups.append([probe(), before, None])
        if perf_counter() - start >= HARD_LIMIT_S:
            print(f"  stopped after {i} of {count} requests: {HARD_LIMIT_S:g} s reached")
            break
        ns, req, problems = one_request(wl, pool[i], i)
        after = host_reading()
        lat.append((ns, before, after))
        if setups[-1][2] is None:
            setups[-1][2] = after
        before = after
        if problems:
            failures.append((i, req, problems))
    return lat, failures, [(t, b, a or b) for t, b, a in setups]


def untraced_run(wl, workload, seed, seconds):
    pool, warm = build_inputs(wl, seed)
    warm_up(wl, warm)
    count = min(len(pool), max(MIN_REQUESTS, math.ceil(wl.rate * seconds)))
    t0 = perf_counter()
    runs, failures, setups = timed_loop(wl, pool, count, lambda: setup_probe(workload, seed))
    wall = perf_counter() - t0
    n = len(runs)
    lat = [at_reference_speed(*request) for request in runs]
    setup = [at_reference_speed(*probe) for probe in setups]
    ok = n - len(failures)
    busy_s = sum(lat) / 1e9
    raw = [ns for ns, _, _ in runs]
    speed = statistics.median(2 * HOST_REFERENCE_NS / (b + a) for _, b, a in runs)
    metrics = {
        "setup_s": statistics.median(setup),
        "lat_p50_ms": statistics.median(lat) / 1e6,
        "lat_p90_ms": statistics.quantiles(lat, n=10)[8] / 1e6,
        "throughput_rps": ok / busy_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"workload {workload}  seed {seed}  {n} requests, {len(failures)} failed, {wall:.1f} s; "
          f"host at {speed:.3f} of the reference speed (median); times scaled to it")
    print(f"  {'setup_s':<15}{metrics['setup_s']:>12.4f} s    median of {len(setup)} fresh processes "
          f"(unscaled {statistics.median(t for t, _, _ in setups):.4f})")
    print(f"  {'lat_p50_ms':<15}{metrics['lat_p50_ms']:>12.4f} ms   n={n} (unscaled "
          f"{statistics.median(raw) / 1e6:.4f})")
    print(f"  {'lat_p90_ms':<15}{metrics['lat_p90_ms']:>12.4f} ms   n={n}, {n - int(0.9 * n)} beyond "
          f"(unscaled {statistics.quantiles(raw, n=10)[8] / 1e6:.4f})")
    print(f"  {'throughput_rps':<15}{metrics['throughput_rps']:>12.4f} 1/s  {ok} ok in {busy_s:.3f} s "
          f"(unscaled {ok / (sum(raw) / 1e9):.4f})")
    print(f"  {'error_rate':<15}{len(failures) / n:>12.4f}       {len(failures)}/{n}")
    print(f"  {'peak_rss_mb':<15}{metrics['peak_rss_mb']:>12.4f} MB")
    known, other = print_failures(wl, failures)
    return n, failures, known, other, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def traced_run(wl, workload, seed):
    import spans
    pool, warm = build_inputs(wl, seed)
    warm_up(wl, warm)
    k = min(TRACE_REQUESTS[workload], len(pool))
    start = perf_counter_ns()
    for i in range(k):
        one_request(wl, pool[i], i)
    untraced_ns = perf_counter_ns() - start

    tracer = spans.Tracer()
    bindings = tracer.install()
    failures = []
    start = perf_counter_ns()
    try:
        for i in range(k):
            _, req, problems = one_request(wl, pool[i], i, call=tracer.request)
            if problems:
                failures.append((i, req, problems))
    finally:
        traced_ns = perf_counter_ns() - start
        tracer.uninstall()
    metrics = tracer.per_layer(k)
    metrics["trace.overhead_ms_per_req"] = (traced_ns - untraced_ns) / k / 1e6
    metrics["trace.overhead_share"] = (traced_ns - untraced_ns) / untraced_ns

    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.csv.gz")
    shape = tracer.shape()
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "requests": k, "machine": machine_info(),
        "metrics": metrics, "binding_hits": dict(tracer.hits), "calls_per_subcommand": shape,
    }, indent=1, sort_keys=True) + "\n")

    print(f"workload {workload}  seed {seed}  traced {k} requests, {len(failures)} failed, "
          f"{len(tracer.spans)} spans, {len(bindings)} bindings wrapped")
    print(f"  untraced {untraced_ns / 1e9:.3f} s, traced {traced_ns / 1e9:.3f} s")
    for sub, counts in shape.items():
        print(f"  per `qgames {sub}`: " + ", ".join(f"{n} {c:g}" for n, c in counts.items()))
    for name, value in metrics.items():
        print(f"  {name:<52}{value:>16.6g}")
    known, other = print_failures(wl, failures)
    return k, failures, known, other, {
        name: {"value": value, "unit": spans.unit(name)} for name, value in metrics.items()
    }


def run_one(args):
    t0 = perf_counter()
    wl = import_program().WORKLOADS[args.workload]
    if args.probe:
        pool, warm = build_inputs(wl, args.seed)
        warm_up(wl, warm)
        print(f"ready {monotonic()!r}")
        return 0
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    if args.trace:
        n, failures, known, other, metrics = traced_run(wl, args.workload, args.seed)
    else:
        n, failures, known, other, metrics = untraced_run(wl, args.workload, args.seed, args.seconds)
    if known:
        print(f"  {len(known)} failure(s) are the recorded int8-overflow defect of the Metropolis loop")
    print(f"  wall {perf_counter() - t0:.1f} s")
    print(json.dumps({"correct": not other, "attempted": n, "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in a fresh process, then the deterministic-count and
    binding-hit self-checks on two traced runs of each."""
    import spans
    base = [sys.executable, str(HERE / "run.py"), "--seed", str(args.seed), "--seconds", str(args.seconds)]
    problems = []
    table = {}
    for workload in NAMES:
        result = {}
        for trace in (0, 1, 1):
            proc = subprocess.run(base + ["--workload", workload, "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                sys.exit(f"perfbench: {workload} --trace {trace} exited {proc.returncode}")
            if trace == 0:
                result["e2e"] = json.loads(proc.stdout.splitlines()[-1])
                continue
            dump = json.loads((OUT / f"trace-{workload}-seed{args.seed}.json").read_text())
            result.setdefault("traces", []).append(dump)
        first, second = result["traces"]
        for name, value in first["metrics"].items():
            if name.endswith(COUNT_METRICS) and value != second["metrics"][name]:
                problems.append(f"{workload}: {name} differs between two traced runs: "
                                f"{value!r} vs {second['metrics'][name]!r}")
        for binding in spans.EXPECTED_BINDINGS[workload]:
            if not first["binding_hits"].get(binding):
                problems.append(f"{workload}: binding {binding} was never called")
        table[workload] = result["e2e"]

    print("\nsummary (untraced runs)")
    print(f"  {'workload':<9}{'attempted':>10}{'failed':>8}{'error_rate':>12}"
          + "".join(f"{n + ' (' + u + ')':>22}" for n, u in END_TO_END_UNITS.items()))
    for workload, res in table.items():
        m = res["metrics"]
        print(f"  {workload:<9}{res['attempted']:>10}{res['failed']:>8}"
              f"{res['failed'] / res['attempted']:>12.4f}"
              + "".join(f"{m[n]['value']:>22.4f}" for n in END_TO_END_UNITS))
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    if problems:
        return 1
    print("self-check: counts identical on two traced runs; every expected binding hit")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
