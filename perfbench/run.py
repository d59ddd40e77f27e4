"""zonoid-lab benchmark: run one workload (or all of them) for a seed.

    python3 perfbench/run.py --workload grid-duality --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout; it imports ``zonoid_lab`` from that
checkout's ``src/`` only.  A closed loop with one client runs the
workload's cycles back to back (see ``workloads.py``) until ``--seconds``
have passed, checks every answer, prints every metric by name with its unit
and sample count, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` alternates untraced and traced cycles over the same inputs and reports
the per-layer metrics; the spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("grid-duality", "family-models", "mc-oracle", "cli-batch")
PROBES = 5
MIN_CYCLES = 2
COVERAGE_TOL = 0.02
_now = time.perf_counter


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    return dict(os.environ, PYTHONPATH=SRC)


# ---------------------------------------------------------------------------
# Measurements made in child processes
# ---------------------------------------------------------------------------

# A fresh interpreter imports zonoid_lab, builds the workload's program
# objects and runs one warm-up operation; it reports after the import and
# when it is ready for its first timed operation.
_PROBE = """
import sys
import zonoid_lab
print("imported", flush=True)
sys.path.insert(0, sys.argv[1])
import workloads
w = workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]), sys.argv[4])
w.setup()
w.warmup()
print("ready", flush=True)
w.close()
"""


def setup_probe(workload, seed):
    """(import_s, setup_s): wall time from starting the interpreter to the
    end of ``import zonoid_lab``, and to the end of the warm-up."""
    t0 = _now()
    with subprocess.Popen([sys.executable, "-c", _PROBE, os.path.dirname(os.path.abspath(__file__)),
                           workload, str(seed), ROOT],
                          cwd=ROOT, env=child_env(), stdout=subprocess.PIPE) as proc:
        imported = proc.stdout.readline()
        t_import = _now() - t0
        ready = proc.stdout.readline()
        t_ready = _now() - t0
        proc.stdout.read()
    if proc.returncode != 0 or imported.strip() != b"imported" or ready.strip() != b"ready":
        raise RuntimeError(f"setup probe for {workload} failed")
    return t_import, t_ready


def importtime_breakdown():
    import spans
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zonoid_lab"],
                          cwd=ROOT, env=child_env(), check=True, capture_output=True, text=True)
    return spans.import_breakdown(proc.stderr)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed operations, and the latency of each."""

    def __init__(self):
        self.latencies = []
        self.by_label = {}
        self.attempted = 0
        self.failures = []
        self.statistical = 0       # operations with a Monte Carlo check
        self.misses = []           # Monte Carlo answers beyond 4 SE, within 6

    def run(self, ops, mode, tracer=None, op_base=0):
        """Run ``ops`` back to back, then check them; return the cycle wall
        time, the per-operation walls and the number checked correct.
        ``mode`` picks ``run`` or ``inproc``."""
        from workloads import StatisticalMiss
        outcomes = []
        t_cycle = _now()
        for i, op in enumerate(ops):
            fn = op.inproc if mode == "inproc" else op.run
            t0 = _now()
            try:
                if tracer is not None:
                    tracer.begin_op(op_base + i, op.kind)
                try:
                    result, error = fn(), None
                finally:
                    if tracer is not None:
                        tracer.end_op()
            except Exception as exc:  # the loop keeps running; the op counts as failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append((op, _now() - t0, result, error))
        wall = _now() - t_cycle
        walls, failed_before = [], self.failed
        for op, lat, result, error in outcomes:
            self.attempted += 1
            self.statistical += op.statistical
            self.latencies.append(lat)
            self.by_label.setdefault(" ".join(op.desc.split()[:2]), []).append(lat)
            walls.append(lat)
            if error is None:
                try:
                    op.check(result)
                except StatisticalMiss as exc:
                    self.misses.append(f"{op.desc}: {exc}")
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                self.failures.append(f"{op.desc}: {error}")
        return wall, walls, len(ops) - (self.failed - failed_before)

    @property
    def correct(self):
        """No operation failed, and no more Monte Carlo answers missed 4 SE
        than chance allows."""
        return self.failed == 0 and len(self.misses) <= max(2, 0.02 * self.statistical)

    @property
    def failed(self):
        return len(self.failures)


def done(elapsed, cycles, seconds):
    """Stop at the cycle boundary nearest to ``seconds``, after at least
    MIN_CYCLES whole cycles."""
    return cycles >= MIN_CYCLES and elapsed + 0.5 * elapsed / cycles >= seconds


def untraced(w, seconds, digests):
    """Whole cycles for ``seconds`` of loop time, with the setup probes
    spread evenly over it.  Returns the tally, each cycle's rate of correct
    operations per second, and the probes."""
    tally, walls, rates, probes = Tally(), [], [], []
    c = 0
    while True:
        while len(probes) < PROBES and sum(walls) >= len(probes) * seconds / PROBES:
            probes.append(setup_probe(w.name, w.seed))
        ops = w.cycle(c)
        digests.append(hashlib.sha256("\n".join(op.desc for op in ops).encode()).hexdigest())
        wall, _, n_ok = tally.run(ops, "run")
        walls.append(wall)
        rates.append(n_ok / wall)
        c += 1
        if done(sum(walls), c, seconds):
            break
    while len(probes) < PROBES:
        probes.append(setup_probe(w.name, w.seed))
    return tally, rates, probes


def traced(w, seconds, digests, tracer):
    """Pairs of an untraced and a traced cycle over the same inputs.  For
    cli-batch the untraced subprocess cycle runs first, and both compared
    cycles replay the argv list in-process through ``cli.main``."""
    tally = Tally()
    plain_walls, traced_walls, op_walls, sub_walls = [], [], [], {}
    c, op_base, spent = 0, 0, 0.0
    # one untimed pass over a whole cycle first, so that first-call costs
    # fall on neither side of the overhead comparison
    ops = w.cycle(0)
    tally.run(ops, "run" if ops[0].inproc is None else "inproc")
    while True:
        ops = w.cycle(c)
        digests.append(hashlib.sha256("\n".join(op.desc for op in ops).encode()).hexdigest())
        if ops[0].inproc is not None:
            wall, walls, _ = tally.run(ops, "run")
            spent += wall
            for op, lat in zip(ops, walls):
                sub_walls.setdefault(op.desc.split()[1], []).append(lat)
            mode = "inproc"
        else:
            mode = "run"
        # alternate which of the pair runs first, so that warming up on the
        # first run of the inputs does not bias the overhead either way
        if c % 2:
            plain_walls.append(tally.run(ops, mode)[0])
        tracer.install()
        try:
            wall, walls, _ = tally.run(ops, mode, tracer, op_base)
        finally:
            tracer.uninstall()
        if not c % 2:
            plain_walls.append(tally.run(ops, mode)[0])
        traced_walls.append(wall)
        op_walls.extend(walls)
        op_base += len(ops)
        c += 1
        spent += plain_walls[-1] + traced_walls[-1]
        if done(spent, c, seconds):
            break
    return tally, plain_walls, traced_walls, op_walls, sub_walls


def simulate_speedup():
    """The same 2e6-path simulation at 1 and at 2 worker threads."""
    from zonoid_lab import mc
    cfg = mc.SimConfig("bachelier", 1.0, 2_000_000, 7)
    times = {}
    saved = os.environ["ZONOID_LAB_THREADS"]
    try:
        for threads in ("1", "2"):
            os.environ["ZONOID_LAB_THREADS"] = threads
            runs = []
            for _ in range(5):
                t0 = _now()
                mc.simulate_terminal(cfg)
                runs.append(_now() - t0)
            times[threads] = statistics.median(runs)
    finally:
        os.environ["ZONOID_LAB_THREADS"] = saved
    return times["1"] / times["2"]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def environment():
    import numpy
    import scipy
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "zonoid_lab", "*.py"))):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)

    def cache(name):
        proc = subprocess.run(["getconf", name], capture_output=True, text=True)
        return int(proc.stdout) if proc.returncode == 0 and proc.stdout.strip().isdigit() else -1

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc(), "os.cpu_count": os.cpu_count(),
            "ZONOID_LAB_THREADS": os.environ["ZONOID_LAB_THREADS"],
            "l2_bytes": cache("LEVEL2_CACHE_SIZE"), "l3_bytes": cache("LEVEL3_CACHE_SIZE"),
            "src_lines": src_lines}


def working_set(env):
    """Per-chunk temporaries of the brute-force grid transform against L2."""
    from zonoid_lab import zonoid
    import inspect
    kernel = getattr(zonoid, "_min_over_nodes", None)
    if kernel is None:
        return "brute-force grid kernel not present"
    chunk = inspect.signature(kernel).parameters["chunk"].default
    l2 = env["l2_bytes"]
    parts = [f"N={n}: {chunk * n * 8 / 1e6:.1f} MB" + (f" ({chunk * n * 8 / l2:.0f}x L2)" if l2 > 0 else "")
             for n in (2001, 20001, 100001)]
    return f"{chunk}-row chunk temporaries " + ", ".join(parts)


def spec(key):
    """name -> unit of BENCHMARK.json's metrics, or name -> why of its workloads."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit" if "unit" in m else "why"] for m in json.load(fh)[key]}


def emit(w, tally, metrics, counts, units, digests, seed, trace, env):
    print(f"workload {w.name} (seed {seed}, trace {trace}): {spec('workloads')[w.name]}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if w.name == "grid-duality":
        print("working set: " + working_set(env))
    print(f"operations: {tally.attempted} in {len(digests)} cycles; sha256 of the cycle-0 list "
          f"{digests[0]}, of all cycles {hashlib.sha256(''.join(digests).encode()).hexdigest()}")
    for name, value in metrics.items():
        extra = f" (n={counts[name]})" if name in counts else ""
        print(f"  {name} = {value:.6g} {units[name]}{extra}")
    print("latency by operation: " + ", ".join(
        f"{label} {statistics.median(lats) * 1e3:.3g} ms (n={len(lats)})"
        for label, lats in sorted(tally.by_label.items(), key=lambda kv: statistics.median(kv[1]))))
    print(f"failed operations: {tally.failed} of {tally.attempted} "
          f"(failed_frac {tally.failed / max(tally.attempted, 1):.6g})")
    for line in tally.failures[:20]:
        print(f"  FAILED {line}")
    if tally.statistical:
        print(f"Monte Carlo answers beyond 4 SE (not failures; incorrect above "
              f"max(2, 2%)): {len(tally.misses)} of {tally.statistical}")
        for line in tally.misses[:20]:
            print(f"  MISS {line}")


def run_one(args):
    import numpy as np
    import zonoid_lab
    if os.path.dirname(os.path.abspath(zonoid_lab.__file__)) != os.path.join(SRC, "zonoid_lab"):
        raise RuntimeError(f"zonoid_lab imported from {zonoid_lab.__file__}, not {SRC}")
    import spans
    import workloads

    env = environment()
    cls = workloads.WORKLOADS[args.workload]
    digests = []
    counts = {}
    if not args.trace:
        units = spec("end_to_end")
        w = cls(args.seed, ROOT)
        w.setup()
        try:
            w.warmup()
            tally, rates, probes = untraced(w, args.seconds, digests)
        finally:
            w.close()
        imports, setups = [p[0] for p in probes], [p[1] for p in probes]
        rss_kb = (w.max_child_rss_kb if args.workload == "cli-batch"
                  else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics = {
            "throughput_ops_s": statistics.median(rates),
            "latency_s.p50": float(np.percentile(tally.latencies, 50)),
            "latency_s.p90": float(np.percentile(tally.latencies, 90)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        counts = {"latency_s.p50": len(tally.latencies), "latency_s.p90": len(tally.latencies),
                  "setup_s": len(setups), "throughput_ops_s": len(rates)}
        correct = tally.correct
    else:
        units = spec("per_layer")
        tracer = spans.Tracer()
        imports = importtime_breakdown()
        w = cls(args.seed, ROOT, tracer)
        w.setup()
        try:
            w.warmup()
            tally, plain, traced_w, op_walls, sub_walls = traced(w, args.seconds, digests, tracer)
        finally:
            w.close()
        metrics = dict.fromkeys(units, 0.0)
        metrics.update(imports)
        metrics.update(spans.layer_metrics(tracer.spans, len(traced_w), op_walls))
        for sub, lats in sub_walls.items():
            metrics[f"cli.{sub}.wall_s"] = statistics.median(lats)
            counts[f"cli.{sub}.wall_s"] = len(lats)
        if args.workload == "mc-oracle":
            metrics["mc.simulate_terminal.speedup_2v1"] = simulate_speedup()
        metrics["bench.trace_overhead_frac"] = sum(traced_w) / sum(plain) - 1.0
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
        coverage_ok = abs(metrics["bench.span_coverage"] - 1.0) <= COVERAGE_TOL
        if not coverage_ok:
            print(f"span coverage {metrics['bench.span_coverage']:.6f} outside 1 +/- {COVERAGE_TOL}")
        correct = tally.correct and coverage_ok
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    emit(w, tally, metrics, counts, units, digests, args.seed, args.trace, env)
    if not args.trace:
        # part of setup_s; printed, not a metric (see README, Steadiness)
        print(f"import zonoid_lab: median {statistics.median(imports):.6g} s (n={len(imports)})")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}/{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "zonoid_lab", "__init__.py")):
        print(f"perfbench: no zonoid_lab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ["ZONOID_LAB_THREADS"] = str(nproc())
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
