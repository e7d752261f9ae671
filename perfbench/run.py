#!/usr/bin/env python3
"""trijunction benchmark: one workload per process, one client in a
closed loop (each op starts when the previous one has returned).

    python3 perfbench/run.py --workload {analyses,sweep,refine} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. The run imports the package's third-party dependencies (numpy,
scipy), times the import of the package itself, sets up the workload (three
times untraced; the median counts), then runs passes over the workload's fixed
op list while another pass still fits in ``--seconds`` (always at least one). A traced
run sets up once and runs one pass with spans around the package's public
functions and prints the per-layer metrics instead of the end-to-end ones.

Output: a ``{"provenance": ...}`` line, a ``{"detail": ...}`` line and, last,
the result ``{"correct", "attempted", "failed", "metrics"}``. Scratch files
(CLI reports, traces) go to ``.perfbench_out/`` in the checkout.
"""

import os
import sys
import time

# Pin BLAS/OpenMP to one thread before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse             # noqa: E402
import gc                   # noqa: E402
import hashlib              # noqa: E402
import importlib            # noqa: E402
import json                 # noqa: E402
import platform             # noqa: E402
import resource             # noqa: E402
import shutil               # noqa: E402
import statistics           # noqa: E402
import subprocess           # noqa: E402
import traceback            # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# A scalar's drift from its reference is |x - ref| / max(1, |ref|): relative
# for large values, absolute for values below 1 (energies of piecewise-constant
# fields and first variations at criticality are roundoff-sized). Drift at or
# below DRIFT_FLOOR is the named tolerance and reads as DRIFT_FLOOR, so that
# the metric is never 0.
DRIFT_FLOOR = 1e-10
SETUP_REPS = 3          # untraced runs set up this often and report the median
# Third-party modules the package imports. They are imported before the timed
# import of the package: their import time is the environment's, not the
# program's, and it swings by a third between runs on a shared host.
DEPENDENCIES = ("numpy", "scipy.interpolate", "scipy.linalg", "scipy.sparse",
                "scipy.sparse.linalg", "scipy.spatial")

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "fail_ratio": "ratio", "peak_rss_mib": "MiB", "result_rel_dev_max": "ratio"}
PER_LAYER_UNITS = {"self_s": "s", "overhead_s": "s", "solves_per_factorization": "ratio"}


def per_layer_unit(name):
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")


# ----------------------------------------------------------------------
# one pass over the op list
# ----------------------------------------------------------------------

def run_pass(ops, tracer=None, tag="p0"):
    """Run every op in order, then check each against its expected outcome.

    Each op starts on a collected heap, so that the peak resident memory is
    that of the largest op and not of when the collector last ran.
    Returns one record per op: key, latency_s, scalars, problems, known_defect.
    """
    done = []
    for op in ops:
        if tracer is not None:
            tracer.op = "%s/%s" % (tag, op.key)
        obs, err = None, None
        gc.collect()
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:   # an op that raises counts as failed; the run goes on
            err = "%s: %s" % (type(exc).__name__, exc)
            traceback.print_exc(file=sys.stderr)
        latency = time.perf_counter() - t0
        if err is None:
            obs = op.observe(raw)
        done.append((op, latency, obs, err))
    return [{"key": op.key, "latency_s": latency,
             "scalars": obs["scalars"] if obs else {},
             "problems": [err] if err else op.expect(obs),
             "known_defect": op.known_defect} for op, latency, obs, err in done]


def hd_median(values):
    """Harrell-Davis estimate of the median: the mean of all order statistics,
    weighted by the Beta((n+1)/2, (n+1)/2) mass that falls on each.

    The plain median of a pass jumps when an op whose latency depends on the
    seed crosses the middle of the order, which matters where the latencies
    cluster with a gap at the middle (the CLI ops); this estimate moves by a
    fraction of such a jump.
    """
    from scipy.special import betainc
    x = sorted(values)
    a = (len(x) + 1) / 2.0
    cdf = betainc(a, a, [i / len(x) for i in range(len(x) + 1)])
    return float(sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x)))


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten ops beyond it.

    With fewer than 22 ops that percentile is not above the median, so the
    tail is the maximum instead.
    """
    lat = sorted(latencies)
    n = len(lat)
    if n < 22:
        return lat[-1], "max of %d ops (fewer than 22, so the op with 10 beyond it " \
                        "is not above the median)" % n
    k = n - 11
    return lat[k], "p%.1f: op %d of %d sorted, %d ops beyond it" % (
        100.0 * (k + 1) / n, k + 1, n, n - k - 1)


def drift(records, refs):
    """Largest drift of any op's scalars from the references, and where."""
    worst, where, missing = 0.0, None, []
    for rec in records:
        ref = refs.get(rec["key"])
        if ref is None:
            missing.append(rec["key"])
            continue
        for name, x in rec["scalars"].items():
            if name not in ref:
                missing.append("%s:%s" % (rec["key"], name))
                continue
            r = ref[name]
            d = abs(x - r) / max(1.0, abs(r)) if x == x else float("inf")
            if d > worst:
                worst, where = d, "%s:%s" % (rec["key"], name)
    return worst, where, missing


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------

def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def source_hash():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "trijunction")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def check_names(metrics, section):
    """Metric names printed must be exactly those BENCHMARK.json lists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        listed = [m["name"] for m in json.load(f)[section]]
    if sorted(listed) != sorted(metrics):
        return ["metric names differ from BENCHMARK.json %s: extra %s, missing %s"
                % (section, sorted(set(metrics) - set(listed)),
                   sorted(set(listed) - set(metrics)))]
    return []


# ----------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "trijunction", "__init__.py")):
        print("perfbench: no package sources at %s" % SRC, file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    for name in DEPENDENCIES:
        importlib.import_module(name)
    deps_import_s = time.perf_counter() - t0
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import trijunction
    import spans
    import workloads
    import_s = time.perf_counter() - t0
    if not os.path.abspath(trijunction.__file__).startswith(SRC + os.sep):
        print("perfbench: imported trijunction from %s, not %s"
              % (trijunction.__file__, SRC), file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "references.json")) as f:
        refs = json.load(f)[args.workload]

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed,
                                            os.path.join(OUT, args.workload))
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    setup_times = []
    for _ in range(1 if tracer else SETUP_REPS):
        t0 = time.perf_counter()
        state = wl.setup()
        setup_times.append(time.perf_counter() - t0)

    records, pass_walls = [], []
    t_first = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records += run_pass(wl.ops(state), tracer, "p%d" % len(pass_walls))
        pass_walls.append(time.perf_counter() - t0)
        if tracer or time.perf_counter() - t_first + pass_walls[-1] > args.seconds:
            break
    if tracer:
        tracer.uninstall()

    attempted = len(records)
    failed = [r for r in records if r["problems"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    worst, worst_at, missing = drift(records, refs)
    lat = [r["latency_s"] for r in records]
    tail, tail_desc = tail_latency(lat)
    wall_s = statistics.median(pass_walls)
    if tracer:
        metrics = tracer.metrics()
        problems = check_names(metrics, "per_layer")
        units = {k: per_layer_unit(k) for k in metrics}
        trace_path = os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))
        tracer.dump(trace_path, t_first)
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": wall_s,
            "op_p50_s": hd_median(lat),
            "op_tail_s": tail,
            # add-one estimate of failed/attempted, so that it is never 0
            "fail_ratio": (len(failed) + 1.0) / (attempted + 1.0),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "result_rel_dev_max": max(worst, DRIFT_FLOOR),
        }
        problems = check_names(metrics, "end_to_end")
        units = END_TO_END
        trace_path = None

    # provenance is gathered after timing
    inputs = wl.inputs(state)
    configs = inputs.pop("configs")
    provenance = dict(
        workload=args.workload, seed=args.seed, trace=args.trace, inputs=inputs,
        environment=environment(), git_commit=git_commit(), source_sha256=source_hash(),
        config_sha256={os.path.relpath(p, ROOT): sha256_file(p) for p in configs.values()},
        mesh_hash={k: m.content_hash() for k, m in wl.meshes(state).items()},
        ops_per_pass=attempted // len(pass_walls), passes=len(pass_walls))
    detail = dict(
        deps_import_s=deps_import_s, import_s=import_s, setup_times_s=setup_times,
        pass_walls_s=pass_walls,
        op_tail=tail_desc, fail_ratio_raw="%d/%d" % (len(failed), attempted),
        failed={r["key"]: r["problems"] for r in failed},
        known_defects=sorted({r["key"] for r in failed if r["known_defect"]}),
        drift_max=worst, drift_at=worst_at, drift_floor=DRIFT_FLOOR,
        missing_references=missing, problems=problems, trace_file=trace_path,
        traced_wall_s=wall_s if tracer else None,
        latencies_s=[[r["key"], r["latency_s"]] for r in records])
    shutil.rmtree(os.path.join(OUT, args.workload), ignore_errors=True)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"detail": detail}))
    if problems:
        print("perfbench: " + "; ".join(problems), file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected and not missing and not problems,
        "attempted": attempted, "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
