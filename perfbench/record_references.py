#!/usr/bin/env python3
"""Record the reference scalars that ``result_rel_dev_max`` compares against.

    python3 perfbench/record_references.py [--workload NAME ...]

Runs the ops of each named workload (default: all) for every input seed of
the pool and stores their scalars in ``perfbench/references.json``, keyed by
op. Ops whose inputs do not depend on the seed are run once. Re-record only
when a change to the package is meant to move results, and say so.
"""

import argparse
import json
import os
import shutil
import sys

import run

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402

REF_PATH = os.path.join(run.HERE, "references.json")


def analyses_specs():
    """Every (analysis, config, CLI seed) the pool can reach, each once."""
    specs = []
    for cfg in workloads.CONFIGS:
        for analysis in workloads.CLI_ANALYSES:
            seeds = (range(workloads.SEED_POOL + 1)
                     if analysis in workloads.SEEDED_ANALYSES else (0,))
            specs += [(analysis, cfg, s) for s in seeds]
    return specs + [("identities", None, 0)]


def record(name):
    out_root = os.path.join(run.OUT, "record-" + name)
    records = []
    if name == "analyses":
        wl = workloads.Analyses(run.ROOT, 0, out_root)
        records = run.run_pass(wl.ops({"specs": analyses_specs()}))
    elif name == "sweep":
        for seed in range(workloads.SEED_POOL):
            wl = workloads.Sweep(run.ROOT, seed, out_root)
            ops = wl.ops(wl.setup())
            records += run.run_pass([op for op in ops
                                     if seed == 0 or op.key.startswith("random")])
    else:
        wl = workloads.WORKLOADS[name](run.ROOT, 0, out_root)
        records = run.run_pass(wl.ops(wl.setup()))
    shutil.rmtree(out_root, ignore_errors=True)
    for r in records:
        if r["problems"]:
            print("%s %s: %s%s" % (name, r["key"], "; ".join(r["problems"]),
                                   " (known defect)" if r["known_defect"] else ""),
                  file=sys.stderr)
    return {r["key"]: r["scalars"] for r in records}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    for name in args.workload or sorted(workloads.WORKLOADS):
        section = record(name)
        refs = {}
        if os.path.exists(REF_PATH):
            with open(REF_PATH) as f:
                refs = json.load(f)
        refs[name] = section
        with open(REF_PATH, "w") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")
        print("recorded %d ops of %s" % (len(refs[name]), name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
