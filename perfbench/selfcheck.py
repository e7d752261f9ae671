#!/usr/bin/env python3
"""Self-checks of the benchmark itself, in about ten seconds:

1. the metric names run.py prints are exactly those BENCHMARK.json lists,
   with the same units;
2. the outcome checker flags a deliberately wrong expected value, on a real op
   and on recorded outputs, and the drift metric sees a shifted scalar;
3. two different seeds change the random inputs but not the op counts.

    python3 perfbench/selfcheck.py      # exits 0 when every check holds
"""

import json
import os
import shutil
import sys

import run

sys.path.insert(0, run.SRC)
import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(run.OUT, "selfcheck")


def check_metric_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    listed = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if listed != run.END_TO_END:
        problems.append("end_to_end %s != run.py %s" % (listed, run.END_TO_END))
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    printed = {k: run.per_layer_unit(k) for k in spans.Tracer().metrics()}
    if listed != printed:
        problems.append("per_layer differs: extra %s, missing %s"
                        % (sorted(set(printed) - set(listed)),
                           sorted(set(listed) - set(printed))))
    if list(printed) != spans.metric_names():
        problems.append("traced metrics out of step with spans.metric_names()")
    return problems


def check_outcome_checker():
    problems = []
    wl = workloads.Analyses(run.ROOT, 0, OUT)
    state = {"specs": [("identities", None, 0)]}
    right = run.run_pass(wl.ops(state))[0]
    wrong_table = dict(workloads.ANALYSES_EXPECT)
    wrong_table[("identities", None)] = {"rc": 3}
    wrong = run.run_pass(wl.ops(state, wrong_table))[0]
    if right["problems"] or not wrong["problems"]:
        problems.append("identities op: right expectation -> %s, wrong -> %s"
                        % (right["problems"], wrong["problems"]))

    with open(os.path.join(run.HERE, "references.json")) as f:
        refs = json.load(f)
    expect = workloads.ANALYSES_EXPECT[("stability", "trilobe")]
    obs = {"rc": 0, "fail_lines": [], "verdict": "strictly-stable",
           "scalars": refs["analyses"]["stability/trilobe"]}
    cases = [
        ("recorded trilobe stability", workloads.check_cli(expect, obs), False),
        ("wrong lambda_min", workloads.check_cli(dict(expect, lambda_min=(0.6, 1e-3)), obs), True),
        ("wrong verdict", workloads.check_cli(dict(expect, verdict="unstable"), obs), True),
        ("wrong FAIL lines", workloads.check_cli(dict(expect, fail_lines=["x"]), obs), True),
        ("negative sweep delta", workloads._positive_delta({"scalars": {"delta": -1e-9}}), True),
        ("rising refinement energy", workloads._energy_not_increasing(
            {"scalars": {"energy": 0.6}, "e_coarse": 0.59}), True),
        ("oracle disagreement", workloads._oracle_agrees(
            {"scalars": {"w0": 0.5543}, "lam_fem": 0.5600}), True),
    ]
    for label, found, should_flag in cases:
        if bool(found) != should_flag:
            problems.append("%s: checker returned %s" % (label, found))

    key = "stability/trilobe"
    shifted = [{"key": key, "scalars": {"lambda_min": refs["analyses"][key]["lambda_min"]
                                        * (1 + 1e-8)}}]
    same = [{"key": key, "scalars": dict(refs["analyses"][key])}]
    if run.drift(same, refs["analyses"])[0] != 0.0:
        problems.append("drift of a recorded result is not 0")
    if not run.drift(shifted, refs["analyses"])[0] > run.DRIFT_FLOOR:
        problems.append("a 1e-8 shift of lambda_min does not show as drift")
    return problems


def check_seeds():
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        a, b = cls(run.ROOT, 3, OUT), cls(run.ROOT, 4, OUT)
        sa, sb = a.setup(), b.setup()
        na, nb = len(a.ops(sa)), len(b.ops(sb))
        if na != nb:
            problems.append("%s: op counts %d and %d for seeds 3 and 4" % (name, na, nb))
        if name == "analyses" and a.inputs(sa)["cli_seeds"] == b.inputs(sb)["cli_seeds"]:
            problems.append("analyses: seeds 3 and 4 give the same CLI seeds")
        if name == "sweep":
            P = np.vstack([arm.point(np.linspace(0.1, 0.9, 7)) for arm in sa["cfg"].arms])
            for case, should_differ in (("random_1", True), ("normal_bump_arm1", False)):
                differ = not np.array_equal(sa["catalog"][case].X(P), sb["catalog"][case].X(P))
                if differ != should_differ:
                    problems.append("sweep: case %s %s between seeds 3 and 4"
                                    % (case, "differs" if differ else "is the same"))
        print("%s: %d ops for seeds 3 and 4" % (name, na))
    return problems


def main():
    problems = []
    for check in (check_metric_names, check_outcome_checker, check_seeds):
        found = check()
        print("%s %s" % ("FAIL" if found else "ok  ", check.__name__))
        problems += found
    shutil.rmtree(OUT, ignore_errors=True)
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
