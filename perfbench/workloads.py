"""Inputs, op lists and expected outcomes of the three benchmark workloads.

Every op is one call into the package's public API. An op is described by

* ``key``     -- its name; the key of its reference scalars in
                 ``references.json`` (it carries the CLI seed where the op's
                 input depends on it);
* ``run``     -- the timed call, returning the raw result;
* ``observe`` -- turns the raw result into plain scalars and flags (cheap,
                 untimed per op but inside the pass wall time);
* ``expect``  -- the expected outcome, checked after the pass; returns the
                 list of problems (empty when the op met its outcome).

The workload seed is reduced to an input seed in ``range(SEED_POOL)``; the
references hold the outputs of every input seed of the pool, recorded with
``record_references.py``.
"""

import contextlib
import io
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

# Package functions are called through their modules, so that a traced run's
# wrappers (installed on the module attributes) see the calls made from here.
from trijunction import cli, crackmesh, fem, fields, flows, stability, variation
from trijunction import config as configmod

H = 0.05
N = 32
SEED_POOL = 16
CONFIGS = ("symmetric_disk", "trilobe", "bent_arm")
CLI_ANALYSES = ("criticality", "stability", "tubular", "variation-check")
SEEDED_ANALYSES = ("criticality", "variation-check")   # the CLI seed reaches these
SWEEP_CASES = ("normal_bump_arm1", "normal_bump_arm2", "normal_bump_arm3",
               "junction_shift_x", "junction_shift_y", "random_1")
SWEEP_AMPLITUDE = 0.01
REFINE_LEVELS = {"trilobe": 1, "bent_arm": 2}
# Stability basis sizes per refinement level. The 85k-node level runs n=32
# only: n=64 and 128 there would add 5 s to every run.
REFINE_BASIS = {1: (32, 64, 128), 2: (32,)}
ORACLE_M = 1000

KNOWN_DEFECT_VARIATION_CHECK = (
    "known defect (ROADMAP item 1): variation-check compares the first "
    "variation with FD by relative error against a value that is 0 at "
    "criticality")

# Expected outcome of every CLI op, from the paper and the README. 'fail_lines'
# lists the report lines that must read FAIL (and no other line may); an op
# with 'known_defect' is expected to meet 'rc' by the paper but does not yet,
# so it counts as failed without making the run incorrect.
ANALYSES_EXPECT = {
    ("criticality", "symmetric_disk"): {"rc": 0},
    ("criticality", "trilobe"): {"rc": 0},
    ("criticality", "bent_arm"): {
        "rc": 3, "fail_lines": ["criticality residuals below (1e-3, 1e-3, 1e-3)"]},
    ("stability", "symmetric_disk"): {
        "rc": 0, "verdict": "unstable", "lambda_min": (-1.17, 0.01)},
    ("stability", "trilobe"): {
        "rc": 0, "verdict": "strictly-stable", "lambda_min": (0.554, 1e-3)},
    ("stability", "bent_arm"): {"rc": 0, "verdict": "unstable"},
    ("tubular", "symmetric_disk"): {"rc": 3, "fail_lines": ["tubular criterion holds"]},
    ("tubular", "trilobe"): {"rc": 0},
    ("tubular", "bent_arm"): {"rc": 1},
    ("variation-check", "symmetric_disk"): {
        "rc": 0, "known_defect": KNOWN_DEFECT_VARIATION_CHECK},
    ("variation-check", "trilobe"): {
        "rc": 0, "known_defect": KNOWN_DEFECT_VARIATION_CHECK},
    ("variation-check", "bent_arm"): {"rc": 0},
    ("identities", None): {"rc": 0},
}

# Expected outcome of the refinement study, per configuration.
REFINE_EXPECT = {
    "trilobe": {"verdict": "strictly-stable", "lambda_min": (0.554, 1e-3)},
    "bent_arm": {"verdict": "unstable"},
}
ORACLE_EXPECT = {"lambda_min": (0.554, 1e-3), "agree_rel": 1e-4}
ENERGY_SLACK = 1e-12        # nested-refinement energies may not rise beyond this


@dataclass
class Op:
    key: str
    run: object
    observe: object
    expect: object
    known_defect: str = ""


def input_seed(seed):
    return seed % SEED_POOL


def config_path(root, name):
    return os.path.join(root, "configs", name + ".cfg")


def base_mesh(cfg):
    """The admissible-subdomain-marked mesh every analysis starts from."""
    return crackmesh.mark_admissible_subdomain(crackmesh.generate_crack_mesh(cfg, H),
                                               cfg, cfg.mu)


def _within(value, target_tol):
    target, tol = target_tol
    return value is not None and abs(value - target) <= tol


def check_cli(expect, obs):
    """Problems of one CLI op against its row of ANALYSES_EXPECT."""
    problems = []
    if obs["rc"] != expect["rc"]:
        problems.append("exit code %s, expected %s" % (obs["rc"], expect["rc"]))
    if "fail_lines" in expect and obs["fail_lines"] != expect["fail_lines"]:
        problems.append("FAIL lines %s, expected %s" % (obs["fail_lines"],
                                                        expect["fail_lines"]))
    return problems + check_verdict(expect, obs)


def check_verdict(expect, obs):
    """Problems of a stability result against its expected verdict/lambda_min."""
    problems = []
    if "verdict" in expect and obs.get("verdict") != expect["verdict"]:
        problems.append("verdict %s, expected %s" % (obs.get("verdict"),
                                                     expect["verdict"]))
    if "lambda_min" in expect and not _within(obs["scalars"].get("lambda_min"),
                                              expect["lambda_min"]):
        problems.append("lambda_min %s, expected %s +- %s"
                        % ((obs["scalars"].get("lambda_min"),) + expect["lambda_min"]))
    return problems


# ----------------------------------------------------------------------
# analyses: the CLI exactly as a user runs it
# ----------------------------------------------------------------------

def _read_csv(path):
    rows = []
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                if not line.startswith("#"):
                    rows.append(line.rstrip("\n").split(","))
    return rows


def _observe_cli(analysis, out_dir, rc):
    """Exit code, FAIL lines and key scalars from the files the CLI wrote."""
    obs = {"rc": rc, "fail_lines": [], "scalars": {}}
    report = os.path.join(out_dir, "report.txt")
    if os.path.exists(report):
        with open(report) as f:
            obs["fail_lines"] = [ln[5:].rstrip("\n") for ln in f if ln.startswith("FAIL ")]
    sc = obs["scalars"]
    if analysis == "criticality":
        sc.update({k: float(v) for k, v in _read_csv(os.path.join(out_dir, "criticality.csv"))})
    elif analysis == "stability":
        for lam, verdict, _ in _read_csv(os.path.join(out_dir, "stability_verdict.csv")):
            sc["lambda_min"] = float(lam)
            obs["verdict"] = verdict
        for k, lam in _read_csv(os.path.join(out_dir, "stability.csv"))[:3]:
            sc["lambda_%s" % k] = float(lam)
    elif analysis == "tubular":
        for mu, sup in _read_csv(os.path.join(out_dir, "tubular.csv")):
            sc["sup_vphi_energy_mu%s" % mu] = float(sup)
        if os.path.exists(report):
            with open(report) as f:
                for ln in f:
                    if ln.startswith("lambda_min at smallest mu:"):
                        sc["lambda_min_smallest_mu"] = float(ln.split(":")[1].split()[0])
    elif analysis == "variation-check":
        sc.update({k: float(v) for k, v in _read_csv(os.path.join(out_dir, "variation.csv"))})
    elif analysis == "identities":
        sc.update({k: float(v) for k, v in _read_csv(os.path.join(out_dir, "identities.csv"))})
    return obs


class Analyses:
    """The four config-bound CLI analyses on each shipped configuration, plus
    `identities`, for CLI seeds s and s+1: 26 cold ops sharing no work."""

    name = "analyses"

    def __init__(self, root, seed, out_root):
        self.root = root
        self.out_root = out_root
        s = input_seed(seed)
        self.cli_seeds = (s, s + 1)

    def setup(self):
        """The op list, and the base mesh of every configuration: a warm-up of
        the config and mesh code before timing, and the meshes whose hashes the
        provenance records. The ops share none of it; each builds its own."""
        specs = []
        for cli_seed in self.cli_seeds:
            for cfg in CONFIGS:
                for analysis in CLI_ANALYSES:
                    specs.append((analysis, cfg, cli_seed))
            specs.append(("identities", None, cli_seed))
        meshes = {"%s/h%g" % (c, H): base_mesh(configmod.load_config(config_path(self.root, c)))
                  for c in CONFIGS}
        return {"specs": specs, "meshes": meshes}

    @staticmethod
    def op_key(analysis, cfg, cli_seed):
        key = analysis if cfg is None else "%s/%s" % (analysis, cfg)
        return key + ("/s%d" % cli_seed if analysis in SEEDED_ANALYSES else "")

    def ops(self, state, expect_table=ANALYSES_EXPECT):
        shutil.rmtree(self.out_root, ignore_errors=True)
        out = []
        for k, (analysis, cfg, cli_seed) in enumerate(state["specs"]):
            out_dir = os.path.join(self.out_root, "op%02d" % k)
            scn = cli.Scenario(config_path=config_path(self.root, cfg) if cfg else "",
                               analysis=analysis, h=H, n=N, out_dir=out_dir,
                               seed=cli_seed)
            expect = expect_table[(analysis, cfg)]
            out.append(Op(key=self.op_key(analysis, cfg, cli_seed),
                          run=lambda scn=scn: _quiet(cli.run_scenario, scn),
                          observe=lambda rc, a=analysis, d=out_dir: _observe_cli(a, d, rc),
                          expect=lambda obs, e=expect: check_cli(e, obs),
                          known_defect=expect.get("known_defect", "")))
        return out

    def inputs(self, state):
        return {"cli_seeds": list(self.cli_seeds),
                "configs": {c: config_path(self.root, c) for c in CONFIGS}}

    def meshes(self, state):
        return state["meshes"]


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


# ----------------------------------------------------------------------
# sweep: the inner loop of minimality-sweep on one shared base
# ----------------------------------------------------------------------

class Sweep:
    """`energy_at_map` at amplitude 0.01 for six catalog cases on the trilobe."""

    name = "sweep"

    def __init__(self, root, seed, out_root):
        self.root = root
        self.rng_seed = input_seed(seed)

    def setup(self):
        path = config_path(self.root, "trilobe")
        cfg = configmod.load_config(path)
        data, _ = cli._dirichlet_data_from_file(path)
        mesh = base_mesh(cfg)
        u = fem.solve_equilibrium(cfg, mesh, data)
        catalog = dict(flows.perturbation_catalog(cfg, np.random.default_rng(self.rng_seed)))
        e0 = variation.ms_energy(u, cfg, "U")[0]
        return {"cfg": cfg, "mesh": mesh, "u": u, "catalog": catalog, "e0": e0}

    def op_key(self, case):
        return case + ("/s%d" % self.rng_seed if case.startswith("random") else "")

    def ops(self, state):
        cfg, mesh, u, e0 = state["cfg"], state["mesh"], state["u"], state["e0"]
        out = []
        for case in SWEEP_CASES:
            Xa = state["catalog"][case].X * SWEEP_AMPLITUDE

            def run(Xa=Xa):
                return flows.energy_at_map(cfg, u, mesh,
                                           lambda P: fields.rk4_flow(Xa, P, 1.0))[0]
            out.append(Op(key=self.op_key(case), run=run,
                          observe=lambda e1: {"scalars": {"delta": float(e1 - e0)}},
                          expect=_positive_delta))
        return out

    def inputs(self, state):
        return {"rng_seed": self.rng_seed, "amplitude": SWEEP_AMPLITUDE,
                "cases": list(SWEEP_CASES),
                "configs": {"trilobe": config_path(self.root, "trilobe")}}

    def meshes(self, state):
        return {"trilobe/h%g" % H: state["mesh"]}


def _positive_delta(obs):
    d = obs["scalars"]["delta"]
    return [] if d > 0 else ["energy delta %.6e is not > 0" % d]


# ----------------------------------------------------------------------
# refine: nested-refinement convergence study
# ----------------------------------------------------------------------

class Refine:
    """Uniform refinement h=0.05 -> 0.025 of trilobe and bent_arm, re-solve and
    stability at n = 32, 64, 128; bent_arm once more to 85k nodes with n = 32;
    then the dense 1D oracle on the trilobe. The study has no random input."""

    name = "refine"

    def __init__(self, root, seed, out_root):
        self.root = root

    def setup(self):
        base = {}
        for c in REFINE_LEVELS:
            path = config_path(self.root, c)
            cfg = configmod.load_config(path)
            data, _ = cli._dirichlet_data_from_file(path)
            mesh = base_mesh(cfg)
            base[c] = (cfg, data, mesh, fem.solve_equilibrium(cfg, mesh, data))
        return {"base": base, "levels": {}}

    def ops(self, state):
        out = []
        live = {}       # per config: the newest mesh and field of the pass
        state["levels"] = {}
        state.pop("trilobe_lam_finest", None)
        for c, levels in REFINE_LEVELS.items():
            cfg, data, mesh, u = state["base"][c]
            live[c] = {"mesh": mesh, "u": u, "energy": u.energy()}
            exp = REFINE_EXPECT[c]
            for lev in range(1, levels + 1):
                tag = "%s/L%d" % (c, lev)

                def do_refine(c=c):
                    live[c]["fine"] = fem.refine_uniform(live[c]["mesh"])
                    return live[c]["fine"]

                def do_prolong(c=c):
                    return fem.prolong(live[c]["u"], live[c]["fine"])

                def do_mark(c=c, cfg=cfg, tag=tag):
                    live[c]["fine"] = crackmesh.mark_admissible_subdomain(
                        live[c]["fine"], cfg, cfg.mu)
                    state["levels"][tag] = live[c]["fine"]
                    return live[c]["fine"]

                def do_solve(c=c, cfg=cfg, data=data):
                    uf = fem.solve_equilibrium(cfg, live[c]["fine"], data)
                    live[c]["mesh"], live[c]["u"] = live[c]["fine"], uf
                    return uf

                def observe_solve(uf, c=c):
                    e_coarse, e_fine = live[c]["energy"], uf.energy()
                    live[c]["energy"] = e_fine
                    return {"scalars": {"energy": e_fine}, "e_coarse": e_coarse}

                out += [
                    Op("%s/refine_uniform" % tag, do_refine,
                       lambda m: {"scalars": {"nodes": float(m.n_nodes)}}, _finite),
                    Op("%s/prolong" % tag, do_prolong,
                       lambda f: {"scalars": {"sum": float(np.sum(f.values)),
                                              "max_abs": float(np.max(np.abs(f.values)))}},
                       _finite),
                    Op("%s/mark_admissible_subdomain" % tag, do_mark,
                       lambda m: {"scalars": {"marked": float(np.count_nonzero(m.vertex_mask))}},
                       _finite),
                    Op("%s/solve_equilibrium" % tag, do_solve, observe_solve,
                       _energy_not_increasing),
                ]
                for n in REFINE_BASIS[lev]:
                    def do_stab(c=c, cfg=cfg, n=n):
                        return stability.analyze_stability(cfg, live[c]["u"], n=n)

                    def observe_stab(sr, c=c, n=n, finest=lev == levels):
                        if c == "trilobe" and n == max(REFINE_BASIS[1]) and finest:
                            state["trilobe_lam_finest"] = sr.lam_min
                        return {"scalars": {"lambda_min": sr.lam_min}, "verdict": sr.verdict}
                    out.append(Op("%s/analyze_stability/n%d" % (tag, n), do_stab,
                                  observe_stab, lambda obs, e=exp: check_verdict(e, obs)))
        trilobe_cfg = state["base"]["trilobe"][0]

        def observe_oracle(w):
            return {"scalars": {"w0": float(w[0]), "w1": float(w[1])},
                    "lam_fem": state.get("trilobe_lam_finest")}
        out.append(Op("trilobe/oracle_1d/m%d" % ORACLE_M,
                      lambda: stability.oracle_1d(trilobe_cfg, m=ORACLE_M),
                      observe_oracle, _oracle_agrees))
        return out

    def inputs(self, state):
        return {"levels": REFINE_LEVELS, "basis_n": REFINE_BASIS,
                "oracle_m": ORACLE_M,
                "configs": {c: config_path(self.root, c) for c in REFINE_LEVELS}}

    def meshes(self, state):
        out = {"%s/h%g" % (c, H): b[2] for c, b in state["base"].items()}
        out.update(state["levels"])
        return out


def _finite(obs):
    return ["%s is not finite" % k for k, x in obs["scalars"].items()
            if not math.isfinite(x)]


def _energy_not_increasing(obs):
    e_f, e_c = obs["scalars"]["energy"], obs["e_coarse"]
    if e_f <= e_c + ENERGY_SLACK * max(1.0, abs(e_c)):
        return []
    return ["nested-refinement energy rose from %.12e to %.12e" % (e_c, e_f)]


def _oracle_agrees(obs):
    w0, lam = obs["scalars"]["w0"], obs["lam_fem"]
    problems = []
    if not _within(w0, ORACLE_EXPECT["lambda_min"]):
        problems.append("oracle lambda_min %.6e, expected %s +- %s"
                        % ((w0,) + ORACLE_EXPECT["lambda_min"]))
    if lam is None or abs(lam - w0) > ORACLE_EXPECT["agree_rel"] * abs(w0):
        problems.append("trilobe lambda_min at n=%d (%s) disagrees with oracle_1d (%.6e)"
                        % (max(REFINE_BASIS[1]), lam, w0))
    return problems


WORKLOADS = {w.name: w for w in (Analyses, Sweep, Refine)}
