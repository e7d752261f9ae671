"""Scenario-driven command line: load a configuration, run one named
analysis, write a text report plus machine-readable CSV/plot-data files.

Exit codes: 0 ok, 1 input error, 2 solver/mesh error, 3 assertion failure.
"""

import argparse
import hashlib
import os
import sys
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (TrijunctionError, ConfigError, GeometryError, MeshError,
                     SolveError, AdmissibilityError)
from .config import load_config
from .crackmesh import generate_crack_mesh, mark_admissible_subdomain
from .fem import solve_equilibrium, SectorConstants, CrackQuadrature
from .fields import VectorField, radial_bump
from .hspace import JunctionScalar, junction_basis, combine
from .variation import (VelocityPair, first_variation, second_variation, ms_energy,
                        second_variation_remainder, _criticality_residual, _first_variation)
from .stability import analyze_stability, tubular_stability_check
from .identities import canonical_identity_suite
from . import flows

log = logging.getLogger("trijunction.cli")

ANALYSES = ("criticality", "stability", "tubular", "variation-check",
            "identities", "connect", "minimality-sweep")


@dataclass
class Scenario:
    config_path: str
    analysis: str
    h: float = 0.05
    n: int = 32
    mu_ladder: tuple = (0.2, 0.1, 0.05)
    out_dir: str = "out"
    seed: int = 0
    failures: list = field(default_factory=list)

    def check(self):
        if self.analysis not in ANALYSES:
            raise ConfigError("unknown analysis %r (choose from %s)"
                              % (self.analysis, ", ".join(ANALYSES)))
        if self.analysis != "identities" and not os.path.exists(self.config_path):
            raise ConfigError("config file not found: %s" % self.config_path)
        if self.h <= 0 or self.n < 4 or any(m <= 0 for m in self.mu_ladder):
            raise ConfigError("numeric scenario parameters must be positive")


def _fmt(x):
    return "%.12e" % float(x)


def write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write("# " + ",".join(header) + "\n")
        for row in rows:
            f.write(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n")


def _dirichlet_data_from_file(path):
    """Optional 'dirichlet_data' key of the configuration document."""
    spec = None
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line.startswith("dirichlet_data"):
                spec = line.split("=", 1)[1].strip()
    if spec is None:
        return SectorConstants([1.0, 2.0, 3.0]), "sector_constants 1 2 3"
    toks = spec.split()
    if toks[0] == "sector_constants":
        return SectorConstants([float(v) for v in toks[1:4]]), spec
    if toks[0] == "coordinate":
        axis = 0 if toks[1] == "x" else 1
        return (lambda P: P[:, axis]), spec
    raise ConfigError("unknown dirichlet_data %r" % spec)


def _random_admissible_fields(config, rng, n_fields, basis_n=33):
    """Seeded mix of interior bumps and boundary-sliding test fields."""
    out = []
    mu = config.mu
    for k in range(n_fields):
        if k % 2 == 0:
            arm = config.arms[k % 3]
            c = arm.point(rng.uniform(0.25, 0.75))
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            X = VectorField(lambda P, c=c, d=d:
                            radial_bump(P, c, 0.1 * mu, 0.8 * mu)[:, None] * d,
                            label="bump%d" % k)
            out.append(VelocityPair.autonomous(X))
        else:
            def mk(row):
                return lambda s: (row[0] * np.sin(np.pi * s)
                                  + row[1] * s + row[2] * s * s)
            rows = rng.standard_normal((3, 3)) * 0.2
            phi = JunctionScalar.from_callables([mk(r) for r in rows], basis_n,
                                                project_constraint=True)
            try:
                out.append(flows.build_test_field(config, phi))
            except AdmissibilityError:
                # sliding fields need a critical junction; fall back to a bump
                arm = config.arms[(k + 1) % 3]
                c = arm.point(0.5)
                d = rng.standard_normal(2) * 0.5
                out.append(VelocityPair.autonomous(VectorField(
                    lambda P, c=c, d=d: radial_bump(P, c, 0.1 * mu, 0.8 * mu)[:, None] * d)))
    return out


def _file_sha256(path):
    """Content hash of the config file, so that reports of runs given the same
    config under different paths can be compared; 'none' without a config."""
    if not path:
        return "none"
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Report:
    def __init__(self, scenario, title):
        self.lines = ["trijunction %s report" % title,
                      "config : %s" % scenario.config_path,
                      "config_sha256 : %s" % _file_sha256(scenario.config_path),
                      "h = %g, n = %d, seed = %d" % (scenario.h, scenario.n,
                                                     scenario.seed)]
        self.scenario = scenario

    def add(self, text):
        self.lines.append(text)

    def assert_(self, ok, text):
        self.add("%s %s" % ("PASS" if ok else "FAIL", text))
        if not ok:
            self.scenario.failures.append(text)
        return ok

    def write(self, name="report.txt"):
        path = os.path.join(self.scenario.out_dir, name)
        with open(path, "w") as f:
            f.write("\n".join(self.lines) + "\n")
        return path


def _setup(scn):
    cfg = load_config(scn.config_path)
    data, data_label = _dirichlet_data_from_file(scn.config_path)
    mesh = mark_admissible_subdomain(generate_crack_mesh(cfg, scn.h), cfg, cfg.mu)
    u = solve_equilibrium(cfg, mesh, data)
    return cfg, mesh, u, data_label


def emit_curve_plotdata(scn, cfg):
    ss = np.linspace(0.0, 1.0, 200)
    for i, arm in enumerate(cfg.arms):
        pts = arm.point(ss)
        nu = arm.normal(ss)
        tau = arm.tangent(ss)
        rows = [(s, p[0], p[1], t[0], t[1], n[0], n[1], H)
                for s, p, t, n, H in zip(ss, pts, tau, nu, arm.curvature(ss))]
        write_csv(os.path.join(scn.out_dir, "curve_arm%d.csv" % (i + 1)),
                  ["s", "x", "y", "tau_x", "tau_y", "nu_x", "nu_y", "H"], rows)


# ----------------------------------------------------------------------
# analyses
# ----------------------------------------------------------------------

def run_criticality(scn):
    cfg, mesh, u, data_label = _setup(scn)
    rep = Report(scn, "criticality")
    rep.add("dirichlet data: %s" % data_label)
    # one crack quadrature of (u, arms) serves the residuals and every field
    quad = CrackQuadrature(u, cfg.arms)
    res = _criticality_residual(cfg, quad)
    rep.add("criticality residuals: f_inf=%.3e angle=%.3e contact=%.3e" % res)
    rng = np.random.default_rng(scn.seed)
    fields = _random_admissible_fields(cfg, rng, 8, scn.n)
    fv = [_first_variation(quad, V) for V in fields]
    rep.add("max |first variation| over %d fields: %.3e" % (len(fv), max(map(abs, fv))))
    rep.assert_(res[0] < 1e-3 and res[1] < 1e-3 and res[2] < 1e-3,
                "criticality residuals below (1e-3, 1e-3, 1e-3)")
    write_csv(os.path.join(scn.out_dir, "criticality.csv"),
              ["quantity", "value"],
              [("f_sup", res[0]), ("angle_defect", res[1]),
               ("contact_defect", res[2])] +
              [("first_variation_%d" % k, v) for k, v in enumerate(fv)])
    emit_curve_plotdata(scn, cfg)
    return rep


def run_stability(scn):
    cfg, mesh, u, data_label = _setup(scn)
    rep = Report(scn, "stability")
    sr = analyze_stability(cfg, u, n=scn.n)
    rep.add(sr.text())
    rep.assert_(sr.verdict in ("strictly-stable", "marginal", "unstable"),
                "eigenproblem solved")
    write_csv(os.path.join(scn.out_dir, "stability.csv"),
              ["k", "lambda"], [(str(k), v) for k, v in enumerate(sr.eigvals)])
    write_csv(os.path.join(scn.out_dir, "stability_verdict.csv"),
              ["lambda_min", "verdict", "margin"],
              [(_fmt(sr.lam_min), sr.verdict, _fmt(sr.margin))])
    phi = combine(sr.basis, sr.eigvec_min())
    ss = np.linspace(0.0, 1.0, 160)
    for i, arm in enumerate(cfg.arms):
        arc = ss * arm.length
        write_csv(os.path.join(scn.out_dir, "eigenfunction_arm%d.csv" % (i + 1)),
                  ["arclength", "value"], list(zip(arc, phi.eval(i, ss))))
    with open(os.path.join(scn.out_dir, "matrices.txt"), "w") as f:
        sr.dump_matrices(f)
    return rep


def run_tubular(scn):
    cfg, mesh, u, data_label = _setup(scn)
    rep = Report(scn, "tubular")
    out = tubular_stability_check(cfg, u, mesh, mu_ladder=scn.mu_ladder, n=scn.n)
    rep.add("sign gate: %s (terms %s)" % (out["sign_gate"],
            np.array2string(np.asarray(out["boundary_terms"]), precision=4)))
    rep.add("mu ladder: %s" % (out["mu_ladder"],))
    rep.add("sup |grad v_phi|^2: %s" % (out["sup_vphi_energy"],))
    rep.add("lambda_min at smallest mu: %.6e (%s)"
            % (out["lambda_min_smallest_mu"], out["verdict_smallest_mu"]))
    rep.assert_(out["monotone"], "nonlocal-energy supremum non-increasing on the ladder")
    rep.assert_(out["holds"], "tubular criterion holds")
    write_csv(os.path.join(scn.out_dir, "tubular.csv"), ["mu", "sup_vphi_energy"],
              list(zip(out["mu_ladder"], out["sup_vphi_energy"])))
    return rep


def run_variation_check(scn):
    cfg, mesh, u, data_label = _setup(scn)
    rep = Report(scn, "variation-check")
    rng = np.random.default_rng(scn.seed)
    arm = cfg.arms[0]
    c = arm.point(0.45)
    d = 0.6 * rng.standard_normal(2)
    X = VectorField(lambda P: radial_bump(P, c, 0.05 * cfg.mu, 0.75 * cfg.mu)[:, None] * d,
                    label="probe")
    V = VelocityPair.autonomous(X)
    fv = first_variation(cfg, u, V)
    svrep = second_variation(cfg, u, V)

    from .fields import rk4_flow

    def g(t):
        if t == 0.0:
            u_t, arms_t = u, cfg.arms
            return ms_energy(u_t, cfg, "U", curves=arms_t)[0]
        total, _, _, _ = flows.energy_at_map(cfg, u, mesh,
                                             lambda P: rk4_flow(X, P, t))
        return total

    g0 = g(0.0)
    dt = 1e-3
    fd1 = (g(dt) - g(-dt)) / (2 * dt)
    dt2 = 2e-2
    D1 = (g(dt2) - 2 * g0 + g(-dt2)) / dt2 ** 2
    D2 = (g(dt2 / 2) - 2 * g0 + g(-dt2 / 2)) / (dt2 / 2) ** 2
    fd2 = (4 * D2 - D1) / 3.0
    e1 = abs(fv - fd1) / max(abs(fd1), 1e-300)
    e2 = abs(svrep.second_variation - fd2) / max(abs(fd2), 1e-300)
    rep.add("first variation : formula %.8e vs FD %.8e (rel %.2e)" % (fv, fd1, e1))
    rep.add("second variation: formula %.8e vs FD %.8e (rel %.2e)"
            % (svrep.second_variation, fd2, e2))
    rep.add(svrep.text())
    rep.assert_(e1 < 2e-2, "first-variation oracle within 2e-2")
    rep.assert_(e2 < 5e-2, "second-variation oracle within 5e-2")
    write_csv(os.path.join(scn.out_dir, "variation.csv"), ["term", "value"],
              svrep.rows() + [("fd_first", fd1), ("fd_second", fd2)])
    return rep


def run_identities(scn):
    rep = Report(scn, "identities")
    res = canonical_identity_suite()
    worst = max(res.values())
    for k in sorted(res):
        rep.add("  %-18s %.3e" % (k, res[k]))
    rep.assert_(worst < 1e-4, "all identity residuals below 1e-4")
    write_csv(os.path.join(scn.out_dir, "identities.csv"), ["item", "residual"],
              [(k, res[k]) for k in sorted(res)])
    return rep


def run_connect(scn):
    cfg, mesh, u, data_label = _setup(scn)
    rep = Report(scn, "connect")
    from .curves import ParamCurve
    ss = np.linspace(0.0, 1.0, 400)
    amp = 5e-4  # the connecting construction is a C2-near-identity theorem

    def bump_target():
        tgts = []
        for i, arm in enumerate(cfg.arms):
            pts = arm.point(ss)
            if i == 0:
                prof = amp * np.sin(np.pi * np.clip((ss - 0.3) / 0.5, 0, 1)) ** 2
                pts = pts + prof[:, None] * arm.normal(ss)
            tgts.append(ParamCurve.from_samples(pts, flag=arm.flag))
        return tgts

    def worst_target():
        sh = 2e-5 * cfg.arms[0].tangent(0.0)
        out = []
        for arm in cfg.arms:
            pts = arm.point(ss)
            w = flows.chi(np.linalg.norm(pts - cfg.junction, axis=1) ** 2 / 0.15 ** 2)
            out.append(ParamCurve.from_samples(pts + w[:, None] * sh, flag=arm.flag))
        return out

    rows = []
    for name, tgt in (("normal_bump", bump_target()), ("worst_case", worst_target())):
        fam = flows.construct_connecting_family(cfg, tgt, eps=0.5)
        est = flows.verify_flow_estimates(fam)
        c2max = max(fam.c2_norm(t) for t in fam.times)
        rep.add("%s: C1=%.4f C2=%.4g hausdorff=%.2e c2max=%.4f"
                % (name, est["C1"], est["C2"], fam.diag["hausdorff_final"], c2max))
        rep.assert_(np.isfinite(est["C1"]) and np.isfinite(est["C2"]),
                    "%s estimates finite" % name)
        rep.assert_(fam.diag["hausdorff_final"] < 1e-6,
                    "%s time-1 crack matches the target" % name)
        rep.assert_(c2max < fam.eps, "%s stays within the C2 budget" % name)
        for r in est["table"]:
            rows.append((name, r["t"], r["C1"], r["C2"]))
    write_csv(os.path.join(scn.out_dir, "connect_estimates.csv"),
              ["case", "t", "C1", "C2"], rows)
    return rep


def run_minimality_sweep(scn):
    cfg, mesh, u, data_label = _setup(scn)
    rep = Report(scn, "minimality-sweep")
    rng = np.random.default_rng(scn.seed)
    sr = analyze_stability(cfg, u, n=scn.n)
    rep.add("stability verdict: %s (lambda_min %.6e)" % (sr.verdict, sr.lam_min))
    catalog = flows.perturbation_catalog(cfg, rng)
    amplitudes = (0.1, 0.01)
    sweep = flows.energy_comparison_sweep(cfg, u, mesh, catalog, amplitudes=amplitudes)
    tol_energy = _discretization_tolerance(cfg, mesh, u)
    rep.add("tol_energy (measured discretization error): %.3e" % tol_energy)
    rows = []
    for r in sweep["records"]:
        if r.get("ok"):
            rows.append((r["case"], r["amplitude"], r["delta"], "ok"))
        else:
            rows.append((r["case"], r["amplitude"], np.nan, r["error"][:60]))
    write_csv(os.path.join(scn.out_dir, "sweep.csv"),
              ["case", "amplitude", "delta_ms", "status"], rows)
    rep.add("min delta over catalog: %.6e (failures: %d)"
            % (sweep["min_delta"], sweep["n_failed"]))
    rep.assert_(sweep["n_failed"] == 0, "all sweep cases ran")
    rep.assert_(sweep["min_delta"] > -tol_energy,
                "no perturbation decreases the energy beyond tol_energy")
    small = [r["delta"] for r in sweep["records"]
             if r.get("ok") and r["amplitude"] == min(amplitudes)]
    rep.assert_(all(d > 0 for d in small),
                "all smallest-amplitude cases strictly increase the energy")
    # energy-Taylor identity along one catalog flow
    V = catalog[0][1]
    fam = flows.flow_from_field(V.X * min(amplitudes), cfg,
                                t_grid=np.linspace(0, 1, 33))
    et = flows.energy_taylor_check(cfg, u, mesh, fam, t_subsample=4)
    rep.add("energy-Taylor: direct %.6e vs integral %.6e (rel %.3f)"
            % (et["delta_direct"], et["delta_integral"], et["relative_gap"]))
    rep.assert_(et["relative_gap"] < 0.1, "energy-Taylor identity within 10%")
    write_csv(os.path.join(scn.out_dir, "g_of_t.csv"),
              ["t", "g2", "quadratic_form", "remainder"],
              [(r["t"], r["g2"], r["qf"], r["remainder"]) for r in et["table"]])
    return rep


def _discretization_tolerance(cfg, mesh, u):
    """Energy error estimate from one nested refinement."""
    from .fem import refine_uniform, prolong
    try:
        fine = refine_uniform(mesh)
        e_c = u.energy()
        e_f = prolong(u, fine).energy()
        est = abs(e_f - e_c)
    except TrijunctionError as exc:
        log.warning("discretization estimate failed (%s); tolerance falls back to 1e-8", exc)
        est = 0.0
    return max(1e-8, 4.0 * est)


RUNNERS = {
    "criticality": run_criticality,
    "stability": run_stability,
    "tubular": run_tubular,
    "variation-check": run_variation_check,
    "identities": run_identities,
    "connect": run_connect,
    "minimality-sweep": run_minimality_sweep,
}


def run_scenario(scn):
    """Dispatch one scenario; returns the exit status."""
    try:
        scn.check()
        os.makedirs(scn.out_dir, exist_ok=True)
        rep = RUNNERS[scn.analysis](scn)
        path = rep.write()
        print("\n".join(rep.lines))
        print("report written to %s" % path)
    except (ConfigError, FileNotFoundError, GeometryError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 1
    except (SolveError, MeshError, AdmissibilityError, TrijunctionError) as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 2
    if scn.failures:
        print("assertion failures:\n  " + "\n  ".join(scn.failures), file=sys.stderr)
        return 3
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="trijunction",
                                 description="triple-junction crack analyses")
    ap.add_argument("--config", default="", help="configuration document")
    ap.add_argument("--analysis", required=True, choices=ANALYSES)
    ap.add_argument("--h", type=float, default=0.05, help="target mesh size")
    ap.add_argument("--n", type=int, default=32, help="per-arm basis nodes")
    ap.add_argument("--mu", default="0.2,0.1,0.05",
                    help="comma-separated tubular-radius ladder")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    try:
        ladder = tuple(float(v) for v in args.mu.split(","))
    except ValueError:
        print("input error: bad --mu ladder %r" % args.mu, file=sys.stderr)
        return 1
    scn = Scenario(config_path=args.config, analysis=args.analysis, h=args.h,
                   n=args.n, mu_ladder=ladder, out_dir=args.out,
                   seed=args.seed)
    return run_scenario(scn)


if __name__ == "__main__":
    sys.exit(main())
