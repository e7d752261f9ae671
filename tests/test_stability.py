import numpy as np
import pytest
import scipy.linalg as sla

from trijunction import (junction_basis, combine, JunctionScalar, quadratic_form,
                         assemble_stability_problem, stability_verdict,
                         analyze_stability, oracle_1d, tubular_stability_check,
                         necessity_probe, coercivity_continuity_probe,
                         solve_equilibrium, solve_vphi, SectorConstants,
                         VectorField, radial_bump, ConfigError, SolveError,
                         mark_admissible_subdomain, generate_crack_mesh,
                         trilobe_config, CrackField, solve_transported,
                         transported_config, c2_distance_on_crack, rk4_flow)
from trijunction import fem, fields
from trijunction.curves import gauss_legendre
from trijunction.hspace import combine as combine_basis
from trijunction.stability import _arm_1d_matrices


def test_basis_dimensions_and_constraint(disk):
    cfg, mesh, u = disk
    basis = junction_basis(cfg, 4)
    assert len(basis) == 11
    for b in basis:
        assert abs(b.junction_sum()) < 1e-15


def test_gram_full_rank(disk):
    cfg, mesh, u = disk
    basis = junction_basis(cfg, 8)
    Q, G, _ = assemble_stability_problem(cfg, u, basis)
    assert np.all(np.diag(G) > 0)
    np.linalg.cholesky(G)  # full rank, positive definite
    assert np.linalg.matrix_rank(G) == len(basis)


def test_assembly_matches_quadratic_form(disk, rng):
    cfg, mesh, u = disk
    n = 16
    basis = junction_basis(cfg, n)
    Q, G, _ = assemble_stability_problem(cfg, u, basis)
    c = rng.standard_normal(len(basis))
    phi = combine_basis(basis, c)
    qval = float(c @ Q @ c)
    direct = quadratic_form(cfg, u, phi, enforce_constraint=False)
    assert abs(qval - direct) < 1e-10 * max(1.0, abs(direct))


def test_verdict_trivial_cases():
    G = np.eye(5)
    rep = stability_verdict(G.copy(), G, basis_n=2)
    assert rep.lam_min == pytest.approx(1.0) and rep.verdict == "strictly-stable"
    rep2 = stability_verdict(-G, G, basis_n=2)
    assert rep2.lam_min == pytest.approx(-1.0) and rep2.verdict == "unstable"
    with pytest.raises(SolveError):
        stability_verdict(G, -G, basis_n=2)


def test_disk_eigenvalue_oracle(disk):
    cfg, mesh, u = disk
    rep = analyze_stability(cfg, u, n=48)
    assert rep.verdict == "unstable"
    w = oracle_1d(cfg, m=1000)
    assert abs(rep.lam_min - w[0]) < 1e-4
    # the neutral rotation family shows as a zero eigenvalue
    assert np.min(np.abs(rep.eigvals)) < 1e-6


def test_trilobe_strictly_stable(trilobe):
    cfg, mesh, u = trilobe
    rep = analyze_stability(cfg, u, n=48)
    assert rep.verdict == "strictly-stable"
    w = oracle_1d(cfg, m=1000)
    assert abs(rep.lam_min - w[0]) < 1e-4


def _oracle_1d_dense(config, m):
    """The dense finite-difference pencil and eigensolve that oracle_1d
    replaced by sparse shift-invert."""
    nvar = 3 * m
    Q = np.zeros((nvar, nvar))
    G = np.zeros((nvar, nvar))
    for arm in range(3):
        dx = config.arms[arm].length / (m - 1)
        sl = slice(arm * m, (arm + 1) * m)
        D = np.zeros((m - 1, m))
        for k in range(m - 1):
            D[k, k] = -1.0 / dx
            D[k, k + 1] = 1.0 / dx
        stiff = D.T @ D * dx
        trap = np.full(m, dx)
        trap[0] = trap[-1] = dx / 2
        Qa = stiff + np.diag(trap * config.arms[arm].curvature(np.linspace(0.0, 1.0, m)) ** 2)
        Qa[-1, -1] -= config.contact_normal_curvature(arm)
        Q[sl, sl] = Qa
        G[sl, sl] = stiff + np.diag(trap)
    j_ids = [0, m, 2 * m]
    keep = np.setdiff1d(np.arange(nvar), j_ids)
    T = np.zeros((nvar, nvar - 1))
    T[keep, np.arange(2, nvar - 1)] = 1.0
    T[j_ids[0], 0] = 1.0 / np.sqrt(2)
    T[j_ids[1], 0] = -1.0 / np.sqrt(2)
    T[j_ids[0], 1] = 1.0 / np.sqrt(6)
    T[j_ids[1], 1] = 1.0 / np.sqrt(6)
    T[j_ids[2], 1] = -2.0 / np.sqrt(6)
    return sla.eigh(T.T @ Q @ T, T.T @ G @ T, eigvals_only=True, subset_by_index=[0, 5])


@pytest.mark.parametrize("m", [200, 400])
def test_oracle_1d_matches_the_dense_solve(disk, trilobe, bent, m):
    """The six lowest eigenvalues within 1e-10 of the dense solve, and all
    above the shift; the disk's lambda_min is negative."""
    for cfg in (disk[0], trilobe[0], bent[0]):
        w = oracle_1d(cfg, m=m)
        assert np.max(np.abs(w - _oracle_1d_dense(cfg, m))) <= 1e-10
        sigma = -1.0 - max(2.0 * max(cfg.contact_normal_curvature(i), 0.0)
                           * max(arm.length, 1.0 / arm.length)
                           for i, arm in enumerate(cfg.arms))
        assert np.all(np.diff(w) >= 0) and sigma < w[0]
    assert oracle_1d(disk[0], m=m)[0] < -1.0


def test_d3_symmetry_degeneracies(disk):
    cfg, mesh, u = disk
    rep = analyze_stability(cfg, u, n=32)
    w = rep.eigvals
    # two-dimensional representations give degenerate pairs
    assert abs(w[0] - w[1]) < 1e-6 * max(1.0, abs(w[0]))
    assert abs(w[3] - w[4]) < 1e-6 * max(1.0, abs(w[3]))


def test_basis_refinement_invariance(disk):
    cfg, mesh, u = disk
    l1 = analyze_stability(cfg, u, n=24).lam_min
    l2 = analyze_stability(cfg, u, n=48).lam_min
    predicted = abs(l2) / 24 ** 2 * 40.0  # generous O(n^-2) error model
    assert abs(l1 - l2) < 4 * max(predicted, 1e-6)


def test_rayleigh_consistency(disk):
    cfg, mesh, u = disk
    rep = analyze_stability(cfg, u, n=24)
    v = rep.eigvec_min()
    q = float(v @ rep.Q @ v)
    g = float(v @ rep.G @ v)
    assert abs(q - rep.lam_min * g) < 1e-9 * max(1.0, abs(q))
    # feeding the eigenvector through the scalar form reproduces lambda
    phi = combine_basis(rep.basis, v)
    val = quadratic_form(cfg, u, phi, enforce_constraint=False)
    assert abs(val - rep.lam_min * g) < 1e-9 * max(1.0, abs(val))


def test_nested_mask_monotonicity(bent):
    """Enlarging the subdomain never increases the form value (fixed phi)."""
    cfg, mesh, u = bent
    phi = JunctionScalar.from_callables(
        [lambda s: np.sin(np.pi * s), lambda s: 0.4 * s * (1 - s),
         lambda s: -np.sin(np.pi * s)], 49, project_constraint=True)
    vals = []
    for mu in (0.12, 0.18, 0.24):
        m = mark_admissible_subdomain(mesh, cfg, mu)
        u_m = solve_equilibrium(cfg, m, lambda P: P[:, 0])
        v_m = solve_vphi(cfg, u_m, phi)
        vals.append(quadratic_form(cfg, u_m, phi, vphi=v_m))
    assert vals[0] >= vals[1] - 1e-10
    assert vals[1] >= vals[2] - 1e-10
    assert vals[0] > vals[2] + 1e-8  # strictly monotone with nonconstant data


def test_tubular_check_trilobe(trilobe):
    cfg, mesh, u = trilobe
    out = tubular_stability_check(cfg, u, mesh, mu_ladder=(0.2, 0.1, 0.05), n=20)
    assert out["holds"] and out["sign_gate"] and out["monotone"]
    assert out["lambda_min_smallest_mu"] > 0
    sups = out["sup_vphi_energy"]
    assert all(sups[k + 1] <= sups[k] + 1e-10 for k in range(len(sups) - 1))


def test_tubular_check_sign_gate_fails_on_disk(disk):
    cfg, mesh, u = disk
    out = tubular_stability_check(cfg, u, mesh, mu_ladder=(0.15, 0.08), n=16)
    assert not out["sign_gate"]
    assert not out["holds"]


def test_tubular_check_requires_critical(bent):
    cfg, mesh, u = bent
    with pytest.raises(ConfigError):
        tubular_stability_check(cfg, u, mesh, n=12)


def test_necessity_probe_stable(trilobe):
    cfg, mesh, u = trilobe
    out = necessity_probe(cfg, u, mesh, n=16, n_random=10)
    assert not out["has_negative"]
    assert out["sampled_min"] > 0


def test_necessity_probe_descent_on_disk(disk):
    cfg, mesh, u = disk
    out = necessity_probe(cfg, u, mesh, n=20, t_descent=1e-2)
    assert out["has_negative"]
    assert out["descent_found"] and out["descent_delta"] < 0


def test_coercivity_continuity(trilobe):
    cfg, mesh, u = trilobe
    c = cfg.arms[0].point(0.5)
    X = VectorField(lambda P: radial_bump(P, c, 0.02, 0.7 * cfg.mu)[:, None]
                    * np.array([0.8, 0.3]))
    out = coercivity_continuity_probe(cfg, u, mesh,
                                      [(X, 1e-1), (X, 1e-2), (X, 1e-3)], n=20)
    lam0 = out["lambda_min_base"]
    # lambda_min is double (three-fold symmetry) and the bump on arm 1 moves
    # only the branch living there, so compare the whole lowest cluster
    assert out["cluster_size"] == 2
    gaps = [r["cluster_gap"] for r in out["records"]]
    assert gaps[0] >= gaps[1] >= gaps[2] - 1e-12
    assert min(r["lambda_min"] for r in out["records"]) >= 0.5 * lam0
    sups = [r["trace_grad_sup"] for r in out["records"]]
    # sector-constant data: trace gradients are roundoff; either the decay
    # trend holds or everything is at noise level
    assert all(s < 1e-9 for s in sups) or sups[0] >= sups[1] >= sups[2] - 1e-12


def _arm_1d_matrices_loop(arm, n):
    """The cell loop that stability._arm_1d_matrices replaced."""
    xg, wg = gauss_legendre(6)
    cells = np.linspace(0.0, 1.0, n)
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    W = np.zeros((n, n))
    for k in range(n - 1):
        s0, s1 = cells[k], cells[k + 1]
        s = s0 + xg * (s1 - s0)
        w = wg * (s1 - s0)
        speed = np.linalg.norm(arm.velocity(s), axis=-1)
        N = np.stack([(s1 - s) / (s1 - s0), (s - s0) / (s1 - s0)], axis=1)
        dN = np.array([-1.0, 1.0]) / (s1 - s0)
        H2 = arm.curvature(s) ** 2
        idx = (k, k + 1)
        for a in range(2):
            for b in range(2):
                K[idx[a], idx[b]] += np.sum(w * speed * dN[a] * dN[b] / speed ** 2)
                M[idx[a], idx[b]] += np.sum(w * speed * N[:, a] * N[:, b])
                W[idx[a], idx[b]] += np.sum(w * speed * H2 * N[:, a] * N[:, b])
    return K, M, W


@pytest.mark.parametrize("n", [32, 128])
def test_arm_1d_matrices_match_cell_loop(disk, trilobe, bent, n):
    for cfg, _, _ in (disk, trilobe, bent):
        for arm in cfg.arms:
            for got, want in zip(_arm_1d_matrices(arm, n), _arm_1d_matrices_loop(arm, n)):
                assert np.array_equal(got, want)


def test_tubular_ladder_shares_one_operator(monkeypatch):
    """The mu ladder marks copies of one mesh: one Operator serves the
    equilibrium solve and every rung, and each rung's figures are bitwise
    those of a freshly generated and marked mesh with its own operator."""
    cfg = trilobe_config()
    mesh = mark_admissible_subdomain(generate_crack_mesh(cfg, 0.05), cfg, cfg.mu)
    built = []
    init = fem.Operator.__init__

    def counted(self, m):
        built.append(m)
        init(self, m)
    monkeypatch.setattr(fem.Operator, "__init__", counted)
    u = solve_equilibrium(cfg, mesh, SectorConstants([1.0, 2.0, 3.0]))
    ladder, n = (0.2, 0.1, 0.05), 16
    out = tubular_stability_check(cfg, u, mesh, mu_ladder=ladder, n=n)
    assert len(built) == 1
    basis = junction_basis(cfg, n)
    for mu, sup in zip(ladder, out["sup_vphi_energy"]):
        fresh = mark_admissible_subdomain(generate_crack_mesh(cfg, 0.05), cfg, mu)
        Q, G, extras = assemble_stability_problem(cfg, CrackField(fresh, u.values), basis)
        E = extras["E"]
        assert sup == float(max(sla.eigh(0.5 * (E + E.T), G, eigvals_only=True)[-1], 0.0))
    assert out["lambda_min_smallest_mu"] == stability_verdict(Q, G, basis_n=n).lam_min
    assert len(built) == 1 + len(ladder)


def _coercivity_records_nine_flows(config, u, mesh, fields_and_amplitudes, n, m, lam):
    """The records of coercivity_continuity_probe from its loop before each
    entry flowed its points in one call: nine flows of the entry's field."""
    records = []
    for X, amp in fields_and_amplitudes:
        Xa = X * amp
        mesh_a = mesh.morph(lambda P: rk4_flow(Xa, P, 1.0))
        cfg_a = transported_config(config, lambda P: rk4_flow(Xa, P, 1.0))
        u_a = solve_transported(mesh_a, u)
        rep_a = analyze_stability(cfg_a, u_a, n=n)
        dist = c2_distance_on_crack(config, lambda P: rk4_flow(Xa, P, 1.0))
        sup_grad = 0.0
        ss = np.linspace(0.02, 0.98, 160)
        for i in range(3):
            tp0 = u.trace(i, "plus")
            tpa = u_a.trace(i, "plus")
            base_pos = config.arms[i].point(ss)
            img = rk4_flow(Xa, base_pos, 1.0)
            s_img, _, _ = cfg_a.arms[i].project(img)
            eps = 1e-5
            img2 = rk4_flow(Xa, config.arms[i].point(ss + eps), 1.0)
            darc_ratio = (np.linalg.norm(img2 - img, axis=1)
                          / np.linalg.norm(config.arms[i].point(ss + eps) - base_pos, axis=1))
            pullback = tpa.darc(s_img) * darc_ratio
            sup_grad = max(sup_grad, float(np.max(np.abs(pullback - tp0.darc(ss)))))
        records.append({"amplitude": amp, "lambda_min": rep_a.lam_min,
                        "cluster_gap": float(np.max(np.abs(rep_a.eigvals[:m] - lam[:m]))),
                        "verdict": rep_a.verdict, "c2_dist": dist,
                        "trace_grad_sup": sup_grad})
    return records


def test_coercivity_probe_flows_each_entry_once(bent, monkeypatch):
    cfg, mesh, u = bent
    c = cfg.arms[0].point(0.5)
    X = VectorField(lambda P: radial_bump(P, c, 0.02, 0.7 * cfg.mu)[:, None]
                    * np.array([0.8, 0.3]))
    entries = [(X, 1e-1), (X, 1e-3)]
    n = 12
    flows = []
    flow = fields.rk4_flow

    def counted(field, P, t):
        flows.append(len(P))
        return flow(field, P, t)
    monkeypatch.setattr(fields, "rk4_flow", counted)
    out = coercivity_continuity_probe(cfg, u, mesh, entries, n=n)
    monkeypatch.undo()
    assert len(flows) == len(entries)
    lam = analyze_stability(cfg, u, n=n).eigvals
    assert out["records"] == _coercivity_records_nine_flows(
        cfg, u, mesh, entries, n, out["cluster_size"], lam)
    assert out["records"][0]["trace_grad_sup"] > 1e-6
