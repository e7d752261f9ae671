"""Discrete stability analysis: the quadratic-form eigenproblem on the
junction function space, strict-stability verdicts, the tubular-neighborhood
criterion and the necessity/continuity probes."""

import logging
import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolveError, ConfigError
from .curves import gauss_legendre
from .config import TripleJunctionConfig, map_with_arms
from .crackmesh import mark_admissible_subdomain
from .fem import CrackLoadAssembler, mesh_operator, transported_pin_set, solve_transported
from .hspace import junction_basis, combine, gauss_table
from .variation import criticality_residual, ms_energy

log = logging.getLogger("trijunction.stability")


class StabilityReport:
    def __init__(self, Q, G, eigvals, eigvecs, verdict, margin, basis_n):
        self.Q = Q
        self.G = G
        self.eigvals = eigvals
        self.eigvecs = eigvecs
        self.lam_min = float(eigvals[0])
        self.verdict = verdict
        self.margin = margin
        self.basis_n = basis_n

    def eigvec_min(self):
        return self.eigvecs[:, 0]

    def text(self):
        lines = ["stability report (basis n=%d, dim %d)" % (self.basis_n, self.Q.shape[0]),
                 "  lambda_min          % .10e" % self.lam_min,
                 "  verdict             %s" % self.verdict,
                 "  margin              % .3e" % self.margin,
                 "  lowest eigenvalues  " + " ".join("% .6e" % v for v in self.eigvals[:6])]
        return "\n".join(lines)

    def dump_matrices(self, stream):
        for name, M in (("Q", self.Q), ("G", self.G)):
            stream.write("# %s %d %d\n" % (name, M.shape[0], M.shape[1]))
            for i in range(M.shape[0]):
                for j in range(M.shape[1]):
                    if M[i, j] != 0.0:
                        stream.write("%d %d %.17g\n" % (i, j, M[i, j]))


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------

def _arm_1d_matrices(arm, n):
    """P1 stiffness, mass and H^2-weighted mass on one arm (arc measure)."""
    s, w, speed, H2 = gauss_table(arm, n)
    cells = np.linspace(0.0, 1.0, n)
    s0, s1 = cells[:-1, None], cells[1:, None]
    h = s1 - s0
    # per cell, hat functions a and b with their derivatives, the 6 Gauss
    # points on the last axis (the axis np.sum reduces, as the cell loop did)
    Na = np.stack([(s1 - s) / h, (s - s0) / h], axis=1)[:, :, None, :]
    dNa = np.concatenate([-1.0 / h, 1.0 / h], axis=1)[:, :, None, None]
    Nb, dNb = Na.swapaxes(1, 2), dNa.swapaxes(1, 2)
    ws = (w * speed)[:, None, None, :]
    local = (np.sum(ws * dNa * dNb / speed[:, None, None, :] ** 2, axis=-1),
             np.sum(ws * Na * Nb, axis=-1),
             np.sum((w * speed * H2)[:, None, None, :] * Na * Nb, axis=-1))
    cell = np.arange(n - 1)
    out = tuple(np.zeros((n, n)) for _ in local)
    for A, loc in zip(out, local):
        for a in range(2):
            for b in range(2):
                A[cell + a, cell + b] += loc[:, a, b]
    return out


def _basis_matrix(basis, n):
    """Columns = nodal coordinates of basis elements in the 3n 'full' space."""
    P = np.zeros((3 * n, len(basis)))
    for j, b in enumerate(basis):
        for arm in range(3):
            P[arm * n:(arm + 1) * n, j] = b.nodal[arm]
    return P


def _stability_parts(config, u, basis):
    """What the stability problem of (u, basis) shares between subdomains:
    the crack loads B of the basis elements (columns), the local form Q1, the
    boundary point terms Qpt and the Gram matrix G."""
    arms = config.arms
    n = basis[0].nodal[0].size
    assembler = CrackLoadAssembler(u.mesh, u, arms)
    B = np.empty((u.mesh.n_nodes, len(basis)))
    for j, phi in enumerate(basis):
        B[:, j] = assembler.rhs(lambda arm_idx, s, pos: phi.eval(arm_idx, s))
    Kf = np.zeros((3 * n, 3 * n))
    Mf = np.zeros((3 * n, 3 * n))
    Wf = np.zeros((3 * n, 3 * n))
    for arm in range(3):
        K, M, W = _arm_1d_matrices(arms[arm], n)
        sl = slice(arm * n, (arm + 1) * n)
        Kf[sl, sl] = K
        Mf[sl, sl] = M
        Wf[sl, sl] = W
    P = _basis_matrix(basis, n)
    Q1 = P.T @ (Kf + Wf) @ P
    G = P.T @ (Kf + Mf) @ P
    # boundary point terms -phi_i(x_i)^2 Dnu[nu,nu](x_i)
    end_rows = np.zeros((3, 3 * n))
    for arm in range(3):
        end_rows[arm, arm * n + n - 1] = 1.0
    Epts = end_rows @ P                       # endpoint values of basis elements
    Kpt = np.array([config.contact_normal_curvature(i) for i in range(3)])
    Qpt = -(Epts.T * Kpt) @ Epts
    return B, Q1, Qpt, 0.5 * (G + G.T)


def _stability_matrix(mesh, B, Q1, Qpt):
    """(Q, E) on the subdomain marked on mesh: E is the Gram matrix of the
    v_phi fields of the loads B, int grad v_i . grad v_j."""
    op = mesh_operator(mesh)
    pinned = transported_pin_set(mesh)
    V = op.solve_pinned(pinned, np.zeros((pinned.size, B.shape[1])), B)
    E = V.T @ (op.A @ V)
    E = 0.5 * (E + E.T)
    Q = -2.0 * E + Q1 + Qpt
    return 0.5 * (Q + Q.T), E


def assemble_stability_problem(config, u, basis):
    """(Q, G, {"E": E}) for the polarized quadratic form on the given basis.

    Q = -2 E + 1D(stiffness + H^2 mass) - boundary point terms, with E the
    Gram matrix of the v_phi fields; G = 1D (mass + stiffness), both reduced
    to the constrained basis.
    """
    B, Q1, Qpt, G = _stability_parts(config, u, basis)
    Q, E = _stability_matrix(u.mesh, B, Q1, Qpt)
    return Q, G, {"E": E}


def stability_verdict(Q, G, basis_n=None):
    """Solve Q v = lambda G v; verdict from the sign of lambda_min."""
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise SolveError("Gram matrix not positive definite (assembly bug)")
    if np.max(np.abs(Q - Q.T)) > 1e-10 * max(1.0, np.abs(Q).max()):
        raise SolveError("stability matrix not symmetric")
    w, v = sla.eigh(Q, G)
    margin = 1e-6 * np.linalg.norm(Q, 2)
    if w[0] > margin:
        verdict = "strictly-stable"
    elif w[0] < -margin:
        verdict = "unstable"
    else:
        verdict = "marginal"
    return StabilityReport(Q, G, w, v, verdict, margin,
                           basis_n if basis_n is not None else (Q.shape[0] + 1) // 3)


def analyze_stability(config, u, n=48):
    basis = junction_basis(config, n)
    Q, G, _ = assemble_stability_problem(config, u, basis)
    rep = stability_verdict(Q, G, basis_n=n)
    rep.basis = basis
    return rep


# ----------------------------------------------------------------------
# independent 1D oracle (finite differences, constrained junction)
# ----------------------------------------------------------------------

def oracle_1d(config, m=1500):
    """The 6 lowest finite-difference eigenvalues, ascending, of the 1D
    reduction of the form (valid when the nonlocal v_phi term vanishes, e.g.
    piecewise-constant u).

    Independent of the P1 assembly path: second-order finite differences on
    per-arm arc-length grids (sparse tridiagonal stiffness S, trapezoidal
    mass M, G = S + M), the junction constraint eliminated by null-space
    parametrization, and shift-invert Lanczos about a proven lower bound.

    On an arm of length L, summing the differences from each grid node to
    the contact node and averaging with the trapezoidal weights gives the
    trace bound phi_m^2 <= (2/L) phi.M phi + 2L phi.S phi
    <= 2 max(L, 1/L) phi.G phi.  The contact term -K phi_m^2 is the only
    negative part of Q, so Q >= -max_a 2 K_a^+ max(L_a, 1/L_a) G, and the
    junction constraint only raises eigenvalues.  The shift sigma = -1 minus
    that constant thus lies strictly below the spectrum, and the 6
    eigenvalues nearest sigma are the 6 smallest.  ARPACK's values carry the
    error of the shift-inverted solve (up to 1.8e-9 from a dense solve at
    m = 1500); the Rayleigh quotients of its vectors, returned instead, stay
    within 3e-11 of it.
    """
    Qs, Gs, sigma = [], [], -1.0
    for i, arm in enumerate(config.arms):
        L, K = arm.length, config.contact_normal_curvature(i)
        dx = L / (m - 1)
        D = sp.diags([-1.0 / dx, 1.0 / dx], [0, 1], shape=(m - 1, m))
        stiff = D.T @ D * dx
        trap = np.full(m, dx)
        trap[0] = trap[-1] = dx / 2
        q = trap * arm.curvature(np.linspace(0.0, 1.0, m)) ** 2
        q[-1] -= K
        Qs.append(stiff + sp.diags(q))
        Gs.append(stiff + sp.diags(trap))
        sigma = min(sigma, -1.0 - 2.0 * max(K, 0.0) * max(L, 1.0 / L))
    # junction constraint phi1(0)+phi2(0)+phi3(0)=0: the first two columns
    # of T span the constrained junction values, the others keep a node
    nvar = 3 * m
    j_ids = [0, m, 2 * m]
    keep = np.setdiff1d(np.arange(nvar), j_ids)
    r2, r6 = 1.0 / np.sqrt(2), 1.0 / np.sqrt(6)
    T = sp.csr_matrix((np.concatenate([np.ones(keep.size), [r2, -r2, r6, r6, -2 * r6]]),
                       (np.concatenate([keep, j_ids[:2], j_ids]),
                        np.concatenate([np.arange(2, nvar - 1), [0, 0, 1, 1, 1]]))),
                      shape=(nvar, nvar - 1))
    Qr, Gr = ((T.T @ sp.block_diag(A) @ T).tocsc() for A in (Qs, Gs))
    # a fixed random start vector: the same values on every call, and no
    # symmetry of the configuration that it could hide an eigenvector by
    v0 = np.random.default_rng(0).standard_normal(nvar - 1)
    _, V = spla.eigsh(Qr, k=6, M=Gr, sigma=sigma, which="LM", tol=0, v0=v0)
    return np.sort(np.sum(V * (Qr @ V), axis=0) / np.sum(V * (Gr @ V), axis=0))


def oracle_quadrature_value(config, fns, panels=None):
    """High-order quadrature of the local form for callable phi (v_phi = 0).

    fns: three (phi(s), phi'(s)) pairs of callables on [0, 1]; panels may be
    given (e.g. aligned with the kinks of a piecewise-linear phi).
    """
    xg, wg = gauss_legendre(10)
    total = 0.0
    pan = np.linspace(0.0, 1.0, 400) if panels is None else np.asarray(panels)
    for i, arm in enumerate(config.arms):
        phi, dphi = fns[i]
        s = (pan[:-1, None] + np.diff(pan)[:, None] * xg[None, :]).ravel()
        w = (np.diff(pan)[:, None] * wg[None, :]).ravel()
        speed = np.linalg.norm(arm.velocity(s), axis=-1)
        total += np.sum((np.asarray(dphi(s)) / speed) ** 2 * w * speed)
        total += np.sum(arm.curvature(s) ** 2 * np.asarray(phi(s)) ** 2 * w * speed)
        total -= float(phi(np.array([1.0]))[0]) ** 2 * config.contact_normal_curvature(i)
    return float(total)


# ----------------------------------------------------------------------
# tubular-neighborhood criterion
# ----------------------------------------------------------------------

def tubular_stability_check(config, u, mesh, mu_ladder=(0.2, 0.1, 0.05), n=32):
    """Sign gate H_bdry(x_i) < 0 plus the mu-ladder decay of the nonlocal
    energy supremum; holds when both pass and lambda_min at the smallest mu
    is positive."""
    crit = criticality_residual(config, u)
    if not all(v < 1e-3 for v in crit):
        raise ConfigError("tubular check requires a critical configuration "
                          "(residuals %s)" % (crit,))
    signs = [config.contact_normal_curvature(i) for i in range(3)]
    sign_gate = all(k < 0 for k in signs)
    basis = junction_basis(config, n)
    # the marked copies share the geometry of mesh, hence its operator; only
    # the pin set, and so the factorization, changes along the ladder
    B, Q1, Qpt, G = _stability_parts(config, u, basis)
    sups = []
    lam_small = None
    for mu in sorted(mu_ladder, reverse=True):
        mesh_mu = mark_admissible_subdomain(mesh, config, mu)
        Q, Emat = _stability_matrix(mesh_mu, B, Q1, Qpt)
        wE = sla.eigh(0.5 * (Emat + Emat.T), G, eigvals_only=True)
        sups.append(float(max(wE[-1], 0.0)))
        lam_small = stability_verdict(Q, G, basis_n=n)
    monotone = all(sups[k + 1] <= sups[k] + 1e-10 * (1 + abs(sups[k]))
                   for k in range(len(sups) - 1))
    holds = bool(sign_gate and lam_small.lam_min > 0)
    return {"holds": holds, "sign_gate": sign_gate, "boundary_terms": signs,
            "mu_ladder": sorted(mu_ladder, reverse=True), "sup_vphi_energy": sups,
            "monotone": monotone, "lambda_min_smallest_mu": lam_small.lam_min,
            "verdict_smallest_mu": lam_small.verdict, "criticality": crit}


# ----------------------------------------------------------------------
# necessity of nonnegativity (contrapositive probe)
# ----------------------------------------------------------------------

def necessity_probe(config, u, mesh, n=32, n_random=20, t_descent=1e-2):
    """Sample the quadratic form; if a negative direction exists, verify it
    is a genuine energy-descent direction by flowing the configuration."""
    rng = np.random.default_rng(0)
    basis = junction_basis(config, n)
    Q, G, extras = assemble_stability_problem(config, u, basis)
    rep = stability_verdict(Q, G, basis_n=n)
    vals = list(np.diag(Q))
    for _ in range(n_random):
        c = rng.standard_normal(len(basis))
        c /= np.linalg.norm(c)
        vals.append(float(c @ Q @ c))
    scale = max(abs(v) for v in vals)
    tol_neg = 1e-6 * scale
    negative = [v for v in vals if v < -tol_neg]
    out = {"lambda_min": rep.lam_min, "verdict": rep.verdict,
           "sampled_min": min(vals), "tol_neg": tol_neg,
           "has_negative": bool(negative) or rep.lam_min < -tol_neg}
    if out["has_negative"]:
        from .fields import rk4_flow
        from .flows import build_test_field, energy_at_map
        phi_min = combine(basis, rep.eigvec_min())
        nrm = np.sqrt(phi_min.norm_h1(config))
        phi_min = phi_min.scaled(1.0 / nrm)
        V = build_test_field(config, phi_min)
        e_t = energy_at_map(config, u, mesh, lambda P: rk4_flow(V.X, P, t_descent))[0]
        delta = float(e_t - ms_energy(u, config, "U")[0])
        out["descent_delta"] = delta
        out["descent_found"] = bool(delta < 0.0)
    return out


# ----------------------------------------------------------------------
# uniform coercivity probe along configurations converging to the base one
# ----------------------------------------------------------------------

def coercivity_continuity_probe(config, u, mesh, fields_and_amplitudes, n=32):
    """lambda_min along a sequence of transported configurations Phi_n -> Id.

    fields_and_amplitudes: list of (VectorField, amplitude); each entry is
    flowed to time 1 to produce Phi_n.  Returns the per-entry records, the
    base eigenvalue and the size of its cluster.

    lambda_min may be a multiple eigenvalue (the trilobe's is double by its
    three-fold symmetry), and a perturbation may move only some branches of
    it, leaving lambda_min itself in place.  So the probe tracks the whole
    lowest cluster of the base spectrum: the m eigenvalues with
    lambda_j - lambda_min <= 1e-3 (lambda_max - lambda_min).  Q and G share
    the 1D stiffness term, so lambda_max stays bounded and converges as n
    grows, and m does not depend on the basis size (m = 2 on the trilobe and
    the disk at n = 20, 64 and 128).  The result carries cluster_size m
    beside lambda_min_base, and each record carries cluster_gap =
    max_{j<m} |lambda_j(Phi) - lambda_j(Id)|, an upper bound on
    |lambda_min(Phi) - lambda_min(Id)|.
    """
    from .fields import rk4_flow
    from .flows import _c2_distance
    base = analyze_stability(config, u, n=n)
    lam = base.eigvals
    m = int(np.sum(lam - lam[0] <= 1e-3 * (lam[-1] - lam[0])))
    # each entry flows, in one call with the arm samples of the refit, the
    # mesh nodes, the junction, the C^2(Gamma) samples and the trace-probe
    # points at ss and ss + eps on every arm
    s_c2 = np.linspace(0.0, 1.0, 240)
    ss = np.linspace(0.02, 0.98, 160)
    eps = 1e-5
    c2_pts = [arm.point(s_c2) for arm in config.arms]
    probe_pts = [arm.point(ss) for arm in config.arms]
    probe_pts2 = [arm.point(ss + eps) for arm in config.arms]
    pieces = [mesh.vx, config.junction[None, :]] + c2_pts + probe_pts + probe_pts2
    cuts = np.cumsum([len(p) for p in pieces[:-1]])
    records = []
    for X, amp in fields_and_amplitudes:
        Xa = X * amp
        img, arms_a = map_with_arms(config, lambda P: rk4_flow(Xa, P, 1.0), 400,
                                    np.vstack(pieces))
        vx_a, x0_a, *rest = np.split(img, cuts)
        c2_img, img, img2 = rest[0:3], rest[3:6], rest[6:9]
        mesh_a = mesh.with_nodes(vx_a)
        cfg_a = TripleJunctionConfig(x0_a[0], arms_a, config.outer, config.dirichlet_arcs,
                                     config.mu, config.tol_tangency)
        u_a = solve_transported(mesh_a, u)
        rep_a = analyze_stability(cfg_a, u_a, n=n)
        # closeness of Phi to Id in C^2 measured on Gamma samples
        dist = _c2_distance(config.arms, [c - p for c, p in zip(c2_img, c2_pts)], s_c2)
        # trace-gradient convergence probe:
        # d(u_a o Phi)/darc_base = du_a/darc_img * darc_img/darc_base
        sup_grad = 0.0
        for i in range(3):
            s_img, _, _ = cfg_a.arms[i].project(img[i])
            darc_ratio = (np.linalg.norm(img2[i] - img[i], axis=1)
                          / np.linalg.norm(probe_pts2[i] - probe_pts[i], axis=1))
            pullback = u_a.trace(i, "plus").darc(s_img) * darc_ratio
            sup_grad = max(sup_grad, float(np.max(np.abs(pullback - u.trace(i, "plus").darc(ss)))))
        records.append({"amplitude": amp, "lambda_min": rep_a.lam_min,
                        "cluster_gap": float(np.max(np.abs(rep_a.eigvals[:m] - lam[:m]))),
                        "verdict": rep_a.verdict, "c2_dist": dist,
                        "trace_grad_sup": sup_grad})
    return {"lambda_min_base": base.lam_min, "cluster_size": m,
            "records": records}
