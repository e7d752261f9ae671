"""Quadratic Lagrange finite elements on the slit meshes.

Isoparametric P2 elements (curved edges along the crack and the outer
boundary), sparse direct solves with cached factorizations, two-sided crack
traces, and the weak crack loads used by the shape-derivative and stability
solves: the duality pairing < div_Gamma(q grad_Gamma u), z > is realized by
tangential integration by parts edge-wise along each arm.
"""

import logging
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from .errors import SolveError, AdmissibilityError, MeshError
from .crackmesh import DIRICHLET, NEU_OUTER
from .curves import gauss_legendre

log = logging.getLogger("trijunction.fem")

# Dunavant degree-5 rule (7 points) on the reference triangle
_TRI_Q = np.array([
    [1 / 3, 1 / 3, 0.225],
    [0.059715871789770, 0.470142064105115, 0.132394152788506],
    [0.470142064105115, 0.059715871789770, 0.132394152788506],
    [0.470142064105115, 0.470142064105115, 0.132394152788506],
    [0.797426985353087, 0.101286507323456, 0.125939180544827],
    [0.101286507323456, 0.797426985353087, 0.125939180544827],
    [0.101286507323456, 0.101286507323456, 0.125939180544827],
])


def p2_basis(xi, eta):
    """P2 shape functions and reference gradients, vectorized over (xi, eta).

    Returns N with shape (..., 6) and dN with shape (..., 6, 2).
    """
    xi = np.asarray(xi, float)
    eta = np.asarray(eta, float)
    lam = np.stack([1.0 - xi - eta, xi, eta], axis=-1)          # (..., 3)
    N = np.concatenate([
        lam * (2 * lam - 1),
        np.stack([4 * lam[..., 0] * lam[..., 1],
                  4 * lam[..., 1] * lam[..., 2],
                  4 * lam[..., 2] * lam[..., 0]], axis=-1)], axis=-1)
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])     # (3, 2)
    dN = np.empty(lam.shape[:-1] + (6, 2))
    for k in range(3):
        dN[..., k, :] = (4 * lam[..., k] - 1)[..., None] * dlam[k]
    dN[..., 3, :] = 4 * (lam[..., 0, None] * dlam[1] + lam[..., 1, None] * dlam[0])
    dN[..., 4, :] = 4 * (lam[..., 1, None] * dlam[2] + lam[..., 2, None] * dlam[1])
    dN[..., 5, :] = 4 * (lam[..., 2, None] * dlam[0] + lam[..., 0, None] * dlam[2])
    return N, dN


_BASIS_CACHE = {}


def _basis_tables(points):
    key = points.tobytes()
    if key not in _BASIS_CACHE:
        Ns, dNs = [], []
        for xi, eta in points:
            N, dN = p2_basis(xi, eta)
            Ns.append(N)
            dNs.append(dN)
        _BASIS_CACHE[key] = (np.asarray(Ns), np.asarray(dNs))
    return _BASIS_CACHE[key]


def _quad_points(subdivide=0):
    """Dunavant rule, optionally on a 4^k uniform split of the triangle."""
    pts = _TRI_Q[:, :2]
    w = _TRI_Q[:, 2] * 0.5
    for _ in range(subdivide):
        l0 = 1.0 - pts[:, 0] - pts[:, 1]
        sub = []
        subw = []
        corners = [((0, 0), (0.5, 0), (0, 0.5)), ((0.5, 0), (1, 0), (0.5, 0.5)),
                   ((0, 0.5), (0.5, 0.5), (0, 1)), ((0.5, 0.5), (0, 0.5), (0.5, 0))]
        for (a, b, c) in corners:
            a, b, c = map(np.asarray, (a, b, c))
            sub.append(a + np.outer(pts[:, 0], b - a) + np.outer(pts[:, 1], c - a))
            subw.append(w * 0.25)
        pts = np.vstack(sub)
        w = np.concatenate(subw)
    return pts, w


class Assembly:
    """Element tables reused by the stiffness matrix and energy quadratures.

    It keeps the connectivity, not the mesh: an operator cached on its mesh
    then forms no reference cycle, and is freed with the mesh.
    """

    def __init__(self, mesh, subdivide=0):
        self.tris = mesh.tris
        self.n_nodes = mesh.n_nodes
        pts, w = _quad_points(subdivide)
        N, dN = _basis_tables(pts)     # (nq, 6), (nq, 6, 2)
        X = mesh.vx[mesh.tris]         # (nt, 6, 2)
        J = np.einsum("qak,nad->nqdk", dN, X)   # (nt, nq, 2(space), 2(ref))
        det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        if np.any(det <= 0):
            raise SolveError("non-positive isoparametric Jacobian")
        inv = np.empty_like(J)
        inv[..., 0, 0] = J[..., 1, 1]
        inv[..., 0, 1] = -J[..., 0, 1]
        inv[..., 1, 0] = -J[..., 1, 0]
        inv[..., 1, 1] = J[..., 0, 0]
        inv /= det[..., None, None]
        # physical gradients of shape functions: (nt, nq, 6, 2)
        self.gradN = np.einsum("nqkd,qak->nqad", inv, dN)
        self.N = N
        self.wdet = w[None, :] * det
        self.qpoints = np.einsum("qa,nad->nqd", N, X)

    def stiffness(self):
        K = np.einsum("nqad,nqbd,nq->nab", self.gradN, self.gradN, self.wdet)
        t = self.tris
        rows = np.repeat(t, 6, axis=1).ravel()
        cols = np.tile(t, (1, 6)).ravel()
        A = sp.coo_matrix((K.ravel(), (rows, cols)),
                          shape=(self.n_nodes, self.n_nodes))
        return A.tocsr()

    def energy(self, values, elem_select=None):
        """int |grad u_h|^2 over selected elements by the 7-point rule.

        Exact for straight P2 elements only: on curved (isoparametric)
        boundary and crack elements the integrand is rational, and on the
        h = 0.12 disk mesh a random field's energy moves by 3.6e-7 (relative)
        under one level of quadrature subdivision."""
        g = np.einsum("nqad,na->nqd", self.gradN, values[self.tris])
        e = np.sum(np.sum(g * g, axis=-1) * self.wdet, axis=1)
        if elem_select is None:
            return float(np.sum(e))
        return float(np.sum(e[elem_select]))

    def interpolate(self, values):
        """Nodal field at the quadrature points, shape (nt, nq)."""
        return np.einsum("qa,na->nq", self.N, values[self.tris])

    def l2_error(self, values, exact_fn):
        ex = np.asarray(exact_fn(self.qpoints.reshape(-1, 2)), float)
        diff = self.interpolate(values) - ex.reshape(self.wdet.shape)
        return float(np.sqrt(np.sum(diff ** 2 * self.wdet)))


class Operator:
    """Stiffness operator with cached sparse factorizations per pin set.

    Like its Assembly it keeps no reference to the mesh (see Assembly).
    """

    def __init__(self, mesh):
        self.n_nodes = mesh.n_nodes
        self.asm = Assembly(mesh)
        self.A = self.asm.stiffness()
        self._factors = {}
        self.node_sector = -np.ones(mesh.n_nodes, dtype=int)
        for s in range(3):
            self.node_sector[np.unique(mesh.tris[mesh.sector == s])] = s

    def _factor(self, pinned):
        key = pinned.tobytes()
        if key not in self._factors:
            free = np.setdiff1d(np.arange(self.n_nodes), pinned, assume_unique=False)
            A_ff = self.A[free][:, free].tocsc()
            try:
                lu = spla.splu(A_ff)
            except RuntimeError as exc:
                raise SolveError("factorization failed: %s" % exc)
            self._factors[key] = (free, lu)
            log.info("factorized %d x %d system (nnz %d)", free.size, free.size, A_ff.nnz)
        return self._factors[key]

    def solve_pinned(self, pinned, pin_values, rhs=None):
        """Solve A u = rhs with u fixed on the pinned nodes (rhs may be 2-D)."""
        pinned = np.asarray(pinned, dtype=int)
        for s in range(3):
            sec_nodes = self.node_sector == s
            if not np.any(np.isin(np.where(sec_nodes)[0], pinned)):
                raise SolveError("singular system: sector %d has no pinned node" % s)
        free, lu = self._factor(pinned)
        n = self.n_nodes
        multi = rhs is not None and np.ndim(rhs) == 2
        ncol = rhs.shape[1] if multi else 1
        u = np.zeros((n, ncol))
        u[pinned] = np.asarray(pin_values, dtype=float).reshape(len(pinned), -1)
        b = np.zeros((n, ncol))
        if rhs is not None:
            b += rhs.reshape(n, -1)
        b_f = b[free] - self.A[free][:, pinned] @ u[pinned]
        u[free] = lu.solve(b_f)
        res = np.abs(self.A[free] @ u - b[free]).max()
        scale = max(1.0, np.abs(u).max())
        log.info("solve residual %.3e (scale %.3e)", res, scale)
        if res > 1e-8 * scale:
            raise SolveError("solver residual %.3e too large" % res)
        return u if multi else u[:, 0]


class CrackField:
    """Scalar P2 field on a CrackMesh with sector-wise evaluation and traces."""

    def __init__(self, mesh, values, operator=None):
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float)
        self.operator = operator
        self._locators = {}

    # ---------------------------------------------------------------- eval
    def _locator(self, sector):
        if sector not in self._locators:
            sel = np.where(self.mesh.sector == sector)[0]
            cen = self.mesh.vx[self.mesh.tris[sel, :3]].mean(axis=1)
            self._locators[sector] = (sel, cKDTree(cen))
        return self._locators[sector]

    def _locate(self, P, sector):
        sel, tree = self._locator(sector)
        _, cand = tree.query(P, k=min(20, len(sel)))
        cand = np.atleast_2d(cand)
        tris = self.mesh.tris[sel]
        V = self.mesh.vx
        best_t = -np.ones(P.shape[0], dtype=int)
        best_xi = np.zeros((P.shape[0], 2))
        best_q = np.full(P.shape[0], -np.inf)
        for col in range(cand.shape[1]):
            t = tris[cand[:, col]]
            a, b, c = V[t[:, 0]], V[t[:, 1]], V[t[:, 2]]
            M = np.stack([b - a, c - a], axis=-1)
            det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
            r = P - a
            xi = (M[:, 1, 1] * r[:, 0] - M[:, 0, 1] * r[:, 1]) / det
            eta = (-M[:, 1, 0] * r[:, 0] + M[:, 0, 0] * r[:, 1]) / det
            q = np.minimum(np.minimum(xi, eta), 1.0 - xi - eta)
            better = q > best_q
            best_q = np.where(better, q, best_q)
            best_t = np.where(better, cand[:, col], best_t)
            best_xi[better] = np.stack([xi, eta], axis=1)[better]
        return sel[best_t], best_xi, best_q

    def _newton_refine(self, P, telem, xi):
        X = self.mesh.vx[self.mesh.tris[telem]]
        for _ in range(4):
            N, dN = p2_basis(xi[:, 0], xi[:, 1])
            pos = np.einsum("na,nad->nd", N, X)
            J = np.einsum("nak,nad->ndk", dN, X)
            r = P - pos
            det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
            dxi = np.empty_like(r)
            dxi[:, 0] = (J[:, 1, 1] * r[:, 0] - J[:, 0, 1] * r[:, 1]) / det
            dxi[:, 1] = (-J[:, 1, 0] * r[:, 0] + J[:, 0, 0] * r[:, 1]) / det
            xi = xi + dxi
        return xi

    def eval(self, P, sector):
        """Field values at points inside the given sector."""
        P = np.atleast_2d(np.asarray(P, float))
        telem, xi, q = self._locate(P, sector)
        if np.any(q < -0.2):
            raise SolveError("evaluation point far outside sector %d" % sector)
        xi = self._newton_refine(P, telem, xi)
        N, _ = p2_basis(xi[:, 0], xi[:, 1])
        return np.einsum("na,na->n", N, self.values[self.mesh.tris[telem]])

    # ---------------------------------------------------------------- traces
    def trace(self, arm_idx, side):
        """TraceFn for one side ('plus'/'minus') of one arm."""
        rec = self.mesh.crack[arm_idx]
        ids = rec[side]
        return TraceFn(self.mesh, ids, rec["s"], self.values)

    def traces(self, arm_idx):
        return self.trace(arm_idx, "plus"), self.trace(arm_idx, "minus")

    def energy(self, region=None, subdivide=0):
        """Dirichlet energy over 'U' (masked elements) or, for None, everything."""
        asm = Assembly(self.mesh, subdivide) if subdivide else \
            (self.operator.asm if self.operator is not None else Assembly(self.mesh))
        if region is None:
            sel = None
        elif region == "U":
            if self.mesh.elem_mask is None:
                raise SolveError("mesh carries no admissible-subdomain mask")
            sel = self.mesh.elem_mask
        else:
            raise SolveError("unknown energy region %r (None or 'U')" % (region,))
        return asm.energy(self.values, sel)


class TraceFn:
    """One-sided crack trace as a piecewise-quadratic function of arm param.

    Node ids alternate vertex/mid/vertex along the arm; geometry is the
    (possibly morphed) quadratic edge map, so tangential derivatives are with
    respect to arc length of the actual discrete crack.
    """

    def __init__(self, mesh, ids, s_params, values):
        self.mesh = mesh
        self.ids = np.asarray(ids, dtype=int)
        self.s = np.asarray(s_params, float)
        self.vals = values[self.ids]
        self.n_edges = (len(self.ids) - 1) // 2

    def _edge_of(self, s):
        s_v = self.s[::2]  # vertex params
        e = np.clip(np.searchsorted(s_v, s, side="right") - 1, 0, self.n_edges - 1)
        s0 = s_v[e]
        s1 = s_v[e + 1]
        shat = (s - s0) / (s1 - s0)
        return e, np.clip(shat, 0.0, 1.0)

    @staticmethod
    def _shape1d(shat):
        N = np.stack([(1 - shat) * (1 - 2 * shat), 4 * shat * (1 - shat),
                      shat * (2 * shat - 1)], axis=-1)
        dN = np.stack([4 * shat - 3, 4 - 8 * shat, 4 * shat - 1], axis=-1)
        return N, dN

    def _edge_data(self, e):
        i = 2 * e
        ids = np.stack([self.ids[i], self.ids[i + 1], self.ids[i + 2]], axis=-1)
        return self.mesh.vx[ids], self.vals.reshape(-1)[np.stack([i, i + 1, i + 2], axis=-1)]

    def value(self, s):
        s = np.atleast_1d(np.asarray(s, float))
        e, shat = self._edge_of(s)
        N, _ = self._shape1d(shat)
        _, u = self._edge_data(e)
        return np.sum(N * u, axis=-1)

    def darc(self, s):
        """Tangential derivative d(trace)/d(arclength)."""
        s = np.atleast_1d(np.asarray(s, float))
        e, shat = self._edge_of(s)
        N, dN = self._shape1d(shat)
        X, u = self._edge_data(e)
        dx = np.einsum("...a,...ad->...d", dN, X)
        speed = np.linalg.norm(dx, axis=-1)
        return np.sum(dN * u, axis=-1) / speed

    def derivative_jump_indicator(self):
        """Median inter-edge jump of the tangential derivative (noise level)."""
        sv = self.s[::2][1:-1]      # the interior vertices
        d = self.darc(np.concatenate([sv - 1e-12, sv + 1e-12]))
        return float(np.median(np.abs(d[:sv.size] - d[sv.size:])))


CRACK_GAUSS_ORDER = 8       # Gauss points per quadratic crack edge


class CrackSide:
    """Gauss data of a field on one side of one discrete arm, at the Gauss
    points of its quadratic edges:

      arm, sgn   the arm index and the sign of the side's weak crack load
      ids, dN    the three node ids of the point's edge and the derivatives
                 of their reference shape functions
      wref, w    the reference Gauss weights and the arc-length weights
      pos        the positions
      darc       the one-sided tangential derivative of the field
      s          the parameters of pos on the arm curve
      ends       the arc endpoints whose point load enters the weak form

    s and ends come from one projection onto the curve, made on first use.
    """

    def __init__(self, trace, curve, arm, sgn):
        self.trace, self.curve, self.arm, self.sgn = trace, curve, arm, sgn
        xg, wg = gauss_legendre(CRACK_GAUSS_ORDER)
        k = 2 * np.repeat(np.arange(trace.n_edges), CRACK_GAUSS_ORDER)[:, None] + np.arange(3)
        self.ids = trace.ids[k]
        X = trace.mesh.vx[self.ids]
        N, self.dN = TraceFn._shape1d(np.tile(xg, trace.n_edges))
        self.pos = np.einsum("na,nad->nd", N, X)
        speed = np.linalg.norm(np.einsum("na,nad->nd", self.dN, X), axis=-1)
        self.wref = np.tile(wg, trace.n_edges)
        self.w = self.wref * speed
        self.darc = np.sum(self.dN * trace.vals[k], axis=-1) / speed
        self.end_nodes = trace.ids[[-1, 0]]     # the arc endpoints s = 1, s = 0

    @cached_property
    def _params(self):
        """Curve parameters of the Gauss points, then of the two endpoints."""
        return self.curve.project(np.vstack([self.pos, self.trace.mesh.vx[self.end_nodes]]))[0]

    @property
    def s(self):
        return self._params[:-2]

    @cached_property
    def ends(self):
        """The endpoints (s = 1 first) whose one-sided derivative stands out
        of the inter-edge jump noise, each with its node, position (1 x 2),
        curve parameter s, derivative du and outward sign esgn."""
        noise = 10.0 * self.trace.derivative_jump_indicator()
        vx = self.trace.mesh.vx
        return [{"node": int(node), "pos": vx[[node]], "s": float(s_end), "du": float(du),
                 "esgn": esgn}
                for node, s_end, du, esgn in zip(self.end_nodes, self._params[-2:],
                                                 self.trace.darc(np.array([1.0, 0.0])),
                                                 (1.0, -1.0))
                if abs(du) > noise]


class CrackQuadrature:
    """Gauss quadrature of one field u on both sides of the three discrete
    arms, with closest-point parameters on the given arm curves: the one
    source of crack-line data.

    sides lists the six CrackSides, arm by arm, plus before minus.  arms[i]
    holds, at the plus side's Gauss points of arm i, pos, w and s, the frames
    tau, nu and H of curves[i] there, and the one-sided derivatives du_plus
    and du_minus.  Each side is projected onto its curve at most once: the
    plus sides here, the minus sides only if a crack load reads them.
    """

    def __init__(self, u, curves):
        self.curves = curves
        # flux convention: the outward normal of the plus component on the
        # crack is -nu, so the Neumann data div_G(q grad_G u+/-) enters the
        # weak form as  int_G [ (.)^- z^- - (.)^+ z^+ ]  (validated against
        # finite differences of the transported solutions)
        self.sides = [CrackSide(u.trace(i, side), curve, i, sgn)
                      for i, curve in enumerate(curves)
                      for side, sgn in (("plus", -1.0), ("minus", 1.0))]
        self.arms = []
        for plus, minus, curve in zip(self.sides[::2], self.sides[1::2], curves):
            self.arms.append({"pos": plus.pos, "w": plus.w, "s": plus.s,
                              "tau": curve.tangent(plus.s), "nu": curve.normal(plus.s),
                              "H": curve.curvature(plus.s), "du_plus": plus.darc,
                              "du_minus": minus.darc})


# ----------------------------------------------------------------------
# boundary data and solvers
# ----------------------------------------------------------------------

class SectorConstants:
    """Dirichlet data taking one constant per sector."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def __call__(self, P, sectors):
        return self.c[sectors]


def _dirichlet_values(mesh, op, data):
    nodes = mesh.dirichlet_nodes()
    if nodes.size == 0:
        raise SolveError("empty Dirichlet set")
    P = mesh.vx[nodes]
    if isinstance(data, SectorConstants):
        vals = data(P, op.node_sector[nodes])
    else:
        vals = np.asarray(data(P), dtype=float)
    return nodes, vals


def mesh_operator(mesh):
    """The stiffness operator of the mesh's geometry, built on first use.

    It is kept in mesh.operator_slot, which the marked copies of a mesh share
    (see mark_admissible_subdomain). The operator keeps no reference to the
    mesh, so the two form no reference cycle.
    """
    if not mesh.operator_slot:
        mesh.operator_slot.append(Operator(mesh))
    return mesh.operator_slot[0]


def solve_equilibrium(config, mesh, dirichlet_data, neumann_load=None):
    """Harmonic field with the given Dirichlet data, natural elsewhere."""
    op = mesh_operator(mesh)
    nodes, vals = _dirichlet_values(mesh, op, dirichlet_data)
    rhs = None
    if neumann_load is not None:
        rhs = assemble_boundary_load(mesh, neumann_load)
    u = op.solve_pinned(nodes, vals, rhs)
    return CrackField(mesh, u, op)


def transported_pin_set(mesh):
    """Nodes where u_Phi is constrained: outside U and on the Dirichlet part."""
    if mesh.vertex_mask is None:
        raise SolveError("mesh carries no admissible-subdomain mask")
    pinned = np.where(~mesh.vertex_mask)[0]
    return np.union1d(pinned, mesh.dirichlet_nodes())


def solve_transported(mesh_t, u_base):
    """Minimizer of the Dirichlet energy on the transported slit domain,
    constrained to match u_base outside U (and on the Dirichlet part).

    mesh_t must be a morph of u_base's mesh that keeps the pinned nodes in
    place, so the constraint values are u_base's own nodal values; any other
    mesh raises SolveError."""
    op = mesh_operator(mesh_t)
    pinned = transported_pin_set(mesh_t)
    base_mesh = u_base.mesh
    if not (base_mesh.n_nodes == mesh_t.n_nodes and
            np.allclose(base_mesh.vx[pinned], mesh_t.vx[pinned], atol=1e-12)):
        raise SolveError("transported mesh is not a morph of the base mesh "
                         "that fixes the nodes pinned outside U")
    u = op.solve_pinned(pinned, u_base.values[pinned])
    return CrackField(mesh_t, u, op)


class CrackLoadAssembler:
    """Weak crack loads over one CrackQuadrature, for many right-hand sides.

    Each call to rhs(q_eval) assembles the load of a new scalar factor q over
    the same traces; q_eval(arm_idx, s_params, positions) returns its values.
    Arm parameters are closest-point projections onto the supplied curves,
    so the same object serves transported configurations.  mesh is the mesh
    of u or a marked copy of it: the load lives on its nodes.
    """

    def __init__(self, mesh, u, curves):
        self.n_nodes = mesh.n_nodes
        self.quad = CrackQuadrature(u, curves)

    def rhs(self, q_eval):
        b = np.zeros(self.n_nodes)
        for side in self.quad.sides:
            qv = np.asarray(q_eval(side.arm, side.s, side.pos), float)
            local = -side.sgn * ((qv * side.darc * side.wref)[:, None] * side.dN)
            np.add.at(b, side.ids.ravel(), local.ravel())
            for end in side.ends:
                q_end = float(np.asarray(
                    q_eval(side.arm, np.array([end["s"]]), end["pos"]), float)[0])
                b[end["node"]] += side.sgn * end["esgn"] * q_end * end["du"]
        return b


def solve_crack_loaded(mesh, assembler, q_eval):
    """Field in H^1_U solving  int grad v . grad z = (crack load for q)."""
    op = mesh_operator(mesh)
    b = assembler.rhs(q_eval)
    pinned = transported_pin_set(mesh)
    v = op.solve_pinned(pinned, np.zeros(pinned.size), b.reshape(-1, 1))
    return CrackField(mesh, v[:, 0], op)


def solve_shape_derivative(config, u, V, curves=None, assembler=None):
    """Transported-solution derivative: crack data div_G((X.nu) grad_G u).

    V is a velocity object: VelocityPair or CurveVelocity, anything with a
    normal_speed(arm_idx, s, pos, nu) method.  When it also carries a bulk
    field X, X must be tangent to the outer boundary.  assembler, when given,
    is a CrackLoadAssembler of (u, curves).
    """
    mesh = u.mesh
    arms = curves if curves is not None else config.arms
    if hasattr(V, "X") and callable(getattr(V, "X", None)):
        tb = np.linspace(0.0, 1.0, 200, endpoint=False)
        Pb = config.outer.point(tb)
        xb = np.atleast_2d(V.X(Pb))
        xn = np.abs(np.sum(xb * config.outer.normal(tb), axis=1))
        if np.max(xn) > max(1e-6, 1e-8 * (1 + np.abs(xb).max())):
            raise AdmissibilityError("velocity not tangent to the outer boundary "
                                     "(max X.nu = %.2e)" % np.max(xn))
    if assembler is None:
        assembler = CrackLoadAssembler(mesh, u, arms)

    def q_eval(arm_idx, s, pos):
        return V.normal_speed(arm_idx, s, pos, arms[arm_idx].normal(s))

    return solve_crack_loaded(mesh, assembler, q_eval)


def solve_vphi(config, u, phi, curves=None, assembler=None):
    """Stability-form field: crack data div_G(phi grad_G u)."""
    mesh = u.mesh
    arms = curves if curves is not None else config.arms
    if assembler is None:
        assembler = CrackLoadAssembler(mesh, u, arms)
    return solve_crack_loaded(mesh, assembler,
                              lambda arm_idx, s, pos: phi.eval(arm_idx, s))


def assemble_boundary_load(mesh, g):
    """int_boundary g z ds over the Neumann edges of the outer boundary."""
    xg, wg = gauss_legendre(8)
    b = np.zeros(mesh.n_nodes)
    for (na, mid, nb, tag, ta, tb) in mesh.bdry:
        if tag != NEU_OUTER:
            continue
        ids = np.array([na, mid, nb])
        X = mesh.vx[ids]
        N, dN = TraceFn._shape1d(xg)
        pos = N @ X
        dx = dN @ X
        speed = np.linalg.norm(dx, axis=-1)
        vals = np.asarray(g(pos), float)
        b[ids] += (wg * speed * vals) @ N
    return b


# ----------------------------------------------------------------------
# nested refinement (exact geometric nesting: children evaluate the parent
# quadratic map, so the discrete spaces are nested and minimum energies
# decrease monotonically)
# ----------------------------------------------------------------------

_CHILD_REF = [
    # child corner/mid reference coordinates inside the parent triangle
    [(0, 0), (0.5, 0), (0, 0.5), (0.25, 0), (0.25, 0.25), (0, 0.25)],
    [(0.5, 0), (1, 0), (0.5, 0.5), (0.75, 0), (0.75, 0.25), (0.5, 0.25)],
    [(0, 0.5), (0.5, 0.5), (0, 1), (0.25, 0.5), (0.25, 0.75), (0, 0.75)],
    [(0.5, 0.5), (0, 0.5), (0.5, 0), (0.25, 0.5), (0.25, 0.25), (0.5, 0.25)],
]
_REF6 = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5)]
# parent shape functions at the six parent nodes and at the six nodes of
# each child, and the child corners as parent local nodes
_N_REF6 = p2_basis(*np.array(_REF6).T)[0]                            # (6, 6)
_N_CHILD = p2_basis(*np.array(_CHILD_REF, float).transpose(2, 0, 1))[0]  # (4, 6, 6)
_CHILD_CORNERS = np.array([[_REF6.index(pt) for pt in child[:3]] for child in _CHILD_REF])


def _first_occurrence(keys):
    """(unique keys, their positions of first occurrence in keys, the rank
    of each unique key in order of first occurrence, inverse of keys)."""
    uniq, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return uniq, first[order], rank, inv


def refine_uniform(mesh):
    """One level of red refinement with exactly nested P2 geometry.

    The refined vertices are the parent nodes in order of first occurrence in
    mesh.tris; the new midnodes follow in order of first occurrence over
    (triangle, child, child edge).  Each node sits at the parent quadratic
    map evaluated at its first occurrence.
    """
    from .crackmesh import CrackMesh

    tris = mesh.tris
    parents, first, rank, _ = _first_occurrence(tris.ravel())
    n_vertex = parents.size
    new_id = np.zeros(mesh.n_nodes, dtype=int)
    new_id[parents] = rank
    t, a = np.divmod(first, 6)
    vx_vertex = (_N_REF6[a][:, None, :] @ mesh.vx[tris[t]])[:, 0, :]
    # child edge k joins child corners k and k + 1; its key is (min, max)
    corners = new_id[tris[:, _CHILD_CORNERS]]                        # (nt, 4, 3)
    ends = np.stack([corners, np.roll(corners, -1, axis=-1)], axis=-1)
    keys = (ends.min(axis=-1) * n_vertex + ends.max(axis=-1)).ravel()
    edge_keys, first, rank, inv = _first_occurrence(keys)
    edge_id = n_vertex + rank
    t, ck = np.divmod(first, 12)
    vx_mid = (_N_CHILD[:, 3:].reshape(12, 6)[ck][:, None, :] @ mesh.vx[tris[t]])[:, 0, :]
    vx = np.vstack([vx_vertex, vx_mid])
    tris_new = np.concatenate([corners, edge_id[inv].reshape(corners.shape)],
                              axis=-1).reshape(-1, 6)

    def midnode(a, b):
        key = np.minimum(a, b) * n_vertex + np.maximum(a, b)
        j = np.searchsorted(edge_keys, key)
        if np.any(j == edge_keys.size) or np.any(edge_keys[j] != key):
            raise MeshError("crack or boundary edge is no edge of the mesh")
        return edge_id[j]

    def remap_chain(ids, s_params):
        """Refined crack chain: old vertices and midnodes become vertices,
        the new midnodes sit between them."""
        v = new_id[ids]
        out_ids = np.empty(2 * v.size - 1, dtype=int)
        out_s = np.empty(out_ids.size)
        out_ids[0::2], out_ids[1::2] = v, midnode(v[:-1], v[1:])
        out_s[0::2], out_s[1::2] = s_params, 0.5 * (s_params[:-1] + s_params[1:])
        return out_ids, out_s

    crack = []
    for rec in mesh.crack:
        p_ids, p_s = remap_chain(rec["plus"], rec["s"])
        m_ids, m_s = remap_chain(rec["minus"], rec["s"])
        crack.append({"s": p_s, "plus": p_ids, "minus": m_ids,
                      "plus_sector": rec.get("plus_sector"),
                      "minus_sector": rec.get("minus_sector")})
    cols = list(zip(*mesh.bdry))
    na, nm, nb = (new_id[np.array(col, dtype=int)] for col in cols[:3])
    bdry = []
    for a, k1, m, k2, b, tag, ta, tb in zip(na.tolist(), midnode(na, nm).tolist(), nm.tolist(),
                                            midnode(nm, nb).tolist(), nb.tolist(), *cols[3:]):
        tm = 0.5 * (ta + tb) if abs(tb - ta) < 0.5 else np.mod(0.5 * (ta + tb + 1.0), 1.0)
        bdry += [(a, k1, m, tag, ta, tm), (m, k2, b, tag, tm, tb)]
    outer_param = {}
    for (a, m, bnode, tag, ta, tb) in bdry:
        outer_param[a] = ta
        outer_param[bnode] = tb
    # the refined mesh carries no admissible-subdomain mask: callers re-mark
    # it, and only mu is kept
    return CrackMesh(vx, tris_new, np.repeat(mesh.sector, 4), n_vertex, crack,
                     new_id[mesh.junction_nodes], bdry, outer_param, mesh.h / 2.0,
                     mu=mesh.mu if mesh.vertex_mask is not None else None)


def prolong(field, fine_mesh):
    """Exact P2 embedding of a field into refine_uniform(field.mesh): each
    fine node takes the parent interpolant at its first occurrence in
    fine_mesh.tris, where row 4 t + c is child c of parent triangle t."""
    nodes, first = np.unique(fine_mesh.tris.ravel(), return_index=True)
    tc, a = np.divmod(first, 6)
    t, c = np.divmod(tc, 4)
    U = field.values[field.mesh.tris[t]]
    vals = np.zeros(fine_mesh.n_nodes)
    vals[nodes] = (_N_CHILD[c, a][:, None, :] @ U[:, :, None])[:, 0, 0]
    return CrackField(fine_mesh, vals)
