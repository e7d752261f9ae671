"""Energy, first and second shape variations, criticality, and the
stability quadratic form for triple-junction configurations.

Sign conventions: the structure function is
    f = |grad_G u^-|^2 - |grad_G u^+|^2 + H,
the first variation is  int_G f (X.nu) + sum_{bdry} X.eta,  and criticality
means f = 0 together with the 2pi/3 junction angles and orthogonal boundary
contact.  All crack-line integrals are evaluated on the discrete quadratic
crack edges (Gauss rule per edge) with geometric frames obtained by
projecting the quadrature points onto the configured arm splines.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import AdmissibilityError, ConfigError
from .fields import VectorField
from .fem import solve_shape_derivative, solve_vphi, CrackQuadrature, CrackLoadAssembler
from .hspace import JunctionScalar, gauss_table


class VelocityPair:
    """First- and second-order velocity data (X, Z) of an admissible flow."""

    def __init__(self, X, Z=None, label="V"):
        self.X = X
        self.Z = Z if Z is not None else VectorField.zero()
        self.label = label

    @classmethod
    def autonomous(cls, X, label="flow"):
        """Z = DX[X], matching the autonomous flow of X."""
        return cls(X, X.advected(), label=label)

    def validate(self, config):
        tb = np.linspace(0.0, 1.0, 257, endpoint=False)
        Pb = config.outer.point(tb)
        xb = self.X(Pb)
        tang = np.abs(np.sum(xb * config.outer.normal(tb), axis=1))
        if np.max(tang) > 1e-8 * max(1.0, np.abs(xb).max()):
            raise AdmissibilityError("X not tangent to the outer boundary")
        probes = _outside_probes(config)
        if probes.shape[0]:
            vals = np.abs(self.X(probes)).max() + np.abs(self.Z(probes)).max()
            if vals > 1e-10 * max(1.0, np.abs(xb).max()):
                raise AdmissibilityError("(X, Z) do not vanish outside U")
        return True

    # ---- protocol used by the variation formulas -----------------------
    def arm_values(self, arm_idx, s, pos, tau, nu, curve):
        """X.nu, X.tau, Z.nu and d(X.nu)/d(arc) at the points pos = curve(s)."""
        xv = self.X(pos)
        zv = self.Z(pos)
        xn = np.sum(xv * nu, axis=1)
        xt = np.sum(xv * tau, axis=1)
        zn = np.sum(zv * nu, axis=1)
        # d(X.nu)/d(arc) via the restriction to the curve: smoother than the
        # ambient-Jacobian formula for fields with C^1 seams
        g = np.linspace(0.0, 1.0, 800)
        xn_spline = CubicSpline(g, np.sum(self.X(curve.point(g)) * curve.normal(g), axis=1))
        speed = np.linalg.norm(curve.velocity(s), axis=-1)
        dxn = xn_spline(s, 1) / speed
        return xn, xt, zn, dxn

    def normal_speed(self, arm_idx, s, pos, nu):
        return np.sum(self.X(pos) * nu, axis=1)

    def endpoint_values(self, arm_idx, pos, eta):
        return (float(np.dot(self.X(pos[None, :])[0], eta)),
                float(np.dot(self.Z(pos[None, :])[0], eta)))


class CurveVelocity:
    """(X_t, Z_t) known only along the arms, as splines in the arm parameter.

    Built from per-arm samples of the velocity and acceleration of a stored
    flow restricted to Gamma_t; enough for every crack-line integral of the
    variation formulas (ambient derivatives never enter, only tangential
    ones).
    """

    def __init__(self, arms, X_samples, Z_samples, s_grid, label="curveV"):
        self.arms = arms
        self.label = label
        self._xn, self._xt, self._zn, self._zv, self._xv = [], [], [], [], []
        for i, arm in enumerate(arms):
            s = s_grid
            tau = arm.tangent(s)
            nu = arm.normal(s)
            Xs = np.asarray(X_samples[i], float)
            Zs = np.asarray(Z_samples[i], float)
            self._xn.append(CubicSpline(s, np.sum(Xs * nu, axis=1)))
            self._xt.append(CubicSpline(s, np.sum(Xs * tau, axis=1)))
            self._zn.append(CubicSpline(s, np.sum(Zs * nu, axis=1)))
            self._zv.append(CubicSpline(s, Zs))
            self._xv.append(CubicSpline(s, Xs))

    def arm_values(self, arm_idx, s, pos, tau, nu, curve):
        speed = np.linalg.norm(self.arms[arm_idx].velocity(s), axis=-1)
        xn = self._xn[arm_idx](s)
        xt = self._xt[arm_idx](s)
        zn = self._zn[arm_idx](s)
        dxn = self._xn[arm_idx](s, 1) / speed
        return xn, xt, zn, dxn

    def normal_speed(self, arm_idx, s, pos, nu):
        return self._xn[arm_idx](s)

    def endpoint_values(self, arm_idx, pos, eta):
        s_end = 0.0 if np.linalg.norm(pos - self.arms[arm_idx].point(0.0)) < \
            np.linalg.norm(pos - self.arms[arm_idx].point(1.0)) else 1.0
        xv = self._xv[arm_idx](s_end)
        zv = self._zv[arm_idx](s_end)
        return float(np.dot(xv, eta)), float(np.dot(zv, eta))


def _outside_probes(config):
    """Sample points of Omega at distance > mu from Gamma (and off bdry)."""
    (x0, x1), (y0, y1) = config.bbox(pad=0.0)
    gx = np.linspace(x0, x1, 24)
    gy = np.linspace(y0, y1, 24)
    P = np.stack(np.meshgrid(gx, gy), axis=-1).reshape(-1, 2)
    s, d, _ = config.outer.project(P)
    inside = d < -0.05 * config.outer.length / (2 * np.pi)
    P = P[inside]
    far = config.distance_to_crack(P) > config.mu * 1.05
    return P[far]


@dataclass
class VariationReport:
    """Named pieces of the second variation; the total is their exact sum."""
    energy_total: float = 0.0
    energy_bulk: float = 0.0
    energy_length: float = 0.0
    first_variation: float = 0.0
    dotu_term: float = 0.0
    grad_term: float = 0.0
    curvature_term: float = 0.0
    f_term: float = 0.0
    endpoint_term: float = 0.0
    second_variation: float = 0.0
    remainder: float = 0.0
    criticality: tuple = (np.nan, np.nan, np.nan)
    endpoint_identification_gap: float = np.nan

    def rows(self):
        return [
            ("energy_total", self.energy_total),
            ("energy_bulk", self.energy_bulk),
            ("energy_length", self.energy_length),
            ("first_variation", self.first_variation),
            ("dotu_term", self.dotu_term),
            ("grad_term", self.grad_term),
            ("curvature_term", self.curvature_term),
            ("f_term", self.f_term),
            ("endpoint_term", self.endpoint_term),
            ("second_variation", self.second_variation),
            ("remainder", self.remainder),
            ("crit_f_inf", self.criticality[0]),
            ("crit_angle", self.criticality[1]),
            ("crit_contact", self.criticality[2]),
            ("endpoint_identification_gap", self.endpoint_identification_gap),
        ]

    def text(self):
        lines = ["second-variation report"]
        for k, v in self.rows():
            lines.append("  %-28s % .12e" % (k, v))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# energy
# ----------------------------------------------------------------------

def ms_energy(u, config, region="U", curves=None):
    """(total, bulk, length): localized Mumford-Shah value."""
    arms = curves if curves is not None else config.arms
    bulk = u.energy(region)
    length = float(sum(arm.length for arm in arms))
    return bulk + length, bulk, length


# ----------------------------------------------------------------------
# crack-line terms, all read off one CrackQuadrature of (u, arms)
# ----------------------------------------------------------------------

def _f_values(q):
    """f at the Gauss points of one arm of a CrackQuadrature."""
    return q["du_minus"] ** 2 - q["du_plus"] ** 2 + q["H"]


def _f_splines(quad):
    out = []
    for q in quad.arms:
        s = q["s"]
        idx = np.argsort(s)
        s_sorted, f_sorted = s[idx], _f_values(q)[idx]
        s_u, pick = np.unique(np.round(s_sorted, 12), return_index=True)
        out.append(CubicSpline(s_u, f_sorted[pick]))
    return out


def structure_function_f(config, u):
    """Per-arm splines of f = |grad_G u^-|^2 - |grad_G u^+|^2 + H."""
    return _f_splines(CrackQuadrature(u, config.arms))


def _f_sup(quad):
    s = np.linspace(0.0, 1.0, 600)
    return float(max(np.max(np.abs(sp(s))) for sp in _f_splines(quad)))


def f_sup_norm(config, u):
    return _f_sup(CrackQuadrature(u, config.arms))


# ----------------------------------------------------------------------
# first and second variation
# ----------------------------------------------------------------------

def _first_variation(quad, V):
    total = 0.0
    for i, q in enumerate(quad.arms):
        xn = V.normal_speed(i, q["s"], q["pos"], q["nu"])
        total += float(np.sum(_f_values(q) * xn * q["w"]))
    for i, arm in enumerate(quad.curves):
        for s_end, sgn in ((0.0, -1.0), (1.0, 1.0)):
            eta = sgn * arm.tangent(s_end)
            xe, _ = V.endpoint_values(i, arm.point(s_end), eta)
            total += xe
    return total


def first_variation(config, u, V):
    """int_G f (X.nu) + sum over the six arc endpoints of X.eta."""
    return _first_variation(CrackQuadrature(u, config.arms), V)


def second_variation(config, u, V, curves=None):
    """Full second variation with named summands (see VariationReport).

    One CrackQuadrature of (u, arms) serves every crack-line term: the
    shape-derivative load, the local terms, the first variation and the
    criticality residuals.
    """
    arms = curves if curves is not None else config.arms
    assembler = CrackLoadAssembler(u.mesh, u, arms)
    quad = assembler.quad
    dot_u = solve_shape_derivative(config, u, V, curves=arms, assembler=assembler)
    rep = VariationReport()
    rep.dotu_term = -2.0 * dot_u.energy()
    grad_t = curv_t = f_t = 0.0
    for i, q in enumerate(quad.arms):
        xn, xt, zn, dxn = V.arm_values(i, q["s"], q["pos"], q["tau"], q["nu"], arms[i])
        fvals = _f_values(q)
        grad_t += float(np.sum(dxn ** 2 * q["w"]))
        curv_t += float(np.sum(q["H"] ** 2 * xn ** 2 * q["w"]))
        f_t += float(np.sum(fvals * (zn - 2 * xt * dxn + q["H"] * xt ** 2
                                     - q["H"] * xn ** 2) * q["w"]))
    end_t = 0.0
    for i, arm in enumerate(arms):
        for s_end, sgn in ((0.0, -1.0), (1.0, 1.0)):
            eta = sgn * arm.tangent(s_end)
            _, ze = V.endpoint_values(i, arm.point(s_end), eta)
            end_t += ze
    rep.grad_term = grad_t
    rep.curvature_term = curv_t
    rep.f_term = f_t
    rep.endpoint_term = end_t
    rep.second_variation = (rep.dotu_term + rep.grad_term + rep.curvature_term
                            + rep.f_term + rep.endpoint_term)
    rep.first_variation = _first_variation(quad, V)
    rep.energy_total, rep.energy_bulk, rep.energy_length = ms_energy(u, config, "U", curves)
    rep.criticality = _criticality_residual(config, quad)
    # gap between the two endpoint-term conventions at orthogonal contact
    gap = 0.0
    for i, arm in enumerate(arms):
        xn_end = float(V.normal_speed(i, np.array([1.0]), arm.point(1.0)[None, :],
                                      arm.normal(1.0)[None, :])[0])
        k_def = config.contact_normal_curvature(i)
        k_prop = config.boundary_curvature_at_contact(i)
        gap = max(gap, abs(k_def - k_prop) * xn_end ** 2)
    rep.endpoint_identification_gap = gap
    return rep


def _criticality_residual(config, quad):
    m = config.metrics()
    return (_f_sup(quad),
            float(np.max(np.abs(m["junction_angles"] - 2 * np.pi / 3))),
            float(np.max(np.abs(m["contact_angles"] - np.pi / 2))))


def criticality_residual(config, u):
    """(sup |f|, max junction-angle defect, max contact-angle defect)."""
    return _criticality_residual(config, CrackQuadrature(u, config.arms))


# ----------------------------------------------------------------------
# quadratic form of the stability analysis
# ----------------------------------------------------------------------

def quadratic_form(config, u, phi, curves=None, enforce_constraint=True,
                   return_parts=False, vphi=None):
    """-2 int |grad v_phi|^2 + int |grad_G phi|^2 + int H^2 phi^2
    - sum_i phi_i(x_i)^2 Dnu_bdry[nu, nu](x_i)."""
    arms = curves if curves is not None else config.arms
    if enforce_constraint and abs(phi.junction_sum()) > 1e-12:
        raise ConfigError("junction constraint violated by phi")
    v = vphi if vphi is not None else solve_vphi(config, u, phi, curves=arms)
    nonlocal_t = -2.0 * v.energy()
    grad_t = curv_t = 0.0
    for i, arm in enumerate(arms):
        s, w, speed, H2 = (a.ravel() for a in gauss_table(arm, phi.nodal[i].size))
        dphi = phi.deriv_param(i, s) / speed
        grad_t += float(np.sum(dphi ** 2 * w * speed))
        curv_t += float(np.sum(H2 * phi.eval(i, s) ** 2 * w * speed))
    bdry_t = 0.0
    for i in range(3):
        bdry_t -= phi.nodal[i][-1] ** 2 * config.contact_normal_curvature(i)
    total = nonlocal_t + grad_t + curv_t + bdry_t
    if return_parts:
        return total, {"nonlocal": nonlocal_t, "grad": grad_t,
                       "curvature": curv_t, "boundary": bdry_t, "v_phi": v}
    return total


def normal_speed_scalar(config, V, n=65, curves=None):
    """JunctionScalar sampling X.nu on the three arms."""
    arms = curves if curves is not None else config.arms
    nodal = []
    for i, arm in enumerate(arms):
        s = np.linspace(0.0, 1.0, n)
        nodal.append(V.normal_speed(i, s, arm.point(s), arm.normal(s)))
    phi = JunctionScalar(nodal, check_constraint=False)
    return phi


def second_variation_remainder(config, u, V, n=65):
    """R = d^2/dt^2 MS - quadratic_form(X.nu); vanishes at criticality.

    When V carries its defining normal-speed scalar (test fields do), the
    quadratic form evaluates that exact function instead of a resampled one.
    """
    rep = second_variation(config, u, V)
    phi = getattr(V, "phi", None)
    if phi is None:
        phi = normal_speed_scalar(config, V, n)
    qf = quadratic_form(config, u, phi, enforce_constraint=False)
    rep.remainder = rep.second_variation - qf
    return rep.remainder, rep, qf
