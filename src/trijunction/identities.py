"""Numerical verification of the tangential-calculus identity suite.

Each identity is evaluated two ways: a 'direct' side built from brute-force
differentiation (finite differences of the signed distance, of flow
pushforwards, or spline derivatives along the curve) and a 'formula' side
from the tangential calculus.  Residuals are sup norms over interior sample
parameters.
"""

import numpy as np

from .curves import ParamCurve
from .fields import VectorField, rk4_flow, rk4_flow_with_jac


class AnalyticScalarField:
    """Scalar field with analytic gradient and Hessian.

    The holomorphic constructor takes G, G', G'' with u = Re G, for which
    grad u = (Re G', -Im G') and the Hessian follows from G''.
    """

    def __init__(self, value, grad, hess):
        self.value = value
        self.grad = grad
        self.hess = hess

    @classmethod
    def holomorphic(cls, G, dG, d2G):
        def val(P):
            z = P[:, 0] + 1j * P[:, 1]
            return np.real(G(z))

        def grad(P):
            z = P[:, 0] + 1j * P[:, 1]
            g = dG(z)
            return np.stack([np.real(g), -np.imag(g)], axis=1)

        def hess(P):
            z = P[:, 0] + 1j * P[:, 1]
            h = d2G(z)
            out = np.empty((P.shape[0], 2, 2))
            out[:, 0, 0] = np.real(h)
            out[:, 0, 1] = out[:, 1, 0] = -np.imag(h)
            out[:, 1, 1] = -np.real(h)
            return out
        return cls(val, grad, hess)


def _frames(curve, s):
    tau = curve.tangent(s)
    nu = curve.normal(s)
    H = curve.curvature(s)
    P = curve.point(s)
    return P, tau, nu, H


def _spline_d2(curve, s, values_fn):
    """Second derivative along arc length of a scalar sampled on the curve
    (central differences in the parameter, step 1e-4)."""
    ds = 1e-4
    speed = np.linalg.norm(curve.velocity(s), axis=-1)
    f1 = values_fn(s + ds)
    f0 = values_fn(s)
    fm = values_fn(s - ds)
    return (f1 - 2 * f0 + fm) / ds ** 2 / speed ** 2


def item1(curve, u, s):
    """D^2 u[nu, nu] = -Lap_Gamma u (harmonic u with Neumann data)."""
    P, tau, nu, H = _frames(curve, s)
    lhs = np.einsum("ni,nij,nj->n", nu, u.hess(P), nu)
    lap = _spline_d2(curve, s, lambda q: u.value(curve.point(q)))
    return lhs, -lap


def item2(curve, u, X, s):
    """D^2 u[X, nu] = -(X.nu) Lap_G u - Dnu[grad_G u, X]."""
    P, tau, nu, H = _frames(curve, s)
    xv = X(P)
    lhs = np.einsum("ni,nij,nj->n", xv, u.hess(P), nu)
    lap = _spline_d2(curve, s, lambda q: u.value(curve.point(q)))
    gt = np.sum(u.grad(P) * tau, axis=1)
    dnu_term = H * gt * np.sum(xv * tau, axis=1)
    rhs = -np.sum(xv * nu, axis=1) * lap - dnu_term
    return lhs, rhs


def item3(curve, u, X, s):
    """div_G[(X.nu) grad_G u] = (D_G X)^T[nu, grad_G u] - D^2u[X, nu]."""
    P, tau, nu, H = _frames(curve, s)

    def field_on_curve(q):
        Pq, tq, nq, _ = _frames(curve, q)
        gq = u.grad(Pq)
        xnq = np.sum(X(Pq) * nq, axis=1)
        return xnq[:, None] * np.sum(gq * tq, axis=1)[:, None] * tq

    ds = 1e-4
    speed = np.linalg.norm(curve.velocity(s), axis=-1)
    dF = (field_on_curve(s + ds) - field_on_curve(s - ds)) / (2 * ds) / speed[:, None]
    lhs = np.sum(tau * dF, axis=1)
    gt = np.sum(u.grad(P) * tau, axis=1)
    dX = X.jac(P)
    rhs = gt * np.einsum("ni,nij,nj->n", nu, dX, tau) \
        - np.einsum("ni,nij,nj->n", X(P), u.hess(P), nu)
    return lhs, rhs


def item4(curve, s):
    """normal derivative of the curvature of the distance extension = -H^2."""
    P, tau, nu, H = _frames(curve, s)
    h = 2e-4 * max(1.0, curve.length)

    def H_ext(Q):
        # Laplacian of the signed distance by a 5-point stencil
        d = np.empty((Q.shape[0], 5))
        offs = [(0.0, 0.0), (h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)]
        for k, (ox, oy) in enumerate(offs):
            R = Q + np.array([ox, oy])
            sq, dq, _ = curve.project(R)
            d[:, k] = dq
        return (d[:, 1] + d[:, 2] + d[:, 3] + d[:, 4] - 4 * d[:, 0]) / h ** 2

    lhs = (H_ext(P + h * nu) - H_ext(P - h * nu)) / (2 * h)
    return lhs, -H ** 2


def item5(curve, u, s):
    """D^2u[nu, grad_G u] = -Dnu[grad_G u, grad_G u] = -H |grad_G u|^2."""
    P, tau, nu, H = _frames(curve, s)
    gt = np.sum(u.grad(P) * tau, axis=1)
    gG = gt[:, None] * tau
    lhs = np.einsum("ni,nij,nj->n", nu, u.hess(P), gG)
    return lhs, -H * gt ** 2


def _pushforward_normal(curve, X, s, t):
    P = curve.point(s)
    nu = curve.normal(s)
    _, J = rk4_flow_with_jac(X, P, t)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    invT = np.empty_like(J)
    invT[:, 0, 0] = J[:, 1, 1]
    invT[:, 0, 1] = -J[:, 1, 0]
    invT[:, 1, 0] = -J[:, 0, 1]
    invT[:, 1, 1] = J[:, 0, 0]
    invT /= det[:, None, None]
    w = np.einsum("nij,nj->ni", invT, nu)
    return w / np.linalg.norm(w, axis=1)[:, None], det, w


def item6(curve, X, s):
    """nu-dot = -grad_G (X.nu).

    nu-dot is the time derivative of the moving normal *field* at a fixed
    spatial point (zero for purely tangential flows), evaluated by refitting
    the flowed curve through 900 samples and reading its projection-extended
    normal, central differences in time with step 1e-3.
    """
    t_fd = 1e-3
    P, tau, nu, H = _frames(curve, s)
    ss = np.linspace(0.0, 1.0, 900)
    base = curve.point(ss)

    def normal_field_at_P(t):
        img = ParamCurve.from_samples(rk4_flow(X, base, t), closed=curve.closed,
                                      flag=curve.flag)
        return img.normal_extension(P)

    lhs = (normal_field_at_P(t_fd) - normal_field_at_P(-t_fd)) / (2 * t_fd)
    dX = X.jac(P)
    dxn = np.einsum("ni,nij,nj->n", nu, dX, tau) + H * np.sum(X(P) * tau, axis=1)
    rhs = -dxn[:, None] * tau
    return lhs, rhs


def item7(curve, X, s):
    """d/dt [ Phi-dot . (nu_t o Phi_t) J_t ] = Z.nu - 2 X_par . grad_G(X.nu)
    + Dnu[X_par, X_par] + div_G((X.nu) X)."""
    t_fd = 1e-4
    P, tau, nu, H = _frames(curve, s)

    def val(t):
        pos = rk4_flow(X, P, t)
        nu_t, det, w = _pushforward_normal(curve, X, s, t)
        J_t = np.linalg.norm(w, axis=1) * det
        xdot = X(pos)
        return np.sum(xdot * nu_t, axis=1) * J_t

    lhs = (val(t_fd) - val(-t_fd)) / (2 * t_fd)
    xv = X(P)
    xn = np.sum(xv * nu, axis=1)
    xt = np.sum(xv * tau, axis=1)
    dX = X.jac(P)
    Z = np.einsum("nij,nj->ni", dX, xv)
    dxn = np.einsum("ni,nij,nj->n", nu, dX, tau) + H * xt
    div_term = dxn * xt + xn * np.einsum("ni,nij,nj->n", tau, dX, tau)
    rhs = np.sum(Z * nu, axis=1) - 2 * xt * dxn + H * xt ** 2 + div_term
    return lhs, rhs


def _eta_pushforward(curve, X, end, t):
    s = np.array([float(end)])
    eta = curve.outward_tangent(end)[None, :]
    P = curve.point(s)
    _, J = rk4_flow_with_jac(X, P, t)
    v = np.einsum("nij,nj->ni", J, eta)
    return v / np.linalg.norm(v, axis=1)[:, None]


def item_i(curve, X, end):
    """eta-dot = (D_G X)^T [nu, eta] nu at an arc endpoint."""
    t_fd = 1e-4
    s = np.array([float(end)])
    P, tau, nu, H = _frames(curve, s)
    eta = curve.outward_tangent(end)[None, :]
    lhs = (_eta_pushforward(curve, X, end, t_fd)
           - _eta_pushforward(curve, X, end, -t_fd)) / (2 * t_fd)
    dX = X.jac(P)
    coef = np.einsum("ni,nij,nj->n", nu, dX, eta)
    return lhs[0], (coef[:, None] * nu)[0]


def item_ii(curve, X, end):
    """X . eta-dot = -(X.nu)(nu-dot . eta) - H (X.nu)(X.eta)."""
    t_fd = 1e-4
    s = np.array([float(end)])
    P, tau, nu, H = _frames(curve, s)
    eta = curve.outward_tangent(end)[None, :]
    etadot = (_eta_pushforward(curve, X, end, t_fd)
              - _eta_pushforward(curve, X, end, -t_fd)) / (2 * t_fd)
    xv = X(P)
    lhs = float(np.sum(xv * etadot, axis=1)[0])
    dX = X.jac(P)
    dxn = np.einsum("ni,nij,nj->n", nu, dX, tau) + H * np.sum(xv * tau, axis=1)
    nudot = -dxn[:, None] * tau
    xn = np.sum(xv * nu, axis=1)
    rhs = float((-xn * np.sum(nudot * eta, axis=1)
                 - H * xn * np.sum(xv * eta, axis=1))[0])
    return lhs, rhs


def item_iii(bdry_curve, X, t_bdry):
    """Z . nu_bdry + Dnu_bdry[X, X] = 0 at a boundary point for flows
    tangent to the boundary (Dnu by central differences with step 1e-4)."""
    h_fd = 1e-4
    s = np.array([float(t_bdry)])
    P = bdry_curve.point(s)
    nu = bdry_curve.normal(s)
    xv = X(P)
    Z = np.einsum("nij,nj->ni", X.jac(P), xv)
    # Dnu by finite differences of the projection-extended normal
    def nu_ext(Q):
        sq, _, _ = bdry_curve.project(Q)
        return bdry_curve.normal(sq)
    Dnu = np.empty((1, 2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = h_fd
        Dnu[:, :, k] = (nu_ext(P + e) - nu_ext(P - e)) / (2 * h_fd)
    lhs = float(np.sum(Z * nu, axis=1)[0])
    rhs = float(-np.einsum("ni,nij,nj->n", xv, Dnu, xv)[0])
    return lhs, rhs


# ----------------------------------------------------------------------
# the canonical suite run by the acceptance tests and the CLI
# ----------------------------------------------------------------------

def _default_X():
    def f(P):
        x, y = P[:, 0], P[:, 1]
        return np.stack([0.3 * np.sin(x + 2 * y) + 0.1 * y ** 2,
                         0.2 * np.cos(x) - 0.15 * x * y], axis=1)

    def jac(P):
        x, y = P[:, 0], P[:, 1]
        J = np.empty((P.shape[0], 2, 2))
        J[:, 0, 0] = 0.3 * np.cos(x + 2 * y)
        J[:, 0, 1] = 0.6 * np.cos(x + 2 * y) + 0.2 * y
        J[:, 1, 0] = -0.2 * np.sin(x) - 0.15 * y
        J[:, 1, 1] = -0.15 * x
        return J
    return VectorField(f, jac, label="analytic-test")


def circle_neumann_field(R=1.0):
    """Harmonic with zero normal derivative on the circle |z| = R."""
    return AnalyticScalarField.holomorphic(
        lambda z: z ** 2 + R ** 4 / z ** 2,
        lambda z: 2 * z - 2 * R ** 4 / z ** 3,
        lambda z: 2 + 6 * R ** 4 / z ** 4)


def parabola_neumann_field():
    """Harmonic with zero normal derivative on y = x^2.

    Built from w = sqrt(-i (z - i/4)) with the branch cut along the ray
    {x = 0, y > 1/4} (inside the parabola): the arc lies on Im w = 1/2 and
    u = Re cosh(w - i/2) has vanishing normal derivative there.
    """
    def w_of(z):
        zeta = -1j * (z - 0.25j)
        # branch with cut on the positive real axis: arg in (0, 2 pi)
        r = np.abs(zeta)
        th = np.mod(np.angle(zeta), 2 * np.pi)
        return np.sqrt(r) * np.exp(0.5j * th)

    def G(z):
        return np.cosh(w_of(z) - 0.5j)

    def dG(z):
        w = w_of(z)
        dw = -1j / (2 * w)
        return np.sinh(w - 0.5j) * dw

    def d2G(z):
        w = w_of(z)
        dw = -1j / (2 * w)
        d2w = -dw ** 2 / w
        return np.cosh(w - 0.5j) * dw ** 2 + np.sinh(w - 0.5j) * d2w
    return AnalyticScalarField.holomorphic(G, dG, d2G)


def canonical_identity_suite():
    """Residual table over the circle and parabola arcs with analytic data,
    at 40 interior parameters."""
    results = {}
    s = np.linspace(0.08, 0.92, 40)
    # circle arc of radius 1 (clockwise so the normal points outward)
    circ = ParamCurve.arc((0.0, 0.0), 1.0, 0.9 * np.pi, 0.1 * np.pi, n=1500)
    u_c = circle_neumann_field(1.0)
    # parabola arc y = x^2
    xx = np.linspace(-0.6, 0.6, 1500)
    par = ParamCurve(np.stack([xx, xx ** 2], axis=1),
                     end_tangents=((1.0, -1.2), (1.0, 1.2)))
    u_p = parabola_neumann_field()
    X = _default_X()

    for name, curve, u in (("circle", circ, u_c), ("parabola", par, u_p)):
        lhs, rhs = item1(curve, u, s)
        results["1_%s" % name] = float(np.max(np.abs(lhs - rhs)))
        lhs, rhs = item2(curve, u, X, s)
        results["2_%s" % name] = float(np.max(np.abs(lhs - rhs)))
        lhs, rhs = item3(curve, u, X, s)
        results["3_%s" % name] = float(np.max(np.abs(lhs - rhs)))
        lhs, rhs = item4(curve, s)
        results["4_%s" % name] = float(np.max(np.abs(lhs - rhs)))
        lhs, rhs = item5(curve, u, s)
        results["5_%s" % name] = float(np.max(np.abs(lhs - rhs)))
        lhs, rhs = item6(curve, X, s)
        results["6_%s" % name] = float(np.max(np.abs(lhs - rhs)))
        lhs, rhs = item7(curve, X, s)
        results["7_%s" % name] = float(np.max(np.abs(lhs - rhs)))
        for end in (0, 1):
            lhs, rhs = item_i(curve, X, end)
            results["i_%s_end%d" % (name, end)] = float(np.max(np.abs(lhs - rhs)))
            l2, r2 = item_ii(curve, X, end)
            results["ii_%s_end%d" % (name, end)] = abs(l2 - r2)
    # boundary identity with a flow tangent to the unit circle
    bdry = ParamCurve.circle(radius=1.0, n=2000, clockwise=True)

    def ft(P):
        x, y = P[:, 0], P[:, 1]
        a = 0.5 + 0.2 * x
        return np.stack([-a * y, a * x], axis=1)

    def ft_jac(P):
        x, y = P[:, 0], P[:, 1]
        J = np.empty((P.shape[0], 2, 2))
        J[:, 0, 0] = -0.2 * y
        J[:, 0, 1] = -(0.5 + 0.2 * x)
        J[:, 1, 0] = 0.5 + 0.4 * x
        J[:, 1, 1] = 0.0
        return J
    Xt = VectorField(ft, ft_jac, label="tangent-rotation")
    worst = 0.0
    for t0 in (0.1, 0.45, 0.7):
        lhs, rhs = item_iii(bdry, Xt, t0)
        worst = max(worst, abs(lhs - rhs))
    results["iii_circle"] = worst
    return results
