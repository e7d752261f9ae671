"""Vector fields, cutoffs, corner blends and flow maps.

Everything here is vectorized over point arrays of shape (n, 2).
"""

import numpy as np

from .errors import AdmissibilityError


def smoothstep(r):
    """C^2 quintic cutoff: 1 on (-inf, 1/2], 0 on [1, inf), monotone between."""
    r = np.asarray(r, dtype=float)
    t = np.clip((r - 0.5) * 2.0, 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)


def ramp(r, r_core, r_out):
    """Quintic 1 -> 0 over the linear range [r_core, r_out] (wide, gentle)."""
    r = np.asarray(r, dtype=float)
    t = np.clip((r - r_core) / max(r_out - r_core, 1e-300), 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)


def radial_bump(x, center, r_core, r_out):
    """1 inside r_core, 0 outside r_out, quintic in |x - c| between."""
    x = np.atleast_2d(np.asarray(x, float))
    r = np.linalg.norm(x - np.asarray(center, float), axis=1)
    return ramp(r, r_core, r_out)


class VectorField:
    """Vectorized planar field with optional analytic Jacobian."""

    def __init__(self, fn, jac=None, label="field"):
        self._fn = fn
        self._jac = jac
        self.label = label

    def __call__(self, P):
        return np.atleast_2d(np.asarray(self._fn(np.atleast_2d(np.asarray(P, float))), float))

    def jac(self, P):
        """The analytic Jacobian, else central differences with step 1e-6."""
        P = np.atleast_2d(np.asarray(P, float))
        if self._jac is not None:
            return np.asarray(self._jac(P), float)
        h = 1e-6
        J = np.empty((P.shape[0], 2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            J[:, :, k] = (self(P + e) - self(P - e)) / (2 * h)
        return J

    def advected(self):
        """Z = DX[X], the acceleration of the autonomous flow of X."""
        return VectorField(lambda P: np.einsum("nij,nj->ni", self.jac(P), self(P)),
                           label=self.label + ".DX[X]")

    def __mul__(self, a):
        return VectorField(lambda P: a * self(P),
                           (lambda P: a * self.jac(P)) if self._jac else None,
                           label=self.label)

    __rmul__ = __mul__

    @classmethod
    def zero(cls):
        return cls(lambda P: np.zeros_like(P),
                   lambda P: np.zeros((P.shape[0], 2, 2)), label="zero")


def rk4_flow(field, P, t, substeps=8):
    """Flow map of the autonomous field at time t (possibly negative).

    The field is evaluated once on all points. A point where it is exactly
    zero is a fixed point of every RK4 stage, so only the points with a
    non-zero first velocity are stepped: after the first evaluation the cost
    scales with the number of moving points, not with the size of P.
    """
    P = np.atleast_2d(np.asarray(P, float)).copy()
    if t == 0.0:
        return P
    k1 = np.broadcast_to(field(P), P.shape)
    move = np.flatnonzero(np.any(k1 != 0.0, axis=1))
    if move.size == 0:
        return P
    Q, k1 = P[move], k1[move]
    dt = t / substeps
    for step in range(substeps):
        if step:
            k1 = field(Q)
        k2 = field(Q + 0.5 * dt * k1)
        k3 = field(Q + 0.5 * dt * k2)
        k4 = field(Q + dt * k3)
        Q = Q + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    P[move] = Q
    return P


def rk4_flow_with_jac(field, P, t):
    """Flow map and its space Jacobian (variational equation, RK4 in 8 steps)."""
    P = np.atleast_2d(np.asarray(P, float)).copy()
    J = np.tile(np.eye(2), (P.shape[0], 1, 1))
    dt = t / 8
    for _ in range(8):
        k1 = field(P);              K1 = np.einsum("nij,njk->nik", field.jac(P), J)
        P2 = P + 0.5 * dt * k1;     J2 = J + 0.5 * dt * K1
        k2 = field(P2);             K2 = np.einsum("nij,njk->nik", field.jac(P2), J2)
        P3 = P + 0.5 * dt * k2;     J3 = J + 0.5 * dt * K2
        k3 = field(P3);             K3 = np.einsum("nij,njk->nik", field.jac(P3), J3)
        P4 = P + dt * k3;           J4 = J + dt * K3
        k4 = field(P4);             K4 = np.einsum("nij,njk->nik", field.jac(P4), J4)
        P = P + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        J = J + dt / 6.0 * (K1 + 2 * K2 + 2 * K3 + K4)
    return P, J


# ----------------------------------------------------------------------
# tube / corner machinery shared by the test-field and flow constructions
# ----------------------------------------------------------------------

def corner_coordinates(curve_a, curve_b, corner, P, sa0=0.0, sb0=0.0, clamp=0.35):
    """Translated-fiber coordinates (s, t) near a transversal corner.

    Solves  curve_a(s) + curve_b(t) - corner = y  by vectorized Newton.  The
    fibers {s = const} are translates of curve_b along curve_a and vice
    versa; points on curve_a have t = corner parameter and s the arc
    parameter (and symmetrically), which is what makes the boolean-sum
    corner interpolant exact on both curves.

    Each point leaves the iteration after the step whose updates of s and t
    are both below 1e-14 (at most 14 steps), so its result does not
    depend on the other points in P.  Later steps would only cycle within
    ulps of the root.
    """
    P = np.atleast_2d(np.asarray(P, float))
    corner = np.asarray(corner, float)
    s = np.full(P.shape[0], float(sa0))
    t = np.full(P.shape[0], float(sb0))
    lo_a, hi_a = sa0 - clamp, sa0 + clamp
    lo_b, hi_b = sb0 - clamp, sb0 + clamp
    active = np.arange(P.shape[0])
    for _ in range(14):
        sa, ta = s[active], t[active]
        F = curve_a.point(sa) + curve_b.point(ta) - corner - P[active]
        da = curve_a.velocity(sa)
        db = curve_b.velocity(ta)
        det = da[:, 0] * db[:, 1] - da[:, 1] * db[:, 0]
        det = np.where(np.abs(det) < 1e-30, 1e-30, det)
        ds = -(db[:, 1] * F[:, 0] - db[:, 0] * F[:, 1]) / det
        dt = -(-da[:, 1] * F[:, 0] + da[:, 0] * F[:, 1]) / det
        s_new = np.clip(sa + ds, lo_a, hi_a)
        t_new = np.clip(ta + dt, lo_b, hi_b)
        s[active], t[active] = s_new, t_new
        active = active[(np.abs(s_new - sa) >= 1e-14) | (np.abs(t_new - ta) >= 1e-14)]
        if active.size == 0:
            break
    return s, t


class CornerBlend:
    """Transfinite corner interpolant exact on both curves.

    Given fields f_a on curve_a and f_b on curve_b agreeing at the shared
    corner, F(y) = f_a(s(y)) + f_b(t(y)) - f(corner) in translated-fiber
    coordinates restricts to f_a on curve_a and f_b on curve_b exactly.
    Curves must be evaluable slightly outside the corner parameter range
    (open arms extrapolate their spline; closed curves wrap).
    """

    def __init__(self, curve_a, curve_b, corner, fa_fn, fb_fn,
                 corner_param_a=0.0, corner_param_b=0.0, clamp=0.35):
        self.a, self.b, self.corner = curve_a, curve_b, np.asarray(corner, float)
        self.fa, self.fb = fa_fn, fb_fn
        self.sa0, self.sb0 = float(corner_param_a), float(corner_param_b)
        self.clamp = clamp
        for crv, sp in ((curve_a, corner_param_a), (curve_b, corner_param_b)):
            if np.linalg.norm(crv.point(sp) - self.corner) > 1e-8 * (1 + crv.length):
                raise AdmissibilityError("corner does not lie on the given curve")
        va = np.asarray(fa_fn(np.array([self.sa0])), float)[0]
        vb = np.asarray(fb_fn(np.array([self.sb0])), float)[0]
        if np.max(np.abs(va - vb)) > 1e-8:
            raise AdmissibilityError(
                "corner-incompatible boundary data: mismatch %.3e" % np.max(np.abs(va - vb)))
        self.f0 = 0.5 * (va + vb)

    def coords(self, P):
        return corner_coordinates(self.a, self.b, self.corner, P,
                                  self.sa0, self.sb0, clamp=self.clamp)

    def __call__(self, P):
        sa, sb = self.coords(P)
        return (np.asarray(self.fa(sa), float) + np.asarray(self.fb(sb), float)
                - self.f0[None, :])
