"""Near-identity maps of the domain: grid-backed displacement diffeomorphisms.

A Diffeo is Phi = Id + d where the displacement d is either analytic
(callable, with optional analytic Jacobian) or a pair of bicubic spline
surfaces on a background grid, so that D Phi and D^2 Phi exist everywhere.
"""

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .errors import AdmissibilityError
from .curves import ParamCurve, rot90


class Diffeo:
    """Phi = Id + displacement on a rectangle containing the domain."""

    def __init__(self, disp, disp_jac=None, bbox=None, label="diffeo"):
        self._disp = disp
        self._disp_jac = disp_jac
        self.bbox = bbox
        self.label = label

    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, bbox=None):
        return cls(lambda P: np.zeros_like(np.atleast_2d(P)),
                   lambda P: np.zeros((np.atleast_2d(P).shape[0], 2, 2)),
                   bbox=bbox, label="identity")

    @classmethod
    def on_grid(cls, disp_fn, bbox, n=96, label="grid"):
        """Sample a displacement onto a grid and represent it bicubically."""
        (x0, x1), (y0, y1) = bbox
        gx = np.linspace(x0, x1, n)
        gy = np.linspace(y0, y1, n)
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        P = np.stack([X.ravel(), Y.ravel()], axis=1)
        D = np.atleast_2d(disp_fn(P))
        sx = RectBivariateSpline(gx, gy, D[:, 0].reshape(n, n), kx=3, ky=3)
        sy = RectBivariateSpline(gx, gy, D[:, 1].reshape(n, n), kx=3, ky=3)

        def disp(Q):
            Q = np.atleast_2d(Q)
            return np.stack([sx(Q[:, 0], Q[:, 1], grid=False),
                             sy(Q[:, 0], Q[:, 1], grid=False)], axis=1)

        def disp_jac(Q):
            Q = np.atleast_2d(Q)
            J = np.empty((Q.shape[0], 2, 2))
            J[:, 0, 0] = sx(Q[:, 0], Q[:, 1], dx=1, grid=False)
            J[:, 0, 1] = sx(Q[:, 0], Q[:, 1], dy=1, grid=False)
            J[:, 1, 0] = sy(Q[:, 0], Q[:, 1], dx=1, grid=False)
            J[:, 1, 1] = sy(Q[:, 0], Q[:, 1], dy=1, grid=False)
            return J

        out = cls(disp, disp_jac, bbox=bbox, label=label)
        out._splines = (sx, sy)
        return out

    # ------------------------------------------------------------------
    def displacement(self, P):
        return np.atleast_2d(self._disp(np.atleast_2d(P)))

    def __call__(self, P):
        P = np.atleast_2d(np.asarray(P, float))
        return P + self.displacement(P)

    def jacobian(self, P):
        P = np.atleast_2d(np.asarray(P, float))
        if self._disp_jac is not None:
            J = np.asarray(self._disp_jac(P), float)
        else:
            J = _fd_jacobian(self._disp, P)
        return np.eye(2)[None, :, :] + J

    def hessian(self, P, h=1e-5):
        """D^2 Phi by central differences of the Jacobian; shape (n, 2, 2, 2)."""
        P = np.atleast_2d(np.asarray(P, float))
        out = np.empty((P.shape[0], 2, 2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            out[:, :, :, k] = (self.jacobian(P + e) - self.jacobian(P - e)) / (2 * h)
        return out

    def det_jacobian(self, P):
        J = self.jacobian(P)
        return J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]

    def check_orientation(self, P):
        d = self.det_jacobian(P)
        if np.any(d <= 0):
            raise AdmissibilityError("det DPhi <= 0 at %d sample points" % int(np.sum(d <= 0)))
        return float(np.min(d))

    def map_curve(self, curve, n=None):
        """Image curve Phi(gamma) refit as a ParamCurve (same orientation flag)."""
        n = n if n is not None else max(len(curve.knots), 200)
        samples = self(curve.point(np.linspace(0.0, 1.0, n)))
        return ParamCurve.from_samples(samples, closed=curve.closed, flag=curve.flag)


def _fd_jacobian(fn, P, h=1e-6):
    J = np.empty((P.shape[0], 2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        J[:, :, k] = (np.atleast_2d(fn(P + e)) - np.atleast_2d(fn(P - e))) / (2 * h)
    return J


# ----------------------------------------------------------------------
# pushforward of curve frames and the tangential Jacobian
# ----------------------------------------------------------------------

def pushforward(diffeo, curve, s):
    """Transported normal, transported outward tangent and tangential Jacobian.

    nu_Phi = (DPhi)^-T nu / |.|, eta_Phi = DPhi eta / |.| (eta = outward
    tangent when s is an endpoint, else the unit tangent), and
    J_Phi = |(DPhi)^-T nu| det DPhi.
    """
    s_arr = np.atleast_1d(np.asarray(s, float))
    P = curve.point(s_arr)
    A = diffeo.jacobian(P)
    det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
    if np.any(det <= 0):
        raise AdmissibilityError("singular or orientation-reversing DPhi on curve")
    nu = curve.normal(s_arr)
    # inv(A)^T [nu] = rot90(A[rot90^-1 something]) ... compute directly
    invT = np.empty_like(A)
    invT[:, 0, 0] = A[:, 1, 1]
    invT[:, 0, 1] = -A[:, 1, 0]
    invT[:, 1, 0] = -A[:, 0, 1]
    invT[:, 1, 1] = A[:, 0, 0]
    invT /= det[:, None, None]
    w = np.einsum("nij,nj->ni", invT, nu)
    wn = np.linalg.norm(w, axis=1)
    nu_phi = w / wn[:, None]
    if not curve.closed and s_arr.size == 1 and (s_arr[0] in (0.0, 1.0)):
        eta = curve.outward_tangent(int(s_arr[0]))[None, :]
    else:
        eta = curve.tangent(s_arr)
    v = np.einsum("nij,nj->ni", A, eta)
    eta_phi = v / np.linalg.norm(v, axis=1)[:, None]
    J = wn * det
    if s_arr.size == 1 and np.isscalar(s):
        return nu_phi[0], eta_phi[0], float(J[0])
    return nu_phi, eta_phi, J


def area_formula_check(diffeo, curve, f, order=10, panels=400):
    """Both sides of int_{Phi(gamma)} f = int_gamma (f o Phi) J_Phi.

    The left side is evaluated on an independently refit image curve.
    """
    image = diffeo.map_curve(curve, n=max(600, 2 * len(curve.knots)))
    lhs = image.integrate(lambda s: np.asarray(f(image.point(s)), float),
                          order=order, panels=panels)
    def rhs_fn(s):
        vals = np.asarray(f(diffeo(curve.point(s))), float)
        _, _, J = pushforward(diffeo, curve, s)
        return vals * J
    rhs = curve.integrate(rhs_fn, order=order, panels=panels)
    return float(lhs), float(rhs)
