"""Near-identity maps of the domain as displacement diffeomorphisms.

A Diffeo is Phi = Id + d where the displacement d is a callable, with an
optional analytic Jacobian (central differences otherwise).
"""

import numpy as np

from .errors import AdmissibilityError
from .curves import ParamCurve


class Diffeo:
    """Phi = Id + displacement."""

    def __init__(self, disp, disp_jac=None):
        self._disp = disp
        self._disp_jac = disp_jac

    @classmethod
    def identity(cls):
        return cls(lambda P: np.zeros_like(np.atleast_2d(P)),
                   lambda P: np.zeros((np.atleast_2d(P).shape[0], 2, 2)))

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

    def map_curve(self, curve, n=None):
        """Image curve Phi(gamma) refit as a ParamCurve (same orientation flag)."""
        n = n if n is not None else max(len(curve.knots), 200)
        samples = self(curve.point(np.linspace(0.0, 1.0, n)))
        return ParamCurve.from_samples(samples, closed=curve.closed, flag=curve.flag)


def _fd_jacobian(fn, P):
    h = 1e-6
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
