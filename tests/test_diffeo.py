import numpy as np
import pytest

from trijunction import ParamCurve, Diffeo, AdmissibilityError
from trijunction.diffeo import pushforward, area_formula_check
from trijunction.fields import VectorField


def test_pushforward_identity():
    a = ParamCurve.arc((0, 0), 1.0, 0.2, 1.4, n=800)
    ident = Diffeo.identity()
    nu, eta, J = pushforward(ident, a, 0.5)
    assert np.allclose(nu, a.normal(0.5))
    assert np.allclose(eta, a.tangent(0.5))
    assert J == pytest.approx(1.0)
    nu0, eta0, J0 = pushforward(ident, a, 0.0)
    assert np.allclose(eta0, a.outward_tangent(0))


def test_pushforward_dilation_and_rotation():
    a = ParamCurve.arc((0, 0), 1.0, 0.2, 1.4, n=800)
    lam = 1.7
    dil = Diffeo(lambda P: (lam - 1.0) * np.atleast_2d(P),
                 lambda P: (lam - 1.0) * np.tile(np.eye(2), (len(np.atleast_2d(P)), 1, 1)))
    nu, eta, J = pushforward(dil, a, 0.3)
    assert J == pytest.approx(lam, rel=1e-12)
    assert np.allclose(nu, a.normal(0.3), atol=1e-12)
    th = 0.4
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rot = Diffeo(lambda P: np.atleast_2d(P) @ (R.T - np.eye(2)),
                 lambda P: np.tile(R - np.eye(2), (len(np.atleast_2d(P)), 1, 1)))
    nu, eta, J = pushforward(rot, a, 0.3)
    assert J == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(nu, R @ a.normal(0.3), atol=1e-12)


def test_pushforward_rejects_singular():
    a = ParamCurve.arc((0, 0), 1.0, 0.2, 1.4, n=800)
    collapse = Diffeo(lambda P: -np.atleast_2d(P),
                      lambda P: np.tile(-np.eye(2), (len(np.atleast_2d(P)), 1, 1)))
    with pytest.raises(AdmissibilityError):
        pushforward(collapse, a, 0.5)


def test_area_formula_randomized(rng):
    worst = 0.0
    for k in range(20):
        c = rng.uniform(-0.2, 0.2, 2)
        r = rng.uniform(0.6, 1.2)
        t0 = rng.uniform(0, 2 * np.pi)
        arc = ParamCurve.arc(c, r, t0, t0 + rng.uniform(0.8, 2.5), n=900)
        a1, a2 = rng.uniform(-0.05, 0.05, 2)
        w1, w2 = rng.uniform(1.0, 2.0, 2)

        def disp(P, a1=a1, a2=a2, w1=w1, w2=w2):
            P = np.atleast_2d(P)
            return np.stack([a1 * np.sin(w1 * P[:, 1]),
                             a2 * np.cos(w2 * P[:, 0])], axis=1)

        def disp_jac(P, a1=a1, a2=a2, w1=w1, w2=w2):
            P = np.atleast_2d(P)
            J = np.zeros((P.shape[0], 2, 2))
            J[:, 0, 1] = a1 * w1 * np.cos(w1 * P[:, 1])
            J[:, 1, 0] = -a2 * w2 * np.sin(w2 * P[:, 0])
            return J

        phi = Diffeo(disp, disp_jac)
        cf = rng.uniform(-1, 1, 3)
        f = lambda P, cf=cf: cf[0] + cf[1] * np.atleast_2d(P)[:, 0] \
            + cf[2] * np.atleast_2d(P)[:, 1] ** 2
        lhs, rhs = area_formula_check(phi, arc, f, order=10, panels=400)
        scale = arc.integrate(lambda s: np.abs(f(arc.point(s)))) + 1e-30
        worst = max(worst, abs(lhs - rhs) / scale)
    assert worst < 1e-7
