import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from trijunction import ParamCurve, GeometryError, ProjectionError
from trijunction.curves import divergence_formula_check, tangential_divergence, \
    tangential_gradient


def test_segment_frame():
    seg = ParamCurve.line((0, 0), (1, 0))
    s = np.linspace(0, 1, 7)
    assert np.allclose(seg.tangent(s), [1, 0])
    assert np.allclose(seg.normal(s), [0, 1])
    assert np.allclose(seg.curvature(s), 0.0)
    assert abs(seg.length - 1.0) < 1e-12


def test_circle_frame_and_sign():
    # counterclockwise parametrization: nu = rot90(tau) points inward, H < 0
    c = ParamCurve.circle(radius=2.0, n=2000)
    assert np.allclose(c.normal(0.0), [-1, 0], atol=1e-9)
    s = np.linspace(0, 1, 50, endpoint=False)
    assert np.max(np.abs(c.curvature(s) + 0.5)) < 5e-7
    # clockwise: outward normal, H = +1/R
    cw = ParamCurve.circle(radius=2.0, n=2000, clockwise=True)
    assert np.max(np.abs(cw.curvature(s) - 0.5)) < 5e-7


def test_quarter_arc_normals_radial():
    a = ParamCurve.arc((0, 0), 1.0, 0.0, np.pi / 2, n=1200)
    s = np.linspace(0, 1, 5)
    pts = a.point(s)
    radial = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    align = np.abs(np.sum(a.normal(s) * radial, axis=1))
    assert np.max(np.abs(align - 1.0)) < 1e-10


def test_parabola_curvature():
    x = np.linspace(-0.6, 0.6, 1500)
    par = ParamCurve(np.stack([x, x ** 2], axis=1),
                     end_tangents=((1, -1.2), (1, 1.2)))
    assert abs(abs(par.curvature(0.5)) - 2.0) < 2e-5


def test_degenerate_rejected():
    with pytest.raises(GeometryError):
        ParamCurve(np.zeros((6, 2)))


def test_signed_distance():
    cw = ParamCurve.circle(radius=1.0, n=2000, clockwise=True)
    th = 0.7
    assert abs(cw.signed_distance(np.array([1.3 * np.cos(th), 1.3 * np.sin(th)]))
               - 0.3) < 1e-8
    # on-curve point
    p = cw.point(0.37)
    assert abs(cw.signed_distance(p)) < 1e-10
    # definition: x = gamma(s) + t nu
    seg = ParamCurve.line((0, 0), (1, 0), n=8)
    x = seg.point(0.4) + 0.01 * seg.normal(0.4)
    assert abs(seg.signed_distance(x) - 0.01) < 1e-8
    with pytest.raises(ProjectionError):
        cw.signed_distance(np.array([3.0, 0.0]))


def test_normal_extension_matches_distance_gradient():
    a = ParamCurve.arc((0.2, -0.1), 0.8, 0.3, 1.9, n=1200)
    x = a.point(0.5) + 0.05 * a.normal(0.5)
    h = 1e-5
    g = np.array([
        (a.project(x + [h, 0])[1][0] - a.project(x - [h, 0])[1][0]) / (2 * h),
        (a.project(x + [0, h])[1][0] - a.project(x - [0, h])[1][0]) / (2 * h)])
    assert np.linalg.norm(g - a.normal_extension(x[None, :])[0]) < 1e-6


def test_tangential_calculus():
    a = ParamCurve.arc((0, 0), 1.0, 0.1, 1.2, n=1200)
    s = np.linspace(0.1, 0.9, 9)
    # constant scalar field: zero tangential gradient
    g = tangential_gradient(a, s, lambda P: np.zeros((P.shape[0], 2)))
    assert np.max(np.abs(g)) < 1e-14
    # identity vector field: div_G x = 1
    div = tangential_divergence(a, s, lambda P: P,
                                jac=lambda P: np.tile(np.eye(2), (len(P), 1, 1)))
    assert np.max(np.abs(div - 1.0)) < 1e-12
    # g = nu on a straight segment: div_G nu = 0
    seg = ParamCurve.line((0, 0), (2, 1), n=8)
    div = tangential_divergence(seg, s, lambda P: seg.normal(seg.project(P)[0]))
    assert np.max(np.abs(div)) < 1e-8


def test_divergence_formula():
    a = ParamCurve.arc((0, 0), 1.0, 0.0, np.pi / 2, n=1200)
    jac_id = lambda P: np.tile(np.eye(2), (len(P), 1, 1))
    lhs, rhs = divergence_formula_check(a, lambda P: P, jac_id, panels=512)
    assert abs(lhs - rhs) < 1e-8
    # g = tau: both sides reduce to the endpoint telescoping
    gt = lambda P: a.tangent(a.project(P)[0])
    lhs, rhs = divergence_formula_check(a, gt, panels=512)
    assert abs(lhs - rhs) < 1e-6
    # g = nu on a straight segment: both sides vanish
    seg = ParamCurve.line((0, 0), (1, 0), n=8)
    gn = lambda P: seg.normal(seg.project(P)[0])
    lhs, rhs = divergence_formula_check(seg, gn)
    assert abs(lhs) < 1e-8 and abs(rhs) < 1e-8


def test_divergence_formula_randomized(rng):
    for _ in range(6):
        c = rng.uniform(-0.3, 0.3, 2)
        r = rng.uniform(0.5, 1.5)
        t0, t1 = np.sort(rng.uniform(0, 2 * np.pi, 2))
        if t1 - t0 < 0.5:
            t1 = t0 + 0.5
        arc = ParamCurve.arc(c, r, t0, t1, n=1000)
        A = rng.uniform(-1, 1, (2, 2))
        b = rng.uniform(-1, 1, 2)
        fld = lambda P: P @ A.T + b
        jac = lambda P: np.tile(A, (len(P), 1, 1))
        lhs, rhs = divergence_formula_check(arc, fld, jac, panels=512)
        assert abs(lhs - rhs) < 1e-6


def test_curvature_equals_tangential_divergence_of_normal(rng):
    """H = div_G nu with nu extended by closest-point projection."""
    x = np.linspace(-0.5, 0.5, 1200)
    curve = ParamCurve(np.stack([x, 0.3 * np.sin(2 * x) + 0.1 * x ** 2], axis=1))
    s = rng.uniform(0.05, 0.95, 100)
    div = tangential_divergence(curve, s,
                                lambda P: curve.normal_extension(P))
    assert np.max(np.abs(div - curve.curvature(s))) < 1e-6


def test_normal_derivative_of_curvature():
    """d H / d nu = -H^2 for the signed-distance extension (circle)."""
    c = ParamCurve.circle(radius=1.0, n=2500, clockwise=True)
    s = np.array([0.2, 0.55, 0.83])
    h = 2e-4

    def H_ext(Q):
        d = np.empty((Q.shape[0], 5))
        for k, (ox, oy) in enumerate(((0, 0), (h, 0), (-h, 0), (0, h), (0, -h))):
            d[:, k] = c.project(Q + np.array([ox, oy]))[1]
        return (d[:, 1] + d[:, 2] + d[:, 3] + d[:, 4] - 4 * d[:, 0]) / h ** 2

    P = c.point(s)
    nu = c.normal(s)
    dH = (H_ext(P + h * nu) - H_ext(P - h * nu)) / (2 * h)
    assert np.max(np.abs(dH + c.curvature(s) ** 2)) < 1e-3


def test_reach_and_simplicity():
    c = ParamCurve.circle(radius=1.0, n=1500)
    assert 0.9 < c.reach <= 1.0
    assert c.is_simple()


# ----------------------------------------------------------------------
# closest-point projection: round trip and agreement with the dense scan
# ----------------------------------------------------------------------

def dense_project(curve, x):
    """Reference projection: dense (points x scan) argmin seed, then Newton
    on every point until the largest update is below 1e-14 (at most 30)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    scan = curve.knots if len(curve.knots) >= 128 else np.linspace(0.0, 1.0, 256)
    pts = curve.point(scan)
    s = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], 512):
        hi = min(lo + 512, x.shape[0])
        d2 = np.sum((x[lo:hi, None, :] - pts[None, :, :]) ** 2, axis=-1)
        s[lo:hi] = scan[np.argmin(d2, axis=1)]
    for _ in range(30):
        g = curve.point(s)
        v = curve.velocity(s)
        a = curve.accel(s)
        r = x - g
        f = np.sum(r * v, axis=-1)
        fp = np.sum(r * a, axis=-1) - np.sum(v * v, axis=-1)
        step = np.where(np.abs(fp) > 1e-30, f / fp, 0.0)
        s_new = s - step
        if curve.closed:
            s_new = np.mod(s_new, 1.0)
        else:
            s_new = np.clip(s_new, 0.0, 1.0)
        if np.max(np.abs(s_new - s)) < 1e-14:
            s = s_new
            break
        s = s_new
    foot = curve.point(s)
    nu = curve.normal(s)
    d = np.sum((x - foot) * nu, axis=-1)
    off = np.linalg.norm(x - foot - d[:, None] * nu, axis=-1)
    interior = curve.closed | ((s > 1e-12) & (s < 1.0 - 1e-12)) | (off < 1e-9 * (1.0 + np.abs(d)))
    return s, d, interior


def _wavy_arm():
    x = np.linspace(-0.5, 0.5, 400)
    return ParamCurve(np.stack([x, 0.3 * np.sin(2 * x) + 0.1 * x ** 2], axis=1))


def _closed_loop():
    th = np.linspace(0.0, 2.0 * np.pi, 600, endpoint=False)
    return ParamCurve(np.stack([1.2 * np.cos(th), 0.8 * np.sin(th) + 0.1 * np.cos(3 * th)],
                               axis=1), closed=True, flag=-1)


# open arm (knot scan), open arc with the other flag, closed loop, and a
# short segment whose knots are too few to scan (256-point grid)
PROJECTION_CURVES = [_wavy_arm(), ParamCurve.arc((0.1, 0.0), 1.0, 0.2, 2.5, n=300).with_flag(-1),
                     _closed_loop(), ParamCurve.line((0.0, 0.0), (1.0, 0.5), n=8)]


def assert_bit_identical(curve, x):
    for got, ref in zip(curve.project(x), dense_project(curve, x)):
        assert np.array_equal(got, ref, equal_nan=True)


@given(k=st.integers(0, len(PROJECTION_CURVES) - 1), s=st.floats(0.05, 0.95),
       frac=st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True))
def test_projection_round_trip(k, s, frac):
    c = PROJECTION_CURVES[k]
    d = frac * min(c.reach, c.length)  # a segment's reach is infinite
    x = c.point(s) + d * c.normal(s)
    s_p, d_p, interior = c.project(x[None, :])
    assert abs(s_p[0] - s) < 1e-10
    assert abs(d_p[0] - d) < 1e-10
    assert interior[0]


@given(k=st.integers(0, len(PROJECTION_CURVES) - 1),
       x=arrays(float, st.tuples(st.integers(1, 40), st.just(2)),
                elements=st.floats(-3.0, 3.0)))
def test_projection_matches_dense_scan(k, x):
    assert_bit_identical(PROJECTION_CURVES[k], x)


@pytest.mark.parametrize("k", range(len(PROJECTION_CURVES)))
def test_projection_matches_dense_scan_batch(k):
    rng = np.random.default_rng(k)
    c = PROJECTION_CURVES[k]
    pts = c.point(np.linspace(0.0, 1.0, 400))
    lo, hi = pts.min(axis=0) - 0.5, pts.max(axis=0) + 0.5
    assert_bit_identical(c, lo + (hi - lo) * rng.random((5000, 2)))
    # on-curve points, scan points themselves, and the points of a shrunk copy
    assert_bit_identical(c, c.point(rng.random(500)))
    assert_bit_identical(c, c.point(c.knots))
    assert_bit_identical(c, 0.5 * pts + 0.5 * pts.mean(axis=0))
    # non-finite points among finite ones
    with np.errstate(invalid="ignore"):
        assert_bit_identical(c, np.array([[np.nan, 0.0], [0.1, 0.2], [np.inf, 1.0]]))


@pytest.mark.parametrize("k", [0, 1, 3])
def test_projection_clamped_feet(k):
    """Points past both endpoints project onto the endpoints (not interior)."""
    c = PROJECTION_CURVES[k]
    r = np.linspace(0.01, 1.0, 50)[:, None]
    side = 0.3 * np.sin(np.linspace(0.0, 6.0, 50))[:, None]
    out0 = c.point(0.0) - r * c.tangent(0.0) + side * c.normal(0.0)
    out1 = c.point(1.0) + r * c.tangent(1.0) + side * c.normal(1.0)
    x = np.vstack([out0, out1])
    assert_bit_identical(c, x)
    s, _, interior = c.project(x)
    assert np.all(s[:50] == 0.0) and np.all(s[50:] == 1.0)
    assert not np.any(interior)


def test_projection_matches_dense_scan_on_ties():
    """Points equidistant from many scan points: the lowest scan index wins."""
    c = ParamCurve.circle(radius=1.0, n=600)
    assert_bit_identical(c, np.zeros((3, 2)))
    # on the bisectors of neighbouring scan points
    pts = c.point(c.knots)
    mid = 0.5 * (pts[:-1] + pts[1:])
    assert_bit_identical(c, np.vstack([mid, 0.5 * mid, 1.5 * mid]))


# ----------------------------------------------------------------------
# one 2-column spline against the pair of scalar splines it replaced
# ----------------------------------------------------------------------

class TwoSplineCurve(ParamCurve):
    """ParamCurve built and evaluated through one scalar spline per
    coordinate: the construction the vector spline must reproduce bit for bit."""

    def _build(self, pts, end_tangents):
        from scipy.interpolate import CubicSpline
        from scipy.spatial import cKDTree

        def fit(t, px, py, scale):
            if self.closed:
                return (CubicSpline(t, px, bc_type="periodic"),
                        CubicSpline(t, py, bc_type="periodic"))
            if end_tangents is None:
                return (CubicSpline(t, px, bc_type="natural"),
                        CubicSpline(t, py, bc_type="natural"))
            d0 = np.asarray(end_tangents[0], float)
            d1 = np.asarray(end_tangents[1], float)
            d0 = d0 / np.linalg.norm(d0) * scale
            d1 = d1 / np.linalg.norm(d1) * scale
            return (CubicSpline(t, px, bc_type=((1, d0[0]), (1, d1[0]))),
                    CubicSpline(t, py, bc_type=((1, d0[1]), (1, d1[1]))))

        if self.closed and np.linalg.norm(pts[0] - pts[-1]) > 1e-12:
            pts = np.vstack([pts, pts[0]])
        n = pts.shape[0]
        t = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
        chord = t[-1]
        t /= t[-1]
        sx, sy = fit(t, pts[:, 0], pts[:, 1], chord)
        for _ in range(2):
            tf = np.linspace(0.0, 1.0, max(8 * n, 1024))
            sp = np.hypot(sx(tf, 1), sy(tf, 1))
            arc = np.concatenate([[0.0], np.cumsum(0.5 * (sp[1:] + sp[:-1]) * np.diff(tf))])
            total = arc[-1]
            arc /= total
            t_new = np.interp(np.linspace(0.0, 1.0, n), arc, tf)
            px, py = sx(t_new), sy(t_new)
            t = np.linspace(0.0, 1.0, n)
            if self.closed:
                px[-1], py[-1] = px[0], py[0]
            sx, sy = fit(t, px, py, total)
        self._sx, self._sy = sx, sy
        self.knots = t
        tf = np.linspace(0.0, 1.0, 4096)
        self.length = float(np.trapezoid(np.hypot(sx(tf, 1), sy(tf, 1)), tf))
        self._scan = t if len(t) >= 128 else np.linspace(0.0, 1.0, 256)
        self._scan_tree = cKDTree(self.point(self._scan))

    def point(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack([self._sx(s), self._sy(s)], axis=-1)

    def velocity(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack([self._sx(s, 1), self._sy(s, 1)], axis=-1)

    def accel(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack([self._sx(s, 2), self._sy(s, 2)], axis=-1)


def _curve_pairs():
    wavy = np.stack([np.linspace(-0.5, 0.5, 300),
                     0.3 * np.sin(np.linspace(-1.0, 1.0, 300))], axis=1)
    return [(cls.line((0.0, 0.0), (1.0, 0.5), n=24),
             cls.arc((0.1, 0.0), 1.0, 0.2, 2.5, n=300),
             cls.circle(radius=1.3, n=900, clockwise=True),
             cls.from_samples(wavy, flag=-1))
            for cls in (ParamCurve, TwoSplineCurve)]


def test_vector_spline_matches_scalar_splines():
    """Natural, clamped and periodic fits: the 2-column spline gives the same
    bits as one scalar spline per coordinate."""
    s = np.concatenate([np.linspace(-0.05, 1.05, 1001), [0.0, 1.0, 0.5]])
    for new, old in zip(*_curve_pairs()):
        for name in ("point", "velocity", "accel"):
            assert np.array_equal(getattr(new, name)(s), getattr(old, name)(s)), name
            assert np.array_equal(getattr(new, name)(0.3), getattr(old, name)(0.3)), name
        assert np.array_equal(new.knots, old.knots)
        assert new.length == old.length
        assert new.reach == old.reach


@pytest.mark.parametrize("k", range(len(PROJECTION_CURVES)))
def test_projection_of_no_points(k):
    c = PROJECTION_CURVES[k]
    x = np.empty((0, 2))
    s, d, interior = c.project(x, require_interior=True)
    assert s.shape == d.shape == interior.shape == (0,)
    assert interior.dtype == bool
    assert c.distance_to_set(x).shape == (0,)
    assert c.normal_extension(x).shape == (0, 2)


@pytest.mark.parametrize("k", range(len(PROJECTION_CURVES)))
def test_near_box_keeps_every_point_within_r(k):
    """near_box may only reject points farther than r from the arc."""
    c = PROJECTION_CURVES[k]
    rng = np.random.default_rng(k)
    pts = c.point(np.linspace(0.0, 1.0, 400))
    lo, hi = pts.min(axis=0) - 1.0, pts.max(axis=0) + 1.0
    x = lo + (hi - lo) * rng.random((4000, 2))
    r = 0.2
    far = ~c.near_box(x, r)
    assert np.any(far) and np.any(~far)
    assert np.all(c.distance_to_set(x[far]) > r)
    s = rng.random(300)
    assert np.all(c.near_box(c.point(s), 0.0))
    assert np.all(c.near_box(c.point(s) + r * rng.uniform(-1, 1, (300, 1)) * c.normal(s), r))
