"""Oriented planar arcs with arc-length cubic-spline parametrization.

A ParamCurve is the single geometric primitive of the package: an oriented
C^2 arc gamma : [0,1] -> R^2 stored as one 2-column cubic spline in a
parameter proportional to arc length.  The unit normal is the +90 degree
(counterclockwise) rotation of the unit tangent times an orientation flag,
and the curvature H is div(nu) for the signed-distance extension of nu, so
that a circle with outward normal has H = +1/R.
"""

from functools import cached_property

import numpy as np
from scipy.interpolate import BPoly, CubicSpline
from scipy.spatial import cKDTree

from .errors import GeometryError, ProjectionError

_GAUSS_CACHE = {}


def gauss_legendre(n):
    """Nodes/weights on [0,1], cached."""
    if n not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GAUSS_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GAUSS_CACHE[n]


def _speed(spl, s):
    """|gamma'(s)| of a 2-column spline."""
    v = spl(s, 1)
    return np.hypot(v[..., 0], v[..., 1])


def rot90(v):
    """Counterclockwise quarter turn of vectors with last axis = 2."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


class ParamCurve:
    """Planar arc gamma: [0,1] -> R^2 as an arc-length-rescaled cubic spline.

    Parameters
    ----------
    points : (k, 2) array
        Interpolation points, ordered along the curve.
    closed : bool
        Closed curve (periodic spline) instead of an open arc.
    flag : +1 or -1
        Orientation flag: nu = flag * rot90(tau).
    end_tangents : ((2,), (2,)) or None
        Exact end derivatives d gamma/dt (clamped spline); open curves only.
    """

    def __init__(self, points, closed=False, flag=1, end_tangents=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] < 4:
            raise GeometryError("need at least 4 points for a cubic spline")
        if flag not in (1, -1):
            raise GeometryError("orientation flag must be +1 or -1")
        self.closed = bool(closed)
        self.flag = int(flag)
        self.control_points = pts.copy()
        self.end_tangents = (None if end_tangents is None else
                             (np.asarray(end_tangents[0], float).copy(),
                              np.asarray(end_tangents[1], float).copy()))
        self._build(pts, end_tangents)
        self._reach = None

    def with_flag(self, flag):
        """Same geometry with the other normal orientation."""
        return ParamCurve(self.control_points, closed=self.closed, flag=flag,
                          end_tangents=self.end_tangents)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, pts, end_tangents):
        if self.closed and np.linalg.norm(pts[0] - pts[-1]) > 1e-12:
            pts = np.vstack([pts, pts[0]])
        n = pts.shape[0]
        # chord-length parameter first, then two passes to (near) arc length
        t = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
        if t[-1] <= 0:
            raise GeometryError("coincident interpolation points")
        chord = t[-1]
        t /= t[-1]
        if np.any(np.diff(t) <= 0):
            raise GeometryError("repeated interpolation points")
        spl = self._fit(t, pts, end_tangents, chord)
        for _ in range(2):
            spl, t = self._arclength_pass(spl, n, end_tangents)
        self._spl = spl
        self.knots = t
        self.length = self._measure_length(spl)
        if np.min(_speed(spl, t)) < 1e-10 * self.length:
            raise GeometryError("degenerate parametrization: |gamma'| ~ 0")
        # scan points that seed the closest-point Newton iteration
        self._scan = t if len(t) >= 128 else np.linspace(0.0, 1.0, 256)
        self._scan_tree = cKDTree(self.point(self._scan))

    def _fit(self, t, pts, end_tangents, scale):
        """One cubic spline through the (k, 2) points, both coordinates at once."""
        if self.closed:
            return CubicSpline(t, pts, bc_type="periodic")
        if end_tangents is None:
            return CubicSpline(t, pts, bc_type="natural")
        d0 = np.asarray(end_tangents[0], float)
        d1 = np.asarray(end_tangents[1], float)
        d0 = d0 / np.linalg.norm(d0) * scale
        d1 = d1 / np.linalg.norm(d1) * scale
        return CubicSpline(t, pts, bc_type=((1, d0), (1, d1)))

    def _arclength_pass(self, spl, n, end_tangents):
        tf = np.linspace(0.0, 1.0, max(8 * n, 1024))
        sp = _speed(spl, tf)
        arc = np.concatenate([[0.0], np.cumsum(0.5 * (sp[1:] + sp[:-1]) * np.diff(tf))])
        total = arc[-1]
        arc /= total
        # parameters equi-distributed in arc length
        t_new = np.interp(np.linspace(0.0, 1.0, n), arc, tf)
        pts = spl(t_new)
        u = np.linspace(0.0, 1.0, n)
        if self.closed:
            pts[-1] = pts[0]
        return self._fit(u, pts, end_tangents, total), u

    @staticmethod
    def _measure_length(spl):
        tf = np.linspace(0.0, 1.0, 4096)
        return float(np.trapezoid(_speed(spl, tf), tf))

    # ------------------------------------------------------------------
    # constructors for standard shapes
    # ------------------------------------------------------------------
    @classmethod
    def line(cls, a, b, n=16):
        a, b = np.asarray(a, float), np.asarray(b, float)
        pts = a[None, :] + np.linspace(0.0, 1.0, max(n, 4))[:, None] * (b - a)[None, :]
        return cls(pts, end_tangents=(b - a, b - a))

    @classmethod
    def circle(cls, radius=1.0, n=2000, clockwise=False):
        """Circle about the origin."""
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        if clockwise:
            th = -th
        pts = radius * np.stack([np.cos(th), np.sin(th)], axis=1)
        return cls(pts, closed=True)

    @classmethod
    def arc(cls, center, radius, th0, th1, n=1200):
        th = np.linspace(th0, th1, max(n, 8))
        c = np.asarray(center, float)
        pts = c + radius * np.stack([np.cos(th), np.sin(th)], axis=1)
        t0 = radius * np.array([-np.sin(th0), np.cos(th0)]) * np.sign(th1 - th0)
        t1 = radius * np.array([-np.sin(th1), np.cos(th1)]) * np.sign(th1 - th0)
        return cls(pts, end_tangents=(t0, t1))

    @classmethod
    def from_samples(cls, samples, closed=False, flag=1):
        """Refit a curve through dense samples (e.g. the image of a flow)."""
        return cls(samples, closed=closed, flag=flag)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def point(self, s):
        return self._spl(np.asarray(s, dtype=float))

    def velocity(self, s):
        return self._spl(np.asarray(s, dtype=float), 1)

    def accel(self, s):
        return self._spl(np.asarray(s, dtype=float), 2)

    def tangent(self, s):
        v = self.velocity(s)
        sp = np.linalg.norm(v, axis=-1, keepdims=True)
        if np.any(sp < 1e-14):
            raise GeometryError("degenerate parametrization at requested parameter")
        return v / sp

    def normal(self, s):
        return self.flag * rot90(self.tangent(s))

    def curvature(self, s):
        """H = div(nu) for the signed-distance extension of nu."""
        v, a = self.velocity(s), self.accel(s)
        sp2 = np.sum(v * v, axis=-1)
        num = v[..., 0] * a[..., 1] - v[..., 1] * a[..., 0]
        return -self.flag * num / sp2 ** 1.5

    def outward_tangent(self, end):
        """Unit tangent pointing out of the arc at s=0 or s=1."""
        if self.closed:
            raise GeometryError("closed curves have no endpoints")
        if end == 0:
            return -self.tangent(0.0)
        return self.tangent(1.0)

    # ------------------------------------------------------------------
    # projection / signed distance
    # ------------------------------------------------------------------
    @property
    def reach(self):
        """Tubular-neighborhood radius: min(1/max|H|, half min self-distance)."""
        if self._reach is None:
            ss = np.linspace(0.0, 1.0, 600)
            hmax = np.max(np.abs(self.curvature(ss))) + 1e-30
            pts = self.point(ss)
            chord = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
            gap = np.abs(ss[:, None] - ss[None, :])
            if self.closed:
                gap = np.minimum(gap, 1.0 - gap)
            # a near self-intersection shows as a chord much shorter than the
            # along-curve separation; adjacent samples never qualify
            close = chord < 0.5 * gap * self.length
            self_d = np.min(chord[close]) if np.any(close) else np.inf
            self._reach = float(min(1.0 / hmax, 0.5 * self_d))
        return self._reach

    @cached_property
    def _box(self):
        """(lo, hi) corners of a box holding the arc: each cubic piece lies in
        the convex hull of its Bernstein coefficients."""
        c = BPoly.from_power_basis(self._spl).c
        pad = 1e-9 * (1.0 + np.max(np.abs(c)))
        return c.min(axis=(0, 1)) - pad, c.max(axis=(0, 1)) + pad

    def near_box(self, x, r):
        """False where x is provably farther than r from the arc (outside
        its bounding box grown by r); a cheap test that needs no projection."""
        lo, hi = self._box
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all((x >= lo - r) & (x <= hi + r), axis=1)

    def _nearest_scan(self, x):
        """Parameter of the scan point nearest to each x.

        Ties go to the lowest scan index, with squared distances rounded as
        a dense (points x scan) comparison would round them; points with a
        non-finite coordinate get the first scan point.
        """
        tree = self._scan_tree
        idx = np.zeros(x.shape[0], dtype=int)
        ok = np.all(np.isfinite(x), axis=1)
        xo = x[ok]
        dist, near = tree.query(xo, k=2)
        best = near[:, 0]
        # a second scan point within rounding of the nearest: compare the
        # squared distances of the candidates among the 8 nearest exactly
        tie = np.flatnonzero(dist[:, 1] <= dist[:, 0] * (1.0 + 1e-9))
        if tie.size:
            r = dist[tie, 0] * (1.0 + 1e-9)
            dist8, cand = tree.query(xo[tie], k=8)
            d2 = np.sum((xo[tie, None, :] - tree.data[cand]) ** 2, axis=-1)
            d2[dist8 > r[:, None]] = np.inf
            lowest = np.where(d2 == d2.min(axis=1, keepdims=True), cand, cand.max() + 1)
            best[tie] = lowest.min(axis=1)
            # all 8 within the radius: more candidates may lie beyond them
            for j, rj in zip(tie[dist8[:, -1] <= r], r[dist8[:, -1] <= r]):
                ball = np.sort(tree.query_ball_point(xo[j], rj))
                best[j] = ball[np.argmin(np.sum((xo[j] - tree.data[ball]) ** 2, axis=-1))]
        idx[ok] = best
        return self._scan[idx]

    def project(self, x, require_interior=False):
        """Closest-point parameters for points x, Newton-polished.

        Returns (s, d, interior) where d is the signed distance along nu and
        interior marks points whose foot is not clamped to an endpoint.
        Newton runs from the nearest scan point until the largest update is
        below 1e-14 (at most 30 steps). A point whose update is exactly zero
        is a fixed point of the step, so leaving it out of later steps
        changes no result.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[0] == 0:
            return np.empty(0), np.empty(0), np.empty(0, dtype=bool)
        s = self._nearest_scan(x)
        active = np.arange(x.shape[0])
        for _ in range(30):
            xa, sa = x[active], s[active]
            v = self.velocity(sa)
            r = xa - self.point(sa)
            f = np.sum(r * v, axis=-1)
            fp = np.sum(r * self.accel(sa), axis=-1) - np.sum(v * v, axis=-1)
            step = np.where(np.abs(fp) > 1e-30, f / fp, 0.0)
            s_new = sa - step
            if self.closed:
                s_new = np.mod(s_new, 1.0)
            else:
                s_new = np.clip(s_new, 0.0, 1.0)
            update = s_new - sa
            s[active] = s_new
            if np.max(np.abs(update)) < 1e-14:
                break
            active = active[update != 0.0]
        foot = self.point(s)
        nu = self.normal(s)
        d = np.sum((x - foot) * nu, axis=-1)
        off = np.linalg.norm(x - foot - d[:, None] * nu, axis=-1)
        interior = self.closed | ((s > 1e-12) & (s < 1.0 - 1e-12)) | (off < 1e-9 * (1.0 + np.abs(d)))
        if require_interior and not np.all(interior):
            raise ProjectionError("projection clamps to an endpoint")
        return s, d, interior

    def signed_distance(self, x):
        """Signed distance for a single point in the tubular neighborhood."""
        x = np.asarray(x, dtype=float)
        s, d, interior = self.project(x[None, :])
        if abs(d[0]) > self.reach * (1.0 + 1e-9):
            raise ProjectionError("point outside the tubular neighborhood")
        if not interior[0]:
            raise ProjectionError("projection falls on the arc endpoint")
        return float(d[0])

    def distance_to_set(self, x):
        """Unsigned distance from points x to the (closed) arc, endpoints included."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        s, d, _ = self.project(x)
        return np.linalg.norm(x - self.point(s), axis=-1)

    def normal_extension(self, x):
        """nu extended off the curve by closest-point projection (= grad of signed dist)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        s, _, _ = self.project(x)
        return self.normal(s)

    # ------------------------------------------------------------------
    # curve integrals
    # ------------------------------------------------------------------
    def integrate(self, fn, order=12, panels=None):
        """Composite Gauss quadrature of a scalar function of the parameter.

        fn(s) may return scalars or vectors sampled at parameters s; the
        integral is with respect to arc length.
        """
        npan = panels if panels is not None else max(16, len(self.knots) // 4)
        xg, wg = gauss_legendre(order)
        edges = np.linspace(0.0, 1.0, npan + 1)
        s = (edges[:-1, None] + np.diff(edges)[:, None] * xg[None, :]).ravel()
        w = (np.diff(edges)[:, None] * wg[None, :]).ravel()
        sp = np.linalg.norm(self.velocity(s), axis=-1)
        vals = np.asarray(fn(s))
        return np.sum(vals * w * sp, axis=-1)

    def is_simple(self):
        """No two samples farther apart than 0.05 in parameter lie within 1e-9."""
        ss = np.linspace(0.0, 1.0, 400)
        pts = self.point(ss)
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        gap = np.abs(ss[:, None] - ss[None, :])
        if self.closed:
            gap = np.minimum(gap, 1.0 - gap)
        far = gap > 0.05
        return bool(np.all(d2[far] > 1e-9 ** 2))


# ----------------------------------------------------------------------
# tangential calculus for ambient fields restricted to a curve
# ----------------------------------------------------------------------

def tangential_gradient(curve, s, grad_fn):
    """nabla_Gamma f = (grad f . tau) tau for an ambient scalar field."""
    s = np.atleast_1d(np.asarray(s, float))
    tau = curve.tangent(s)
    g = np.atleast_2d(np.asarray(grad_fn(curve.point(s)), float))
    return np.sum(g * tau, axis=-1)[:, None] * tau


def tangential_divergence(curve, s, field, jac=None):
    """div_Gamma g = tau . (Dg[tau]) for an ambient vector field g.

    If jac is None the field is differentiated along the curve (enough for
    fields known only on the curve).
    """
    s = np.atleast_1d(np.asarray(s, float))
    tau = curve.tangent(s)
    if jac is not None:
        J = np.asarray(jac(curve.point(s)), float)
        return np.einsum("ni,nij,nj->n", tau, J, tau)
    sp = np.linalg.norm(curve.velocity(s), axis=-1)
    ds = 1e-6
    sm, sp_ = np.clip(s - ds, 0.0, 1.0), np.clip(s + ds, 0.0, 1.0)
    g1 = np.asarray(field(curve.point(sp_)), float)
    g0 = np.asarray(field(curve.point(sm)), float)
    dg = (g1 - g0) / (sp_ - sm)[:, None] / sp[:, None]
    return np.sum(tau * dg, axis=-1)


def divergence_formula_check(curve, field, jac=None, panels=512):
    """Both sides of int_gamma div_gamma g = int_gamma H (g.nu) + sum_bdry g.eta.

    Returns (lhs, rhs).
    """
    lhs = curve.integrate(lambda s: tangential_divergence(curve, s, field, jac),
                          panels=panels)
    rhs = curve.integrate(
        lambda s: curve.curvature(s) * np.sum(np.asarray(field(curve.point(s)), float)
                                              * curve.normal(s), axis=-1),
        panels=panels)
    if not curve.closed:
        for end in (0, 1):
            x = curve.point(float(end))
            eta = curve.outward_tangent(end)
            rhs += float(np.dot(np.asarray(field(x[None, :]), float)[0], eta))
    return float(lhs), float(rhs)
