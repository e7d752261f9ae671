"""Admissible flows of the configuration: velocity-field flows, synthesis of
admissible test fields with prescribed normal speeds, the near-identity
connecting construction with its tangential/normal estimates, bulk extension
of curve data, and the energy-Taylor machinery.
"""

import logging
from functools import partial

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import AdmissibilityError, GeometryError, TrijunctionError
from .curves import ParamCurve, rot90
from .fields import VectorField, smoothstep, ramp, radial_bump, rk4_flow, CornerBlend
from .config import transported_config, mapped_arms, map_with_arms
from .fem import solve_transported
from .variation import (VelocityPair, CurveVelocity, ms_energy, second_variation,
                        quadratic_form, normal_speed_scalar)

log = logging.getLogger("trijunction.flows")


def chi(r):
    """The fixed cutoff: 1 on (-inf,1/2], 0 on [1,inf), C^2 monotone."""
    return smoothstep(np.asarray(r, float))


# ----------------------------------------------------------------------
# families driven by a single velocity field
# ----------------------------------------------------------------------

class FlowFamily:
    """Phi_t as the autonomous flow of X."""

    def __init__(self, X, config, t_grid=None):
        self.X = X
        self.config = config
        self.times = np.linspace(0.0, 1.0, 33) if t_grid is None else np.asarray(t_grid)
        self.s_grid = np.linspace(0.0, 1.0, 200)
        self._curves_cache = {}

    def map_at(self, t):
        return lambda P: rk4_flow(self.X, P, t)

    def curves_at(self, t):
        key = round(float(t), 12)
        if key not in self._curves_cache:
            self._curves_cache[key] = mapped_arms(self.config, self.map_at(t),
                                                  self.s_grid.size)
        return self._curves_cache[key]

    def velocity_at(self, t):
        """Velocity data (X_t, Z_t) valid on Gamma_t: X_t = X for an
        autonomous flow."""
        return VelocityPair.autonomous(self.X)

    def check_inside(self, t):
        """Sampled trajectories must stay inside the closed domain."""
        mp = self.map_at(t)
        for arm in self.config.arms:
            img = mp(arm.point(self.s_grid))
            _, d, _ = self.config.outer.project(img)
            if np.any(d > 1e-8 * self.config.outer.length):
                raise AdmissibilityError("flow trajectory leaves the domain")


def flow_from_field(X, config, t_grid=None):
    """AdmissibleFamily from a velocity field (spec: flow_from_field)."""
    fam = FlowFamily(X, config, t_grid)
    fam.check_inside(fam.times[-1])
    return fam


def _c2_distance(arms, disps, ss):
    """max over arms of sup|d| + sup|d'| + sup|d''| for displacement samples
    disps[i] at parameters ss of arms[i], derivatives in arc length."""
    total = 0.0
    for arm, disp in zip(arms, disps):
        L = arm.length
        d0 = np.max(np.linalg.norm(disp, axis=1))
        dd = np.gradient(disp, ss * L, axis=0)
        d1 = np.max(np.linalg.norm(dd, axis=1))
        d2v = np.gradient(dd, ss * L, axis=0)
        d2 = np.max(np.linalg.norm(d2v, axis=1))
        total = max(total, d0 + d1 + d2)
    return float(total)


def c2_distance_on_crack(config, map_fn):
    """sup over Gamma samples of |Phi - Id| and its first two tangential
    derivatives (the C^2(Gamma) distance used throughout)."""
    ss = np.linspace(0.0, 1.0, 240)
    pts = [arm.point(ss) for arm in config.arms]
    return _c2_distance(config.arms, [np.atleast_2d(map_fn(p)) - p for p in pts], ss)


# ----------------------------------------------------------------------
# admissible test fields with prescribed normal speeds (necessity probe)
# ----------------------------------------------------------------------

def _junction_jet(config, phi):
    """Common value Y0, tangential corrections b_i(0), b_i'(0) and the
    consistent junction Jacobian M."""
    x0 = config.junction
    taus = np.array([arm.tangent(0.0) for arm in config.arms])
    nus = np.array([arm.normal(0.0) for arm in config.arms])
    phi0 = np.array([phi.eval(i, np.array([0.0]))[0] for i in range(3)])
    Y0, res, _, _ = np.linalg.lstsq(nus, phi0, rcond=None)
    if np.linalg.norm(nus @ Y0 - phi0) > 1e-8 * (1.0 + np.abs(phi0).max()):
        raise AdmissibilityError(
            "junction system inconsistent (non-critical junction?): "
            "residual %.2e" % np.linalg.norm(nus @ Y0 - phi0))
    b0 = taus @ Y0
    dphi0 = np.array([phi.deriv_param(i, np.array([0.0]))[0] / config.arms[i].length
                      for i in range(3)])
    W = -np.einsum("i,id->d", dphi0, nus)
    bp = np.linalg.pinv(taus.T) @ W
    # consistent Jacobian: M tau_i = nu_i phi_i'(0) + tau_i b_i'(0)
    rows = []
    rhs = []
    for i in range(3):
        w = nus[i] * dphi0[i] + taus[i] * bp[i]
        rows.append(np.array([[taus[i, 0], taus[i, 1], 0.0, 0.0],
                              [0.0, 0.0, taus[i, 0], taus[i, 1]]]))
        rhs.append(w)
    Mv, _, _, _ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
    M = Mv.reshape(2, 2)
    return Y0, b0, bp, M


class _TubeCornerBlend:
    """The appendix layout shared by TestField and BulkExtension.

    Inside B_delta0(x0) the field is the construction's junction patch; away
    from it, arm i carries its data f_i extended constant along the normal
    fibers of a tube of half-width w_tube, blended within delta_c of its
    contact into a CornerBlend of f_i with the boundary data g_i, exact on
    both curves.  delta_mu caps delta0 and delta_c, tube_mu caps w_tube;
    each construction fixes its own pair.  Subclasses define
    _junction(P, r0, s_arm, d_arm) on the points with r0 < delta0.
    """

    def __init__(self, config, arm_fns, bdry_fns, delta_mu, tube_mu):
        arms = config.arms
        self.config = config
        self.x0 = config.junction
        Lmin = min(arm.length for arm in arms)
        s_pts = config.transition_points()
        dist_S = [np.min(np.linalg.norm(s_pts - arm.point(1.0), axis=1)) for arm in arms]
        self.delta0 = min(0.45 * Lmin, delta_mu)
        self.delta_c = np.array([min(0.75 * d, delta_mu, 0.45 * arm.length)
                                 for d, arm in zip(dist_S, arms)])
        self.w_tube = min(0.5 * self.delta0, tube_mu,
                          0.9 * min(arm.reach for arm in arms),
                          0.5 * float(np.min(self.delta_c)))
        self.arm_fns = arm_fns
        # the corner blends call the data once, so it may read the radii above
        self._corners = [
            CornerBlend(arm, config.outer, arm.point(1.0), arm_fns[i], bdry_fns[i],
                        corner_param_a=1.0, corner_param_b=config.contact_params[i],
                        clamp=min(0.45, 2.5 * self.delta_c[i]
                                  / min(arm.length, config.outer.length)))
            for i, arm in enumerate(arms)]

    def __call__(self, P):
        P = np.atleast_2d(np.asarray(P, float))
        out = np.zeros_like(P)
        arms = self.config.arms
        r0 = np.linalg.norm(P - self.x0, axis=1)
        eta0 = ramp(r0, 0.55 * self.delta0, self.delta0)
        jzone = eta0 > 0.0
        # projections onto arm i are read in the junction zone and where
        # d_arm < w_tube; elsewhere d_arm = inf gives the same zero weight
        s_arm = np.full((P.shape[0], 3), np.nan)
        d_arm = np.full((P.shape[0], 3), np.inf)
        for i, arm in enumerate(arms):
            near = jzone | arm.near_box(P, self.w_tube)
            s_arm[near, i] = arm.project(P[near])[0]
            d_arm[near, i] = np.linalg.norm(P[near] - arm.point(s_arm[near, i]), axis=-1)
        if np.any(jzone):
            out[jzone] += eta0[jzone, None] * self._junction(
                P[jzone], r0[jzone], s_arm[jzone], d_arm[jzone])
        w1 = 1.0 - eta0
        for i, arm in enumerate(arms):
            ri = np.linalg.norm(P - arm.point(1.0), axis=1)
            eta_c = ramp(ri, 0.6 * self.delta_c[i], self.delta_c[i])
            theta = ramp(d_arm[:, i], 0.15 * self.w_tube, self.w_tube) * (1.0 - eta_c)
            act = (w1 > 0) & ((theta > 0) | (eta_c > 0))
            if not np.any(act):
                continue
            idx = np.where(act)[0]
            vals = np.zeros((idx.size, 2))
            tz = theta[idx] > 0
            if np.any(tz):
                vals[tz] += (theta[idx[tz], None]
                             * np.asarray(self.arm_fns[i](s_arm[idx[tz], i]), float))
            cz = eta_c[idx] > 0
            if np.any(cz):
                vals[cz] += eta_c[idx[cz], None] * self._corners[i](P[idx[cz]])
            out[act] += w1[act, None] * vals
        return out


class TestField(_TubeCornerBlend):
    """Admissible C^1 field with X . nu_i = phi_i on each arm.

    Built per the appendix construction: tangential corrections near the
    junction so a single-valued C^1 jet exists at x0, normal-fiber tube
    extensions along the arms, boundary-tangential gluing at the contacts
    via corner blends exact on both curves, and compact support inside U.
    """

    def __init__(self, config, phi):
        self.phi = phi
        self.Y0, self.b0, self.bp, self.M = _junction_jet(config, phi)
        cap = 0.9 * config.mu
        super().__init__(config, [partial(self._arm_field, i) for i in range(3)],
                         [partial(self._bdry_field, i) for i in range(3)], cap, 0.9 * cap)

    def _arm_field(self, i, s):
        """Y_i(s) = phi_i nu_i + b_i tau_i, the tangential part b_i cut off
        near the junction."""
        arm = self.config.arms[i]
        L = arm.length
        s = np.atleast_1d(np.asarray(s, float))
        ph = self.phi.eval(i, s)
        bb = (self.b0[i] + self.bp[i] * s * L) * chi((s * L) ** 2
                                                     / (0.8 * self.delta0) ** 2)
        tau = arm.tangent(s)
        return ph[:, None] * (arm.flag * rot90(tau)) + bb[:, None] * tau

    def _bdry_field(self, i, t):
        """Boundary-tangent field near contact i, equal to Y_i(1) there."""
        outer = self.config.outer
        w_a = 0.5 * self.delta_c[i] / outer.length
        t = np.atleast_1d(np.asarray(t, float))
        dt = (t - self.config.contact_params[i] + 0.5) % 1.0 - 0.5
        amp = self.phi.nodal[i][-1] * chi(dt ** 2 / w_a ** 2)
        return amp[:, None] * outer.tangent(t)

    def _junction(self, P, r0, s_arm, d_arm):
        """Affine jet plus ridge corrections, exact on each arm."""
        r = np.maximum(r0, 1e-150)
        val = self.Y0[None, :] + (P - self.x0) @ self.M.T
        for i, arm in enumerate(self.config.arms):
            rho = chi(2.0 * d_arm[:, i] ** 2 / r ** 2)
            act = rho > 0.0
            if np.any(act):
                s_loc = s_arm[act, i]
                foot = arm.point(s_loc)
                corr = (self._arm_field(i, s_loc) - self.Y0[None, :]
                        - (foot - self.x0) @ self.M.T)
                val[act] += rho[act, None] * corr
        return val


def build_test_field(config, phi):
    """VelocityPair whose X has normal speed phi_i along arm i (autonomous Z).

    The trace X . nu_i = phi_i is checked on every arm before returning.
    """
    X = VectorField(TestField(config, phi), label="test-field")
    V = VelocityPair.autonomous(X, label="test-field")
    V.phi = phi
    ss = np.linspace(0.0, 1.0, 160)
    worst = 0.0
    for i, arm in enumerate(config.arms):
        xn = np.sum(X(arm.point(ss)) * arm.normal(ss), axis=1)
        worst = max(worst, float(np.max(np.abs(xn - phi.eval(i, ss)))))
    if worst > 1e-8 * (1.0 + max(np.abs(v).max() for v in phi.nodal)):
        raise AdmissibilityError("test field trace error %.2e" % worst)
    V.validate(config)
    return V


# ----------------------------------------------------------------------
# bulk extension of curve data (corner-compatible tube blending)
# ----------------------------------------------------------------------

class BulkExtension(_TubeCornerBlend):
    """Displacement field on the closed domain matching data on the arms and
    on the outer boundary, built from tube extensions with corner blends
    that are exact on the curves (boolean sums in translated-fiber
    coordinates).  C^1 within each sector; kinks across the arms allowed.
    """

    def __init__(self, config, arm_disp_fns, bdry_disp_fn=None):
        bdry = bdry_disp_fn if bdry_disp_fn is not None else \
            (lambda t: np.zeros((np.atleast_1d(t).size, 2)))
        mu = config.mu
        super().__init__(config, arm_disp_fns, [bdry] * 3, 0.85 * mu, 0.8 * mu)
        arms = config.arms
        Lmin = min(arm.length for arm in arms)
        # junction pair blends, one per ccw sector (between arm o and arm o+1)
        th = np.array([np.arctan2(*arm.tangent(0.0)[::-1]) for arm in arms])
        order = list(np.argsort(th))
        self.th_sorted = th[order]
        self._jblend = []
        for k in range(3):
            i = order[k]
            j = order[(k + 1) % 3]
            self._jblend.append(CornerBlend(
                arms[i], arms[j], self.x0, arm_disp_fns[i], arm_disp_fns[j],
                corner_param_a=0.0, corner_param_b=0.0,
                clamp=min(0.45, 2.5 * self.delta0 / Lmin)))

    def _junction(self, P, r0, s_arm, d_arm):
        """Pair blend of the two arms bounding each point's ccw sector."""
        ang = np.arctan2(P[:, 1] - self.x0[1], P[:, 0] - self.x0[0])
        sec = np.mod(np.searchsorted(self.th_sorted, ang, side="right") - 1, 3)
        val = np.zeros((P.shape[0], 2))
        for k, blend in enumerate(self._jblend):
            m = sec == k
            if np.any(m):
                val[m] = blend(P[m])
        return val


# ----------------------------------------------------------------------
# the connecting construction (near-identity target, junction graph branch)
# ----------------------------------------------------------------------

def _select_mu_junction(config):
    arms = config.arms
    x0 = config.junction
    cand = [0.25 * abs(config.outer.project(x0[None, :])[1][0])]
    cand.append(min(arm.reach for arm in arms))
    cand.append(0.95 * config.mu)
    for arm in arms:
        ss = np.linspace(0.0, 1.0, 400)
        nu0 = arm.normal(0.0)
        tau0 = arm.tangent(0.0)
        align = (np.sum(arm.normal(ss) * nu0, axis=1) >= 2.0 / 3.0) & \
                (np.abs(np.sum(arm.tangent(ss) * tau0, axis=1)) >= 0.75)
        bad = np.where(~align)[0]
        smax = 1.0 if bad.size == 0 else ss[bad[0]]
        cand.append(0.95 * smax * arm.length)
    # tube disjointness outside B_{3 mu}: shrink until satisfied
    mu = 0.9 * min(cand)
    for _ in range(30):
        ok = True
        for i in range(3):
            for j in range(i + 1, 3):
                si = np.linspace(0.0, 1.0, 200)
                pi = config.arms[i].point(si)
                far = np.linalg.norm(pi - x0, axis=1) > 3.0 * mu
                if np.any(far):
                    dj = config.arms[j].distance_to_set(pi[far])
                    if np.min(dj) < 2.0 * mu:
                        ok = False
        if ok:
            break
        mu *= 0.85
    return mu


class ConnectingFamily:
    """Admissible family with Phi_1(Gamma) on the target curves.

    Near the junction the maps are affine in time, x + t N(x), with N from
    the cone-test branches (graph reparametrization G_L along an aligned
    arm, direction-blended ray graphs otherwise); far from the junction the
    maps follow constant-speed trajectories of the fiber field R (normal in
    the arm tubes, tangent along the outer boundary near the contacts); the
    two parts are blended by the fixed cutoff at radius 3 mu and agree
    exactly on the overlap.
    """

    def __init__(self, config, target_arms, eps=0.5, t_grid=None):
        self.config = config
        self.times = np.linspace(0.0, 1.0, 33) if t_grid is None else np.asarray(t_grid)
        self.eps = eps
        self.diag = {}
        arms = config.arms
        x0 = config.junction
        self.mu_j = _select_mu_junction(config)
        # sample grid clustered toward the junction: the graph branch builds
        # features at the sqrt(junction-shift) scale, which a uniform grid of
        # a few hundred points cannot resolve
        Lmin = min(arm.length for arm in arms)
        cluster = np.geomspace(2e-5, 3.6 * self.mu_j / Lmin, 200)
        uniform = np.linspace(0.0, 1.0, 240)
        self.s_grid = np.unique(np.concatenate([uniform, cluster[cluster < 1.0], [0.0]]))
        # measured closeness of the target (C^2 on Gamma via the sampled maps)
        delta_meas = _c2_distance(
            arms, [tgt.point(uniform) - arm.point(uniform)
                   for arm, tgt in zip(arms, target_arms)], uniform)
        self.delta_bar1 = 0.5 * self.mu_j
        self.diag["delta_measured"] = delta_meas
        self.diag["delta_bar1"] = self.delta_bar1
        self.diag["mu_junction"] = self.mu_j
        if delta_meas >= self.delta_bar1:
            raise AdmissibilityError(
                "target too far from the identity: C2 distance %.3e >= %.3e"
                % (delta_meas, self.delta_bar1))
        self.target_arms = list(target_arms)
        v = self.target_arms[0].point(0.0) - arms[0].point(0.0)
        self.workaround = 0.0
        if np.linalg.norm(v) < 1e-12:
            # geometric motion strictly inside B_mu(x0) makes the ray
            # directions degenerate there; only then is the auxiliary shift
            # required (parametrization slide of the refit target is ignored)
            ss = self.s_grid
            near_moved = 0.0
            for arm, tgt in zip(arms, self.target_arms):
                mask = arm_near_mask(arm, x0, self.mu_j, ss)
                if np.any(mask):
                    gap = tgt.distance_to_set(arm.point(ss)[mask])
                    gap = np.maximum(gap, arm.distance_to_set(tgt.point(ss)[mask]))
                    near_moved = max(near_moved, float(np.max(gap)))
            if near_moved > 1e-10:
                # fixed junction but moving nearby arms: compose a vanishing
                # auxiliary junction shift so the cone branches apply
                e = arms[0].tangent(0.0)
                self.workaround = 2e-3 * self.mu_j
                shift = self.workaround * e
                new_tgts = []
                for arm, tgt in zip(arms, self.target_arms):
                    pts = tgt.point(self.s_grid)
                    w = chi(np.linalg.norm(pts - x0, axis=1) ** 2 / self.mu_j ** 2)
                    new_tgts.append(ParamCurve.from_samples(
                        pts + w[:, None] * shift, flag=arm.flag))
                self.target_arms = new_tgts
                v = self.target_arms[0].point(0.0) - arms[0].point(0.0)
        self.v = v
        # per arm: (direction blend radius, sigma = side of n(0) w(0) points to)
        self._ray_blend = []
        for i, (arm, tgt) in enumerate(zip(arms, self.target_arms)):
            wn0 = float((tgt.point(0.0) - arm.point(0.0)) @ arm.normal(0.0))
            sigma = np.sign(wn0) if abs(wn0) > 1e-13 else 1.0
            self._ray_blend.append((self._direction_blend_radius(i), sigma))
        self._build_near_field()
        self._build_far_field()
        self._assemble_tables()
        self._bulk_cache = {}

    # ---------------------------------------------------------------- near
    def _build_near_field(self):
        config = self.config
        arms = config.arms
        x0 = config.junction
        v = self.v
        self.diag["junction_shift"] = float(np.linalg.norm(v))
        self.in_cone = [False, False, False]
        if np.linalg.norm(v) > 0:
            vh = v / np.linalg.norm(v)
            for i, arm in enumerate(arms):
                t0 = arm.tangent(0.0)
                n0 = arm.normal(0.0)
                self.in_cone[i] = abs(float(vh @ t0)) >= 0.6 * abs(float(vh @ n0))
            if sum(self.in_cone) > 1:
                raise AdmissibilityError(
                    "cone-test degenerate alignment: junction displacement lies "
                    "in two arm cones")
        self.diag["cone_arm"] = int(np.argmax(self.in_cone)) if any(self.in_cone) else -1
        self.N = []
        for i, arm in enumerate(arms):
            self.N.append(self._near_N_for_arm(i))

    def _near_N_for_arm(self, i):
        """N on the near part of arm i: s-grid values (zero where unused)."""
        config = self.config
        arm = config.arms[i]
        tgt = self.target_arms[i]
        x0 = config.junction
        ss = self.s_grid
        pts = arm.point(ss)
        r = np.linalg.norm(pts - x0, axis=1)
        near = r <= 3.4 * self.mu_j
        N = np.zeros((ss.size, 2))
        if not np.any(near):
            return N
        moved = np.max(np.linalg.norm(tgt.point(ss[near]) - pts[near], axis=1))
        if moved < 1e-14 and np.linalg.norm(self.v) < 1e-14:
            return N
        if self.in_cone[i]:
            N[near] = self._cone_branch(i, ss[near])
        else:
            N[near] = self._ray_branch(i, ss[near])
        return N

    def _direction_blend_radius(self, i):
        """Largest radius around the junction on which the displacement
        direction stays within 1/4 of its junction value (the proof's
        'up to take a smaller mu' reduction)."""
        arm = self.config.arms[i]
        tgt = self.target_arms[i]
        x0 = self.config.junction
        ss = self.s_grid[self.s_grid * arm.length <= self.mu_j * 1.05]
        if ss.size < 4:
            return self.mu_j
        disp = tgt.point(ss) - arm.point(ss)
        dn = np.linalg.norm(disp, axis=1)
        good = dn > 1e-14
        if not np.any(good) or dn[0] < 1e-14:
            return self.mu_j
        d0 = disp[0] / dn[0]
        dev = np.linalg.norm(disp[good] / dn[good][:, None] - d0, axis=1)
        r = np.linalg.norm(arm.point(ss[good]) - x0, axis=1)
        bad = np.where(dev > 0.25)[0]
        if bad.size == 0:
            return self.mu_j
        return max(min(self.mu_j, 0.9 * r[bad[0]]), 1e-6)

    def _ray_dir(self, i, s):
        """Blended ray direction Y on arm i (unit).

        Near the junction Y is the target displacement direction w/|w|; it
        blends into sigma_i n(s) with sigma_i = sign(w(0).n(0)) (1 when that
        vanishes), one constant per arm.  The ray length is signed, so
        sigma_i n serves as well as n, and blending towards the side w points
        to keeps Y off the arm's tangent (a blend from w/|w| into a normal on
        the other side turns through it, and the ray then meets the target
        far along the arm).
        """
        arm = self.config.arms[i]
        tgt = self.target_arms[i]
        x0 = self.config.junction
        pts = arm.point(s)
        mu_dir, sigma = self._ray_blend[i]
        ch = chi(np.sum((pts - x0) ** 2, axis=1) / mu_dir ** 2)
        nrm = sigma * arm.normal(s)
        w = tgt.point(s) - pts
        wn = np.linalg.norm(w, axis=1)
        wh = np.where((wn < 1e-13)[:, None], nrm, w / np.maximum(wn, 1e-300)[:, None])
        Y = ch[:, None] * wh + (1.0 - ch)[:, None] * nrm
        return Y / np.linalg.norm(Y, axis=1)[:, None]

    def _ray_graph(self, i, s, Y):
        """phi: signed ray length from arm i along Y to the target arm."""
        tgt = self.target_arms[i]
        pts = self.config.arms[i].point(s)
        rho = np.zeros(s.size)
        for _ in range(25):
            q = pts + rho[:, None] * Y
            sq, dq, _ = tgt.project(q)
            denom = np.sum(Y * tgt.normal(sq), axis=1)
            denom = np.where(np.abs(denom) < 0.2, np.sign(denom + 1e-30) * 0.2, denom)
            step = dq / denom
            rho = rho - step
            if np.max(np.abs(step)) < 1e-13:
                break
        return rho

    def _ray_branch(self, i, s):
        Y = self._ray_dir(i, s)
        rho = self._ray_graph(i, s, Y)
        return rho[:, None] * Y

    def _cone_branch(self, i, s):
        """Graph construction with the G_L reparametrization along arm i."""
        config = self.config
        arm = config.arms[i]
        tgt = self.target_arms[i]
        x0 = config.junction
        v = self.v
        t0 = arm.tangent(0.0)
        n0 = arm.normal(0.0)
        sgn1 = np.sign(float(v @ t0)) or 1.0
        e1 = sgn1 * t0
        s0 = float(v @ e1)
        t_comp = float(v @ n0)
        sgn2 = np.sign(t_comp) if abs(t_comp) > 1e-13 else 1.0
        e2 = sgn2 * n0
        # graphs of the arm and the target over e1 (local coordinates at x0)
        ss = np.linspace(0.0, 1.0, 600)
        A = (arm.point(ss) - x0) @ e1
        B = (arm.point(ss) - x0) @ e2
        keep = A <= 1.2 * (3.4 * self.mu_j)
        h = CubicSpline(A[keep], B[keep])
        At = (tgt.point(ss) - x0) @ e1
        Bt = (tgt.point(ss) - x0) @ e2
        o = np.argsort(At)
        ht = CubicSpline(At[o], Bt[o])
        if s0 <= 0:
            raise AdmissibilityError("cone branch with nonpositive graph shift")
        L = 2
        while L <= 256:
            grid = np.linspace(0.0, (L + 1) * np.sqrt(s0), 600)
            GL = grid + chi(grid / (L * np.sqrt(s0))) * s0
            dG = np.gradient(GL, grid)
            d2G = np.gradient(dG, grid)
            if max(np.max(np.abs(dG - 1.0)), np.max(np.abs(d2G))) < self.eps / 4.0:
                break
            L *= 2
        self.diag["G_L_level"] = L
        a_r = (L + 1) * np.sqrt(s0)
        if a_r > 0.95 * self.mu_j / np.sqrt(2.0):
            raise AdmissibilityError(
                "graph zone (L+1) sqrt(s0) = %.3e exceeds the junction scale; "
                "target junction shift too large" % a_r)
        pts = arm.point(s)
        a = (pts - x0) @ e1
        out = np.zeros((s.size, 2))
        in_graph = a <= a_r
        if np.any(in_graph):
            ag = a[in_graph]
            GLa = ag + chi(ag / (L * np.sqrt(s0))) * s0
            out[in_graph] = ((GLa - ag)[:, None] * e1
                             + (ht(GLa) - h(ag))[:, None] * e2)
        rest = ~in_graph
        if np.any(rest):
            # direction blended from sgn2 nu(x0), which matches the graph zone
            # at the seam, into sgn2 nu(s): same orientation at both ends
            ch = chi(np.sum((pts[rest] - x0) ** 2, axis=1) / self.mu_j ** 2)
            Y = sgn2 * (ch[:, None] * n0[None, :]
                        + (1 - ch)[:, None] * arm.normal(s[rest]))
            Y = Y / np.linalg.norm(Y, axis=1)[:, None]
            rho = self._ray_graph(i, s[rest], Y)
            out[rest] = rho[:, None] * Y
        return out

    # ----------------------------------------------------------------- far
    def _R_field(self):
        config = self.config
        arms = config.arms
        w_R = min(0.8 * config.mu, 0.9 * min(arm.reach for arm in arms))
        delta_R = []
        s_pts = config.transition_points()
        for i, arm in enumerate(arms):
            dS = np.min(np.linalg.norm(s_pts - arm.point(1.0), axis=1))
            delta_R.append(min(0.7 * dS, 2.2 * w_R, 0.8 * config.mu))
        self._w_R = w_R
        self._delta_R = delta_R

        def R(P):
            P = np.atleast_2d(np.asarray(P, float))
            out = np.zeros_like(P)
            wsum = np.zeros(P.shape[0])
            for i, arm in enumerate(arms):
                s, _, _ = arm.project(P)
                d = np.linalg.norm(P - arm.point(s), axis=-1)
                th = chi(d ** 2 / w_R ** 2)
                act = th > 0
                if np.any(act):
                    x_i = arm.point(1.0)
                    wc = chi(np.sum((P[act] - x_i) ** 2, axis=1) / delta_R[i] ** 2)
                    t_prm, _, _ = config.outer.project(P[act])
                    vec = ((1 - wc)[:, None] * arm.normal(s[act])
                           + wc[:, None] * config.outer.tangent(t_prm))
                    out[act] += th[act, None] * vec
                    wsum[act] += th[act]
            nrm = np.linalg.norm(out, axis=1)
            good = nrm > 1e-12
            out[good] /= nrm[good][:, None]
            return out
        return VectorField(R, label="far-frame")

    def _build_far_field(self):
        config = self.config
        arms = config.arms
        x0 = config.junction
        R = self._R_field()
        self.R = R
        # trajectories from the far part of each arm and from boundary strips
        self._far = []
        sigma_max = 6.0 * max(self.diag["delta_measured"], 1e-9) + 1e-6
        n_steps = 48
        for i, arm in enumerate(arms):
            ss = self.s_grid
            pts = arm.point(ss)
            far = np.linalg.norm(pts - x0, axis=1) >= 2.0 * self.mu_j
            paths = _trajectories(R, pts[far], sigma_max, n_steps)
            sgrid = np.linspace(-sigma_max, sigma_max, 2 * n_steps + 1)
            sig = _first_crossing(paths, self.target_arms[i], sgrid)
            self._far.append({"mask": far, "paths": paths, "sigma": sig,
                              "sgrid": sgrid})
        # boundary strips near the contacts (for the bulk boundary data)
        self._bdry_strips = []
        for i, arm in enumerate(arms):
            t_i = config.contact_params[i]
            w_t = 1.2 * self._delta_R[i] / config.outer.length
            tt = np.mod(np.linspace(t_i - w_t, t_i + w_t, 81), 1.0)
            pts = config.outer.point(tt)
            paths = _trajectories(R, pts, sigma_max, n_steps)
            sgrid = np.linspace(-sigma_max, sigma_max, 2 * n_steps + 1)
            sig = _first_crossing(paths, self.target_arms[i], sgrid,
                                  allow_extrapolation=True)
            self._bdry_strips.append({"t": tt, "paths": paths, "sigma": sig,
                                      "sgrid": sgrid})

    # ----------------------------------------------------------- assembly
    def _assemble_tables(self):
        config = self.config
        arms = config.arms
        x0 = config.junction
        nt = self.times.size
        ns = self.s_grid.size
        self.pos = np.zeros((3, nt, ns, 2))
        self.vel = np.zeros((3, nt, ns, 2))
        self.acc = np.zeros((3, nt, ns, 2))
        for i, arm in enumerate(arms):
            pts = arm.point(self.s_grid)
            r = np.linalg.norm(pts - x0, axis=1)
            ch3 = chi(r ** 2 / (3.0 * self.mu_j) ** 2)
            far = self._far[i]
            pos_far = np.zeros((nt, ns, 2))
            vel_far = np.zeros((nt, ns, 2))
            acc_far = np.zeros((nt, ns, 2))
            if np.any(far["mask"]):
                pf, vf, af = _path_eval(far["paths"], far["sgrid"], far["sigma"],
                                        self.times)
                pos_far[:, far["mask"], :] = pf
                vel_far[:, far["mask"], :] = vf
                acc_far[:, far["mask"], :] = af
            for k, t in enumerate(self.times):
                near_pos = pts + t * self.N[i]
                blend = ch3[:, None]
                pos_k = blend * near_pos + (1 - blend) * (
                    pos_far[k] if np.any(far["mask"]) else pts)
                # points with no far path (inside 2 mu) are pure near-zone
                nofar = ~far["mask"]
                pos_k[nofar] = near_pos[nofar]
                self.pos[i, k] = pos_k
                vel_k = blend * self.N[i] + (1 - blend) * vel_far[k]
                vel_k[nofar] = self.N[i][nofar]
                self.vel[i, k] = vel_k
                acc_k = (1 - blend) * acc_far[k]
                acc_k[nofar] = 0.0
                self.acc[i, k] = acc_k
        # target match diagnostic
        mismatch = 0.0
        for i in range(3):
            d = self.target_arms[i].distance_to_set(self.pos[i, -1])
            mismatch = max(mismatch, float(np.max(d)))
        self.diag["hausdorff_final"] = mismatch

    # ------------------------------------------------------------- access
    def curves_at(self, t):
        k = self._tindex(t)
        return [ParamCurve.from_samples(self.pos[i, k], flag=self.config.arms[i].flag)
                for i in range(3)]

    def _tindex(self, t):
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-12:
            raise GeometryError("time %g not on the family grid" % t)
        return k

    def velocity_at(self, t):
        k = self._tindex(t)
        arms_t = self.curves_at(t)
        Xs = [self.vel[i, k] for i in range(3)]
        Zs = [self.acc[i, k] for i in range(3)]
        return CurveVelocity(arms_t, Xs, Zs, self.s_grid, label="connecting")

    def c2_norm(self, t):
        k = self._tindex(t)
        arms = self.config.arms
        return _c2_distance(arms, [self.pos[i, k] - arm.point(self.s_grid)
                                   for i, arm in enumerate(arms)], self.s_grid)

    def map_at(self, t):
        """Bulk displacement map at a family time (for mesh morphing)."""
        k = self._tindex(t)
        if k not in self._bulk_cache:
            arm_fns = []
            for i in range(3):
                disp = self.pos[i, k] - self.config.arms[i].point(self.s_grid)
                arm_fns.append(_spline_vec(self.s_grid, disp))
            bdry_fn = self._bdry_disp_fn(k)
            self._bulk_cache[k] = BulkExtension(self.config, arm_fns, bdry_fn)
        ext = self._bulk_cache[k]
        return lambda P: np.atleast_2d(P) + ext(P)

    def _bdry_disp_fn(self, k):
        config = self.config
        t = self.times[k]
        knots = [0.0, 1.0]
        vals = [np.zeros(2), np.zeros(2)]
        tables = []
        for i, strip in enumerate(self._bdry_strips):
            pf, _, _ = _path_eval(strip["paths"], strip["sgrid"], strip["sigma"],
                                  np.array([t]))
            disp = pf[0] - config.outer.point(strip["t"])
            tables.append((strip["t"], disp))

        def fn(tq):
            tq = np.mod(np.atleast_1d(np.asarray(tq, float)), 1.0)
            out = np.zeros((tq.size, 2))
            for tt, disp in tables:
                # each strip is monotone in unwrapped parameter
                tu = np.unwrap(tt * 2 * np.pi) / (2 * np.pi)
                for shift in (-1.0, 0.0, 1.0):
                    q = tq + shift
                    inside = (q >= tu[0]) & (q <= tu[-1])
                    if np.any(inside):
                        for d in range(2):
                            out[inside, d] = np.interp(q[inside], tu, disp[:, d])
            return out
        return fn


def arm_near_mask(arm, x0, radius, ss):
    return np.linalg.norm(arm.point(ss) - x0, axis=1) <= radius


def _spline_vec(s, vals):
    sp = CubicSpline(s, vals)
    return lambda q: np.atleast_2d(sp(np.asarray(q, float)))


def _trajectories(R, pts, sigma_max, n_steps):
    """Two-sided constant-parameter trajectories of R through given points."""
    ns = pts.shape[0]
    path = np.zeros((2 * n_steps + 1, ns, 2))
    path[n_steps] = pts
    d_sig = sigma_max / n_steps
    fwd = pts.copy()
    bwd = pts.copy()
    for k in range(n_steps):
        k1 = R(fwd); k2 = R(fwd + 0.5 * d_sig * k1)
        k3 = R(fwd + 0.5 * d_sig * k2); k4 = R(fwd + d_sig * k3)
        fwd = fwd + d_sig / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        path[n_steps + 1 + k] = fwd
        k1 = R(bwd); k2 = R(bwd - 0.5 * d_sig * k1)
        k3 = R(bwd - 0.5 * d_sig * k2); k4 = R(bwd - d_sig * k3)
        bwd = bwd - d_sig / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        path[n_steps - 1 - k] = bwd
    return path


def _first_crossing(paths, target, sgrid, allow_extrapolation=False):
    """Signed path parameter at which each trajectory crosses the target."""
    nsig, ns, _ = paths.shape
    flat = paths.reshape(-1, 2)
    s_t, d_t, _ = target.project(flat)
    d = d_t.reshape(nsig, ns)
    mid = (nsig - 1) // 2
    sig = np.zeros(ns)
    grid = sgrid
    for j in range(ns):
        dj = d[:, j]
        sign0 = np.sign(dj[mid]) or 1.0
        crossings = np.where(np.diff(np.sign(dj)) != 0)[0]
        if crossings.size == 0:
            sig[j] = 0.0 if abs(dj[mid]) < 1e-12 else np.nan
            continue
        kbest = crossings[np.argmin(np.abs(0.5 * (grid[crossings] + grid[crossings + 1])))]
        g0, g1 = grid[kbest], grid[kbest + 1]
        f0, f1 = dj[kbest], dj[kbest + 1]
        sig[j] = g0 - f0 * (g1 - g0) / (f1 - f0)
    if np.any(np.isnan(sig)):
        if not allow_extrapolation:
            raise GeometryError("far-field trajectory misses the target curve")
        sig = np.where(np.isnan(sig), 0.0, sig)
    return sig


def _path_eval(paths, sgrid_unit, sigma, times):
    """Positions/velocities/accelerations of constant-speed paths at times.

    paths: (nsig, ns, 2) sampled over sgrid_unit (in [-sig_max, sig_max]);
    the motion is path(t * sigma_j) for each trajectory j.  One vectorized
    spline over all trajectories, evaluated by coefficient gathering.
    """
    nsig, ns, _ = paths.shape
    grid = sgrid_unit
    sp = CubicSpline(grid, paths, axis=0)
    c = sp.c  # (4, nsig-1, ns, 2)
    pos = np.zeros((times.size, ns, 2))
    vel = np.zeros((times.size, ns, 2))
    acc = np.zeros((times.size, ns, 2))
    jj = np.arange(ns)
    for k, t in enumerate(times):
        q = t * sigma
        cell = np.clip(np.searchsorted(grid, q, side="right") - 1, 0, nsig - 2)
        dx = q - grid[cell]
        c0 = c[0, cell, jj, :]
        c1 = c[1, cell, jj, :]
        c2 = c[2, cell, jj, :]
        c3 = c[3, cell, jj, :]
        d = dx[:, None]
        pos[k] = ((c0 * d + c1) * d + c2) * d + c3
        vel[k] = sigma[:, None] * ((3 * c0 * d + 2 * c1) * d + c2)
        acc[k] = (sigma ** 2)[:, None] * (6 * c0 * d + 2 * c1)
    return pos, vel, acc


def construct_connecting_family(config, target_arms, eps=0.5, t_grid=None):
    """Admissible family whose time-1 crack matches the three target arm
    curves."""
    return ConnectingFamily(config, target_arms, eps=eps, t_grid=t_grid)


def verify_flow_estimates(family):
    """Observed constants of the tangential/normal control estimates.

    C1(t) = ||X.tau||_L2 / ||X.nu||_L2 and C2(t) = ||Z.nu||_L1 / ||X.nu||^2_L2
    over Gamma_t; zero norms are reported as zero ratios unless tangential
    mass appears without normal mass (hard failure).
    """
    rows = []
    for t in family.times:
        arms_t = family.curves_at(t)
        k = family._tindex(t)
        xt2 = xn2 = zn1 = 0.0
        for i, arm in enumerate(arms_t):
            ss = family.s_grid
            tau = arm.tangent(ss)
            nu = arm.normal(ss)
            sp = np.linalg.norm(arm.velocity(ss), axis=1)
            w = np.gradient(ss) * sp
            X = family.vel[i, k]
            Z = family.acc[i, k]
            xt2 += float(np.sum(np.sum(X * tau, axis=1) ** 2 * w))
            xn2 += float(np.sum(np.sum(X * nu, axis=1) ** 2 * w))
            zn1 += float(np.sum(np.abs(np.sum(Z * nu, axis=1)) * w))
        if xn2 < 1e-28:
            if xt2 > 1e-20:
                raise AdmissibilityError("tangential velocity without normal "
                                         "velocity at t=%g" % t)
            rows.append({"t": t, "C1": 0.0, "C2": 0.0, "xn2": xn2})
            continue
        rows.append({"t": t, "C1": np.sqrt(xt2 / xn2), "C2": zn1 / xn2,
                     "xn2": xn2})
    C1 = max(r["C1"] for r in rows)
    C2 = max(r["C2"] for r in rows)
    return {"C1": C1, "C2": C2, "table": rows}


# ----------------------------------------------------------------------
# energy machinery along families
# ----------------------------------------------------------------------

def energy_at_map(config, u, mesh, map_fn):
    """(MS value, transported solution, transported mesh, refit arms).

    The mesh nodes and the arm samples go through one map_fn call. The
    transported mesh is the morph of the base mesh, which keeps everything
    outside U bitwise identical. There is no remeshing: a map that inverts or
    degrades the morphed elements raises MeshError, and one that moves a node
    pinned outside U raises SolveError.
    """
    vx_t, arms_t = map_with_arms(config, map_fn, 320, mesh.vx)
    mesh_t = mesh.with_nodes(vx_t)
    u_t = solve_transported(mesh_t, u)
    total, bulk, length = ms_energy(u_t, config, "U", curves=arms_t)
    return total, u_t, mesh_t, arms_t


def second_variation_at_time(config, u, mesh, family, t):
    """g''(t) via the reparametrized-family identity: the second-variation
    formula evaluated at (u_t, Gamma_t) with the family's (X_t, Z_t)."""
    mp = family.map_at(t)
    if t == 0.0:
        u_t, mesh_t = u, mesh
        arms_t = family.curves_at(0.0)
    else:
        mesh_t = mesh.morph(mp)
        u_t = solve_transported(mesh_t, u)
        arms_t = family.curves_at(t)
    cfg_t = transported_config(config, mp, validate=False)
    V_t = family.velocity_at(t)
    rep = second_variation(cfg_t, u_t, V_t, curves=arms_t)
    phi_t = normal_speed_scalar(cfg_t, V_t, n=65, curves=arms_t)
    qf = quadratic_form(cfg_t, u_t, phi_t, curves=arms_t, enforce_constraint=False)
    return {"t": t, "g2": rep.second_variation, "qf": qf,
            "remainder": rep.second_variation - qf, "report": rep}


def energy_taylor_check(config, u, mesh, family, t_subsample=1):
    """Direct energy difference vs the Taylor remainder integral
    int_0^1 (1-t) g''(t) dt, with the per-time table."""
    times = family.times[::t_subsample]
    e0 = ms_energy(u, config, "U", curves=family.curves_at(0.0))[0]
    e1 = energy_at_map(config, u, mesh, family.map_at(family.times[-1]))[0]
    delta_direct = e1 - e0
    table = []
    for t in times:
        row = second_variation_at_time(config, u, mesh, family, t)
        table.append(row)
    ts = np.array([r["t"] for r in table])
    g2 = np.array([r["g2"] for r in table])
    delta_integral = float(np.trapezoid((1.0 - ts) * g2, ts))
    return {"delta_direct": float(delta_direct),
            "delta_integral": delta_integral,
            "relative_gap": abs(delta_direct - delta_integral)
            / max(abs(delta_direct), 1e-300),
            "table": table}


def perturbation_catalog(config, rng):
    """Named admissible velocity fields for the minimality sweep.

    Normal bumps per arm, junction translations, arm rotations (as sliding
    test fields), and seeded random combinations; every entry is an
    admissible VelocityPair of unit-ish size to be scaled by the amplitude.
    """
    from .hspace import JunctionScalar
    basis_n = 33
    catalog = []
    mu = config.mu
    for i, arm in enumerate(config.arms):
        w = 0.85 * mu

        def Xb(P, i=i, arm=arm, w=w):
            s_star, _, _ = arm.project(P)
            d = np.linalg.norm(P - arm.point(s_star), axis=-1)
            prof = np.sin(np.pi * np.clip((s_star - 0.1) / 0.8, 0.0, 1.0)) ** 2
            return (ramp(d, 0.15 * w, w) * prof)[:, None] * arm.normal(s_star)
        X = VectorField(Xb, label="normal-bump-arm%d" % (i + 1))
        catalog.append(("normal_bump_arm%d" % (i + 1), VelocityPair.autonomous(X)))
    for k, d in enumerate((np.array([1.0, 0.0]), np.array([0.0, 1.0]))):
        x0 = config.junction
        X = VectorField(lambda P, d=d, x0=x0:
                        0.35 * radial_bump(P, x0, 0.1 * mu, 0.95 * mu)[:, None] * d,
                        label="junction-shift-%d" % k)
        catalog.append(("junction_shift_%s" % ("xy"[k]), VelocityPair.autonomous(X)))
    for i in range(3):
        fns = [(lambda s, j=j, i=i: (0.4 * s) if j == i else 0.0 * s) for j in range(3)]
        phi = JunctionScalar.from_callables(
            [lambda s, f=f: np.asarray(f(s), float) * np.ones_like(s) for f in fns],
            basis_n)
        catalog.append(("rotation_arm%d" % (i + 1), build_test_field(config, phi)))
    for k in range(4):
        def mk(row):
            return lambda s: (row[0] * np.sin(np.pi * s)
                              + row[1] * np.sin(2 * np.pi * s) + row[2] * s)
        rows = rng.standard_normal((3, 3)) * [0.25, 0.15, 0.15]
        phi = JunctionScalar.from_callables([mk(rows[j]) for j in range(3)],
                                            basis_n, project_constraint=True)
        catalog.append(("random_%d" % (k + 1), build_test_field(config, phi)))
    return catalog


def energy_comparison_sweep(config, u, mesh, catalog, amplitudes=(0.1, 0.01)):
    """MS(Phi) - MS(Id) for every cataloged perturbation/amplitude.

    A case that raises a TrijunctionError is recorded as failed and the
    sweep continues; any other exception propagates.
    """
    e0 = ms_energy(u, config, "U")[0]
    records = []
    for name, V in catalog:
        for amp in amplitudes:
            rec = {"case": name, "amplitude": amp}
            try:
                Xa = V.X * amp
                mp = lambda P: rk4_flow(Xa, P, 1.0)
                e1, u_t, mesh_t, arms_t = energy_at_map(config, u, mesh, mp)
                rec["delta"] = float(e1 - e0)
                rec["ok"] = True
            except TrijunctionError as exc:  # per-case failures logged, sweep continues
                rec["ok"] = False
                rec["error"] = "%s: %s" % (type(exc).__name__, exc)
                log.warning("sweep case %s amp %g failed: %s", name, amp, exc)
            records.append(rec)
    deltas = [r["delta"] for r in records if r.get("ok")]
    return {"records": records, "min_delta": min(deltas) if deltas else np.nan,
            "base_energy": e0, "n_failed": sum(1 for r in records if not r.get("ok"))}
