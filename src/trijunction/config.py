"""Triple-junction configurations: three arms, an outer boundary, a Dirichlet
portion of the boundary and an admissible subdomain radius.

Conventions (fixed once and used everywhere):
  * the outer boundary is a closed curve parametrized clockwise, so its
    normal nu = rot90(tau) points outward and H > 0 on convex portions;
  * each arm runs from the junction x0 (s=0) to its boundary contact x_i
    (s=1); the arm orientation flag is chosen so nu_i(x_i) . tau_bdry > 0;
  * the Dirichlet portion is a union of parameter intervals of the outer
    curve, compactly away from the three contact points.
"""

import io
import numpy as np

from .curves import ParamCurve, rot90
from .errors import ConfigError


class TripleJunctionConfig:
    """Geometry record for one triple-junction configuration."""

    def __init__(self, junction, arms, outer, dirichlet_arcs, subdomain_radius,
                 tol_tangency=0.1, validate=True):
        self.junction = np.asarray(junction, dtype=float)
        if len(arms) != 3:
            raise ConfigError("exactly three arms required")
        self.arms = list(arms)
        self.outer = outer
        self.dirichlet_arcs = [tuple(map(float, ab)) for ab in dirichlet_arcs]
        self.mu = float(subdomain_radius)
        self.tol_tangency = float(tol_tangency)
        self._fix_orientations()
        self.contact_params = np.array([
            self.outer.project(arm.point(1.0)[None, :])[0][0] for arm in self.arms])
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    def _fix_orientations(self):
        if not self.outer.closed:
            raise ConfigError("outer boundary must be a closed curve")
        # clockwise orientation: negative enclosed area for ccw formula
        ss = np.linspace(0.0, 1.0, 400, endpoint=False)
        p = self.outer.point(ss)
        v = self.outer.velocity(ss)
        area2 = np.trapezoid(p[:, 0] * v[:, 1] - p[:, 1] * v[:, 0], ss)
        if area2 > 0:
            raise ConfigError("outer boundary must be parametrized clockwise")
        if self.outer.flag != 1:
            raise ConfigError("outer boundary flag must be +1 (outward normal)")
        for k, arm in enumerate(self.arms):
            x1 = arm.point(1.0)
            t_b, _, _ = self.outer.project(x1[None, :])
            tau_b = self.outer.tangent(t_b[0])
            if float(np.dot(arm.normal(1.0), tau_b)) < 0:
                self.arms[k] = arm.with_flag(-arm.flag)

    def validate(self):
        x0 = self.junction
        for i, arm in enumerate(self.arms):
            if np.linalg.norm(arm.point(0.0) - x0) > 1e-8 * (1 + arm.length):
                raise ConfigError("arm %d does not start at the junction" % (i + 1))
            d = abs(float(self.outer.project(arm.point(1.0)[None, :])[1][0]))
            if d > 1e-6 * (1 + self.outer.length):
                raise ConfigError("arm %d endpoint not on the outer boundary" % (i + 1))
            if not arm.is_simple():
                raise ConfigError("arm %d is not a simple curve" % (i + 1))
        # pairwise disjoint except at x0
        for i in range(3):
            for j in range(i + 1, 3):
                si = np.linspace(0.03, 1.0, 120)
                di = self.arms[j].distance_to_set(self.arms[i].point(si))
                if np.min(di) < 1e-6:
                    raise ConfigError("arms %d and %d intersect away from x0" % (i + 1, j + 1))
        xs = [arm.point(1.0) for arm in self.arms]
        for i in range(3):
            for j in range(i + 1, 3):
                if np.linalg.norm(xs[i] - xs[j]) < 1e-8:
                    raise ConfigError("coincident boundary contact points")
        # non-tangential contact
        for i, arm in enumerate(self.arms):
            nu_b = self.outer.normal(self.contact_params[i])
            if abs(float(np.dot(arm.tangent(1.0), nu_b))) <= np.sin(self.tol_tangency):
                raise ConfigError("arm %d meets the boundary tangentially" % (i + 1))
        # Dirichlet portion away from the contacts and from the subdomain
        if not self.dirichlet_arcs:
            raise ConfigError("empty Dirichlet portion")
        for (a, b) in self.dirichlet_arcs:
            if not (0.0 <= a < b <= 1.0):
                raise ConfigError("dirichlet arc [%g, %g] not an increasing interval" % (a, b))
            for t in self.contact_params:
                if a - 1e-9 <= t <= b + 1e-9:
                    raise ConfigError("dirichlet arc overlaps a crack contact point")
        for p in self.transition_points():
            if self.distance_to_crack(p[None, :])[0] <= self.mu:
                raise ConfigError("admissible subdomain closure touches the "
                                  "Dirichlet/Neumann transition set")

    # ------------------------------------------------------------------
    def transition_points(self):
        """The set S: endpoints of the Dirichlet arcs on the outer boundary."""
        ts = [t for ab in self.dirichlet_arcs for t in ab]
        return self.outer.point(np.asarray(ts))

    def distance_to_crack(self, P):
        """Unsigned distance from points to Gamma (all three arms)."""
        P = np.atleast_2d(np.asarray(P, float))
        d = np.full(P.shape[0], np.inf)
        for arm in self.arms:
            d = np.minimum(d, arm.distance_to_set(P))
        return d

    def in_dirichlet(self, t):
        """Whether boundary parameters lie inside the Dirichlet portion."""
        t = np.atleast_1d(np.asarray(t, float))
        out = np.zeros(t.shape, dtype=bool)
        for (a, b) in self.dirichlet_arcs:
            out |= (t >= a - 1e-12) & (t <= b + 1e-12)
        return out

    def boundary_curvature_at_contact(self, i):
        return float(self.outer.curvature(self.contact_params[i]))

    def contact_normal_curvature(self, i):
        """D nu_bdry [nu_i, nu_i](x_i) = H_bdry (nu_i . tau_bdry)^2."""
        t = self.contact_params[i]
        tau_b = self.outer.tangent(t)
        nu_i = self.arms[i].normal(1.0)
        return float(self.outer.curvature(t) * np.dot(nu_i, tau_b) ** 2)

    def bbox(self, pad=0.1):
        ss = np.linspace(0.0, 1.0, 400)
        p = self.outer.point(ss)
        lo = p.min(axis=0) - pad
        hi = p.max(axis=0) + pad
        return (lo[0], hi[0]), (lo[1], hi[1])

    # ------------------------------------------------------------------
    def metrics(self):
        """Junction angles, contact angles and boundary curvatures.

        Junction angles are the ccw gaps between consecutive arm tangents at
        x0 (they sum to 2 pi); contact angles are between each arm tangent
        and the boundary tangent at x_i.
        """
        taus = np.array([arm.tangent(0.0) for arm in self.arms])
        th = np.arctan2(taus[:, 1], taus[:, 0])
        order = np.argsort(th)
        gaps = np.diff(np.concatenate([th[order], [th[order][0] + 2 * np.pi]]))
        angles = np.empty(3)
        for pos, arm_idx in enumerate(order):
            angles[arm_idx] = gaps[pos]  # gap from this arm ccw to the next
        contact = np.empty(3)
        hbdry = np.empty(3)
        for i, arm in enumerate(self.arms):
            tau_b = self.outer.tangent(self.contact_params[i])
            c = abs(float(np.dot(arm.tangent(1.0), tau_b)))
            contact[i] = np.arccos(np.clip(c, -1.0, 1.0))
            hbdry[i] = self.boundary_curvature_at_contact(i)
        normals_at_x0 = np.array([arm.normal(0.0) for arm in self.arms])
        return {
            "junction_angles": angles,
            "contact_angles": contact,
            "boundary_curvatures": hbdry,
            "junction_normals": normals_at_x0,
        }


# ----------------------------------------------------------------------
# canonical configurations
# ----------------------------------------------------------------------

def disk_config(arm_angles=(np.pi / 2, np.pi / 2 + 2 * np.pi / 3,
                            np.pi / 2 + 4 * np.pi / 3)):
    """Unit-disk configuration: three straight radii, junction at the center,
    subdomain radius 0.25, Dirichlet arcs of half the sector stretch.

    Critical with sector-constant data; the convex boundary (H_bdry = +1/R at
    the contacts) makes it a natural destabilized companion to the 3-lobe
    domain below.
    """
    radius = 1.0
    outer = ParamCurve.circle(radius=radius, n=2000, clockwise=True)
    arms = [ParamCurve.line((0.0, 0.0),
                            (radius * np.cos(a), radius * np.sin(a)), n=24)
            for a in arm_angles]
    d_arcs = _midsector_dirichlet_arcs(outer, arms, 0.25)
    return TripleJunctionConfig((0.0, 0.0), arms, outer, d_arcs, 0.25)


def trilobe_config():
    """Three-lobed domain r = R - a cos(3(theta - theta_1)) with R = 1,
    a = 0.15, arms at theta_1 = pi/2 and its two rotations by 2 pi/3,
    subdomain radius 0.28 and Dirichlet arcs of 0.6 of the sector stretch.

    The boundary is concave (H_bdry < 0 with the outward-normal convention)
    at the three contact points when R < 10 a, which makes the symmetric
    configuration strictly stable.
    """
    base_radius, lobe = 1.0, 0.15
    arm_angles = (np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3)
    th1 = arm_angles[0]
    th = np.linspace(0.0, 2.0 * np.pi, 2400, endpoint=False)[::-1]  # clockwise
    r = base_radius - lobe * np.cos(3.0 * (th - th1))
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    outer = ParamCurve(pts, closed=True)
    arms = []
    for a in arm_angles:
        rr = base_radius - lobe * np.cos(3.0 * (a - th1))
        arms.append(ParamCurve.line((0.0, 0.0), (rr * np.cos(a), rr * np.sin(a)), n=24))
    d_arcs = _midsector_dirichlet_arcs(outer, arms, 0.3)
    return TripleJunctionConfig((0.0, 0.0), arms, outer, d_arcs, 0.28)


def bent_arm_config(bend=0.12):
    """Non-critical configuration: one arm of the disk configuration bowed
    sideways."""
    cfg = disk_config()
    arm0 = cfg.arms[0]
    ss = np.linspace(0.0, 1.0, 48)
    pts = arm0.point(ss) + bend * np.sin(np.pi * ss)[:, None] * arm0.normal(ss)
    arms = [ParamCurve(pts), cfg.arms[1], cfg.arms[2]]
    return TripleJunctionConfig(cfg.junction, arms, cfg.outer,
                                cfg.dirichlet_arcs, cfg.mu)


def map_with_arms(config, map_fn, n_samples, P):
    """(map_fn(P), mapped arms) from one map_fn call on P and the arm samples.

    Each arm's image is refit through n_samples uniformly spaced parameter
    samples. An rk4_flow map then runs one flow, whose cost scales with the
    number of these points that move.
    """
    ss = np.linspace(0.0, 1.0, n_samples)
    n = P.shape[0]
    img = np.atleast_2d(map_fn(np.vstack([P] + [arm.point(ss) for arm in config.arms])))
    arms = [ParamCurve.from_samples(img[n + i * n_samples:n + (i + 1) * n_samples],
                                    flag=arm.flag)
            for i, arm in enumerate(config.arms)]
    return img[:n], arms


def mapped_arms(config, map_fn, n_samples):
    """The images of the arms under map_fn, each refit through n_samples
    uniformly spaced parameter samples. All samples go through one map_fn
    call, so an rk4_flow map costs in proportion to the samples that move."""
    return map_with_arms(config, map_fn, n_samples, np.empty((0, 2)))[1]


def transported_config(config, map_fn, validate=True):
    """Configuration with arms (and junction) moved by an admissible map, each
    arm refit through 400 samples.

    The outer boundary and the Dirichlet arcs are unchanged (admissible maps
    send the boundary to itself and fix the Dirichlet portion).
    """
    x0, arms = map_with_arms(config, map_fn, 400, config.junction[None, :])
    return TripleJunctionConfig(x0[0], arms, config.outer, config.dirichlet_arcs,
                                config.mu, config.tol_tangency, validate=validate)


def _midsector_dirichlet_arcs(outer, arms, halfwidth):
    """One Dirichlet arc centered in each sector's stretch of the boundary.

    halfwidth is the half-length of each arc as a fraction of the sector
    stretch (0 < halfwidth < 0.5).
    """
    ts = np.sort([outer.project(arm.point(1.0)[None, :])[0][0] for arm in arms])
    arcs = []
    for k in range(3):
        a = ts[k]
        b = ts[(k + 1) % 3] + (1.0 if k == 2 else 0.0)
        mid = 0.5 * (a + b)
        half = halfwidth * (b - a)
        lo, hi = mid - half, mid + half
        if hi <= 1.0:
            arcs.append((lo, hi))
        elif lo >= 1.0:
            arcs.append((lo - 1.0, hi - 1.0))
        else:
            arcs.append((lo, 1.0))
            arcs.append((0.0, hi - 1.0))
    return sorted(arcs)


# ----------------------------------------------------------------------
# plain-text serialization
# ----------------------------------------------------------------------

def _fmt_points(pts):
    return " ".join("%.17g,%.17g" % (p[0], p[1]) for p in np.atleast_2d(pts))


def _parse_points(text):
    pts = []
    for tok in text.replace(";", " ").split():
        x, y = tok.split(",")
        pts.append((float(x), float(y)))
    return np.asarray(pts, dtype=float)


def save_config(config, path_or_stream):
    """Write the plain-text configuration document."""
    own = isinstance(path_or_stream, (str, bytes))
    f = open(path_or_stream, "w") if own else path_or_stream
    try:
        f.write("# trijunction configuration\n")
        f.write("junction = %.17g %.17g\n" % tuple(config.junction))
        for i, arm in enumerate(config.arms):
            f.write("arm%d.control_points = %s\n" % (i + 1, _fmt_points(arm.control_points)))
        f.write("outer_boundary.control_points = %s\n"
                % _fmt_points(config.outer.control_points))
        flat = " ".join("%.17g %.17g" % ab for ab in config.dirichlet_arcs)
        f.write("dirichlet_arc = %s\n" % flat)
        f.write("subdomain_radius = %.17g\n" % config.mu)
    finally:
        if own:
            f.close()


def load_config(path_or_stream):
    own = isinstance(path_or_stream, (str, bytes))
    f = open(path_or_stream, "r") if own else path_or_stream
    try:
        kv = {}
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("line %d: expected 'key = value'" % lineno)
            key, val = (s.strip() for s in line.split("=", 1))
            kv[key] = val
    finally:
        if own:
            f.close()
    missing = [k for k in ("junction", "arm1.control_points", "arm2.control_points",
                           "arm3.control_points", "outer_boundary.control_points",
                           "dirichlet_arc", "subdomain_radius") if k not in kv]
    if missing:
        raise ConfigError("missing configuration keys: %s" % ", ".join(missing))
    junction = np.asarray([float(v) for v in kv["junction"].split()], dtype=float)
    arms = [ParamCurve(_parse_points(kv["arm%d.control_points" % (i + 1)]))
            for i in range(3)]
    outer = ParamCurve(_parse_points(kv["outer_boundary.control_points"]), closed=True)
    vals = [float(v) for v in kv["dirichlet_arc"].split()]
    if len(vals) % 2 != 0:
        raise ConfigError("dirichlet_arc needs an even number of parameters")
    arcs = [(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]
    mu = float(kv["subdomain_radius"])
    return TripleJunctionConfig(junction, arms, outer, arcs, mu)


def config_to_text(config):
    buf = io.StringIO()
    save_config(config, buf)
    return buf.getvalue()
