"""Triangulations of the domain slit along the three arms.

The three open sectors of Omega minus the crack are meshed independently
with a deterministic structured construction: per sector, rows of nodes
radiate from the junction toward the outer arc, positioned by transfinite
blending of the two arms and the boundary arc, and consecutive rows are
bridged by a purely combinatorial strip pattern.  Crack nodes are therefore
duplicated (one copy per adjacent sector, three copies at the junction) and
every node on an arm or on the outer boundary lies exactly on its spline,
midnodes included (isoparametric quadratic elements).
"""

import hashlib
import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import MeshError, ConfigError

DIRICHLET, NEU_OUTER, NEU_CRACK = 1, 2, 3


def point_in_polygon(P, poly):
    """Vectorized winding-number containment test."""
    P = np.atleast_2d(np.asarray(P, float))
    V = np.asarray(poly, float)
    x, y = P[:, 0][:, None], P[:, 1][:, None]
    x0, y0 = V[:-1, 0][None, :], V[:-1, 1][None, :]
    x1, y1 = V[1:, 0][None, :], V[1:, 1][None, :]
    upward = (y0 <= y) & (y1 > y)
    downward = (y0 > y) & (y1 <= y)
    cross = (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)
    wn = np.sum(np.where(upward & (cross > 0), 1, 0), axis=1) \
        - np.sum(np.where(downward & (cross < 0), 1, 0), axis=1)
    return wn != 0


class CrackMesh:
    """Quadratic triangulation of the slit domain.

    Arrays
    ------
    vx : (n_nodes, 2) node coordinates (corner vertices and edge midnodes)
    tris : (nt, 6) connectivity [v0, v1, v2, m01, m12, m20]
    sector : (nt,) sector label in {0, 1, 2}
    n_vertex : nodes below this index are triangle corners
    crack : per arm, dict with ordered node ids of both sides and parameters
    junction_nodes : (3,) the coincident junction copies, one per sector
    bdry : list of (node_a, mid, node_b, tag, t_a, t_b) boundary edges
    """

    def __init__(self, vx, tris, sector, n_vertex, crack, junction_nodes,
                 bdry, outer_param, h, vertex_mask=None, elem_mask=None, mu=None):
        self.vx = vx
        self.tris = tris
        self.sector = sector
        self.n_vertex = int(n_vertex)
        self.crack = crack
        self.junction_nodes = np.asarray(junction_nodes, dtype=int)
        self.bdry = bdry
        self.outer_param = outer_param
        self.h = float(h)
        self.vertex_mask = vertex_mask
        self.elem_mask = elem_mask
        self.mu = mu
        # holds the stiffness operator of this geometry once fem.mesh_operator
        # has built it; marked copies share the slot of their source
        self.operator_slot = []

    # ------------------------------------------------------------------
    @property
    def n_nodes(self):
        return self.vx.shape[0]

    @property
    def n_tris(self):
        return self.tris.shape[0]

    def min_angle(self):
        p = self.vx[self.tris[:, :3]]
        angs = []
        for k in range(3):
            a = p[:, (k + 1) % 3] - p[:, k]
            b = p[:, (k + 2) % 3] - p[:, k]
            ca = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
            angs.append(np.arccos(np.clip(ca, -1, 1)))
        return float(np.degrees(np.min(angs)))

    def orientation_ok(self):
        p = self.vx[self.tris[:, :3]]
        u = p[:, 1] - p[:, 0]
        v = p[:, 2] - p[:, 0]
        a = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        return bool(np.all(a > 0))

    def dirichlet_nodes(self):
        out = set()
        for (na, mid, nb, tag, *_rest) in self.bdry:
            if tag == DIRICHLET:
                out.update((na, mid, nb))
        return np.array(sorted(out), dtype=int)

    def morph(self, map_fn):
        """New mesh with nodes moved by an (admissible) map; combinatorics kept."""
        return self.with_nodes(np.atleast_2d(map_fn(self.vx)))

    def with_nodes(self, vx):
        """New mesh with the node positions vx; combinatorics kept.

        Raises MeshError when an element is inverted or has an angle below
        2 degrees."""
        out = CrackMesh(vx, self.tris, self.sector, self.n_vertex, self.crack,
                        self.junction_nodes, self.bdry, self.outer_param, self.h,
                        self.vertex_mask, self.elem_mask, self.mu)
        if not out.orientation_ok():
            raise MeshError("morph produced inverted elements")
        if out.min_angle() < 2.0:
            raise MeshError("morph degraded mesh quality below 2 degrees")
        return out

    def fuse_crack(self):
        """Continuous mesh: crack duplicates identified (no-slit variant)."""
        remap = np.arange(self.n_nodes)
        for arm in self.crack:
            for p, m in zip(arm["plus"], arm["minus"]):
                remap[m] = p
        j = self.junction_nodes
        remap[j[1]] = remap[j[0]]
        remap[j[2]] = remap[j[0]]
        # resolve chains (contact duplicates may appear in two arms)
        for _ in range(3):
            remap = remap[remap]
        used = np.unique(remap[self.tris])
        new_id = -np.ones(self.n_nodes, dtype=int)
        new_id[used] = np.arange(used.size)
        tris = new_id[remap[self.tris]]
        vx = self.vx[used]
        nvert = int(np.sum(used < self.n_vertex))
        bdry = [(new_id[remap[a]], new_id[remap[m]], new_id[remap[b]], tag, ta, tb)
                for (a, m, b, tag, ta, tb) in self.bdry]
        outer_param = {new_id[remap[k]]: v for k, v in self.outer_param.items()}
        return CrackMesh(vx, tris, self.sector, nvert, [], new_id[remap[self.junction_nodes]],
                         bdry, outer_param, self.h)

    # ------------------------------------------------------------------
    def dump(self, stream):
        w = stream.write
        w("# trijunction crack mesh\n")
        w("h = %.17g\n" % self.h)
        w("counts = %d %d %d\n" % (self.n_nodes, self.n_vertex, self.n_tris))
        w("[vertices]\n")
        for p in self.vx:
            w("%.17g %.17g\n" % (p[0], p[1]))
        w("[triangles]\n")
        for t, s in zip(self.tris, self.sector):
            w("%d %d %d %d %d %d %d\n" % (t[0], t[1], t[2], t[3], t[4], t[5], s))
        w("[junction]\n")
        w("%d %d %d\n" % tuple(self.junction_nodes))
        w("[crack]\n")
        for i, arm in enumerate(self.crack):
            w("arm %d %d\n" % (i, len(arm["s"])))
            for s, p, m in zip(arm["s"], arm["plus"], arm["minus"]):
                w("%.17g %d %d\n" % (s, p, m))
        w("[boundary]\n")
        for (a, m, b, tag, ta, tb) in self.bdry:
            w("%d %d %d %d %.17g %.17g\n" % (a, m, b, tag, ta, tb))
        if self.vertex_mask is not None:
            w("[mask]\n")
            w("mu = %.17g\n" % self.mu)
            w(" ".join("%d" % int(v) for v in self.vertex_mask) + "\n")
            w(" ".join("%d" % int(v) for v in self.elem_mask) + "\n")

    def dump_text(self):
        import io
        buf = io.StringIO()
        self.dump(buf)
        return buf.getvalue()

    def content_hash(self):
        return hashlib.sha256(self.dump_text().encode()).hexdigest()[:16]

    @classmethod
    def restore(cls, stream):
        lines = [ln.rstrip("\n") for ln in stream]
        it = iter(lines)
        h = mu = None
        counts = None
        vx = tris = sector = None
        junction = None
        crack = []
        bdry = []
        vertex_mask = elem_mask = None
        mode = None
        row_v = row_t = 0
        for ln in it:
            s = ln.strip()
            if not s or s.startswith("#"):
                continue
            if s.startswith("h ="):
                h = float(s.split("=")[1])
                continue
            if s.startswith("counts ="):
                counts = [int(v) for v in s.split("=")[1].split()]
                vx = np.empty((counts[0], 2))
                tris = np.empty((counts[2], 6), dtype=int)
                sector = np.empty(counts[2], dtype=int)
                continue
            if s.startswith("["):
                mode = s.strip("[]")
                continue
            if mode == "vertices":
                vx[row_v] = [float(v) for v in s.split()]
                row_v += 1
            elif mode == "triangles":
                vals = [int(v) for v in s.split()]
                tris[row_t] = vals[:6]
                sector[row_t] = vals[6]
                row_t += 1
            elif mode == "junction":
                junction = [int(v) for v in s.split()]
            elif mode == "crack":
                if s.startswith("arm"):
                    _, idx, n = s.split()
                    crack.append({"s": [], "plus": [], "minus": []})
                else:
                    sv, p, m = s.split()
                    crack[-1]["s"].append(float(sv))
                    crack[-1]["plus"].append(int(p))
                    crack[-1]["minus"].append(int(m))
            elif mode == "boundary":
                a, m, b, tag, ta, tb = s.split()
                bdry.append((int(a), int(m), int(b), int(tag), float(ta), float(tb)))
            elif mode == "mask":
                if s.startswith("mu ="):
                    mu = float(s.split("=")[1])
                elif vertex_mask is None:
                    vertex_mask = np.array([int(v) for v in s.split()], dtype=bool)
                else:
                    elem_mask = np.array([int(v) for v in s.split()], dtype=bool)
        for arm in crack:
            arm["s"] = np.asarray(arm["s"])
            arm["plus"] = np.asarray(arm["plus"], dtype=int)
            arm["minus"] = np.asarray(arm["minus"], dtype=int)
        outer_param = {}
        for (a, m, b, tag, ta, tb) in bdry:
            outer_param[a] = ta
            outer_param[b] = tb
            outer_param[m] = 0.5 * (ta + tb)
        return cls(vx, tris, sector, counts[1], crack, junction, bdry,
                   outer_param, h, vertex_mask, elem_mask, mu)


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------

def _bridge(c0, c1):
    """Combinatorial strip between rows with c0 and c1 segments (c0 <= rows)."""
    tris = []
    j = l = 0
    while j < c0 or l < c1:
        adv_top = False
        if j == c0:
            adv_top = True
        elif l < c1 and (l + 1) * max(c0, 1) <= (j + 1) * c1:
            adv_top = True
        if adv_top:
            tris.append(("t", j, l, l + 1))
            l += 1
        else:
            tris.append(("b", j, j + 1, l))
            j += 1
    return tris


def _grade_segment(n, left_s, right_s):
    """n+1 fractions in [0,1], clustered toward graded endpoints.

    Sinusoidal grading bounds the smallest edge at (1-beta) of uniform, with
    beta = 0.45, independently of n, so the strips against the uniform rows
    below never degenerate under refinement.
    """
    beta = 0.45
    u = np.linspace(0.0, 1.0, n + 1)
    if left_s and right_s:
        return u - beta / (2 * np.pi) * np.sin(2 * np.pi * u)
    if left_s:
        return u - beta / np.pi * np.sin(np.pi * u)
    if right_s:
        return u + beta / np.pi * np.sin(np.pi * u)
    return u


class _SectorPatch:
    """Transfinite map of one curved sector (two arms + outer arc)."""

    def __init__(self, arm_a, arm_b, outer, t_a, t_b, P0):
        self.arm_a, self.arm_b, self.outer = arm_a, arm_b, outer
        self.t_a, self.t_b = t_a, t_b  # unwrapped traversal interval on outer
        self.P0 = np.asarray(P0, float)
        self.P1 = arm_a.point(1.0)
        self.P2 = arm_b.point(1.0)
        self.gb = None  # arc reparametrization (set by generator)

    def side_a(self, t):
        return self.arm_a.point(np.asarray(t, float))

    def side_c(self, t):
        return self.arm_b.point(np.asarray(t, float))

    def side_b(self, t):
        u = self.gb(np.asarray(t, float)) if self.gb is not None else \
            self.t_a + np.asarray(t, float) * (self.t_b - self.t_a)
        return self.outer.point(np.mod(u, 1.0))

    def arc_param(self, t):
        u = self.gb(np.asarray(t, float)) if self.gb is not None else \
            self.t_a + np.asarray(t, float) * (self.t_b - self.t_a)
        return u

    def map(self, lam):
        """Transfinite interpolant at barycentric coordinates (n, 3)."""
        lam = np.atleast_2d(np.asarray(lam, float))
        l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
        eps = 1e-14
        w01, w12, w02 = l0 + l1, l1 + l2, l0 + l2
        ta = np.where(w01 > eps, l1 / np.maximum(w01, eps), 0.0)
        tb = np.where(w12 > eps, l2 / np.maximum(w12, eps), 0.0)
        tc = np.where(w02 > eps, l2 / np.maximum(w02, eps), 0.0)
        out = (w01[:, None] * self.side_a(ta) + w12[:, None] * self.side_b(tb)
               + w02[:, None] * self.side_c(tc)
               - l0[:, None] * self.P0 - l1[:, None] * self.P1 - l2[:, None] * self.P2)
        return out


def generate_crack_mesh(config, h):
    """Conforming quadratic triangulation of the slit domain at size h.

    Deterministic; crack and boundary nodes (midnodes included) lie exactly
    on the configured splines; the boundary sampling places nodes exactly at
    the Dirichlet transition points and grades geometrically toward them.
    """
    x0 = config.junction
    # ccw ordering of the arms by tangent angle at the junction
    th = np.array([np.arctan2(*arm.tangent(0.0)[::-1]) for arm in config.arms])
    order = list(np.argsort(th))
    arms = [config.arms[i] for i in order]
    tc = [config.contact_params[i] for i in order]

    m = max(int(round(arm.length / h)) for arm in arms)
    m = max(m, 8)
    if min(int(round(arm.length / h)) for arm in arms) < 8:
        raise MeshError("h too coarse: an arm would carry fewer than 8 crack edges")

    sectors = []
    for s in range(3):
        a, b = tc[s], tc[(s + 1) % 3]
        third = tc[(s + 2) % 3]
        # traverse the outer curve from a to b without passing the third contact
        cand = [(a, b if b > a else b + 1.0)]
        cand.append((a, b if b < a else b - 1.0))
        chosen = None
        for (ta, tb) in cand:
            lo, hi = min(ta, tb), max(ta, tb)
            bad = False
            for t3 in (third, third + 1.0, third - 1.0):
                if lo + 1e-12 < t3 < hi - 1e-12:
                    bad = True
            if not bad:
                chosen = (ta, tb)
                break
        if chosen is None:
            raise MeshError("could not order boundary arcs between contacts")
        patch = _SectorPatch(arms[s], arms[(s + 1) % 3], config.outer,
                             chosen[0], chosen[1], x0)
        sectors.append(patch)

    # node creation ---------------------------------------------------
    outer_param = {}
    sector_data = []
    for s, patch in enumerate(sectors):
        arc_len = abs(config.outer.length * (patch.t_b - patch.t_a))
        n_arc = max(6, int(round(arc_len / h)))
        gb, n_arc = _arc_reparam(config, patch, n_arc)
        patch.gb = gb
        rows = []
        for k in range(m + 1):
            rho = k / m
            ck = 0 if k == 0 else max(1, int(round(n_arc * k / m)))
            sig = np.linspace(0.0, 1.0, ck + 1) if ck > 0 else np.array([0.0])
            lam = np.stack([(1 - rho) * np.ones_like(sig), rho * (1 - sig), rho * sig], axis=1)
            if k == 0:
                xy = x0[None, :].copy()
            elif k == m:
                xy = patch.side_b(sig)
            else:
                xy = patch.map(lam)
                xy[0] = patch.side_a(rho)   # exact spline points on the arms
                xy[-1] = patch.side_c(rho)
            rows.append({"xy": xy, "ck": ck, "rho": rho, "sig": sig})
        sector_data.append({"rows": rows, "patch": patch, "n_arc": n_arc})
    # assign global ids
    node_xy = []
    for s, sd in enumerate(sector_data):
        for r in sd["rows"]:
            r["ids"] = np.arange(len(node_xy), len(node_xy) + r["xy"].shape[0])
            node_xy.extend(r["xy"])
        last = sd["rows"][-1]
        for j, t in enumerate(last["sig"]):
            outer_param[int(last["ids"][j])] = float(np.mod(sd["patch"].arc_param(t), 1.0))
    node_xy = np.asarray(node_xy)

    # triangles --------------------------------------------------------
    tri_list = []
    sec_list = []
    for s, sd in enumerate(sector_data):
        rows = sd["rows"]
        for k in range(m):
            A, B = rows[k], rows[k + 1]
            for kind, j, u, v in _bridge(A["ck"], B["ck"]):
                if kind == "t":
                    tri = (A["ids"][j], B["ids"][u], B["ids"][v])
                else:
                    tri = (A["ids"][j], A["ids"][u], B["ids"][v])
                p = node_xy[list(tri)]
                u, v = p[1] - p[0], p[2] - p[0]
                if u[0] * v[1] - u[1] * v[0] < 0:
                    tri = (tri[0], tri[2], tri[1])
                tri_list.append(tri)
                sec_list.append(s)
    tris3 = np.asarray(tri_list, dtype=int)
    sector = np.asarray(sec_list, dtype=int)
    n_vertex = node_xy.shape[0]

    # deterministic interior smoothing (boundary, crack and junction fixed)
    fixed = np.zeros(n_vertex, dtype=bool)
    for sd in sector_data:
        rows = sd["rows"]
        for r in rows:
            fixed[r["ids"][0]] = True       # side a (arm)
            fixed[r["ids"][-1]] = True      # side c (arm)
        fixed[rows[-1]["ids"]] = True       # outer arc
        fixed[rows[0]["ids"]] = True        # junction copy
    node_xy = _smooth_interior(node_xy, tris3, fixed, iterations=8, lam=0.5)

    # midnodes -----------------------------------------------------------
    vx, tris, edge_mid = _add_midnodes(node_xy, tris3, sector_data, config, outer_param)

    # crack bookkeeping ----------------------------------------------
    crack, junction_nodes = _crack_tables(config, order, sector_data, edge_mid, vx, m)

    # boundary edges ------------------------------------------------------
    bdry = _boundary_edges(config, sector_data, edge_mid, outer_param)

    mesh = CrackMesh(vx, tris, sector, n_vertex, crack,
                     junction_nodes, bdry, outer_param, h)
    if not mesh.orientation_ok():
        raise MeshError("generated mesh contains inverted triangles")
    if mesh.min_angle() < 20.0:
        raise MeshError("mesh quality unreachable: min angle %.1f deg < 20 deg "
                        "(worst near junction rows)" % mesh.min_angle())
    return mesh


def _min_angle_p1(xy, tris3):
    p = xy[tris3]
    worst = np.inf
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        ca = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1)
                                      * np.linalg.norm(b, axis=1))
        worst = min(worst, float(np.degrees(np.min(np.arccos(np.clip(ca, -1, 1))))))
    return worst


def _smooth_interior(node_xy, tris3, fixed, iterations=8, lam=0.5):
    """Damped Laplacian smoothing of the free vertices, keeping the best
    iterate by minimum angle (deterministic; smoothing never degrades)."""
    n = node_xy.shape[0]
    i0 = np.concatenate([tris3[:, 0], tris3[:, 1], tris3[:, 2],
                         tris3[:, 1], tris3[:, 2], tris3[:, 0]])
    i1 = np.concatenate([tris3[:, 1], tris3[:, 2], tris3[:, 0],
                         tris3[:, 0], tris3[:, 1], tris3[:, 2]])
    xy = node_xy.copy()
    deg = np.bincount(i0, minlength=n).astype(float)
    free = ~fixed
    best = xy.copy()
    best_q = _min_angle_p1(xy, tris3)
    for _ in range(iterations):
        acc = np.zeros_like(xy)
        np.add.at(acc, i0, xy[i1])
        target = acc / deg[:, None]
        xy[free] = (1 - lam) * xy[free] + lam * target[free]
        q = _min_angle_p1(xy, tris3)
        if q > best_q:
            best_q = q
            best = xy.copy()
    return best


def _arc_reparam(config, patch, n_arc):
    """Monotone reparametrization of the outer arc hitting the Dirichlet
    transition parameters exactly, geometrically graded toward them."""
    ta, tb = patch.t_a, patch.t_b
    lo, hi = min(ta, tb), max(ta, tb)
    forced = []
    for (a, b) in config.dirichlet_arcs:
        for t in (a, b):
            for cand in (t, t + 1.0, t - 1.0):
                if lo + 1e-9 < cand < hi - 1e-9:
                    forced.append(cand)
    forced = sorted(set(forced))
    brk = [lo] + forced + [hi]
    seg_len = np.diff(brk)
    counts = np.maximum(1, np.round(n_arc * seg_len / (hi - lo)).astype(int))
    n_total = int(np.sum(counts))
    params = [brk[0]]
    for i, (c, (l, r)) in enumerate(zip(counts, zip(brk[:-1], brk[1:]))):
        left_s = brk[i] in forced or (i > 0)
        right_s = brk[i + 1] in forced or (i + 1 < len(brk) - 1)
        frac = _grade_segment(c, left_s, right_s)
        params.extend((l + frac[1:] * (r - l)).tolist())
    params = np.asarray(params)
    if ta > tb:
        params = params[::-1]
    u = np.linspace(0.0, 1.0, n_total + 1)
    interp = PchipInterpolator(u, params)
    return interp, n_total


def _add_midnodes(node_xy, tris3, sector_data, config, outer_param):
    """Append P2 midnodes; arm/arc edge midnodes lie on the splines."""
    on_arm = {}
    for s, sd in enumerate(sector_data):
        rows = sd["rows"]
        pa = sd["patch"]
        for k in range(len(rows) - 1):
            r0, r1 = rows[k], rows[k + 1]
            # consecutive arm nodes along side a (sig=0) and side c (sig=1)
            on_arm[(int(r0["ids"][0]), int(r1["ids"][0]))] = ("a", s, r0["rho"], r1["rho"])
            on_arm[(int(r0["ids"][-1]), int(r1["ids"][-1]))] = ("c", s, r0["rho"], r1["rho"])
        last = rows[-1]
        for j in range(len(last["sig"]) - 1):
            on_arm[(int(last["ids"][j]), int(last["ids"][j + 1]))] = (
                "b", s, last["sig"][j], last["sig"][j + 1])

    edge_mid = {}
    mids = []
    nxt = node_xy.shape[0]
    tris = np.empty((tris3.shape[0], 6), dtype=int)
    tris[:, :3] = tris3
    for t in range(tris3.shape[0]):
        for e, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            a, b = int(tris3[t, i]), int(tris3[t, j])
            key = (a, b) if a < b else (b, a)
            if key not in edge_mid:
                info = on_arm.get((a, b)) or on_arm.get((b, a))
                if info is None:
                    xy = 0.5 * (node_xy[a] + node_xy[b])
                else:
                    side, s, u0, u1 = info
                    pa = sector_data[s]["patch"]
                    um = 0.5 * (u0 + u1)
                    if side == "a":
                        xy = pa.side_a(um)
                    elif side == "c":
                        xy = pa.side_c(um)
                    else:
                        xy = pa.side_b(um)
                        outer_param[nxt] = float(np.mod(pa.arc_param(um), 1.0))
                edge_mid[key] = nxt
                mids.append(xy)
                nxt += 1
            tris[t, 3 + e] = edge_mid[key]
    vx = np.vstack([node_xy, np.asarray(mids)]) if mids else node_xy
    return vx, tris, edge_mid


def _crack_tables(config, order, sector_data, edge_mid, vx, m):
    """Ordered plus/minus node tables per arm (original arm indexing)."""
    # ordered arm o is side 'a' of sector o and side 'c' of sector o-1
    per_arm_sides = {}
    for o in range(3):
        ids_a, params_a = _arm_side_nodes(sector_data[o], "a", edge_mid, m)
        ids_c, params_c = _arm_side_nodes(sector_data[(o - 1) % 3], "c", edge_mid, m)
        if not np.allclose(params_a, params_c, atol=1e-13):
            raise MeshError("arm sampled inconsistently from its two sectors")
        per_arm_sides[o] = {"sec_a": o, "ids_a": ids_a,
                            "sec_c": (o - 1) % 3, "ids_c": ids_c,
                            "s": params_a}
    crack = [None, None, None]
    for o in range(3):
        i_orig = order[o]
        arm = config.arms[i_orig]
        rec = per_arm_sides[o]
        mid_idx = len(rec["s"]) // 2
        s_mid = rec["s"][mid_idx]
        probe = arm.point(s_mid) + 0.05 * config.arms[i_orig].length / m * arm.normal(s_mid)
        poly = _sector_outline(sector_data[rec["sec_a"]], vx)
        in_a = bool(point_in_polygon(probe[None, :], poly)[0])
        if in_a:
            plus_sec, plus_ids = rec["sec_a"], rec["ids_a"]
            minus_sec, minus_ids = rec["sec_c"], rec["ids_c"]
        else:
            plus_sec, plus_ids = rec["sec_c"], rec["ids_c"]
            minus_sec, minus_ids = rec["sec_a"], rec["ids_a"]
        crack[i_orig] = {"s": np.asarray(rec["s"]),
                         "plus": np.asarray(plus_ids, dtype=int),
                         "minus": np.asarray(minus_ids, dtype=int),
                         "plus_sector": plus_sec, "minus_sector": minus_sec}
    junction = [sector_data[s]["rows"][0]["ids"][0] for s in range(3)]
    return crack, np.asarray(junction, dtype=int)


def _arm_side_nodes(sd, side, edge_mid, m):
    rows = sd["rows"]
    idx = 0 if side == "a" else -1
    ids = []
    params = []
    for k in range(m + 1):
        ids.append(int(rows[k]["ids"][idx]))
        params.append(k / m)
        if k < m:
            a, b = int(rows[k]["ids"][idx]), int(rows[k + 1]["ids"][idx])
            key = (a, b) if a < b else (b, a)
            ids.append(edge_mid[key])
            params.append((k + 0.5) / m)
    return ids, np.asarray(params)


def _sector_outline(sd, vx):
    rows = sd["rows"]
    ids = [int(r["ids"][0]) for r in rows]
    ids += [int(j) for j in rows[-1]["ids"][1:]]
    ids += [int(r["ids"][-1]) for r in rows[::-1][1:]]
    poly = vx[ids]
    return np.vstack([poly, poly[:1]])


def _boundary_edges(config, sector_data, edge_mid, outer_param):
    bdry = []
    for s, sd in enumerate(sector_data):
        last = sd["rows"][-1]
        pa = sd["patch"]
        for j in range(len(last["sig"]) - 1):
            a, b = int(last["ids"][j]), int(last["ids"][j + 1])
            key = (a, b) if a < b else (b, a)
            mid = edge_mid[key]
            ua = pa.arc_param(last["sig"][j])
            ub = pa.arc_param(last["sig"][j + 1])
            lo, hi = min(ua, ub), max(ua, ub)
            tag = NEU_OUTER
            for (da, db) in config.dirichlet_arcs:
                for off in (0.0, 1.0, -1.0):
                    if da + off - 1e-10 <= lo and hi <= db + off + 1e-10:
                        tag = DIRICHLET
            bdry.append((a, mid, b, tag, float(np.mod(ua, 1.0)), float(np.mod(ub, 1.0))))
        # crack sides are Neumann by construction; record arm edges for tagging
    return bdry


# ----------------------------------------------------------------------
# admissible subdomain marking
# ----------------------------------------------------------------------

def mark_admissible_subdomain(mesh, config, mu):
    """Vertex/element masks for the tubular subdomain (Gamma)_mu.

    The marked copy shares the node array and the operator slot of mesh: its
    geometry is the same, so is its stiffness operator.
    """
    if mu <= 0:
        raise ConfigError("subdomain radius must be positive (Gamma must lie in U)")
    for p in config.transition_points():
        if config.distance_to_crack(p[None, :])[0] <= mu:
            raise ConfigError("(Gamma)_mu touches the Dirichlet/Neumann transition set")
    d = config.distance_to_crack(mesh.vx)
    vmask = d <= mu
    centroids = mesh.vx[mesh.tris[:, :3]].mean(axis=1)
    emask = config.distance_to_crack(centroids) <= mu
    # Dirichlet edges must stay clear of the mask by >= 2h
    dn = mesh.dirichlet_nodes()
    if dn.size and np.min(d[dn]) < mu + 2.0 * mesh.h:
        raise ConfigError("Dirichlet boundary closer than 2h to the subdomain")
    out = CrackMesh(mesh.vx, mesh.tris, mesh.sector, mesh.n_vertex, mesh.crack,
                    mesh.junction_nodes, mesh.bdry, mesh.outer_param, mesh.h,
                    vmask, emask, float(mu))
    out.operator_slot = mesh.operator_slot
    return out
