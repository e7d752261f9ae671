import functools
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trijunction import (disk_config, generate_crack_mesh, mark_admissible_subdomain,
                         solve_equilibrium, solve_transported, solve_shape_derivative,
                         solve_vphi, SectorConstants, CrackField, Operator,
                         refine_uniform, prolong, SolveError, JunctionScalar,
                         VectorField, VelocityPair, radial_bump, rk4_flow,
                         ParamCurve, assemble_boundary_load, CrackMesh, MeshError)
from trijunction.fem import (p2_basis, Assembly, CrackLoadAssembler, CrackQuadrature,
                             mesh_operator, transported_pin_set)


def test_sector_constants_exact(disk):
    cfg, mesh, u = disk
    op = mesh_operator(mesh)
    for s, c in zip(range(3), [1.0, 2.0, 3.0]):
        vals = u.values[op.node_sector == s]
        assert np.max(np.abs(vals - c)) < 1e-11
    assert u.energy() < 1e-20


def test_traces_sector_constants(disk):
    cfg, mesh, u = disk
    s = np.linspace(0, 1, 17)
    for i in range(3):
        up, um = u.traces(i)
        vp = np.unique(np.round(up.value(s), 9))
        vm = np.unique(np.round(um.value(s), 9))
        assert vp.size == 1 and vm.size == 1 and vp[0] != vm[0]
        assert np.max(np.abs(up.darc(s))) < 1e-10


def test_continuous_field_has_equal_traces(disk):
    cfg, mesh, u = disk
    f = CrackField(mesh, mesh.vx[:, 0] + 0.3 * mesh.vx[:, 1])
    s = np.linspace(0, 1, 23)
    for i in range(3):
        up, um = f.traces(i)
        assert np.max(np.abs(up.value(s) - um.value(s))) < 1e-12


def test_galerkin_orthogonality(disk):
    cfg, mesh, u = disk
    op = mesh_operator(mesh)
    free = np.setdiff1d(np.arange(mesh.n_nodes), mesh.dirichlet_nodes())
    assert np.max(np.abs((op.A @ u.values)[free])) < 1e-10


def test_dirichlet_energy_examples(disk):
    cfg, mesh, u = disk
    # nodal interpolants of linear / quadratic fields (P2-exact)
    fx = CrackField(mesh, mesh.vx[:, 0])
    assert fx.energy() == pytest.approx(np.pi, rel=2e-4)   # |grad x|^2 = area
    z2 = CrackField(mesh, mesh.vx[:, 0] ** 2 - mesh.vx[:, 1] ** 2)
    assert z2.energy() == pytest.approx(2 * np.pi, rel=5e-4)
    const = CrackField(mesh, np.ones(mesh.n_nodes))
    assert const.energy() < 1e-24


def test_energy_high_order_requadrature(disk):
    cfg, mesh, u = disk
    ux = solve_equilibrium(cfg, mesh, lambda P: P[:, 0])
    e1 = ux.energy("U")
    e2 = ux.energy("U", subdivide=2)
    assert abs(e1 - e2) < 1e-8 * max(1.0, e1)


def test_manufactured_convergence():
    cfg = disk_config()
    ustar = lambda P: P[:, 0] ** 2 - P[:, 1] ** 2
    gneu = lambda P: 2 * P[:, 0] ** 2 - 2 * P[:, 1] ** 2
    errs = []
    for h in (0.12, 0.06, 0.03):
        mesh = generate_crack_mesh(cfg, h).fuse_crack()
        u = solve_equilibrium(cfg, mesh, ustar, neumann_load=gneu)
        errs.append(Assembly(mesh).l2_error(u.values, ustar))
    assert errs[0] / errs[1] > 6.0
    assert errs[1] / errs[2] > 6.0


def test_energy_rate_manufactured():
    cfg = disk_config()
    ustar = lambda P: P[:, 0] ** 2 - P[:, 1] ** 2
    gneu = lambda P: 2 * P[:, 0] ** 2 - 2 * P[:, 1] ** 2
    errs = []
    for h in (0.12, 0.06):
        mesh = generate_crack_mesh(cfg, h).fuse_crack()
        u = solve_equilibrium(cfg, mesh, ustar, neumann_load=gneu)
        errs.append(abs(u.energy() - 2 * np.pi))
    rate = np.log2(errs[0] / errs[1])
    assert rate > 1.9


def test_empty_dirichlet_rejected(disk):
    cfg, mesh, _ = disk
    op = mesh_operator(mesh)
    with pytest.raises(SolveError):
        op.solve_pinned(np.array([], dtype=int), np.array([]))


def test_nested_refinement_energy_monotone(disk):
    cfg, mesh, _ = disk
    u = solve_equilibrium(cfg, mesh, lambda P: P[:, 0])
    fine = refine_uniform(mesh)
    up = prolong(u, fine)
    op2 = Operator(fine)
    e_prolonged = CrackField(fine, up.values, op2).energy()
    u2 = op2.solve_pinned(fine.dirichlet_nodes(), up.values[fine.dirichlet_nodes()])
    e_fine = CrackField(fine, u2, op2).energy()
    assert e_fine <= e_prolonged + 1e-12


def test_transported_identity(disk):
    cfg, mesh, u = disk
    ux = solve_equilibrium(cfg, mesh, lambda P: P[:, 0])
    mesh_t = mesh.morph(lambda P: P)
    u_t = solve_transported(mesh_t, ux)
    assert np.max(np.abs(u_t.values - ux.values)) < 1e-9


def test_transported_constants_stay_optimal(disk, rng):
    cfg, mesh, u = disk
    c = cfg.arms[0].point(0.5)
    X = VectorField(lambda P: radial_bump(P, c, 0.02, 0.15)[:, None] @ np.array([[0.05, 0.02]]))
    mesh_t = mesh.morph(lambda P: rk4_flow(X, P, 1.0))
    u_t = solve_transported(mesh_t, u)
    assert u_t.energy() < 1e-18


def test_transported_galerkin_optimality(disk, rng):
    cfg, mesh, _ = disk
    ux = solve_equilibrium(cfg, mesh, lambda P: P[:, 0])
    c = cfg.arms[0].point(0.5)
    X = VectorField(lambda P: radial_bump(P, c, 0.02, 0.15)[:, None] @ np.array([[0.05, 0.02]]))
    mesh_t = mesh.morph(lambda P: rk4_flow(X, P, 1.0))
    u_t = solve_transported(mesh_t, ux)
    e_min = u_t.energy()
    pinned = transported_pin_set(mesh_t)
    free = np.setdiff1d(np.arange(mesh_t.n_nodes), pinned)
    for _ in range(10):
        w = np.zeros(mesh_t.n_nodes)
        w[free] = 1e-3 * rng.standard_normal(free.size)
        trial = CrackField(mesh_t, u_t.values + w, mesh_operator(mesh_t))
        assert trial.energy() >= e_min - 1e-12


def _bump_pair(cfg, center_s=0.45, d=(0.13, 0.07)):
    c = cfg.arms[0].point(center_s)
    X = VectorField(lambda P: radial_bump(P, c, 0.02, 0.8 * cfg.mu)[:, None]
                    * np.asarray(d, float))
    return VelocityPair.autonomous(X)


def test_shape_derivative_trivial_cases(disk):
    cfg, mesh, u = disk
    V = _bump_pair(cfg)
    du = solve_shape_derivative(cfg, u, V)
    assert np.max(np.abs(du.values)) < 1e-10  # locally constant u
    ux = solve_equilibrium(cfg, mesh, lambda P: P[:, 0])
    du0 = solve_shape_derivative(cfg, ux, VelocityPair(VectorField.zero()))
    assert np.max(np.abs(du0.values)) < 1e-12


def test_shape_derivative_transport_fd(bent, rng):
    """The solved field is the t-derivative of the transported solutions at
    fixed spatial points: central quotients of u_t over the flow match it."""
    cfg, mesh, u = bent
    V = _bump_pair(cfg)
    du = solve_shape_derivative(cfg, u, V)
    t = 1e-3
    fields = {}
    for sign in (+1, -1):
        mp = lambda P, sign=sign: rk4_flow(V.X, P, sign * t)
        mesh_t = mesh.morph(mp)
        fields[sign] = solve_transported(mesh_t, u)
    # probe points inside U, away from the (moving) crack
    op = mesh_operator(mesh)
    probes = []
    for s in range(3):
        nodes = np.where((op.node_sector == s) & mesh.vertex_mask)[0]
        pts = mesh.vx[nodes]
        d = cfg.distance_to_crack(pts)
        good = nodes[(d > 0.05) & (d < 0.9 * cfg.mu)]
        pick = good[rng.integers(0, good.size, 12)]
        probes.append((s, mesh.vx[pick]))
    num = den = 0.0
    for s, pts in probes:
        quot = (fields[1].eval(pts, s) - fields[-1].eval(pts, s)) / (2 * t)
        val = du.eval(pts, s)
        num += np.sum((quot - val) ** 2)
        den += np.sum(val ** 2)
    assert np.sqrt(num / den) < 5e-2


def test_vphi_consistency_and_linearity(bent, rng):
    cfg, mesh, u = bent
    V = _bump_pair(cfg)
    du = solve_shape_derivative(cfg, u, V)
    n = 65
    nodal = []
    for i, arm in enumerate(cfg.arms):
        s = np.linspace(0, 1, n)
        nodal.append(np.sum(V.X(arm.point(s)) * arm.normal(s), axis=1))
    phi = JunctionScalar(nodal, check_constraint=False)
    vphi = solve_vphi(cfg, u, phi)
    scale = max(1.0, np.abs(du.values).max())
    assert np.max(np.abs(vphi.values - du.values)) < 2e-4 * scale
    # linearity
    phi1 = JunctionScalar([rng.standard_normal(n) * 0.1 for _ in range(3)],
                          check_constraint=False)
    phi2 = JunctionScalar([rng.standard_normal(n) * 0.1 for _ in range(3)],
                          check_constraint=False)
    a, b = 0.7, -1.3
    v1 = solve_vphi(cfg, u, phi1)
    v2 = solve_vphi(cfg, u, phi2)
    v12 = solve_vphi(cfg, u, phi1.scaled(a) + phi2.scaled(b))
    err = np.max(np.abs(v12.values - a * v1.values - b * v2.values))
    assert err < 1e-9 * max(1.0, np.abs(v12.values).max())


def test_vphi_trivial(disk):
    cfg, mesh, u = disk
    phi = JunctionScalar.zero(33)
    v = solve_vphi(cfg, u, phi)
    assert np.max(np.abs(v.values)) < 1e-14
    phi2 = JunctionScalar.from_callables(
        [lambda s: np.sin(np.pi * s)] * 3, 33, project_constraint=True)
    v2 = solve_vphi(cfg, u, phi2)  # locally constant u: zero data
    assert np.max(np.abs(v2.values)) < 1e-10


def test_pairing_symmetry(bent, rng):
    """The realized duality pairing is symmetric: b(phi, psi) = b(psi, phi)."""
    cfg, mesh, u = bent
    asmb = CrackLoadAssembler(mesh, u, cfg.arms)
    n = 49
    for _ in range(4):
        p1 = JunctionScalar([rng.standard_normal(n) * 0.2 for _ in range(3)],
                            check_constraint=False)
        p2 = JunctionScalar([rng.standard_normal(n) * 0.2 for _ in range(3)],
                            check_constraint=False)
        b1 = asmb.rhs(lambda a, s, pos: p1.eval(a, s))
        b2 = asmb.rhs(lambda a, s, pos: p2.eval(a, s))
        v1 = solve_vphi(cfg, u, p1, assembler=asmb)
        v2 = solve_vphi(cfg, u, p2, assembler=asmb)
        lhs = float(b1 @ v2.values)
        rhs = float(b2 @ v1.values)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_jump_recovery(disk):
    """A manufactured inter-sector jump is reproduced by the traces."""
    cfg, mesh, u = disk
    op = mesh_operator(mesh)
    vals = np.zeros(mesh.n_nodes)
    for s in range(3):
        sel = op.node_sector == s
        vals[sel] = (s + 1.0) + 0.5 * mesh.vx[sel, 0]
    f = CrackField(mesh, vals)
    ss = np.linspace(0, 1, 33)
    for i in range(3):
        rec = mesh.crack[i]
        up, um = f.traces(i)
        jump = up.value(ss) - um.value(ss)
        sp = int(rec["plus_sector"])
        sm = int(rec["minus_sector"])
        expect = (sp - sm) * np.ones_like(ss)
        assert np.max(np.abs(jump - expect)) < 1e-10


def test_gradient_decay_at_endpoints_symmetric(disk):
    cfg, mesh, u = disk
    for i in range(3):
        up, um = u.traces(i)
        for tf in (up, um):
            assert abs(tf.darc(np.array([0.0]))[0]) < 1e-9
            assert abs(tf.darc(np.array([1.0]))[0]) < 1e-9


def test_boundary_load_constant():
    cfg = disk_config()
    mesh = generate_crack_mesh(cfg, 0.06)
    b = assemble_boundary_load(mesh, lambda P: np.ones(P.shape[0]))
    # total Neumann mass = length of the non-Dirichlet boundary
    dir_len = sum((b_ - a_) for (a_, b_) in cfg.dirichlet_arcs) * cfg.outer.length
    assert b.sum() == pytest.approx(cfg.outer.length - dir_len, rel=1e-6)


def test_marked_copy_shares_the_operator(disk):
    """A marked copy has the nodes, connectivity and sectors of its source,
    so it shares their stiffness operator, whichever of the two builds it;
    a mesh with other nodes starts with none."""
    cfg, mesh, _ = disk
    marked = mark_admissible_subdomain(mesh, cfg, 0.15)
    assert marked.vx is mesh.vx
    assert mesh_operator(marked) is mesh_operator(mesh)
    coarse = generate_crack_mesh(cfg, 0.12)
    coarse_marked = mark_admissible_subdomain(coarse, cfg, cfg.mu)
    assert mesh_operator(coarse_marked) is mesh_operator(coarse)
    for other in (coarse.with_nodes(coarse.vx.copy()), coarse.morph(lambda P: P),
                  refine_uniform(coarse), CrackMesh.restore(io.StringIO(coarse.dump_text()))):
        assert not other.operator_slot
        assert mesh_operator(other) is not mesh_operator(coarse)


def _jump_indicator_loop(tf):
    """The edge loop that TraceFn.derivative_jump_indicator replaced."""
    sv = tf.s[::2]
    jumps = []
    for e in range(tf.n_edges - 1):
        left = tf.darc(np.array([sv[e + 1] - 1e-12]))[0]
        right = tf.darc(np.array([sv[e + 1] + 1e-12]))[0]
        jumps.append(abs(left - right))
    return float(np.median(jumps))


def test_derivative_jump_indicator_matches_edge_loop(disk, trilobe, bent):
    """Bitwise, on every arm side of the three configurations and of a
    refined mesh, whose plus and minus midnodes can differ in the last bit."""
    cfg, mesh, u = bent
    coarse = generate_crack_mesh(cfg, 0.1)
    fine = refine_uniform(coarse)
    refined = prolong(solve_equilibrium(cfg, coarse, lambda P: P[:, 0]), fine)
    for f in (disk[2], trilobe[2], u, refined):
        for i in range(3):
            for tf in f.traces(i):
                assert tf.derivative_jump_indicator() == _jump_indicator_loop(tf)


def test_crack_side_projection_is_the_separate_projections(bent):
    """Each arm side projects its Gauss points and its two endpoints in one
    call; the parameters equal those of projecting each set alone, on a
    generated and on a refined mesh."""
    cfg, mesh, u = bent
    coarse = generate_crack_mesh(cfg, 0.1)
    refined = prolong(solve_equilibrium(cfg, coarse, lambda P: P[:, 0]), refine_uniform(coarse))
    for f in (u, refined):
        for side in CrackQuadrature(f, cfg.arms).sides:
            arm = cfg.arms[side.arm]
            assert np.array_equal(side.s, arm.project(side.pos)[0])
            for end in side.ends:
                assert end["s"] == arm.project(end["pos"])[0][0]


# ----------------------------------------------------------------------
# nested refinement against the per-triangle loops it replaced
# ----------------------------------------------------------------------

_REF6 = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5)]
_CHILD_REF = [
    [(0, 0), (0.5, 0), (0, 0.5), (0.25, 0), (0.25, 0.25), (0, 0.25)],
    [(0.5, 0), (1, 0), (0.5, 0.5), (0.75, 0), (0.75, 0.25), (0.5, 0.25)],
    [(0, 0.5), (0.5, 0.5), (0, 1), (0.25, 0.5), (0.25, 0.75), (0, 0.75)],
    [(0.5, 0.5), (0, 0.5), (0.5, 0), (0.25, 0.5), (0.25, 0.25), (0.5, 0.25)],
]


def _refine_uniform_loop(mesh):
    """The per-triangle loop that fem.refine_uniform replaced."""
    key_to_id, new_xy = {}, []

    def node_at(parent_tri, ref_pt, key):
        if key not in key_to_id:
            N, _ = p2_basis(*ref_pt)
            key_to_id[key] = len(new_xy)
            new_xy.append(N @ mesh.vx[mesh.tris[parent_tri]])
        return key_to_id[key]

    for t in range(mesh.n_tris):
        for a in range(6):
            node_at(t, _REF6[a], ("p", int(mesh.tris[t, a])))
    n_vertex_new = len(new_xy)
    tris_new, sec_new = [], []
    for t in range(mesh.n_tris):
        for child in _CHILD_REF:
            conn = [key_to_id[("p", int(mesh.tris[t, _REF6.index(pt)]))] for pt in child[:3]]
            for k, pt in enumerate(child[3:]):
                a, b = conn[k], conn[(k + 1) % 3]
                conn.append(node_at(t, pt, ("e", min(a, b), max(a, b))))
            tris_new.append(conn)
            sec_new.append(mesh.sector[t])

    def edge(a, b):
        return key_to_id[("e", min(a, b), max(a, b))]

    def remap_chain(ids, s_params):
        out_ids, out_s = [], []
        for k in range(len(ids) - 1):
            a = key_to_id[("p", int(ids[k]))]
            b = key_to_id[("p", int(ids[k + 1]))]
            out_ids.extend([a, edge(a, b)])
            out_s.extend([s_params[k], 0.5 * (s_params[k] + s_params[k + 1])])
        out_ids.append(key_to_id[("p", int(ids[-1]))])
        out_s.append(s_params[-1])
        return np.asarray(out_ids, dtype=int), np.asarray(out_s)

    crack = []
    for rec in mesh.crack:
        p_ids, p_s = remap_chain(rec["plus"], rec["s"])
        m_ids, _ = remap_chain(rec["minus"], rec["s"])
        crack.append({"s": p_s, "plus": p_ids, "minus": m_ids,
                      "plus_sector": rec.get("plus_sector"),
                      "minus_sector": rec.get("minus_sector")})
    junction = np.array([key_to_id[("p", int(j))] for j in mesh.junction_nodes])
    bdry = []
    for (na, mid, nb, tag, ta, tb) in mesh.bdry:
        a, m, b = (key_to_id[("p", n)] for n in (na, mid, nb))
        tm = 0.5 * (ta + tb) if abs(tb - ta) < 0.5 else np.mod(0.5 * (ta + tb + 1.0), 1.0)
        bdry += [(a, edge(a, m), m, tag, ta, tm), (m, edge(m, b), b, tag, tm, tb)]
    outer_param = {}
    for (a, m, b, tag, ta, tb) in bdry:
        outer_param[a] = ta
        outer_param[b] = tb
    return CrackMesh(np.asarray(new_xy), np.asarray(tris_new, dtype=int),
                     np.asarray(sec_new, dtype=int), n_vertex_new, crack, junction, bdry,
                     outer_param, mesh.h / 2.0,
                     mu=mesh.mu if mesh.vertex_mask is not None else None)


def _prolong_loop(field, fine_mesh):
    """The per-triangle loop that fem.prolong replaced."""
    coarse = field.mesh
    vals = np.zeros(fine_mesh.n_nodes)
    seen = np.zeros(fine_mesh.n_nodes, dtype=bool)
    for t in range(coarse.n_tris):
        U = field.values[coarse.tris[t]]
        for c in range(4):
            for a in range(6):
                node = fine_mesh.tris[4 * t + c, a]
                if not seen[node]:
                    N, _ = p2_basis(*_CHILD_REF[c][a])
                    vals[node] = N @ U
                    seen[node] = True
    return vals


@pytest.mark.slow
def test_refine_and_prolong_match_the_triangle_loops(disk, trilobe, bent):
    """Bitwise, on the three configurations, from the marked h=0.05 mesh and
    from its refinement: the same mesh text, node coordinates and prolonged
    values, for the solution (first level) and for a non-polynomial field."""
    for cfg, mesh, u in (disk, trilobe, bent):
        for level in range(2):
            fine = refine_uniform(mesh)
            loop = _refine_uniform_loop(mesh)
            assert fine.dump_text() == loop.dump_text()
            assert np.array_equal(fine.vx, loop.vx)
            wavy = CrackField(mesh, np.sin(3.0 * mesh.vx[:, 0]) * np.exp(mesh.vx[:, 1]))
            for f in (u, wavy)[level:]:
                assert np.array_equal(prolong(f, fine).values, _prolong_loop(f, fine))
            mesh, u = fine, prolong(u, fine)


def test_refine_rejects_a_crack_edge_that_is_no_mesh_edge():
    cfg = disk_config()
    mesh = generate_crack_mesh(cfg, 0.12)
    rec = mesh.crack[0]
    rec["plus"], rec["s"] = rec["plus"][::2], rec["s"][::2]
    with pytest.raises(MeshError):
        refine_uniform(mesh)


@functools.lru_cache(maxsize=None)
def _coarse_disk_mesh():
    return generate_crack_mesh(disk_config(), 0.12)


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10)
def test_prolong_keeps_the_energy(seed):
    """P2 nesting is exact: a nodal vector and its prolongation have the
    same Dirichlet energy.  The curved elements make the 7-point rule inexact,
    so the coarse energy takes it on the 4 children, as the fine one does."""
    coarse = _coarse_disk_mesh()
    v = CrackField(coarse, np.random.default_rng(seed).standard_normal(coarse.n_nodes))
    e_coarse = v.energy(subdivide=1)
    e_fine = prolong(v, refine_uniform(coarse)).energy()
    assert abs(e_fine - e_coarse) <= 1e-10 * e_coarse
