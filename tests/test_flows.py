import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trijunction import (VectorField, VelocityPair, JunctionScalar, ParamCurve,
                         flow_from_field, build_test_field,
                         construct_connecting_family, verify_flow_estimates,
                         energy_at_map, energy_taylor_check,
                         energy_comparison_sweep, perturbation_catalog,
                         AdmissibilityError, GeometryError, MeshError, SolveError,
                         radial_bump, rk4_flow, c2_distance_on_crack, solve_transported)
from trijunction.fields import rk4_flow_with_jac, CornerBlend, corner_coordinates
from trijunction.flows import chi, BulkExtension


def _bump_field(cfg, arm=0, s=0.5, d=(0.1, 0.05)):
    c = cfg.arms[arm].point(s)
    return VectorField(lambda P: radial_bump(P, c, 0.02, 0.7 * cfg.mu)[:, None]
                       * np.asarray(d, float))


def test_flow_zero_field(disk):
    cfg, mesh, u = disk
    fam = flow_from_field(VectorField.zero(), cfg)
    mp = fam.map_at(1.0)
    P = np.array([[0.2, 0.3], [-0.4, 0.1]])
    assert np.allclose(mp(P), P)


def test_flow_autonomous_acceleration(disk, rng):
    cfg, mesh, u = disk
    X = _bump_field(cfg)
    V = VelocityPair.autonomous(X)
    P = rng.uniform(-0.5, 0.5, (50, 2))
    t = 1e-4
    fdd = (rk4_flow(X, P, t) - 2 * P + rk4_flow(X, P, -t)) / t ** 2
    Z = V.Z(P)
    assert np.max(np.abs(fdd - Z)) < 1e-6


def test_build_test_field_contract(trilobe):
    cfg, mesh, u = trilobe
    phi = JunctionScalar.from_callables(
        [lambda s: 0.3 * np.sin(np.pi * s) + 0.2 * s,
         lambda s: -0.1 + 0.1 * np.cos(np.pi * s) + 0.15 * s ** 2,
         lambda s: 0.0 * s], 33, project_constraint=True)
    V = build_test_field(cfg, phi)
    ss = np.linspace(0.0, 1.0, 160)
    for i, arm in enumerate(cfg.arms):
        xn = np.sum(V.X(arm.point(ss)) * arm.normal(ss), axis=1)
        assert np.max(np.abs(xn - phi.eval(i, ss))) < 1e-8
    tb = np.linspace(0, 1, 257, endpoint=False)
    xb = V.X(cfg.outer.point(tb))
    assert np.max(np.abs(np.sum(xb * cfg.outer.normal(tb), axis=1))) < 1e-8


def test_build_test_field_zero_phi(trilobe):
    cfg, mesh, u = trilobe
    V = build_test_field(cfg, JunctionScalar.zero(17))
    ss = np.linspace(0, 1, 60)
    for arm in cfg.arms:
        assert np.max(np.abs(V.X(arm.point(ss)))) < 1e-12


def test_build_test_field_junction_values(trilobe):
    """phi vanishing at x0 forces zero tangential corrections there."""
    from trijunction.flows import _junction_jet
    cfg, mesh, u = trilobe
    phi = JunctionScalar.from_callables(
        [lambda s: np.sin(np.pi * s)] * 3, 33, project_constraint=True)
    Y0, b0, bp, M = _junction_jet(cfg, phi)
    assert np.max(np.abs(Y0)) < 1e-12
    assert np.max(np.abs(b0)) < 1e-12


def test_corner_blend_exactness():
    a = ParamCurve.line((0, 0), (1, 0), 16)
    b = ParamCurve.line((0, 0), (0.2, 1.0), 16)
    fa = lambda s: np.stack([0.1 * np.atleast_1d(s), 0.05 + 0 * np.atleast_1d(s)], axis=1)
    fb = lambda t: np.stack([0.05 * np.atleast_1d(t) + 0.0, 0.05 - 0.02 * np.atleast_1d(t)], axis=1)
    blend = CornerBlend(a, b, (0, 0), fa, fb)
    s = np.linspace(0, 0.3, 8)
    assert np.max(np.abs(blend(a.point(s)) - fa(s))) < 1e-9
    assert np.max(np.abs(blend(b.point(s)) - fb(s))) < 1e-9
    bad = lambda t: fb(t) + 0.01
    with pytest.raises(AdmissibilityError):
        CornerBlend(a, b, (0, 0), fa, bad)


def test_extend_to_bulk(trilobe):
    cfg, mesh, u = trilobe
    zero = lambda s: np.zeros((np.atleast_1d(s).size, 2))
    ident = BulkExtension(cfg, [zero, zero, zero])
    P = np.array([[0.1, 0.2], [-0.3, 0.1], [0.0, 0.6]])
    assert np.max(np.abs(ident(P))) < 1e-12
    # bump on one arm: exact on the arm, supported in its tube
    prof = lambda s: (1e-3 * np.sin(np.pi * np.atleast_1d(s)) ** 2)[:, None] \
        * cfg.arms[0].normal(np.atleast_1d(s))
    ext = BulkExtension(cfg, [prof, zero, zero])
    ss = np.linspace(0, 1, 80)
    on_arm = ext(cfg.arms[0].point(ss))
    assert np.max(np.abs(on_arm - prof(ss))) < 1e-9
    far = cfg.arms[1].point(np.linspace(0.3, 0.9, 20)) \
        + 0.05 * cfg.arms[1].normal(np.linspace(0.3, 0.9, 20))
    assert np.max(np.abs(ext(far))) < 1e-12
    # data with a common value at x0, and boundary-tangent values at the
    # contacts that the boundary data matches: exact on every arm, and on the
    # outer boundary where only the contact-corner blend acts
    c = 3e-3 * np.array([0.6, 0.8])
    amps = [1e-3, -2e-3, 1.5e-3]
    ends = [a * cfg.outer.tangent(t) for a, t in zip(amps, cfg.contact_params)]

    def arm_data(i):
        def f(s):
            s = np.atleast_1d(np.asarray(s, float))
            return ((1 - s)[:, None] * c + s[:, None] * ends[i]
                    + (1e-3 * np.sin(np.pi * s))[:, None] * cfg.arms[i].normal(s))
        return f

    def bdry(t):
        t = np.atleast_1d(np.asarray(t, float))
        amp = np.zeros(t.size)
        for a, ti in zip(amps, cfg.contact_params):
            amp += a * chi(((t - ti + 0.5) % 1.0 - 0.5) ** 2 / 0.02 ** 2)
        return amp[:, None] * cfg.outer.tangent(t)
    fns = [arm_data(i) for i in range(3)]
    ext = BulkExtension(cfg, fns, bdry)
    for i, arm in enumerate(cfg.arms):
        assert np.max(np.abs(ext(arm.point(ss)) - fns[i](ss))) < 1e-12
    tb = np.linspace(0.0, 1.0, 4001)
    for i, arm in enumerate(cfg.arms):
        near = tb[np.linalg.norm(cfg.outer.point(tb) - arm.point(1.0), axis=1)
                  < 0.6 * ext.delta_c[i]]
        assert near.size > 100
        assert np.max(np.abs(ext(cfg.outer.point(near)) - bdry(near))) < 1e-12


def test_energy_at_map_identity(disk):
    cfg, mesh, u = disk
    e0 = energy_at_map(cfg, u, mesh, lambda P: P)[0]
    from trijunction import ms_energy
    assert abs(e0 - ms_energy(u, cfg, "U")[0]) < 1e-9


def test_transport_raises_instead_of_remeshing(disk):
    """A mesh that moves the pinned nodes, and a map that inverts elements,
    raise: there is no interpolation onto a foreign mesh and no remeshing."""
    cfg, mesh, u = disk
    with pytest.raises(SolveError):
        solve_transported(mesh.with_nodes(1.001 * mesh.vx), u)
    x0 = cfg.junction
    shove = lambda P: P + 0.3 * radial_bump(P, x0, 0.0, 0.06)[:, None] * np.array([1.0, 0.0])
    with pytest.raises(MeshError):
        energy_at_map(cfg, u, mesh, shove)


def _assert_bulk_map_matches_arms(fam, cfg):
    """The bulk map at time 1 carries each arm's samples onto the family's
    time-1 positions."""
    mp = fam.map_at(1.0)
    for i, arm in enumerate(cfg.arms):
        assert np.max(np.abs(mp(arm.point(fam.s_grid)) - fam.pos[i, -1])) < 1e-12


@pytest.mark.slow
def test_connecting_family_normal_bump(trilobe):
    cfg, mesh, u = trilobe
    ss = np.linspace(0, 1, 400)
    amp = 5e-4
    tgts = []
    for i, arm in enumerate(cfg.arms):
        pts = arm.point(ss)
        if i == 0:
            prof = amp * np.sin(np.pi * np.clip((ss - 0.3) / 0.5, 0, 1)) ** 2
            pts = pts + prof[:, None] * arm.normal(ss)
        tgts.append(ParamCurve.from_samples(pts, flag=arm.flag))
    fam = construct_connecting_family(cfg, tgts, eps=0.5)
    est = verify_flow_estimates(fam)
    assert est["C1"] < 0.1      # pure-normal far-field family
    assert np.isfinite(est["C2"])
    assert fam.diag["hausdorff_final"] < 1e-6
    assert max(fam.c2_norm(t) for t in fam.times) < 0.5
    _assert_bulk_map_matches_arms(fam, cfg)
    # velocity consistency: stored X_t vs time differences of positions
    k = len(fam.times) // 2
    dt = fam.times[1] - fam.times[0]
    fd = (fam.pos[0, k + 1] - fam.pos[0, k - 1]) / (2 * dt)
    assert np.max(np.abs(fd - fam.vel[0, k])) < 1e-6
    # the velocity data second_variation reads at t_k: X.nu on the arms and
    # X.eta, Z.eta at the contacts match the stored tables
    V = fam.velocity_at(fam.times[k])
    s = fam.s_grid
    for i, arm in enumerate(fam.curves_at(fam.times[k])):
        pos, tau, nu = arm.point(s), arm.tangent(s), arm.normal(s)
        xn = np.sum(fam.vel[i, k] * nu, axis=1)
        assert np.max(np.abs(V.normal_speed(i, s, pos, nu) - xn)) < 1e-12
        assert np.max(np.abs(V.arm_values(i, s, pos, tau, nu, arm)[0] - xn)) < 1e-12
        eta = arm.tangent(1.0)
        xe, ze = V.endpoint_values(i, arm.point(1.0), eta)
        assert abs(xe - fam.vel[i, k, -1] @ eta) < 1e-12
        assert abs(ze - fam.acc[i, k, -1] @ eta) < 1e-12


@pytest.mark.slow
def test_connecting_family_worst_case(trilobe):
    cfg, mesh, u = trilobe
    ss = np.linspace(0, 1, 400)
    sh = 1e-5 * cfg.arms[0].tangent(0.0)
    tgts = [ParamCurve.from_samples(
        arm.point(ss) + chi(np.linalg.norm(arm.point(ss) - cfg.junction, axis=1) ** 2
                            / 0.15 ** 2)[:, None] * sh, flag=arm.flag)
        for arm in cfg.arms]
    fam = construct_connecting_family(cfg, tgts, eps=0.5)
    assert fam.diag["cone_arm"] == 0          # graph branch exercised
    assert fam.diag["G_L_level"] >= 2
    est = verify_flow_estimates(fam)
    assert np.isfinite(est["C1"]) and np.isfinite(est["C2"])
    assert fam.diag["hausdorff_final"] < 1e-6
    assert max(fam.c2_norm(t) for t in fam.times) < 0.5
    _assert_bulk_map_matches_arms(fam, cfg)
    # junction-zone acceleration vanishes (affine near-field maps)
    k = len(fam.times) - 1
    near = np.linalg.norm(cfg.arms[0].point(fam.s_grid) - cfg.junction,
                          axis=1) < fam.mu_j
    assert np.max(np.abs(fam.acc[0, k][near])) < 1e-12


@pytest.mark.slow
def test_connecting_family_identity(trilobe):
    cfg, mesh, u = trilobe
    ss = np.linspace(0, 1, 400)
    tgts = [ParamCurve.from_samples(arm.point(ss), flag=arm.flag) for arm in cfg.arms]
    fam = construct_connecting_family(cfg, tgts, eps=0.5)
    move = max(np.max(np.linalg.norm(fam.pos[i, -1] - fam.pos[i, 0], axis=1))
               for i in range(3))
    assert move < 1e-9
    est = verify_flow_estimates(fam)
    assert est["C1"] == 0.0 and est["C2"] == 0.0


def test_connecting_family_rejects_far_targets(trilobe):
    cfg, mesh, u = trilobe
    ss = np.linspace(0, 1, 400)
    tgts = [ParamCurve.from_samples(
        arm.point(ss) + 0.2 * np.sin(np.pi * ss)[:, None] * arm.normal(ss),
        flag=arm.flag) for arm in cfg.arms]
    with pytest.raises(AdmissibilityError, match="too far"):
        construct_connecting_family(cfg, tgts)


def test_flow_rejects_escape(disk):
    cfg, mesh, u = disk
    X = VectorField(lambda P: np.tile([2.0, 0.0], (np.atleast_2d(P).shape[0], 1)))
    with pytest.raises(AdmissibilityError):
        flow_from_field(X, cfg)


@pytest.mark.slow
def test_energy_taylor_identity(trilobe):
    cfg, mesh, u = trilobe
    phi = JunctionScalar.from_callables(
        [lambda s: 0.05 * np.sin(np.pi * s) ** 2,
         lambda s: 0 * s, lambda s: 0 * s], 65)
    V = build_test_field(cfg, phi)
    fam = flow_from_field(V.X, cfg, t_grid=np.linspace(0, 1, 17))
    et = energy_taylor_check(cfg, u, mesh, fam, t_subsample=4)
    assert et["delta_direct"] > 0
    assert et["relative_gap"] < 0.1


def test_energy_taylor_scaling(trilobe):
    """Energy differences scale quadratically at a critical point."""
    cfg, mesh, u = trilobe
    # normal to arm 0 (which points along +y); unit size kept inside the
    # quadratic regime of the energy at the largest amplitude
    X = _bump_field(cfg, d=(0.5, 0.0))
    e0 = energy_at_map(cfg, u, mesh, lambda P: P)[0]
    deltas = []
    for a in (1e-1, 5e-2, 2.5e-2):
        e1 = energy_at_map(cfg, u, mesh, lambda P: rk4_flow(X * a, P, 1.0))[0]
        deltas.append(e1 - e0)
    r1 = deltas[0] / deltas[1]
    r2 = deltas[1] / deltas[2]
    assert abs(r1 - 4.0) < 0.4
    assert abs(r2 - 4.0) < 0.4


def test_sweep_identity_entry(disk):
    cfg, mesh, u = disk
    ident = VelocityPair(VectorField.zero())
    out = energy_comparison_sweep(cfg, u, mesh, [("identity", ident)],
                                  amplitudes=(0.01,))
    assert abs(out["records"][0]["delta"]) < 1e-12


def test_sweep_records_package_errors_only(disk):
    cfg, mesh, u = disk

    def failing(exc):
        def fn(P):
            raise exc("field failed")
        return VelocityPair(VectorField(fn))
    out = energy_comparison_sweep(cfg, u, mesh, [("geometry", failing(GeometryError))],
                                  amplitudes=(0.01,))
    assert out["n_failed"] == 1
    assert out["records"][0]["error"].startswith("GeometryError")
    with pytest.raises(ValueError):
        energy_comparison_sweep(cfg, u, mesh, [("bug", failing(ValueError))],
                                amplitudes=(0.01,))


# ----------------------------------------------------------------------
# flowing only the points that move
# ----------------------------------------------------------------------

def _rk4_full_batch(field, P, t, substeps=8):
    """RK4 with every point in every stage: the loop rk4_flow must reproduce."""
    P = np.atleast_2d(np.asarray(P, float)).copy()
    dt = t / substeps
    for _ in range(substeps):
        k1 = field(P)
        k2 = field(P + 0.5 * dt * k1)
        k3 = field(P + 0.5 * dt * k2)
        k4 = field(P + dt * k3)
        P = P + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return P


@pytest.fixture(scope="module")
def trilobe_catalog(trilobe):
    return perturbation_catalog(trilobe[0], np.random.default_rng(0))


def test_rk4_flow_steps_only_moving_points(trilobe, trilobe_catalog):
    """Bitwise equal to the full-batch loop on the mesh nodes plus arm samples
    for every catalog field; points with zero velocity come back unchanged,
    and after its first call the field sees only the moving points."""
    cfg, mesh, _ = trilobe
    ss = np.linspace(0.0, 1.0, 320)
    P = np.vstack([mesh.vx] + [arm.point(ss) for arm in cfg.arms])
    for name, V in trilobe_catalog:
        X = V.X * 0.1
        sizes = []

        def field(Q):
            sizes.append(len(Q))
            return X(Q)
        got = rk4_flow(field, P, 1.0, substeps=2)
        assert np.array_equal(got, _rk4_full_batch(X, P, 1.0, substeps=2)), name
        moving = np.any(X(P) != 0.0, axis=1)
        assert 0 < np.count_nonzero(moving) < len(P), name
        assert np.array_equal(got[~moving], P[~moving]), name
        assert sizes[0] == len(P) and set(sizes[1:]) == {np.count_nonzero(moving)}, name


def test_energy_at_map_flows_once(trilobe, trilobe_catalog):
    """One map call for the mesh nodes and the arm samples gives the energy,
    nodes and solution of flowing the mesh and each arm separately."""
    from trijunction.fem import solve_transported
    from trijunction.variation import ms_energy
    cfg, mesh, u = trilobe
    X = dict(trilobe_catalog)["random_1"].X * 0.01

    def mp(P):
        return rk4_flow(X, P, 1.0)
    calls = []

    def counted(P):
        calls.append(len(P))
        return mp(P)
    e, u_t, mesh_t, arms_t = energy_at_map(cfg, u, mesh, counted)
    assert calls == [mesh.n_nodes + 3 * 320]
    ss = np.linspace(0.0, 1.0, 320)
    arms_ref = [ParamCurve.from_samples(mp(arm.point(ss)), flag=arm.flag) for arm in cfg.arms]
    mesh_ref = mesh.morph(mp)
    u_ref = solve_transported(mesh_ref, u)
    assert e == ms_energy(u_ref, cfg, "U", curves=arms_ref)[0]
    assert np.array_equal(mesh_t.vx, mesh_ref.vx)
    assert np.array_equal(u_t.values, u_ref.values)
    for arm_t, arm_ref in zip(arms_t, arms_ref):
        assert np.array_equal(arm_t.point(ss), arm_ref.point(ss))


def _probe_field(cfg, seed):
    """The variation-check probe: a radial bump at arm 1's s = 0.45."""
    c = cfg.arms[0].point(0.45)
    d = 0.6 * np.random.default_rng(seed).standard_normal(2)
    return VectorField(lambda P: radial_bump(P, c, 0.05 * cfg.mu, 0.75 * cfg.mu)[:, None] * d)


@pytest.mark.parametrize("fixture", ["trilobe", "disk"])
def test_flows_fix_the_nodes_outside_the_subdomain(fixture, request):
    """Every catalog field and the variation-check probe leave each mesh node
    outside vertex_mask bitwise in place, so the transported mesh of
    energy_at_map equals the base mesh outside U."""
    cfg, mesh, _ = request.getfixturevalue(fixture)
    out = ~mesh.vertex_mask
    fields = [V.X for _, V in perturbation_catalog(cfg, np.random.default_rng(3))]
    fields += [_probe_field(cfg, seed) for seed in range(4)]
    for k, X in enumerate(fields):
        img = rk4_flow(X * 0.1, mesh.vx, 1.0)
        assert np.array_equal(img[out], mesh.vx[out]), k
        assert not np.array_equal(img, mesh.vx), k


# ----------------------------------------------------------------------
# corner coordinates: each point stops when it has converged
# ----------------------------------------------------------------------

CORNER_TOL = 1e-14     # |s - s_14|, |t - t_14| against the fixed 14-step loop


def _corner_coordinates_14_steps(a, b, corner, P, sa0, sb0, clamp):
    """The fixed 14-step Newton loop, and per point the first step whose s
    and t updates are both below 1e-14 (14 if none)."""
    s = np.full(P.shape[0], float(sa0))
    t = np.full(P.shape[0], float(sb0))
    converged = np.full(P.shape[0], 14)
    for k in range(1, 15):
        F = a.point(s) + b.point(t) - corner - P
        da = a.velocity(s)
        db = b.velocity(t)
        det = da[:, 0] * db[:, 1] - da[:, 1] * db[:, 0]
        det = np.where(np.abs(det) < 1e-30, 1e-30, det)
        ds = -(db[:, 1] * F[:, 0] - db[:, 0] * F[:, 1]) / det
        dt = -(-da[:, 1] * F[:, 0] + da[:, 0] * F[:, 1]) / det
        s_new = np.clip(s + ds, sa0 - clamp, sa0 + clamp)
        t_new = np.clip(t + dt, sb0 - clamp, sb0 + clamp)
        small = (np.abs(s_new - s) < 1e-14) & (np.abs(t_new - t) < 1e-14)
        converged = np.where(small & (converged == 14), k, converged)
        s, t = s_new, t_new
    return s, t, converged


class _CountingCurve:
    def __init__(self, curve):
        self.curve, self.sizes = curve, []

    def point(self, s):
        self.sizes.append(len(s))
        return self.curve.point(s)

    def velocity(self, s):
        return self.curve.velocity(s)


@given(polar=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi)),
                      min_size=1, max_size=40))
@settings(max_examples=25)
def test_corner_coordinates_stop_on_convergence(trilobe_catalog, polar):
    """Within CORNER_TOL of the 14-step loop on points of each trilobe
    contact's corner zone; a point leaves after the step where it converged."""
    tf = dict(trilobe_catalog)["random_1"].X._fn
    rho, th = np.array(polar).T
    for blend, delta_c in zip(tf._corners, tf.delta_c):
        P = blend.corner + (delta_c * rho)[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
        a = _CountingCurve(blend.a)
        s, t = corner_coordinates(a, blend.b, blend.corner, P, blend.sa0, blend.sb0,
                                  clamp=blend.clamp)
        s14, t14, converged = _corner_coordinates_14_steps(
            blend.a, blend.b, blend.corner, P, blend.sa0, blend.sb0, blend.clamp)
        assert np.max(np.abs(s - s14)) <= CORNER_TOL
        assert np.max(np.abs(t - t14)) <= CORNER_TOL
        assert a.sizes == [np.count_nonzero(converged >= k) for k in range(1, len(a.sizes) + 1)]
        assert np.all(converged < 14) and len(a.sizes) == converged.max() < 14
