import numpy as np
import pytest

from trijunction import (ms_energy, structure_function_f, f_sup_norm,
                         first_variation, second_variation, criticality_residual,
                         quadratic_form, second_variation_remainder,
                         normal_speed_scalar, VelocityPair, VectorField,
                         JunctionScalar, radial_bump, rk4_flow, ParamCurve,
                         solve_transported, ConfigError, disk_config,
                         bent_arm_config, generate_crack_mesh,
                         mark_admissible_subdomain, solve_equilibrium,
                         SectorConstants)
from trijunction.stability import oracle_quadrature_value
from trijunction.flows import energy_at_map, build_test_field


def _interior_bump(cfg, arm=0, s=0.45, d=(0.13, 0.07)):
    c = cfg.arms[arm].point(s)
    X = VectorField(lambda P: radial_bump(P, c, 0.02, 0.75 * cfg.mu)[:, None]
                    * np.asarray(d, float))
    return VelocityPair.autonomous(X)


def test_ms_energy_examples(disk):
    cfg, mesh, u = disk
    total, bulk, length = ms_energy(u, cfg, "U")
    assert bulk < 1e-18
    assert total == pytest.approx(3.0, abs=1e-9)


def test_structure_function(disk, bent):
    cfg, mesh, u = disk
    assert f_sup_norm(cfg, u) < 1e-10   # straight arms, constant sectors
    cfgb, meshb, _ = bent
    ub = solve_equilibrium(cfgb, meshb, SectorConstants([0.0, 1.0, 2.0]))
    splines = structure_function_f(cfgb, ub)
    s = np.linspace(0.05, 0.95, 40)
    # with locally constant u, f reduces to the curvature (spline-sampled)
    assert np.max(np.abs(splines[0](s) - cfgb.arms[0].curvature(s))) < 5e-4
    # accounting identity at the quadrature samples: exact recombination
    ub2 = solve_equilibrium(cfgb, meshb, lambda P: P[:, 0])
    from trijunction.fem import CrackQuadrature
    spl2 = structure_function_f(cfgb, ub2)
    q = CrackQuadrature(ub2, cfgb.arms).arms[0]
    recomb = q["du_minus"] ** 2 - q["du_plus"] ** 2 + q["H"]
    assert np.max(np.abs(spl2[0](q["s"]) - recomb)) < 1e-11


def test_first_variation_critical_config(disk, rng):
    cfg, mesh, u = disk
    for k in range(5):
        arm = k % 3
        d = 0.2 * rng.standard_normal(2)
        V = _interior_bump(cfg, arm, rng.uniform(0.3, 0.7), d)
        assert abs(first_variation(cfg, u, V)) < 1e-8
    V0 = VelocityPair(VectorField.zero())
    assert first_variation(cfg, u, V0) == pytest.approx(0.0, abs=1e-15)


def test_first_variation_fd_oracle(bent):
    cfg, mesh, u = bent
    V = _interior_bump(cfg)
    fv = first_variation(cfg, u, V)
    dt = 1e-3
    gp = energy_at_map(cfg, u, mesh, lambda P: rk4_flow(V.X, P, dt))[0]
    gm = energy_at_map(cfg, u, mesh, lambda P: rk4_flow(V.X, P, -dt))[0]
    fd = (gp - gm) / (2 * dt)
    assert abs(fv - fd) / abs(fd) < 2e-2


def test_second_variation_zero_field(disk):
    cfg, mesh, u = disk
    rep = second_variation(cfg, u, VelocityPair(VectorField.zero()))
    assert rep.second_variation == pytest.approx(0.0, abs=1e-12)


def test_second_variation_accounting(bent):
    cfg, mesh, u = bent
    V = _interior_bump(cfg)
    rep = second_variation(cfg, u, V)
    total = (rep.dotu_term + rep.grad_term + rep.curvature_term
             + rep.f_term + rep.endpoint_term)
    assert rep.second_variation == total  # identical arithmetic


def test_second_variation_fd_oracle(bent):
    cfg, mesh, u = bent
    V = _interior_bump(cfg)
    rep = second_variation(cfg, u, V)
    g0 = ms_energy(u, cfg, "U")[0]

    def g(t):
        return energy_at_map(cfg, u, mesh, lambda P: rk4_flow(V.X, P, t))[0]

    dt = 2e-2
    D1 = (g(dt) - 2 * g0 + g(-dt)) / dt ** 2
    D2 = (g(dt / 2) - 2 * g0 + g(-dt / 2)) / (dt / 2) ** 2
    fd = (4 * D2 - D1) / 3.0
    assert abs(rep.second_variation - fd) / abs(fd) < 5e-2


def test_second_variation_critical_reduction(trilobe):
    """At criticality the total reduces to the quadratic form of X.nu."""
    cfg, mesh, u = trilobe
    phi = JunctionScalar.from_callables(
        [lambda s: 0.06 * np.sin(np.pi * s) ** 2,
         lambda s: 0.03 * np.sin(np.pi * s) ** 2,
         lambda s: 0 * s], 257)
    V = build_test_field(cfg, phi)
    R, rep, qf = second_variation_remainder(cfg, u, V, n=257)
    assert abs(rep.dotu_term) < 1e-12
    assert abs(rep.f_term) < 1e-8
    assert abs(R) < 1e-4
    # with vanishing endpoint values the reduction is pure |grad phi|^2
    assert rep.second_variation == pytest.approx(rep.grad_term + rep.endpoint_term,
                                                 abs=1e-10)


def test_remainder_zero_field(disk):
    cfg, mesh, u = disk
    R, rep, qf = second_variation_remainder(cfg, u, VelocityPair(VectorField.zero()))
    assert abs(R) < 1e-12


def test_criticality_residual(disk, bent):
    cfg, mesh, u = disk
    res = criticality_residual(cfg, u)
    assert res[0] < 1e-6 and res[1] < 1e-6 and res[2] < 1e-6
    cfgb, meshb, ub = bent
    resb = criticality_residual(cfgb, ub)
    assert resb[1] > 0.05  # bent arm breaks the junction angles


def test_criticality_residual_rotated_arm():
    da = 0.05
    cfg = disk_config(arm_angles=(np.pi / 2 + da, np.pi / 2 + 2 * np.pi / 3,
                                  np.pi / 2 + 4 * np.pi / 3))
    mesh = mark_admissible_subdomain(generate_crack_mesh(cfg, 0.06), cfg, 0.2)
    u = solve_equilibrium(cfg, mesh, SectorConstants([1.0, 2.0, 3.0]))
    res = criticality_residual(cfg, u)
    assert res[1] == pytest.approx(da, abs=1e-9)


def test_quadratic_form_examples(disk):
    cfg, mesh, u = disk
    assert quadratic_form(cfg, u, JunctionScalar.zero(65)) == pytest.approx(0.0, abs=1e-14)
    # phi = (sin, -sin, 0): only the tangential-gradient term survives
    n = 257
    phi = JunctionScalar.from_callables(
        [lambda s: np.sin(np.pi * s), lambda s: -np.sin(np.pi * s), lambda s: 0 * s], n)
    val = quadratic_form(cfg, u, phi)
    assert val == pytest.approx(np.pi ** 2, abs=5e-4)
    # independent quadrature oracle on the same P1 function (kink-aligned)
    fns = [(lambda s, i=i: phi.eval(i, s), lambda s, i=i: phi.deriv_param(i, s))
           for i in range(3)]
    oracle = oracle_quadrature_value(cfg, fns, panels=np.linspace(0, 1, n))
    assert val == pytest.approx(oracle, abs=1e-6)


def test_quadratic_form_boundary_term(disk):
    """Endpoint-supported phi picks up -Dnu[nu,nu](x_i), verified by finite
    differences of the boundary normal."""
    cfg, mesh, u = disk
    n = 257
    phi = JunctionScalar.from_callables(
        [lambda s: np.clip((s - 0.6) / 0.4, 0, 1) ** 2, lambda s: 0 * s,
         lambda s: 0 * s], n)
    val, parts = quadratic_form(cfg, u, phi, return_parts=True)
    # finite-difference oracle for Dnu_bdry[nu, nu](x_1)
    arm = cfg.arms[0]
    x1 = arm.point(1.0)
    nu1 = arm.normal(1.0)
    h = 1e-5
    dn = (cfg.outer.normal_extension((x1 + h * nu1)[None, :])[0]
          - cfg.outer.normal_extension((x1 - h * nu1)[None, :])[0]) / (2 * h)
    K_fd = float(dn @ nu1)
    assert parts["boundary"] == pytest.approx(-phi.nodal[0][-1] ** 2 * K_fd, abs=1e-4)
    assert abs(K_fd - 1.0) < 1e-4  # unit-disk magnitude, destabilizing sign


def test_quadratic_scaling(disk):
    cfg, mesh, u = disk
    phi = JunctionScalar.from_callables(
        [lambda s: np.sin(np.pi * s), lambda s: s * (1 - s), lambda s: -np.sin(np.pi * s)],
        65, project_constraint=True)
    v1 = quadratic_form(cfg, u, phi)
    v2 = quadratic_form(cfg, u, phi.scaled(3.0))
    assert v2 == pytest.approx(9.0 * v1, rel=1e-12)


def test_quadratic_form_constraint_gate(disk):
    cfg, mesh, u = disk
    bad = JunctionScalar([np.ones(17), np.ones(17), np.ones(17)],
                         check_constraint=False)
    with pytest.raises(ConfigError):
        quadratic_form(cfg, u, bad)


def test_endpoint_identification_gap(trilobe):
    """The two endpoint-term conventions agree at orthogonal contact."""
    cfg, mesh, u = trilobe
    V = _interior_bump(cfg)
    rep = second_variation(cfg, u, V)
    assert rep.endpoint_identification_gap < 1e-8


def test_second_variation_projects_each_arm_side_once(bent, monkeypatch):
    """One CrackQuadrature serves the load, the local terms, the first
    variation and the criticality residuals: each of the six arm sides is
    projected onto its arm at most once."""
    cfg, mesh, u = bent
    V = _interior_bump(cfg)
    calls = []
    project = ParamCurve.project

    def counted(curve, x, *args, **kwargs):
        calls.append(curve)
        return project(curve, x, *args, **kwargs)
    monkeypatch.setattr(ParamCurve, "project", counted)
    second_variation(cfg, u, V)
    assert len(calls) <= 6
    assert all(sum(c is arm for c in calls) <= 2 for arm in cfg.arms)
