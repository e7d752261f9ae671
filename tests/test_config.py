import io

import numpy as np
import pytest

from trijunction import (TripleJunctionConfig, ParamCurve, ConfigError,
                         disk_config, trilobe_config, bent_arm_config,
                         save_config, load_config)
from trijunction.config import config_to_text


def test_disk_metrics():
    cfg = disk_config()
    m = cfg.metrics()
    assert np.allclose(m["junction_angles"], 2 * np.pi / 3, atol=1e-10)
    assert m["junction_angles"].sum() == pytest.approx(2 * np.pi)
    assert np.allclose(m["contact_angles"], np.pi / 2, atol=1e-7)
    assert np.allclose(m["boundary_curvatures"], 1.0, atol=1e-5)
    for i in range(3):
        assert cfg.contact_normal_curvature(i) == pytest.approx(1.0, abs=1e-5)


def test_trilobe_concave_contacts():
    cfg = trilobe_config()
    m = cfg.metrics()
    assert np.allclose(m["contact_angles"], np.pi / 2, atol=1e-6)
    assert np.all(m["boundary_curvatures"] < -0.5)


def test_perturbed_arm_angle():
    cfg = disk_config()
    da = 0.1
    angles = (np.pi / 2 + da, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3)
    cfg2 = disk_config(arm_angles=angles)
    m = cfg2.metrics()
    gaps = np.sort(m["junction_angles"])
    expect = np.sort([2 * np.pi / 3 - da, 2 * np.pi / 3, 2 * np.pi / 3 + da])
    assert np.allclose(gaps, expect, atol=1e-10)


def test_roundtrip_serialization():
    cfg = trilobe_config()
    txt = config_to_text(cfg)
    cfg2 = load_config(io.StringIO(txt))
    assert config_to_text(cfg2) == txt
    for a, b in zip(cfg.arms, cfg2.arms):
        assert np.array_equal(a.control_points, b.control_points)


def test_load_errors():
    with pytest.raises(ConfigError, match="missing"):
        load_config(io.StringIO("junction = 0 0\n"))
    with pytest.raises(ConfigError, match="line 2"):
        load_config(io.StringIO("junction = 0 0\nbad line\n"))


def test_validation_rejects_tangential_arm():
    outer = ParamCurve.circle(radius=1.0, n=1500, clockwise=True)
    # an arm curving to meet the boundary almost tangentially
    t = np.linspace(0.0, 1.0, 60)
    pts = np.stack([t * 0.2 + 0.8 * np.sin(t * np.pi / 2) ** 2,
                    np.sqrt(np.clip(1 - (t * 0.2 + 0.8 * np.sin(t * np.pi / 2) ** 2) ** 2,
                                    0, None)) * t], axis=1)
    pts[0] = (0, 0)
    arm_bad = ParamCurve(pts)
    arms = [arm_bad,
            ParamCurve.line((0, 0), (np.cos(2.6), np.sin(2.6)), 24),
            ParamCurve.line((0, 0), (np.cos(4.4), np.sin(4.4)), 24)]
    with pytest.raises(ConfigError):
        TripleJunctionConfig((0, 0), arms, outer, [(0.35, 0.45)], 0.15)


def test_validation_rejects_dirichlet_on_contact():
    cfg = disk_config()
    t0 = cfg.contact_params[0]
    with pytest.raises(ConfigError, match="contact|transition"):
        TripleJunctionConfig(cfg.junction, cfg.arms, cfg.outer,
                             [(max(t0 - 0.05, 0.0), min(t0 + 0.05, 1.0))], cfg.mu)


def test_subdomain_touching_transition_rejected():
    cfg = disk_config()
    with pytest.raises(ConfigError, match="transition"):
        TripleJunctionConfig(cfg.junction, cfg.arms, cfg.outer,
                             cfg.dirichlet_arcs, 0.55)


def test_orientation_convention():
    cfg = disk_config()
    for i, arm in enumerate(cfg.arms):
        tau_b = cfg.outer.tangent(cfg.contact_params[i])
        assert float(arm.normal(1.0) @ tau_b) > 0.9
    # outer boundary: outward normal
    p = cfg.outer.point(0.25)
    assert float(cfg.outer.normal(0.25) @ p) > 0.9


def test_bent_arm_is_noncritical():
    cfg = bent_arm_config(bend=0.12)
    m = cfg.metrics()
    assert np.max(np.abs(m["junction_angles"] - 2 * np.pi / 3)) > 0.05
