import logging

import numpy as np
import pytest
from hypothesis import settings

from trijunction import (disk_config, trilobe_config, bent_arm_config,
                         generate_crack_mesh, mark_admissible_subdomain,
                         solve_equilibrium, SectorConstants)

logging.getLogger("trijunction").setLevel(logging.WARNING)

# the same examples on every run, and no per-example time limit (a loaded
# host would otherwise fail a slow example)
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def disk():
    cfg = disk_config()
    mesh = mark_admissible_subdomain(generate_crack_mesh(cfg, 0.05), cfg, cfg.mu)
    u = solve_equilibrium(cfg, mesh, SectorConstants([1.0, 2.0, 3.0]))
    return cfg, mesh, u


@pytest.fixture(scope="session")
def trilobe():
    cfg = trilobe_config()
    mesh = mark_admissible_subdomain(generate_crack_mesh(cfg, 0.05), cfg, cfg.mu)
    u = solve_equilibrium(cfg, mesh, SectorConstants([1.0, 2.0, 3.0]))
    return cfg, mesh, u


@pytest.fixture(scope="session")
def bent():
    """Non-critical configuration with a genuinely non-constant solution."""
    cfg = bent_arm_config(bend=0.12)
    mesh = mark_admissible_subdomain(generate_crack_mesh(cfg, 0.05), cfg, cfg.mu)
    u = solve_equilibrium(cfg, mesh, lambda P: P[:, 0])
    return cfg, mesh, u


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
