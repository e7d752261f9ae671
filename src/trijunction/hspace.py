"""Discretization of the junction function space: triples of H^1 functions
on the arms whose values at the junction sum to zero."""

import numpy as np

from .curves import gauss_legendre
from .errors import ConfigError


class JunctionScalar:
    """Piecewise-linear triple (phi_1, phi_2, phi_3) on per-arm grids.

    Each phi_i is nodal P1 on a uniform grid over the arm parameter [0, 1]
    (s = 0 at the junction).  The junction constraint
    (phi_1 + phi_2 + phi_3)(x0) = 0 is enforced at construction, to 1e-12.
    """

    def __init__(self, nodal, check_constraint=True):
        self.nodal = [np.asarray(v, dtype=float) for v in nodal]
        if len(self.nodal) != 3:
            raise ConfigError("need three per-arm nodal vectors")
        if check_constraint and abs(self.junction_sum()) > 1e-12:
            raise ConfigError("junction constraint violated: sum %.3e"
                              % self.junction_sum())

    def junction_sum(self):
        return float(sum(v[0] for v in self.nodal))

    @classmethod
    def from_callables(cls, fns, n, project_constraint=False):
        grids = [np.linspace(0.0, 1.0, n) for _ in range(3)]
        nodal = [np.asarray(f(g), dtype=float) for f, g in zip(fns, grids)]
        if project_constraint:
            c = sum(v[0] for v in nodal) / 3.0
            for v in nodal:
                v[0] -= c
        return cls(nodal)

    @classmethod
    def zero(cls, n):
        return cls([np.zeros(n)] * 3)

    def eval(self, arm_idx, s):
        s = np.atleast_1d(np.asarray(s, float))
        v = self.nodal[arm_idx]
        g = np.linspace(0.0, 1.0, v.size)
        return np.interp(np.clip(s, 0.0, 1.0), g, v)

    def deriv_param(self, arm_idx, s):
        """Piecewise-constant d phi / d s (parameter derivative)."""
        v = self.nodal[arm_idx]
        n = v.size
        s = np.atleast_1d(np.asarray(s, float))
        cell = np.clip((s * (n - 1)).astype(int), 0, n - 2)
        return (v[cell + 1] - v[cell]) * (n - 1)

    def scaled(self, a):
        return JunctionScalar([a * v for v in self.nodal], check_constraint=False)

    def __add__(self, other):
        return JunctionScalar([a + b for a, b in zip(self.nodal, other.nodal)],
                              check_constraint=False)

    def norm_h1(self, config):
        """Sum_i ( ||phi_i||_L2^2 + ||phi_i'||_L2^2 ) with arc-length measure."""
        total = 0.0
        for i, arm in enumerate(config.arms):
            L = arm.length
            v = self.nodal[i]
            n = v.size
            dx = L / (n - 1)
            mass = dx / 6.0 * np.sum((v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2) * 2.0)
            stiff = np.sum((np.diff(v) / dx) ** 2) * dx
            total += mass + stiff
        return float(total)


class SmoothJunctionScalar(JunctionScalar):
    """Junction triple backed by smooth callables (analytic profiles) fns and
    their parameter derivatives dfns.

    The nodal vectors (257 per arm) are kept for compatibility; evaluation and
    parameter derivatives use the callables, so quadratures see the smooth
    function rather than its piecewise-linear interpolant.
    """

    def __init__(self, fns, dfns):
        self.fns = list(fns)
        self.dfns = list(dfns)
        nodal = [np.asarray(f(np.linspace(0.0, 1.0, 257)), float) for f in fns]
        super().__init__(nodal)

    def eval(self, arm_idx, s):
        s = np.atleast_1d(np.asarray(s, float))
        return np.asarray(self.fns[arm_idx](np.clip(s, 0.0, 1.0)), float)

    def deriv_param(self, arm_idx, s):
        s = np.atleast_1d(np.asarray(s, float))
        return np.asarray(self.dfns[arm_idx](s), float)


def gauss_table(arm, n):
    """The 6-point Gauss rule on each cell of the uniform n-node grid of an
    arm's parameter: points s, parameter weights w, speed |arm'(s)| and
    H(s)^2, each of shape (n - 1, 6).  The 1D stability matrices and the
    local terms of the quadratic form both integrate with it."""
    xg, wg = gauss_legendre(6)
    cells = np.linspace(0.0, 1.0, n)
    h = np.diff(cells)[:, None]
    s = cells[:-1, None] + h * xg[None, :]
    return (s, h * wg[None, :], np.linalg.norm(arm.velocity(s), axis=-1),
            arm.curvature(s) ** 2)


def junction_basis(config, n):
    """Basis of the constrained space: 3n - 1 elements.

    All interior/endpoint hats of the three arms plus two junction
    combinations spanning {(a, b, c): a + b + c = 0} at x0.
    """
    if n < 4:
        raise ConfigError("need at least 4 nodes per arm")
    basis = []
    for arm in range(3):
        for k in range(1, n):
            nodal = [np.zeros(n) for _ in range(3)]
            nodal[arm][k] = 1.0
            basis.append(JunctionScalar(nodal, check_constraint=False))
    for combo in (np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0),
                  np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)):
        nodal = [np.zeros(n) for _ in range(3)]
        for arm in range(3):
            nodal[arm][0] = combo[arm]
        basis.append(JunctionScalar(nodal))
    return basis


def combine(basis, coeffs):
    """Linear combination of basis elements."""
    coeffs = np.asarray(coeffs, float)
    n = basis[0].nodal[0].size
    nodal = [np.zeros(n) for _ in range(3)]
    for c, b in zip(coeffs, basis):
        for arm in range(3):
            nodal[arm] += c * b.nodal[arm]
    return JunctionScalar(nodal, check_constraint=False)
