"""Independent numerical oracles used by the tests.

These deliberately avoid the package's own discretizations: the
eigenvalue oracle integrates the 1D p-Laplacian ODE by shooting, the
quadrature helpers use closed antiderivatives, and the weak sign check is
redone one scipy B-spline per bump.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import BSpline


def plaplace_lambda1_shooting(p: float, length: float) -> float:
    """First Dirichlet eigenvalue of -(|u'|^(p-2) u')' = lam |u|^(p-2) u
    on (0, length), by shooting with the flux variable v = |u'|^(p-2) u'.

    Integrates once with lam = 1 from u(0) = 0, u'(0) = 1 until u returns
    to zero at X1; scaling gives lam1 = (X1/length)^p.
    """

    def rhs(x, y):
        u, v = y
        du = np.sign(v) * abs(v) ** (1.0 / (p - 1.0))
        dv = -np.sign(u) * abs(u) ** (p - 1.0)
        return [du, dv]

    def hit_zero(x, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    x0 = 1e-10
    sol = solve_ivp(
        rhs,
        (x0, 50.0),
        [x0, 1.0],
        events=hit_zero,
        rtol=1e-11,
        atol=1e-13,
        dense_output=False,
        max_step=0.05,
    )
    if not sol.t_events[0].size:
        raise RuntimeError("shooting never returned to zero")
    x1 = float(sol.t_events[0][0])
    return (x1 / length) ** p


def plaplace_lambda1_closed_form(p: float, length: float) -> float:
    """(p-1) (pi_p / L)^p with pi_p = 2 pi / (p sin(pi/p))."""
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    return (p - 1.0) * (pi_p / length) ** p


def euclidean_annulus_capacity(n_dim: int, p: float, a: float, b: float) -> float:
    """cap = (int_a^b (sigma t^(N-1))^(-1/(p-1)) dt)^(1-p), done analytically."""
    sigma = 2.0 * math.pi ** (n_dim / 2.0) / math.gamma(n_dim / 2.0)
    expo = -(n_dim - 1.0) / (p - 1.0)
    if abs(expo + 1.0) < 1e-14:
        integral = math.log(b / a)
    else:
        integral = (b ** (expo + 1.0) - a ** (expo + 1.0)) / (expo + 1.0)
    return (sigma ** (-1.0 / (p - 1.0)) * integral) ** (1.0 - p)


def weak_check_bspline_loop(w, grid, n_tests=8, sign=1):
    """Reference weak sign check: one ``scipy.interpolate.BSpline`` bump at
    a time, with the flux evaluated afresh at each bump's Gauss points.

    Same bump set and scoring as ``phardy.weights.weak_superharmonicity_check``:
    widths 3 and 9 cells, knots ``[c-w, c-half, c, c+half, c+w]`` on grid
    nodes and 8 Gauss points per cell.  Returns
    ``(worst_value, worst_raw, n_bumps)``.
    """
    nodes = grid.nodes
    z, gw = np.polynomial.legendre.leggauss(8)
    model, p = w.model, w.p

    def flux(t, slope):
        s = np.exp(model.log_volume_density(t))
        return s * model.gradient_factor(t) ** p * np.sign(slope) * np.abs(slope) ** (p - 1.0)

    worst, worst_raw, n_bumps = np.inf, np.inf, 0
    for width in (3, 9):
        if 2 * width + 1 > grid.n:
            continue
        half = max(1, width // 2)
        count = max(n_tests, math.ceil((grid.n - 1) / width) + 1)
        for c in np.unique(np.round(np.linspace(width, grid.n - 1 - width, count)).astype(int)):
            kn = [c - width, c - half, c, c + half, c + width]
            spline = BSpline.basis_element(nodes[kn], extrapolate=False)
            xl, xr = nodes[kn[0] : kn[-1], None], nodes[kn[0] + 1 : kn[-1] + 1, None]
            pts = 0.5 * (xr + xl) + 0.5 * (xr - xl) * z
            terms = 0.5 * (xr - xl) * gw * flux(pts, w.rho_prime(pts))
            terms = terms * np.nan_to_num(spline.derivative()(pts))
            raw, norm = sign * float(np.sum(terms)), float(np.sum(np.abs(terms)))
            rel = raw / norm if norm > 0 else 0.0
            n_bumps += 1
            if rel < worst:
                worst, worst_raw = rel, raw
    return worst, worst_raw, n_bumps
