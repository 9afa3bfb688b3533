"""Self-contained reference implementations used only by the tests.

Most of it is deliberately independent of the package internals: a
Stirling-series gamma, a brute-force oscillatory quadrature for the real
Airy integral, a dense fixed-grid rule for smooth decaying integrands, and
phi from scipy's Airy function on such a grid, and k(t, 0) and phi's left
tail at 30 digits with mpmath, from the saddle contour and the Airy-zero
residues.  Eight read the package: the
Poincare-series loop that sums every point until the slowest stops takes the
package's coefficients, so it checks the per-point term counts of
``airy._asy_sums``; the full-line integral runs the package's adaptive
integrator on [-U, U], so folded integrals can be checked against the
unfolded line; h from its defining Fourier integral and the full-line u
integrand of g take their log-Airy values from the package, so they check
the inversion routes and the g rule's quadrature rather than Airy values,
and so do h by a fixed-Talbot contour per time and g(0, .) by unit y blocks
of its y integrand, a route apart from the Scorer relation;
the max density as a difference of hitting probabilities reads the
package's hitting probability, a route to it that never evaluates phi; and
the per-side two-sided Monte Carlo run calls the package's path engine once
per side, so each side refines against its own record alone.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.special

_GL40_X, _GL40_W = np.polynomial.legendre.leggauss(40)


def gamma_stirling(x: float) -> float:
    """Gamma via the Stirling asymptotic series after shifting x upward.

    ln G(z) ~ (z-1/2) ln z - z + ln(2 pi)/2 + sum B_{2n}/(2n(2n-1) z^{2n-1}).
    """
    shift = 0
    z = float(x)
    while z < 20.0:
        z += 1.0
        shift += 1
    coef = [1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188]
    lg = (z - 0.5) * math.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    lg += sum(c / z ** (2 * k + 1) for k, c in enumerate(coef))
    val = math.exp(lg)
    for j in range(shift):
        val /= (x + j)
    return val


def gl_panels(f, a: float, b: float, n_panels: int):
    """Composite 40-point Gauss-Legendre on [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GL40_X[None, :]
    w = 0.5 * (hi - lo) * _GL40_W[None, :]
    res = np.sum(f(t) * w)
    return complex(res) if np.iscomplexobj(res) else float(res)


def airy_cosine_integral(x: float) -> float:
    """Brute-force (1/pi) int_0^inf cos(t^3/3 + x t) dt.

    Dense panels up to T (past any stationary point), then an Euler-
    accelerated alternating series of half-period lobes of the cosine.
    """
    phase = lambda t: t ** 3 / 3.0 + x * t
    T = max(6.0, 2.0 * math.sqrt(abs(x)) + 4.0)
    head = gl_panels(lambda t: np.cos(phase(t)), 0.0, T, 600)

    # lobes between consecutive zeros of cos(phase)
    def zero_after(t0, target):
        t = t0
        for _ in range(80):
            t = t - (phase(t) - target) / (t * t + x)
        return t

    k0 = math.ceil((phase(T) - math.pi / 2.0) / math.pi)
    zs = [zero_after(T, math.pi / 2.0 + k * math.pi) for k in range(k0, k0 + 61)]
    lobes = np.array([gl_panels(lambda t: np.cos(phase(t)), zs[i], zs[i + 1], 4)
                      for i in range(60)])
    bridge = gl_panels(lambda t: np.cos(phase(t)), T, zs[0], 8)

    # Euler acceleration: repeated averaging of the partial sums of the
    # alternating lobe series
    row = np.cumsum(lobes)
    for _ in range(40):
        row = 0.5 * (row[:-1] + row[1:])
    return (head + bridge + row[0]) / math.pi


def trapezoid_mass(grid: np.ndarray, values: np.ndarray) -> float:
    return float(np.trapezoid(values, grid))


def phi_reference(t) -> np.ndarray:
    """phi(t) = (2^{-1/3}/pi) int e^{-i 2^{1/3} t u} / Ai(iu) du, folded onto
    u > 0 (Ai(-iu) = conj Ai(iu)), on 160 composite 40-point Gauss-Legendre
    panels over [0, 20] with Ai from scipy (AMOS); 1/|Ai(iu)| < 1e-17 past
    u = 20."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    edges = np.linspace(0.0, 20.0, 161)
    lo, hi = edges[:-1, None], edges[1:, None]
    u = (0.5 * (lo + hi) + 0.5 * (hi - lo) * _GL40_X[None, :]).ravel()
    w = (0.5 * (hi - lo) * _GL40_W[None, :]).ravel() / scipy.special.airy(1j * u)[0]
    c = 2.0 ** (2.0 / 3.0) / math.pi
    return np.array([c * np.sum(w * np.exp(-1j * 2.0 ** (1.0 / 3.0) * tv * u)).real
                     for tv in t])


def k_reference(t: float) -> float:
    """k(t, 0) = e^{(2/3) t^3} phi(t) at 30 digits with mpmath: 2 Re of
    (2^{-1/3}/pi) int_0^inf e^{(2/3) t^3 - 2^{1/3} t z} / Ai(z) dv on the
    line z = c + iv, c = max(4^{1/3} t^2, 1/2), by tanh-sinh quadrature."""
    import mpmath as mp

    with mp.workdps(30):
        t = mp.mpf(t)
        c, a = max(mp.cbrt(4) * t * t, mp.mpf(0.5)), mp.cbrt(2)

        def f(v):
            z = c + 1j * v
            return (mp.exp(mp.mpf(2) / 3 * t ** 3 - a * t * z) / mp.airyai(z)).real

        return float(2 * mp.quad(f, [0, 2, 5, 10, 20, 40, mp.inf]) / (a * mp.pi))


@lru_cache(maxsize=1)
def _mp_airy_zeros(n: int):
    import mpmath as mp

    with mp.workdps(30):
        zeros = [mp.airyaizero(k) for k in range(1, n + 1)]
        return [(a, mp.airyai(a, derivative=1)) for a in zeros]


def phi_residue_reference(t: float) -> float:
    """phi(t) for t <= -1 at 30 digits with mpmath: the residue series
    2^{2/3} sum_k e^{-2^{1/3} t a_k} / Ai'(a_k) over the first 120 Airy
    zeros a_k (the 121st term is below e^{-80} of the first at t = -1)."""
    import mpmath as mp

    with mp.workdps(30):
        t = mp.mpf(t)
        return float(mp.cbrt(4) * mp.fsum(mp.exp(-mp.cbrt(2) * t * a) / d
                                          for a, d in _mp_airy_zeros(120)))


def asy_sums_reference(zeta: np.ndarray) -> np.ndarray:
    """S0 = sum (-1)^k u_k zeta^-k, truncated at the smallest term, as one
    masked loop over all points: term k is added while its magnitude (of
    the rounded power) falls and the previous one was above 1e-18, for at
    most 38 terms."""
    from chernoff.airy import _UK

    w = -1.0 / zeta
    s0 = np.ones_like(w)
    term = np.ones_like(w)
    active = np.ones(w.shape, dtype=bool)
    last_mag = np.full(w.shape, np.inf)
    for k in range(1, _UK.size):
        term = term * w
        mag = np.abs(term) * _UK[k]
        active &= ~(mag >= last_mag)
        s0 = s0 + _UK[k] * np.where(active, term, 0.0)
        last_mag = np.where(active, mag, last_mag)
        active &= mag > 1e-18
        if not active.any():
            break
    return s0


def integrate_full_line(f, decay, spec=None, frequency: float = 0.0):
    """The integral of f over the whole line: the adaptive integrator on
    [-U, U], with U where decay(U), a bound on both tails, is half the
    absolute tolerance."""
    from chernoff.quadrature import QuadratureSpec, integrate_interval, truncation

    spec = spec or QuadratureSpec()
    U, tail = truncation(decay, spec.abs_tol / 2.0)
    return integrate_interval(f, -U, U, spec, frequency, tail)


def h_density_fourier(x: float, t: float):
    """h straight from its Fourier form, a full-line integral over the
    imaginary axis whose integrand decays only like exp(-c sqrt(u)): a slow
    reference for the contour inversions at modest tolerances."""
    from chernoff import airy
    from chernoff.densities import FOUR13, TWO13
    from chernoff.quadrature import QuadratureSpec

    if not (x < 0.0 and t > 0.0):
        raise ValueError("requires x < 0, t > 0")
    a = -FOUR13 * x
    spec = QuadratureSpec(abs_tol=1e-5, rel_tol=1e-6, max_subdivisions=65536)
    c = a / math.sqrt(2.0)

    def f(u):
        return (TWO13 / (2.0 * math.pi)) * np.exp(
            1j * TWO13 * t * u + airy.log_ai_diff(1j * u, a))

    def decay(U):
        su = math.sqrt(U)
        return (TWO13 / math.pi) * 2.0 * (su / c + 1.0 / c ** 2) * math.exp(-c * su)

    return integrate_full_line(f, decay, spec, frequency=TWO13 * t)


TALBOT_M = 30
_TALBOT_TH = np.arange(1, TALBOT_M) * math.pi / TALBOT_M
_TALBOT_COT = 1.0 / np.tan(_TALBOT_TH)
_TALBOT_S = _TALBOT_TH * (_TALBOT_COT + 1j)                       # contour / r
_TALBOT_SIG = _TALBOT_TH + (_TALBOT_TH * _TALBOT_COT - 1.0) * _TALBOT_COT


def h_talbot(a_arr, ts: np.ndarray) -> np.ndarray:
    """h by fixed-Talbot inversion, (shifts, times): each time its own
    contour of radius r = 12/t, 29 nodes and a head node on the real axis.
    A reference for the band contours at modest accuracy (~1e-9 absolute
    at small shifts), independent of their nodes and weights."""
    from chernoff import airy

    a_arr = np.atleast_1d(np.asarray(a_arr, dtype=np.float64))
    ts = np.asarray(ts, dtype=np.float64)
    r = 2.0 * TALBOT_M / (5.0 * ts)
    lam = r[:, None] * _TALBOT_S[None, :]
    xi = 2.0 ** (-1.0 / 3.0) * lam
    expo = ts[:, None] * lam + airy.log_ai_diff(xi, a_arr[:, None, None])
    terms = (np.exp(expo) * (1.0 + 1j * _TALBOT_SIG)).real.sum(axis=-1)
    xi0 = (2.0 ** (-1.0 / 3.0) * r).astype(np.complex128)
    head = 0.5 * np.exp(ts * r + airy.log_ai_diff(xi0, a_arr[:, None]).real)
    return (r / TALBOT_M) * (head + terms)


def tilted_g_integrand(s: float, A: float):
    """The u integrand of the survival functional over the whole line,
    (1/2pi) int_0^A exp(-2^{1/3} s (iu+y)) Ai(iu+y) dy / Ai(iu)^2 at barrier
    width A > 0, with the y integral on ceil(A) equal 20-point
    Gauss-Legendre panels, and the bound on its integral over |u| > U."""
    from chernoff import airy
    from chernoff.quadrature import airy_ratio_tail_bound

    x20, w20 = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, A, max(1, math.ceil(A)) + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    y = (0.5 * (lo + hi) + 0.5 * (hi - lo) * x20).ravel()
    wy = (0.5 * (hi - lo) * w20).ravel()
    c = 2.0 ** (1.0 / 3.0)

    def f(u):
        zu = 1j * u[:, None]
        expo = (airy.log_ai_diff(zu, y) - airy.log_ai_many(zu)
                - c * s * (zu + y))
        return (np.exp(expo) @ wy) / (2.0 * math.pi)

    grow = math.exp(c * max(0.0, -s) * A) * max(A, 1.0)
    return f, lambda U: grow * airy_ratio_tail_bound(U) / (2.0 * math.pi)


_G0_Y_TOP = 2.0 ** (2.0 / 3.0) * 10.5  # y reach of the g(0, .) reference
_G0_Y_NODES = 24  # Gauss-Legendre nodes per unit y block


@lru_cache(maxsize=1)
def _g0_y_blocks():
    """The y integrand of g at s = 0, f(y) = (1/2pi) int Ai(iu+y) / Ai(iu)^2
    du, as 2 Re of its Hermitian integrand over Kronrod 15 panels pi/2 wide
    on (0, U], at 24 Gauss nodes in each unit y block up to 4^{1/3} 10.5
    (one `log_ai_diff` call).  Returns the y block edges, the whole-block
    prefix integrals, and per block the Legendre coefficients of f's
    interpolant and of its antiderivative."""
    from chernoff import airy
    from chernoff.quadrature import (QuadratureSpec, airy_ratio_tail_bound,
                                     kronrod_panels, panel_edges, truncation)

    A = _G0_Y_TOP
    U, _ = truncation(lambda U: A * airy_ratio_tail_bound(U) / (2.0 * math.pi), 5e-11)
    edges = panel_edges(0.0, U, math.pi / 2.0, QuadratureSpec())
    leg = np.polynomial.legendre
    yg, wg = leg.leggauss(_G0_Y_NODES)
    y_edges = np.minimum(np.arange(math.ceil(A) + 1.0), A)
    half = 0.5 * np.diff(y_edges)
    y = (y_edges[:-1] + half * (yg[:, None] + 1.0)).reshape(-1, 1)  # node-major

    def f_u(u):
        return np.exp(airy.log_ai_diff(1j * u, y) - airy.log_ai_many(1j * u)).real / math.pi

    f = kronrod_panels(f_u, edges[:-1], edges[1:])[0].sum(axis=1).reshape(_G0_Y_NODES, -1)
    coef = np.linalg.solve(leg.legvander(yg, _G0_Y_NODES - 1), f)
    prefix = np.concatenate([[0.0], np.cumsum(half * (wg @ f))])
    return y_edges, prefix, coef, half * leg.legint(coef, lbnd=-1.0)


def g0_y_blocks(x) -> tuple[np.ndarray, np.ndarray]:
    """g(0, -x) and its derivative in x for x in [0, 10.5] by a route apart
    from the Scorer relation: f integrated over unit y blocks to A = 4^{1/3}
    x, and 4^{1/3} f(A) from the same block."""
    y_edges, prefix, coef, antider = _g0_y_blocks()
    four13 = 2.0 ** (2.0 / 3.0)
    A = four13 * np.asarray(x, dtype=np.float64)
    k = np.minimum(A.astype(int), coef.shape[1] - 1)
    t = 2.0 * (A - k) / (y_edges[k + 1] - k) - 1.0
    leg = np.polynomial.legendre
    return (prefix[k] + leg.legval(t, antider[:, k], tensor=False),
            four13 * leg.legval(t, coef[:, k], tensor=False))


def max_density_fd(a: float, state, step: float = 1e-4, spec=None) -> float:
    """Density of the one-sided maximum at level a > x from state (s, x):
    the barrier derivative k(s, x - a) of the hitting probability, by
    Richardson-refined central differences at steps ``step`` and
    ``step / 2``.  Near the barrier the difference is noise-limited at
    about 1e-5 relative; the stencil must stay below the barrier."""
    from chernoff.densities import StartState, hitting_prob
    from chernoff.quadrature import QuadratureSpec

    x0 = state.x - a
    if not x0 + step < 0.0:
        raise ValueError("stencil would cross the barrier")
    spec = spec or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10)

    def p_at(xx):
        return hitting_prob(StartState(state.s, xx), spec)

    d_h = (p_at(x0 + step) - p_at(x0 - step)) / (2.0 * step)
    d_h2 = (p_at(x0 + step / 2.0) - p_at(x0 - step / 2.0)) / step
    return (4.0 * d_h2 - d_h) / 3.0


def two_sided_per_side(cfg):
    """Max and argmax of W(t) - t^2 over [-t_max, t_max] with each side
    simulated by its own engine call against its own record, the left side
    winning ties: the shared-record engine must agree with it in law."""
    from chernoff import mcsim

    def worker(ci, n):
        kw = dict(s0=0.0, x0=0.0, parabola=True, track_max=True, track_hit=False)
        rm, ra, _ = mcsim._one_sided_chunk(cfg, ci, n, sides=(0,), **kw)
        lm, la, _ = mcsim._one_sided_chunk(cfg, ci, n, sides=(1,), **kw)
        left = lm >= rm
        return np.where(left, lm, rm), np.where(left, -la, ra)

    parts = mcsim._run_chunks(cfg, worker)
    return mcsim.PathSample(np.concatenate([p[0] for p in parts]),
                            np.concatenate([p[1] for p in parts]))
