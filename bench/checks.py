"""Output checks that do not rely on the program's own earlier output.

Each check compares an output of the program with a closed form, with a
relation of the paper between integrals the program computes on separate
routes, or with a property every law must have.  Each returns a ``Check``;
``bench/tests`` shows that each one rejects a perturbed output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import airy, erfc, gammaincc, ndtri

# A correct Monte Carlo sampler fails a check with probability below this,
# on any seed.
MC_FALSE_ALARM = 1e-9
# Allowance for the dt = 5e-4 grid in the argmax KS distance (the argmax
# lands on the grid; the bridge maximum removes the level bias only).
KS_GRID_ALLOWANCE = 0.003


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def close(name: str, got: float, want: float, abs_tol: float,
          rel_tol: float = 0.0) -> Check:
    err = abs(got - want)
    tol = abs_tol + rel_tol * abs(want)
    return Check(name, bool(err <= tol),
                 "got %.12g want %.12g err %.2e tol %.2e" % (got, want, err, tol))


def nonnegative(name: str, values, err_estimate: float) -> Check:
    low = float(np.min(values))
    return Check(name, bool(low >= -err_estimate),
                 "min %.3e allowed %.1e" % (low, -err_estimate))


def symmetric(name: str, grid, values, tol: float) -> Check:
    """values(t) = values(-t) on a grid symmetric about 0."""
    grid, values = np.asarray(grid), np.asarray(values)
    if not np.allclose(grid, -grid[::-1], rtol=0.0, atol=1e-9):
        return Check(name, False, "grid is not symmetric")
    gap = float(np.max(np.abs(values - values[::-1])))
    return Check(name, bool(gap <= tol), "max |f(t)-f(-t)| %.2e tol %.1e" % (gap, tol))


def monotone(name: str, values, err_estimate: float) -> Check:
    """Nondecreasing up to the error of the values themselves."""
    drop = float(np.min(np.diff(values)))
    return Check(name, bool(drop >= -err_estimate),
                 "smallest step %.3e allowed %.1e" % (drop, -err_estimate))


def corrected_trapezoid(x, y) -> float:
    """Trapezoid rule with the Euler-Maclaurin end correction, the end
    slopes taken by one-sided second-order differences on a uniform grid."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h = (x[-1] - x[0]) / (x.size - 1)
    d0 = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    d1 = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return float(np.trapezoid(y, x)) - h * h / 12.0 * (d1 - d0)


_GL40_X, _GL40_W = np.polynomial.legendre.leggauss(40)


def phi_reference(t: float) -> float:
    """phi(t) = (2^{-1/3}/pi) int e^{-i 2^{1/3} t u} / Ai(iu) du on a fixed
    composite 40-point Gauss-Legendre grid, with Ai from scipy (AMOS).

    Shares no code with the package: neither its Airy functions nor its
    quadrature.  Ai(-iu) = conj Ai(iu) folds the line onto the half line;
    1/|Ai(iu)| < 1e-18 beyond u = 20.
    """
    edges = np.linspace(0.0, 20.0, 81)
    lo, hi = edges[:-1, None], edges[1:, None]
    u = (0.5 * (lo + hi) + 0.5 * (hi - lo) * _GL40_X[None, :]).ravel()
    w = (0.5 * (hi - lo) * _GL40_W[None, :]).ravel()
    ai = airy(1j * u)[0]
    val = np.sum(w * np.exp(-1j * 2.0 ** (1.0 / 3.0) * t * u) / ai)
    return float(2.0 * val.real * 2.0 ** (-1.0 / 3.0) / math.pi)


def ks_bound(n: int) -> float:
    """KS distance that a correct sampler exceeds with probability below
    MC_FALSE_ALARM (Dvoretzky-Kiefer-Wolfowitz), plus the grid allowance."""
    return math.sqrt(math.log(2.0 / MC_FALSE_ALARM) / (2.0 * n)) + KS_GRID_ALLOWANCE


def mc_ks(name: str, ks: float, n: int) -> Check:
    bound = ks_bound(n)
    return Check(name, bool(ks <= bound), "KS %.5f bound %.5f n %d" % (ks, bound, n))


def mc_proportion(name: str, hits: int, n: int, p: float) -> Check:
    """Binomial count against the quadrature probability p."""
    z_max = float(-ndtri(MC_FALSE_ALARM / 2.0))
    se = math.sqrt(p * (1.0 - p) / n)
    z = (hits / n - p) / se
    return Check(name, bool(abs(z) <= z_max),
                 "mc %.6f quadrature %.6f z %+.2f bound %.2f" % (hits / n, p, z, z_max))


def purebm_chi2(name: str, edges, counts, censored: int, n: int, z: float) -> Check:
    """Passage histogram of driftless BM from z against erfc(z / sqrt(2u))."""
    cdf = erfc(z / np.sqrt(2.0 * np.maximum(edges, 1e-300)))  # 0 at u = 0
    expected = n * np.concatenate([np.diff(cdf), [1.0 - cdf[-1]]])
    observed = np.concatenate([counts, [censored]]).astype(float)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    pval = float(gammaincc((observed.size - 1) / 2.0, chi2 / 2.0))
    return Check(name, bool(pval >= MC_FALSE_ALARM),
                 "chi2 %.1f dof %d p %.3g" % (chi2, observed.size - 1, pval))
