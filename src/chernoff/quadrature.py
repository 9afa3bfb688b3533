"""Adaptive complex-valued quadrature on an interval, with the bound of a
truncated tail counted in.

One integrator, `integrate_interval`, serves every adaptive integral: fixed
Gauss-Kronrod 15(7) panels, batch evaluation of all pending panels in a
single vectorized integrand call, bisection of panels whose embedded error
estimate exceeds their share of the tolerance, and an optional bound for
the part of the domain left out.  An infinite domain is cut at the U that
`truncation` solves from a decay bound; a Hermitian integrand is folded
onto u > 0 by its caller.  `panel_edges` lays out the equal first-pass
panels, and the fixed g rule's, and refuses more than the subdivision
budget before any evaluation.

Integrands must accept a float64 ndarray and return a complex (or float)
ndarray of the same shape.  Results are bit-reproducible: panel processing
order and the final pairwise reduction are fixed functions of the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "QuadratureBudgetError",
    "integrate_interval",
    "truncation",
    "panel_edges",
    "airy_ratio_tail_bound",
    "gauss_legendre_panels",
    "kronrod_panels",
]

# QUADPACK 15-point Kronrod nodes/weights with embedded 7-point Gauss rule.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])          # 15 ascending
_WK = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
_WG15 = np.zeros(15)
_WG15[1:-1:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])  # Gauss at odd slots


class QuadratureBudgetError(RuntimeError):
    """Subdivision budget exhausted; carries the best available result."""

    def __init__(self, result: "QuadratureResult"):
        super().__init__(
            "quadrature budget exceeded: err_estimate=%.3e after %d evaluations"
            % (result.err_estimate, result.evaluations))
        self.result = result


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 4096

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise ValueError("tolerances must be finite")
        if self.abs_tol < 1e-14 or self.rel_tol < 1e-14:
            raise ValueError("tolerances below 1e-14 are not supported")
        if not (0 < self.max_subdivisions <= 2 ** 20):
            raise ValueError("max_subdivisions out of range")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    err_estimate: float
    evaluations: int


def _pairwise(vals: np.ndarray) -> complex:
    # fixed-shape pairwise tree; order independent of refinement history
    v = vals.copy()
    while v.size > 1:
        if v.size % 2:
            v = np.concatenate([v, [0.0 + 0.0j]])
        v = v[0::2] + v[1::2]
    return complex(v[0]) if v.size else 0.0 + 0.0j


def truncation(decay: Callable[[float], float], target: float,
               lo: float = 5.0, hi: float = 200.0) -> tuple[float, float]:
    """Smallest U in [lo, hi] with decay(U) <= target, by 60 bisections, and
    decay(U): where to cut an infinite domain whose integral beyond U is
    bounded by decay(U), and the tail bound to pass on.  U is hi when
    decay(hi) > target."""
    if decay(lo) <= target:
        return lo, decay(lo)
    if decay(hi) > target:
        return hi, decay(hi)
    a, b = lo, hi
    for _ in range(60):
        m = 0.5 * (a + b)
        if decay(m) <= target:
            b = m
        else:
            a = m
    return b, decay(b)


def panel_edges(a: float, b: float, width: float,
                spec: QuadratureSpec) -> np.ndarray:
    """Equal panel edges on [a, b]: at least 4 panels, each at most
    ``width`` wide; more of them than the subdivision budget is a budget
    error."""
    n = (b - a) / width if width > 0.0 else math.inf
    if not n <= spec.max_subdivisions:
        # more oscillation panels than the subdivision budget, all of them
        # allocated and evaluated before the first error estimate
        raise QuadratureBudgetError(QuadratureResult(math.nan, math.inf, 0))
    return np.linspace(a, b, max(4, int(math.ceil(n))) + 1)


def kronrod_panels(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-panel Kronrod 15 and Gauss 7 sums of f: nodes (n,) -> (..., n)."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES[None, :]
    y = f(x.ravel())
    y = y.reshape(y.shape[:-1] + x.shape)
    return (y * _WK).sum(axis=-1) * half, (y * _WG15).sum(axis=-1) * half


def integrate_interval(f, a: float, b: float, spec: QuadratureSpec | None = None,
                       frequency: float = 0.0, tail: float = 0.0) -> QuadratureResult:
    """Adaptive integral of f over [a, b].

    ``tail`` is a bound, computed by the caller, on |the integral over the
    part of the domain left out| (0 for a finite domain).  It counts
    against the tolerance and is added to the error estimate; once it
    alone leaves the tolerance out of reach, the call raises a budget error
    instead of refining.  ``frequency`` caps the first-pass panel widths at
    pi/(4 max(1, |frequency|)), an eighth of the period of e^{i frequency u},
    so oscillatory factors stay resolved.
    """
    spec = spec or QuadratureSpec()
    edges = panel_edges(a, b, math.pi / (4.0 * max(1.0, abs(frequency))), spec)
    lefts, rights = edges[:-1], edges[1:]
    evals = 0

    def eval_panels(lo, hi):
        nonlocal evals
        evals += 15 * lo.size
        vk, vg = kronrod_panels(
            lambda x: np.asarray(f(x), dtype=np.complex128), lo, hi)
        return vk, np.abs(vk - vg)

    vals, errs = eval_panels(lefts, rights)
    n_splits = 0
    while True:
        total_err = float(errs.sum())
        value = _pairwise(vals[np.argsort(lefts, kind="stable")])
        tol = max(spec.abs_tol, spec.rel_tol * abs(value))
        if total_err + tail <= tol:
            break
        # give up at the subdivision budget, or at once where the fixed
        # tail alone leaves the tolerance out of reach
        if n_splits >= spec.max_subdivisions or (
                tail > 0.9 * tol and total_err <= 0.1 * tail):
            raise QuadratureBudgetError(QuadratureResult(value, total_err + tail, evals))
        # split panels near the current worst error; the per-panel share
        # criterion alone would thrash on noise-floor panels while a narrow
        # feature is still being localized
        share = max(tol - tail, 0.25 * tol) / max(1, len(lefts))
        refine = errs > max(share, 0.3 * float(errs.max()))
        if not refine.any():
            refine = errs >= errs.max()
        keep = ~refine
        rl, rr = lefts[refine], rights[refine]
        n_splits += int(refine.sum())
        mids = 0.5 * (rl + rr)
        new_l = np.concatenate([lefts[keep], rl, mids])
        new_r = np.concatenate([rights[keep], mids, rr])
        v2, e2 = eval_panels(np.concatenate([rl, mids]), np.concatenate([mids, rr]))
        vals = np.concatenate([vals[keep], v2])
        errs = np.concatenate([errs[keep], e2])
        lefts, rights = new_l, new_r
    return QuadratureResult(value, total_err + tail, evals)


def airy_ratio_tail_bound(U: float) -> float:
    """Tail bound for the Ai-ratio integrand families.

    Covers, for U >= 5, both
      * 1/(2 pi Ai(iu)^2)                        ~ 2 sqrt(u) exp(-c2 u^{3/2}),
      * Ai(iu + y)/(pi-ish * Ai(iu)^2), y >= 0   ~ C u^{1/4} exp(-c1 u^{3/2})
    with c1 = sqrt2/3 and c2 = 2 sqrt2/3; it bounds the integral of the
    slower family over both tails |u| > U.  Constants carry a 4x safety
    margin over the asymptotic envelope (checked empirically in the test
    suite).
    """
    if U <= 0:
        return math.inf
    c1 = math.sqrt(2.0) / 3.0
    # int_U^inf u^{1/4} exp(-c1 u^{3/2}) du <= (2/(3 c1)) U^{-1/4} e^{-c1 U^{3/2}}
    env = (2.0 / (3.0 * c1)) * U ** -0.25 * math.exp(-c1 * U ** 1.5)
    return 2.0 * 4.0 * math.sqrt(math.pi) * env  # both tails, 4x margin


_leggauss = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def gauss_legendre_panels(a: float, b: float, nodes: int, n_panels: int):
    """Fixed composite Gauss-Legendre rule on [a, b]: n_panels equal panels
    with a ``nodes``-point rule each.

    Returns flat (points, weights), panel by panel; used for inner
    integrals where adaptivity would feed noise into an outer adaptive pass.
    """
    x, w = _leggauss(nodes)
    edges = np.linspace(a, b, n_panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x[None, :]
    wts = 0.5 * (hi - lo) * w[None, :] * np.ones_like(pts)
    return pts.ravel(), wts.ravel()
