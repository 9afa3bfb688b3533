"""Distributions for Brownian motion with parabolic drift ``W(t) - t^2``.

Everything here reduces to three ingredients:

* ``h``      -- the exponentially tilted first-passage kernel, recovered by
  inverting its Airy-ratio Laplace transform
  ``Ai(2^{-1/3} lam - 4^{1/3} x) / Ai(2^{-1/3} lam)``;
* ``g``      -- the tilted survival functional, an absolutely convergent
  double integral of ``Ai(iu+y)/Ai(iu)^2`` along the imaginary axis;
* ``phi``    -- the barrier-derivative transform
  ``(1/(4^{1/3} pi)) int e^{-itv} / Ai(i 2^{-1/3} v) dv``.

From these: hitting and survival probabilities from any start state
(s, x <= 0), densities of the maximum and its location for the one- and
two-sided processes, and the argmax density ``f_Z(t) = phi(t) phi(-t)/2``.
The one-sided max density is the joint density of (argmax, max), in the
product form ``exp((2/3)s^3 + 2s(x-a)) h_{x-a}(tau) phi(s+tau)``,
integrated over the argmax time.

Laplace inversion runs on two routes that cross-validate each other:
below t = 0.9 one parabolic Bromwich contour per octave of time, whose 33
Airy ratios serve every time in the octave, and from there the residue
series over Airy zeros, which converges to machine precision; they agree
to ~3e-13 on [0.5, 0.9).  The direct Fourier form along the imaginary axis
is how the transform is defined, but its integrand only decays like
``exp(-c sqrt(u))``, so it lives in the test oracles as a slow reference,
next to a fixed-Talbot contour per time.

``phi`` is the residue series over the Airy zeros below t = -1, and
e^{-(2/3) t^3} k(t, 0) from there on, with k a trapezoid sum on a saddle line
per band of t; nothing caches it.  ``g`` has one rule, a fixed Kronrod sum
on quarter-period u panels of the source paper's incomplete-Scorer form of
the y integral; the g(0, .) model takes the y integrand at Gauss blocks in
y once, apart from it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.special

from . import airy
from .quadrature import (
    QuadratureBudgetError,
    QuadratureSpec,
    QuadratureResult,
    airy_ratio_tail_bound,
    integrate_interval,
    kronrod_panels,
    panel_edges,
    truncation,
)

__all__ = [
    "StartState",
    "DensityTable",
    "ProbabilityRangeError",
    "NegativeDensityError",
    "h_density",
    "hitting_prob",
    "survival_prob",
    "g_fun",
    "tilted_g",
    "tilted_g_limit",
    "phi",
    "k_at_barrier",
    "chernoff_density",
    "chernoff_cdf",
    "psi",
    "joint_density_one_sided",
    "max_density_one_sided",
    "joint_density_two_sided",
    "max_marginal_two_sided",
    "bm_first_passage_density",
    "bm_first_passage_cdf",
    "argmax_second_moment",
    "max_mean_two_sided",
    "tabulate",
]

TWO13 = 2.0 ** (1.0 / 3.0)
FOUR13 = 2.0 ** (2.0 / 3.0)

_H_T_MIN = 1e-12        # below it, the small-time limit of h
_RESIDUE_T_MIN = 0.9    # from it on, the residue series; below, the contour
_H_NODES = 32           # trapezoid steps of a band's contour on u in [0, 4]
_H_STEP = 4.0 / _H_NODES
_H_MU_T1 = 0.15 * _H_NODES  # mu t1 of the band's parabola
_H_BLOCK = 4096         # (shift, time) entries per block of contour terms
_N_ZEROS = 64  # truncation at t = 0.9 under 2e-23, below the series' rounding
_H_ERR = 2e-10  # validated pointwise accuracy scale of the h inversion
# tolerance of the max density's time integral, at the h noise scale: at
# 1e-12 the integral exhausts its budget within 1e-6 of the barrier
_MAX_TOL = 1e-9


class ProbabilityRangeError(ArithmeticError):
    """A quantity that must be a probability fell outside [0, 1] by more
    than its error estimate."""


class NegativeDensityError(ValueError, ArithmeticError):
    """A density value below -1e-9, which is no rounding residue but a
    numerical failure; also a ValueError, as an invalid table value."""


@dataclass(frozen=True)
class StartState:
    """Start time s and start level x <= 0 of the drifted process."""

    s: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.x)):
            raise ValueError("non-finite start state")
        if self.x > 0.0:
            raise ValueError("start level must satisfy x <= 0")
        if not math.isfinite(self.shift):
            raise ValueError("start level x = %g overflows the Airy shift "
                             "-4^{1/3} x" % self.x)

    @property
    def shift(self) -> float:
        """Airy-argument shift -4^{1/3} x >= 0."""
        return -FOUR13 * self.x


def _as_probability(value: float, err: float, what: str) -> float:
    """Clamp ``value`` into [0, 1]: silently when it is out by no more than
    ``err``, with a warning up to the error budget, and raise beyond it."""
    slack = max(err, 1e-12) * 10.0 + 5e-9
    excess = max(-value, value - 1.0)
    if excess > slack:
        raise ProbabilityRangeError(
            "%s = %.6e outside [0,1] beyond error budget %.1e" % (what, value, slack))
    if excess > err:
        warnings.warn("clamped %s = %.3e into [0,1]" % (what, value),
                      RuntimeWarning, stacklevel=3)
    return min(1.0, max(0.0, value)) if excess > 0.0 else value  # NaN passes


# ----------------------------------------------------------------------------
# h: inversion of the Airy-ratio Laplace transform
# ----------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _residue_data():
    zeros = airy.airy_zeros(_N_ZEROS)
    aip = scipy.special.airy(zeros)[1]
    return zeros, aip


def _h_residue(a_arr, ts: np.ndarray) -> np.ndarray:
    """Residue (spectral) series, (shifts, times); accurate for t >= ~0.8."""
    zeros, aip = _residue_data()
    num = airy.ai_real(zeros[None, :] + np.atleast_1d(a_arr)[:, None])
    terms = (TWO13 * num / aip)[:, None, :] * np.exp(TWO13 * np.outer(ts, zeros))
    return terms.sum(axis=-1)  # per entry, so no entry depends on the grid


@lru_cache(maxsize=None)
def _h_band(k: int):
    """Band k of the h contour, the times [0.9 / 2^(k+1), 0.9 / 2^k): the
    parabola z = mu (1 + iu)^2, mu = 4.8 / t1 at the band's top t1, folded
    onto u >= 0 by conjugate symmetry and cut at u = 4 (Weideman & Trefethen,
    Math. Comp. 2007).  Returns the nodes z and the log trapezoid weights
    log w, w = (step/pi) 2 mu (1 + iu), halved at u = 0."""
    mu = _H_MU_T1 * 2.0 ** k / _RESIDUE_T_MIN
    u = _H_STEP * np.arange(_H_NODES + 1.0)
    w = (_H_STEP / math.pi) * 2.0 * mu * (1.0 + 1j * u)
    w[0] *= 0.5
    z = mu * (1.0 + 1j * u) ** 2
    return z, np.log(w)


def _h_brownian(a_arr, ts: np.ndarray) -> np.ndarray:
    """Small-time limit of h, (shifts, times): the driftless first-passage
    density |x| (2 pi t^3)^{-1/2} exp(-x^2/(2t)) at x = -a/4^{1/3}.  Its
    relative error is O(t^{3/2}) wherever h is representable, so below
    1e-12 it is exact in double precision; in log form it stays finite
    down to subnormal t, where the contour scale mu ~ 1/t overflows."""
    x = np.atleast_1d(a_arr)[:, None] / FOUR13
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(np.log(x) - 0.5 * math.log(2.0 * math.pi)
                      - 1.5 * np.log(ts) - x * x / (2.0 * ts))


def _h_kernel(a_arr, t_min: float = 0.0):
    """h at the Airy shifts a = -4^{1/3} x >= 0 as a function of time: it
    maps times to the (len(a), len(t)) grid, 0 at t <= 0, the small-time
    limit below 1e-12, from there the contour of each time's band, and the
    residue series from t = 0.9 on.  Each entry sums its own terms, so a
    grid, its rows and its columns agree bit for bit.  The Airy ratios at a
    band's nodes are taken once, in one call for the bands that a time
    array opens, and kept while the function lives: an adaptive integral
    over t pays for each band once, not for each time.  The first call also
    opens every band from t_min's to band 0, so an integral over times from
    t_min on makes one Airy call."""
    a_arr = np.atleast_1d(np.asarray(a_arr, dtype=np.float64))
    ratios = {}  # band -> log Ai(2^{-1/3} z + a) - log Ai(2^{-1/3} z), (shifts, nodes)
    first = (-math.frexp(max(t_min, _H_T_MIN) / _RESIDUE_T_MIN)[1]
             if 0.0 < t_min < _RESIDUE_T_MIN else -1)

    def contour(ts):
        band = -np.frexp(ts / _RESIDUE_T_MIN)[1]
        bands = [int(k) for k in np.unique(band)]
        todo = [k for k in sorted(set(bands).union(range(first + 1)))
                if k not in ratios]
        if todo:
            z = np.concatenate([_h_band(k)[0] for k in todo])
            logr = airy.log_ai_diff(z[None, :] / TWO13, a_arr[:, None])
            ratios.update(zip(todo, np.split(logr, len(todo), axis=1)))
        out = np.empty((a_arr.size, ts.size))
        step = max(1, _H_BLOCK // a_arr.size)
        for k in bands:
            z, logw = _h_band(k)
            jk = np.flatnonzero(band == k)
            for j in np.split(jk, range(step, jk.size, step)):
                expo = (logw + ratios[k])[:, None, :] + ts[j, None] * z
                out[:, j] = (np.exp(expo.real) * np.cos(expo.imag)).sum(axis=-1)
        return out

    def h(t_arr) -> np.ndarray:
        t_arr = np.atleast_1d(np.asarray(t_arr, dtype=np.float64))
        out = np.zeros((a_arr.size, t_arr.size))
        tiny = (t_arr > 0.0) & (t_arr < _H_T_MIN)
        small = (t_arr >= _H_T_MIN) & (t_arr < _RESIDUE_T_MIN)
        large = t_arr >= _RESIDUE_T_MIN
        if tiny.any():
            out[:, tiny] = _h_brownian(a_arr, t_arr[tiny])
        if small.any():
            out[:, small] = contour(t_arr[small])
        if large.any():
            out[:, large] = _h_residue(a_arr, t_arr[large])
        return out

    return h


def _h_grid(a_arr, t_arr) -> np.ndarray:
    """h on the (shift, time) grid, shape (len(a), len(t)), by one
    `_h_kernel`: one Airy call for every band the times touch."""
    return _h_kernel(a_arr)(t_arr)


def h_density(x: float, t: float) -> float:
    """Tilted first-passage kernel h_x(t); requires x < 0, t > 0.

    ``exp(-(2/3)(t^3 - s^3) + 2 s x) h_x(t - s)`` is the density of the
    passage time through 0 from (s, x).
    """
    if not x < 0.0:
        raise ValueError("h_density requires x < 0")
    if not t > 0.0:
        raise ValueError("h_density requires t > 0")
    return float(_h_grid(-FOUR13 * x, t)[0, 0])


# ----------------------------------------------------------------------------
# Hitting probability: outer time integral of h
# ----------------------------------------------------------------------------

def _cubic_gap(s: float, tau) -> np.ndarray:
    """(2/3)((s+tau)^3 - s^3), computed without cancellation."""
    tau = np.asarray(tau, dtype=np.float64)
    return (2.0 / 3.0) * tau * (3.0 * s * s + 3.0 * s * tau + tau * tau)


def _passage_horizon(s: float, x: float, shift: float, target: float,
                     weighted: bool = False):
    """Time T past which the passage density from (s, x), Airy shift
    ``shift``, integrates to at most ``target``, and that tail bound.
    ``weighted`` bounds that density times the barrier factor
    k(s + tau, 0) <= 5 max(1, s + tau) instead."""
    zeros, aip = _residue_data()
    lead = TWO13 * abs(float(airy.ai_real(zeros[0] + shift) / aip[0]))
    hbar = 2.0 * (1.0 + lead)

    def decay(T):
        body = 2.0 * s * x - _cubic_gap(s, T)
        if body > 690.0:
            return math.inf
        grow = 5.0 * max(s + T, 1.0) if weighted else 1.0
        return grow * hbar * math.exp(body) / (2.0 * max(s + T, 1.0) ** 2)

    # a fixed bisection count keeps finite differences of hitting_prob smooth
    return truncation(decay, target, lo=max(1.0, 1.5 - s), hi=60.0)


def _passage_head(s: float, x: float, T: float, target: float):
    """Time tau0 in [0, T] before which the passage from (s, x) has
    probability at most ``target``, and that bound.  On [s, s + tau0] the
    parabola moves the level by at most 2|s| tau0 + tau0^2, so by the
    reflection principle the probability is at most
    erfc((|x| - 2|s| tau0 - tau0^2) / sqrt(2 tau0)); tau0 is the largest
    time where that is <= target, by 60 bisections as in the horizon."""
    def bound(tau):
        return math.erfc((-x - 2.0 * abs(s) * tau - tau * tau)
                         / math.sqrt(2.0 * tau)) if tau > 0.0 else 0.0

    lo, hi = 0.0, min(x * x, T)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bound(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo, bound(lo)


def hitting_prob(state: StartState, spec: QuadratureSpec | None = None) -> float:
    """Probability that the process from (s, x) ever reaches the barrier.

    Absolutely convergent route: the time integral of the passage density
    ``exp(-(2/3)((s+tau)^3 - s^3) + 2 s x) h_x(tau)`` on [tau0, T], with
    the bounds of the passage mass before tau0 and after T counted in the
    error.  One h kernel serves every adaptive pass.
    """
    if state.x == 0.0:
        return 1.0
    spec = spec or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9)
    s, x = state.s, state.x
    a = state.shift
    T, tail = _passage_horizon(s, x, a, spec.abs_tol / 2.0)
    tau0, head = _passage_head(s, x, T, spec.abs_tol / 4.0)
    h = _h_kernel(a, tau0)

    def f(tau):
        return np.exp(2.0 * s * x - _cubic_gap(s, tau)) * h(tau)[0]

    res = integrate_interval(f, tau0, T, spec, tail=tail + head)
    err = res.err_estimate + _H_ERR * T
    return _as_probability(res.value.real, err, "hitting_prob%s" % (state,))


# ----------------------------------------------------------------------------
# g: tilted survival functional
# ----------------------------------------------------------------------------

def _y_cap(s: float) -> float:
    """Upper y beyond which exp(-2^{1/3} s y) Ai(iu+y) is negligible: the
    fixed point of y = (3/2 (55 + 2^{1/3} max(0, -s) y))^{2/3}, where the
    Airy decay (2/3) y^{3/2} outruns the tilt by 55 e-foldings."""
    drive = TWO13 * max(0.0, -s)
    y = 9.0
    for _ in range(80):
        y_new = (1.5 * (55.0 + drive * y)) ** (2.0 / 3.0)
        if abs(y_new - y) < 1e-9:
            break
        y = y_new
    return max(3.0, y)


_G_SPEC = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-9)
# the u cut's share of g's error: far under the budget, for one panel more
# than a cut at 5e-11, so g reads within 1e-14 of a 1e-14 reference
_G_TAIL = 1e-12


def _g_tail(s: float, A: float | None):
    """Bound on the folded u integral past U >= 5 of the g integrand
    e^{-beta^3/3} W(z + A) / Ai(z)^2 (`tilted_g`), as a function of U.  By
    the Scorer relation that is e^{-beta^3/3} W(z) / Ai^2 - I / pi Ai^2, I =
    int_0^A e^{-beta (z + y)} Ai(z + y) dy.  As Re sqrt(iu + y) >= sqrt(u/2),
    |I| <= |Ai(iu)| int_0^A e^{-kappa y} dy, kappa = beta + sqrt(u/2), to the
    Poincare series' first term (A = None needs kappa > 0); by parts in t,
    e^{-beta^3/3} |Hi(iu; -beta)| <= 3 / pi u and |d/dz Hi| <= 2 (|beta| +
    1) / pi u likewise, and |Ai'/Ai| <= sqrt u + 1.  The sum falls in u, and
    `airy_ratio_tail_bound` integrates 1 / |Ai(iu)| with its 4x margin."""
    beta = TWO13 * s

    def decay(U):
        kappa = beta + math.sqrt(0.5 * U)
        if A is None or -kappa * A > 700.0:
            if not kappa > 0.0:
                return math.inf
            span = 1.0 / kappa
        else:
            span = -math.expm1(-kappa * A) / kappa if kappa else A
        hi = (3.0 * math.sqrt(U) + 2.0 * abs(beta) + 5.0) / U
        return airy_ratio_tail_bound(U) * (span + hi) / math.pi

    return decay


def tilted_g(s: float, barrier_width: float | None) -> QuadratureResult:
    """(1/2pi) int du [int_0^A exp(-2^{1/3} s (iu+y)) Ai(iu+y) dy] / Ai(iu)^2.

    This equals exp(2sx) g(s, x) for A = -4^{1/3} x; ``barrier_width=None``
    takes A = infinity, which is the Laplace-limit function p(s).  By the
    source paper's incomplete-Scorer relation the y integral is pi
    e^{-beta^3/3} [W(z) - W(z + A)], z = iu, beta = 2^{1/3} s, W = Ai'
    Hi(.; -beta) - Ai d/dz Hi(.; -beta), with W(z + A) = -1/pi (the
    Wronskian of Ai and Bi) for A = None or A at or past `_y_cap`.  The W(z)
    part is i e^{-beta^3/3} d/du (Hi / Ai)(iu), real at u = 0, so past U it
    folds to e^{-beta^3/3} Im (Hi / Ai)(iU), added in; the rest is 2 Re of
    the Hermitian integrand over Kronrod 15 panels on (0, U], a quarter
    period of the tilt e^{-i beta u} wide.  The err_estimate adds the
    panels' Kronrod 15 - Gauss 7 differences, the tail bound `_g_tail` and
    the cut of the t rule (`airy.hi_lines`); a tail past 1e-12 raises a
    budget error before any Airy evaluation, an estimate past abs 1e-10 /
    rel 1e-9 after it.
    """
    A = None if barrier_width is None or barrier_width >= _y_cap(s) else barrier_width
    if A is not None and A <= 0.0:
        return QuadratureResult(0.0, 0.0, 0)
    beta = TWO13 * s
    U, tail = truncation(_g_tail(s, A), _G_TAIL)
    if not tail <= _G_TAIL:
        raise QuadratureBudgetError(QuadratureResult(math.nan, math.inf, 0))
    edges = panel_edges(0.0, U, math.pi / (2.0 * max(1.0, abs(beta))), _G_SPEC)
    lines = np.array([0.0] if A is None else [0.0, A])

    def f(u):
        m, hi, dhi, cut = airy.hi_lines(lines, u, -beta)
        log_ai, ratio = airy.log_ai_and_ratio(lines[:, None] + 1j * u)
        # e^{-beta^3/3} W / Ai(z)^2 on each line, from its log-scaled parts
        scale = np.exp(m[:, None] + log_ai - 2.0 * log_ai[0])
        w = scale * (ratio * hi - dhi)
        far = w[1] if A is not None else -np.exp(-beta ** 3 / 3.0 - 2.0 * log_ai[0]) / math.pi
        bound = np.abs(scale) * (np.abs(ratio) * cut[0][:, None] + cut[1][:, None])
        return np.stack([(w[0] - far).real, bound.sum(axis=0)])

    (vk, ck), (vg, _) = kronrod_panels(f, edges[:-1], edges[1:])
    m, hi, _, _ = airy.hi_lines(0.0, [U], -beta)
    rest = (np.exp(m[0] - airy.log_ai_many(1j * U)[0]) * hi[0, 0]).imag
    err = float(np.abs(vk - vg).sum() + ck.sum()) + tail
    res = QuadratureResult(float(vk.sum() + rest), err, 15 * vk.size)
    if not err <= max(_G_SPEC.abs_tol, _G_SPEC.rel_tol * abs(res.value)):
        raise QuadratureBudgetError(res)
    return res


_SURVIVAL_ERR = 1e-6  # largest scaled error estimate survival_prob returns with


def survival_prob(state: StartState) -> float:
    """Probability of never reaching the barrier from (s, x):
    exp(2sx + (2/3)s^3) g(s, x).  The g rule is accurate in absolute terms,
    so the factor e^{(2/3)s^3} scales its error: where that scaled error
    passes 1e-6 (s above about 2.8) or the factor overflows, it raises
    ProbabilityRangeError instead of returning a value."""
    if state.x == 0.0:
        return 0.0
    res = tilted_g(state.s, state.shift)
    cubic = (2.0 / 3.0) * state.s ** 3
    tilt = math.exp(cubic) if cubic < 700.0 else math.inf
    if not tilt * res.err_estimate <= _SURVIVAL_ERR:
        raise ProbabilityRangeError(
            "survival_prob%s: e^{(2/3)s^3} = e^%.4g times the g rule's error "
            "%.1e passes %.0e" % (state, cubic, res.err_estimate, _SURVIVAL_ERR))
    return _as_probability(tilt * res.value, tilt * res.err_estimate,
                           "survival_prob%s" % (state,))


def g_fun(state: StartState) -> float:
    """The survival integrand g(s, x) itself (exp(-2sx) times tilted_g)."""
    pref = -2.0 * state.s * state.x
    if pref > 690.0:
        raise OverflowError("exp(-2sx) overflows; use survival_prob/tilted_g")
    return math.exp(pref) * tilted_g(state.s, state.shift).value


def tilted_g_limit(s: float) -> float:
    """p(s): the barrier-width -> infinity limit of tilted_g.  Equals
    exp(-(2/3) s^3)."""
    return tilted_g(s, None).value


# ----------------------------------------------------------------------------
# phi and the argmax density
# ----------------------------------------------------------------------------

_PHI_T_MAX = 10.5   # phi underflows to 0 from about t = 10.4
_PHI_ROWS = 4096    # entries per block of (entries, nodes) terms
_FZ_DOMAIN = 4.8    # the argmax CDF model's interval


@lru_cache(maxsize=None)
def _k_band(b: int):
    """Centre t_c, nodes v and log weights of band b of the k rule: the line
    z = c + iv, c = 4^{1/3} t_c^2, crosses the saddle of e^{-2^{1/3} t_c z} /
    Ai(z), t_c^{3/2} = b + 1/2 (c = 1/2 in band 0); steps of 0.75 (0.3 in band
    0) on v in [0, 16 + 3 sqrt c]; log weights log w - log Ai(z) - (2/3) c^{3/2},
    with 2 x 2^{-1/3}/pi (the fold onto v >= 0 and the constant) in w."""
    tc = (b + 0.5) ** (2.0 / 3.0) if b else 0.5 ** 0.5 / TWO13
    step = 0.75 if b else 0.3
    v = step * np.arange(math.floor((16.0 + 3.0 * TWO13 * tc) / step) + 1.0)
    w = np.where(v == 0.0, 0.5, 1.0) * (2.0 * step / (TWO13 * math.pi))
    z = FOUR13 * tc * tc + 1j * v
    return tc, v, np.log(w) - airy.log_ai_many(z) - (4.0 / 3.0) * tc ** 3


def _k_rule(t: np.ndarray) -> np.ndarray:
    """k(t, 0) = e^{(2/3) t^3} phi(t) for t >= -1 on a 1-D array: 2 Re of the
    trapezoid sum of e^{(2/3) t^3 - 2^{1/3} t z} / Ai(z) on the line of band
    floor(max(t, 0)^{3/2}), whose large exponents cancel in closed form to
    (2/3)(t - t_c)^2 (t + 2 t_c).  Each entry sums its own row."""
    band = np.floor(np.maximum(t, 0.0) ** 1.5)
    out = np.empty(t.shape)
    for b in np.unique(band):
        j = np.flatnonzero(band == b)
        tc, v, logw = _k_band(int(b))
        tj = t[j, None]
        lift = (2.0 / 3.0) * (tj - tc) ** 2 * (tj + 2.0 * tc)
        out[j] = (np.exp(logw.real + lift)
                  * np.cos(logw.imag - TWO13 * tj * v)).sum(axis=-1)
    return out


def phi(t):
    """phi(t) = (1/(4^{1/3} pi)) int e^{-itv} / Ai(i 2^{-1/3} v) dv, for a
    scalar (returns a float) or an array.  Below t = -1 it is the residue
    series 2^{2/3} sum_k e^{-2^{1/3} t a_k} / Ai'(a_k) over the 64 Airy zeros
    a_k; from there e^{-(2/3) t^3} k(t, 0) by the k rule; past t = 10.5, 0.
    Non-finite t is a ValueError."""
    arr = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("phi needs finite t")
    zeros, aip = _residue_data()
    out = np.zeros(arr.size)
    for i in range(0, arr.size, _PHI_ROWS):
        ti, oi = arr.ravel()[i:i + _PHI_ROWS], out[i:i + _PHI_ROWS]
        left, mid = ti < -1.0, (ti >= -1.0) & (ti <= _PHI_T_MAX)
        oi[left] = FOUR13 * (np.exp(-TWO13 * np.outer(ti[left], zeros)) / aip).sum(-1)
        oi[mid] = np.exp((-2.0 / 3.0) * ti[mid] ** 3) * _k_rule(ti[mid])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def k_at_barrier(s: float) -> float:
    """k(s, 0) = exp((2/3) s^3) phi(s): barrier derivative of the hitting
    probability, read from the k rule on [-1, 10.5]."""
    if -1.0 <= s <= _PHI_T_MAX:
        return float(_k_rule(np.array([float(s)]))[0])
    return math.exp((2.0 / 3.0) * s ** 3) * phi(s)


def chernoff_density(t):
    """Density of the argmax of two-sided W(t) - t^2:
    f_Z(t) = phi(t) phi(-t) / 2, for a scalar or an array."""
    return 0.5 * phi(t) * phi(np.negative(t))


@lru_cache(maxsize=1)
def _fz_cdf_interp():
    """Antiderivative of the argmax density; F(-4.8) ~ 0."""
    integ = np.polynomial.chebyshev.Chebyshev.interpolate(
        chernoff_density, 160, domain=[-_FZ_DOMAIN, _FZ_DOMAIN]).integ()
    return integ - integ(-_FZ_DOMAIN)


def chernoff_cdf(t) -> np.ndarray:
    """CDF of the argmax law, from the cached Chebyshev antiderivative."""
    t = np.asarray(t, dtype=np.float64)
    out = np.clip(_fz_cdf_interp()(np.clip(t, -_FZ_DOMAIN, _FZ_DOMAIN)), 0.0, None)
    total = _fz_cdf_interp()(_FZ_DOMAIN)
    out = np.where(t > _FZ_DOMAIN, total, out)
    return np.minimum(out, 1.0)


# ----------------------------------------------------------------------------
# psi and the two-sided laws
# ----------------------------------------------------------------------------

_G0_DOMAIN = 10.5
# Gauss-Legendre nodes per y block of the g(0, .) model: with 16 its g'
# jumps 6.6e-12 relative across y = 16, where f falls e^4 per block
_G0_Y_NODES = 24


@lru_cache(maxsize=1)
def _g0_interp():
    """The one model of x -> g(0, -x) on [0, 10.5], for psi and the
    two-sided laws, apart from `tilted_g`: at s = 0 only the upper y limit
    A = 4^{1/3} x depends on x, so f(y) = (1/2pi) int Ai(iu+y) / Ai(iu)^2
    du, 2 Re of its Hermitian integrand over Kronrod 15 panels pi/2 wide on
    (0, U], taken once at 24 Gauss nodes in each unit y block up to A =
    4^{1/3} 10.5, serves every x.  Returns the y block edges, the
    whole-block prefix integrals, and per block the Legendre coefficients
    of f's interpolant and of its antiderivative."""
    A = FOUR13 * _G0_DOMAIN
    U, _ = truncation(lambda U: A * airy_ratio_tail_bound(U) / (2.0 * math.pi),
                      _G_SPEC.abs_tol / 2.0)
    edges = panel_edges(0.0, U, math.pi / 2.0, _G_SPEC)
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


def _g0_vec(xarr) -> tuple[np.ndarray, np.ndarray]:
    """g(0, -x) and its derivative in x on [0, 10.5]: the g(0, .) model
    integrated to A = 4^{1/3} x, and 4^{1/3} f(A) from the same block."""
    y_edges, prefix, coef, antider = _g0_interp()
    A = FOUR13 * np.asarray(xarr, dtype=np.float64)
    k = np.minimum(A.astype(int), coef.shape[1] - 1)
    t = 2.0 * (A - k) / (y_edges[k + 1] - k) - 1.0
    leg = np.polynomial.legendre
    return (prefix[k] + leg.legval(t, antider[:, k], tensor=False),
            FOUR13 * leg.legval(t, coef[:, k], tensor=False))


def _g0_fast(xarr) -> np.ndarray:
    """g(0, -x) from the model, clipped to [0, 1]; 1 past its domain, where
    1 - g(0, -x) < 1e-22."""
    xarr = np.asarray(xarr, dtype=np.float64)
    inside = np.clip(_g0_vec(np.clip(xarr, 0.0, _G0_DOMAIN))[0], 0.0, 1.0)
    return np.where(xarr > _G0_DOMAIN, 1.0, inside)


def psi(t: float) -> float:
    """psi(t) = int_0^inf h_{-x}(t) g(0, -x) dx  (t >= 0).

    At t = 0 the defining integrand degenerates (h concentrates at the
    barrier); the continuity limit is taken by evaluating at t = 1e-8.
    Below t = 0.02 the integral runs in x = w v, v in [0, 14], with w the
    Gaussian width sqrt(2t); from 0.02 on, w = 1 and v = x ends at 8 (10
    past t = 1.5).
    """
    if t < 0.0:
        raise ValueError("psi requires t >= 0")
    t_eff = max(float(t), 1e-8)
    small = t_eff < 0.02
    w = math.sqrt(2.0 * t_eff) if small else 1.0
    cap = 14.0 if small else 8.0 if t_eff <= 1.5 else 10.0

    def f(v):
        xs = w * v
        return w * _h_grid(FOUR13 * xs, t_eff)[:, 0] * _g0_fast(xs)

    res = integrate_interval(f, 0.0, cap, QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8))
    return float(res.value.real)


def joint_density_one_sided(t: float, a: float, state: StartState) -> float:
    """Joint density of (argmax time, max) for the one-sided process from
    (s, x), at max location t > s and max level a > x.

    Product form: exp((2/3)s^3 + 2s(x-a)) h_{x-a}(t-s) phi(t); the barrier
    factor k(t,0) = exp((2/3)t^3) phi(t) cancels the passage tilt in t.
    """
    s, x = state.s, state.x
    if not (t > s and a > x):
        raise ValueError("requires t > s and a > x")
    pref = math.exp((2.0 / 3.0) * s ** 3 + 2.0 * s * (x - a))
    hval = float(_h_grid(FOUR13 * (a - x), t - s)[0, 0])
    return pref * hval * phi(t)


def max_density_one_sided(a: float, state: StartState) -> float:
    """Density of the maximum at level a > x under (s, x): the joint density
    integrated over the argmax time,
    int_0^T exp((2/3)s^3 + 2s(x-a)) h_{x-a}(tau) phi(s + tau) dtau,
    with T where less than 5e-10 of it lies beyond.  The constant factor
    stays inside the integral, so the tolerance applies to the density."""
    s, x = state.s, state.x
    if not a > x:
        raise ValueError("requires a > x")
    shift = FOUR13 * (a - x)
    pref = math.exp((2.0 / 3.0) * s ** 3 + 2.0 * s * (x - a))
    T, _ = _passage_horizon(s, x - a, shift, _MAX_TOL / 2.0, weighted=True)
    h = _h_kernel(shift)
    res = integrate_interval(
        lambda tau: pref * h(tau)[0] * phi(s + tau), 0.0, T,
        QuadratureSpec(abs_tol=_MAX_TOL, rel_tol=_MAX_TOL))
    return max(res.value.real, 0.0)


def _joint_two_sided_grid(t_arr, a_arr) -> np.ndarray:
    """The two-sided joint density on the (time, level) grid, shape
    (len(t), len(a)), from one h grid over (level, |t|)."""
    at = np.abs(np.atleast_1d(np.asarray(t_arr, dtype=np.float64)))
    a_arr = np.atleast_1d(np.asarray(a_arr, dtype=np.float64))
    return (_h_grid(FOUR13 * a_arr, at) * _g0_fast(a_arr)[:, None] * phi(at)).T


def joint_density_two_sided(t: float, a: float) -> float:
    """Joint density of (argmax location, max) of the two-sided process:
    h_{-a}(|t|) g(0,-a) phi(|t|), a > 0, even in t."""
    if not a > 0.0:
        raise ValueError("requires a > 0")
    return float(_joint_two_sided_grid(float(t), float(a))[0, 0])


def _max_marginal_many(a_arr: np.ndarray) -> np.ndarray:
    """Two-sided max marginal.  The two halves of the path are independent,
    so F_M(a) = g(0,-a)^2 and f_M(a) = 2 g(0,-a) g'(a), both read from the
    g(0, .) model; 0 past its domain, where f_M < 1.6e-22."""
    a_arr = np.atleast_1d(np.asarray(a_arr, dtype=np.float64))
    g, dg = _g0_vec(np.clip(a_arr, 0.0, _G0_DOMAIN))
    out = np.clip(2.0 * g * dg, 0.0, None)
    return np.where(a_arr > _G0_DOMAIN, 0.0, out)


def max_marginal_two_sided(a: float) -> float:
    """Density of the overall maximum of the two-sided process at a > 0."""
    if not a > 0.0:
        raise ValueError("requires a > 0")
    return float(_max_marginal_many(np.asarray([a]))[0])


def bm_first_passage_density(z: float, u: float) -> float:
    """First-passage density of driftless Brownian motion from z > 0 to 0:
    (2 pi u^3)^{-1/2} z exp(-z^2/(2u))."""
    if not (z > 0.0 and u > 0.0):
        raise ValueError("requires z > 0 and u > 0")
    return z * math.exp(-z * z / (2.0 * u)) / math.sqrt(2.0 * math.pi * u ** 3)


def bm_first_passage_cdf(z: float, u) -> np.ndarray:
    """P(tau_0 <= u) = erfc(z / sqrt(2u)) for driftless BM from z > 0."""
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    out = np.zeros(u.shape)
    pos = u > 0
    out[pos] = scipy.special.erfc(z / np.sqrt(2.0 * u[pos]))
    return out


# ----------------------------------------------------------------------------
# Moments of the two-sided laws
# ----------------------------------------------------------------------------

def argmax_second_moment() -> float:
    """E tau_M^2 under the two-sided law, by quadrature of t^2 f_Z(t)."""
    res = integrate_interval(lambda t: t * t * chernoff_density(t), -4.0, 4.0,
                             QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9))
    return float(res.value.real)


def max_mean_two_sided() -> float:
    """E M under the two-sided law: int_0^inf (1 - F_M(a)) da with the exact
    factorization F_M(a) = g(0,-a)^2."""
    res = integrate_interval(lambda a: 1.0 - _g0_fast(a) ** 2, 0.0, 10.0,
                             QuadratureSpec(abs_tol=1e-10, rel_tol=1e-9))
    return float(res.value.real)


# ----------------------------------------------------------------------------
# Tabulation
# ----------------------------------------------------------------------------

_TABLE_KINDS = ("argmax", "max", "joint_marginal", "first_passage")


def _clamp_density(values) -> np.ndarray:
    """The nonnegativity rule for tabulated densities: a value in
    [-1e-9, 0) is rounding and becomes 0, a lower one raises
    NegativeDensityError."""
    values = np.asarray(values, dtype=np.float64)
    if np.any(values < -1e-9):
        raise NegativeDensityError("negative density values")
    return np.where(values < 0.0, 0.0, values)


@dataclass
class DensityTable:
    """Grid + values + provenance for one tabulated density."""

    grid: np.ndarray
    values: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.kind not in _TABLE_KINDS:
            raise ValueError("unknown table kind %r" % (self.kind,))
        if self.grid.ndim != 1 or self.grid.size < 2 or np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if self.grid.shape != self.values.shape:
            raise ValueError("grid/value shape mismatch")
        self.values = _clamp_density(self.values)

    def trapezoid_mass(self) -> float:
        return float(np.trapezoid(self.values, self.grid))


def tabulate(kind: str, grid, state: StartState | None = None) -> DensityTable:
    """Tabulate one of the densities on a strictly increasing grid.

    kinds: ``argmax`` (two-sided argmax density; its trapezoid mass is
    checked against the CDF over the grid), ``max`` (one-sided max density
    from ``state``), ``joint_marginal`` (two-sided max marginal),
    ``first_passage`` (passage-time density from ``state``).
    """
    grid = np.asarray(grid, dtype=np.float64)
    meta = {"mass_tol": 1e-5, "kind": kind, "mass_target": None}

    if kind == "argmax":
        values = chernoff_density(grid)
        cdf = chernoff_cdf(np.asarray([grid[0], grid[-1]]))
        meta["mass_target"] = float(cdf[1] - cdf[0])
    elif kind == "joint_marginal":
        if np.any(grid <= 0.0):
            raise ValueError("joint_marginal grid must be positive")
        values = _max_marginal_many(grid)
    elif kind == "first_passage":
        if state is None:
            raise ValueError("first_passage needs a start state")
        s, x = state.s, state.x
        meta["state"] = (s, x)
        tau = grid - s
        if np.any(tau <= 0.0):
            raise ValueError("first_passage grid must lie above the start time")
        values = np.exp(2.0 * s * x - _cubic_gap(s, tau)) * _h_grid(state.shift, tau)[0]
    elif kind == "max":
        if state is None:
            raise ValueError("max needs a start state")
        meta["state"] = (state.s, state.x)
        values = [max_density_one_sided(float(aa), state) for aa in grid]
    else:
        raise ValueError("unknown table kind %r" % (kind,))

    table = DensityTable(grid, values, kind, meta)
    meta["mass"] = table.trapezoid_mass()
    if kind == "argmax":
        step = float(np.max(np.diff(grid)))
        # trapezoid discretization allowance on coarse grids
        allowance = meta["mass_tol"] + step * step / 6.0
        if abs(meta["mass"] - meta["mass_target"]) > allowance:
            raise ArithmeticError("tabulated mass %.8f misses target %.8f"
                                  % (meta["mass"], meta["mass_target"]))
    return table
