"""Airy machinery: log-scaled Ai, stable Airy ratios, Scorer functions and
the zeros of Ai.

Plain Ai and Ai' come from ``scipy.special.airy`` (the AMOS routines,
Amos 1986, ACM TOMS Alg. 644); the residue series reads Ai through
``ai_real``, which leaves AMOS for the Poincare sums below x = -8.  Every
contour integrand in the package is built from the log-scaled
``log_ai_many`` and ``log_ai_diff``, which split the plane at
``|z| = SWITCH_RADIUS`` (= 8):

* ``|z| < 8`` -- Ai alone from DLMF 9.6.1,
  ``Ai(z) = sqrt(z/3) K_{1/3}(zeta) / pi``, through the scaled
  ``scipy.special.kve`` wherever ``0 < |z|`` and ``|ph z| <= 2pi/3`` (every
  point ``iu + y``, ``y >= 0``, of the package's integrands); z = 0, points
  whose zeta underflows and the disk points past 2pi/3 take AMOS's Ai.
* ``|z| >= 8``, ``|ph z| <= 2pi/3`` -- the Poincare asymptotic expansion in
  ``zeta = (2/3) z^{3/2}``, truncated per point at its smallest term or
  after the first term at most 1e-18 (38 terms at most).  The term count
  is a function of ``|zeta|`` alone, because the coefficient ratios
  ``u_k/u_{k-1}`` increase; each term updates only the points that take
  it.  A value is bitwise the same alone as in any batch, and the same as
  summing every point until the slowest stops, except within a few ulp of
  a truncation radius, where a tie of the two smallest terms may go either
  way.
* ``|z| >= 8``, ``|ph z| > 2pi/3`` -- the connection formula mapping the
  argument onto the two rotations ``z e^{-2i pi/3}`` and ``z e^{+2i pi/3}``,
  both of which land in the reliable sector.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special

from .quadrature import gauss_legendre_panels, truncation

__all__ = [
    "AiryOverflowError",
    "SWITCH_RADIUS",
    "ai_real",
    "log_ai_many",
    "log_ai_diff",
    "log_ai_and_ratio",
    "hi_lines",
    "scorer_hi",
    "incomplete_hi",
    "u_lambda",
    "airy_zeros",
]

SWITCH_RADIUS = 8.0
_SECTOR = 2.0 * math.pi / 3.0

_LOG_2SQRTPI = math.log(2.0 * math.sqrt(math.pi))
_LOG_PI = math.log(math.pi)
_ROT_M = complex(math.cos(2 * math.pi / 3), -math.sin(2 * math.pi / 3))  # e^{-2i pi/3}
_ROT_P = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))   # e^{+2i pi/3}

_MAX_ASY_TERMS = 38


class AiryOverflowError(OverflowError):
    """A Scorer integral overflows float64."""


# ----------------------------------------------------------------------------
# Asymptotic expansions
# ----------------------------------------------------------------------------

def _asy_coefficients(n: int):
    u = np.empty(n + 1)
    u[0] = 1.0
    for k in range(1, n + 1):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
    return u


_UK = _asy_coefficients(_MAX_ASY_TERMS)
# Term k of the series is u_k |zeta|^-k.  It is smaller than term k - 1 iff
# |zeta| > _RATIO[k-1] = u_k / u_{k-1}, and these ratios increase, so the
# smallest-term stop keeps the terms k with _RATIO[k-1] < |zeta|.  Term k is
# at most 1e-18 iff |zeta| >= (u_k / 1e-18)^{1/k}; the running minimum
# _FLOOR[k-1] of those radii makes "the first such k" one search too.
_RATIO = _UK[1:] / _UK[:-1]
_FLOOR = -np.minimum.accumulate(
    (_UK[1:] / 1e-18) ** (1.0 / np.arange(1, _MAX_ASY_TERMS + 1)))  # ascending


def _asy_terms(r: np.ndarray) -> np.ndarray:
    """Terms summed at |zeta| = r: up to the smallest one, through the first
    at or below 1e-18, at most _MAX_ASY_TERMS."""
    stop = np.searchsorted(_RATIO, r, side="left")
    floor = np.searchsorted(_FLOOR, -r, side="left") + 1
    return np.minimum(np.minimum(stop, floor), _MAX_ASY_TERMS)


def _asy_sums(zeta: np.ndarray) -> np.ndarray:
    """S0 = sum (-1)^k u_k zeta^-k, truncated at the smallest term per point.

    Each point takes its own term count from |zeta| (`_asy_terms`); the
    points are sorted by it, and term k updates the prefix of points that
    take k or more terms, by the recurrence term *= w, s0 += u_k term.  So
    the cost is the terms summed, and a point's value does not depend on
    the batch it comes in.
    """
    zeta = np.asarray(zeta)
    n = _asy_terms(np.abs(zeta)).ravel()
    order = np.argsort((_MAX_ASY_TERMS - n).astype(np.uint8), kind="stable")
    live = n.size - np.cumsum(np.bincount(n, minlength=_MAX_ASY_TERMS + 1))
    w = -1.0 / zeta.ravel()[order]
    s0 = np.ones_like(w)
    term = np.ones_like(w)
    for k in range(1, int(n.max(initial=0)) + 1):
        m = live[k - 1]
        term[:m] *= w[:m]
        s0[:m] += _UK[k] * term[:m]
    out = np.empty_like(s0)
    out[order] = s0
    return out.reshape(zeta.shape)


def _asy_log_ai(w: np.ndarray) -> np.ndarray:
    """log Ai(w) (complex) by asymptotics; requires |ph w| <= 2pi/3."""
    sq = np.sqrt(w)
    zeta = (2.0 / 3.0) * w * sq
    return -zeta - 0.25 * np.log(w) - _LOG_2SQRTPI + np.log(_asy_sums(zeta))


def ai_real(x) -> np.ndarray:
    """Ai on the real axis, elementwise: AMOS for x >= -SWITCH_RADIUS; below,
    DLMF 9.7.9 as Ai(-y) = pi^{-1/2} y^{-1/4} Re[e^{-i(zeta - pi/4)} S0(i zeta)],
    zeta = (2/3) y^{3/2}."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    low = x < -SWITCH_RADIUS
    out[~low] = scipy.special.airy(x[~low])[0]
    y = -x[low]
    zeta = (2.0 / 3.0) * y * np.sqrt(y)
    rot = np.exp(-1j * (zeta - 0.25 * math.pi)) * _asy_sums(1j * zeta)
    out[low] = rot.real / (math.sqrt(math.pi) * y ** 0.25)
    return out


# ----------------------------------------------------------------------------
# Log-scaled Ai and stable ratios
# ----------------------------------------------------------------------------

def log_ai_many(z: np.ndarray) -> np.ndarray:
    """Complex log of Ai(z): real part log|Ai|, imaginary part a phase
    (mod 2pi) such that exp(log_ai_many(z)) = Ai(z).  Overflow-free for |z| up to
    ~1e4 and beyond."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite Airy argument")
    flip = z.imag < 0.0
    zu = np.where(flip, np.conj(z), z)
    out = np.empty(zu.shape, dtype=np.complex128)

    r = np.abs(zu)
    m_ser = r < SWITCH_RADIUS
    if m_ser.any():
        zs = zu[m_ser]
        # DLMF 9.6.1, Ai alone: Ai(z) = sqrt(z/3) K_{1/3}(zeta) / pi in the
        # sector; zeta lies in the upper half plane, so a rounded negative
        # imaginary part on the ray ph z = 2pi/3 is put back on the upper side
        zeta = (2.0 / 3.0) * zs * np.sqrt(zs)
        zeta = zeta.real + 1j * np.abs(zeta.imag)
        kv = (np.angle(zs) <= _SECTOR) & (zeta != 0.0)
        res = np.empty(zs.shape, dtype=np.complex128)
        zk, zetak = zs[kv], zeta[kv]
        res[kv] = (0.5 * np.log(zk / 3.0) - _LOG_PI
                   + np.log(scipy.special.kve(1.0 / 3.0, zetak)) - zetak)
        res[~kv] = np.log(scipy.special.airy(zs[~kv])[0])
        out[m_ser] = res

    m_asy = ~m_ser
    if m_asy.any():
        za = zu[m_asy]
        theta = np.angle(za)
        res = np.empty(za.shape, dtype=np.complex128)
        direct = theta <= _SECTOR
        if direct.any():
            res[direct] = _asy_log_ai(za[direct])
        conn = ~direct
        if conn.any():
            zc = za[conn]
            lm = _asy_log_ai(zc * _ROT_M)
            lp = _asy_log_ai(zc * _ROT_P)
            # Ai(z) = -e^{+2i pi/3} Ai(z e^{+2i pi/3}) (1 + ratio); the
            # e^{+} rotation carries the dominant exponential in this sector.
            ratio = _ROT_P * np.exp(lm - lp)
            res[conn] = lp - 1j * math.pi / 3.0 + np.log(1.0 + ratio)
        out[m_asy] = res

    out = np.where(flip, np.conj(out), out)
    return out


def log_ai_and_ratio(z: np.ndarray):
    """log Ai(z) and Ai'(z)/Ai(z) for z != 0, |ph z| <= pi/2, from one call
    of the scaled K_{1/3} and K_{2/3} (DLMF 9.6.1-2: Ai(z) = sqrt(z/3)
    K_{1/3}(zeta)/pi, Ai'(z) = -z K_{2/3}(zeta)/(pi sqrt 3))."""
    z = np.asarray(z, dtype=np.complex128)
    sq = np.sqrt(z)
    zeta = (2.0 / 3.0) * z * sq
    k13, k23 = scipy.special.kve(np.array([1.0, 2.0]).reshape((2,) + (1,) * z.ndim) / 3.0,
                                 zeta)
    return 0.5 * np.log(z / 3.0) - _LOG_PI + np.log(k13) - zeta, -sq * k23 / k13


_DIFF_SAFE_RADIUS = 16.0


def log_ai_diff(z: np.ndarray, shift) -> np.ndarray:
    """log Ai(z + shift) - log Ai(z), stable for huge |z|.

    ``shift`` is a nonnegative real (scalar or broadcastable array).  For
    large arguments the zeta difference is formed from the exact identity
    zeta1 - zeta0 = (2/3) shift (z1 + sqrt(z1 z0) + z0) / (sqrt(z1)+sqrt(z0)),
    avoiding the cancellation of two ~|zeta| terms.
    """
    z0 = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    z, shift = np.broadcast_arrays(z0, np.asarray(shift, dtype=np.float64))
    flip = z.imag < 0.0
    zu = np.where(flip, np.conj(z), z)
    z1 = zu + shift
    out = np.empty(z.shape, dtype=np.complex128)

    # everything that depends on the base point alone is computed once per
    # base point, not once per broadcast shift
    zb = np.where(z0.imag < 0.0, np.conj(z0), z0)
    pad = (1,) * (z.ndim - z0.ndim) + z0.shape
    axes = tuple(i for i, n in enumerate(pad) if n == 1 < z.shape[i])

    def at_base(mask, fn, a0):
        """fn at the base points a0 that feed an entry of mask, on those
        entries; fn maps an array to a tuple of arrays."""
        need = mask.any(axis=axes, keepdims=True).reshape(z0.shape)
        outs = []
        for v in fn(a0[need]):
            full = np.ones(z0.shape, dtype=np.complex128)
            full[need] = v
            outs.append(np.broadcast_to(full, mask.shape)[mask])
        return outs

    def asy_base(a):
        sa = np.sqrt(a)
        return a, sa, np.log(a), np.log(_asy_sums((2.0 / 3.0) * a * sa))

    def stable(base, b, d):
        # log Ai(b) - log Ai(a) with b = a + d, |ph| <= 2pi/3 on both
        a, sa, log_a, log_s0a = base
        sb = np.sqrt(b)
        dzeta = (2.0 / 3.0) * d * (b + sb * sa + a) / (sb + sa)
        s0b = _asy_sums((2.0 / 3.0) * b * sb)
        return -dzeta - 0.25 * (np.log(b) - log_a) + np.log(s0b) - log_s0a

    in_sector = (np.angle(zu) <= _SECTOR) & (np.angle(z1) <= _SECTOR)
    out_sector = (np.angle(zu) > _SECTOR) & (np.angle(z1) > _SECTOR)
    is_big = np.abs(zu) >= _DIFF_SAFE_RADIUS
    big = is_big & in_sector
    if big.any():
        out[big] = stable(at_base(big, asy_base, zb), z1[big],
                          shift[big].astype(np.complex128))
    # rotated-connection sector: the dominant branch is the e^{+2i pi/3}
    # rotation and its -i pi/3 offset cancels in the difference; the log1p
    # correction is exp(-2 Re zeta)-small and vanishes at these magnitudes
    conn = is_big & out_sector
    if conn.any():
        out[conn] = stable(at_base(conn, asy_base, zb * _ROT_P),
                           z1[conn] * _ROT_P, shift[conn] * _ROT_P)
    rest = ~(big | conn)
    if rest.any():
        base, = at_base(rest, lambda a: (log_ai_many(a),), zb)
        out[rest] = log_ai_many(z1[rest]) - base
    return np.where(flip, np.conj(out), out)


# ----------------------------------------------------------------------------
# Scorer functions
# ----------------------------------------------------------------------------

_HI_FALL = 40.0    # e-folds under its peak where the t rule of Hi stops
_HI_NODES = 32     # Gauss-Legendre nodes per t panel
_HI_REACH = 64.0   # panel width times the exponent's largest rate of change


def _hi_reach(c: float, s0: float) -> tuple[float, float]:
    """The peak P of E(t) = t c - t^3/3 on [s0, inf), and the last t there
    where E is 40 e-folds under P, by `truncation` on a falling branch:
    right of t0 = max(s0, sqrt c) if E(t0) is above P - 40, where E(t) <=
    E(t0) - (t - t0)^3/12, else left of -sqrt c."""
    top = math.sqrt(c) if c > 0.0 else -math.inf

    def expo(t):
        return t * c - t ** 3 / 3.0

    peak = max(expo(s0), expo(top) if top > s0 else -math.inf)
    lo = max(s0, top)
    rise = expo(lo) - peak + _HI_FALL
    hi = lo + (12.0 * rise) ** (1.0 / 3.0) if rise > 0.0 else -top
    return peak, truncation(expo, peak - _HI_FALL, lo if rise > 0.0 else s0, hi)[0]


def hi_lines(c, u, s0: float):
    """Hi(w; s0) = (1/pi) int_{s0}^inf e^{tw - t^3/3} dt and d/dw Hi(w; s0)
    on the lines w = c_k + i u_j, each scaled by e^{s0^3/3 - m_k}, m_k the
    whole part of the peak P_k of t c_k - (t^3 - s0^3)/3 on [s0, inf), so
    that neighbouring lines share it.  The exponent is taken as s0 c_k +
    d (c_k - (t^2 + t s0 + s0^2)/3) at t = s0 + d, free of the cancellation
    of t^3/3 and s0^3/3.  One composite Gauss-Legendre rule serves every
    line: on [s0, T], T the last t where a line's exponent is 40 e-folds
    under its peak, 32 nodes a panel, the panels sized to the exponents'
    slope plus max |u|; panel p holds t = centre_p + h x_j, so one matrix
    e^{iuhx} serves every panel and line.  Returns m (K,), the scaled Hi
    and dHi (K, len(u)), and bounds (2, K) on their scaled parts past T:
    there each exponent is at most P_k - 40, and from tau_k = max(T, 1 +
    sqrt c_k) on it falls at least as fast as its tangent, of slope
    -(tau_k^2 - c_k) <= -1."""
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    u = np.asarray(u, dtype=np.float64)
    peak, ends = np.array([_hi_reach(ck, s0) for ck in c.tolist()]).T
    peak = peak + s0 ** 3 / 3.0
    T, m = float(ends.max()), np.floor(peak)
    slope = np.abs(c - np.array([[s0 * s0], [T * T], [0.0 if s0 < 0.0 < T else s0 * s0]]))
    n_panel = max(1, math.ceil((T - s0) * (slope.max() + np.abs(u).max(initial=0.0))
                               / _HI_REACH))
    x, w = gauss_legendre_panels(-1.0, 1.0, _HI_NODES, 1)
    h = 0.5 * (T - s0) / n_panel
    mid = 2.0 * np.arange(n_panel) + 1.0
    d = h * (mid[:, None] + x)                             # (panels, nodes)
    t = s0 + d
    g = (h / math.pi) * w * np.exp(s0 * c[:, None, None] - m[:, None, None] + d * (
        c[:, None, None] - (t * t + t * s0 + s0 * s0) / 3.0))
    inner = np.exp(1j * np.outer(u, h * x)) @ np.concatenate([g, t * g]).transpose(0, 2, 1)
    both = (np.exp(1j * np.outer(u, s0 + h * mid)) * inner).sum(axis=-1)
    tau = np.maximum(T, 1.0 + np.sqrt(np.maximum(c, 0.0)))
    fall, d = np.exp(peak - _HI_FALL - m) / math.pi, tau * tau - c
    cut = fall * np.array([tau - T + 1.0 / d,
                           (tau - T) * np.maximum(tau, abs(T)) + tau / d + 1.0 / d ** 2])
    return m, both[:c.size], both[c.size:], cut


def incomplete_hi(z: complex, s: float) -> complex:
    """Lower-truncated Scorer integral (1/pi) int_s^inf exp(t z - t^3/3) dt."""
    z = complex(z)
    m, hi, _, _ = hi_lines(z.real, [z.imag], float(s))
    scale = m[0] - float(s) ** 3 / 3.0
    if scale > 690.0:
        raise AiryOverflowError("Scorer integral overflows float64")
    return complex(math.exp(scale) * hi[0, 0])


def scorer_hi(z: complex) -> complex:
    """Scorer Hi(z) = (1/pi) int_0^inf exp(t z - t^3/3) dt."""
    return incomplete_hi(z, 0.0)


# ----------------------------------------------------------------------------
# Odds and ends used by the probabilistic layer
# ----------------------------------------------------------------------------

def u_lambda(lam: float, x: float) -> float:
    """Ai(2^{-1/3} lam - 4^{1/3} x) / Ai(2^{-1/3} lam) for lam > 0, x <= 0.

    Bounded killing-functional solution: equals 1 at x = 0 and decays to 0
    as x -> -inf.
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    if x > 0.0:
        raise ValueError("x must be <= 0")
    xi = 2.0 ** (-1.0 / 3.0) * lam
    val = np.exp(log_ai_diff(np.asarray([xi]), -4.0 ** (1.0 / 3.0) * x))[0]
    return float(val.real)


def airy_zeros(n: int) -> np.ndarray:
    """First n zeros of Ai on the negative real axis: the asymptotic start
    polished by three Newton steps on ``scipy.special.airy``."""
    k = np.arange(1, n + 1)
    t = 3.0 * math.pi * (4.0 * k - 1.0) / 8.0
    z = -(t ** (2.0 / 3.0)) * (1.0 + 5.0 / 48.0 * t ** -2.0 - 5.0 / 36.0 * t ** -4.0)
    for _ in range(3):
        a, apd, _, _ = scipy.special.airy(z)
        z = z - a / apd
    return z
