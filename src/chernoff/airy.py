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

from .quadrature import gauss_legendre_panels

__all__ = [
    "AiryOverflowError",
    "SWITCH_RADIUS",
    "ai_real",
    "log_ai_many",
    "log_ai_diff",
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

def _exp_cubic_integral(z: complex, lo: float) -> complex:
    """(1/pi) int_lo^inf exp(t z - t^3/3) dt by composite Gauss-Legendre."""
    z = complex(z)
    rex = max(z.real, 0.0)
    # upper cutoff: cubic decay beats the linear growth by ~43 e-foldings
    hi = max(lo + 1.0, 2.0 * math.sqrt(rex) if rex > 0 else 0.0, 3.0)
    for _ in range(60):
        gain = hi ** 3 / 3.0 - z.real * hi
        ref = (2.0 / 3.0) * rex ** 1.5 if rex > 0 else 0.0
        if gain >= 43.0 + ref and gain >= 43.0 + abs(z.real) * abs(lo) + lo ** 3 / 3.0 * (lo < 0):
            break
        hi += 1.0
    peak = math.sqrt(rex) if rex > 0 else 0.0
    cand = [lo, hi]
    if lo < peak < hi:
        cand.append(peak)
    m = max(t * z.real - t ** 3 / 3.0 for t in cand)
    if m > 690.0:
        raise AiryOverflowError("Scorer integral overflows float64")
    width = min(0.5, math.pi / (4.0 * max(1.0, abs(z.imag))))
    n_panel = max(8, int(math.ceil((hi - lo) / width)))
    t, w = gauss_legendre_panels(lo, hi, 16, n_panel)
    return complex(np.sum(np.exp(t * z - t ** 3 / 3.0) * w) / math.pi)


def scorer_hi(z: complex) -> complex:
    """Scorer Hi(z) = (1/pi) int_0^inf exp(t z - t^3/3) dt."""
    return _exp_cubic_integral(z, 0.0)


def incomplete_hi(z: complex, s: float) -> complex:
    """Lower-truncated Scorer integral (1/pi) int_s^inf exp(t z - t^3/3) dt."""
    return _exp_cubic_integral(z, float(s))


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
