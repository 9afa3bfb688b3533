"""Complex Airy machinery: Ai, Bi, derivatives, Scorer functions, log-scaled
evaluation and stable Airy ratios.

Evaluation strategy
-------------------
The plane splits at ``|z| = SWITCH_RADIUS`` (= 8):

* ``|z| < 8`` -- the AMOS routines (Amos 1986, ACM TOMS Alg. 644) through
  ``scipy.special.airy``.  They scale out the exponential internally, so the
  recessive solution near the positive real axis keeps its relative
  accuracy; measured against mpmath the bundle is correct to about 2e-13 on
  the scale ``max(1, |Ai|, |Bi|)``.  The regime keeps its historical tag
  ``maclaurin_series``.
* ``|z| >= 8``, ``|ph z| <= 2pi/3`` -- Poincare asymptotic expansions in
  ``zeta = (2/3) z^{3/2}`` with adaptive truncation at the smallest term.
* ``|z| >= 8``, ``|ph z| > 2pi/3`` -- connection formulas mapping the
  argument onto the two rotations ``z e^{-2i pi/3}`` and ``z e^{+2i pi/3}``,
  both of which land in the reliable sector.

Everything is vectorized over numpy arrays; scalar wrappers sit on top.
``log_ai_many`` and ``log_ai_diff`` provide overflow-free evaluation of the
Airy ratios that all the contour integrands in this package are built from.
``log_ai_many`` needs Ai alone, so inside the disk it takes Ai from
DLMF 9.6.1, ``Ai(z) = sqrt(z/3) K_{1/3}(zeta) / pi``, through the scaled
``scipy.special.kve`` wherever ``0 < |z|`` and ``|ph z| <= 2pi/3`` (every
point ``iu + y``, ``y >= 0``, of the package's integrands); z = 0, points
whose zeta underflows and the disk points past 2pi/3 stay on AMOS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

__all__ = [
    "AiryBundle",
    "EvalRegime",
    "AiryOverflowError",
    "SWITCH_RADIUS",
    "airy_all",
    "airy_many",
    "airy_ai_log_scaled",
    "log_ai_diff",
    "scorer_hi",
    "incomplete_hi",
    "u_lambda",
    "airy_zeros",
    "gamma_real",
    "classify",
]

SWITCH_RADIUS = 8.0
_SECTOR = 2.0 * math.pi / 3.0

_LOG_2SQRTPI = math.log(2.0 * math.sqrt(math.pi))
_LOG_PI = math.log(math.pi)
_ROT_M = complex(math.cos(2 * math.pi / 3), -math.sin(2 * math.pi / 3))  # e^{-2i pi/3}
_ROT_P = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))   # e^{+2i pi/3}

_SERIES_ROUND = 5e-13      # AMOS bound in the disk; 1.75e-13 measured against mpmath
_MAX_ASY_TERMS = 38


class AiryOverflowError(OverflowError):
    """|Re zeta| exceeds the float64 exponent range; use the log-scaled API."""


@dataclass(frozen=True)
class AiryBundle:
    """Ai, Ai', Bi, Bi' at one complex point plus an error estimate.

    ``abs_err_estimate`` bounds the absolute error of each value relative to
    the natural scale ``max(1, |ai|, |bi|)`` of the bundle.
    """

    ai: complex
    aip: complex
    bi: complex
    bip: complex
    abs_err_estimate: float

    def wronskian(self) -> complex:
        return self.ai * self.bip - self.aip * self.bi


@dataclass(frozen=True)
class EvalRegime:
    tag: str  # maclaurin_series (AMOS) | asymptotic_expansion | rotated_connection
    switch_radius: float = SWITCH_RADIUS


def classify(z: complex) -> EvalRegime:
    """Evaluation regime used at z.  Pure function of z.

    ``maclaurin_series`` is the historical name of the |z| < SWITCH_RADIUS
    regime, which AMOS evaluates; the tag is kept for compatibility."""
    z = complex(z)
    if abs(z) < SWITCH_RADIUS:
        return EvalRegime("maclaurin_series")
    if abs(math.atan2(abs(z.imag), z.real)) <= _SECTOR:
        return EvalRegime("asymptotic_expansion")
    return EvalRegime("rotated_connection")


def gamma_real(x: float) -> float:
    """Gamma function on the real line; ValueError at its poles."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise ValueError("gamma pole at non-positive integer")
    return math.gamma(x)


# ----------------------------------------------------------------------------
# Inner disk |z| < SWITCH_RADIUS: AMOS
# ----------------------------------------------------------------------------

def _series_bundle(z: np.ndarray):
    """Ai, Ai', Bi, Bi' inside the switch radius by the AMOS routines
    (``scipy.special.airy``), point by point.  The name follows the
    ``maclaurin_series`` regime tag."""
    return scipy.special.airy(np.asarray(z, dtype=np.complex128))


# ----------------------------------------------------------------------------
# Asymptotic expansions
# ----------------------------------------------------------------------------

def _asy_coefficients(n: int):
    u = np.empty(n + 1)
    v = np.empty(n + 1)
    u[0] = v[0] = 1.0
    for k in range(1, n + 1):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        v[k] = u[k] * (6 * k + 1) / (1.0 - 6 * k)
    return u, v


_UK, _VK = _asy_coefficients(_MAX_ASY_TERMS)


def _asy_sums(zeta: np.ndarray, want_s1: bool = True):
    """S0 = sum (-1)^k u_k zeta^-k and S1 (with v_k), truncated at the
    smallest term per point.  Returns (S0, S1, rel_err)."""
    w = -1.0 / zeta
    s0 = np.ones_like(w)
    s1 = np.ones_like(w) if want_s1 else None
    term = np.ones_like(w)
    active = np.ones(w.shape, dtype=bool)
    last_mag = np.full(w.shape, np.inf)
    err = np.zeros(w.shape)
    for k in range(1, _MAX_ASY_TERMS + 1):
        term = term * w
        mag = np.abs(term) * _UK[k]
        grow = mag >= last_mag
        active &= ~grow
        add = np.where(active, term, 0.0)
        s0 = s0 + _UK[k] * add
        if want_s1:
            s1 = s1 + _VK[k] * add
        err = np.where(active, mag * max(1.0, abs(_VK[k] / _UK[k])), err)
        last_mag = np.where(active, mag, last_mag)
        active &= mag > 1e-18
        if not active.any():
            break
    # second term: rounding of zeta and of exp(-zeta) at large |zeta|
    rel = err + 3e-15 * (1.0 + np.abs(zeta))
    return s0, s1, rel


def _asy_ai_pair(w: np.ndarray):
    """(Ai, Ai', rel_err) by direct asymptotics; requires |ph w| <= 2pi/3."""
    sq = np.sqrt(w)
    zeta = (2.0 / 3.0) * w * sq
    if np.any(np.abs(zeta.real) > 690.0):
        raise AiryOverflowError("Re zeta out of float64 range; use log_ai_many")
    s0, s1, rel = _asy_sums(zeta)
    q = np.sqrt(sq)  # w^{1/4}
    pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    return pref / q * s0, -pref * q * s1, rel


def _asy_log_ai(w: np.ndarray):
    """log Ai(w) (complex) by asymptotics; requires |ph w| <= 2pi/3."""
    sq = np.sqrt(w)
    zeta = (2.0 / 3.0) * w * sq
    s0, _, rel = _asy_sums(zeta, want_s1=False)
    return -zeta - 0.25 * np.log(w) - _LOG_2SQRTPI + np.log(s0), rel


# ----------------------------------------------------------------------------
# Full-plane bundle evaluation
# ----------------------------------------------------------------------------

def airy_many(z: np.ndarray):
    """Vectorized Ai, Ai', Bi, Bi' with per-point error estimates.

    Returns (ai, aip, bi, bip, abs_err) arrays.  ``abs_err`` is the estimated
    absolute error on the scale ``max(1, |ai|, |bi|)``.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite Airy argument")
    flip = z.imag < 0.0
    zu = np.where(flip, np.conj(z), z)

    ai = np.empty(zu.shape, dtype=np.complex128)
    aip = np.empty_like(ai)
    bi = np.empty_like(ai)
    bip = np.empty_like(ai)
    rel = np.empty(zu.shape)

    r = np.abs(zu)
    m_ser = r < SWITCH_RADIUS
    if m_ser.any():
        a, apd, b, bpd = _series_bundle(zu[m_ser])
        ai[m_ser], aip[m_ser], bi[m_ser], bip[m_ser] = a, apd, b, bpd
        rel[m_ser] = _SERIES_ROUND

    m_asy = ~m_ser
    if m_asy.any():
        za = zu[m_asy]
        theta = np.angle(za)
        n = za.size
        aa = np.empty(n, dtype=np.complex128)
        aap = np.empty_like(aa)
        bb = np.empty_like(aa)
        bbp = np.empty_like(aa)
        rr = np.empty(n)

        direct = theta <= _SECTOR
        if direct.any():
            zd = za[direct]
            a0, a0p, r0 = _asy_ai_pair(zd)
            am, amp, r1 = _asy_ai_pair(zd * _ROT_M)
            aa[direct] = a0
            aap[direct] = a0p
            # Bi(z) = i Ai(z) + 2 e^{-i pi/6} Ai(z e^{-2 i pi/3})
            c = 2.0 * np.exp(-1j * math.pi / 6.0)
            cp = 2.0 * np.exp(-5j * math.pi / 6.0)
            bb[direct] = 1j * a0 + c * am
            bbp[direct] = 1j * a0p + cp * amp
            rr[direct] = np.maximum(r0, r1)

        conn = ~direct
        if conn.any():
            zc = za[conn]
            wm = zc * _ROT_M
            wp = zc * _ROT_P
            am, amp, r1 = _asy_ai_pair(wm)
            ap_, app, r2 = _asy_ai_pair(wp)
            aa[conn] = -_ROT_M * am - _ROT_P * ap_
            aap[conn] = -_ROT_P * amp - _ROT_M * app
            bb[conn] = np.exp(1j * math.pi / 6.0) * ap_ + np.exp(-1j * math.pi / 6.0) * am
            bbp[conn] = np.exp(5j * math.pi / 6.0) * app + np.exp(-5j * math.pi / 6.0) * amp
            rr[conn] = np.maximum(r1, r2)

        ai[m_asy], aip[m_asy], bi[m_asy], bip[m_asy] = aa, aap, bb, bbp
        rel[m_asy] = rr

    out = (ai, aip, bi, bip)
    for arr in out:
        np.conjugate(arr, where=flip, out=arr)
    if not all(np.all(np.isfinite(arr)) for arr in out):
        raise AiryOverflowError("Airy value overflow; use log_ai_many")
    scale = np.maximum(1.0, np.maximum(np.abs(ai), np.abs(bi)))
    return ai, aip, bi, bip, rel * scale


def airy_all(z: complex) -> AiryBundle:
    """Ai, Ai', Bi, Bi' at a single complex point."""
    a, apd, b, bpd, err = airy_many(np.asarray([complex(z)]))
    return AiryBundle(complex(a[0]), complex(apd[0]), complex(b[0]),
                      complex(bpd[0]), float(err[0]))


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
        res[~kv] = np.log(_series_bundle(zs[~kv])[0])
        out[m_ser] = res

    m_asy = ~m_ser
    if m_asy.any():
        za = zu[m_asy]
        theta = np.angle(za)
        res = np.empty(za.shape, dtype=np.complex128)
        direct = theta <= _SECTOR
        if direct.any():
            res[direct] = _asy_log_ai(za[direct])[0]
        conn = ~direct
        if conn.any():
            zc = za[conn]
            lm = _asy_log_ai(zc * _ROT_M)[0]
            lp = _asy_log_ai(zc * _ROT_P)[0]
            # Ai(z) = -e^{+2i pi/3} Ai(z e^{+2i pi/3}) (1 + ratio); the
            # e^{+} rotation carries the dominant exponential in this sector.
            ratio = _ROT_P * np.exp(lm - lp)
            res[conn] = lp - 1j * math.pi / 3.0 + np.log(1.0 + ratio)
        out[m_asy] = res

    out = np.where(flip, np.conj(out), out)
    return out


def airy_ai_log_scaled(z: complex) -> tuple[float, float]:
    """(log_modulus, phase) with exp(log_modulus + i phase) = Ai(z)."""
    v = log_ai_many(np.asarray([complex(z)]))[0]
    return float(v.real), float(v.imag)


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

    def stable(a, b, d):
        # log Ai(b) - log Ai(a) with b = a + d, |ph| <= 2pi/3 on both
        sa, sb = np.sqrt(a), np.sqrt(b)
        dzeta = (2.0 / 3.0) * d * (b + sb * sa + a) / (sb + sa)
        s0a = _asy_sums((2.0 / 3.0) * a * sa, want_s1=False)[0]
        s0b = _asy_sums((2.0 / 3.0) * b * sb, want_s1=False)[0]
        return -dzeta - 0.25 * (np.log(b) - np.log(a)) + np.log(s0b) - np.log(s0a)

    in_sector = (np.angle(zu) <= _SECTOR) & (np.angle(z1) <= _SECTOR)
    out_sector = (np.angle(zu) > _SECTOR) & (np.angle(z1) > _SECTOR)
    is_big = np.abs(zu) >= _DIFF_SAFE_RADIUS
    big = is_big & in_sector
    if big.any():
        out[big] = stable(zu[big], z1[big], shift[big].astype(np.complex128))
    # rotated-connection sector: the dominant branch is the e^{+2i pi/3}
    # rotation and its -i pi/3 offset cancels in the difference; the log1p
    # correction is exp(-2 Re zeta)-small and vanishes at these magnitudes
    conn = is_big & out_sector
    if conn.any():
        out[conn] = stable(zu[conn] * _ROT_P, z1[conn] * _ROT_P,
                           shift[conn] * _ROT_P)
    rest = ~(big | conn)
    if rest.any():
        # log Ai(z) once per base point, not once per broadcast shift
        pad = (1,) * (rest.ndim - z0.ndim) + z0.shape
        axes = tuple(i for i, n in enumerate(pad) if n == 1 < rest.shape[i])
        need = rest.any(axis=axes, keepdims=True).reshape(z0.shape)
        base = np.zeros(z0.shape, dtype=np.complex128)
        zb = z0[need]
        base[need] = log_ai_many(np.where(zb.imag < 0.0, np.conj(zb), zb))
        out[rest] = log_ai_many(z1[rest]) - np.broadcast_to(base, rest.shape)[rest]
    return np.where(flip, np.conj(out), out)


# ----------------------------------------------------------------------------
# Scorer functions
# ----------------------------------------------------------------------------

_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)


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
    edges = np.linspace(lo, hi, n_panel + 1)
    a, b = edges[:-1, None], edges[1:, None]
    t = 0.5 * (a + b) + 0.5 * (b - a) * _GL16_X[None, :]
    w = 0.5 * (b - a) * _GL16_W[None, :]
    vals = np.exp(t * z - t ** 3 / 3.0)
    return complex(np.sum(vals * w) / math.pi)


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
    """First n zeros of Ai on the negative real axis, Newton-polished."""
    k = np.arange(1, n + 1)
    t = 3.0 * math.pi * (4.0 * k - 1.0) / 8.0
    z = -(t ** (2.0 / 3.0)) * (1.0 + 5.0 / 48.0 * t ** -2.0 - 5.0 / 36.0 * t ** -4.0)
    for _ in range(3):
        a, apd, _, _, _ = airy_many(z.astype(np.complex128))
        z = z - (a.real / apd.real)
    return z.astype(np.float64)
