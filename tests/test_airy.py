"""Airy layer: log-scaled Ai, identities, regimes, Scorer functions, u_lambda."""

import math

import numpy as np
import pytest
import scipy.special

from chernoff import airy
from chernoff.airy import AiryOverflowError, incomplete_hi, scorer_hi, u_lambda

from oracles import airy_cosine_integral, asy_sums_reference, gamma_stirling, gl_panels


def ai(z):
    """Ai through the package's log-scaled evaluator."""
    return np.exp(airy.log_ai_many(z))


def test_value_at_origin_closed_forms():
    # tolerance limited by the Stirling-series oracle itself (~1e-14 rel)
    g23 = gamma_stirling(2.0 / 3.0)
    assert abs(ai(0.0)[0] - 3.0 ** (-2.0 / 3.0) / g23) < 5e-14


def test_wronskian_at_generic_point():
    # the Wronskian identity of the AMOS values that verify checks
    a, ap, b, bp = scipy.special.airy(1.0 + 1.0j)
    assert abs(a * bp - ap * b - 1.0 / math.pi) < 1e-14


def test_oscillatory_value_against_cosine_integral():
    got = ai(-5.0)[0]
    assert abs(got - airy_cosine_integral(-5.0)) < 1e-10
    assert abs(got.imag) < 1e-15


def test_wronskian_suite_1000_points():
    rng = np.random.Generator(np.random.Philox(key=2024))
    z = rng.uniform(0.02, 20.0, 1000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 1000))
    a, ap, b, bp = scipy.special.airy(z)
    w = a * bp - ap * b
    scale = np.maximum(1.0, np.abs(a * bp) + np.abs(ap * b))
    assert float((np.abs(w - 1.0 / math.pi) / scale).max()) < 1e-11


def test_connection_formula_real_axis():
    x = np.linspace(-10.0, 10.0, 501)
    rm, rp = np.exp(-2j * np.pi / 3.0), np.exp(2j * np.pi / 3.0)
    a0 = ai(x.astype(complex))
    am = ai(rm * x)
    ap = ai(rp * x)
    resid = np.abs(a0 + rm * am + rp * ap)
    scale = np.maximum(1.0, np.maximum(np.abs(am), np.abs(ap)))
    assert float((resid / scale).max()) < 1e-12


def test_ode_residual_second_difference_order():
    z = 1.3 - 0.7j
    res = []
    for h in (0.02, 0.01, 0.005):
        vals = ai(np.array([z - h, z, z + h]))
        d2 = (vals[0] - 2.0 * vals[1] + vals[2]) / h ** 2
        res.append(abs(d2 - z * vals[1]))
    assert 3.3 < res[0] / res[1] < 4.8
    assert 3.3 < res[1] / res[2] < 4.8


def test_rotated_ratio_derivative_identity():
    # d/du [e^{-i pi/6} Ai(e^{-i pi/6} u) / (i Ai(iu))] = 1/(2 pi Ai(iu)^2)
    h = 1e-4
    rot = np.exp(-1j * np.pi / 6.0)
    for u in np.linspace(-10.0, 10.0, 41):
        pts = np.array([u - h, u + h])
        g = rot * ai(rot * pts) / (1j * ai(1j * pts))
        lhs = (g[1] - g[0]) / (2.0 * h)
        rhs = 1.0 / (2.0 * np.pi * ai(1j * u)[0] ** 2)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_regime_boundary_cross_agreement():
    # AMOS and the asymptotic branch at the same point just past the switch
    for ph in (0.0, 0.9, np.pi / 2, 2.3, np.pi):
        z = (airy.SWITCH_RADIUS + 1e-6) * np.exp(1j * ph)
        amos = scipy.special.airy(z)[0]
        asy = ai(z)[0]
        assert abs(amos - asy) / abs(amos) < 1e-10


def test_against_scipy_broad_sweep():
    rng = np.random.default_rng(5)
    z = rng.uniform(0.01, 35.0, 800) * np.exp(1j * rng.uniform(-np.pi, np.pi, 800))
    theirs = scipy.special.airy(z)[0]
    rel = np.abs(ai(z) - theirs) / np.maximum(1e-280, np.abs(theirs))
    assert float(rel.max()) < 5e-11


def test_nonfinite_input_rejected():
    with pytest.raises(ValueError):
        airy.log_ai_many(np.array([complex(np.nan, 0.0)]))
    with pytest.raises(ValueError):
        airy.log_ai_many(complex(np.inf, 1.0))


def test_overflow_raises_for_plain_values():
    with pytest.raises(AiryOverflowError):
        scorer_hi(800.0)


# ----------------------------------------------------------------------------
# log-scaled evaluation
# ----------------------------------------------------------------------------

def test_log_scaled_matches_asymptotic_oracle_at_100():
    v = airy.log_ai_many(100.0)[0]
    lm, ph = v.real, v.imag
    zeta = (2.0 / 3.0) * 100.0 ** 1.5
    u = [1.0]
    for k in range(1, 8):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1)
                 / (216.0 * k * (2 * k - 1)))
    s0 = sum((-1) ** k * u[k] / zeta ** k for k in range(8))
    oracle = -zeta - 0.25 * math.log(100.0) - math.log(2.0 * math.sqrt(math.pi)) \
        + math.log(s0)
    assert abs(lm - oracle) / abs(oracle) < 1e-8
    assert abs(ph) < 1e-12


def test_log_scaled_consistent_with_direct_values():
    rng = np.random.default_rng(3)
    z = rng.uniform(0.1, 30.0, 300) * np.exp(1j * rng.uniform(-np.pi, np.pi, 300))
    direct = scipy.special.airy(z)[0]
    logs = airy.log_ai_many(z)
    rel = np.abs(np.exp(logs) - direct) / np.abs(direct)
    assert float(rel.max()) < 1e-12


def test_log_scaled_imaginary_axis_growth():
    lm = airy.log_ai_many(50j)[0].real
    lead = (math.sqrt(2.0) / 3.0) * 50.0 ** 1.5 \
        - 0.25 * math.log(50.0) - math.log(2.0 * math.sqrt(math.pi))
    assert abs(lm - lead) < 1e-3
    # no overflow far beyond the bundle range
    lm4 = airy.log_ai_many(1e4)[0].real
    assert math.isfinite(lm4) and lm4 < -6e5


def test_log_ai_diff_stability_huge_arguments():
    z = np.array([1e6j, 3e5 + 2e5j])
    a = 1.6
    d = airy.log_ai_diff(z, a)
    ref = airy.log_ai_many(z + a) - airy.log_ai_many(z)
    # the naive difference loses ~9 digits at |zeta| ~ 1e9; the stable path
    # must agree with it at that coarse level while staying smooth
    assert np.all(np.abs(d - ref) < 1e-4 * np.abs(d))
    sq = np.sqrt(z)
    lead = -a * sq
    assert np.all(np.abs(d - lead) < 0.02 * np.abs(lead))


# ----------------------------------------------------------------------------
# Scorer functions
# ----------------------------------------------------------------------------

def test_scorer_hi_at_zero():
    target = 3.0 ** (-2.0 / 3.0) * gamma_stirling(1.0 / 3.0) / math.pi
    assert abs(scorer_hi(0.0) - target) < 1e-12


def test_scorer_hi_negative_axis_leading_asymptotics():
    # Hi(z) ~ -1/(pi z); at z = -20 the next term is a 1/4000 correction
    got = scorer_hi(-20.0)
    lead = 1.0 / (20.0 * math.pi)
    assert abs(got - lead) < 2.0 * lead / 4000.0
    assert abs(got.imag) < 1e-14


def test_incomplete_hi_reduces_to_hi():
    for z in (0.3 - 1.2j, 2.0, -4.0 + 0.5j):
        assert incomplete_hi(z, 0.0) == scorer_hi(z)


def test_incomplete_hi_direct_quadrature():
    target = gl_panels(lambda t: np.exp(-t ** 3 / 3.0), 1.0, 12.0, 60) / math.pi
    assert abs(incomplete_hi(0.0, 1.0) - target) < 1e-12


def test_incomplete_hi_vanishes_monotonically():
    z = -1.5
    vals = [abs(incomplete_hi(z, s)) for s in (0.0, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-10


def test_incomplete_hi_matches_defining_integral_generic():
    z = 1.0 + 2.0j
    target = gl_panels(lambda t: np.exp(t * z - t ** 3 / 3.0), 0.5, 12.0, 120) / math.pi
    assert abs(incomplete_hi(z, 0.5) - target) < 1e-10


# ----------------------------------------------------------------------------
# u_lambda
# ----------------------------------------------------------------------------

def test_u_lambda_boundary_and_value():
    assert u_lambda(2.4, 0.0) == 1.0
    num = scipy.special.airy(2.0 ** (-1.0 / 3.0) + 4.0 ** (1.0 / 3.0))[0]
    den = scipy.special.airy(2.0 ** (-1.0 / 3.0))[0]
    assert abs(u_lambda(1.0, -1.0) - num / den) < 1e-13


def test_u_lambda_satisfies_killed_diffusion_ode():
    lam, x, h = 1.0, -1.0, 1e-3
    u0 = u_lambda(lam, x)
    d2 = (u_lambda(lam, x + h) - 2.0 * u0 + u_lambda(lam, x - h)) / h ** 2
    assert abs(0.5 * d2 - (lam - 2.0 * x) * u0) < 1e-5


def test_u_lambda_decays_far_from_barrier():
    vals = [u_lambda(1.0, x) for x in (0.0, -2.0, -5.0, -9.0)]
    assert all(1.0 >= a > b > 0.0 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-8


def test_u_lambda_domain_validation():
    with pytest.raises(ValueError):
        u_lambda(-1.0, -1.0)
    with pytest.raises(ValueError):
        u_lambda(1.0, 0.5)


# ----------------------------------------------------------------------------
# disk routes and batch independence
# ----------------------------------------------------------------------------

def test_log_ai_diff_general_branch_matches_plain_difference_bitwise():
    rng = np.random.default_rng(21)
    y = np.linspace(0.0, 3.0, 31)
    for z in (1j * np.linspace(-12.0, 12.0, 97),
              rng.uniform(0.0, 15.0, 60) * np.exp(1j * rng.uniform(-np.pi, np.pi, 60))):
        got = airy.log_ai_diff(z[:, None], y[None, :])
        ref = airy.log_ai_many(z[:, None] + y) - airy.log_ai_many(z)[:, None]
        # exact equality; at y = 0 the zero difference may differ in sign
        assert np.array_equal(got, ref)


def test_values_do_not_depend_on_the_batch():
    rng = np.random.default_rng(4)
    z = rng.uniform(0.0, 30.0, 300) * np.exp(1j * rng.uniform(-np.pi, np.pi, 300))
    logs = airy.log_ai_many(z)
    for i in (0, 17, 123, 299):
        assert airy.log_ai_many(z[i:i + 1]).tobytes() == logs[i:i + 1].tobytes()


# ----------------------------------------------------------------------------
# Poincare series: per-point term counts
# ----------------------------------------------------------------------------

def _sector_zeta(r, phase):
    # zeta = (2/3) z^{3/2} for |ph z| <= 2pi/3 covers |ph zeta| <= pi
    return r * np.exp(1j * phase)


def test_asy_sums_bitwise_equal_to_the_all_points_loop():
    rng = np.random.default_rng(1401)
    n = 100_000
    zeta = _sector_zeta(np.exp(rng.uniform(math.log(15.0), math.log(1e10), n)),
                        rng.uniform(-np.pi, np.pi, n))
    counts = np.bincount(airy._asy_terms(np.abs(zeta)))
    assert counts[2] > 0 and counts[airy._MAX_ASY_TERMS] > 0  # floor to cap
    assert np.array_equal(airy._asy_sums(zeta), asy_sums_reference(zeta))


def test_asy_sums_at_the_thresholds_differ_by_at_most_one_smallest_term():
    # within a few ulp of u_k/u_{k-1} or of a 1e-18 radius, the loop's rounded
    # term magnitudes decide a tie either way; the two truncations then
    # differ by the one term at the tie, the smallest, plus rounding
    radii = np.concatenate([airy._RATIO, -airy._FLOOR])
    radii = np.unique(radii[radii >= 15.0])
    r, lo, hi = [radii], radii, radii
    for _ in range(4):  # each radius and 4 ulp either side
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
        r += [lo, hi]
    r = np.concatenate(r)
    zeta = _sector_zeta(r[:, None], np.linspace(-np.pi, np.pi, 25)[None, :]).ravel()
    got, ref = airy._asy_sums(zeta), asy_sums_reference(zeta)
    n = airy._asy_terms(np.abs(zeta))
    uk = airy._UK
    smallest = np.maximum(uk[n] * np.abs(zeta) ** -n.astype(float),
                          uk[np.minimum(n + 1, n.max())] * np.abs(zeta) ** -(n + 1.0))
    assert np.all(np.abs(got - ref) <= 1.01 * smallest + 4.5e-16 * np.abs(ref))
    assert np.mean(got == ref) > 0.8


def test_asy_sums_point_alone_equals_its_value_in_a_mixed_batch():
    rng = np.random.default_rng(1402)
    zeta = _sector_zeta(np.exp(rng.uniform(math.log(15.0), math.log(1e10), 4000)),
                        rng.uniform(-np.pi, np.pi, 4000))
    batch = airy._asy_sums(zeta)
    n = airy._asy_terms(np.abs(zeta))
    for k in np.unique(n):
        i = int(np.flatnonzero(n == k)[0])
        assert airy._asy_sums(zeta[i:i + 1]).tobytes() == batch[i:i + 1].tobytes()
    grid = airy._asy_sums(zeta[:600].reshape(20, 30))
    assert grid.shape == (20, 30) and np.array_equal(grid.ravel(), batch[:600])


def test_log_ai_diff_sums_the_base_series_once_per_base_point(monkeypatch):
    # h at 40 shifts on the band contours: each base point (33 nodes per
    # band the times touch) takes its series once, or twice where some shift
    # moves it across the sector edge onto the general route, and each
    # broadcast entry once; summing the base per entry cost 2 x 40 x 33 a band
    from chernoff import densities

    count = [0]
    asy_sums = airy._asy_sums

    def counted(zeta):
        count[0] += np.size(zeta)
        return asy_sums(zeta)

    monkeypatch.setattr(airy, "_asy_sums", counted)
    times = np.linspace(0.05, 0.5, 10)
    densities._h_grid(np.linspace(0.0, 10.0, 40), times)
    bands = np.unique(-np.frexp(times / densities._RESIDUE_T_MIN)[1])
    base = bands.size * (densities._H_NODES + 1)
    assert 40 * base < count[0] <= (2 + 40) * base


def test_log_ai_sector_route_against_mpmath(monkeypatch):
    # Ai alone by K_{1/3} in the disk sector |ph z| <= 2pi/3; z = 0 stays on AMOS
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(33)
    sector = airy._SECTOR
    z = np.sqrt(rng.uniform(0.0, 64.0, 300)) * np.exp(
        1j * rng.uniform(-sector, sector, 300))
    edge = np.array([r * np.exp(1j * ph) for r in (1e-8, 0.5, 3.0, 8.0 - 1e-9)
                     for ph in (sector, -sector, 0.0, math.pi / 2.0)])
    z = np.concatenate([z, edge])
    amos = []
    real_airy = scipy.special.airy
    monkeypatch.setattr(scipy.special, "airy",
                        lambda w: amos.append(w.size) or real_airy(w))
    ours = np.exp(airy.log_ai_many(z))
    assert sum(amos) == 0
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.airyai(mpmath.mpc(w.real, w.imag)))
                        for w in z])
    assert float((np.abs(ours - ref) / np.abs(ref)).max()) < 1e-13
    at0 = airy.log_ai_many(np.zeros(1))[0]
    assert np.isfinite(at0) and sum(amos) == 1
    assert at0 == pytest.approx(math.log(3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)),
                                abs=1e-15)


def test_ai_real_against_mpmath_below_the_switch():
    # absolute error against the envelope |x|^{-1/4} of the oscillation;
    # AMOS itself reads about 2e-14 on these points
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1808)
    x = np.concatenate([rng.uniform(-60.0, -8.0, 300), rng.uniform(-12.0, -8.0, 100)])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.airyai(mpmath.mpf(float(v)))) for v in x])
    err = np.abs(airy.ai_real(x) - ref) * np.abs(x) ** 0.25
    assert float(err.max()) <= 1e-13


def test_ai_real_is_amos_from_the_switch_up():
    x = np.concatenate([[-airy.SWITCH_RADIUS, -7.999999, -1.0, 0.0],
                        np.linspace(-8.0, 30.0, 501)])
    assert airy.ai_real(x).tobytes() == scipy.special.airy(x)[0].tobytes()


def test_ai_real_point_alone_equals_its_value_in_a_mixed_batch():
    rng = np.random.default_rng(1809)
    x = np.concatenate([rng.uniform(-60.0, 10.0, 400), [-8.0, -8.0 - 1e-12]])
    batch = airy.ai_real(x)
    grid = airy.ai_real(x[:400].reshape(20, 20))
    assert grid.shape == (20, 20) and np.array_equal(grid.ravel(), batch[:400])
    for i in range(x.size):
        assert airy.ai_real(x[i]).tobytes() == batch[i:i + 1].tobytes()
