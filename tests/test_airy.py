"""Airy layer: values, identities, regimes, Scorer functions, log scaling."""

import math

import numpy as np
import pytest
import scipy.special

from chernoff import airy
from chernoff.airy import (
    AiryOverflowError,
    airy_all,
    airy_ai_log_scaled,
    airy_many,
    classify,
    gamma_real,
    incomplete_hi,
    scorer_hi,
    u_lambda,
)

from oracles import airy_cosine_integral, gamma_stirling, gl_panels


def test_value_at_origin_closed_forms():
    # tolerance limited by the Stirling-series oracle itself (~1e-14 rel)
    b = airy_all(0.0)
    g13 = gamma_stirling(1.0 / 3.0)
    g23 = gamma_stirling(2.0 / 3.0)
    assert abs(b.ai - 3.0 ** (-2.0 / 3.0) / g23) < 5e-14
    assert abs(b.aip + 3.0 ** (-1.0 / 3.0) / g13) < 5e-14
    assert abs(b.bi - 3.0 ** (-1.0 / 6.0) / g23) < 5e-14


def test_wronskian_at_generic_point():
    b = airy_all(1.0 + 1.0j)
    assert abs(b.wronskian() - 1.0 / math.pi) < 1e-14


def test_oscillatory_value_against_cosine_integral():
    got = airy_all(-5.0).ai
    assert abs(got - airy_cosine_integral(-5.0)) < 1e-10
    assert abs(got.imag) < 1e-15


def test_wronskian_suite_1000_points():
    rng = np.random.Generator(np.random.Philox(key=2024))
    z = rng.uniform(0.02, 20.0, 1000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 1000))
    ai, aip, bi, bip, err = airy_many(z)
    w = ai * bip - aip * bi
    scale = np.maximum(1.0, np.abs(ai * bip) + np.abs(aip * bi))
    assert float((np.abs(w - 1.0 / math.pi) / scale).max()) < 1e-11


def test_bundle_error_estimate_covers_wronskian():
    # the TYPE-level contract, on points whose values stay order one
    rng = np.random.Generator(np.random.Philox(key=77))
    z = rng.uniform(0.05, 12.0, 400) * np.exp(1j * rng.uniform(-np.pi, np.pi, 400))
    ai, aip, bi, bip, err = airy_many(z)
    mod = np.abs(ai * bip) + np.abs(aip * bi)
    sel = mod < 10.0
    resid = np.abs((ai * bip - aip * bi)[sel] - 1.0 / math.pi)
    assert np.all(resid <= np.maximum(1e-12, 10.0 * err[sel]))


def test_connection_formula_real_axis():
    x = np.linspace(-10.0, 10.0, 501)
    rm, rp = np.exp(-2j * np.pi / 3.0), np.exp(2j * np.pi / 3.0)
    a0 = airy_many(x.astype(complex))[0]
    am = airy_many(rm * x)[0]
    ap = airy_many(rp * x)[0]
    resid = np.abs(a0 + rm * am + rp * ap)
    scale = np.maximum(1.0, np.maximum(np.abs(am), np.abs(ap)))
    assert float((resid / scale).max()) < 1e-12


def test_ode_residual_second_difference_order():
    z = 1.3 - 0.7j
    res = []
    for h in (0.02, 0.01, 0.005):
        vals = airy_many(np.array([z - h, z, z + h]))[0]
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
        g = rot * airy_many(rot * pts)[0] / (1j * airy_many(1j * pts)[0])
        lhs = (g[1] - g[0]) / (2.0 * h)
        rhs = 1.0 / (2.0 * np.pi * airy_many(np.array([1j * u]))[0][0] ** 2)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_regime_classification_pure_and_tagged():
    assert classify(3.0).tag == "maclaurin_series"
    assert classify(9.0).tag == "asymptotic_expansion"
    assert classify(9.0 * np.exp(2.9j)).tag == "rotated_connection"
    assert classify(2.0 + 1j) == classify(2.0 + 1j)
    assert classify(1.0).switch_radius == airy.SWITCH_RADIUS


def test_regime_boundary_cross_agreement():
    # series and asymptotics evaluated at the same point near the switch
    for ph in (0.0, 0.9, np.pi / 2, 2.3, np.pi):
        z = (airy.SWITCH_RADIUS + 1e-6) * np.exp(1j * ph)
        ser = airy._series_bundle(np.array([z]))[0][0]
        asy = airy_many(np.array([z]))[0][0]
        assert abs(ser - asy) / abs(asy) < 1e-10


def test_against_scipy_broad_sweep():
    rng = np.random.default_rng(5)
    z = rng.uniform(0.01, 35.0, 800) * np.exp(1j * rng.uniform(-np.pi, np.pi, 800))
    ours = airy_many(z)
    theirs = scipy.special.airy(z)
    for k in range(4):
        rel = np.abs(ours[k] - theirs[k]) / np.maximum(1e-280, np.abs(theirs[k]))
        assert float(rel.max()) < 5e-11


def test_error_estimate_satisfies_accuracy_contract():
    rng = np.random.default_rng(17)
    z = rng.uniform(0.05, 40.0, 500) * np.exp(1j * rng.uniform(-np.pi, np.pi, 500))
    ai, _, bi, _, err = airy_many(z)
    assert np.all(err <= 1e-12 * np.maximum(1.0, np.maximum(np.abs(ai), np.abs(bi))))


def test_nonfinite_input_rejected():
    with pytest.raises(ValueError):
        airy_many(np.array([complex(np.nan, 0.0)]))
    with pytest.raises(ValueError):
        airy_all(complex(np.inf, 1.0))


def test_overflow_raises_for_plain_values():
    with pytest.raises(AiryOverflowError):
        airy_all(250.0)


# ----------------------------------------------------------------------------
# log-scaled evaluation
# ----------------------------------------------------------------------------

def test_log_scaled_matches_asymptotic_oracle_at_100():
    lm, ph = airy_ai_log_scaled(100.0)
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
    direct = airy_many(z)[0]
    logs = airy.log_ai_many(z)
    rel = np.abs(np.exp(logs) - direct) / np.abs(direct)
    assert float(rel.max()) < 1e-12


def test_log_scaled_imaginary_axis_growth():
    lm, _ = airy_ai_log_scaled(50j)
    lead = (math.sqrt(2.0) / 3.0) * 50.0 ** 1.5 \
        - 0.25 * math.log(50.0) - math.log(2.0 * math.sqrt(math.pi))
    assert abs(lm - lead) < 1e-3
    # no overflow far beyond the bundle range
    lm4, _ = airy_ai_log_scaled(1e4)
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
# u_lambda and gamma
# ----------------------------------------------------------------------------

def test_u_lambda_boundary_and_value():
    assert u_lambda(2.4, 0.0) == 1.0
    b_num = airy_all(2.0 ** (-1.0 / 3.0) + 4.0 ** (1.0 / 3.0))
    b_den = airy_all(2.0 ** (-1.0 / 3.0))
    assert abs(u_lambda(1.0, -1.0) - (b_num.ai / b_den.ai).real) < 1e-13


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


def test_gamma_reflection_identity():
    assert abs(gamma_real(1.0 / 3.0) * gamma_real(2.0 / 3.0)
               - 2.0 * math.pi / math.sqrt(3.0)) < 1e-14
    assert abs(gamma_real(0.5) - math.sqrt(math.pi)) < 1e-15
    for x in (0.1, 1.7, 7.3):
        assert abs(gamma_real(x) - gamma_stirling(x)) < 1e-13 * gamma_stirling(x)


# ----------------------------------------------------------------------------
# inner-disk error contract and batch independence
# ----------------------------------------------------------------------------

def _disk_and_family_points():
    rng = np.random.default_rng(8)
    disk = np.sqrt(rng.uniform(0.0, 64.0, 200)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 200))
    u = np.linspace(-7.5, 7.5, 16)
    y = np.array([0.0, 0.7, 1.9, 3.0])
    family = (1j * u[:, None] + y[None, :]).ravel()
    return np.concatenate([disk, family[np.abs(family) < airy.SWITCH_RADIUS]])


def test_inner_disk_against_mpmath_within_error_estimate():
    mpmath = pytest.importorskip("mpmath")
    z = _disk_and_family_points()
    ours = airy_many(z)
    with mpmath.workdps(30):
        ref = np.array([[complex(f(mpmath.mpc(w.real, w.imag), derivative=d))
                         for f, d in ((mpmath.airyai, 0), (mpmath.airyai, 1),
                                      (mpmath.airybi, 0), (mpmath.airybi, 1))]
                        for w in z]).T
    scale = np.maximum(1.0, np.maximum(np.abs(ref[0]), np.abs(ref[2])))
    worst = max(float((np.abs(ours[k] - ref[k]) / scale).max()) for k in range(4))
    # AMOS measured at 1.75e-13 on this scale; _SERIES_ROUND carries headroom
    assert worst < airy._SERIES_ROUND
    for k in range(4):
        assert np.all(np.abs(ours[k] - ref[k]) <= ours[4])


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
    batch = airy_many(z)
    logs = airy.log_ai_many(z)
    for i in (0, 17, 123, 299):
        alone = airy_many(z[i:i + 1])
        for k in range(5):
            assert alone[k].tobytes() == batch[k][i:i + 1].tobytes()
        assert airy.log_ai_many(z[i:i + 1]).tobytes() == logs[i:i + 1].tobytes()


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
    real_bundle = airy._series_bundle
    monkeypatch.setattr(airy, "_series_bundle",
                        lambda w: amos.append(w.size) or real_bundle(w))
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
