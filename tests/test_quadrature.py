"""Quadrature engine: reference integrals, tail bounds, determinism,
error-estimate honesty, budget behavior."""

import math

import numpy as np
import pytest

from chernoff import airy
from chernoff.quadrature import (
    QuadratureBudgetError,
    QuadratureSpec,
    airy_ratio_tail_bound,
    gauss_legendre_panels,
    integrate_interval,
    truncation,
)

from oracles import gamma_stirling, gl_panels, integrate_full_line


def gaussian(spec=None):
    return integrate_full_line(lambda u: np.exp(-u * u),
                               lambda U: math.exp(-U * U), spec)


def half_line(f, decay, spec):
    """f over [0, inf): the integrator on [0, U] with the tail bound decay(U)."""
    U, tail = truncation(decay, spec.abs_tol / 2.0)
    return integrate_interval(f, 0.0, U, spec, tail=tail)


def airy_square(u):
    return np.exp(-2.0 * airy.log_ai_many(1j * u)) / (2.0 * math.pi)


def test_gaussian_reference():
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    res = gaussian(spec)
    assert abs(res.value.real - math.sqrt(math.pi)) < 1e-12
    assert res.err_estimate <= 1e-12 * 10
    U, _ = truncation(lambda U: math.exp(-U * U), spec.abs_tol / 2.0)
    assert res.evaluations > 0 and U >= 5.0


def test_odd_integrand_cancels():
    res = integrate_full_line(lambda u: u * np.exp(-u * u),
                              lambda U: (U + 1.0) * math.exp(-U * U))
    assert abs(res.value) < res.err_estimate + 1e-13


def test_airy_square_unit_mass():
    res = integrate_full_line(
        airy_square, airy_ratio_tail_bound, QuadratureSpec(abs_tol=1e-11))
    assert abs(res.value.real - 1.0) < 1e-10
    assert abs(res.value.imag) < res.err_estimate


def test_semi_infinite_exponential():
    res = half_line(lambda t: np.exp(-t), lambda U: math.exp(-U),
                    QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12))
    assert abs(res.value.real - 1.0) < 1e-12


def test_semi_infinite_cubic_against_fixed_grid_oracle():
    oracle = gl_panels(lambda t: np.exp(-t ** 3 / 3.0), 0.0, 12.0, 60)
    assert abs(oracle - 3.0 ** (-2.0 / 3.0) * gamma_stirling(1.0 / 3.0)) < 1e-13
    res = half_line(lambda t: np.exp(-t ** 3 / 3.0),
                    lambda U: math.exp(-U ** 3 / 3.0),
                    QuadratureSpec(abs_tol=1e-12))
    assert abs(res.value.real - oracle) < 1e-12


def test_semi_infinite_airy_third():
    res = half_line(
        lambda y: np.exp(airy.log_ai_many(y)),
        lambda U: 2.0 * math.exp(-(2.0 / 3.0) * U ** 1.5),
        QuadratureSpec(abs_tol=1e-12))
    assert abs(res.value.real - 1.0 / 3.0) < 1e-11


def test_tail_bound_monotone_and_dominating():
    bound = airy_ratio_tail_bound
    us = [6.0, 10.0, 20.0, 30.0]
    vals = [bound(u) for u in us]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    for U in (10.0, 20.0, 30.0):
        f1 = abs(np.exp(-2.0 * airy.log_ai_many(np.array([1j * U]))[0]))
        f2 = abs(np.exp(airy.log_ai_many(np.array([1j * U + 2.0]))[0]
                        - 2.0 * airy.log_ai_many(np.array([1j * U]))[0]))
        assert max(f1, f2) <= bound(U)


def test_halving_tolerance_never_hurts():
    targets = {
        "gauss": (gaussian, math.sqrt(math.pi)),
    }
    for name, (fn, target) in targets.items():
        errs = []
        for tol in (1e-6, 1e-8, 1e-10, 1e-12):
            res = fn(QuadratureSpec(abs_tol=tol, rel_tol=tol))
            errs.append(abs(res.value.real - target))
        assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))


def test_error_estimate_honesty_tolerance_sweep():
    refs = [
        (lambda spec: gaussian(spec), math.sqrt(math.pi)),
        (lambda spec: integrate_full_line(airy_square, airy_ratio_tail_bound, spec), 1.0),
    ]
    for fn, target in refs:
        for tol in (1e-6, 1e-8, 1e-10):
            res = fn(QuadratureSpec(abs_tol=tol, rel_tol=tol))
            assert abs(res.value.real - target) <= res.err_estimate
            assert res.err_estimate <= tol


def test_deterministic_bit_identical():
    a = gaussian(QuadratureSpec(abs_tol=1e-11))
    b = gaussian(QuadratureSpec(abs_tol=1e-11))
    assert a == b


def test_budget_exceeded_reports_best_value():
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=4)
    with pytest.raises(QuadratureBudgetError) as exc:
        integrate_interval(lambda t: np.abs(t - math.pi / 10.0) ** 0.5,
                           0.0, 1.0, spec)
    res = exc.value.result
    ref = gl_panels(lambda t: np.abs(t - math.pi / 10.0) ** 0.5, 0.0, 1.0, 4000)
    assert abs(res.value.real - ref) <= res.err_estimate


def test_unreachable_tail_fails_fast():
    # tail bound alone above the tolerance: engine must give up quickly
    spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    with pytest.raises(QuadratureBudgetError) as exc:
        integrate_interval(lambda u: np.exp(-u * u), -3.0, 3.0, spec,
                           tail=math.exp(-9.0))
    res = exc.value.result
    assert abs(res.value.real - math.sqrt(math.pi)) <= res.err_estimate


def test_truncation_sensitivity_error_grows():
    spec = QuadratureSpec(abs_tol=1e-8)
    wide_U, wide_tail = truncation(airy_ratio_tail_bound, spec.abs_tol / 2.0)
    wide = integrate_interval(airy_square, -wide_U, wide_U, spec, tail=wide_tail)
    narrow_U = wide_U / 2.0
    try:
        narrow = integrate_interval(airy_square, -narrow_U, narrow_U, spec,
                                    tail=airy_ratio_tail_bound(narrow_U))
    except QuadratureBudgetError as exc:
        narrow = exc.result
    assert narrow_U < wide_U
    assert narrow.err_estimate > wide.err_estimate


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=1e-15)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=2 ** 21)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=bad)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=bad)


@pytest.mark.parametrize("frequency", [1e6, 1e308])
def test_oscillation_panels_beyond_the_budget_are_refused_up_front(frequency):
    # 1e6 would mean 2.6e7 panels of 15 points, 1e308 a zero panel width
    calls = []

    def f(u):
        calls.append(u.size)
        return np.exp(-u * u)

    with pytest.raises(QuadratureBudgetError):
        integrate_full_line(f, lambda U: math.exp(-U * U),
                            QuadratureSpec(abs_tol=1e-11), frequency=frequency)
    assert calls == []


def test_oscillation_cap_resolves_high_frequency():
    t = 40.0
    res = integrate_full_line(lambda u: np.exp(1j * t * u - u * u),
                              lambda U: math.exp(-U * U) * 2.0,
                              QuadratureSpec(abs_tol=1e-11), frequency=t)
    target = math.sqrt(math.pi) * math.exp(-t * t / 4.0)
    assert abs(res.value.real - target) < 1e-11
    assert abs(res.value.imag) < 1e-11


def test_gauss_legendre_panels_exactness():
    pts, wts = gauss_legendre_panels(0.0, 3.0, 8, 3)
    # degree-15 exactness per unit panel
    for p in range(0, 15):
        got = float((pts ** p * wts).sum())
        assert abs(got - 3.0 ** (p + 1) / (p + 1)) < 1e-12 * 3.0 ** (p + 1)
