"""Probabilistic layer: h, hitting/survival, g, phi, psi, joint and
marginal densities, moments, tabulation."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as hst

from chernoff import airy
from chernoff import densities as dens
from chernoff.densities import (
    DensityTable,
    StartState,
    bm_first_passage_cdf,
    bm_first_passage_density,
    chernoff_density,
    g_fun,
    h_density,
    hitting_prob,
    joint_density_one_sided,
    joint_density_two_sided,
    max_density_one_sided,
    max_marginal_two_sided,
    phi,
    psi,
    survival_prob,
    tabulate,
    tilted_g,
    tilted_g_limit,
)
from chernoff.quadrature import (
    QuadratureBudgetError,
    QuadratureSpec,
    airy_ratio_tail_bound,
    gauss_legendre_panels,
    integrate_interval,
)

from oracles import (gl_panels, h_density_fourier, h_talbot, integrate_full_line,
                     k_reference, max_density_fd, phi_reference,
                     phi_residue_reference, tilted_g_integrand)


def ai_ratio_real(znum: float, zden: float) -> float:
    return float(np.exp(airy.log_ai_many(np.array([znum + 0j]))
                        - airy.log_ai_many(np.array([zden + 0j])))[0].real)


# ----------------------------------------------------------------------------
# h
# ----------------------------------------------------------------------------

def test_h_laplace_transform_at_zero_and_one():
    # integral of h equals the Airy ratio at lam = 0; weighted by e^{-u} at 1
    for x, lam in [(-1.0, 0.0), (-1.0, 1.0), (-0.5, 0.0), (-0.5, 1.0)]:
        a = -dens.FOUR13 * x
        xi = 2.0 ** (-1.0 / 3.0) * lam
        target = ai_ratio_real(xi + a, xi)
        res = integrate_interval(
            lambda u: np.exp(-lam * u) * dens._h_grid(a, u)[0], 0.0, 16.0,
            QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10),
            tail=2.0 * math.exp(-(lam + 2.9) * 16.0))
        assert abs(res.value.real - target) < 1e-8


def test_h_nonnegative_on_grid():
    for x in (-0.25, -1.0, -2.0):
        ts = np.linspace(0.05, 5.0, 100)
        vals = dens._h_grid(-dens.FOUR13 * x, ts)[0]
        assert np.all(vals > -2e-10)


def test_h_inversion_routes_agree():
    # the band contours (small t), the residue series (large t), a
    # fixed-Talbot contour and the defining Fourier integral must describe
    # one function
    for x, t in [(-1.0, 0.5), (-2.0, 2.0), (-0.5, 1.2)]:
        hv = h_density(x, t)
        try:
            four = h_density_fourier(x, t)
            fv, fe = four.value.real, four.err_estimate
        except QuadratureBudgetError as exc:
            fv, fe = exc.result.value.real, exc.result.err_estimate
        assert abs(hv - fv) <= fe + 1e-9
    ts = np.linspace(0.5, 2.5, 9)
    a = dens.FOUR13
    assert np.abs(h_talbot(a, ts) - dens._h_residue(a, ts)).max() < 1e-9


def test_h_small_time_limit_below_the_talbot_range():
    # a contour's scale ~ 1/t overflows at subnormal t; h at x = -1 and -2
    # underflows there
    ts = np.array([3e-310, 1e-307, 1e-250, 1e-100, 1e-13])
    assert np.all(dens._h_grid([dens.FOUR13, 2.0 * dens.FOUR13], ts) == 0.0)
    # where the small-time limit meets the band contours they agree, at
    # x^2/(2t) = 0.5 and 5
    t = np.array([1e-12])
    for m in (0.5, 5.0):
        a = dens.FOUR13 * math.sqrt(2.0 * m * t[0])
        band = dens._h_grid(a, t)[0, 0]
        assert abs(dens._h_brownian(a, t)[0, 0] - band) <= 1e-11 * band
    # and below it h is the driftless first-passage density
    assert dens._h_grid(1e-7 * dens.FOUR13, 1e-14)[0, 0] == pytest.approx(
        bm_first_passage_density(1e-7, 1e-14), rel=1e-14)


def test_h_band_contours_match_the_residue_series_below_the_switch():
    # the residue series converges to rounding from t = 0.5; the band
    # contours of bands 0 and 1 agree with it there in absolute terms
    ts = np.linspace(0.5, 0.9, 41)[:-1]
    for a in (1e-3, 0.05, 0.4, dens.FOUR13, 4.0):
        gap = np.abs(dens._h_grid(a, ts)[0] - dens._h_residue(a, ts)[0])
        assert gap.max() <= 1e-12


def test_h_fourier_imaginary_part_within_estimate():
    res = h_density_fourier(-1.0, 0.7)
    assert abs(res.value.imag) <= res.err_estimate


def test_h_density_domain():
    with pytest.raises(ValueError):
        h_density(0.5, 1.0)
    with pytest.raises(ValueError):
        h_density(-1.0, 0.0)


# ----------------------------------------------------------------------------
# hitting / survival / g
# ----------------------------------------------------------------------------

def test_hitting_plus_survival_is_one_on_grid():
    for s in (-1.0, 0.0, 1.0):
        for x in (-0.5, -1.0, -2.0):
            st = StartState(s, x)
            gap = hitting_prob(st) + survival_prob(st) - 1.0
            assert abs(gap) < 1e-9


def test_hitting_plus_survival_is_one_next_to_the_barrier():
    # the passage mass sits at t ~ x^2 here, many bands below the residue
    # switch; the mass before the left cut is bounded in the error
    for s in (-1.0, 0.0, 1.0):
        for x in (-1e-3, -1e-2):
            st = StartState(s, x)
            assert abs(hitting_prob(st) + survival_prob(st) - 1.0) <= 5e-11


def test_hitting_prob_airy_point_budget(monkeypatch):
    # from (+-1, -0.25) the adaptive passes touch 10 bands of the h
    # contour, 33 Airy ratios each, taken once per band in the call; a
    # contour per time took 7,800
    count = [0]
    log_ai_diff = airy.log_ai_diff

    def counted(z, a):
        count[0] += np.broadcast(np.asarray(z), np.asarray(a)).size
        return log_ai_diff(z, a)

    monkeypatch.setattr(airy, "log_ai_diff", counted)
    for s in (-1.0, 1.0):
        count[0] = 0
        hitting_prob(StartState(s, -0.25))
        assert 0 < count[0] <= 400


def test_survival_prob_raises_where_the_tilt_swamps_the_g_rule():
    # e^{(2/3)s^3} times the g rule's error estimate, at least its 1e-12
    # u-tail cut: about 2.6 at s = 3.5, 3.4e6 at s = 4, and an overflow at
    # s = 12 (the guard raises from about s = 2.8)
    for s in (3.5, 4.0, 12.0):
        with pytest.raises(dens.ProbabilityRangeError):
            survival_prob(StartState(s, -0.1))


def test_hitting_prob_near_barrier_tends_to_one():
    vals = [hitting_prob(StartState(0.0, x)) for x in (-0.5, -0.1, -1e-3)]
    assert vals[0] < vals[1] < vals[2]
    assert abs(vals[-1] - 1.0) < 5e-3


def test_hitting_prob_far_below_the_barrier():
    # the residue lead reads Ai(a_1 + shift) at shift 4^{1/3} 70 ~ 111, where
    # Ai underflows; the driftless bound exp(-x^2/2t) is below 1e-400 here
    p = hitting_prob(StartState(0.0, -70.0))
    assert 0.0 <= p <= 1e-100


def test_g_vanishes_at_barrier():
    assert tilted_g(0.7, 0.0).value == 0.0
    assert survival_prob(StartState(1.2, 0.0)) == 0.0
    assert g_fun(StartState(-0.4, 0.0)) == 0.0


def test_g_deep_barrier_limit_rate():
    got = tilted_g(1.0, dens.FOUR13 * 8.0).value.real
    assert abs(got - math.exp(-2.0 / 3.0)) < 1e-4


def test_g_cross_route_against_hitting():
    st = StartState(0.0, -1.0)
    assert abs(survival_prob(st) - (1.0 - hitting_prob(st))) < 1e-9


def test_survival_monotone_in_depth():
    xs = np.linspace(-4.0, -0.25, 8)
    vals = [survival_prob(StartState(0.0, x)) for x in xs]
    assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))


def test_tilted_probabilities_stay_in_unit_interval():
    for s in (-1.5, 0.0, 1.5):
        for x in (-3.0, -0.5, -0.1):
            st = StartState(s, x)
            p, q = hitting_prob(st), survival_prob(st)
            assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0


def test_probability_rounding_inside_the_error_clamps_silently():
    # survival_prob at x = -10 reads 1 + 1.8e-13 against an error of 5e-11
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dens._as_probability(1.0 + 1.8e-13, 5e-11, "p") == 1.0
        assert dens._as_probability(-3e-12, 5e-11, "p") == 0.0
        assert survival_prob(StartState(0.0, -10.0)) == 1.0


def test_probability_excess_beyond_the_error_warns_and_clamps():
    with pytest.warns(RuntimeWarning, match="clamped"):
        assert dens._as_probability(1.0 + 1e-9, 1e-12, "p") == 1.0
    with pytest.warns(RuntimeWarning, match="clamped"):
        assert dens._as_probability(-1e-9, 1e-12, "p") == 0.0


def test_probability_excess_beyond_the_budget_raises():
    with pytest.raises(dens.ProbabilityRangeError):
        dens._as_probability(1.0 + 1e-6, 1e-12, "p")
    with pytest.raises(dens.ProbabilityRangeError):
        dens._as_probability(-1e-6, 1e-12, "p")


def test_start_state_validation():
    with pytest.raises(ValueError):
        StartState(0.0, 0.5)
    with pytest.raises(ValueError):
        StartState(float("nan"), -1.0)


_FINITE = hst.floats(allow_nan=False, allow_infinity=False)
_NON_FINITE = hst.sampled_from([math.nan, math.inf, -math.inf])


@given(_FINITE, hst.floats(min_value=-1e308, max_value=0.0))
def test_start_state_accepts_finite_levels_at_or_below_the_barrier(s, x):
    assert 0.0 <= StartState(s, x).shift < math.inf


@given(_FINITE, hst.floats(max_value=-1.2e308, allow_infinity=False))
def test_start_state_rejects_levels_whose_shift_overflows(s, x):
    # the Airy shift -4^{1/3} x is inf below about -1.13e308
    with pytest.raises(ValueError):
        StartState(s, x)


@given(hst.one_of(hst.tuples(_FINITE, hst.floats(min_value=0.0, exclude_min=True)),
                 hst.tuples(_NON_FINITE, hst.floats()),
                 hst.tuples(hst.floats(), _NON_FINITE)))
def test_start_state_rejects_levels_above_the_barrier_and_non_finite(sx):
    with pytest.raises(ValueError):
        StartState(*sx)


# ----------------------------------------------------------------------------
# phi / f_Z
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("s, x", [(-0.73, -0.41), (0.37, -1.63)])
def test_folded_tilted_g_matches_the_full_line(s, x):
    # the Scorer rule is not the folded y-integral integrand, so the
    # full-line reference must be tighter than the 1e-13 it is held to
    A = -dens.FOUR13 * x
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14)
    f, decay = tilted_g_integrand(s, A)
    full = integrate_full_line(f, decay, spec, frequency=dens.TWO13 * abs(s))
    folded = tilted_g(s, A)
    assert abs(folded.value - full.value.real) < 1e-13
    assert folded.evaluations <= 0.55 * full.evaluations


@pytest.mark.parametrize("s", [-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0])
def test_tilted_g_within_its_error_estimate_of_the_reference(s):
    # the Scorer rule against the full-line reference integrand at 1e-13,
    # below and at the _y_cap limit; at |s| = 4 up to A = 1.6, past which the
    # reference misses 1e-13 at s = -4
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
    for A in (0.3, 2.5, dens._y_cap(s)) if abs(s) <= 2.0 else (0.3, 1.6):
        got = tilted_g(s, A)
        f, decay = tilted_g_integrand(s, A)
        ref = integrate_full_line(f, decay, spec, frequency=dens.TWO13 * abs(s))
        assert abs(got.value - ref.value.real) <= got.err_estimate


@pytest.mark.parametrize("s, A", [(-8.0, None), (400.0, 1.0)])
def test_tilted_g_past_its_reach_raises(s, A):
    # s = -8: the tail bound needs sqrt(U/2) > 2^{1/3} 8, U > 203, past the
    # truncation's reach; s = 400: more quarter-period u panels than the
    # budget (from about s = 370 at A = 1).  Both raise before any Airy
    # evaluation.
    with pytest.raises(QuadratureBudgetError) as info:
        tilted_g(s, A)
    assert info.value.result.evaluations == 0


def _phi_integrand(t: float):
    """The u integrand of phi at t over the whole line (v = 2^{1/3} u)."""
    def f(u):
        return np.exp(-1j * dens.TWO13 * t * u - airy.log_ai_many(1j * u)) \
            * (2.0 ** (-1.0 / 3.0) / math.pi)

    return f


@pytest.mark.parametrize("t", [-1.37, 2.21])
def test_folded_phi_matches_the_full_line(t):
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
    full = integrate_full_line(_phi_integrand(t), airy_ratio_tail_bound,
                               spec, frequency=dens.TWO13 * abs(t))
    assert abs(phi(t) - full.value.real) < 1e-13


def test_folded_integrands_are_hermitian_bitwise():
    # f(-u) = conj f(u) is what lets tilted_g and phi integrate u > 0 only
    u = np.linspace(0.05, 12.0, 240)
    for f in (tilted_g_integrand(-0.73, 0.9)[0],
              tilted_g_integrand(0.37, 2.6)[0],
              _phi_integrand(-1.37), _phi_integrand(2.21)):
        assert np.array_equal(f(-u), np.conj(f(u)))


@pytest.mark.parametrize("s", [-4.0, -2.0, -0.73, 0.0, 0.37, 0.5, 2.0])
def test_tilted_g_inner_y_rule_has_converged(s, monkeypatch):
    # the inner y integral is the Scorer relation, whose Hi values come from
    # the t rule of airy.hi_lines; tilted_g's err_estimate counts that
    # rule's cut but not its panels, and twice the Gauss-Legendre nodes in
    # each t panel move g by nothing at the scale of double rounding.  At
    # s = -4 from A = 4 on, g lies about 1e3 under its oscillating u
    # integrand, and any change of rule moves it by ~1e-13 relative: the
    # widths of the u-panel test
    widths = (0.05, 0.4, 1.6, 4.0, 9.0, None)  # None: the _y_cap limit
    if s == -4.0:
        widths = widths[:3]
    shipped = [tilted_g(s, A).value for A in widths]
    monkeypatch.setattr(airy, "_HI_NODES", 2 * airy._HI_NODES)
    for A, g in zip(widths, shipped):
        assert abs(g - tilted_g(s, A).value) <= 1e-14 * max(1.0, abs(g))


@pytest.mark.parametrize("s", [-4.0, -2.0, -0.73, 0.0, 0.37, 0.5, 2.0, 4.0])
def test_tilted_g_u_panels_have_converged(s, monkeypatch):
    # the g rule's quarter-period u panels against panels half as wide (an
    # eighth of the tilt period, the adaptive engine's first pass) on the
    # y-rule test's widths: the wider panels lose nothing at the scale of
    # double rounding
    widths = (0.05, 0.4, 1.6, 4.0, 9.0, None)  # None: the _y_cap limit
    if abs(s) == 4.0:
        widths = widths[:3]
    shipped = [tilted_g(s, A).value.real for A in widths]
    edges = dens.panel_edges
    monkeypatch.setattr(dens, "panel_edges",
                        lambda a, b, width, spec: edges(a, b, 0.5 * width, spec))
    for A, g in zip(widths, shipped):
        assert abs(g - tilted_g(s, A).value.real) <= 1e-14 * max(1.0, abs(g))


@pytest.mark.parametrize("s", [-3.0, -1.0, 0.0, 1.0, 2.0])
def test_tilted_g_limit_is_the_exact_tilt(s):
    # p(s) = e^{-(2/3) s^3} within g's 1e-10, relative where p passes 1
    # (e^{18} at s = -3)
    target = math.exp(-(2.0 / 3.0) * s ** 3)
    assert abs(tilted_g_limit(s) - target) <= 1e-10 * max(1.0, target)


def test_g0_model_agrees_with_the_scorer_route_at_block_edges():
    # the g(0, .) model (Legendre y blocks of f) and tilted_g (the Scorer
    # relation, no y nodes) share only the Airy layer; at the block edges
    # A = k the model is its whole-block prefix sums
    k = np.arange(1.0, 17.0)
    model = dens._g0_vec(k / dens.FOUR13)[0]
    scorer = [tilted_g(0.0, A).value for A in k]
    assert np.abs(model - scorer).max() <= 1e-12


def test_g_tail_bound_dominates_the_scorer_integrand():
    # |e^{-beta^3/3} W(z + A) / Ai(z)^2| on z = iu integrated over (U, U + 20]
    # by 40-point Gauss-Legendre panels (past that it is under e^-200), W
    # from hi_lines and AMOS's Ai, Ai'; W(z + A) = -1/pi for A = None
    x, w = np.polynomial.legendre.leggauss(40)
    mids = 0.25 + 0.5 * np.arange(40.0)
    for s in (-2.0, -1.0, 0.0, 1.0, 2.0):
        beta = dens.TWO13 * s
        for A in (0.05, 1.0, 5.0, None):
            for U in (5.0, 10.0, 20.0, 30.0):
                u = (U + mids[:, None] + 0.25 * x).ravel()
                ai0 = scipy.special.airy(1j * u)[0]
                if A is None:
                    size = np.exp(-beta ** 3 / 3.0) / math.pi / np.abs(ai0) ** 2
                else:
                    m, hi, dhi, _ = airy.hi_lines([A], u, -beta)
                    ai, aip, _, _ = scipy.special.airy(A + 1j * u)
                    size = np.abs(np.exp(m[0]) * (aip * hi[0] - ai * dhi[0]) / ai0 ** 2)
                assert np.tile(0.25 * w, 40) @ size <= dens._g_tail(s, A)(U)


def test_tilted_g_airy_point_budget(monkeypatch):
    # the Scorer route takes Ai at the u nodes and Ai, Ai' at u + A, one
    # Airy call each, and nothing from log_ai_diff: p(0.5) takes its 150 u
    # nodes (the y blocks sent 28,500 points to log_ai_diff), the survival
    # calls at s = +-1 their 195, twice, plus one point for the W(z) rest.
    # The g(0, .) build still takes 150 u nodes x 17 blocks of 24 y nodes.
    count = {}

    def counted(name):
        fn = getattr(airy, name)

        def call(z, *args):
            count[name] = count.get(name, 0) + np.broadcast(
                np.asarray(z), *map(np.asarray, args)).size
            return fn(z, *args)
        monkeypatch.setattr(airy, name, call)

    for name in ("log_ai_diff", "log_ai_many", "log_ai_and_ratio"):
        counted(name)

    def points(call, *args):
        count.clear()
        call(*args)
        return count

    assert points(tilted_g, 0.5, None) == {"log_ai_and_ratio": 150, "log_ai_many": 1}
    for s in (-1.0, 1.0):
        for x in (-0.25, -1.0):
            assert points(survival_prob, StartState(s, x)) == {
                "log_ai_and_ratio": 390, "log_ai_many": 1}
    dens._g0_interp.cache_clear()
    try:
        assert points(dens._g0_interp)["log_ai_diff"] == 61_200
    finally:
        dens._g0_interp.cache_clear()


def test_tilted_g_and_the_g0_build_bound_their_memory():
    # p(-3) takes 1,035 u nodes (U > 2 2^{2/3} 9 for the tail bound) and
    # reads e^{18} to rounding; the g(0, .) model's 61,200 (y, u) entries go
    # in one log_ai_diff call (about 17 MB)
    for call, args in ((tilted_g, (-3.0, None)), (dens._g0_interp.__wrapped__, ())):
        tracemalloc.start()
        try:
            call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20
    assert tilted_g(-3.0, None).value == pytest.approx(math.exp(18.0), rel=1e-14)


def test_phi_real_and_positive():
    for t in (-2.0, 0.0, 1.0):
        assert phi(t) > 0.0


def test_phi_against_the_scipy_reference():
    # both sides of the model's |t| <= 4.8, out to where phi is rounding
    t = np.concatenate([np.linspace(-14.0, 8.0, 89), [-4.9, -4.8, 4.8, 4.9]])
    assert np.all(np.abs(phi(t) - phi_reference(t)) < 1e-14)


# across t = -1, where the residue series hands over to the k rule, and
# every k band up to t = 10.5, past which phi is 0
_PHI_T = hst.one_of(hst.floats(-4.8, 4.8), hst.floats(-40.0, 40.0))


@settings(max_examples=30)
@given(hst.lists(_PHI_T, min_size=1, max_size=12))
def test_phi_entries_do_not_depend_on_the_batch(ts):
    batch = np.array(ts)
    values = phi(batch)
    for i, t in enumerate(ts):
        assert values[i] == phi(t)
        assert values[i] == phi(batch[i:i + 1])[0]


def test_phi_shapes_and_domain():
    assert isinstance(phi(0.5), float)
    assert phi(np.array([[0.5, -6.0]])).shape == (1, 2)
    assert phi([0.5, -6.0])[1] == phi(-6.0)
    with pytest.raises(ValueError):
        phi(math.nan)
    # every finite t has a value: 0 where phi underflows on either side
    assert phi(1e300) == 0.0
    assert phi(-1e300) == 0.0
    assert np.all(np.isfinite(phi(np.array([0.5, -140.0]))))
    assert math.isfinite(phi(-130.0))


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
def test_k_at_barrier_relative_to_the_contour_reference(t):
    # k(t, 0) = e^{(2/3) t^3} phi(t) is O(t), while phi falls like
    # e^{-(2/3) t^3}: an absolute error in phi would swamp it (k(4) read
    # -1128 when phi carried 1e-15 of absolute rounding)
    want = k_reference(t)
    assert abs(dens.k_at_barrier(t) - want) <= 1e-12 * want


@pytest.mark.parametrize("t", [-1.0, -2.0, -5.2, -12.0, -20.0])
def test_phi_left_tail_relative_to_the_residue_reference(t):
    want = phi_residue_reference(t)
    assert abs(phi(t) - want) <= 1e-13 * want


def _band_edges():
    """Adjacent doubles (below, at) each edge where phi changes route: t = -1
    and the k rule's band edges t^{3/2} = b, b = 1..34, up to t = 10.5."""
    pairs = [(np.nextafter(-1.0, -2.0), -1.0)]
    for b in range(1, 35):
        hi = b ** (2.0 / 3.0)
        while np.floor(np.float64(hi) ** 1.5) < b:
            hi = np.nextafter(hi, 11.0)
        lo = np.nextafter(hi, 0.0)
        assert np.floor(np.float64(lo) ** 1.5) == b - 1
        pairs.append((lo, hi))
    return np.array(pairs)


def test_phi_is_continuous_across_its_route_and_band_edges():
    # the jump of phi includes its own change over one ulp, 2 t^2 ulp(t);
    # phi is subnormal past about t = 10.2, so there only k(t, 0) is
    # compared, which the rule computes before the factor e^{-(2/3) t^3}
    pairs = _band_edges()
    below, above = phi(pairs[:, 0]), phi(pairs[:, 1])
    normal = below > 1e-300
    assert normal[:-2].all()
    assert np.abs(above[normal] / below[normal] - 1.0).max() <= 1e-12
    for lo, hi in pairs[1:]:
        assert abs(dens.k_at_barrier(hi) / dens.k_at_barrier(lo) - 1.0) <= 1e-12


def test_joint_density_one_sided_is_positive_in_the_right_tail():
    assert joint_density_one_sided(4.0, 0.3, StartState(0.0, 0.0)) > 0.0


def test_max_density_one_sided_far_right_start():
    start = time.perf_counter()
    value = max_density_one_sided(0.3, StartState(3.2, 0.0))
    assert time.perf_counter() - start < 1.0
    assert math.isfinite(value) and value > 0.0


@pytest.mark.parametrize("s", [3.2, 4.0])
def test_max_density_at_the_barrier_limit_far_right(s):
    k = dens.k_at_barrier(s)
    assert abs(max_density_one_sided(1e-9, StartState(s, 0.0)) - k) <= 1e-7 * k


def test_k_at_barrier_matches_hitting_derivative():
    # one-sided finite difference of the hitting probability near x = 0
    for s in (0.0, 0.5):
        k = dens.k_at_barrier(s)
        h = 5e-4
        p1 = hitting_prob(StartState(s, -h))
        p2 = hitting_prob(StartState(s, -3.0 * h))
        fd = (p1 - p2) / (2.0 * h)
        assert abs(fd - k) / k < 5e-3


def test_chernoff_density_symmetric_bitwise():
    assert chernoff_density(0.7) == chernoff_density(-0.7)
    assert chernoff_density(1.3) == chernoff_density(-1.3)


def test_chernoff_density_unit_mass_trapezoid():
    grid = np.arange(-300, 301) * 0.01
    table = tabulate("argmax", grid)
    assert abs(table.trapezoid_mass() - 1.0) < 1e-5


def test_chernoff_cdf_monotone_normalized():
    t = np.linspace(-4.5, 4.5, 201)
    F = dens.chernoff_cdf(t)
    assert np.all(np.diff(F) >= -1e-12)
    assert F[0] < 1e-7 and abs(F[-1] - 1.0) < 1e-7


# ----------------------------------------------------------------------------
# psi
# ----------------------------------------------------------------------------

def test_psi_equals_half_phi_reflected():
    for t in (0.0, 0.5, 1.0):
        assert abs(psi(t) - 0.5 * phi(-t)) < 1e-5


def test_psi_at_zero_is_half_phi_zero():
    assert abs(psi(0.0) - 0.5 * phi(0.0)) < 1e-5


def test_psi_integrand_pointwise_nonnegative():
    xs = np.linspace(0.05, 4.0, 24)
    h_vals = dens._h_grid(dens.FOUR13 * xs, 1.0)[:, 0]
    g_vals = dens._g0_fast(xs)
    assert np.all(h_vals * g_vals > -1e-12)


def test_psi_rejects_negative_time():
    with pytest.raises(ValueError):
        psi(-0.3)


def test_g0_model_within_tilted_g_tolerance():
    # the cached g(0, .) model against the tilted_g route, at points that
    # are not y-block edges
    xs = (0.03, 0.37, 1.0, 2.2, 4.1)
    for x, g in zip(xs, dens._g0_fast(np.array(xs))):
        assert abs(g - survival_prob(StartState(0.0, -x))) < 1e-10


def test_g0_blocks_continuous_at_block_edges():
    # at 4^{1/3} x = k the whole-block prefix takes over from the partial
    # block's interpolant, and g' passes from one block's interpolant to the
    # next
    for k in (1, 2, 5, 12, 16):
        lo = hi = k / dens.FOUR13
        while dens.FOUR13 * lo >= k:
            lo = np.nextafter(lo, 0.0)
        while dens.FOUR13 * hi < k:
            hi = np.nextafter(hi, np.inf)
        g, dg = dens._g0_vec(np.array([lo, hi]))
        assert abs(g[1] - g[0]) < 1e-14
        assert abs(dg[1] - dg[0]) < 1e-12 * dg[1]


# ----------------------------------------------------------------------------
# joint laws
# ----------------------------------------------------------------------------

def _graded_grid(lo, hi, n):
    # geometric spacing toward lo resolves the passage boundary layer
    return lo + (hi - lo) * (np.linspace(0.0, 1.0, n) ** 3)


def test_joint_one_sided_unit_mass():
    st = StartState(0.0, 0.0)
    tg = _graded_grid(1e-6, 4.0, 220)
    ag = _graded_grid(1e-6, 4.0, 220)
    H = dens._h_grid(dens.FOUR13 * ag, tg)
    pv = phi(tg)
    inner = np.trapezoid(H * pv[None, :], tg, axis=1)
    mass = np.trapezoid(inner, ag)
    assert abs(mass - 1.0) < 1e-3


def test_joint_one_sided_factorizes_in_a():
    st = StartState(0.0, -0.5)
    t = 1.1
    vals = []
    for a in (0.4, 1.3):
        num = joint_density_one_sided(t, a, st)
        hval = float(dens._h_grid(dens.FOUR13 * (a - st.x), t - st.s)[0, 0])
        vals.append(num / hval / math.exp(2.0 * st.s * (st.x - a)))
    assert abs(vals[0] - vals[1]) < 1e-9 * abs(vals[0])


def test_joint_one_sided_marginal_matches_fd_max_density():
    st = StartState(0.0, 0.0)
    a = 1.0
    ts = np.linspace(1e-4, 12.0, 2400)
    joint = np.array([joint_density_one_sided(float(t), a, st) for t in ts[:0]])
    # vectorized: joint(t, a) = h_{-a}(t) phi(t) at the origin state
    hv = dens._h_grid(dens.FOUR13 * a, ts)[0]
    marginal = np.trapezoid(hv * phi(ts), ts)
    assert abs(marginal - max_density_fd(a, st)) < 1e-4
    assert abs(marginal - max_density_one_sided(a, st)) < 1e-4


def test_joint_one_sided_domain():
    with pytest.raises(ValueError):
        joint_density_one_sided(0.5, -0.2, StartState(1.0, -1.0))


def test_max_density_one_sided_mass():
    st = StartState(0.0, 0.0)
    pts, wts = gauss_legendre_panels(1e-4, 4.0, 10, 4)
    dens_vals = np.array([max_density_one_sided(float(a), st) for a in pts])
    mass = float((dens_vals * wts).sum())
    target = 1.0 - hitting_prob(StartState(0.0, -4.0))
    assert abs(mass - target) < 1e-3


def test_max_density_boundary_limit_is_barrier_derivative():
    st = StartState(0.3, 0.0)
    near = max_density_one_sided(5e-4, st)
    assert abs(near - dens.k_at_barrier(0.3)) < 5e-3 * dens.k_at_barrier(0.3)


# (s, x, a): a - x from 0.2 to 3, where the difference at step 1e-3 is good
# to 1e-8 relative, and from 0.02 to 0.1, where at step 1e-4 it is
# noise-limited at about 1e-5
_MAX_FAR = [(0.0, 0.0, 0.5), (0.0, 0.0, 1.0), (-1.2, -1.0, 0.0),
            (1.0, -0.2, 0.5), (-1.5, 0.0, 2.0), (0.5, -1.0, -0.8),
            (0.0, -0.3, 0.0), (2.5, 0.0, 0.3), (-0.7, -2.0, 1.0),
            (1.5, -0.5, 0.2)]
_MAX_NEAR = [(-1.0, -0.5, -0.45), (2.0, 0.0, 0.1), (0.0, -1.0, -0.98),
             (1.0, 0.0, 0.03), (-1.0, 0.0, 0.08)]


@pytest.mark.parametrize("s, x, a", _MAX_FAR + _MAX_NEAR)
def test_max_density_matches_the_hitting_difference(s, x, a):
    st = StartState(s, x)
    far = a - x >= 0.2
    want = max_density_fd(a, st, step=1e-3 if far else 1e-4)
    assert abs(max_density_one_sided(a, st) - want) <= (1e-7 if far else 1e-4) * want


def test_max_density_at_the_barrier_limit():
    # a -> x: the barrier derivative k(s, 0) = exp((2/3)s^3) phi(s)
    k = dens.k_at_barrier(0.3)
    assert abs(max_density_one_sided(1e-9, StartState(0.3, 0.0)) - k) < 2e-9 * k


def test_max_density_next_to_the_barrier():
    # 1e-6 above the start level the central difference would cross the
    # barrier; the time integral reads k(0, 0) less O(1e-6)
    k = dens.k_at_barrier(0.0)
    assert abs(max_density_one_sided(1e-6, StartState(0.0, 0.0)) - k) < 1e-5 * k


def test_joint_two_sided_even_in_t():
    assert joint_density_two_sided(0.8, 1.0) == joint_density_two_sided(-0.8, 1.0)
    assert joint_density_two_sided(0.8, 1.0) > 0.0


def test_joint_two_sided_unit_mass():
    tg = _graded_grid(1e-6, 4.0, 200)
    ag = _graded_grid(1e-6, 4.0, 200)
    H = dens._h_grid(dens.FOUR13 * ag, tg)
    pv = phi(tg)
    g0 = dens._g0_fast(ag)
    inner = np.trapezoid(H * pv[None, :], tg, axis=1)
    mass = 2.0 * np.trapezoid(inner * g0, ag)
    assert abs(mass - 1.0) < 1e-3


def test_joint_two_sided_marginal_is_chernoff_density():
    # integral over a equals psi(t) phi(t) = phi(t) phi(-t)/2 = f_Z(t)
    for t in (0.5, 1.0):
        marg = psi(t) * phi(t)
        assert abs(marg - chernoff_density(t)) < 2e-5


def test_max_marginal_routes_agree_where_quadrature_converged():
    # 2 g g' against the joint law integrated over the argmax time,
    # 2 g(0,-a) int_0^14 h_{-a}(t) phi(t) dt; the t grid under-resolves the
    # passage boundary layer at small a
    aa = np.array([1.5, 2.0, 3.0])
    pts, wts = gauss_legendre_panels(0.0, 14.0, 12, 14)
    joint = dens._h_grid(dens.FOUR13 * aa, pts) @ (wts * phi(pts))
    d1 = dens._max_marginal_many(aa)
    d2 = 2.0 * dens._g0_fast(aa) * joint
    assert np.all(np.abs(d1 - d2) < 1e-5)


@pytest.mark.parametrize("a", [0.05, 1.0, 4.0, 5.0, 6.0, 7.5, 8.0, 9.0, 9.5,
                               10.0, 10.5])
def test_max_marginal_far_tail_matches_direct_integral(a):
    # f_M(a) = 2 g(0,-a) g'(a), g'(a) = 4^{1/3} (1/2pi) int Ai(iu+A)/Ai(iu)^2 du
    # with A = 4^{1/3} a.  The integrand is divided by its value at u = 0, so
    # the adaptive error control acts at the scale of f_M (1e-13 to 1e-21).
    A = dens.FOUR13 * a
    z0 = np.array([0j])
    scale = float(np.exp(airy.log_ai_diff(z0, A) - airy.log_ai_many(z0))[0].real)

    def f(u):
        zu = 1j * u
        return np.exp(airy.log_ai_diff(zu, A) - airy.log_ai_many(zu)) / scale

    res = integrate_full_line(f, lambda U: airy_ratio_tail_bound(U) / scale,
                              QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12),
                              frequency=math.sqrt(A))
    want = (2.0 * tilted_g(0.0, A).value.real * dens.FOUR13 * scale
            * res.value.real / (2.0 * math.pi))
    assert abs(max_marginal_two_sided(a) - want) < 1e-10 * want


def test_max_marginal_normalizes():
    pts, wts = gauss_legendre_panels(0.0, 8.0, 24, 8)
    mass = float((dens._max_marginal_many(pts) * wts).sum())
    assert abs(mass - 1.0) < 1e-8


def test_moment_relation_exact_routes():
    et2 = dens.argmax_second_moment()
    em = dens.max_mean_two_sided()
    assert abs(et2 - em / 3.0) / (em / 3.0) < 1e-4
    assert em > 0.0
    # symmetry: first moment of the argmax vanishes
    grid = np.linspace(-4.5, 4.5, 1801)
    m1 = np.trapezoid(grid * chernoff_density(grid), grid)
    assert abs(m1) < 1e-8


# ----------------------------------------------------------------------------
# Brownian first passage (closed form)
# ----------------------------------------------------------------------------

def test_bm_first_passage_density_value():
    assert abs(bm_first_passage_density(1.0, 1.0)
               - math.exp(-0.5) / math.sqrt(2.0 * math.pi)) < 1e-16


def test_bm_first_passage_total_mass():
    # density mass up to 4000 equals the closed-form CDF there; the CDF
    # itself reaches 1 (BM hits the barrier almost surely)
    mass = gl_panels(lambda u: 1.0 / np.sqrt(2.0 * np.pi * u ** 3)
                     * np.exp(-1.0 / (2.0 * u)), 1e-6, 4000.0, 4000)
    assert abs(mass - bm_first_passage_cdf(1.0, np.array([4000.0]))[0]) < 1e-8
    assert abs(bm_first_passage_cdf(1.0, np.array([1e12]))[0] - 1.0) < 1e-5


def test_bm_first_passage_cdf_consistent_with_density():
    us = np.linspace(0.1, 5.0, 8)
    for u in us:
        num = gl_panels(lambda t: np.vectorize(bm_first_passage_density)(1.0, t),
                        1e-9, u, 400)
        assert abs(num - bm_first_passage_cdf(1.0, np.array([u]))[0]) < 1e-9


def test_bm_first_passage_domain():
    with pytest.raises(ValueError):
        bm_first_passage_density(-1.0, 1.0)
    with pytest.raises(ValueError):
        bm_first_passage_density(1.0, 0.0)


# ----------------------------------------------------------------------------
# tabulation
# ----------------------------------------------------------------------------

def test_tabulate_argmax_symmetric_values():
    grid = np.linspace(-2.0, 2.0, 81)
    table = tabulate("argmax", grid)
    assert np.abs(table.values - table.values[::-1]).max() < 1e-12
    assert abs(table.meta["mass_target"] - 1.0) < 1e-3  # range CDF mass


def test_tabulate_first_passage_mass_matches_hitting():
    st = StartState(0.0, -1.0)
    grid = np.arange(1, 3501) * 0.002
    table = tabulate("first_passage", grid, state=st)
    assert abs(table.trapezoid_mass() - hitting_prob(st)) < 1e-5


def test_tabulate_max_reads_values_next_to_the_barrier():
    st = StartState(0.0, -1e-6)
    grid = np.array([5e-7, 0.5, 1.0])  # 1.5e-6 above x at the first point
    table = tabulate("max", grid, state=st)
    k = dens.k_at_barrier(0.0)
    assert abs(table.values[0] - k) < 1e-5 * k
    for a, v in zip(grid[1:], table.values[1:]):
        assert abs(v - max_density_fd(float(a), st, step=1e-3)) < 1e-7 * v


def test_density_table_validation():
    with pytest.raises(ValueError):
        DensityTable(np.array([0.0, 0.0, 1.0]), np.zeros(3), "argmax")
    with pytest.raises(ValueError):
        DensityTable(np.array([0.0, 1.0]), np.zeros(3), "argmax")
    with pytest.raises(ValueError):
        DensityTable(np.array([0.0, 1.0]), np.zeros(2), "bogus")
    with pytest.raises(ValueError):
        DensityTable(np.array([0.0, 1.0]), np.array([-1.0, 0.0]), "argmax")
