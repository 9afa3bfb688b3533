"""Named, tolerance-tagged numerical checks of every identity the library
is built on, with machine-readable reports.

Each check returns one or more :class:`CheckReport` records; ``run_all``
aggregates the deterministic suites (no randomness, so reports are
bit-reproducible for a given tolerance profile).  ``mc_concordance`` holds
the Monte Carlo checks; they depend on the simulation config and its seed,
so ``run_all`` never runs them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, asdict
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.special

from . import airy
from . import densities as dens
from . import mcsim
from .densities import StartState
from .quadrature import (QuadratureBudgetError, QuadratureSpec, airy_ratio_tail_bound,
                         integrate_interval, truncation)

__all__ = [
    "CheckReport",
    "check_airy_inverse_square_mass",
    "check_wronskian_suite",
    "check_connection_suite",
    "check_regime_continuity",
    "check_master_relation",
    "check_pde_residuals",
    "check_psi_phi",
    "check_laplace_roundtrip",
    "check_survival_tilt_limit",
    "check_incomplete_scorer_ode",
    "check_chernoff_density",
    "check_moment_relation",
    "MC_CHECKS",
    "mc_concordance",
    "run_all",
    "to_ndjson",
    "summarize",
    "SUITES",
]


@dataclass(frozen=True)
class CheckReport:
    name: str
    target: float
    computed: float
    abs_err: float
    tol: float
    passed: bool
    runtime_ms: int

    @staticmethod
    def build(name: str, target: float, computed: float, tol: float,
              t0: float) -> "CheckReport":
        err = abs(computed - target)
        return CheckReport(name, float(target), float(computed), float(err),
                           float(tol), bool(err <= tol),
                           int(1000 * (time.perf_counter() - t0)))


def _scaled(tol: float, profile: float) -> float:
    return tol * profile


# ----------------------------------------------------------------------------
# Airy-layer checks
# ----------------------------------------------------------------------------

def check_airy_inverse_square_mass(profile: float = 1.0) -> CheckReport:
    """(1/2pi) int du / Ai(iu)^2 = 1, folded onto u > 0 by Ai(-iu) =
    conj Ai(iu): (1/pi) Re int_0^inf du / Ai(iu)^2."""
    t0 = time.perf_counter()
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10)
    U, tail = truncation(airy_ratio_tail_bound, spec.abs_tol / 2.0)
    res = integrate_interval(
        lambda u: np.exp(-2.0 * airy.log_ai_many(1j * u)).real / math.pi,
        0.0, U, spec, tail=tail)
    return CheckReport.build("airy_inverse_square_mass", 1.0, res.value.real,
                             _scaled(1e-8, profile), t0)


def check_wronskian_suite(n: int = 1000, radius: float = 20.0,
                          profile: float = 1.0) -> CheckReport:
    """Ai Bi' - Ai' Bi = 1/pi at pseudo-random complex points.

    The residual is normalized by the product scale max(1, |Ai Bi'|+|Ai' Bi|):
    in the exponentially dominant sectors the absolute residual necessarily
    carries the square of the value scale, which no fixed-precision
    evaluation can beat.
    """
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=0xC0FFEE))
    z = (rng.uniform(0.02, radius, n)
         * np.exp(1j * rng.uniform(-math.pi, math.pi, n)))
    ai, aip, bi, bip = scipy.special.airy(z)
    w = ai * bip - aip * bi
    scale = np.maximum(1.0, np.abs(ai * bip) + np.abs(aip * bi))
    resid = float((np.abs(w - 1.0 / math.pi) / scale).max())
    return CheckReport.build("airy_wronskian_1000pts", 0.0, resid,
                             _scaled(1e-11, profile), t0)


def check_connection_suite(n: int = 1000, profile: float = 1.0) -> CheckReport:
    """Ai(x) + e^{-2i pi/3} Ai(x e^{-2i pi/3}) + e^{2i pi/3} Ai(x e^{2i pi/3}) = 0
    on [-10, 10], residual normalized by the largest rotated value."""
    t0 = time.perf_counter()
    x = np.linspace(-10.0, 10.0, n)
    rm = np.exp(-2j * math.pi / 3.0)
    rp = np.exp(2j * math.pi / 3.0)
    a0 = scipy.special.airy(x.astype(complex))[0]
    am = scipy.special.airy(rm * x)[0]
    ap = scipy.special.airy(rp * x)[0]
    resid = np.abs(a0 + rm * am + rp * ap)
    scale = np.maximum(1.0, np.maximum(np.abs(am), np.abs(ap)))
    return CheckReport.build("airy_connection_formula", 0.0,
                             float((resid / scale).max()),
                             _scaled(1e-12, profile), t0)


def check_regime_continuity(profile: float = 1.0) -> CheckReport:
    """The asymptotic branch of ``log_ai_many`` agrees with AMOS's Ai
    (``scipy.special.airy``) just outside the switch radius, and ``ai_real``
    on both sides of x = -8, relative to the envelope |x|^{-1/4}."""
    t0 = time.perf_counter()
    worst = 0.0
    for ph in (0.0, 0.7, math.pi / 2.0, 2.2, math.pi):
        z = (airy.SWITCH_RADIUS + 1e-6) * np.exp(1j * ph)
        amos = scipy.special.airy(z)[0]
        asy = np.exp(airy.log_ai_many(z)[0])
        worst = max(worst, abs(amos - asy) / abs(amos))
    for x in (-airy.SWITCH_RADIUS - 1e-6, -airy.SWITCH_RADIUS + 1e-6):
        gap = abs(float(airy.ai_real(x)) - scipy.special.airy(x)[0])
        worst = max(worst, gap * abs(x) ** 0.25)
    return CheckReport.build("airy_regime_continuity", 0.0, worst,
                             _scaled(1e-10, profile), t0)


# ----------------------------------------------------------------------------
# Identity checks
# ----------------------------------------------------------------------------

_MASTER_S = (-1.5, -0.5, 0.0, 0.5, 1.5)
_MASTER_X = (-3.0, -2.0, -1.0, -0.5, -0.1)


def check_master_relation(grid: Iterable[tuple[float, float]] | None = None,
                          profile: float = 1.0) -> list[CheckReport]:
    """f(s,x) + g(s,x) = exp(-2sx - (2/3)s^3) pointwise (relative)."""
    pts = list(grid) if grid is not None else [
        (s, x) for s in _MASTER_S for x in _MASTER_X]
    out = []
    for s, x in pts:
        t0 = time.perf_counter()
        st = StartState(s, x)
        target = math.exp(-2.0 * s * x - (2.0 / 3.0) * s ** 3)
        f = target * dens.hitting_prob(st)
        g = math.exp(-2.0 * s * x) * dens.tilted_g(s, st.shift).value.real
        rel = abs(f + g - target) / target
        out.append(CheckReport.build(
            "master_relation_s%+.2f_x%+.2f" % (s, x), 0.0, rel,
            _scaled(1e-6, profile), t0))
    return out


def _pde_residual(F: Callable[[float, float], float], s: float, x: float,
                  h: float, memo: dict) -> float:
    """D_s F + (1/2) D^2_x F + 2 x F with 2-point central s and 5-point
    central x stencils."""

    def ev(ss, xx):
        key = (round(ss, 12), round(xx, 12))
        if key not in memo:
            memo[key] = F(ss, xx)
        return memo[key]

    ds = (ev(s + h, x) - ev(s - h, x)) / (2.0 * h)
    dxx = (-ev(s, x - 2 * h) + 16.0 * ev(s, x - h) - 30.0 * ev(s, x)
           + 16.0 * ev(s, x + h) - ev(s, x + 2 * h)) / (12.0 * h * h)
    return ds + 0.5 * dxx + 2.0 * x * ev(s, x)


def check_pde_residuals(point: tuple[float, float] = (0.3, -1.0),
                        steps: Sequence[float] = (0.02, 0.01, 0.005),
                        profile: float = 1.0) -> list[CheckReport]:
    """Both tilted functionals satisfy dF/ds = -(1/2) d2F/dx2 - 2xF.

    Reported values are observed convergence orders of the finite-difference
    residual (target 2); an order passes when |order - 2| <= 0.3 x profile.
    The tilt factor exp(-2sx-(2/3)s^3) satisfies the equation exactly and is
    checked in closed form.
    """
    s0, x0 = point
    if x0 + 2.0 * max(steps) >= 0.0:
        raise ValueError("point too close to the barrier for the stencil")
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11)

    def f_fun(s, x):
        return (math.exp(-2.0 * s * x - (2.0 / 3.0) * s ** 3)
                * dens.hitting_prob(StartState(s, x), spec))

    def g_fun(s, x):
        return dens.g_fun(StartState(s, x))

    out = []
    for name, F in (("f", f_fun), ("g", g_fun)):
        t0 = time.perf_counter()
        memo: dict = {}
        res = [abs(_pde_residual(F, s0, x0, h, memo)) for h in steps]
        orders = [math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
        out.append(CheckReport.build(
            "pde_residual_order_%s" % name, 2.0, sum(orders) / len(orders),
            _scaled(0.3, profile), t0))

    t0 = time.perf_counter()
    s, x = 0.7, -1.3
    tilt = math.exp(-2.0 * s * x - (2.0 / 3.0) * s ** 3)
    resid = abs((-2.0 * x - 2.0 * s * s) * tilt + 0.5 * (4.0 * s * s * tilt)
                + 2.0 * x * tilt)
    out.append(CheckReport.build("pde_tilt_identity", 0.0, resid,
                                 _scaled(1e-10, profile), t0))
    return out


def check_psi_phi(ts: Sequence[float] = (0.0, 0.5, 1.0),
                  profile: float = 1.0) -> list[CheckReport]:
    """psi(t) = phi(-t)/2 for t >= 0."""
    out = []
    for t in ts:
        t0 = time.perf_counter()
        lhs = dens.psi(t)
        rhs = 0.5 * dens.phi(-t)
        out.append(CheckReport.build("psi_phi_t%.2f" % t, rhs, lhs,
                                     _scaled(1e-5, profile), t0))
    return out


def check_laplace_roundtrip(lambdas: Sequence[float] = (0.5, 1.0, 2.0),
                            xs: Sequence[float] = (-0.5, -1.0),
                            profile: float = 1.0) -> list[CheckReport]:
    """int_0^inf e^{-lam u} h_x(u) du equals the defining Airy ratio."""
    out = []
    rate = 2.0 ** (1.0 / 3.0) * abs(float(airy.airy_zeros(1)[0]))  # ~2.946

    def roundtrip(lam, x):
        h = dens._h_kernel(-dens.FOUR13 * x)
        U = max(14.0, 40.0 / (lam + rate))
        return integrate_interval(
            lambda u: np.exp(-lam * u) * h(u)[0], 0.0, U,
            QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10),
            tail=2.0 * math.exp(-(lam + rate) * U)).value.real

    for lam in lambdas:
        for x in xs:
            t0 = time.perf_counter()
            out.append(CheckReport.build(
                "laplace_roundtrip_lam%.2f_x%+.2f" % (lam, x),
                airy.u_lambda(lam, x), roundtrip(lam, x),
                _scaled(1e-8, profile), t0))
    # lam = 0: plain mass of h equals Ai(-4^{1/3}x)/Ai(0); u_lambda needs lam > 0
    for x in xs:
        t0 = time.perf_counter()
        target = float(np.exp(airy.log_ai_diff(
            np.asarray([0j]), -dens.FOUR13 * x))[0].real)
        out.append(CheckReport.build("laplace_roundtrip_lam0_x%+.2f" % x,
                                     target, roundtrip(0.0, x),
                                     _scaled(1e-8, profile), t0))
    # lam -> infinity: killing dominates; at lam = 50 the x = -2 transform
    # value e^{-a sqrt(xi)} is already below 1e-6
    t0 = time.perf_counter()
    out.append(CheckReport.build("laplace_roundtrip_lam50_decay", 0.0,
                                 abs(roundtrip(50.0, -2.0)),
                                 _scaled(1e-6, profile), t0))
    return out


def check_survival_tilt_limit(ss: Sequence[float] = (-1.0, 0.0, 1.0, 2.0),
                     profile: float = 1.0) -> list[CheckReport]:
    """p(s) = exp(-(2/3) s^3) (relative) and the deep-barrier gap of the
    tilted survival functional."""
    out = []
    for s in ss:
        t0 = time.perf_counter()
        target = math.exp(-(2.0 / 3.0) * s ** 3)
        rel = abs(dens.tilted_g_limit(s) - target) / target
        out.append(CheckReport.build("survival_limit_s%+.1f" % s, 0.0, rel,
                                     _scaled(1e-6, profile), t0))
    t0 = time.perf_counter()
    s, x = 1.0, -8.0
    gap = abs(dens.tilted_g(s, -dens.FOUR13 * x).value.real
              - math.exp(-(2.0 / 3.0) * s ** 3))
    out.append(CheckReport.build("survival_limit_gap_x-8", 0.0, gap,
                                 _scaled(1e-4, profile), t0))
    return out


_SCORER_POINTS = ((0.5, 0.0), (-1.2 + 0.7j, 0.0), (1.5, 0.0), (1.0 + 0.5j, 0.4),
                  (-0.7 + 1.1j, -0.6), (1.2 - 0.8j, 1.0), (-2.0, 0.8),
                  (0.3 - 1.5j, -1.0))
_D2_STEP = 0.015
_D2_STENCIL = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0


def check_incomplete_scorer_ode(profile: float = 1.0) -> list[CheckReport]:
    """w(z) = incomplete_hi(z, s) solves w'' - z w = (1/pi) e^{sz - s^3/3},
    and its s = 0 case, Scorer's Hi = scorer_hi, solves Hi'' - z Hi = 1/pi.
    w'' from the 7-point sixth-order stencil at step 0.015 (about 3e-12 of
    truncation and rounding); residual relative to max(1, |z w|, |rhs|),
    worst over the points, one report for s = 0 and one for s != 0."""
    worst = {True: 0.0, False: 0.0}
    t0 = time.perf_counter()
    for z, s in _SCORER_POINTS:
        zs = z + _D2_STEP * np.arange(-3, 4)
        w = np.array([airy.scorer_hi(zk) if s == 0.0 else airy.incomplete_hi(zk, s)
                      for zk in zs])
        rhs = np.exp(s * z - s ** 3 / 3.0) / math.pi
        resid = abs(_D2_STENCIL @ w / _D2_STEP ** 2 - z * w[3] - rhs)
        worst[s == 0.0] = max(worst[s == 0.0],
                              resid / max(1.0, abs(z * w[3]), abs(rhs)))
    return [CheckReport.build(name, 0.0, worst[at_zero], _scaled(1e-9, profile), t0)
            for name, at_zero in (("scorer_hi_ode", True),
                                  ("incomplete_hi_ode", False))]


def check_chernoff_density(profile: float = 1.0) -> list[CheckReport]:
    """Symmetry of f_Z, its unit trapezoid mass on [-3, 3] at step 0.01, and
    its log-concavity (Balabdaoui & Wellner, Bernoulli 2014): the largest
    positive second difference of log f_Z on [-8, 8] at step 0.05 (0 if
    none), which must be 0; a zero or non-finite f_Z there reads inf.  And
    k's right tail by Laplace's method, k(t, 0)/(4t) = 1 + 1/(8t^3) - 1/(8t^6)
    + 175/(512t^9) - 395/(256t^12) ...: the worst |8t^3(k/(4t) - 1) - 1 +
    1/t^3 - 175/(64t^6)| on t = 6, 8, 10 (1.2e-6 at t = 6, the next term)."""
    out = []
    t0 = time.perf_counter()
    gap = abs(dens.chernoff_density(0.7) - dens.chernoff_density(-0.7))
    out.append(CheckReport.build("chernoff_symmetry", 0.0, gap,
                                 _scaled(1e-12, profile), t0))
    t0 = time.perf_counter()
    grid = np.arange(-300, 301) * 0.01
    mass = dens.tabulate("argmax", grid).trapezoid_mass()
    out.append(CheckReport.build("chernoff_unit_mass", 1.0, mass,
                                 _scaled(1e-5, profile), t0))
    t0 = time.perf_counter()
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 = np.diff(np.log(dens.chernoff_density(np.linspace(-8.0, 8.0, 321))), 2)
    worst = max(0.0, float(d2.max())) if np.all(np.isfinite(d2)) else math.inf
    out.append(CheckReport.build("chernoff_log_concavity", 0.0, worst,
                                 _scaled(0.0, profile), t0))
    t0 = time.perf_counter()
    ts = np.array([6.0, 8.0, 10.0])
    lead = 8.0 * ts ** 3 * (dens._k_rule(ts) / (4.0 * ts) - 1.0)
    worst = float(np.abs(lead - 1.0 + ts ** -3 - (175.0 / 64.0) * ts ** -6).max())
    out.append(CheckReport.build("k_barrier_asymptote", 0.0, worst,
                                 _scaled(1e-2, profile), t0))
    return out


def check_moment_relation(profile: float = 1.0) -> CheckReport:
    """E tau_M^2 = E M / 3 for the two-sided maximum and its location."""
    t0 = time.perf_counter()
    et2 = dens.argmax_second_moment()
    em3 = dens.max_mean_two_sided() / 3.0
    rel = abs(et2 - em3) / em3
    return CheckReport.build("moment_relation", 0.0, rel,
                             _scaled(1e-8, profile), t0)


# ----------------------------------------------------------------------------
# Monte Carlo concordance
# ----------------------------------------------------------------------------

MC_CHECKS = ("argmax", "hitting", "purebm")


def mc_concordance(cfg: mcsim.McConfig, checks: Sequence[str] = MC_CHECKS,
                   state: StartState = StartState(0.0, -1.0)
                   ) -> list[CheckReport]:
    """Monte Carlo against quadrature, one report per selected check:

    * ``argmax``: KS distance of the two-sided argmax sample to Chernoff's
      CDF, below ``1.63 / sqrt(n) + 0.003`` (the 1 % Kolmogorov quantile
      plus a fixed 0.003 allowance);
    * ``hitting``: the hitting frequency from ``state`` within 3 binomial
      standard errors (``tol`` = 3 se) of the quadrature probability;
    * ``purebm``: chi-square p-value >= 0.001 of the passage histogram of
      driftless BM from 1 (plus the censored cell) against its closed form,
      reported as abs_err = 1 - p-value against tol = 0.999.

    Every report passes iff abs_err <= tol.
    """
    reports = []
    for name in checks:
        t0 = time.perf_counter()
        if name == "argmax":
            sample = mcsim.simulate_two_sided(cfg)
            ks = mcsim.ks_statistic(sample.argmax, dens.chernoff_cdf)
            bound = 1.63 / math.sqrt(cfg.n_paths) + 0.003
            row = ("mc_argmax_ks", 0.0, ks, ks, bound, ks <= bound)
        elif name == "hitting":
            est = mcsim.estimate_hitting_prob(state, cfg)
            target = dens.hitting_prob(state)
            err = abs(est.probability - target)
            tol = 3.0 * est.std_error
            row = ("mc_hitting_prob_%g_%g" % (state.s, state.x), target,
                   est.probability, err, tol, err <= tol)
        elif name == "purebm":
            hist = mcsim.simulate_pure_bm_passage(1.0, cfg)
            cdf = dens.bm_first_passage_cdf(1.0, hist.edges)
            obs = np.concatenate([hist.counts, [hist.censored]]).astype(float)
            expc = hist.n_paths * np.concatenate([np.diff(cdf), [1.0 - cdf[-1]]])
            chi2 = float(((obs - expc) ** 2 / expc).sum())
            pval = float(scipy.special.gammaincc((obs.size - 1) / 2.0, chi2 / 2.0))
            row = ("mc_purebm_chi2_pvalue", 1.0, pval, 1.0 - pval, 0.999,
                   1.0 - pval <= 0.999)
        else:
            raise ValueError("unknown Monte Carlo check %r" % (name,))
        reports.append(CheckReport(*row[:5], bool(row[5]),
                                   int(1000 * (time.perf_counter() - t0))))
    return reports


# ----------------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------------

SUITES = {
    "airy": ("wronskian", "connection", "regime_continuity"),
    "identities": ("airy_inverse_square", "master_relation", "psi_phi",
                   "laplace_roundtrip", "survival_tilt_limit", "incomplete_scorer_ode",
                   "chernoff_density", "moment_relation"),
    "pde": ("pde_residuals",),
}

_CHECKS: dict[str, Callable[[float], object]] = {
    "airy_inverse_square": check_airy_inverse_square_mass,
    "wronskian": check_wronskian_suite,
    "connection": check_connection_suite,
    "regime_continuity": check_regime_continuity,
    "master_relation": check_master_relation,
    "pde_residuals": check_pde_residuals,
    "psi_phi": check_psi_phi,
    "laplace_roundtrip": check_laplace_roundtrip,
    "survival_tilt_limit": check_survival_tilt_limit,
    "incomplete_scorer_ode": check_incomplete_scorer_ode,
    "chernoff_density": check_chernoff_density,
    "moment_relation": check_moment_relation,
}


def run_all(profile: str | float = "default",
            suites: Sequence[str] = tuple(SUITES)) -> list[CheckReport]:
    """Run the selected suites; returns reports in declaration order.

    ``profile`` scales every tolerance: "default" = 1, "strict" = 1/100, or
    a positive float.  A budget failure inside a check becomes a failed
    report, never an exception.
    """
    if isinstance(profile, str):
        try:
            scale = {"default": 1.0, "strict": 0.01}[profile]
        except KeyError:
            raise ValueError("unknown tolerance profile %r" % (profile,))
    else:
        scale = float(profile)
        if scale <= 0.0:
            raise ValueError("tolerance profile must be positive")
    names: list[str] = []
    for s in suites:
        if s not in SUITES:
            raise ValueError("unknown suite %r" % (s,))
        names.extend(SUITES[s])
    if not names:
        raise ValueError("no checks selected")

    reports: list[CheckReport] = []
    for name in names:
        t0 = time.perf_counter()
        try:
            got = _CHECKS[name](profile=scale)
        except QuadratureBudgetError as exc:
            got = CheckReport(name, 0.0, float("nan"),
                              exc.result.err_estimate, 0.0, False,
                              int(1000 * (time.perf_counter() - t0)))
        reports.extend(got if isinstance(got, list) else [got])
    return reports


def to_ndjson(reports: Iterable[CheckReport]) -> str:
    """One JSON record per line: name, target, computed, abs_err, tol, passed."""
    return "\n".join(json.dumps(asdict(r), sort_keys=True) for r in reports) + "\n"


def summarize(reports: Sequence[CheckReport]) -> str:
    lines = []
    for r in reports:
        lines.append("%-38s %s  err=%.3e tol=%.3g  (%d ms)" % (
            r.name, "PASS" if r.passed else "FAIL", r.abs_err, r.tol,
            r.runtime_ms))
    n_bad = sum(not r.passed for r in reports)
    lines.append("%d checks, %d failed" % (len(reports), n_bad))
    return "\n".join(lines)
