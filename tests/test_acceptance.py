"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.

The Monte Carlo criterion runs at full scale (1e6 paths, dt = 5e-4, fixed
seed), so this module takes several minutes; everything else is seconds.
"""

import math
import time

import numpy as np
from scipy.special import gammaincc

from chernoff import densities as dens
from chernoff import mcsim, verify
from chernoff.densities import StartState
from chernoff.mcsim import McConfig


def _report(num: int, label: str, ok: bool, detail: str, t0: float,
            budget_s: float):
    elapsed = time.perf_counter() - t0
    line = "ACCEPTANCE %02d %-24s %s  %s  [%.1f s / budget %.0f s]" % (
        num, label, "PASS" if ok else "FAIL", detail, elapsed, budget_s)
    print(line)
    assert ok, line
    assert elapsed < budget_s, line


def test_criterion_01_airy_inverse_square_mass():
    t0 = time.perf_counter()
    rep = verify.check_airy_inverse_square_mass()
    _report(1, "airy_inverse_square", rep.abs_err < 1e-8,
            "err=%.2e tol=1e-8" % rep.abs_err, t0, 1.0)


def test_criterion_02_wronskian_connection_suites():
    t0 = time.perf_counter()
    w = verify.check_wronskian_suite(n=1000)
    c = verify.check_connection_suite(n=1000)
    ok = w.computed < 1e-11 and c.computed < 1e-12
    _report(2, "airy_suites", ok,
            "wronskian=%.2e connection=%.2e" % (w.computed, c.computed),
            t0, 5.0)


def test_criterion_03_laplace_roundtrip():
    t0 = time.perf_counter()
    reports = verify.check_laplace_roundtrip(lambdas=(0.5, 1.0, 2.0),
                                             xs=(-0.5, -1.0))
    body = [r for r in reports if "lam50" not in r.name and "lam0_" not in r.name]
    assert len(body) == 6
    worst = max(r.abs_err for r in body)
    _report(3, "laplace_roundtrip", worst < 1e-8,
            "worst=%.2e over 6 pairs" % worst, t0, 30.0)


def test_criterion_04_master_relation_grid():
    t0 = time.perf_counter()
    reports = verify.check_master_relation()
    assert len(reports) == 25
    worst = max(r.abs_err for r in reports)  # relative residuals
    _report(4, "master_relation", worst < 1e-6,
            "worst rel=%.2e over 5x5 grid" % worst, t0, 120.0)


def test_criterion_05_pde_residual_orders():
    t0 = time.perf_counter()
    reports = {r.name: r for r in verify.check_pde_residuals(point=(0.3, -1.0))}
    of = reports["pde_residual_order_f"].computed
    og = reports["pde_residual_order_g"].computed
    ok = 1.7 <= of <= 2.3 and 1.7 <= og <= 2.3
    _report(5, "pde_orders", ok, "order_f=%.3f order_g=%.3f" % (of, og),
            t0, 60.0)


def test_criterion_06_survival_tilt_limit():
    t0 = time.perf_counter()
    reports = verify.check_survival_tilt_limit(ss=(-1.0, 0.0, 1.0, 2.0))
    ps = [r for r in reports if r.name.startswith("survival_limit_s")]
    gap = [r for r in reports if "gap" in r.name][0]
    worst = max(r.abs_err for r in ps)
    ok = worst < 1e-6 and gap.abs_err < 1e-4
    _report(6, "survival_tilt_limit", ok,
            "worst p rel=%.2e gap=%.2e" % (worst, gap.abs_err), t0, 60.0)


def test_criterion_07_psi_phi():
    t0 = time.perf_counter()
    worst = max(abs(dens.psi(t) - 0.5 * dens.phi(-t)) for t in (0.0, 0.5, 1.0))
    _report(7, "psi_phi", worst < 1e-5, "worst=%.2e at t in {0,.5,1}" % worst,
            t0, 120.0)


def test_criterion_08_chernoff_density():
    t0 = time.perf_counter()
    sym = abs(dens.chernoff_density(0.7) - dens.chernoff_density(-0.7))
    grid = np.arange(-300, 301) * 0.01
    mass = float(np.trapezoid(dens.tabulate("chernoff", grid), grid))
    ok = sym < 1e-12 and abs(mass - 1.0) < 1e-5
    _report(8, "chernoff_density", ok,
            "symmetry=%.1e mass_err=%.2e" % (sym, abs(mass - 1.0)), t0, 60.0)


def test_criterion_09_moment_relation():
    t0 = time.perf_counter()
    et2 = dens.argmax_second_moment()
    em3 = dens.max_mean_two_sided() / 3.0
    rel = abs(et2 - em3) / em3
    _report(9, "moment_relation", rel < 1e-4,
            "Etau2=%.8f EM/3=%.8f rel=%.2e" % (et2, em3, rel), t0, 120.0)


def test_criterion_10_monte_carlo_concordance():
    t0 = time.perf_counter()
    n = 1_000_000
    cfg = McConfig(n_paths=n, dt=5e-4, t_max=4.0, seed=1, threads=2)

    sample = mcsim.simulate_two_sided(cfg)
    ks = mcsim.ks_statistic(sample.argmax, dens.chernoff_cdf)
    ks_bound = 1.63 / math.sqrt(n) + 0.003
    ks_ok = ks < ks_bound
    # argmax histogram around the origin reproduces f_Z(0) within 3 sigma
    width = 0.05
    p_hat = float(np.mean(np.abs(sample.argmax) < width / 2.0))
    p_exp = float(np.diff(dens.chernoff_cdf(np.asarray([-width / 2, width / 2])))[0])
    se0 = math.sqrt(p_exp * (1.0 - p_exp) / n)
    fz0_ok = abs(p_hat - p_exp) < 3.0 * se0
    del sample

    st = StartState(0.0, -1.0)
    est = mcsim.estimate_hitting_prob(st, cfg)
    target = dens.hitting_prob(st)
    hit_ok = abs(est.probability - target) < 3.0 * est.std_error

    hist = mcsim.simulate_pure_bm_passage(1.0, cfg)
    masses = np.diff(dens.bm_first_passage_cdf(1.0, hist.edges))
    tail = 1.0 - float(dens.bm_first_passage_cdf(1.0, np.asarray([5.0]))[0])
    obs = np.concatenate([hist.counts, [hist.censored]]).astype(float)
    expc = hist.n_paths * np.concatenate([masses, [tail]])
    chi2 = float(((obs - expc) ** 2 / expc).sum())
    pval = float(gammaincc((obs.size - 1) / 2.0, chi2 / 2.0))
    chi_ok = pval > 0.001

    ok = ks_ok and hit_ok and chi_ok and fz0_ok
    _report(10, "monte_carlo", ok,
            "KS=%.5f<%.5f hit|z|=%.2f chi2_p=%.4f fz0|z|=%.2f" % (
                ks, ks_bound, abs(est.probability - target) / est.std_error,
                pval, abs(p_hat - p_exp) / se0), t0, 600.0)
