"""Verification harness: reports, profiles, reproducibility."""

import json
import math

import numpy as np
import pytest

from chernoff import airy, verify
from chernoff import densities as dens
from chernoff.quadrature import QuadratureSpec, airy_ratio_tail_bound
from chernoff.verify import CheckReport, run_all, summarize, to_ndjson

from oracles import integrate_full_line


def _payload(r: CheckReport):
    # everything except wall-clock runtime
    return (r.name, r.target, r.computed, r.abs_err, r.tol, r.passed)


def test_airy_suite_passes_and_reproduces():
    a = run_all(suites=("airy",))
    b = run_all(suites=("airy",))
    assert all(r.passed for r in a)
    assert [_payload(r) for r in a] == [_payload(r) for r in b]


def test_report_invariant_passed_iff_within_tol():
    for r in run_all(suites=("airy",)):
        assert r.passed == (r.abs_err <= r.tol)
        assert r.runtime_ms >= 0


def test_unit_mass_check_and_tolerance_monotonicity():
    r = verify.check_airy_inverse_square_mass()
    assert r.passed and r.abs_err < 1e-8
    # looser tolerance keeps passing
    r6 = verify.check_airy_inverse_square_mass(profile=100.0)
    assert r6.passed and r6.tol == pytest.approx(1e-6)


def test_folded_unit_mass_check_halves_the_full_line_work(monkeypatch):
    # the check integrates 2 Re over u > 0 of the Hermitian 1/(2pi Ai(iu)^2);
    # the full line at the same spec is the reference
    log_ai = airy.log_ai_many
    points = []
    monkeypatch.setattr(airy, "log_ai_many",
                        lambda z: points.append(np.size(z)) or log_ai(z))
    r = verify.check_airy_inverse_square_mass()
    full = integrate_full_line(
        lambda u: np.exp(-2.0 * log_ai(1j * u)) / (2.0 * math.pi),
        airy_ratio_tail_bound, QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10))
    assert sum(points) <= 0.55 * full.evaluations
    assert abs(r.computed - 1.0) <= 1e-13


def test_psi_phi_and_laplace_names_present():
    reports = run_all(suites=("identities",))
    names = {r.name for r in reports}
    assert "airy_inverse_square_mass" in names
    assert any(n.startswith("master_relation") for n in names)
    assert any(n.startswith("psi_phi") for n in names)
    assert any(n.startswith("laplace_roundtrip") for n in names)
    assert any(n.startswith("survival_limit") for n in names)
    assert "moment_relation" in names
    assert all(r.passed for r in reports), summarize(reports)


def test_log_concavity_check_passes_and_catches_tail_defects(monkeypatch):
    def log_concavity():
        reports = verify.check_chernoff_density(profile=0.01)
        return next(r for r in reports if r.name == "chernoff_log_concavity")

    r = log_concavity()
    assert r.passed and r.computed == 0.0 and r.tol == 0.0
    f_z = dens.chernoff_density
    # a 20 % step up past t = 3.85, against a curvature of about -0.04 per
    # step there, and a tail that underflows to 0
    monkeypatch.setattr(dens, "chernoff_density",
                        lambda t: f_z(t) * (1.0 + 0.2 * (np.asarray(t) > 3.85)))
    r = log_concavity()
    assert not r.passed and 0.1 < r.computed < math.log(1.2)
    monkeypatch.setattr(dens, "chernoff_density",
                        lambda t: np.where(np.abs(t) < 7.0, f_z(t), 0.0))
    r = log_concavity()
    assert not r.passed and r.computed == math.inf


def test_pde_suite_orders():
    reports = run_all(suites=("pde",))
    by_name = {r.name: r for r in reports}
    for key in ("pde_residual_order_f", "pde_residual_order_g"):
        assert 1.7 <= by_name[key].computed <= 2.3
        assert by_name[key].passed
    assert by_name["pde_tilt_identity"].abs_err < 1e-10


@pytest.mark.parametrize("profile", [1.0, 0.01, 0.001])
def test_pde_order_passes_iff_within_reported_tol(profile):
    # the orders read 2.0026 (f) and 2.0003 (g): inside the default and
    # strict windows, outside the 3e-4 window of profile 0.001
    reports = {r.name: r for r in verify.check_pde_residuals(profile=profile)}
    for key in ("pde_residual_order_f", "pde_residual_order_g"):
        r = reports[key]
        assert r.tol == pytest.approx(0.3 * profile)
        assert r.passed == (r.abs_err <= r.tol)


def test_empty_selection_rejected():
    with pytest.raises(ValueError, match="no checks selected"):
        run_all(suites=())
    with pytest.raises(ValueError):
        run_all(suites=("bogus",))
    with pytest.raises(ValueError):
        run_all(profile="nonsense", suites=("airy",))
    with pytest.raises(ValueError):
        run_all(profile=-1.0, suites=("airy",))


def test_strict_profile_honest_failures():
    reports = run_all(profile="strict", suites=("airy",))
    # tolerances scaled down 100x; failures (if any) must be flagged, and the
    # wronskian headroom is wide enough to survive
    for r in reports:
        assert r.passed == (r.abs_err <= r.tol)
    assert {r.name: r for r in reports}["airy_wronskian_1000pts"].passed


def test_ndjson_round_trip():
    reports = run_all(suites=("airy",))
    text = to_ndjson(reports)
    assert text.endswith("\n")
    lines = text.strip().split("\n")
    assert len(lines) == len(reports)
    rec = json.loads(lines[0])
    assert set(rec) == {"name", "target", "computed", "abs_err", "tol",
                        "passed", "runtime_ms"}


def test_summary_counts_failures():
    reports = [CheckReport("a", 0.0, 0.0, 0.0, 1.0, True, 1),
               CheckReport("b", 0.0, 1.0, 1.0, 0.5, False, 1),
               CheckReport("c", 0.2, 0.8, 0.8, 0.999, True, 1)]
    text = summarize(reports)
    assert "3 checks, 1 failed" in text
    assert "FAIL" in text and "PASS" in text
    assert "tol=0.999 " in text.splitlines()[2]


def test_mc_concordance_selects_checks_and_states():
    from chernoff.densities import StartState
    from chernoff.mcsim import McConfig
    cfg = McConfig(n_paths=4000, dt=4e-3, seed=1)
    [rep] = verify.mc_concordance(cfg, ("hitting",), StartState(0.0, -0.5))
    assert rep.name == "mc_hitting_prob_0_-0.5"
    assert rep.passed == (rep.abs_err <= rep.tol)
    assert 0.0 < rep.computed < 1.0
    with pytest.raises(ValueError):
        verify.mc_concordance(cfg, ("nope",))


def test_mc_concordance_reports_pass_iff_within_tol():
    from chernoff.mcsim import McConfig
    cfg = McConfig(n_paths=4000, dt=4e-3, seed=1)
    reports = verify.mc_concordance(cfg)
    assert [r.name[:9] for r in reports] == ["mc_argmax", "mc_hittin", "mc_purebm"]
    for r in reports:
        assert r.passed == (r.abs_err <= r.tol)
    purebm = reports[-1]
    assert purebm.abs_err == 1.0 - purebm.computed and purebm.tol == 0.999


def test_incomplete_scorer_ode_check_passes_strict_and_rejects_a_perturbation(
        monkeypatch):
    assert "incomplete_scorer_ode" in verify.SUITES["identities"]
    reports = verify.check_incomplete_scorer_ode(profile=0.01)
    assert [r.name for r in reports] == ["scorer_hi_ode", "incomplete_hi_ode"]
    assert all(r.passed and r.abs_err <= 0.5 * r.tol for r in reports)
    # a wrong normalization by one part in a million breaks both equations
    hi, inc = verify.airy.scorer_hi, verify.airy.incomplete_hi
    monkeypatch.setattr(verify.airy, "scorer_hi", lambda z: hi(z) * (1.0 + 1e-6))
    monkeypatch.setattr(verify.airy, "incomplete_hi",
                        lambda z, s: inc(z, s) * (1.0 + 1e-6))
    assert not any(r.passed for r in verify.check_incomplete_scorer_ode())


def test_regime_continuity_covers_the_real_axis_switch(monkeypatch):
    assert verify.check_regime_continuity(profile=0.01).passed
    ai_real = airy.ai_real
    monkeypatch.setattr(airy, "ai_real",
                        lambda x: np.where(np.asarray(x) < -airy.SWITCH_RADIUS,
                                           ai_real(x) * (1.0 + 1e-8), ai_real(x)))
    assert not verify.check_regime_continuity().passed


def test_k_barrier_asymptote_passes_strict_and_rejects_a_scaled_k(monkeypatch):
    def asymptote(profile=1.0):
        reports = verify.check_chernoff_density(profile=profile)
        return next(r for r in reports if r.name == "k_barrier_asymptote")

    r = asymptote(0.01)
    assert r.passed and r.tol == pytest.approx(1e-4) and r.computed < 2e-6
    k_rule = dens._k_rule
    monkeypatch.setattr(dens, "_k_rule", lambda t: k_rule(t) * (1.0 + 1e-5))
    assert not asymptote().passed


def test_moment_relation_catches_a_1e_7_error_in_the_max_mean(monkeypatch):
    # E tau_M^2 = E M / 3 holds to about 3e-12; the check's 1e-8 catches
    # a relative error of 1e-7 in either side
    assert verify.check_moment_relation().passed
    mean = dens.max_mean_two_sided
    monkeypatch.setattr(dens, "max_mean_two_sided", lambda: mean() * (1.0 + 1e-7))
    assert not verify.check_moment_relation().passed
