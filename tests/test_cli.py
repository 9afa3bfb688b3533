"""CLI: verbs, flags, exit codes, CSV shape, reproducibility."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from chernoff import cli
from chernoff.quadrature import QuadratureBudgetError, QuadratureResult


def run_main(*argv):
    return cli.main(list(argv))


def run_proc(*argv, env=None):
    return subprocess.run([sys.executable, "-m", "chernoff.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_help_exits_zero_every_verb():
    for args in (["--help"], ["tabulate", "--help"], ["verify", "--help"],
                 ["simulate", "--help"], ["compare", "--help"]):
        r = run_proc(*args)
        assert r.returncode == 0
        assert "--" in r.stdout


def test_unknown_flag_is_usage_error():
    r = run_proc("tabulate", "--which", "phi", "--from", "0", "--to", "1",
                 "--step", "0.5", "--frobnicate")
    assert r.returncode == 2


def test_missing_required_flag_is_usage_error():
    assert run_proc("tabulate").returncode == 2


def test_tabulate_chernoff_rows_and_mass(tmp_path):
    out = tmp_path / "fz.csv"
    rc = run_main("tabulate", "--which", "chernoff", "--from", "-3",
                  "--to", "3", "--step", "0.01", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,f"
    assert len(lines) == 602  # header + 601 rows
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    mass = np.trapezoid(data[:, 1], data[:, 0])
    assert abs(mass - 1.0) < 1e-5
    assert out.read_text().endswith("\n")


def test_tabulate_phi_rows_positive(tmp_path):
    out = tmp_path / "phi.csv"
    assert run_main("tabulate", "--which", "phi", "--from", "-2", "--to", "2",
                    "--step", "0.5", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 10
    assert all(float(ln.split(",")[1]) > 0.0 for ln in lines[1:])


def test_tabulate_h_laplace_mass(tmp_path):
    from chernoff import airy
    out = tmp_path / "h.csv"
    assert run_main("tabulate", "--which", "h", "--x", "-1", "--from", "0.02",
                    "--to", "8.0", "--step", "0.02", "--out", str(out)) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    mass = np.trapezoid(data[:, 1], data[:, 0])
    target = float(np.exp(airy.log_ai_many(np.array([4.0 ** (1 / 3) + 0j]))
                          - airy.log_ai_many(np.array([0j])))[0].real)
    assert abs(mass - target) < 1e-3


def test_tabulate_h_at_subnormal_times(tmp_path):
    # a contour's scale ~ 1/t overflows here; h at x = -1 underflows to 0
    out = tmp_path / "h.csv"
    assert run_main("tabulate", "--which", "h", "--x", "-1", "--from", "1e-310",
                    "--to", "3e-310", "--step", "1e-310", "--out", str(out)) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (3, 2) and np.all(data[:, 1] == 0.0)


def test_tabulate_joint2_columns(tmp_path):
    out = tmp_path / "j2.csv"
    assert run_main("tabulate", "--which", "joint2", "--from", "-1", "--to", "1",
                    "--step", "0.5", "--a-from", "0.5", "--a-to", "1.5",
                    "--a-step", "0.5", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,a,f"
    assert len(lines) == 1 + 5 * 3


def test_tabulate_joint2_equals_the_joint_density_entry_by_entry(tmp_path):
    # one h grid over all (level, |t|) entries, each entry summed on its
    # own: the same bits as the density at one point, on both sides of the
    # contour/residue switch at |t| = 0.9
    from chernoff.densities import joint_density_two_sided

    out = tmp_path / "j2.csv"
    assert run_main("tabulate", "--which", "joint2", "--from", "-1.5", "--to", "1.5",
                    "--step", "0.125", "--a-from", "0.25", "--a-to", "2",
                    "--a-step", "0.25", "--out", str(out)) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (25 * 8, 3)
    for t, a, f in data:
        assert f == joint_density_two_sided(t, a)


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("tabulate", "--which", "firstpassage", "--s", "0", "--x", "-1",
            "--from", "0.1", "--to", "3.0", "--step", "0.1")
    assert run_main(*args, "--out", str(a)) == 0
    assert run_main(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_deterministic_and_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("simulate", "--what", "purebm", "--paths", "20000", "--dt", "2e-3",
            "--seed", "7", "--threads", "2")
    assert run_main(*args, "--out", str(a)) == 0
    assert run_main(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "value,count"


def test_simulate_argmax_samples(tmp_path):
    out = tmp_path / "s.csv"
    assert run_main("simulate", "--what", "argmax", "--paths", "2000",
                    "--dt", "4e-3", "--seed", "3", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "value" and len(lines) == 2001


def test_compare_hitting_ok():
    assert run_main("compare", "--target", "hitting", "--paths", "30000",
                    "--dt", "1e-3", "--seed", "2", "--threads", "2") == 0


def test_verify_identities_subprocess_deterministic():
    r1 = run_proc("verify", "--suite", "airy")
    r2 = run_proc("verify", "--suite", "airy")
    strip = lambda s: "\n".join(
        ln.split("(")[0] for ln in s.splitlines())  # drop runtime_ms column
    assert r1.returncode == 0
    assert strip(r1.stdout) == strip(r2.stdout)


def test_verify_report_file(tmp_path):
    out = tmp_path / "report.ndjson"
    rc = run_main("verify", "--suite", "airy", "--report", str(out))
    assert rc == 0
    recs = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert all(rec["passed"] for rec in recs)


def test_verify_mc_suite_small(tmp_path):
    out = tmp_path / "mc.ndjson"
    rc = run_main("verify", "--suite", "mc", "--paths", "20000", "--seed", "7",
                  "--threads", "2", "--report", str(out))
    recs = [json.loads(ln) for ln in out.read_text().splitlines()]
    names = {r["name"] for r in recs}
    assert names == {"mc_argmax_ks", "mc_hitting_prob_0_-1",
                     "mc_purebm_chi2_pvalue"}
    assert rc == (0 if all(r["passed"] for r in recs) else 1)


def test_verify_strict_failure_exit_code():
    # the exit code must mirror the strict-profile pass/fail outcome
    from chernoff import verify
    rc = run_main("verify", "--suite", "airy", "--strict")
    expected = 0 if all(r.passed for r in
                        verify.run_all("strict", ("airy",))) else 1
    assert rc == expected


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise QuadratureBudgetError(QuadratureResult(0.0, 1.0, 10))
    monkeypatch.setattr(cli.dens, "phi", boom)
    out = tmp_path / "x.csv"
    rc = run_main("tabulate", "--which", "phi", "--from", "0", "--to", "1",
                  "--step", "0.5", "--out", str(out))
    assert rc == 3
    assert not out.exists()  # no partial file left behind


@pytest.mark.parametrize("argv", [
    ("chernoff", "--from", "5", "--to", "6", "--step", "0.5"),
    ("max2", "--from", "5", "--to", "6", "--step", "0.5"),
    ("firstpassage", "--from", "5", "--to", "6", "--step", "0.5"),
    ("phi", "--from", "5", "--to", "6", "--step", "0.5"),
    ("h", "--from", "5", "--to", "6", "--step", "0.5"),
    ("joint2", "--from", "4.5", "--to", "5", "--step", "0.5",
     "--a-from", "0.5", "--a-to", "1", "--a-step", "0.5"),
])
def test_tabulate_values_nonnegative(tmp_path, argv):
    # phi(5.5) and the joint2 value at (5, 0.5) come out of their
    # quadratures a little below zero
    out = tmp_path / "t.csv"
    assert run_main("tabulate", "--which", *argv, "--out", str(out)) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert np.all(data[:, -1] >= 0.0)


def test_negative_density_beyond_rounding_is_numerical_failure(tmp_path,
                                                               monkeypatch):
    monkeypatch.setattr(cli.dens, "phi", lambda t: np.full(np.shape(t), -1e-6))
    out = tmp_path / "x.csv"
    rc = run_main("tabulate", "--which", "phi", "--from", "0", "--to", "1",
                  "--step", "0.5", "--out", str(out))
    assert rc == 3
    assert not out.exists()


def test_tabulate_chernoff_on_both_phi_routes(tmp_path):
    # phi(t) phi(-t) reads the residue series on one side and the k rule on
    # the other for |t| > 1, and the k rule on both sides within
    from oracles import phi_reference
    out = tmp_path / "wide.csv"
    assert run_main("tabulate", "--which", "chernoff", "--from", "-8", "--to", "8",
                    "--step", "0.01", "--out", str(out)) == 0
    t, f = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True)
    assert t.size == 1601 and t[0] == -8.0 and abs(t[-1] - 8.0) < 1e-12
    assert np.all(f >= 0.0)
    assert np.all(np.abs(f - f[::-1]) <= 1e-12)
    pick = np.searchsorted(t, [-6.0, -4.9, -4.8, -1.0, 0.0, 2.5, 4.8, 4.9, 6.0])
    want = 0.5 * phi_reference(t[pick]) * phi_reference(-t[pick])
    assert np.all(np.abs(f[pick] - np.maximum(want, 0.0)) < 1e-14)


def test_tabulate_chernoff_past_cached_phi_domain(tmp_path):
    from chernoff import densities
    out = tmp_path / "tail.csv"
    assert run_main("tabulate", "--which", "chernoff", "--from", "4",
                    "--to", "4.9", "--step", "0.1", "--out", str(out)) == 0
    t, f = out.read_text().splitlines()[-1].split(",")
    assert float(t) == pytest.approx(4.9, abs=1e-12)
    expected = 0.5 * densities.phi(4.9) * densities.phi(-4.9)
    assert float(f) == pytest.approx(expected, rel=1e-12)


def test_tabulate_max2_past_the_g0_model_domain(tmp_path):
    # the model covers a <= 10.5; past it the density is below 1e-20, and
    # an extrapolated model read 11.2 at a = 11 and 2.2e16 at a = 13
    out = tmp_path / "far.csv"
    assert run_main("tabulate", "--which", "max2", "--from", "10", "--to", "13",
                    "--step", "0.5", "--out", str(out)) == 0
    a, f = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True)
    assert a.size == 7
    assert np.all(np.isfinite(f)) and np.all(f >= 0.0) and np.all(f < 1e-15)


@pytest.mark.parametrize("which", ["h", "firstpassage"])
def test_tabulate_far_start_level_reads_zero(tmp_path, which):
    # the residue series reads Ai(zeros + shift) at shifts up to 4^{1/3} 70 + 2.3,
    # where Ai underflows; the density itself is below 1e-400 on this grid
    out = tmp_path / "far.csv"
    assert run_main("tabulate", "--which", which, "--x=-70", "--from", "0.5",
                    "--to", "2.5", "--step", "0.5", "--out", str(out)) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (5, 2) and np.all(data[:, 1] == 0.0)


@pytest.mark.parametrize("argv", [
    ("tabulate", "--which", "max2", "--from", "0", "--to", "1", "--step", "0.5"),
    ("tabulate", "--which", "firstpassage", "--x", "1", "--from", "0.1",
     "--to", "1", "--step", "0.1"),
    ("simulate", "--what", "argmax", "--paths", "0"),
    ("simulate", "--what", "argmax", "--tmax", "2"),
    ("compare", "--target", "hitting", "--x", "0"),
    ("compare", "--target", "hitting", "--dt", "1", "--tmax", "0.4"),  # no step
    ("tabulate", "--which", "joint2", "--from", "0", "--to", "1", "--step", "0.5",
     "--a-step", "0"),
    ("tabulate", "--which", "joint2", "--from", "0", "--to", "1", "--step", "0.5",
     "--a-step", "-0.1"),
    ("tabulate", "--which", "phi", "--from", "0", "--to", "1", "--step", "nan"),
    ("tabulate", "--which", "phi", "--from", "nan", "--to", "1", "--step", "0.5"),
    ("tabulate", "--which", "phi", "--from", "0", "--to", "inf", "--step", "0.5"),
    ("tabulate", "--which", "phi", "--from", "0", "--to", "1", "--step", "inf"),
    ("tabulate", "--which", "phi", "--from", "0", "--to", "1", "--step", "1e-300"),
    ("tabulate", "--which", "h", "--from", "0", "--to", "1", "--step", "0.5"),
    ("tabulate", "--which", "h", "--x", "0", "--from", "0.5", "--to", "1",
     "--step", "0.5"),
    ("tabulate", "--which", "firstpassage", "--s", "1", "--from", "0.5",
     "--to", "2", "--step", "0.5"),
    ("tabulate", "--which", "joint2", "--from", "0", "--to", "1", "--step", "0.5",
     "--a-from", "nan"),
    ("tabulate", "--which", "joint2", "--from", "0", "--to", "1", "--step", "0.5",
     "--a-to", "inf"),
    ("tabulate", "--which", "joint2", "--from", "0", "--to", "1", "--step", "0.5",
     "--a-step", "1e-300"),
    ("tabulate", "--which", "joint2", "--from", "0", "--to", "1", "--step", "0.5",
     "--a-from", "5", "--a-to", "1"),
    ("tabulate", "--which", "joint2", "--from", "0", "--to", "1", "--step", "0.5",
     "--a-from=-1", "--a-to", "1"),
    ("tabulate", "--which", "h", "--x=-1.5e308", "--from", "0.1", "--to", "0.3",
     "--step", "0.1"),
    ("tabulate", "--which", "firstpassage", "--x=-1.5e308", "--from", "0.1",
     "--to", "0.3", "--step", "0.1"),
    ("compare", "--target", "hitting", "--x=-1.5e308"),
    # --step wider than --to - --from: a grid of one point, for every table
    ("tabulate", "--which", "chernoff", "--from", "0", "--to", "0.5", "--step", "1"),
    ("tabulate", "--which", "max2", "--from", "0.5", "--to", "1", "--step", "1"),
    ("tabulate", "--which", "firstpassage", "--from", "0.5", "--to", "1",
     "--step", "1"),
    ("tabulate", "--which", "phi", "--from", "0", "--to", "0.5", "--step", "1"),
    ("tabulate", "--which", "h", "--from", "0.5", "--to", "1", "--step", "1"),
    ("tabulate", "--which", "joint2", "--from", "0", "--to", "0.5", "--step", "1"),
    ("tabulate", "--which", "joint2", "--from", "0", "--to", "1", "--step", "0.5",
     "--a-from", "0.5", "--a-to", "1", "--a-step", "1"),
    # a non-finite horizon, like a non-finite --dt
    ("simulate", "--what", "argmax", "--paths", "100", "--tmax", "inf"),
    ("simulate", "--what", "purebm", "--paths", "100", "--z", "inf"),
    # bins that are empty, reach below the start level 0 or are not numbers
    ("compare", "--target", "max", "--paths", "100", "--bin-width", "0.5"),
    ("compare", "--target", "max", "--paths", "100", "--bin-width", "nan"),
    ("compare", "--target", "max", "--paths", "100", "--bin-width=-0.1"),
    ("compare", "--target", "max", "--paths", "100", "--bin-width", "0"),
])
def test_domain_errors_are_one_line_usage_errors(argv):
    r = run_proc(*argv)
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")


@pytest.mark.parametrize("value", ["abc", "0"])
@pytest.mark.parametrize("argv", [("verify", "--suite", "mc", "--paths", "10"),
                                  ("simulate", "--what", "purebm", "--paths", "10")])
def test_invalid_thread_count_from_the_environment_is_a_usage_error(argv, value):
    # "abc" fails argparse's int conversion of the default, "0" McConfig's
    # validation, as --threads abc and --threads 0 do
    r = run_proc(*argv, env={**os.environ, "CHERNOFF_THREADS": value})
    assert r.returncode == 2 and "Traceback" not in r.stderr
    assert "--threads" in r.stderr or "threads must be >= 1" in r.stderr


@given(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3), st.integers(0, 1000),
       st.floats(0.0, 1.0, exclude_max=True))
def test_grid_starts_at_from_steps_evenly_and_ends_at_to(lo, step, n, frac):
    # --to lies n + frac steps past --from, so the grid has at most n + 2 points
    hi = lo + (n + frac) * step
    assume(hi > lo)
    try:
        g = cli._grid(argparse.Namespace(**{"from": lo, "to": hi, "step": step}))
    except cli._UsageError:
        assert n == 0  # only a grid of one point is refused
        return
    tol = 8.0 * np.finfo(float).eps * (abs(lo) + abs(hi) + step)
    assert g[0] == lo and g.size <= n + 2
    assert np.all(np.abs(np.diff(g) - step) <= tol)
    assert hi - step - tol <= g[-1] <= hi + 1e-12 * max(1.0, abs(hi))


# Flag values for the property test below.  Every grid they can form has
# either at most 11 points or more than 1e299, so a valid run stays small and
# a too-fine step is refused before anything is allocated.
_FLAG_VALUES = [-1.0, 0.0, 0.5, 1.0, 2.5, 1e-300, -1e-300, 1e308, -1e308,
                -1.5e308, math.nan, math.inf, -math.inf]
_VALID_FLAGS = {
    "h": {"from": 0.5, "to": 2.5, "step": 0.5, "x": -1.0},
    "joint2": {"from": -1.0, "to": 1.0, "step": 0.5,
               "a-from": 0.5, "a-to": 2.5, "a-step": 0.5},
}


def _grid_start(lo, hi, step):
    """The first grid point, or None where the README's grid rule refuses
    the flags (non-finite, step <= 0, --to <= --from, fewer than two or too
    many points)."""
    if not (all(map(math.isfinite, (lo, hi, step))) and step > 0 and hi > lo):
        return None
    return lo if 1.0 <= (hi - lo) / step < 1e6 else None


def _breaks_a_rule(which, flags):
    start = _grid_start(flags["from"], flags["to"], flags["step"])
    if which == "h":
        x = flags["x"]
        return (start is None or not start > 0.0 or not x < 0.0
                or not math.isfinite(4.0 ** (1.0 / 3.0) * x))
    a_start = _grid_start(flags["a-from"], flags["a-to"], flags["a-step"])
    return start is None or a_start is None or not a_start > 0.0


@settings(max_examples=30)
@given(st.sampled_from(sorted(_VALID_FLAGS)),
       st.dictionaries(st.sampled_from(["from", "to", "step", "a-from", "a-to",
                                        "a-step", "x"]),
                       st.sampled_from(_FLAG_VALUES), max_size=3))
def test_tabulate_flags_exit_2_exactly_when_a_rule_is_broken(which, override):
    flags = {**_VALID_FLAGS[which], **override}
    argv = ["tabulate", "--which", which] + ["--%s=%r" % kv for kv in flags.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if _breaks_a_rule(which, flags):
        lines = err.getvalue().splitlines()
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("usage error: ")
    else:
        assert rc in (0, 3)
