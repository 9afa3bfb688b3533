"""Each output check rejects a perturbed output, and the Monte Carlo outputs
of one seed do not depend on the thread count.

    python3 -m pytest bench/tests -q

The ``tables`` round builds the g(0, .) model first (about 25 s).
"""

import dataclasses

import numpy as np
import pytest

import checks as C
import tracing
from workloads import WORKLOADS, McOracle, PassageQuadrature, Tables, rounds_identical


def _failed(checks):
    return {c.name for c in checks if not c.ok}


def _perturbed(wl, r, key, change):
    """Check a copy of round ``r`` with ``outputs[key]`` replaced."""
    out = dict(r.outputs)
    out[key] = change(out[key])
    r2 = type(r)()
    r2.outputs = out
    return _failed(wl.check(r2))


def _scale_column(factor, rows=slice(None), shift=0.0):
    """Rewrite a CSV table with its last column scaled and shifted on ``rows``."""
    def change(text):
        lines = text.decode().splitlines()
        body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        body[rows, -1] = body[rows, -1] * factor + shift
        return ("\n".join([lines[0]] + [",".join("%.17g" % v for v in row)
                                        for row in body]) + "\n").encode()
    return change


@pytest.fixture(scope="module")
def tables(mods, tmp_path_factory):
    wl = Tables(1, mods, str(tmp_path_factory.mktemp("tables")))
    wl.setup()
    return wl, wl.round()


@pytest.fixture(scope="module")
def passage(mods):
    wl = PassageQuadrature(1, mods, "")
    wl.states = wl.states[::3]           # two start states keep this quick
    return wl, wl.round()


@pytest.fixture(scope="module")
def mc(mods):
    wl = McOracle(1, mods, "")
    wl.cfg = dataclasses.replace(wl.cfg, n_paths=4096)
    wl.N_PATHS = 4096
    return wl, wl.round()


def test_tables_round_passes_and_counts_the_known_failure(tables):
    wl, r = tables
    assert _failed(wl.check(r)) == set()
    assert (r.attempted, r.failed) == (9, 1)
    assert "past48.csv" in r.errors[0]


CMD = {name: cmd for cmd in Tables.COMMANDS for name in [cmd.split()[-1]]}


@pytest.mark.parametrize("table, change, check", [
    ("fz.csv", _scale_column(1.001), "fz.csv unit mass"),
    ("fz.csv", _scale_column(1.001, slice(0, 300)), "fz.csv symmetric"),
    ("fz.csv", _scale_column(0.0, slice(0, 1), -1e-9), "fz.csv nonnegative"),
    ("phi.csv", _scale_column(1.0 + 1e-6, slice(4, 5)), "phi.csv phi(0) reference"),
    ("fp.csv", _scale_column(1.01), "fp.csv mass = 1 - survival(0,-1)"),
    ("max2.csv", _scale_column(1.001), "max2.csv mass on [0.05,2] = g^2 differences"),
    ("max2.csv", _scale_column(1.01, slice(40, None)), "E tau^2 = E M / 3"),
    ("joint2.csv", _scale_column(1.0 + 1e-5), "joint2.csv (1,1) product form"),
    ("joint2.csv", _scale_column(1.001, slice(0, 10)), "joint2.csv symmetric a=1.0"),
])
def test_tables_checks_reject_perturbed_tables(tables, table, change, check):
    wl, r = tables
    assert check in _perturbed(wl, r, CMD[table], change)


def test_tables_psi_check_rejects_perturbed_psi(tables):
    wl, r = tables
    key = [k for k in r.outputs if k.startswith("psi(")][0]
    assert "%s = phi(-t)/2" % key in _perturbed(wl, r, key, lambda v: v + 1e-6)


def test_passage_checks_reject_perturbed_outputs(passage):
    wl, r = passage
    assert _failed(wl.check(r)) == set()
    st = wl.states[0]
    key = (st.s, st.x)
    assert ("hitting + survival = 1 at %r" % (key,)
            in _perturbed(wl, r, "hitting%r" % (key,), lambda v: v + 1e-7))
    s = wl.limit_s[0]
    assert ("p(%r) = exp(-2s^3/3)" % s
            in _perturbed(wl, r, "p(%r)" % s, lambda v: v * (1 + 1e-7)))
    for t in wl.phi_t:
        assert ("phi(%r) reference" % t
                in _perturbed(wl, r, "phi(%r)" % t, lambda v: v + 1e-8))


def test_mc_checks_reject_perturbed_outputs(mc):
    wl, r = mc
    assert _failed(wl.check(r)) == set()
    assert "argmax KS to chernoff_cdf" in _perturbed(
        wl, r, "ks", lambda v: v + 0.05)
    assert "ks_statistic against scipy.stats.kstest" in _perturbed(
        wl, r, "argmax", lambda v: v + 0.1)
    se = np.sqrt(0.15 * 0.85 * wl.N_PATHS)
    assert "hitting at (0.0, -1.0)" in _perturbed(
        wl, r, "hits", lambda v: int(v + 7 * se))
    assert "pure-BM passage from z=1" in _perturbed(
        wl, r, "purebm_counts", lambda v: np.roll(v, 1))


def test_ks_check_rejects_a_shifted_sample(mc):
    wl, r = mc
    d = wl.m["densities"]
    ks = wl.m["mcsim"].ks_statistic(r.outputs["argmax"] + 0.1, d.chernoff_cdf)
    assert not C.mc_ks("shifted", ks, wl.N_PATHS).ok


def test_monotone_and_nonnegative_reject():
    assert not C.monotone("m", [0.0, 0.5, 0.4, 1.0], 1e-12).ok
    assert C.monotone("m", [0.0, 0.5, 0.5, 1.0], 1e-12).ok
    assert not C.nonnegative("n", [1.0, -1e-9], 1e-10).ok


@pytest.mark.parametrize("seed", [1, 2])
def test_mc_outputs_identical_at_one_and_two_threads(mods, seed):
    mc = mods["mcsim"]
    wl = McOracle(seed, mods, "")
    outs = []
    for threads in (1, 2):
        # four chunks, so two threads split the work
        wl.cfg = mc.McConfig(n_paths=2048, dt=5e-4, t_max=4.0, seed=seed,
                             chunk_paths=512, threads=threads)
        outs.append(wl.round())
    assert rounds_identical(*outs)


def test_missing_boundary_is_reported_not_fatal(mods):
    class Stub:
        pass
    fake = dict(mods, cli=Stub())
    tr = tracing.Tracer(fake)
    tr.install()
    try:
        assert tr.missing == ["cli.main"]
    finally:
        tr.uninstall()
    vals = tracing.layer_metrics(tr.layer_totals("pass"), 1.0, 0.0, 0.0)
    assert vals["cli.calls"] == 0.0


def test_self_time_and_outermost_airy_counting():
    import time
    import types
    airy = types.ModuleType("airy")

    def log_ai_many(z):
        time.sleep(0.02)
        return np.asarray(z)

    def log_ai_diff(z, shift):
        return log_ai_many(np.asarray(z) + shift) - log_ai_many(z)

    airy.log_ai_many, airy.log_ai_diff = log_ai_many, log_ai_diff
    airy.airy_many = log_ai_many
    dens = types.ModuleType("densities")

    def tilted_g(s, width):
        time.sleep(0.03)
        return airy.log_ai_diff(20.0 + 0.1 * np.arange(3.0)[:, None],
                              np.arange(4.0) + 0.5)

    dens.tilted_g = tilted_g
    tr = tracing.Tracer({"airy": airy, "densities": dens})
    tr.install()
    try:
        tr.phase = "pass"
        dens.tilted_g(0.0, 1.0)
    finally:
        tr.uninstall()
    vals = tracing.layer_metrics(tr.layer_totals("pass"), 1.0, 0.0, 0.0)
    assert vals["airy.calls"] == 1 and vals["g.calls"] == 1
    assert vals["airy.points"] == 24                # z and z + shift, 12 each
    assert vals["airy.distinct_ratio"] == 15 / 24   # 3 distinct z, 12 z + shift
    assert vals["airy.points_series"] == 0          # |z| >= 8 throughout
    assert 0.03 <= vals["g.self_s"] < 0.04 + 0.015
    assert 0.04 <= vals["airy.self_s"]
    assert len(tr.missing) > 0                      # the other modules


def test_benchmark_json_lists_the_metrics_the_runs_print():
    import json
    import os
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
