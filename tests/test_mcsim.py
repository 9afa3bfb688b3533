"""Monte Carlo oracle: determinism, small-sample statistics, bridge
corrections.  Acceptance-scale runs live in test_acceptance."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfc, gammaincc
from scipy.stats import ks_2samp, kstest

from chernoff import densities as dens
from chernoff import mcsim
from chernoff.densities import StartState
from chernoff.mcsim import McConfig, PathFunctionals, estimate_hitting_prob

from oracles import two_sided_per_side


CFG = McConfig(n_paths=20000, dt=2e-3, t_max=4.0, seed=11, threads=2)
# the benchmark's Monte Carlo configuration: one chunk on one thread
BENCH_CFG = McConfig(n_paths=8192, dt=5e-4, t_max=4.0, seed=9101, threads=1)


@pytest.fixture(scope="module")
def two_sided():
    return mcsim.simulate_two_sided(CFG)


def test_determinism_across_thread_counts(two_sided):
    again = mcsim.simulate_two_sided(
        McConfig(n_paths=20000, dt=2e-3, t_max=4.0, seed=11, threads=1))
    assert np.array_equal(two_sided.max, again.max)
    assert np.array_equal(two_sided.argmax, again.argmax)


def test_seed_changes_output(two_sided):
    other = mcsim.simulate_two_sided(
        McConfig(n_paths=20000, dt=2e-3, t_max=4.0, seed=12, threads=2))
    assert not np.array_equal(two_sided.max, other.max)


def test_argmax_mean_near_zero(two_sided):
    n = len(two_sided)
    sd = two_sided.argmax.std()
    assert abs(two_sided.argmax.mean()) < 4.0 * sd / math.sqrt(n)


def test_path_functionals_invariants(two_sided):
    assert np.all(two_sided.max >= 0.0)  # value at time 0 is 0
    assert np.all(np.abs(two_sided.argmax) <= CFG.t_max)
    pf = two_sided[0]
    assert isinstance(pf, PathFunctionals)
    assert pf.hit_time is None
    assert pf.max == two_sided.max[0]


def test_sample_moment_relation(two_sided):
    # E tau^2 = E M / 3 within Monte Carlo error
    n = len(two_sided)
    t2 = two_sided.argmax ** 2
    diff = t2.mean() - two_sided.max.mean() / 3.0
    se = math.sqrt(t2.var() / n + two_sided.max.var() / (9.0 * n))
    assert abs(diff) < 4.0 * se


def test_argmax_ks_against_quadrature(two_sided):
    ks = mcsim.ks_statistic(two_sided.argmax, dens.chernoff_cdf)
    assert ks < 1.63 / math.sqrt(len(two_sided)) + 0.003


def test_ks_improves_with_dt_refinement():
    # bridge sampling removes most of the dt bias, so the comparison runs
    # against pure Monte Carlo noise: average over seeds and allow 2 std
    # errors of the difference of independent KS statistics
    n = 20000

    def mean_ks(dt):
        vals = []
        for seed in (21, 22, 23):
            s = mcsim.simulate_two_sided(
                McConfig(n_paths=n, dt=dt, t_max=4.0, seed=seed, threads=2))
            vals.append(mcsim.ks_statistic(s.argmax, dens.chernoff_cdf))
        return sum(vals) / len(vals)

    allowance = 2.0 * math.sqrt(2.0) * 0.26 / math.sqrt(n) / math.sqrt(3.0)
    assert mean_ks(2e-3) <= mean_ks(4e-3) + allowance


def test_two_sided_requires_full_horizon():
    with pytest.raises(ValueError):
        mcsim.simulate_two_sided(McConfig(n_paths=100, dt=1e-3, t_max=2.0))


def test_hitting_estimate_against_quadrature():
    cfg = McConfig(n_paths=100000, dt=1e-3, t_max=4.0, seed=5, threads=2)
    est = estimate_hitting_prob(StartState(0.0, -1.0), cfg)
    target = dens.hitting_prob(StartState(0.0, -1.0))
    assert abs(est.probability - target) < 3.0 * est.std_error
    assert est.n_hits == round(est.probability * est.n_paths)


def test_hitting_across_two_time_slabs():
    # dt = 1e-4 and t_max = 4.1 give 41000 steps: 20 slabs of 32 coarse
    # intervals of 64 steps, then a last slab of two, of 32 and 8 steps
    cfg = McConfig(n_paths=20000, dt=1e-4, t_max=4.1, seed=6, threads=2)
    assert cfg.n_steps % (mcsim._SLAB * mcsim._K) == 40
    target = dens.hitting_prob(StartState(0.0, -1.0))
    est = estimate_hitting_prob(StartState(0.0, -1.0), cfg)
    assert abs(est.probability - target) < 3.0 * est.std_error
    s = mcsim.simulate_one_sided(StartState(0.0, -1.0), cfg)
    frac = np.mean(~np.isnan(s.hit_time))
    assert abs(frac - target) < 4.0 * math.sqrt(target * (1 - target) / cfg.n_paths)


def test_hitting_near_barrier_is_almost_sure():
    cfg = McConfig(n_paths=20000, dt=1e-3, t_max=4.0, seed=9, threads=2)
    est = estimate_hitting_prob(StartState(0.0, -0.01), cfg)
    target = 1.0 - dens.survival_prob(StartState(0.0, -0.01))
    assert est.probability > 0.98
    assert abs(est.probability - target) < 3.0 * est.std_error + 1e-3


def test_bridge_correction_only_adds_crossings():
    base = dict(n_paths=30000, dt=2e-3, t_max=4.0, seed=5, threads=2)
    off = estimate_hitting_prob(StartState(0.0, -1.0),
                                McConfig(bridge_correction=False, **base))
    on = estimate_hitting_prob(StartState(0.0, -1.0),
                               McConfig(bridge_correction=True, **base))
    assert off.probability <= on.probability


def test_hitting_requires_negative_start():
    with pytest.raises(ValueError):
        estimate_hitting_prob(StartState(0.0, 0.0), CFG)


def test_std_error_sqrt_n_scaling():
    small = estimate_hitting_prob(
        StartState(0.0, -1.0), McConfig(n_paths=20000, dt=2e-3, seed=3))
    big = estimate_hitting_prob(
        StartState(0.0, -1.0), McConfig(n_paths=40000, dt=2e-3, seed=3))
    ratio = small.std_error / big.std_error
    assert 1.3 < ratio < 1.7


def test_pure_bm_histogram_deterministic_and_unbiased():
    cfg = McConfig(n_paths=100000, dt=1e-3, t_max=5.0, seed=3, threads=2)
    h1 = mcsim.simulate_pure_bm_passage(1.0, cfg)
    h2 = mcsim.simulate_pure_bm_passage(1.0, cfg)
    assert np.array_equal(h1.counts, h2.counts)
    assert h1.censored == h2.censored
    masses = np.diff(dens.bm_first_passage_cdf(1.0, h1.edges))
    tail = 1.0 - dens.bm_first_passage_cdf(1.0, np.asarray([5.0]))[0]
    obs = np.concatenate([h1.counts, [h1.censored]]).astype(float)
    expc = h1.n_paths * np.concatenate([masses, [tail]])
    chi2 = float(((obs - expc) ** 2 / expc).sum())
    pval = float(gammaincc((obs.size - 1) / 2.0, chi2 / 2.0))
    assert pval > 0.001


def test_one_sided_sample_reports_hits():
    cfg = McConfig(n_paths=5000, dt=2e-3, t_max=4.0, seed=4)
    sample = mcsim.simulate_one_sided(StartState(0.0, -0.5), cfg)
    hits = ~np.isnan(sample.hit_time)
    frac = hits.mean()
    target = dens.hitting_prob(StartState(0.0, -0.5))
    assert abs(frac - target) < 4.0 * math.sqrt(target * (1 - target) / 5000)
    assert np.all(sample.hit_time[hits] > 0.0)
    assert np.all(sample.max >= -0.5)
    assert np.all((sample.argmax >= 0.0) & (sample.argmax <= 4.0))
    pf = sample[int(np.flatnonzero(hits)[0])]
    assert pf.hit_time is not None and pf.hit_time > 0.0


def test_integer_start_state_gives_float_functionals():
    cfg = McConfig(n_paths=500, dt=2e-3, t_max=2.0, seed=6)
    a = mcsim.simulate_one_sided(StartState(0, -1), cfg)
    b = mcsim.simulate_one_sided(StartState(0.0, -1.0), cfg)
    assert np.array_equal(a.max, b.max)
    assert np.array_equal(a.argmax, b.argmax)
    assert np.any(a.argmax % 1.0 != 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_paths=0)
    with pytest.raises(ValueError):
        McConfig(n_paths=10, dt=-1e-3)
    with pytest.raises(ValueError):
        McConfig(n_paths=10, threads=0)
    with pytest.raises(ValueError):  # t_max / dt rounds to zero steps
        McConfig(n_paths=10, dt=1.0, t_max=0.4)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            McConfig(n_paths=10, dt=bad)
        with pytest.raises(ValueError):
            McConfig(n_paths=10, t_max=bad)


def _on_grid(t, dt, s0=0.0):
    k = (np.asarray(t) - s0) / dt
    return np.all(np.abs(k - np.round(k)) < 1e-6)


@pytest.mark.parametrize("dt, tail", [(3e-3, [32, 16, 4, 1]),
                                      (4.0 / 1343, [32, 16, 8, 4, 2, 1])],
                         ids=["1333_steps", "1343_steps"])
def test_short_last_coarse_interval(dt, tail):
    # dt = 3e-3 gives 1333 steps: 20 coarse intervals of 64 steps, then the
    # remainder 53 as power-of-two intervals, each split evenly down to dt;
    # dt = 4/1343 leaves 63, the longest remainder, in six intervals
    cfg = McConfig(n_paths=4000, dt=dt, t_max=4.0, seed=5)
    assert list(np.diff(mcsim._coarse_ends(cfg.n_steps))[20:]) == tail
    s = mcsim.simulate_two_sided(cfg)
    assert np.all(s.max >= 0.0)
    assert np.all(np.abs(s.argmax) <= cfg.n_steps * cfg.dt + 1e-12)
    ks = mcsim.ks_statistic(s.argmax, dens.chernoff_cdf)
    assert ks < 1.63 / math.sqrt(len(s)) + 0.003


def test_pure_bm_passage_runs_to_the_last_edge_whatever_t_max():
    # every passage after PUREBM_UPPER is censored, so a longer t_max
    # draws nothing that the histogram keeps
    short = mcsim.simulate_pure_bm_passage(1.0, replace(BENCH_CFG, t_max=5.0))
    long = mcsim.simulate_pure_bm_passage(1.0, replace(BENCH_CFG, t_max=40.0))
    assert np.array_equal(short.edges, long.edges)
    assert np.array_equal(short.counts, long.counts)
    assert short.censored == long.censored and short.n_paths == long.n_paths


def test_pure_bm_passage_law_with_a_short_last_interval():
    # dt = 3e-3 and t_max = 5 give 1667 steps: the remainder of 3 steps
    # makes two last coarse intervals, of 2 steps and of 1
    cfg = McConfig(n_paths=100000, dt=3e-3, t_max=5.0, seed=7, threads=2)
    assert cfg.n_steps % 64 == 3
    h = mcsim.simulate_pure_bm_passage(1.0, cfg)
    cdf = erfc(1.0 / np.sqrt(2.0 * np.maximum(h.edges, 1e-300)))
    expc = h.n_paths * np.concatenate([np.diff(cdf), [1.0 - cdf[-1]]])
    obs = np.concatenate([h.counts, [h.censored]]).astype(float)
    chi2 = float(((obs - expc) ** 2 / expc).sum())
    pval = float(gammaincc((obs.size - 1) / 2.0, chi2 / 2.0))
    assert pval > 0.001


def test_leaf_argmax_follows_the_bridge_argmax_law():
    # given rises al and be from the ends of a bridge over h to its max, the
    # argmax has density ~ (tau (h - tau))^-3/2 exp(-al^2/2tau - be^2/2(h - tau))
    h = 5e-4
    t = np.linspace(0.0, h, 200001)[1:-1]
    for al, be in ((0.01, 0.01), (0.002, 0.03), (0.04, 0.0005)):
        logp = -1.5 * np.log(t * (h - t)) - al ** 2 / (2 * t) - be ** 2 / (2 * (h - t))
        cdf = np.cumsum(np.exp(logp - logp.max()))
        tau = mcsim._leaf_argmax(np.random.default_rng(1), np.full(20000, al),
                                 np.full(20000, be), h)
        assert np.all((tau >= 0.0) & (tau <= h))
        assert kstest(tau, lambda x: np.interp(x, t, cdf / cdf[-1])).pvalue > 0.001
    # a max at an end puts the argmax there
    tau = mcsim._leaf_argmax(np.random.default_rng(1), np.array([0.0, 0.01]),
                             np.array([0.01, 0.0]), h)
    assert np.array_equal(tau, [0.0, h])


def test_argmax_and_hit_times_on_dt_grid(two_sided):
    # hit times lie on the dt grid; with the bridge correction the argmax
    # is drawn inside a dt leaf within the horizon, without it it is the
    # best grid point
    assert np.all(np.abs(two_sided.argmax) <= CFG.t_max)
    assert not _on_grid(two_sided.argmax, CFG.dt)
    cfg = McConfig(n_paths=5000, dt=2e-3, t_max=4.0, seed=4)
    for bridge in (True, False):
        s = mcsim.simulate_one_sided(StartState(0.5, -0.5),
                                     replace(cfg, bridge_correction=bridge))
        hits = ~np.isnan(s.hit_time)
        assert hits.any()
        assert _on_grid(s.hit_time[hits], cfg.dt, 0.5)
        assert np.all(s.hit_time[hits] > 0.5)
        assert np.all((s.argmax >= 0.5) & (s.argmax <= 0.5 + cfg.n_steps * cfg.dt))
        assert _on_grid(s.argmax, cfg.dt, 0.5) == (not bridge)


@pytest.mark.parametrize("stop_on_hit", [False, True])
def test_bridge_correction_sees_the_same_fine_path(stop_on_hit):
    # which intervals are split depends on grid values only, so switching
    # the bridge crossing test on can only add crossings or move them earlier
    cfg = McConfig(n_paths=4000, dt=1e-3, t_max=5.0, seed=8)
    # a run that tracks no max retires each path after its first passage
    kw = dict(s0=0.0, x0=-1.0, sides=(2,), parabola=not stop_on_hit,
              track_max=not stop_on_hit, track_hit=True)
    ht = {}
    for bridge in (True, False):
        ht[bridge] = mcsim._one_sided_chunk(
            replace(cfg, bridge_correction=bridge), 0, cfg.n_paths, **kw)[2]
    on, off = ht[True], ht[False]
    hit_off = ~np.isnan(off)
    assert hit_off.sum() > 100
    assert np.all(~np.isnan(on[hit_off]))
    assert np.all(on[hit_off] <= off[hit_off])
    assert np.count_nonzero(~np.isnan(on)) > hit_off.sum()


def test_refined_moments_match_quadrature():
    # E tau^2 and E M of the refined engine at dt = 5e-4 against the
    # quadrature values, within 4 standard errors
    n = 65536
    s = mcsim.simulate_two_sided(
        McConfig(n_paths=n, dt=5e-4, t_max=4.0, seed=2024, threads=2))
    t2 = s.argmax ** 2
    assert abs(t2.mean() - dens.argmax_second_moment()) < 4.0 * t2.std() / math.sqrt(n)
    assert abs(s.max.mean() - dens.max_mean_two_sided()) < 4.0 * s.max.std() / math.sqrt(n)


class _CountingNormals:
    """A generator that tallies the normals drawn through it."""

    def __init__(self, gen, tally):
        self._gen, self._tally = gen, tally

    def standard_normal(self, size, dtype):
        self._tally[0] += int(np.prod(size))
        return self._gen.standard_normal(size, dtype=dtype)

    def __getattr__(self, name):
        return getattr(self._gen, name)


@pytest.fixture
def normals_drawn(monkeypatch):
    """count(f): the number of normals the engine draws while f() runs."""
    stream, tally = mcsim._stream, [0]
    monkeypatch.setattr(mcsim, "_stream",
                        lambda *key: _CountingNormals(stream(*key), tally))

    def count(f):
        tally[0] = 0
        f()
        return tally[0]

    return count


def test_pure_bm_passage_retires_hit_paths_each_slab(normals_drawn):
    # 8192 paths over 157 coarse steps draw 1.29 M coarse normals if none
    # retires; with the whole horizon in one slab, coarse plus refinement
    # normals come to 2.43 M.  Retiring hit paths after each 32-step slab,
    # with the barrier closed at the first grid value >= 0 that a leaf
    # reaches, must bring them under 1.9 M (1.96 M when only coarse
    # endpoints close it)
    n = normals_drawn(lambda: mcsim.simulate_pure_bm_passage(1.0, BENCH_CFG))
    assert n <= 1.9e6


def test_hitting_retires_paths_whose_barrier_is_out_of_reach(normals_drawn):
    # from (0, -1) about 85 % of 8192 paths never hit; drawn to the horizon
    # they take 1.24 M normals, retired once 4 T (-x_T) > 45 they take 0.92 M
    n = normals_drawn(
        lambda: estimate_hitting_prob(StartState(0.0, -1.0), BENCH_CFG))
    assert n <= 1.0e6


def test_one_sided_runs_do_not_depend_on_the_thread_count():
    # three chunks, hit and max tracked: retirement reads each chunk's own
    # grid values, so the samples agree bit for bit
    cfg = McConfig(n_paths=20000, dt=2e-3, t_max=4.0, seed=13, threads=2)
    a = mcsim.simulate_one_sided(StartState(0.0, -1.0), cfg)
    b = mcsim.simulate_one_sided(StartState(0.0, -1.0), replace(cfg, threads=1))
    for x, y in ((a.max, b.max), (a.argmax, b.argmax), (a.hit_time, b.hit_time)):
        assert np.array_equal(x, y, equal_nan=True)
    hits = estimate_hitting_prob(StartState(0.0, -1.0), cfg)
    assert hits == estimate_hitting_prob(StartState(0.0, -1.0),
                                         replace(cfg, threads=1))


def test_shared_record_agrees_with_per_side_runs_in_law():
    # independent seeds: the two samples must come from one law
    cfg = McConfig(n_paths=40000, dt=2e-3, t_max=4.0, seed=31, threads=2)
    shared = mcsim.simulate_two_sided(cfg)
    per_side = two_sided_per_side(replace(cfg, seed=32))
    assert ks_2samp(shared.max, per_side.max).pvalue > 1e-3
    assert ks_2samp(shared.argmax, per_side.argmax).pvalue > 1e-3


def test_shared_record_draws_fewer_normals(normals_drawn):
    shared = normals_drawn(lambda: mcsim.simulate_two_sided(BENCH_CFG))
    per_side = normals_drawn(lambda: two_sided_per_side(BENCH_CFG))
    assert shared <= 0.75 * per_side


def test_peak_memory_per_run():
    # per-slab arrays: 32 coarse steps of 8192 paths, refined in batches
    runs = (lambda: mcsim.simulate_two_sided(BENCH_CFG),
            lambda: estimate_hitting_prob(StartState(0.0, -1.0), BENCH_CFG),
            lambda: mcsim.simulate_pure_bm_passage(1.0, BENCH_CFG))
    tracemalloc.start()
    try:
        for run in runs:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            assert tracemalloc.get_traced_memory()[1] - base < 20e6
    finally:
        tracemalloc.stop()
