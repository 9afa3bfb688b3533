"""Monte Carlo oracle for the drifted process ``W(t) - t^2``.

Gaussian increments are exact at the grid times and the parabola is
subtracted analytically, so there is no integrator error; the only biases
are grid monitoring of extremes/crossings and the finite horizon.  Both are
attacked head on:

* barrier crossings between grid points are sampled from the exact
  Brownian-bridge probability ``exp(-2 d1 d2 / dt)``;
* running maxima are (optionally) sampled from the exact bridge-maximum law
  via the Rayleigh inversion trick, removing the ``O(sqrt(dt))`` grid bias.

Normals are spent only where the path can matter.  Each path is first
drawn on the coarse grid ``dt_c = K dt``, where ``K`` is the largest power
of two <= 16 dividing the step count (``K = 1`` is plain uniform
stepping).  A coarse interval is refined to the ``dt`` grid only if its
bridge can reach the record (the highest value the path is known to
reach, up to an ``e^-48`` tail) or the barrier (up to the ``e^-45``
crossing tail, and only up to the first coarse endpoint at or above it);
both tests allow for the ``dt_c^2 / 4`` by which ``-t^2`` rises above its
chord.  The fill is the
pinned random-walk bridge ``S_j - (j/K) S_K``, the exact law of the fine
grid given the coarse endpoints (Levy-Ciesielski), and the two exact leaf
rules above then run at ``dt`` as before.  Which intervals are filled
depends on the coarse path alone, so ``bridge_correction`` on and off see
the same fine path.

Randomness is counter-based: every (purpose, side, chunk) triple owns a
Philox substream keyed by the seed, drawn in a fixed order, so results are
bit-identical for a given (seed, config) regardless of how many worker
threads run the chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .densities import StartState

__all__ = [
    "McConfig",
    "PathFunctionals",
    "PathSample",
    "HitEstimate",
    "PassageHistogram",
    "simulate_two_sided",
    "simulate_one_sided",
    "estimate_hitting_prob",
    "simulate_pure_bm_passage",
    "ks_statistic",
]

_SLAB = 512         # coarse steps per time slab
_FILL_SLAB = 1 << 19  # fine grid values per slab of refined intervals
_MAX_REFINE = 16
_LOG_FLOOR = 1e-300
TWO_SIDED_T_MIN = 4.0  # shortest horizon of a two-sided run


@dataclass(frozen=True)
class McConfig:
    """Simulation parameters.  ``chunk_paths`` fixes the substream layout
    and is part of the reproducibility contract."""

    n_paths: int
    dt: float = 5e-4
    t_max: float = 4.0
    seed: int = 0
    bridge_correction: bool = True
    chunk_paths: int = 8192
    threads: int = 1

    def __post_init__(self):
        if self.n_paths <= 0 or self.chunk_paths <= 0:
            raise ValueError("path counts must be positive")
        if not (self.dt > 0.0 and self.t_max > 0.0):
            raise ValueError("dt and t_max must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.n_steps < 1:
            raise ValueError("t_max / dt must round to at least one step")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))


@dataclass(frozen=True)
class PathFunctionals:
    max: float
    argmax: float
    hit_time: float | None


class PathSample(Sequence):
    """Array-backed sequence of per-path functionals."""

    def __init__(self, max_: np.ndarray, argmax: np.ndarray,
                 hit_time: np.ndarray | None = None):
        self.max = max_
        self.argmax = argmax
        self.hit_time = hit_time

    def __len__(self) -> int:
        return self.max.size

    def __getitem__(self, i) -> PathFunctionals:
        ht = None
        if self.hit_time is not None and not math.isnan(self.hit_time[i]):
            ht = float(self.hit_time[i])
        return PathFunctionals(float(self.max[i]), float(self.argmax[i]), ht)

    def __iter__(self) -> Iterator[PathFunctionals]:
        for i in range(len(self)):
            yield self[i]


@dataclass(frozen=True)
class HitEstimate:
    probability: float
    std_error: float
    n_paths: int
    n_hits: int


@dataclass(frozen=True)
class PassageHistogram:
    edges: np.ndarray
    counts: np.ndarray
    n_paths: int
    censored: int  # paths with no passage inside (0, edges[-1]]


def _stream(seed: int, purpose: int, side: int, chunk: int) -> np.random.Generator:
    k0 = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    k1 = np.uint64(((purpose & 0xF) << 60) | ((side & 0xF) << 56) | (chunk & 0xFFFFFFFFFFFF))
    return np.random.Generator(np.random.Philox(key=np.array([k0, k1])))


def _chunks(n: int, size: int):
    return [(i, lo, min(lo + size, n))
            for i, lo in enumerate(range(0, n, size))]


def _run_chunks(cfg: McConfig, worker):
    parts = _chunks(cfg.n_paths, cfg.chunk_paths)
    if cfg.threads == 1:
        return [worker(ci, hi - lo) for ci, lo, hi in parts]
    with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
        futs = [ex.submit(worker, ci, hi - lo) for ci, lo, hi in parts]
        return [f.result() for f in futs]  # chunk order, not completion order


def _refine_factor(n_steps: int) -> int:
    """Fine steps per coarse interval: the largest power of two <= 16 that
    divides ``n_steps`` (1 for odd counts, i.e. plain uniform stepping)."""
    k = _MAX_REFINE
    while n_steps % k:
        k //= 2
    return k


def _one_sided_chunk(cfg: McConfig, chunk: int, n: int, *, s0: float,
                     x0: float, side: int, parabola: bool, track_max: bool,
                     track_hit: bool, stop_on_hit: bool):
    """Simulate one chunk of paths of X(t) = x0 + (W(t) - W(s0)) - (t^2 - s0^2).

    Paths are drawn on the coarse grid dt_c = K dt; the K fine steps of a
    coarse interval are drawn as a pinned random-walk bridge only where the
    running record or the barrier is within reach.  Returns (max, argmax,
    hit_time) arrays of length n (NaN hit_time where the barrier was never
    reached before the horizon).
    """
    s0, x0 = float(s0), float(x0)  # integer starts must not make int arrays
    inc = _stream(cfg.seed, 0, side, chunk)
    brg = _stream(cfg.seed, 1, side, chunk)
    dt = cfg.dt
    n_steps = cfg.n_steps
    K = _refine_factor(n_steps)
    dtc = K * dt
    # -t^2 lies above its chord by at most dt_c^2 / 4 at the fine points
    # inside a coarse interval (a leaf ignores its own O(dt^2) curvature)
    sag = 0.25 * dtc * dtc if parabola and K > 1 else 0.0
    # a bridge over h exceeds its higher end by e with probability
    # exp(-2 e^2 / h); e = 0.5 sqrt(2 h 48) puts that at e^-48, far below
    # Monte Carlo resolution (leaf margin at dt, interval reach at dt_c)
    margin = 0.5 * math.sqrt(2.0 * dt * 48.0)
    reach = 0.5 * math.sqrt(2.0 * dtc * 48.0) + sag
    theta = np.arange(K + 1) / K
    chord_sag = theta * (1.0 - theta) * dtc * dtc if parabola else 0.0

    idx_alive = np.arange(n)
    x_last = np.full(n, x0)
    cur_max = np.full(n, x0)
    cur_arg = np.full(n, s0)
    hit_time = np.full(n, np.nan)
    barrier_open = np.ones(n, dtype=bool)  # no coarse endpoint >= 0 yet

    done = 0
    while done < n_steps and idx_alive.size:
        C = min(_SLAB, (n_steps - done) // K)
        m = idx_alive.size
        # coarse state at fine indices done + K*(0..C) (column 0 = carry-in)
        X = np.empty((m, C + 1))
        X[:, 0] = 0.0
        X[:, 1:] = inc.standard_normal((m, C), dtype=np.float32)
        np.add.accumulate(X[:, 1:], axis=1, out=X[:, 1:])
        X[:, 1:] *= math.sqrt(dtc)
        if parabola:
            tg = s0 + (done + K * np.arange(C + 1)) * dt
            X += (x_last + (s0 + done * dt) ** 2)[:, None]
            X -= (tg * tg)[None, :]
        else:
            X += x_last[:, None]

        # coarse intervals whose bridge can reach the record or the barrier
        fill = np.zeros((m, C), dtype=bool)
        if track_max:
            record = np.maximum(cur_max, X[:, 1:].max(axis=1))
            near = X > (record - reach)[:, None]
            fill |= near[:, :-1] | near[:, 1:]
            thr = record - margin
        if track_hit:
            up = X[:, 1:] >= 0.0
            seen = np.logical_or.accumulate(up, axis=1)
            coarse_hit = seen[:, -1].copy()
            # up to and including the first coarse endpoint >= 0
            live = np.empty((m, C), dtype=bool)
            live[:, 0] = barrier_open[idx_alive]
            np.logical_not(seen[:, :-1], out=live[:, 1:])
            live[:, 1:] &= live[:, :1]
            Y = X + sag if sag else X
            cross = (Y[:, :-1] * Y[:, 1:] < 22.5 * dtc) | (Y[:, :-1] >= 0.0) | up
            hit_fill = live & cross
            del Y, cross, live, up, seen
            fill |= hit_fill

        flat = np.flatnonzero(fill)
        del fill
        per = _FILL_SLAB // (K + 1)
        for lo in range(0, flat.size, per):
            fi = flat[lo:lo + per]
            rows, cols = np.divmod(fi, C)
            xl = X[rows, cols]
            xr = X[rows, cols + 1]
            # F[:, j] = X at fine index done + K*col + j, j = 0..K
            F = np.zeros((fi.size, K + 1))
            if K > 1:  # bridge S_j - (j/K) S_K of a K-step random walk
                F[:, 1:] = inc.standard_normal((fi.size, K), dtype=np.float32)
                np.add.accumulate(F[:, 1:], axis=1, out=F[:, 1:])
                F[:, 1:] -= theta[1:] * F[:, -1:]
                F[:, 1:] *= math.sqrt(dt)
            F += xl[:, None] * (1.0 - theta) + xr[:, None] * theta + chord_sag
            Fl = F[:, :-1]
            Fr = F[:, 1:]
            step0 = done + K * cols  # fine index of each interval's left end

            if track_hit:
                h = hit_fill[rows, cols]
                Hl, Hr = Fl[h], Fr[h]
                crossed = Hr >= 0.0
                if cfg.bridge_correction:
                    prod = Hl * Hr
                    cand = (Hl < 0.0) & (Hr < 0.0) & (prod < 22.5 * dt)
                    nc = int(np.count_nonzero(cand))
                    if nc:
                        u = brg.random(nc)
                        crossed[cand] |= u < np.exp(-2.0 * prod[cand] / dt)
                any_c = crossed.any(axis=1)
                if any_c.any():
                    first = np.argmax(crossed[any_c], axis=1)
                    hr = rows[h][any_c]
                    hstep = step0[h][any_c] + first + 1
                    # intervals come in (path, time) order: keep each
                    # path's earliest crossing, and never overwrite
                    pr, k0 = np.unique(hr, return_index=True)
                    tgt = idx_alive[pr]
                    new = np.isnan(hit_time[tgt])
                    hit_time[tgt[new]] = s0 + hstep[k0][new] * dt

            if track_max:
                above = F > thr[rows][:, None]
                if cfg.bridge_correction:
                    ii, jj = np.nonzero(above[:, :-1] | above[:, 1:])
                    u = np.maximum(brg.random(ii.size), _LOG_FLOOR)
                    a = Fl[ii, jj]
                    b = Fr[ii, jj]
                    M = 0.5 * (a + b + np.sqrt((a - b) ** 2 - 2.0 * dt * np.log(u)))
                    steps = step0[ii] + jj          # leaf's left end
                else:
                    ii, jj = np.nonzero(above[:, 1:])
                    M = Fr[ii, jj]
                    steps = step0[ii] + jj + 1      # the grid point itself
                pr = rows[ii]
                best = np.full(m, -np.inf)
                np.maximum.at(best, pr, M)
                upd = best > cur_max
                cur_max[upd] = best[upd]
                win = upd[pr] & (M >= best[pr])
                cur_arg[pr[win]] = s0 + steps[win] * dt

        x_last = X[:, -1].copy()
        if track_hit:
            if stop_on_hit:
                keep = ~coarse_hit
                idx_alive = idx_alive[keep]
                x_last = x_last[keep]
            else:
                barrier_open[idx_alive[coarse_hit]] = False
        done += C * K

    out_max = np.full(n, x0)
    out_arg = np.full(n, s0)
    if track_max:
        # paths are never compacted when tracking maxima
        out_max, out_arg = cur_max, cur_arg
    return out_max, out_arg, hit_time


def simulate_two_sided(cfg: McConfig) -> PathSample:
    """Global max and argmax of W(t) - t^2 over [-t_max, t_max].

    Requires t_max >= 4 so the argmax/max mass beyond the horizon (of order
    exp(-(2/3) t_max^3)) is far below Monte Carlo resolution.  Ties between
    the two sides (measure zero up to float rounding) resolve to the left,
    i.e. the earlier time.
    """
    if cfg.t_max < TWO_SIDED_T_MIN:
        raise ValueError("two-sided runs need t_max >= %g" % TWO_SIDED_T_MIN)

    def worker(ci, n):
        rm, ra, _ = _one_sided_chunk(
            cfg, ci, n, s0=0.0, x0=0.0, side=0, parabola=True,
            track_max=True, track_hit=False, stop_on_hit=False)
        lm, la, _ = _one_sided_chunk(
            cfg, ci, n, s0=0.0, x0=0.0, side=1, parabola=True,
            track_max=True, track_hit=False, stop_on_hit=False)
        left = lm >= rm
        return (np.where(left, lm, rm), np.where(left, -la, ra))

    parts = _run_chunks(cfg, worker)
    return PathSample(np.concatenate([p[0] for p in parts]),
                      np.concatenate([p[1] for p in parts]))


def simulate_one_sided(state: StartState, cfg: McConfig) -> PathSample:
    """Max, argmax and first barrier passage of the process from (s, x)."""

    def worker(ci, n):
        return _one_sided_chunk(
            cfg, ci, n, s0=state.s, x0=state.x, side=2, parabola=True,
            track_max=True, track_hit=True, stop_on_hit=False)

    parts = _run_chunks(cfg, worker)
    return PathSample(np.concatenate([p[0] for p in parts]),
                      np.concatenate([p[1] for p in parts]),
                      np.concatenate([p[2] for p in parts]))


def estimate_hitting_prob(state: StartState, cfg: McConfig) -> HitEstimate:
    """Fraction of paths from (s, x < 0) that reach the barrier before the
    horizon; binomial standard error.  With ``bridge_correction`` the
    between-grid crossings are sampled exactly, removing the monitoring
    bias (up to the O(dt^2) curvature of the parabola within one step)."""
    if not state.x < 0.0:
        raise ValueError("hitting estimate requires x < 0")

    def worker(ci, n):
        _, _, ht = _one_sided_chunk(
            cfg, ci, n, s0=state.s, x0=state.x, side=2, parabola=True,
            track_max=False, track_hit=True, stop_on_hit=True)
        return np.count_nonzero(~np.isnan(ht))

    hits = int(sum(_run_chunks(cfg, worker)))
    p = hits / cfg.n_paths
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / cfg.n_paths)
    return HitEstimate(p, se, cfg.n_paths, hits)


def simulate_pure_bm_passage(z: float, cfg: McConfig,
                             bin_width: float = 0.1,
                             upper: float = 5.0) -> PassageHistogram:
    """Histogram of the first passage through 0 of driftless BM from z > 0.

    By symmetry the kernel runs from -z upward.  Horizon is
    max(t_max, upper); passages beyond ``upper`` (or never) count as
    censored."""
    if not z > 0.0:
        raise ValueError("z must be positive")
    run_cfg = cfg if cfg.t_max >= upper else replace(cfg, t_max=upper)

    def worker(ci, n):
        _, _, ht = _one_sided_chunk(
            run_cfg, ci, n, s0=0.0, x0=-z, side=3, parabola=False,
            track_max=False, track_hit=True, stop_on_hit=True)
        return ht

    times = np.concatenate(_run_chunks(run_cfg, worker))
    edges = np.arange(0.0, upper + bin_width / 2.0, bin_width)
    counts, _ = np.histogram(times[~np.isnan(times)], bins=edges)
    return PassageHistogram(edges, counts, run_cfg.n_paths,
                            int(run_cfg.n_paths - counts.sum()))


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    F = np.asarray(cdf(x), dtype=np.float64)
    up = np.arange(1, n + 1) / n - F
    lo = F - np.arange(0, n) / n
    return float(max(up.max(), lo.max()))
