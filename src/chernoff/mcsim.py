"""Monte Carlo oracle for the drifted process ``W(t) - t^2``.

Gaussian increments are exact at the grid times and the parabola is
subtracted analytically, so the only biases are grid monitoring of extremes
and crossings, and the finite horizon.  At each ``dt`` leaf the monitoring
is exact: a crossing is sampled from the Brownian-bridge probability
``exp(-2 d1 d2 / dt)``, the maximum from the bridge-maximum law (Rayleigh
inversion) and, when the leaf takes the path's record, the argmax from the
bridge's argmax law given that maximum.

Normals are spent only where the path can matter.  Each path is drawn in
time slabs of ``_SLAB`` = 32 coarse steps of ``_K`` = 64 ``dt`` each (2048
``dt``); the horizon's remainder of fewer than 64 steps is laid out as
power-of-two intervals, largest first (53 = 32 + 16 + 4 + 1), so every
split is even.  An interval of length ``L`` is split at its midpoint, with
one normal for the pinned bridge plus the rise of ``-t^2`` above its chord
(Levy-Ciesielski), only while it can still reach the record (an endpoint
within ``sqrt(24 L) + L^2 / 4`` of the highest grid value: an ``e^-48``
tail) or the barrier (the ``e^-45`` crossing test, up to the first endpoint
at or above it).  The two sides of a two-sided path share one record: each
slab draws both sides' coarse grids, raises the record with them, then
refines each side against it, so a side interval that cannot reach the
global record cannot hold the argmax.  After each slab a side retires once
it can no longer matter: if the barrier is tracked, once a grid value at or
above it has been reached or ``4 T (-x_T) > 45`` (out of reach up to the
crossing test's ``e^-45``), and, if the max is tracked, once
``4 T (record - x_T) > 48``, all at the slab's end time ``T > 0``: from
``x_T`` the rest of the path rises ``sup_u B(u) - 2 T u - u^2 > d`` with
probability at most ``e^{-4 T d}``.  Driftless runs retire a side at its
barrier only.  Splits and retirement read grid values alone, so
``bridge_correction`` on and off see the same fine path.

Retirement, and drawing a leaf's argmax as soon as it takes the record
(from the stream of the leaf maxima), change which ``brg`` and ``inc``
draws serve which path, so samples differ bit for bit, not in law, from an
engine that draws every path to the horizon and the argmax last.

Randomness is counter-based: every (purpose, side, chunk) triple owns a
Philox substream keyed by the seed, drawn in a fixed order, so results are
bit-identical for a given (seed, config) regardless of how many worker
threads run the chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

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

_SLAB = 32          # coarse steps per time slab
_K = 64             # fine steps per coarse interval
_FILL_SLAB = 1 << 19  # fine steps per batch of refined coarse intervals
_LOG_FLOOR = 1e-300
TWO_SIDED_T_MIN = 4.0  # shortest horizon of a two-sided run
PUREBM_BIN = 0.1       # bin width of the pure-BM passage histogram
PUREBM_UPPER = 5.0     # its last edge, and the horizon of its runs


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
        if not (0.0 < self.dt < math.inf and 0.0 < self.t_max < math.inf):
            raise ValueError("dt and t_max must be positive and finite")
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


def _run_chunks(cfg: McConfig, worker):
    size = cfg.chunk_paths
    parts = [(ci, min(size, cfg.n_paths - lo))
             for ci, lo in enumerate(range(0, cfg.n_paths, size))]
    if cfg.threads == 1:
        return [worker(*part) for part in parts]
    with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
        futs = [ex.submit(worker, *part) for part in parts]
        return [f.result() for f in futs]  # chunk order, not completion order


def _leaf_argmax(gen: np.random.Generator, al, be, h: float):
    """Argmax time inside a leaf of length h whose Brownian bridge peaks
    al above its left end and be above its right end (Shepp 1979): with
    s = tau / (h - tau), s is IG(al/be, al^2/h) with probability
    be / (al + be) and otherwise 1 / IG(be/al, be^2/h)."""
    tiny = 1e-12 * math.sqrt(h)
    ok = (al > tiny) & (be > tiny)
    a = np.where(ok, al, 1.0)
    b = np.where(ok, be, 1.0)
    left = gen.random(a.size) * (a + b) < b
    w = gen.wald(np.where(left, a / b, b / a), np.where(left, a, b) ** 2 / h)
    tau = h * np.where(left, w, 1.0) / (1.0 + w)
    # clip: the wald draw cancels to a few 1e-17 when al or be << sqrt(h)
    return np.where(ok, np.clip(tau, 0.0, h), np.where(al > tiny, h, 0.0))


def _coarse_ends(n_steps: int) -> np.ndarray:
    """Fine indices of the coarse grid: intervals of ``_K`` steps, then the
    remainder as power-of-two intervals, largest first, so splits are even."""
    n_full, rest = divmod(n_steps, _K)
    tail = [1 << j for j in reversed(range(rest.bit_length())) if rest >> j & 1]
    return np.concatenate([_K * np.arange(n_full + 1),
                           _K * n_full + np.cumsum(tail, dtype=int)])


def _one_sided_chunk(cfg: McConfig, chunk: int, n: int, *, s0: float,
                     x0: float, sides: tuple[int, ...], parabola: bool,
                     track_max: bool, track_hit: bool):
    """Simulate one chunk of paths of X(t) = x0 + (W(t) - W(s0)) - (t^2 - s0^2)
    on each side in ``sides`` (stream ids), all sides of a path sharing one
    record.  ``sides[1]``, if given, runs backward in time from s0.

    Paths are drawn on a coarse grid of ``_K`` steps, refined where they
    can still matter and retired once they cannot (module docstring).
    Returns (max, argmax, hit_time) arrays of length n: the max over all
    sides, the argmax on the winning side, and NaN hit_time where the barrier
    was never reached before the horizon (hit tracking takes one side).
    """
    s0, x0 = float(s0), float(x0)  # integer starts must not make int arrays
    inc = [_stream(cfg.seed, 0, sd, chunk) for sd in sides]
    brg = [_stream(cfg.seed, 1, sd, chunk) for sd in sides]
    dt, n_steps, bridge = cfg.dt, cfg.n_steps, cfg.bridge_correction

    def keep_test(xl, xr, L, rec_r, live):
        """(keep, hit) masks of intervals of length L: hit where ``live`` and
        the bridge, lifted by the L^2/4 that -t^2 rises above its chord, can
        cross the barrier (up to e^-45); keep also where it can reach the
        record (up to e^-48)."""
        sag = 0.25 * L * L if parabola else 0.0
        hit = np.zeros(xl.shape, dtype=bool)
        if track_hit:
            yl, yr = (xl + sag, xr + sag) if parabola else (xl, xr)
            hit = live & ((yl * yr < 22.5 * L) | (yl >= 0.0) | (xr >= 0.0))
        if track_max:  # a bridge over L rises sqrt(24 L) above an end w.p. e^-48
            return hit | (np.maximum(xl, xr) > rec_r - (np.sqrt(24.0 * L) + sag)), hit
        return hit, hit

    def leaves(k, r, first, a, b, hl):
        """Dt leaves of side k of paths r, left ends at fine index first."""
        if track_hit:
            crossed = hl & (b >= 0.0)
            barrier_open[r[crossed]] = False  # a grid passage
            if bridge:  # exact crossing of the leaf's bridge
                prod = a * b
                j = np.flatnonzero(hl & (a < 0.0) & (b < 0.0) & (prod < 22.5 * dt))
                crossed[j] |= brg[k].random(j.size) < np.exp(-2.0 * prod[j] / dt)
            np.minimum.at(hit_step, r[crossed], first[crossed] + 1)
        if track_max:
            M = b
            if bridge:  # exact bridge maximum (Rayleigh inversion)
                u = np.maximum(brg[k].random(r.size), _LOG_FLOOR)
                M = 0.5 * (a + b + np.sqrt((a - b) ** 2 - 2.0 * dt * np.log(u)))
            best = cur_max.copy()
            np.maximum.at(best, r, M)
            win = (M == best[r]) & (M > cur_max[r])
            tau = dt  # without the bridge correction: the leaf's right end
            if bridge:  # drawn inside the leaf that takes the record
                tau = _leaf_argmax(brg[k], M[win] - a[win], M[win] - b[win], dt)
            arg[r[win]] = s0 + (1 - 2 * k) * (first[win] * dt + tau)
            cur_max[:] = best

    def refine(k, r, first, B, nn, hl):
        """Split side k's intervals of nn (a power of two) fine steps of
        paths r, with ends B[0] and B[2], level by level; B[1] takes the
        midpoints.  Which intervals are split reads grid values alone,
        never ``brg`` draws."""
        while nn > 1 and r.size:
            # the pinned bridge's midpoint plus the parabola's chord sag
            var = 0.25 * (nn * dt)
            xm = np.multiply(B[0], 0.5, out=B[1])
            xm += B[2] * 0.5
            xm += np.sqrt(var) * inc[k].standard_normal(r.size, dtype=np.float32)
            if parabola:
                xm += var * (nn * dt)
            nn //= 2
            if track_max:
                np.maximum.at(rec, r, xm)
            # hit tracking runs up to the first endpoint >= 0
            live = np.stack([hl, hl & (xm < 0.0)]) if track_hit else None
            keep, hit = keep_test(B[:2], B[1:], nn * dt,
                                  rec[r] if track_max else None, live)
            # kept children, left ones first: B's flat index of the left end
            idx = np.flatnonzero(keep)
            n_left = np.count_nonzero(keep[0])
            Bf = B.ravel()
            B = np.empty((3, idx.size))
            B[0], B[2] = Bf[idx], Bf[idx + r.size]
            hl = hit.ravel()[idx]
            p = idx  # now the parent of each child
            p[n_left:] -= r.size
            r, first = r[p], first[p]
            first[n_left:] += nn
        if r.size:
            leaves(k, r, first, B[0], B[2], hl)

    alive = [np.arange(n) for _ in sides]  # per side: paths still drawn
    x_last = [np.full(n, x0) for _ in sides]
    rec = np.full(n, x0)  # the grid record that refinement reads
    cur_max = np.full(n, x0)
    arg = np.full(n, s0)
    hit_step = np.full(n, n_steps + 1)  # fine index of the first passage
    barrier_open = np.ones(n, dtype=bool)  # no grid value >= 0 yet

    all_ends = _coarse_ends(n_steps)
    for j in range(0, all_ends.size - 1, _SLAB):
        if not any(idx.size for idx in alive):
            break
        ends = all_ends[j:j + _SLAB + 1]
        C = ends.size - 1
        lens = np.diff(ends)
        tg = s0 + ends * dt
        # each side's coarse state at fine indices ends (column 0 = carry-in)
        Xs = []
        for k, idx in enumerate(alive):
            X = np.zeros((idx.size, C + 1))
            X[:, 1:] = inc[k].standard_normal((idx.size, C), dtype=np.float32)
            X[:, 1:] *= np.sqrt(lens * dt)
            np.add.accumulate(X[:, 1:], axis=1, out=X[:, 1:])
            if parabola:
                X += (x_last[k] + tg[0] ** 2)[:, None]
                X -= (tg * tg)[None, :]
            else:
                X += x_last[k][:, None]
            if track_max:
                rec[idx] = np.maximum(rec[idx], X[:, 1:].max(axis=1))
            Xs.append(X)

        for k, (idx, X) in enumerate(zip(alive, Xs)):
            live = None
            if track_hit:
                # up to and including the first coarse endpoint >= 0
                live = np.empty((idx.size, C), dtype=bool)
                live[:, 0] = barrier_open[idx]
                np.logical_not(np.logical_or.accumulate(X[:, 1:-1] >= 0.0, axis=1),
                               out=live[:, 1:])
                live[:, 1:] &= live[:, :1]
            fill, hit_fill = keep_test(X[:, :-1], X[:, 1:], lens * dt,
                                       rec[idx][:, None] if track_max else None, live)
            rows, cols = np.divmod(np.flatnonzero(fill), C)
            per = _FILL_SLAB // _K  # coarse intervals per batch
            for nn in np.unique(lens)[::-1]:  # one batch loop per length
                grp = lens[cols] == nn
                r_g, c_g = rows[grp], cols[grp]
                for lo in range(0, r_g.size, per):
                    r, c = r_g[lo:lo + per], c_g[lo:lo + per]
                    B = np.empty((3, r.size))
                    B[0], B[2] = X[r, c], X[r, c + 1]
                    refine(k, idx[r], ends[c], B, int(nn), hit_fill[r, c])

        # retire a side once its barrier is passed or out of reach and the
        # record is out of its reach (each if tracked): from x_T at time T > 0,
        # sup_u B(u) - 2 T u - u^2 passes d with probability e^{-4 T d}
        T = tg[-1]
        for k, (idx, X) in enumerate(zip(alive, Xs)):
            x_T = X[:, -1]
            out = np.ones(idx.size, dtype=bool)
            if track_hit:
                out &= ~barrier_open[idx] | (parabola & (-4.0 * T * x_T > 45.0))
            if track_max:
                out &= parabola & (4.0 * T * (rec[idx] - x_T) > 48.0)
            alive[k], x_last[k] = idx[~out], x_T[~out]

    return cur_max, arg, np.where(hit_step <= n_steps, s0 + hit_step * dt, np.nan)


def _paths(cfg: McConfig, **kw):
    """(max, argmax, hit_time) of all cfg.n_paths paths, chunk by chunk."""
    parts = _run_chunks(cfg, lambda ci, n: _one_sided_chunk(cfg, ci, n, **kw))
    return [np.concatenate(p) for p in zip(*parts)]


def simulate_two_sided(cfg: McConfig) -> PathSample:
    """Global max and argmax of W(t) - t^2 over [-t_max, t_max].

    Requires t_max >= 4 so the argmax/max mass beyond the horizon (of order
    exp(-(2/3) t_max^3)) is far below Monte Carlo resolution.  Ties (measure
    zero up to float rounding) keep the leaf refined first: between the
    sides, the one in the earlier time slab, and within one slab the right
    side (t > 0).
    """
    if cfg.t_max < TWO_SIDED_T_MIN:
        raise ValueError("two-sided runs need t_max >= %g" % TWO_SIDED_T_MIN)
    return PathSample(*_paths(cfg, s0=0.0, x0=0.0, sides=(0, 1), parabola=True,
                              track_max=True, track_hit=False)[:2])


def simulate_one_sided(state: StartState, cfg: McConfig) -> PathSample:
    """Max, argmax and first barrier passage of the process from (s, x)."""
    return PathSample(*_paths(cfg, s0=state.s, x0=state.x, sides=(2,),
                              parabola=True, track_max=True, track_hit=True))


def estimate_hitting_prob(state: StartState, cfg: McConfig) -> HitEstimate:
    """Fraction of paths from (s, x < 0) that reach the barrier before the
    horizon; binomial standard error.  With ``bridge_correction`` the
    between-grid crossings are sampled exactly, removing the monitoring
    bias (up to the O(dt^2) curvature of the parabola within one step)."""
    if not state.x < 0.0:
        raise ValueError("hitting estimate requires x < 0")
    _, _, ht = _paths(cfg, s0=state.s, x0=state.x, sides=(2,), parabola=True,
                      track_max=False, track_hit=True)
    hits = int(np.count_nonzero(~np.isnan(ht)))
    p = hits / cfg.n_paths
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / cfg.n_paths)
    return HitEstimate(p, se, cfg.n_paths, hits)


def simulate_pure_bm_passage(z: float, cfg: McConfig) -> PassageHistogram:
    """Histogram of the first passage through 0 of driftless BM from z > 0.

    By symmetry the kernel runs from -z upward, in bins of ``PUREBM_BIN``.
    Paths run to the histogram's last edge ``PUREBM_UPPER`` whatever
    ``cfg.t_max``; passages beyond it (or never) count as censored."""
    if not z > 0.0:
        raise ValueError("z must be positive")
    run_cfg = replace(cfg, t_max=PUREBM_UPPER)
    _, _, times = _paths(run_cfg, s0=0.0, x0=-z, sides=(3,), parabola=False,
                         track_max=False, track_hit=True)
    edges = np.arange(0.0, PUREBM_UPPER + PUREBM_BIN / 2.0, PUREBM_BIN)
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
