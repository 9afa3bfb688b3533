"""The three benchmark workloads.

Each workload makes its inputs from the seed, builds the cached models it
uses in ``setup`` (through public calls), runs one round of its operations
in ``round`` and checks the outputs of a round in ``check``.  A round always
attempts the same operations, so the share of failed operations does not
depend on the seed or on how many rounds a run makes.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time

import numpy as np

import checks as C


class Round:
    """Outputs and operation counts of one round."""

    def __init__(self):
        self.outputs: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def rounds_identical(first: Round, other: Round) -> bool:
    return (first.outputs.keys() == other.outputs.keys()
            and all(_same(first.outputs[k], other.outputs[k]) for k in first.outputs))


def _read_table(text: bytes) -> np.ndarray:
    return np.loadtxt(io.StringIO(text.decode()), delimiter=",", skiprows=1, ndmin=2)


class Workload:
    name = ""
    path_steps = 0.0  # Monte Carlo path-steps per round, from the configuration

    def __init__(self, seed: int, mods: dict, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.m = mods
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def check(self, r: Round) -> list:
        raise NotImplementedError

    def rng_floor_s(self) -> float:
        return 0.0


class Tables(Workload):
    """The README ``tabulate`` commands through ``cli.main``, plus ``psi``."""

    name = "tables"
    COMMANDS = [
        "tabulate --which chernoff --from -3 --to 3 --step 0.01 --out fz.csv",
        "tabulate --which phi --from -2 --to 2 --step 0.5 --out phi.csv",
        "tabulate --which max2 --from 0.05 --to 4 --step 0.05 --out max2.csv",
        "tabulate --which firstpassage --s 0 --x -1 --from 0.05 --to 6 --step 0.05"
        " --out fp.csv",
        "tabulate --which joint2 --from -2 --to 2 --step 0.25 --a-from 0.2 --a-to 2"
        " --a-step 0.2 --out joint2.csv",
        "tabulate --which chernoff --from 4 --to 4.9 --step 0.1 --out past48.csv",
    ]
    TABLE_ABS_TOL = 1e-10  # the CLI's default --abs-tol

    def __init__(self, seed, mods, workdir):
        super().__init__(seed, mods, workdir)
        # psi at three times: one on each side of the h kernel's
        # Talbot/residue switch at t = 0.9, one further out
        self.psi_t = [float(t) for t in np.array([0.4, 1.3, 2.1])
                      + self.rng.uniform(-0.1, 0.1, 3)]
        self._g0 = {}  # g(0, x) for the checks, which may run many times

    def _survival0(self, x):
        if x not in self._g0:
            d = self.m["densities"]
            self._g0[x] = d.survival_prob(d.StartState(0.0, x))
        return self._g0[x]

    def setup(self):
        d = self.m["densities"]
        d.chernoff_cdf(np.asarray([0.0]))    # phi and argmax-CDF models
        d.max_marginal_two_sided(1.0)        # the g(0, .) model
        d.h_density(-1.0, 1.0)               # Airy-zero residue data

    def round(self):
        r = Round()
        cli, d = self.m["cli"], self.m["densities"]
        for cmd in self.COMMANDS:
            argv = cmd.split()
            out = os.path.join(self.workdir, argv[-1])
            argv[-1] = out
            r.attempted += 1
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError("exit %d: %s" % (code, err.getvalue().strip()))
                with open(out, "rb") as fh:
                    r.outputs[cmd] = fh.read()
            except Exception as exc:  # the CLI's faults are counted, not fatal
                r.failed += 1
                r.errors.append("%s -> %s: %s" % (cmd, type(exc).__name__, exc))
        for t in self.psi_t:
            r.attempted += 1
            r.outputs["psi(%r)" % t] = d.psi(t)
        return r

    def check(self, r):
        d = self.m["densities"]
        out = r.outputs
        tab = {cmd.split()[-1]: _read_table(out[cmd]) for cmd in self.COMMANDS
               if cmd in out}
        res = []
        for name, arr in tab.items():
            res.append(C.nonnegative("%s nonnegative" % name, arr[:, -1],
                                     self.TABLE_ABS_TOL))
        # Chernoff's density: unit mass and symmetry
        t, fz = tab["fz.csv"].T
        res.append(C.close("fz.csv unit mass", float(np.trapezoid(fz, t)), 1.0, 1e-5))
        res.append(C.symmetric("fz.csv symmetric", t, fz, 1e-12))
        # phi: an Airy/quadrature route that shares no code with the package,
        # and f_Z(t) = phi(t) phi(-t) / 2 against the cached Chebyshev table
        tp, ph = tab["phi.csv"].T
        for tv, pv in zip(tp, ph):
            res.append(C.close("phi.csv phi(%g) reference" % tv, pv,
                               C.phi_reference(tv), 1e-9))
            i = int(np.argmin(np.abs(t - tv)))
            pm = ph[int(np.argmin(np.abs(tp + tv)))]
            res.append(C.close("phi.csv f_Z(%g) = phi phi(-t)/2" % tv,
                               0.5 * pv * pm, fz[i], 1e-12, 1e-7))
        # hitting + survival = 1: the passage-time mass against g(0, -1),
        # whose tilted_g double integral shares no step with the h kernel
        g1 = self._survival0(-1.0)
        tf, fp = tab["fp.csv"].T
        # (the trapezoid rule is off by 3e-5 on the steep rise below t = 0.2)
        res.append(C.close("fp.csv mass = 1 - survival(0,-1)",
                           float(np.trapezoid(fp, tf)), 1.0 - g1, 1e-4))
        # two-sided max: F_M(a) = g(0,-a)^2, so the mass on [0.05, 2] is
        # g(0,-2)^2 - g(0,-0.05)^2
        a, fm = tab["max2.csv"].T
        g005, g2 = self._survival0(-0.05), self._survival0(-2.0)
        k = int(np.argmin(np.abs(a - 2.0)))
        res.append(C.close("max2.csv mass on [0.05,2] = g^2 differences",
                           C.corrected_trapezoid(a[:k + 1], fm[:k + 1]),
                           g2 ** 2 - g005 ** 2, 5e-5))
        # E tau_M^2 = E M / 3; below a = 0.05, F_M ~ c a^2 gives
        # int_0^0.05 a f_M da = (2/3) 0.05 F_M(0.05)
        et2 = float(np.trapezoid(t * t * fz, t))
        em = C.corrected_trapezoid(a, a * fm) + (2.0 / 3.0) * a[0] * g005 ** 2
        res.append(C.close("E tau^2 = E M / 3", et2, em / 3.0, 0.0, 2e-4))
        # joint2 is even in t and factors as h_{-a}(|t|) g(0,-a) phi(|t|): at
        # a = 1 it is the passage density (s=0, x=-1) times exp((2/3)t^3)
        # g(0,-1) phi(|t|)
        j2 = tab["joint2.csv"]
        for av in np.unique(j2[:, 1]):
            rows = j2[np.abs(j2[:, 1] - av) < 1e-9]
            res.append(C.symmetric("joint2.csv symmetric a=%.1f" % av,
                                   rows[:, 0], rows[:, 2], 1e-12))
        for tv in (0.5, 1.0, 1.5, 2.0):
            row = j2[(np.abs(j2[:, 0] - tv) < 1e-9) & (np.abs(j2[:, 1] - 1.0) < 1e-9)]
            fpv = fp[np.abs(tf - tv) < 1e-9]
            pv = ph[np.abs(tp - tv) < 1e-9]
            want = fpv[0] * math.exp((2.0 / 3.0) * tv ** 3) * g1 * pv[0]
            res.append(C.close("joint2.csv (%g,1) product form" % tv,
                               float(row[0, 2]), want, 1e-14, 1e-6))
        # psi(t) = phi(-t) / 2
        for key in [k for k in out if k.startswith("psi(")]:
            tv = float(key[4:-1])
            res.append(C.close("%s = phi(-t)/2" % key, out[key],
                               0.5 * d.phi(-tv), 1e-7))
        # the operation past |t| = 4.8, once it succeeds
        if "past48.csv" in tab:
            tb, fb = tab["past48.csv"].T
            for tv, fv in zip(tb, fb):
                want = 0.5 * C.phi_reference(tv) * C.phi_reference(-tv)
                res.append(C.close("past48.csv f_Z(%g) reference" % tv, fv, want, 1e-9))
        return res


class PassageQuadrature(Workload):
    """hitting/survival over start states, the p(s) limit and scalar phi."""

    name = "passage_quadrature"

    def __init__(self, seed, mods, workdir):
        super().__init__(seed, mods, workdir)
        S = mods["densities"].StartState
        ss = np.array([-1.0, 1.0]) + self.rng.uniform(-0.02, 0.02, 2)
        xs = np.array([-0.25, -1.0]) * (1.0 + self.rng.uniform(-0.01, 0.01, 2))
        self.states = [S(float(a), float(b)) for a in ss for b in xs]
        self.limit_s = [float(0.5 + self.rng.uniform(-0.02, 0.02))]
        # phi inside the cached domain and beyond |t| = 4.8 on both sides
        self.phi_t = [float(t) for t in np.array([-1.0, 0.6, -5.2, 5.2])
                      + self.rng.uniform(-0.02, 0.02, 4)]

    def setup(self):
        self.m["densities"].h_density(-1.0, 1.0)  # Airy-zero residue data

    def round(self):
        d = self.m["densities"]
        r = Round()
        for st in self.states:
            r.outputs["hitting%r" % ((st.s, st.x),)] = d.hitting_prob(st)
            r.outputs["survival%r" % ((st.s, st.x),)] = d.survival_prob(st)
            r.attempted += 2
        for s in self.limit_s:
            r.outputs["p(%r)" % s] = d.tilted_g_limit(s)
            r.attempted += 1
        for t in self.phi_t:
            r.outputs["phi(%r)" % t] = d.phi(t)
            r.attempted += 1
        return r

    def check(self, r):
        out, res = r.outputs, []
        for st in self.states:
            key = (st.s, st.x)
            h, g = out["hitting%r" % (key,)], out["survival%r" % (key,)]
            res.append(C.close("hitting + survival = 1 at %r" % (key,), h + g, 1.0, 1e-8))
        for s in self.limit_s:
            res.append(C.close("p(%r) = exp(-2s^3/3)" % s, out["p(%r)" % s],
                               math.exp(-(2.0 / 3.0) * s ** 3), 0.0, 1e-8))
        for t in self.phi_t:
            res.append(C.close("phi(%r) reference" % t, out["phi(%r)" % t],
                               C.phi_reference(t), 1e-9))
        return res


class McOracle(Workload):
    """The three Monte Carlo functionals and their quadrature counterparts."""

    name = "mc_oracle"
    N_PATHS = 8192
    HIT_STATE = (0.0, -1.0)
    PUREBM_Z = 1.0

    def __init__(self, seed, mods, workdir):
        super().__init__(seed, mods, workdir)
        mc = mods["mcsim"]
        # one chunk on one thread: two-thread rounds slow down by up to 2x
        # whenever the second CPU is busy elsewhere, one-thread rounds by 10 %
        self.cfg = mc.McConfig(n_paths=self.N_PATHS, dt=5e-4, t_max=4.0,
                               seed=seed, threads=1)
        purebm_steps = int(round(max(self.cfg.t_max, 5.0) / self.cfg.dt))
        # two sides for the argmax, stop-on-hit runs counted to the horizon
        self.path_steps = float(self.N_PATHS * (3 * self.cfg.n_steps + purebm_steps))

    def setup(self):
        d = self.m["densities"]
        d.chernoff_cdf(np.asarray([0.0]))   # phi and argmax-CDF models
        d.h_density(-1.0, 1.0)              # Airy-zero residue data

    def round(self):
        mc, d = self.m["mcsim"], self.m["densities"]
        st = d.StartState(*self.HIT_STATE)
        r = Round()
        two = mc.simulate_two_sided(self.cfg)
        r.outputs["argmax"], r.outputs["max"] = two.argmax, two.max
        r.outputs["ks"] = mc.ks_statistic(two.argmax, d.chernoff_cdf)
        hit = mc.estimate_hitting_prob(st, self.cfg)
        r.outputs["hits"] = hit.n_hits
        r.outputs["hitting_prob"] = d.hitting_prob(st)
        hist = mc.simulate_pure_bm_passage(self.PUREBM_Z, self.cfg)
        r.outputs["purebm_edges"], r.outputs["purebm_counts"] = hist.edges, hist.counts
        r.outputs["purebm_censored"] = hist.censored
        r.attempted += 5
        return r

    def check(self, r):
        from scipy.stats import kstest  # not imported before setup is timed
        d, out = self.m["densities"], r.outputs
        n = self.N_PATHS
        grid = np.linspace(-6.0, 6.0, 2401)
        cdf = d.chernoff_cdf(grid)
        return [
            C.monotone("chernoff_cdf monotone", cdf, 1e-12),
            C.close("chernoff_cdf(0) = 1/2", float(d.chernoff_cdf(np.asarray([0.0]))[0]),
                    0.5, 1e-9),
            C.close("chernoff_cdf(-6) = 0", float(cdf[0]), 0.0, 1e-9),
            C.close("chernoff_cdf(6) = 1", float(cdf[-1]), 1.0, 1e-9),
            C.close("ks_statistic against scipy.stats.kstest", out["ks"],
                    float(kstest(out["argmax"], d.chernoff_cdf).statistic), 1e-12),
            C.mc_ks("argmax KS to chernoff_cdf", out["ks"], n),
            C.mc_proportion("hitting at %r" % (self.HIT_STATE,), out["hits"], n,
                            out["hitting_prob"]),
            C.purebm_chi2("pure-BM passage from z=1", out["purebm_edges"],
                          out["purebm_counts"], out["purebm_censored"], n,
                          self.PUREBM_Z),
        ]

    def rng_floor_s(self) -> float:
        """Single-thread time to draw ``path_steps`` float32 Philox normals,
        extrapolated from 32 slabs of the engine's shape (8192 x 512)."""
        gen = np.random.Generator(np.random.Philox(self.seed))
        slabs, shape = 32, (8192, 512)
        t0 = time.perf_counter()
        for _ in range(slabs):
            gen.standard_normal(shape, dtype=np.float32)
        per_normal = (time.perf_counter() - t0) / (slabs * shape[0] * shape[1])
        return per_normal * self.path_steps


WORKLOADS = {w.name: w for w in (Tables, PassageQuadrature, McOracle)}
