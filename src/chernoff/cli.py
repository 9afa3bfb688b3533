"""Command-line interface: tabulate densities, run verification suites,
run simulations, and compare quadrature against Monte Carlo.

Exit codes: 0 success, 1 check/concordance failure, 2 usage error,
3 numerical failure.  Output files are written atomically after all values
are computed, so a numerical failure leaves no partial file behind; stdout
is deterministic for identical invocations (wall-clock notes go to stderr).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import densities as dens
from . import mcsim, verify
from .airy import AiryOverflowError
from .densities import ProbabilityRangeError, StartState
from .quadrature import QuadratureBudgetError

_NUMERICAL_ERRORS = (QuadratureBudgetError, AiryOverflowError,
                     ProbabilityRangeError, ArithmeticError, OverflowError)


class _UsageError(ValueError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise _UsageError(message)


def _checked(make, *args, **kw):
    """Build a value object whose constructor validates only its own
    fields, so its ValueError is a usage error."""
    try:
        return make(*args, **kw)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _grid(args, axis: str = "") -> np.ndarray:
    """The evenly stepped grid of one axis, at least two points: --from,
    --to, --step, or with axis "a_" the joint2 levels --a-from, --a-to,
    --a-step."""
    names = [axis + n for n in ("from", "to", "step")]
    lo, hi, step = (getattr(args, n) for n in names)
    flo, fhi, fstep = ("--" + n.replace("_", "-") for n in names)
    _require(all(map(math.isfinite, (lo, hi, step))) and step > 0 and hi > lo,
             "need finite %s, %s, %s with step > 0 and %s > %s"
             % (flo, fhi, fstep, fhi, flo))
    try:
        k = np.arange(int(round((hi - lo) / step)) + 1)
    except (OverflowError, ValueError, MemoryError):
        raise _UsageError("%s %g gives too many grid points" % (fstep, step)) from None
    g = lo + step * k
    g = g[g <= hi + 1e-12 * max(1.0, abs(hi))]
    _require(g.size >= 2, "%s %g is wider than %s - %s; a grid needs at least two points"
             % (fstep, step, fhi, flo))
    return g


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        tmp = path + ".part"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)


def _fmt_rows(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# tabulate
# ----------------------------------------------------------------------------

def cmd_tabulate(args) -> int:
    which = args.which
    try:
        if which == "chernoff":
            table = dens.tabulate("argmax", _grid(args))
            text = _fmt_rows("t,f", zip(table.grid, table.values))
        elif which == "max2":
            g = _grid(args)
            _require(g[0] > 0.0, "tabulate --which max2 needs --from > 0")
            table = dens.tabulate("joint_marginal", g)
            text = _fmt_rows("a,f", zip(table.grid, table.values))
        elif which == "firstpassage":
            st = _checked(StartState, args.s, args.x)
            g = _grid(args)
            _require(g[0] > st.s, "tabulate --which firstpassage needs --from > --s")
            table = dens.tabulate("first_passage", g, state=st)
            text = _fmt_rows("t,f", zip(table.grid, table.values))
        elif which == "phi":
            g = _grid(args)
            vals = dens._clamp_density(dens.phi(g))
            text = _fmt_rows("t,f", zip(g, vals))
        elif which == "h":
            _require(args.x < 0, "tabulate --which h needs --x < 0")
            shift = _checked(StartState, 0.0, args.x).shift
            g = _grid(args)
            _require(g[0] > 0, "tabulate --which h needs --from > 0")
            vals = dens._clamp_density(dens._h_grid(shift, g)[0])
            text = _fmt_rows("t,f", zip(g, vals))
        elif which == "joint2":
            g, aa = _grid(args), _grid(args, "a_")
            _require(aa[0] > 0.0, "tabulate --which joint2 needs --a-from > 0")
            vals = dens._clamp_density(dens._joint_two_sided_grid(g, aa))
            rows = [(t, a, f) for t, row in zip(g, vals) for a, f in zip(aa, row)]
            text = _fmt_rows("t,a,f", rows)
        else:  # pragma: no cover - argparse restricts choices
            return 2
    except _NUMERICAL_ERRORS as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    _write_out(args.out, text)
    return 0


# ----------------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------------

def cmd_verify(args) -> int:
    profile = "strict" if args.strict else "default"
    suites = {"all": tuple(verify.SUITES), "mc": ()}.get(args.suite, (args.suite,))
    cfg = None
    if args.suite in ("all", "mc"):
        cfg = _checked(mcsim.McConfig, n_paths=args.paths, dt=5e-4, t_max=4.0,
                       seed=args.seed, threads=args.threads)
    try:
        reports = list(verify.run_all(profile, suites)) if suites else []
        if cfg is not None:
            reports += verify.mc_concordance(cfg)
    except _NUMERICAL_ERRORS as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    print(verify.summarize(reports))
    if args.report:
        _write_out(args.report, verify.to_ndjson(reports))
    return 0 if all(r.passed for r in reports) else 1


# ----------------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------------

def _mc_config(args, two_sided: bool) -> mcsim.McConfig:
    if two_sided:
        _require(args.tmax >= mcsim.TWO_SIDED_T_MIN,
                 "two-sided runs need --tmax >= %g" % mcsim.TWO_SIDED_T_MIN)
    return _checked(mcsim.McConfig, n_paths=args.paths, dt=args.dt,
                    t_max=args.tmax, seed=args.seed,
                    bridge_correction=not args.no_bridge,
                    threads=args.threads)


def cmd_simulate(args) -> int:
    cfg = _mc_config(args, two_sided=args.what in ("argmax", "max"))
    if args.what in ("argmax", "max"):
        sample = mcsim.simulate_two_sided(cfg)
        vals = sample.argmax if args.what == "argmax" else sample.max
        text = _fmt_rows("value", ((v,) for v in vals))
    else:  # purebm
        _require(0.0 < args.z < math.inf, "simulate --what purebm needs a finite --z > 0")
        hist = mcsim.simulate_pure_bm_passage(args.z, cfg)
        text = _fmt_rows("value,count",
                         zip(hist.edges[:-1], hist.counts.astype(float)))
    _write_out(args.out, text)
    return 0


# ----------------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------------

def cmd_compare(args) -> int:
    cfg = _mc_config(args, two_sided=args.target == "argmax")
    ok = True
    if args.target == "argmax":
        [rep] = verify.mc_concordance(cfg, ("argmax",))
        ok = rep.passed
        print("argmax: KS=%.6f bound=%.6f paths=%d -> %s"
              % (rep.computed, rep.tol, cfg.n_paths, "OK" if ok else "FAIL"))
    elif args.target == "hitting":
        _require(args.x < 0.0, "compare --target hitting needs --x < 0")
        st = _checked(StartState, args.s, args.x)
        [rep] = verify.mc_concordance(cfg, ("hitting",), st)
        ok = rep.passed
        se = rep.tol / 3.0
        print("hitting(%g,%g): quadrature=%.6f mc=%.6f +- %.6f z=%+.2f -> %s"
              % (st.s, st.x, rep.target, rep.computed, se,
                 (rep.computed - rep.target) / se, "OK" if ok else "FAIL"))
    else:  # max: one-sided from (0, 0), histogram bins around the a grid
        width = args.bin_width
        # the bin around a = 0.2 must stay above the start level 0
        _require(0.0 < width < 0.4, "compare --target max needs 0 < --bin-width < 0.4")
        st = StartState(0.0, 0.0)
        sample = mcsim.simulate_one_sided(st, cfg)
        for a in (0.2, 0.5, 1.0):
            lo, hi = a - width / 2.0, a + width / 2.0
            p_hat = float(np.mean((sample.max >= lo) & (sample.max < hi)))
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / cfg.n_paths)
            dens_vals = [dens.max_density_one_sided(v, st)
                         for v in (lo, a, hi)]
            p_exp = (dens_vals[0] + 4 * dens_vals[1] + dens_vals[2]) / 6.0 * width
            z = (p_hat - p_exp) / se if se else 0.0
            point_ok = abs(z) <= 3.0
            ok = ok and point_ok
            print("max@%.1f: quadrature=%.6f mc=%.6f +- %.6f z=%+.2f -> %s"
                  % (a, p_exp, p_hat, se, z, "OK" if point_ok else "FAIL"))
    return 0 if ok else 1


# ----------------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------------

def _add_mc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--paths", type=int, default=100000)
    p.add_argument("--dt", type=float, default=5e-4)
    p.add_argument("--tmax", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-bridge", action="store_true",
                   help="disable bridge crossing/max sampling")
    p.add_argument("--threads", type=int,
                   default=os.environ.get("CHERNOFF_THREADS", "1"))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chernoff",
        description="Distributions of the max/argmax of Brownian motion "
                    "minus a parabola: tabulation, verification, simulation.")
    sub = ap.add_subparsers(dest="verb", required=True)

    t = sub.add_parser("tabulate", help="write a density table as CSV")
    t.add_argument("--which", required=True,
                   choices=["chernoff", "max2", "joint2", "firstpassage",
                            "phi", "h"])
    t.add_argument("--from", type=float, required=True)
    t.add_argument("--to", type=float, required=True)
    t.add_argument("--step", type=float, required=True)
    t.add_argument("--a-from", type=float, default=0.1)
    t.add_argument("--a-to", type=float, default=3.0)
    t.add_argument("--a-step", type=float, default=0.1)
    t.add_argument("--s", type=float, default=0.0, help="start time")
    t.add_argument("--x", type=float, default=-1.0, help="start level")
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_tabulate)

    v = sub.add_parser("verify", help="run the verification checks")
    v.add_argument("--suite", default="all",
                   choices=["all", *verify.SUITES, "mc"])
    v.add_argument("--strict", action="store_true",
                   help="divide every tolerance by 100")
    v.add_argument("--paths", type=int, default=100000)
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--threads", type=int,
                   default=os.environ.get("CHERNOFF_THREADS", "1"))
    v.add_argument("--report", default=None,
                   help="write line-delimited JSON records here")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate", help="run the Monte Carlo oracle")
    s.add_argument("--what", required=True, choices=["argmax", "max", "purebm"])
    s.add_argument("--z", type=float, default=1.0,
                   help="start level for purebm")
    s.add_argument("--out", default=None)
    _add_mc_flags(s)
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser("compare", help="quadrature vs Monte Carlo")
    c.add_argument("--target", required=True,
                   choices=["argmax", "max", "hitting"])
    c.add_argument("--s", type=float, default=0.0)
    c.add_argument("--x", type=float, default=-1.0)
    c.add_argument("--bin-width", type=float, default=0.1)
    _add_mc_flags(c)
    c.set_defaults(func=cmd_compare)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        code = args.func(args)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    print("elapsed %.1f s" % (time.time() - t0), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
