"""Benchmark for the chernoff package: one workload per run.

    python3 bench/run.py --workload tables --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src`` without being installed.  A run builds the cached models the
workload uses (``setup_s``, timed from the start of the process), repeats
whole rounds of the workload's operations until ``--seconds`` have passed
(``wall_s`` is the slowest round), checks the outputs, and prints one JSON
object as the last line of stdout.  ``--trace 1`` wraps the package's layer
boundaries and prints the per-layer metrics instead; see README.md.
"""

import os
import time


def _process_age() -> float:
    """Seconds since this process started, from /proc; 0 where unavailable."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


_T0 = time.perf_counter()
_AGE0 = _process_age()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
from checks import Check  # noqa: E402
from workloads import WORKLOADS, rounds_identical  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def _since_start() -> float:
    return _AGE0 + time.perf_counter() - _T0


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def _import_package() -> dict:
    """The package from this checkout's ``src``, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "chernoff", "__init__.py")):
        raise ImportError("no chernoff package under %s" % src)
    sys.path.insert(0, src)
    from chernoff import airy, cli, densities, mcsim, quadrature
    return {"airy": airy, "cli": cli, "densities": densities, "mcsim": mcsim,
            "quadrature": quadrature}


def _run_rounds(wl, seconds, tracer):
    """Whole rounds until ``seconds`` have passed.  A traced run alternates
    untraced and traced rounds, so the tracing overhead is measured in the
    same process; its first round is untraced and left out of the overhead,
    which needs a traced and a later untraced round."""
    untraced, traced, rounds = [], [], []
    start = time.perf_counter()
    while (not rounds or time.perf_counter() - start < seconds
           or (tracer is not None and len(rounds) < 3)):
        tracing = tracer is not None and len(rounds) % 2 == 1
        if tracer is not None:
            tracer.install() if tracing else tracer.uninstall()
        t0 = time.perf_counter()
        rounds.append(wl.round())
        (traced if tracing else untraced).append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.uninstall()
    return rounds, untraced, traced


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        mods = _import_package()
    except ImportError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(mods, mods["quadrature"].QuadratureBudgetError)
            tracer.install()
        wl = WORKLOADS[args.workload](args.seed, mods, workdir)
        wl.setup()
        setup_s = _since_start()
        if tracer is not None:
            tracer.phase = "pass"
        rounds, untraced, traced = _run_rounds(wl, args.seconds, tracer)
        try:
            checks = wl.check(rounds[0])
        except Exception as exc:  # a missing or malformed output
            traceback.print_exc()
            checks = [Check("checks ran", False, "%s: %s" % (type(exc).__name__, exc))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    same = all(rounds_identical(rounds[0], r) for r in rounds[1:])
    checks.append(Check("rounds give identical outputs", same,
                        "" if same else "outputs differ between rounds"))
    correct = all(c.ok for c in checks)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    if tracer is None:
        metrics = {
            # the slowest round: where the CPU clock boosts only part of the
            # time, the median round swings with the boost from run to run,
            # while the slowest round reads the sustained clock
            "wall_s": _metric(max(untraced), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = _per_layer(tracer, wl, untraced, traced)

    for c in checks:
        if not c.ok:
            print("CHECK FAILED %s: %s" % (c.name, c.detail), file=sys.stderr)
    for e in sorted(set(e for r in rounds for e in r.errors)):
        print("operation failed: %s" % e, file=sys.stderr)
    print("%s seed %d: %d rounds, %d checks, %d failed; %d/%d operations failed"
          % (args.workload, args.seed, len(rounds), len(checks),
             sum(not c.ok for c in checks), failed, attempted), file=sys.stderr)

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                        args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, round_s=untraced + traced,
                       checks=[c.__dict__ for c in checks]), fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.json")
    print(json.dumps(result))
    return 0


def _per_layer(tracer, wl, untraced, traced) -> dict:
    units = dict(tracing.per_layer_names())
    vals = {}
    for phase in tracing.PHASES:
        scale = 1.0 if phase == "setup" else float(len(traced))
        steps = wl.path_steps if phase == "pass" else 0.0
        floor = wl.rng_floor_s() if phase == "pass" else 0.0
        layer = tracing.layer_metrics(tracer.layer_totals(phase), scale, steps, floor)
        vals.update({"%s.%s" % (phase, k): v for k, v in layer.items()})
    base, with_trace = statistics.median(untraced[1:]), statistics.median(traced)
    vals.update({
        "trace.pass_untraced_s": base, "trace.pass_traced_s": with_trace,
        "trace.overhead_s": with_trace - base,
        "trace.overhead_pct": 100.0 * (with_trace - base) / base,
        "trace.missing": len(tracer.missing),
    })
    if tracer.missing:
        print("layers missing (reported as 0): %s" % ", ".join(tracer.missing),
              file=sys.stderr)
    return {k: _metric(vals[k], units[k]) for k, _ in tracing.per_layer_names()}


if __name__ == "__main__":
    sys.exit(main())
