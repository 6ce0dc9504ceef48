#!/usr/bin/env python3
"""semispec benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: semispec is imported from the
checkout's src/ directory.  The seed fixes the workload's inputs.  After
one warm-up pass, passes run back to back until the next one would end
more than --seconds after the first began; every item is then checked for
correctness.

--trace 0 reports the end-to-end metrics, measured with tracing off.  Each
timed call is followed by a short run of calibrate.py's fixed loop, which
pass_norm_s uses to factor out the host's changing speed.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics from the traced ones (see spans.py).

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The environment, pass times, problems and spans go to
perfbench/results/<workload>-seed<seed>-trace<trace>.json.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
INHERITED_THREADS = {v: os.environ.get(v) for v in THREAD_VARS}
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy loads BLAS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import STEP_REF_S, step_seconds  # noqa: E402
from spans import (  # noqa: E402
    PER_LAYER, Tracer, layer_metrics, record_written, traced)
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
RUN_SECONDS = 30
SETUP_SAMPLES = 7
MIN_ROUNDS = 2
CAL_MIN_S = 0.05
CAL_SHARE = 0.15  # calibration time after a timed call, as a share of it

# (name, unit, better, bound): what a user of semispec sees.  Wall time
# per pass (pass_s) is printed but not gated: on a shared host it drifts
# 15-30% between runs, more than any bound allows.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_norm_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def import_semispec():
    src = ROOT / "src"
    if not (src / "semispec" / "__init__.py").is_file():
        sys.exit(f"no semispec sources under {src}")
    sys.path.insert(0, str(src))
    import semispec
    import semispec.experiments as ex
    return semispec, ex


def setup_child(args):
    """One set-up, in a fresh process: import, then build the configs."""
    _, ex = import_semispec()
    w = WORKLOADS[args.workload]
    w.configs(ex, w.value(w.base(args.seed), 0), str(RESULTS / "setup"))
    print(repr(time.monotonic()))  # CLOCK_MONOTONIC is system-wide


def measure_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


@dataclass
class Pass:
    index: int
    traced: bool
    value: float
    seconds: float
    outcomes: list
    norm_seconds: float | None = None  # seconds scaled to STEP_REF_S


class Clock:
    """Times the calls of untraced passes.  With ``calibrate``, it runs
    the calibration loop after each call, outside the call's time, and
    scales the call by the mean step time just before and after it."""

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.step = step_seconds(CAL_MIN_S) if calibrate else None
        self.calls = []  # (seconds, scaled seconds or None)

    @contextmanager
    def unit(self):
        t0 = time.perf_counter()
        yield
        elapsed = time.perf_counter() - t0
        scaled = None
        if self.calibrate:
            after = step_seconds(max(CAL_MIN_S, CAL_SHARE * elapsed))
            scaled = elapsed * STEP_REF_S * 2 / (self.step + after)
            self.step = after
        self.calls.append((elapsed, scaled))

    def take(self):
        """Seconds and scaled seconds of the calls since the last take."""
        calls, self.calls = self.calls, []
        return (sum(c[0] for c in calls),
                sum(c[1] for c in calls) if self.calibrate else None)


def run_passes(workload, ex, base, seconds, tracer, scratch):
    """Warm-up pass 0, then rounds of one untraced (and, when tracing, one
    traced) pass until the next round would exceed ``seconds``."""
    passes = []
    absent = set()
    clock = None

    def one(index, with_trace):
        value = workload.value(base, index)
        configs = workload.configs(ex, value, str(scratch / f"pass{index}"))
        gc.collect()  # earlier passes' garbage is not this pass's cost
        norm = None
        if with_trace:
            with traced(ex, tracer) as missing:
                with tracer.span("pass") as root:
                    outcomes = workload.run(ex, configs, tracer)
            elapsed = root.end - root.start
            absent.update(missing)
            record_written(tracer)
        elif clock is None:  # warm-up
            t0 = time.perf_counter()
            outcomes = workload.run(ex, configs)
            elapsed = time.perf_counter() - t0
        else:
            outcomes = workload.run(ex, configs, unit=clock.unit)
            elapsed, norm = clock.take()
        passes.append(Pass(index, with_trace, value, elapsed, outcomes, norm))

    one(0, False)
    clock = Clock(calibrate=tracer is None)
    kinds = (False, True) if tracer is not None else (False,)
    t_start = time.perf_counter()
    rounds = 0
    while True:
        for with_trace in kinds:
            one(len(passes), with_trace)
        rounds += 1
        used = time.perf_counter() - t_start
        if rounds >= MIN_ROUNDS and used * (rounds + 1) / rounds > seconds:
            return passes, sorted(absent)


def check_all(semispec, ex, workload, passes):
    from checks import check_bundle, check_experiment, check_prediction

    problems = []
    for p in passes:
        for o in p.outcomes:
            if o.error is not None:
                found = [o.error]
            elif workload.name == "predict":
                found = check_prediction(o.config, o.result)
            else:
                found = check_experiment(ex, semispec, o.result)
                if workload.name == "figures":
                    found += check_bundle(o.result)
            if found:
                problems.append({"pass": p.index, "item": o.label,
                                 "problems": found})
    return problems


def max_dist_log10(passes):
    """log10 of the worst principal_exact pair distance, median over passes."""
    worst = []
    for p in passes:
        dists = [o.result.principal_report.summary.max_dist
                 for o in p.outcomes if o.error is None]
        if dists and max(dists) > 0:
            worst.append(math.log10(max(dists)))
    return statistics.median(worst) if worst else None


def tail_percentile(samples):
    """Highest of p99/p90/p75 with at least ten samples beyond it."""
    for p in (99, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def git_sha():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment():
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "thread_env_inherited": INHERITED_THREADS,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        return setup_child(args)

    semispec, ex = import_semispec()
    workload = WORKLOADS[args.workload]
    base = workload.base(args.seed)
    setup = measure_setup(args)
    scratch = RESULTS / f"tmp-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        passes, absent = run_passes(workload, ex, base, args.seconds, tracer,
                                    scratch)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = check_all(semispec, ex, workload, passes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    timed = passes[1:]
    plain = [p.seconds for p in timed if not p.traced]
    attempted = sum(len(p.outcomes) for p in passes)
    failed = len(problems)
    accuracy = (max_dist_log10([p for p in timed if not p.traced])
                if workload.name != "predict" else None)
    env = environment()

    print(f"semispec benchmark: workload={workload.name} seed={args.seed} "
          f"{workload.parameter}={base!r} trace={args.trace}")
    print("  env: " + json.dumps(env, sort_keys=True))
    print(f"  passes: 1 warm-up + {len(timed)} timed, "
          f"{sum(p.seconds for p in timed):.2f} s measured; "
          f"{workload.parameter} scaled by 1 + 1e-9 * pass index")
    if args.trace:
        traced_s = [p.seconds for p in timed if p.traced]
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_s"] = (statistics.median(traced_s)
                                       - statistics.median(plain))
        units = {name: unit for name, unit, _ in PER_LAYER}
        print(f"  per-layer metrics: means over {len(traced_s)} traced "
              f"passes ({len(plain)} untraced passes for the overhead)")
        if absent:
            print(f"  absent stage names (their layers read 0): "
                  f"{', '.join(absent)}")
    else:
        metrics = {"setup_s": statistics.median(setup),
                   "pass_norm_s": statistics.median(
                       p.norm_seconds for p in timed),
                   "peak_rss_mb": peak_rss_mb}
        units = {name: unit for name, unit, _, _ in END_TO_END}
        tail = tail_percentile(plain)
        notes = {
            "setup_s": f"median of {len(setup)} set-ups in fresh processes",
            "pass_norm_s": f"median of n={len(plain)} passes, each call "
                           f"scaled by {STEP_REF_S:g} s / calibration step",
            "peak_rss_mb": "ru_maxrss after the timed passes",
        }
    for name, value in metrics.items():
        note = "" if args.trace else f"  ({notes[name]})"
        print(f"  {name:30s} {value!r} {units[name]}{note}")
    if not args.trace:
        print(f"  {'pass_s':30s} {statistics.median(plain)!r} s  (wall, "
              f"median "
              f"of n={len(plain)} passes; " + (
                  f"p{tail[0]} {tail[1]!r} s)" if tail else
                  "no tail percentile: fewer than 10 samples beyond p75)"))
    if accuracy is not None:
        print(f"  {'max_dist_log10':30s} {accuracy!r} log10  (worst "
              "principal_exact pair distance of a pass, median over passes)")
    print(f"  {'fail_frac':30s} {failed / attempted!r}  "
          f"({failed} of {attempted} items, warm-up included)")
    for p in problems[:5]:
        last = p["problems"][0].strip().splitlines()[-1]
        print(f"  FAILED pass {p['pass']} {p['item']}: {last}",
              file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "parameter": workload.parameter, "base": base,
        "environment": env, "setup_s": setup,
        "passes": [{"index": p.index, "traced": p.traced, "value": p.value,
                    "seconds": p.seconds, "norm_seconds": p.norm_seconds}
                   for p in passes],
        "metrics": metrics, "max_dist_log10": accuracy,
        "attempted": attempted, "failed": failed, "problems": problems,
        "absent": absent,
        "spans": tracer.to_json() if tracer is not None else [],
    }
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
