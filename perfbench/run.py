#!/usr/bin/env python3
"""Benchmark for `mirrorcone analyze`, run from the root of a source checkout.

    python3 perfbench/run.py --workload fans-generic --seed 1 --seconds 20 --trace 0

One closed loop with a single client: the benchmark starts one `mirrorcone`
CLI process at a time (`python3 -m mirrorcone.cli` on the checkout's `src/`,
with MIRRORCONE_THREADS removed from its environment), waits for it, and
checks the report it printed.  The benchmark and its children are pinned to
one CPU, and every time a child takes is rescaled to the nominal speed of a
reference loop timed on that CPU while the call runs (speed.py), because
the host's contention changes this machine's speed by up to a factor of two.
A run makes a fixed number of passes over
the workload's inputs, set by the workload and `--seconds` alone (see
`pass_count`), never by how fast the program turns out to be; a pass times
`mirrorcone validate` on each input (the set-up) and then `analyze` on each.

With `--trace 0` it prints the end-to-end metrics.  With `--trace 1` it
instead runs in-process a pass under cProfile, an untraced pass and a
traced one (spans around each layer's public functions, see tracing.py),
and prints the per-layer metrics.  Every
report of every pass is checked (check.py); failures count in `failed`.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Spans,
per-input times and the run environment are written under .perfbench_out/.
`--record` stores the digests of this run's reports in digests.json.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import namedtuple
from pathlib import Path

import check
import speed
import tracing
from workloads import WORKLOADS, batch, enumerate_xi

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

SETUP_ROUNDS = 8  # validate calls per input in a run
RUN_LIMIT_S = 170.0  # a run stops starting passes that could end after this

# Seconds one untraced pass over each workload's inputs takes on the seed
# commit (2-core VM, Python 3.11).  With --seconds they fix the pass count.
NOMINAL_PASS_S = {"fans-generic": 6.0, "fixtures-uniform": 16.0, "bside-algebra": 7.0}

END_TO_END = {"setup_s": "s", "analyze_s": "s", "analyze_cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = dict(
    [(f"{m}_s", "s") for m in tracing.SPAN_METRICS]
    + [("report.glue_s", "s")]
    + [(m, "bytes" if m == "cli.report_bytes" else "count") for m in tracing.COUNT_METRICS]
    + [("intlat.self_s", "s"), ("intlat.calls", "count"), ("fractions.self_s", "s"),
       ("trace.analyze_s", "s"), ("trace.overhead_s", "s")])


def import_cli():
    """The checkout's `mirrorcone.cli`, imported into this process for in-process passes."""
    sys.path.insert(0, str(SRC))
    os.environ.pop("MIRRORCONE_THREADS", None)
    from mirrorcone import cli
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's src/")
    return cli


def pass_count(workload, seconds):
    """Timed passes of one run: at least two, and enough to fill --seconds at nominal speed.

    The count depends on the workload and --seconds only, so a faster
    program gets no more samples than a slower one.
    """
    return max(2, math.ceil(seconds / NOMINAL_PASS_S[workload]))


def median_passing(calls):
    """Per input, the median value of the calls whose output passed its checks.

    `calls` maps an input to its (passed, value) pairs.  An input none of
    whose calls passed counts its largest value, so a failure can never
    read as a gain.
    """
    return {label: statistics.median(v for ok, v in pairs if ok)
            if any(ok for ok, _ in pairs) else max(v for _, v in pairs)
            for label, pairs in calls.items()}


# One finished child process: exit code, wall and CPU seconds, max RSS, output,
# and its start and end on the perf_counter clock.
Child = namedtuple("Child", "rc wall cpu rss_mb stdout stderr start end")


class Bench:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.passes = pass_count(args.workload, args.seconds)
        self.record_digests = args.record
        self.started = time.monotonic()
        self.dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("MIRRORCONE_THREADS", None)
        self.digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.attempted = 0
        self.failures = []  # (input key, [problems])
        self.report_bytes = {}
        self.calls = []  # per analyze call: label, passed, wall, cpu, rss, speed scale

    # -- inputs and checks ------------------------------------------------

    def write_inputs(self):
        inputs = batch(self.workload, self.seed)
        for inp in inputs:
            inp.path = self.dir / (inp.label.replace("/", "_") + ".json")
            inp.path.write_text(json.dumps(inp.config, sort_keys=True, indent=2))
        return inputs

    def record(self, inp, rc, data, err):
        """Check one analyze call; returns whether it passed."""
        self.attempted += 1
        problems = [f"exit {rc}: {err.strip()[-300:]}"] if rc != 0 else \
            check.check_report(inp, data, self.digests)
        if problems:
            self.failures.append((inp.key, problems))
            return False
        self.report_bytes[inp.label] = len(data)
        if self.record_digests:
            self.digests[inp.key] = check.digest(data)
        return True

    def time_left(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def room_for_pass(self, pass_times):
        """False when one more pass could overrun the run limit.

        A safety stop for a machine many times slower than nominal; at
        nominal speed every run makes all its passes.
        """
        return not pass_times or 1.5 * max(pass_times) < self.time_left()

    # -- child processes --------------------------------------------------

    def run_child(self, argv):
        cmd = [sys.executable, "-m", "mirrorcone.cli", *argv]
        out_path, err_path = self.dir / "stdout", self.dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(1.0, self.time_left()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: end the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, t1 - t0, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024, out_path.read_bytes(),
                     err_path.read_text(errors="replace"), t0, t1)

    def validate(self, inp):
        """One set-up: `mirrorcone validate` on one input, checked.

        Returns (passed, the finished child).
        """
        child = self.run_child(["validate", str(inp.path)])
        self.attempted += 1
        xi, xi0 = enumerate_xi(inp.fixture)
        expected = {"valid": True, "xi_count": len(xi), "xi0_count": len(xi0)}
        try:
            ok = child.rc == 0 and json.loads(child.stdout) == expected
        except ValueError:
            ok = False
        if not ok:
            self.failures.append((inp.key, [f"validate: exit {child.rc}, "
                                            f"{child.stdout[:200]!r}"]))
        return ok, child

    def end_to_end(self, inputs=None):
        """The run's passes of validate + analyze over its inputs.

        The SETUP_ROUNDS set-up calls per input are spread over the passes,
        so that a slow spell of the machine does not fall on all of them.
        Times are at nominal speed (speed.py).  setup_s is the median over
        the inputs of each input's median validate; analyze_s (and
        analyze_cpu_s) is the sum over the inputs of each input's median
        analyze.  peak_rss_mb is the largest max-RSS of a passing analyze
        call, or of any when none passed.
        """
        inputs = inputs or self.write_inputs()
        rounds = math.ceil(SETUP_ROUNDS / self.passes)  # set-up rounds per pass
        setup, analyze = [], []  # (input label, passed, finished child)
        pass_times = []
        with speed.Sampler() as sampler:
            while len(pass_times) < self.passes and self.room_for_pass(pass_times):
                t0 = time.monotonic()
                for _ in range(rounds):
                    for inp in inputs:
                        setup.append((inp.label, *self.validate(inp)))
                for inp in inputs:
                    child = self.run_child(["analyze", str(inp.path), *inp.args])
                    ok = self.record(inp, child.rc, child.stdout, child.stderr)
                    analyze.append((inp.label, ok, child))
                pass_times.append(time.monotonic() - t0)

        # Scales are taken once the run is over: a short call's nearest
        # reference loops may come after it.
        def nominal(calls, field):
            per_input = {}
            for label, ok, child in calls:
                value = getattr(child, field) * sampler.scale(child.start, child.end)
                per_input.setdefault(label, []).append((ok, value))
            return median_passing(per_input)

        self.calls = [[label, ok, child.wall, child.cpu, child.rss_mb,
                       sampler.scale(child.start, child.end)] for label, ok, child in analyze]
        rss = [c.rss_mb for _, ok, c in analyze if ok] or [c.rss_mb for _, _, c in analyze]
        return {"setup_s": statistics.median(nominal(setup, "wall").values()),
                "analyze_s": sum(nominal(analyze, "wall").values()),
                "analyze_cpu_s": sum(nominal(analyze, "cpu").values()),
                "peak_rss_mb": max(rss)}

    # -- in-process traced and profiled passes -----------------------------

    def in_process(self, cli_main, inputs, tracer=None, prof=None):
        total = 0.0
        for inp in inputs:
            if tracer is not None:
                tracer.begin_input(inp.label)
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if prof is not None:
                        prof.enable()
                    try:
                        rc = cli_main(["analyze", str(inp.path), *inp.args])
                    finally:
                        if prof is not None:
                            prof.disable()
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is one failed operation; the run goes on
                rc, err = "traceback", io.StringIO(traceback.format_exc())
            total += time.perf_counter() - t0
            data = out.getvalue().encode()
            if tracer is not None:
                tracer.counts[tracer.label]["cli.report_bytes"] += len(data)
            self.record(inp, rc, data, err.getvalue())
        return total

    def per_layer(self, inputs=None):
        """A profiled in-process pass, then an untraced and a traced one.

        The profiled pass comes first because the first pass in a process
        also pays for lazy imports and for growing the heap; after it, the
        untraced and traced passes differ only by the tracing.  Per-layer
        metrics have no bound, so one traced pass is enough.
        """
        cli = import_cli()
        inputs = inputs or self.write_inputs()
        prof = cProfile.Profile()
        self.in_process(cli.main, inputs, prof=prof)
        tracer = tracing.Tracer()
        untraced = self.in_process(cli.main, inputs)
        with tracer.patched():
            traced = self.in_process(cli.main, inputs, tracer)
        tracing.write_spans(tracer, self.dir / "spans.json")
        metrics = tracing.layer_metrics(tracer, [i.label for i in inputs])
        metrics.update(tracing.profile_metrics(prof))
        metrics["trace.analyze_s"] = traced
        metrics["trace.overhead_s"] = traced - untraced
        return metrics

    # -- environment ------------------------------------------------------

    def environment(self):
        commit = "unknown (not a git checkout)"
        if (ROOT / ".git").exists():
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            if res.returncode == 0:
                commit = res.stdout.strip()
        return {"commit": commit, "python": platform.python_version(),
                "nproc": os.cpu_count(), "platform": platform.platform(),
                "mirrorcone_threads": "stripped from every child environment",
                "report_bytes": self.report_bytes}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's report digests in digests.json")
    args = parser.parse_args(argv)

    if not (SRC / "mirrorcone" / "cli.py").is_file():
        print(f"perfbench: no mirrorcone sources under {SRC}", file=sys.stderr)
        return 2

    # The reference loop must run on the CPU its children run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(args)
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    units = PER_LAYER if args.trace else END_TO_END
    failed = len(bench.failures)
    env = bench.environment()
    (bench.dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "metrics": metrics, "environment": env,
         "calls": bench.calls, "failures": bench.failures}, indent=1))
    if args.record:
        DIGESTS.write_text(json.dumps(bench.digests, indent=1, sort_keys=True) + "\n")

    for key, problems in bench.failures:
        print(f"FAIL {key}: {'; '.join(problems)}")
    print(f"env: commit={env['commit']} python={env['python']} nproc={env['nproc']} "
          f"MIRRORCONE_THREADS stripped")
    print(f"reports: {json.dumps(bench.report_bytes, sort_keys=True)} bytes")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_rate = {failed / max(1, bench.attempted):.6g} ({failed}/{bench.attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": bench.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
