#!/usr/bin/env python3
"""Benchmark for heisgeo: four workloads, end-to-end and per-layer metrics.

Run from the root of a heisgeo source tree:

    python3 perfbench/run.py --workload distance --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, one after another

A run builds the workload's seeded input list, then makes a fixed number of
whole passes over it, set per workload in proportion to --seconds (never read
off the clock); it times each operation and checks its output against the
reference computations in reference.py.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones from a traced run (see
tracing.py and README.md).  The program is imported from ./src of the
working tree, never from an installed copy.
"""

import os
import sys

# one BLAS thread, and the program's own defaults, in this process and in
# every child it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("HEISGEO_SEED", "HEISGEO_PURE_NUMPY"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

WORKLOADS = ("closed_form", "distance", "rk4_oracle", "cli_cold")
# highest percentile with at least ten samples beyond it in the shortest run;
# rk4_oracle and cli_cold runs have fewer than forty operations, so they have
# no tail and their latency_tail_ms is the median
TAIL_PERCENTILE = {"closed_form": 99, "distance": 85}
# passes a run makes at --seconds 20, scaled in proportion to --seconds: a
# constant, never read off the clock, so that every run of a workload attempts
# the same operations however fast the machine is that day.  On the reference
# machine (README.md) they take 25 s, 16 s, 33 s and 16 s: closed_form and
# rk4_oracle get the longest runs because their op times drift most with the
# machine's speed.
PASSES_AT_20_S = {"closed_form": 125, "distance": 1, "rk4_oracle": 4, "cli_cold": 2}
SETUP_REPEATS = 3
MiB = 1024.0  # ru_maxrss is in KiB on Linux


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, workdir, tag):
    """Run argv with stdout and stderr in files; returns (seconds, exit code,
    stdout, stderr, peak RSS in MiB of that child)."""
    out_path = os.path.join(workdir, f"{tag}.out")
    err_path = os.path.join(workdir, f"{tag}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8") as f:
        stderr = f.read()
    return seconds, proc.returncode, stdout, stderr, usage.ru_maxrss / MiB


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


class CliCall:
    """One ``python -m heisgeo.cli`` invocation with its output check."""

    def __init__(self, args, check, workdir):
        self.kind = "cli_" + args[0] + ("_quotient" if "--quotient" in args else "")
        self.args = args
        self.doc_check = check
        self.workdir = workdir
        self.known_failure = False
        self.peak_rss_mb = 0.0

    def timed(self):
        """(seconds, stdout, error): a non-zero exit is returned as a string."""
        seconds, code, out, err, rss = run_child(
            [sys.executable, "-m", "heisgeo.cli", *self.args], self.workdir, "cli"
        )
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if code != 0:
            return seconds, None, f"exit {code}: {err.strip()[:300]}"
        return seconds, out, None

    def check(self, out):
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        return self.doc_check(doc)


def build(workload, seed, workdir):
    import numpy as np

    import workloads

    rng = np.random.default_rng(seed)
    if workload == "cli_cold":
        return [CliCall(a, c, workdir) for a, c in workloads.build_cli_cold(rng, workdir, ROOT)]
    return getattr(workloads, f"build_{workload}")(rng, workdir, ROOT)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ok_times = []
        self.timed_s = 0.0
        self.pass_rates = []  # passed ops per timed second, one per pass
        self.mismatches = []
        self.unexpected = []

    def record(self, op, seconds, out, error):
        """`error` is None, the exception an in-process op raised, or a CLI
        call's exit message.  Only SolverFailure on a known-failure input is
        expected; any other failure makes the run incorrect."""
        self.attempted += 1
        self.timed_s += seconds
        if error is not None:
            self.failed += 1
            if isinstance(error, Exception):
                if op.known_failure and type(error).__name__ == "SolverFailure":
                    return
                error = f"{type(error).__name__}: {error}"
            self.unexpected.append(f"{op.kind}: {error}")
            return
        problem = op.check(out)
        if problem:
            self.mismatches.append(f"{op.kind}: {problem}")
        else:
            self.ok_times.append(seconds)


def run_passes(ops, passes, tally):
    for _ in range(passes):
        ok, timed = len(tally.ok_times), tally.timed_s
        for op in ops:
            tally.record(op, *op.timed())
        tally.pass_rates.append((len(tally.ok_times) - ok) / (tally.timed_s - timed))


def passes_for(workload, seconds, ops):
    """PASSES_AT_20_S scaled to `seconds`, and at least the passes needed for
    ten samples beyond the tail percentile."""
    passes = max(1, int(PASSES_AT_20_S[workload] * seconds / 20.0 + 0.5))
    p = TAIL_PERCENTILE.get(workload)
    if p is not None:
        good = sum(1 for op in ops if not op.known_failure)
        passes = max(passes, math.ceil(10.0 / (1.0 - p / 100.0) / good))
    return passes


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it exports one."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_record(args, extra):
    import importlib.util

    import numpy
    import scipy

    import heisgeo

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "using_numba": bool(heisgeo.USING_NUMBA),
        "heisgeo": os.path.relpath(os.path.dirname(heisgeo.__file__), ROOT),
        **extra,
    }


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def measure_setup(args, workdir):
    """Median wall time of fresh processes that import, build the inputs and
    run one warm-up operation."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    times = []
    for i in range(SETUP_REPEATS):
        seconds, code, _, err, _ = run_child(argv, workdir, f"setup{i}")
        if code != 0:
            raise RuntimeError(f"set-up process failed: {err.strip()[:500]}")
        times.append(seconds)
    return statistics.median(times)


def end_to_end(args, workdir):
    setup_s = measure_setup(args, workdir)
    ops = build(args.workload, args.seed, workdir)
    ops[0].timed()  # warm-up, as in the set-up processes
    tally = Tally()
    t0 = time.perf_counter()
    passes = passes_for(args.workload, args.seconds, ops)
    run_passes(ops, passes, tally)
    wall = time.perf_counter() - t0
    if args.workload == "cli_cold":
        peak = max(op.peak_rss_mb for op in ops)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MiB
    times_ms = [1e3 * s for s in tally.ok_times]
    p = TAIL_PERCENTILE.get(args.workload, 50)
    metrics = {
        "setup_s": (setup_s, "s"),
        # the median pass, so that a slow spell of the machine within a run
        # moves this no more than it moves latency_p50_ms
        "ops_per_s": (statistics.median(tally.pass_rates), "1/s"),
        "latency_p50_ms": (statistics.median(times_ms), "ms"),
        "latency_tail_ms": (statistics.quantiles(times_ms, n=100, method="inclusive")[p - 1], "ms"),
        "peak_rss_mb": (peak, "MiB"),
    }
    extra = {"passes": passes, "ops_per_pass": len(ops), "wall_s": wall, "timed_s": tally.timed_s,
             "tail_percentile": p, "op_kinds": Counter(op.kind for op in ops)}
    return tally, metrics, extra


def traced(args, workdir):
    """Untraced and traced passes in turn; per-layer metrics come from the
    traced ones and the overhead compares the two."""
    import tracing

    if args.workload == "cli_cold":
        return traced_cli(args, workdir)
    ops = build(args.workload, args.seed, workdir)
    ops[0].timed()
    tally, tracer = Tally(), tracing.Tracer()
    pairs = max(1, int(0.5 * passes_for(args.workload, args.seconds, ops) + 0.5))
    for _ in range(pairs):  # alternate, so drift in machine speed hits both sides alike
        overhead_pair(tally, tracer, lambda: run_passes(ops, 1, tally))
    metrics = tracing.layer_metrics(tracer.spans, pairs)
    metrics.update({"cli.import_ms": (0.0, "ms"), "cli.modules_loaded": (0.0, "count"),
                    "cli.python_start_ms": (0.0, "ms")})
    metrics["trace.overhead_pct"] = (tracer.overhead_pct(), "%")
    return tally, metrics, {"passes": 2 * pairs, "ops_per_pass": len(ops), "spans": tracer.spans}


def overhead_pair(tally, tracer, one_pass):
    """One untraced and one traced pass; their op times go to the tracer's
    overhead account."""
    before = tally.timed_s
    one_pass()
    middle = tally.timed_s
    tracer.install()
    try:
        one_pass()
    finally:
        tracer.remove()
    tracer.account(middle - before, tally.timed_s - middle)


MAIN_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time\n"
    "before = len(sys.modules)\n"
    "t0 = time.perf_counter()\n"
    "import heisgeo.cli\n"
    "print(time.perf_counter() - t0, len(sys.modules) - before)\n"
)


def traced_cli(args, workdir):
    """Start-up floor and import cost from fresh processes, then main(argv)
    for each call of the pass, in this process, untraced and traced."""
    import tracing

    start = [run_child([sys.executable, "-c", "pass"], workdir, "start")[0] for _ in range(5)]
    probes = []
    for _ in range(3):
        _, code, out, err, _ = run_child([sys.executable, "-c", IMPORT_PROBE], workdir, "import")
        if code != 0:
            raise RuntimeError(f"import probe failed: {err.strip()[:500]}")
        seconds, modules = out.split()
        probes.append((float(seconds), int(modules)))

    import heisgeo.cli as cli

    calls = build("cli_cold", args.seed, workdir)

    def main_pass(tally):
        for call in calls:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                code = cli.main(call.args)
            seconds = time.perf_counter() - t0
            error = None if code == 0 else f"exit {code}"
            tally.record(call, seconds, buf.getvalue(), error)

    main_pass(Tally())  # warm-up
    tally, tracer = Tally(), tracing.Tracer()
    for _ in range(MAIN_REPEATS):  # alternate, so drift hits both sides alike
        overhead_pair(tally, tracer, lambda: main_pass(tally))
    metrics = tracing.layer_metrics(tracer.spans, MAIN_REPEATS)
    metrics["cli.python_start_ms"] = (1e3 * statistics.median(start), "ms")
    metrics["cli.import_ms"] = (1e3 * statistics.median(s for s, _ in probes), "ms")
    metrics["cli.modules_loaded"] = (float(statistics.median(m for _, m in probes)), "count")
    metrics["trace.overhead_pct"] = (tracer.overhead_pct(), "%")
    extra = {"passes": 2 * MAIN_REPEATS, "ops_per_pass": len(calls), "spans": tracer.spans}
    return tally, metrics, extra


def run_one(args):
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            build(args.workload, args.seed, workdir)[0].timed()
            return 0
        if args.trace:
            tally, raw, extra = traced(args, workdir)
            spans = extra.pop("spans")
        else:
            tally, raw, extra = end_to_end(args, workdir)
            spans = None
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run's work directory is still there
            pass
    for line in tally.mismatches[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    for line in tally.unexpected[:20]:
        print(f"UNEXPECTED FAILURE {line}", file=sys.stderr)
    record = run_record(args, {**extra, "mismatches": len(tally.mismatches),
                               "unexpected_failures": len(tally.unexpected)})
    result = {
        "correct": not tally.mismatches and not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
    if spans is not None:
        with open(os.path.join(out_dir, stem + "-spans.json"), "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "error", "value"], "spans": spans}, f)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, with a readable summary."""
    summary = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:48s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "heisgeo", "__init__.py")):
        print(f"no heisgeo source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
