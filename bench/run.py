"""routercell benchmark: one command, three workloads, an optional traced run.

Usage, from the root of the repository::

    python3 bench/run.py --workload campaign|deembed|cli --seed N \
        --seconds S --trace 0|1 [--smoke]

The library is imported from ``src/`` of this checkout; the ``cli``
workload runs ``sys.executable -m routercell.cli`` with ``src`` on
``PYTHONPATH`` (no installed console script is needed).  With ``--trace
0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run.  End-to-end timings are corrected for the host's speed
(``hostspeed.py``); the raw figures are printed beside them.  ``--smoke``
shortens everything for a quick test.  Results, spans and scratch
directories go to ``bench/out/``.
"""

import os

# Pin BLAS threads before numpy is imported here or in any child process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
IMPORT_PROBES = 3
TRACE_BLOCKS = 8
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
IMPORT_PROBE = ("import time; t = time.perf_counter(); import routercell.cli; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "fail_rate": "fraction",
    "result_err_max": "fraction",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="routercell benchmark")
    parser.add_argument("--workload", required=True, choices=["campaign", "deembed", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up sample, minimal warm-up and loop (for tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def benchmark_config() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def env_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def make_workdir(workload: str) -> Path:
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT))


def setup_probe(workload: str, seed: int) -> int:
    """Child side of ``setup_s``: import, build the inputs, say ready."""
    import routercell  # noqa: F401

    if workload == "cli":
        import routercell.cli  # noqa: F401
    import workloads

    workdir = make_workdir(workload)
    try:
        wl = workloads.WORKLOADS[workload](workdir)
        workloads.visit_order(seed, wl.pool_size)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int, repeats: int, host) -> tuple[list, list]:
    """Seconds from spawning a fresh interpreter until its first op is ready.

    Returns the host-corrected samples and the raw ones.  The host's speed
    is probed with a reference child before each sample and after the last.
    """
    from workloads import child_env

    samples, intervals = [], []
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(repeats):
        host.probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        line = proc.stdout.readline()
        ready = time.perf_counter()
        _, err = proc.communicate(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')[-500:]}")
        samples.append(ready - t0)
        intervals.append((t0, ready))
    host.probe()
    return [host.measure(*i)[1] for i in intervals], samples


def measure_cli_import(repeats: int) -> list[float]:
    from workloads import child_env

    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(),
                             capture_output=True, check=True, timeout=120)
        samples.append(float(out.stdout))
    return samples


def tail(sorted_ms: list[float]) -> tuple[float, str]:
    """Latency at the highest percentile that has at least ten samples beyond it.

    The candidates are p50, p90, p99, p99.9 and p99.99 (nearest rank).  With
    fewer than twenty samples none qualifies and the maximum is reported
    instead; the label names the percentile and the sample count.
    """
    n = len(sorted_ms)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(round(n * pct / 100.0, 9))  # round: 99.9 is inexact in binary
        if n - rank >= 10:
            return sorted_ms[rank - 1], f"p{pct:g} of {n} ops, {n - rank} beyond"
    return sorted_ms[-1], f"max of {n} ops (no percentile has 10 beyond)"


class Stats:
    """Outcomes of the ops of one mode (untraced or traced).

    Per op: when it started, when it returned and when its check ended, on
    the clock of the host-speed reference, and its wall time.  ``correct``
    turns these into raw and host-corrected seconds.
    """

    def __init__(self):
        self.intervals: list[tuple[float, float, float]] = []
        self.wall_latencies: list[float] = []
        self.latencies: list[float] = []  # raw op seconds, set by correct()
        self.corrected: list[float] = []  # host-corrected op seconds
        self.busy_raw_s = 0.0             # ops and their checks, raw
        self.busy_s = 0.0                 # the same, host-corrected
        self.failed = 0
        self.errors: list[float] = []
        self.reasons: list[str] = []
        self.child_rss_mb = 0.0
        self.walls: dict = {}
        self.import_s: list = []

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    def correct(self, host) -> None:
        self.latencies, self.corrected = [], []
        self.busy_raw_s = self.busy_s = 0.0
        for t0, t_op, t_check in self.intervals:
            raw, corrected = host.measure(t0, t_op)
            self.latencies.append(raw)
            self.corrected.append(corrected)
            raw, corrected = host.measure(t0, t_check)
            self.busy_raw_s += raw
            self.busy_s += corrected


def run_ops(wl, order, seconds, min_ops, stats, host, start=0, tracer=None) -> int:
    """Closed loop, one caller: ops back to back for ``seconds`` (and ``min_ops``).

    Only the op is timed; its check runs after the clock stops but inside
    the busy time that ``ops_per_s`` divides by.  The host's speed is
    probed before each op and after the last; probes count in neither.
    Returns the next op index.
    """
    from workloads import PipelineResult

    i = start
    deadline = time.perf_counter() + seconds
    while i - start < min_ops or time.perf_counter() < deadline:
        host.probe()
        index = order[i % len(order)]
        if tracer is not None:
            tracer.op = i
        wall = time.perf_counter()
        t0 = host.clock()
        try:
            result = wl.op(index, traced=tracer is not None)
            failure = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, failure = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        t_op = host.clock()
        stats.wall_latencies.append(time.perf_counter() - wall)
        if failure is None:
            check = wl.check(index, result)
            if check.err is not None:
                stats.errors.append(check.err)
            failure = None if check.ok else check.reason
            if isinstance(result, PipelineResult):
                stats.child_rss_mb = max(stats.child_rss_mb, result.peak_rss_mb)
                for step, wall in result.walls.items():
                    stats.walls.setdefault(step, []).append(wall)
                stats.import_s.extend(result.import_s)
                if tracer is not None:
                    for child_spans in result.spans:
                        tracer.absorb(child_spans, i)
                    tracer.warnings.update(result.warnings)
        if failure is not None:
            stats.failed += 1
            if len(stats.reasons) < 5:
                stats.reasons.append(f"op {i} (pool {index}): {failure}")
        stats.intervals.append((t0, t_op, host.clock()))
        i += 1
    host.probe()
    return i


def end_to_end(stats: Stats, setup: list[float], raw_setup: list[float],
               in_process: bool) -> tuple[dict, dict]:
    lat_ms = sorted(1e3 * t for t in stats.corrected)
    raw_ms = sorted(1e3 * t for t in stats.wall_latencies)
    tail_ms, tail_label = tail(lat_ms)
    peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if in_process else stats.child_rss_mb)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": stats.attempted / stats.busy_s,
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "fail_rate": stats.failed / stats.attempted,
        # 1.0 (every coupling off by 100 %) when no op produced a result
        "result_err_max": max(stats.errors, default=1.0),
        "peak_rss_mb": peak,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters: "
                   + ", ".join(f"{s:.3f}" for s in setup)
                   + f"; uncorrected median {statistics.median(raw_setup):.4g}",
        "ops_per_s": f"uncorrected {stats.attempted / stats.busy_raw_s:.4g}",
        "op_p50_ms": f"uncorrected wall time {statistics.median(raw_ms):.4g}",
        "op_tail_ms": f"{tail_label}; uncorrected wall time {tail(raw_ms)[0]:.4g}",
        "fail_rate": f"{stats.failed} of {stats.attempted} ops",
        "result_err_max": f"worst over {len(stats.errors)} checked ops",
        "peak_rss_mb": "benchmark process" if in_process else "largest cli child",
    }
    return values, notes


def predictions(workload: str, m: dict) -> list[tuple[str, bool]]:
    """Attribution checks of the traced run, as predicted for this commit."""
    out = []
    if workload == "deembed":
        out.append(("network.exact_per_point == 2.0", m["network.exact_per_point"] == 2.0))
    else:
        out.append(("network.compose_exact.calls == 0", m["network.compose_exact.calls"] == 0))
    if workload != "cli":
        out.append(("io.write.bytes == io.read.bytes == 0",
                    m["io.write.bytes"] == m["io.read.bytes"] == 0))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "routercell" / "__init__.py").is_file():
        print(f"error: no routercell package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import routercell

    if args.workload == "cli":
        import routercell.cli  # noqa: F401
    import hostspeed
    import tracing
    import workloads

    if not Path(routercell.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: routercell imported from {routercell.__file__}, not {SRC}", file=sys.stderr)
        return 2

    declared = benchmark_config()
    seconds = min(args.seconds, 1.0) if args.smoke else args.seconds
    tracer = tracing.Tracer()
    tracing.quiet_counting_warnings(tracer)
    workdir = make_workdir(args.workload)
    wl = workloads.WORKLOADS[args.workload](workdir)
    in_process = args.workload != "cli"
    # the in-process reference for in-process ops, the child reference for children
    host = hostspeed.in_process() if in_process else hostspeed.child()
    if not in_process:
        wl.between_steps = host.probe
    order = workloads.visit_order(args.seed, wl.pool_size)
    # cli covers its whole pool so result_err_max is the worst over the pool
    min_ops = 1 if args.smoke or in_process else wl.pool_size
    info = env_info()
    print(f"routercell benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={seconds} trace={args.trace}{' smoke' if args.smoke else ''}")
    print("env: " + json.dumps(info))
    try:
        if in_process:
            for index in range(wl.pool_size):  # warms caches, builds deembed references
                wl.check(index, wl.op(index))
        host.reference()  # warm-up, not a sample
        if args.trace:
            record = traced_run(args, wl, order, seconds, tracer, in_process, host)
            names = [m["name"] for m in declared["per_layer"]]
        else:
            setup, raw_setup = measure_setup(args.workload, args.seed,
                                             1 if args.smoke else SETUP_REPEATS,
                                             hostspeed.child())
            stats = Stats()
            run_ops(wl, order, seconds, min_ops, stats, host)
            stats.correct(host)
            values, notes = end_to_end(stats, setup, raw_setup, in_process)
            for name, value in values.items():
                unit = END_TO_END_UNITS[name]
                print(f"{name:<16} {value:<14.6g} {unit:<9} {notes.get(name, '')}")
            ref = host.summary()
            print(f"host speed: reference median {ref['median_ms']:.4g} ms over "
                  f"{ref['samples']} samples; op timings above are scaled to "
                  f"{ref['nominal_ms']:g} ms")
            record = {"values": values, "units": END_TO_END_UNITS, "notes": notes,
                      "stats": stats, "latencies_s": stats.latencies,
                      "wall_latencies_s": stats.wall_latencies,
                      "corrected_latencies_s": stats.corrected,
                      "op_intervals": stats.intervals, "host": ref,
                      "host_samples": {"start": host.starts, "end": host.ends}}
            names = [m["name"] for m in declared["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stats = record.pop("stats")
    for reason in stats.reasons:
        print(f"FAILED {reason}")
    correct = stats.failed == 0 and stats.attempted > 0
    units = record["units"]
    result = {
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {n: {"value": record["values"][n], "unit": units[n]} for n in names},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-s{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "env": info, **record, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def traced_run(args, wl, order, seconds, tracer, in_process, host) -> dict:
    """Alternate untraced and traced ops; per-layer metrics from the traced ones."""
    import tracing

    plain, traced = Stats(), Stats()
    if in_process:
        blocks = 2 if args.smoke else TRACE_BLOCKS
        i = 0
        for block in range(blocks):
            if block % 2:
                tracer.install()
                try:
                    i = run_ops(wl, order, seconds / blocks, 1, traced, host, i, tracer)
                finally:
                    tracer.uninstall()
            else:
                i = run_ops(wl, order, seconds / blocks, 1, plain, host, i)
        import_s = measure_cli_import(1 if args.smoke else IMPORT_PROBES)
    else:
        deadline = time.perf_counter() + seconds
        i = 0
        while i < 2 or time.perf_counter() < deadline:
            if i % 2:
                i = run_ops(wl, order, 0, 1, traced, host, i, tracer)
            else:
                i = run_ops(wl, order, 0, 1, plain, host, i)
        import_s = traced.import_s

    metrics = tracing.layer_metrics(tracer.spans, traced.attempted, wl.points,
                                    tracer.warnings, import_s, plain.walls)
    plain.correct(host)
    traced.correct(host)
    rate_plain = plain.attempted / plain.busy_s
    rate_traced = traced.attempted / traced.busy_s
    metrics["trace.overhead_pct"] = 100.0 * (rate_plain / rate_traced - 1.0)
    units = {name: tracing.unit_of(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name:<44} {value:<14.6g} {units[name]}")
    checks = predictions(args.workload, metrics)
    for text, held in checks:
        print(f"prediction {'held' if held else 'NOT HELD'}: {text}")
    OUT.mkdir(exist_ok=True)
    tracing.write_spans(OUT / f"spans-{args.workload}-s{args.seed}.json.gz", tracer)

    combined = Stats()
    for part in (plain, traced):
        combined.intervals += part.intervals
        combined.failed += part.failed
        combined.reasons += part.reasons
    return {"values": metrics, "units": units, "stats": combined,
            "predictions": {text: held for text, held in checks},
            "ops": {"untraced": plain.attempted, "traced": traced.attempted}}


if __name__ == "__main__":
    sys.exit(main())
