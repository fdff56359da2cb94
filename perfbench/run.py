"""condgrad benchmark: one seeded workload through a public entry point.

Run from the repository root:

    python3 perfbench/run.py --workload simplex_cert --seed 0 --seconds 23 --trace 0

Closed loop with one caller: each solve starts after the previous one
returns, and every returned result is checked (see workloads.py).  After an
untimed warm-up solve of each instance the loop cycles through the run's
instances for --seconds, with a short speed probe between solves (see
host_slowdowns).
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics of BENCHMARK.json.  With --trace 1 untraced and traced solves
alternate, the line carries the per-layer metrics, and the spans of the
first traced solve are written to perfbench/out/.  The lines before it
record the machine (nproc, BLAS threads, numpy version) and the answer
quality figures.

The library is imported from src/ next to this directory and nowhere else.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads: a single caller on a small
    # shared machine measures steadier, and n=600 gemv gains nothing from two.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import argparse
import contextlib
import ctypes
import json
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5      # fresh processes timed for setup_s
MIN_SOLVES = 3        # timed solves per run even when --seconds is short
PROBE_TIMEOUT_S = 60
SPEED_CHUNKS = 64     # probe chunks timed between two solves (about 16 ms)
# Reference time of one speed chunk: about its time on an idle core of a
# 2-vCPU Intel Xeon VM (fastest 255 us, 1st percentile 258 us).  solve_s is
# the wall time scaled to a host that runs the chunk this fast.
SPEED_REFERENCE_S = 250e-6


def import_library():
    """Put src/ first on the path and import condgrad from there, or exit."""
    pkg = SRC / "condgrad"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no condgrad sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import condgrad
    if Path(condgrad.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported condgrad from {condgrad.__file__}, not {pkg}")


def blas_threads() -> int:
    """Thread count reported by the OpenBLAS loaded into this process, -1 if
    none is found."""
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class RssSampler:
    """Context manager polling this process's RSS every millisecond from a
    thread.  Unlike getrusage's high-water mark, its peak cannot be hidden
    by a larger one from before, e.g. setup's freed temporaries."""

    def __enter__(self):
        self.base = self.peak = rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll)
        self._thread.start()
        return self

    def _poll(self):
        while not self._stop.wait(0.001):
            self.peak = max(self.peak, rss_bytes())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, rss_bytes())


def probe_setup(workload, seed, size) -> float:
    """Seconds to import condgrad and build the inputs, in this (fresh)
    process, divided by the host slowdown a speed probe finds right after;
    numpy is already imported, so its own import is not counted."""
    t0 = time.perf_counter()
    import_library()
    import workloads
    w = workloads.WORKLOADS[workload]
    for i in range(workloads.INSTANCES):
        w.instance(seed, i, size)
    seconds = time.perf_counter() - t0
    return seconds / slowdown(speed_probe())


def setup_seconds(workload, seed, size) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed), "--size", size],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


_SPEED_A = np.random.default_rng(0).standard_normal((300, 300))
_SPEED_V = np.ones(300)


def speed_chunk():
    """A fixed piece of work, about 0.25 ms: an interpreter loop and small
    BLAS matvecs, the two kinds of work the solves are made of.  It calls
    no condgrad code, so a change to the library cannot change its time."""
    s = 0.0
    for i in range(2000):
        s += i * 0.5
    for _ in range(10):
        _SPEED_A @ _SPEED_V
    return s


def speed_probe() -> list:
    """Seconds taken by each of SPEED_CHUNKS chunks run back to back."""
    out = []
    for _ in range(SPEED_CHUNKS):
        t0 = time.perf_counter()
        speed_chunk()
        out.append(time.perf_counter() - t0)
    return out


def host_slowdowns(probes) -> list:
    """How much slower than the reference the host ran around each solve.

    probes[i] and probes[i + 1] are the speed probes just before and after
    timed solve i.  The factor is the median chunk time of the two over
    SPEED_REFERENCE_S.  On a shared VM the host's speed drifts by up to 2x
    over tens of seconds, and the solves slow down with it; dividing a
    solve's wall time by its factor keeps most of that drift out of solve_s.
    The reference is a constant, not the run's own fastest chunk, because
    an extreme value taken per run would add its own run-to-run noise."""
    return [slowdown(a + b) for a, b in zip(probes, probes[1:])]


def slowdown(chunk_times) -> float:
    """Median time of the probe chunks over SPEED_REFERENCE_S."""
    return statistics.median(chunk_times) / SPEED_REFERENCE_S


def oracle_patches(inp):
    """Trace the callables of the objective oracle the benchmark built."""
    obj = inp.get("objective")
    if obj is None:
        return []
    return [(obj, "eval", "objectives.eval"), (obj, "grad", "objectives.grad")]


class Solve(NamedTuple):
    traced: bool
    seconds: float
    failures: list       # messages of the checks this solve failed
    summary: dict        # values read from the result (workloads.summarize)
    spans: Optional[list]
    slowdown: float = 1.0   # host slowdown around a timed solve (host_slowdowns)
    warmup: bool = False    # untimed first solve of an instance, RSS sampled


def timed_solves(runs) -> list:
    return [r for r in runs if not r.warmup]


def run_one(w, inp, traced=False, rss=None) -> Solve:
    """One checked solve, with `rss` (an RssSampler) around the untraced
    entry-point call if given.  The result itself is dropped on return, so
    the next solve does not run beside it."""
    if traced:
        import tracer
        t = tracer.Tracer()
        with tracer.install(t, oracle_patches(inp)):
            res = t.wrap(tracer.ROOT, w.solve)(inp)
        spans = t.reset()
        seconds = spans[0][2] - spans[0][1]
    else:
        spans = None
        with rss or contextlib.nullcontext():
            t0 = time.perf_counter()
            res = w.solve(inp)
            seconds = time.perf_counter() - t0
    return Solve(traced, seconds, w.check(inp, res), w.summarize(inp, res), spans,
                 warmup=rss is not None)


def trim_heap():
    """Hand free heap pages back to the OS (glibc only), so that a solve's
    allocations show as RSS growth instead of reusing setup's garbage."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def measure(w, seed, size, seconds, trace):
    """The closed loop over the run's instances.  Returns the solves and the
    median RSS growth of the warm-up solves, in bytes.

    Each instance is solved once as a warm-up, with its RSS sampled from a
    trimmed heap.  The growth differs by about 1 MB between instances on
    sdp_infeas (allocator layout), so the median of the three is reported.
    Then solves cycle through the instances until `seconds` have passed (at
    least MIN_SOLVES timed ones); with trace, each instance is solved
    untraced and then traced.  A speed probe runs before each timed solve
    and after the last.  Every solve, the warm-ups too, is checked."""
    import workloads
    insts = [w.instance(seed, i, size) for i in range(workloads.INSTANCES)]
    runs, growths = [], []
    for inp in insts:
        trim_heap()
        rss = RssSampler()
        runs.append(run_one(w, inp, rss=rss))
        growths.append(rss.peak - rss.base)
    warm = len(runs)
    probes = [speed_probe()]
    deadline = time.perf_counter() + seconds
    timed = 0
    # with trace, end on a traced solve so both kinds are there
    while timed < MIN_SOLVES or time.perf_counter() < deadline or (trace and timed % 2):
        traced = bool(trace) and timed % 2 == 1
        inp = insts[(timed // 2 if trace else timed) % len(insts)]
        runs.append(run_one(w, inp, traced))
        probes.append(speed_probe())
        timed += 1
    runs[warm:] = [r._replace(slowdown=f) for r, f in zip(runs[warm:], host_slowdowns(probes))]
    return runs, statistics.median(growths)


def quality(runs) -> dict:
    """Answer-quality figures of the run (median over its solves)."""
    out = {}
    for key in ("cert_gap", "rmse_test", "f_lower"):
        vals = [r.summary[key] for r in runs if key in r.summary]
        if vals:
            out[key] = statistics.median(vals)
    return out


def end_to_end(runs, setup_s, rss_growth) -> dict:
    return {"solve_s": statistics.median(r.seconds / r.slowdown for r in timed_solves(runs)),
            "setup_s": setup_s,
            "peak_rss_mb": rss_growth / 2 ** 20}


def host_figures(runs) -> dict:
    """The raw wall time and the host slowdown that solve_s corrects for
    (medians over the untraced timed solves)."""
    untraced = [r for r in timed_solves(runs) if not r.traced]
    return {"solve_wall_s": statistics.median(r.seconds for r in untraced),
            "host_slowdown": statistics.median(r.slowdown for r in untraced)}


def per_layer(runs) -> dict:
    import tracer
    traced = [tracer.per_layer(r.spans, r.summary) for r in runs if r.traced]
    metrics = {k: statistics.median(d[k] for d in traced) for k in traced[0]}
    host = host_figures(runs)
    metrics["trace.untraced_solve_s"] = host["solve_wall_s"]
    metrics["trace.overhead_s"] = metrics["trace.solve_s"] - metrics["trace.untraced_solve_s"]
    metrics["host.slowdown"] = host["host_slowdown"]
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=23.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs are for the benchmark's own tests")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_setup:
        print(repr(probe_setup(args.workload, args.seed, args.size)))
        return 0

    import_library()
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    w = workloads.WORKLOADS[args.workload]

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed, args.size)
    runs, rss_growth = measure(w, args.seed, args.size, args.seconds, args.trace)

    if args.trace:
        values = per_layer(runs)
        import tracer
        OUT.mkdir(exist_ok=True)
        first = next(r.spans for r in runs if r.traced)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz", first)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(runs, setup_s, rss_growth)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    failed = sum(1 for r in runs if r.failures)
    print("env " + json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
        "numpy": np.__version__, "python": platform.python_version()}))
    print("answer " + json.dumps({**quality(runs), "fail_rate": failed / len(runs)}))
    print("host " + json.dumps(host_figures(runs)))
    for r in runs:
        for msg in r.failures:
            print("check failed: " + msg)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
