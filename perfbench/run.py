"""Benchmark of the qincoh pipelines, driven from outside the package.

    python3 perfbench/run.py --workload recover_3q_cli --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One process, one closed-loop client: each operation starts when the previous
one and its output check have finished.  Workloads are defined in
``workloads.py``; ``--seed`` shapes their inputs and ``0`` reproduces the
bundled configs.  The BLAS pool is pinned to one thread before numpy is
imported, in this process and in every child.

``--trace 0`` times set-up, then measures for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` measures half the time untraced and half
with span recorders on every layer (see ``tracing.py``), prints the
per-layer metrics, then a 3/4/5-qubit size sweep.  Times are in reference
seconds (see ``calibrate.py``), with raw wall figures printed alongside.
Human-readable lines come first; the last line of standard output is the
JSON result, holding exactly the metrics ``BENCHMARK.json`` declares.
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("recover_3q_cli", "recover_5q", "qpt_table1_cli")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 150


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, for one section of ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def timed_setup(name: str, seed: int, workdir: Path):
    """Import of qincoh, input generation and one checked warm-up operation.

    Returns the workload, the warm-up's outcome and the set-up wall time.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qincoh
    import workloads

    if not Path(qincoh.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qincoh was imported from {qincoh.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[name](seed, workdir)
    _, warm = run_one(wl)
    return wl, warm, time.perf_counter() - t0


def run_one(wl, tracer=None):
    """One operation: untimed reset, timed call, untimed check.

    Returns ``(wall seconds, Outcome)``.  An exception or a warning raised
    by the package counts as a failed operation, like a failed output check.
    """
    from workloads import Outcome

    wl.reset()
    sink = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        warnings.simplefilter("always")
        root = tracer.operation() if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with root:
                result = wl.op()
        except Exception as exc:  # the client keeps running; the op is a failure
            return time.perf_counter() - t0, Outcome(failures=[f"raised {exc!r}"])
        seconds = time.perf_counter() - t0
    outcome = wl.check(result)
    outcome.failures.extend(f"warning: {w.message}" for w in caught)
    return seconds, outcome


def measure(wl, seconds: float, tracer=None):
    """Closed loop for ``seconds`` (at least one operation).

    The calibration kernel runs between operations; each operation is scaled
    by the mean of the kernel times just before and just after it.  Returns
    ``[(wall_s, scale, outcome)]``, the kernel times and the loop wall time.
    """
    from calibrate import kernel_time, reference_scale

    before = kernel_time(wl.calibration)
    kernels = [before]
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        wall, outcome = run_one(wl, tracer)
        after = kernel_time(wl.calibration)
        kernels.append(after)
        results.append((wall, reference_scale(wl.calibration, (before + after) / 2), outcome))
        before = after
    return results, kernels, time.perf_counter() - start


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh interpreter: (reference seconds, wall seconds)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["wall_s"]


def tail(times: list[float]):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than 11 samples."""
    n = len(times)
    if n < 11:
        return None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def openblas_threads():
    """Thread count reported by a bundled OpenBLAS, or None if not found."""
    import ctypes

    import numpy

    base = os.path.dirname(numpy.__file__)
    for lib in glob.glob(os.path.join(base, os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, env=env, timeout=30)
    return proc.stdout.strip() or None


def machine_context() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads": openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def print_metric(name: str, value, unit: str, note: str) -> None:
    print(f"  {name:<32} {value:<14.6g} {unit:<6} {note}")


def timed_run(wl, args, warm, setup_wall):
    """Set-up probes, then the untraced window; prints the end-to-end report."""
    from calibrate import kernel_time, reference_scale

    setups = [(setup_wall * reference_scale(wl.calibration, kernel_time(wl.calibration)), setup_wall)]
    setups += [setup_probe(args.workload, args.seed) for _ in range(wl.setup_repeats - 1)]
    results, kernels, wall = measure(wl, args.seconds)
    ref_times = [t * scale for t, scale, _ in results]
    metrics = {
        "ops_per_s": len(results) / sum(ref_times),
        "op_p50_s": statistics.median(ref_times),
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(results)
    notes = {
        "ops_per_s": f"n={n}, reference seconds of operation time",
        "op_p50_s": f"n={n}, reference seconds",
        "setup_s": f"median of n={len(setups)}, reference seconds",
        "peak_rss_mb": "workload process",
    }
    units = declared_units("end_to_end")
    for name, value in metrics.items():
        print_metric(name, value, units[name], notes[name])
    t = tail(ref_times)
    if t is None:
        print(f"  {'op_tail_s':<32} {'-':<14} {'s':<6} n={n} < 11, no percentile")
    else:
        print_metric("op_tail_s", t[0], "s", f"p{t[1]:.2f}, n={n}, reference seconds")
    outcomes = [warm] + [o for _, _, o in results]
    failed = sum(bool(o.failures) for o in outcomes)
    print_metric("fail_ratio", failed / len(outcomes), "ratio", f"{failed} of n={len(outcomes)}")
    for err, unit in (("mean_abs_err", "abs"), ("std_rel_err", "ratio")):
        values = [getattr(o, err) for o in outcomes if getattr(o, err) is not None]
        if values:
            print_metric(err, statistics.median(values), unit,
                         f"median of n={len(values)}, deterministic per seed")
    print_metric("wall.op_p50_s", statistics.median(t for t, _, _ in results), "s", f"n={n}")
    print_metric("wall.ops_per_s", n / wall, "1/s", f"n={n} in {wall:.2f} s, checks and kernels included")
    print_metric("wall.setup_s", statistics.median(w for _, w in setups), "s", f"median of n={len(setups)}")
    print_metric(f"calibration.{wl.calibration}_s", statistics.median(kernels), "s",
                 f"median of n={len(kernels)}, range {min(kernels):.4g}-{max(kernels):.4g}")
    return metrics, outcomes


def traced_run(wl, args, warm):
    """Half the window untraced, half traced; per-layer report and size sweep."""
    import workloads
    from tracing import PLAN, Tracer, layer_metrics, size_sweep

    plain, _, _ = measure(wl, args.seconds / 2)
    tracer = Tracer()
    tracer.install(PLAN)
    try:
        traced, _, _ = measure(wl, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    overhead = (statistics.median(t * s for t, s, _ in traced)
                - statistics.median(t * s for t, s, _ in plain))
    metrics = layer_metrics(tracer, [s for _, s, _ in traced], [o for _, _, o in traced], overhead)
    units = declared_units("per_layer")
    for name, value in metrics.items():
        print_metric(name, value, units[name], f"median per op, n={len(traced)} traced")
    print("sweep " + json.dumps(size_sweep(workloads, args.seed)))
    return metrics, [warm] + [o for _, _, o in plain + traced]


def run_workload(args) -> int:
    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        wl, warm, setup_wall = timed_setup(args.workload, args.seed, workdir)
        print("context " + json.dumps(machine_context(), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
        if args.trace:
            metrics, outcomes = traced_run(wl, args, warm)
        else:
            metrics, outcomes = timed_run(wl, args, warm, setup_wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    failures = [o.failures for o in outcomes if o.failures]
    if failures:
        print("first failure: " + "; ".join(failures[0]))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_probe(args) -> int:
    from calibrate import kernel_time, reference_scale

    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        wl, warm, setup_wall = timed_setup(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if warm.failures:
        print("; ".join(warm.failures), file=sys.stderr)
        return 1
    scale = reference_scale(wl.calibration, kernel_time(wl.calibration))
    print(json.dumps({"setup_s": setup_wall * scale, "wall_s": setup_wall}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up in this fresh process and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "qincoh").is_dir():
        print(f"no qincoh sources under {SRC}", file=sys.stderr)
        return 2
    return run_probe(args) if args.setup_probe else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
