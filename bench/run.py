"""driftlab benchmark: one workload per process, metrics on the last line.

    python3 bench/run.py --workload sensor3-pipeline --seed 0 --seconds 30 --trace 0

Run from the repository root; driftlab is imported from ``src/``.  With
``--trace 0`` the last line of standard output holds the end-to-end metrics
named in BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The line
before it records the environment.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5
HARD_STOP_S = 150.0  # no iteration starts that would end past this

# metric -> (span names, scale to the unit); per iteration (or set-up), the
# time in all the named spans over the number of spans of the first name;
# the value is the median over those that hold the first name
SPAN_METRICS = {
    "simulate.select_us": (("simulate.select_strategy",), 1e6),
    "simulate.detect_us": (("simulate.detect",), 1e6),
    "simulate.queue_us": (("simulate.update_queues",), 1e6),
    "lp.solve_ms": (("lp.solve_lp",), 1e3),
    "lp.lipschitz_probe_ms": (("lp.lipschitz_probe",), 1e3),
    "guarantees.divergence_series_ms": (("guarantees.divergence_window_series",), 1e3),
    "guarantees.pe_sequence_ms": (("guarantees.pe_sequence",), 1e3),
    # per psi_q_gamma call, i.e. per bounds row: the row's bound stack
    "guarantees.bound_stack_ms": (
        ("guarantees.psi_q_gamma", "guarantees.s_t_delta", "guarantees.pac_rhs"), 1e3),
    "strategies.b_series_ms": (("strategies.b_series",), 1e3),
    "distributions.weights_matrix_ms": (("distributions.weights_matrix",), 1e3),
    "estimators.kappa_ms": (("estimators.estimate_kappa",), 1e3),
    "estimators.beta1_ms": (("estimators.estimate_beta1",), 1e3),
    "estimators.error_rate_ms": (("estimators.error_rate",), 1e3),
    "estimators.gap_report_ms": (("estimators.gap_report",), 1e3),
    "config.build_ms": (("config.build",), 1e3),
    "strategies.space_build_ms": (("strategies.space_build",), 1e3),
    "strategies.r_table_ms": (("strategies.r_table",), 1e3),
}
# metric -> span name; the span's total self time per run-slot, in µs
PER_SLOT_METRICS = {
    "simulate.loop_us_per_run_slot": "simulate.run_ensemble",
    "cli.write_trace_us_per_slot": "cli.write_trace",
    "cli.read_traces_us_per_slot": "cli.read_traces",
}


def parse_args(argv, workloads, run_seconds):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(run_seconds))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes, for the smoke test")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the config, print the monotonic clock, exit "
                    "(the parent times set-up with this)")
    return ap.parse_args(argv)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


PROCESS_START = monotonic()


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for p in sorted((SRC / "driftlab").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    env_blas = os.environ.get("OPENBLAS_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads() or (int(env_blas) if env_blas else None),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
    }


def measure_setup(args) -> list[float]:
    """Process start to config built, in fresh processes, one at a time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return out


def median_or_zero(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def layer_metrics(wl, tracer, plain, traced, ops) -> dict[str, float]:
    run_ids = tracer.run_ids()
    out: dict[str, float] = {}
    for metric, (spans, scale) in SPAN_METRICS.items():
        per_run = []
        for rid in run_ids:
            recs = [s for s in tracer.spans if s["run"] == rid and s["name"] in spans]
            calls = sum(s.get("calls", 1) for s in recs if s["name"] == spans[0])
            if calls:
                per_run.append(sum(s["end"] - s["start"] for s in recs) / calls * scale)
        out[metric] = median_or_zero(per_run)
    slots = wl.counts.get("simulate.run_slots", 0)
    self_times = [tracer.self_times(rid) for rid in run_ids]
    for metric, span in PER_SLOT_METRICS.items():
        per_run = [sum(times[span]) for times in self_times if span in times]
        out[metric] = median_or_zero(per_run) / slots * 1e6 if slots else 0.0
    # every solve_lp call the stages make, those inside lipschitz_probe too
    out["lp.solve_calls"] = median_or_zero(
        sum(s["name"] == "lp.solve_lp" for s in tracer.spans if s["run"] == rid)
        for rid in run_ids if rid != "setup"
    )
    for stage in plain[0].stages:
        out[f"cli.{stage}_s"] = median_or_zero(it.stages[stage] for it in plain)
    out["analysis_s"] = median_or_zero(it.analysis_s for it in plain)
    out["sim_slots_per_s"] = median_or_zero(
        slots / it.sim_s if it.sim_s else None for it in plain
    )
    out["ops_failed_frac"] = len(ops.failures) / ops.attempted
    plain_total = median_or_zero(it.total_s for it in plain)
    traced_total = median_or_zero(it.total_s for it in traced)
    out["bench.trace_overhead_frac"] = traced_total / plain_total - 1.0 if plain_total else 0.0
    out.update(wl.counts)
    return out


def main(argv=None) -> int:
    if not BENCHMARK_JSON.is_file():
        print(f"error: {BENCHMARK_JSON} not found", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]], spec["run_seconds"])
    if not (SRC / "driftlab" / "__init__.py").is_file():
        print(f"error: no driftlab sources under {SRC}", file=sys.stderr)
        return 2
    # Single-threaded BLAS: the loop is scalar Python, and a second BLAS
    # thread on a 2-CPU machine only adds run-to-run noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import driftlab

    if Path(driftlab.__file__).resolve().parent != (SRC / "driftlab").resolve():
        print(f"error: imported driftlab from {driftlab.__file__}", file=sys.stderr)
        return 2
    import checks
    from tracer import Tracer, clock, patched
    from workloads import WORKLOADS, IterationFailed, Ops

    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    tracer = Tracer()
    if args.trace:
        # the set-up's own calls (config build, strategy space) as spans
        tracer.begin("setup")
        with patched(tracer, wl.program_calls()):
            wl.setup()
    else:
        wl.setup()
    if args.setup_only:
        print(repr(monotonic()))
        return 0

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ops = Ops()
    setups: list[float] = []
    plain, traced = [], []
    try:
        if not args.trace:
            ops.attempted += 1
            try:
                setups = measure_setup(args)
            except (RuntimeError, ValueError, IndexError, subprocess.SubprocessError) as exc:
                ops.failures.append(f"set-up: {exc}")
        wl.prepare(work)
        reference = None
        start = None
        k = 0
        while True:
            out = work / f"it{k}"
            is_traced = bool(args.trace) and k % 2 == 1
            t0 = clock()
            try:
                if is_traced:
                    tracer.begin(k)
                    it = wl.traced(out, ops, tracer)
                else:
                    it = wl.plain(out, ops)
            except IterationFailed:
                break
            if k == 0:
                # Warm-up: lazy set-up and first-touch costs land here.  Its
                # outputs are checked; its times are not reported.
                wl.check_first(out, it, ops)
                reference = it.digest
                start = clock()
            else:
                ops.check("traced outputs byte-identical" if is_traced
                          else "outputs identical across iterations", it.digest == reference)
                (traced if is_traced else plain).append(it)
            it.result = None
            shutil.rmtree(out, ignore_errors=True)
            k += 1
            last = clock() - t0
            # Start no timed iteration that would end past --seconds, once
            # each kind needed has run.
            missing = not plain or (args.trace and not traced)
            if clock() - start + last > args.seconds and not missing:
                break
            if monotonic() + last - PROCESS_START > HARD_STOP_S:
                break
        env = environment()
        env.update({"workload": args.workload, "seed": args.seed, "size": wl.size,
                    "iterations": {"plain": len(plain), "traced": len(traced)},
                    "plain_total_s": [round(it.total_s, 4) for it in plain],
                    "plain_analysis_s": [round(it.analysis_s, 4) for it in plain],
                    "setup_runs_s": [round(x, 4) for x in setups],
                    "stream_sha256": getattr(wl, "stream_sha256", None),
                    "outputs_sha256": getattr(wl, "outputs_sha256", None),
                    "pin": checks.pin(wl.name, wl.size, args.seed),
                    "failures": ops.failures[:20]})
        if args.trace:
            tracer.write(work_root / f"spans-{args.workload}-seed{args.seed}.json", env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"bench_env": env}))
    if not plain or (args.trace and not traced):
        print("error: no iteration completed: " + "; ".join(ops.failures[:5]), file=sys.stderr)
        return 1
    if args.trace:
        values = layer_metrics(wl, tracer, plain, traced, ops)
    else:
        values = {
            "setup_s": median_or_zero(setups),
            "total_s": statistics.median(it.total_s for it in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
