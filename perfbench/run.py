"""tdmradar benchmark: runs one workload in a closed loop with a single
client for a fixed time, checks every unit's output and prints the metrics,
the last line as one JSON object.

    python3 perfbench/run.py --workload dense_scenes --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # every workload in turn

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports the per-layer metrics and writes its spans to
.perfbench_out/.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("imaging_pair", "dense_scenes", "snr_sweep")

# An untraced run splits its time over this many fresh processes, one after
# another, and pools their units, which averages out the speed differences
# between processes (README.md gives the measurement).  Each process also
# sets up once, which gives setup_s its samples.
PROCESSES = {"imaging_pair": 3, "dense_scenes": 5, "snr_sweep": 5}

# name -> (unit, better); the metrics of an untraced run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "simulate_s": ("s", "lower"),
    "process_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "detect_ratio": ("ratio", "higher"),
    "velocity_ok_ratio": ("ratio", "higher"),
    "azimuth_ok_ratio": ("ratio", "higher"),
    "ok_ratio": ("ratio", "higher"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one unit at tiny size in one process (for the smoke test)")
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _blas_threads():
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _cpu_model() -> str:
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "cpu": _cpu_model(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def _no_span(name):
    return contextlib.nullcontext()


def _set_up(args, workdir: Path):
    """Import, input generation and one untimed warm-up unit; returns the
    time taken and the ready workload."""
    start = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[args.workload](ROOT, [args.seed, args.worker or 0],
                                                  workdir, args.smoke)
    workload.run(workload.next_input(), _no_span)
    return time.perf_counter() - start, workload


def _measure(args, workload, tracer):
    """Closed loop: units run back to back until the time is up and at
    least the workload's scored units are done.  In a traced run every other
    unit is traced, so traced and untraced units interleave.  Returns the
    results of the units that passed, the failure count and the summed
    score of the scored units."""
    import workloads
    min_units = (2 if tracer else 1) if args.smoke else workload.score_units
    seconds = 0.0 if args.smoke else args.seconds
    units, failed = [], 0
    start = time.perf_counter()
    while len(units) + failed < min_units or time.perf_counter() - start < seconds:
        unit_id = len(units) + failed
        unit_input = workload.next_input()
        traced = tracer is not None and unit_id % 2 == 0
        context = (tracer.unit(unit_id, workload.truth_bins(unit_input)) if traced
                   else contextlib.nullcontext())
        try:
            with context:
                result = workload.run(unit_input, tracer.span if traced else _no_span)
        except Exception as exc:  # counted, reported and the loop goes on
            failed += 1
            print(f"unit {unit_id} failed: {exc!r}", file=sys.stderr)
            continue
        units.append((unit_id, traced, result))
    score = workloads.Score()
    for unit_id, _, result in units:
        if unit_id < min_units:
            score += result.score
    return units, failed, score


def _worker(args, workdir: Path) -> dict:
    """One process's share of an untraced run, as raw measurements."""
    setup_s, workload = _set_up(args, workdir)
    units, failed, score = _measure(args, workload, None)
    return {"setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "times": [(r.simulate_s, r.process_s) for _, _, r in units],
            "failed": failed,
            "score": vars(score)}


def _spawn_worker(args, index: int, seconds: float) -> dict:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--worker", str(index)] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _percentile_note(samples) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    note = f"median {statistics.median(samples):.4f} s"
    for q in (99, 90):
        if n * (100 - q) >= 1000:
            note += f", p{q} {statistics.quantiles(samples, n=100)[q - 1]:.4f} s"
            break
    return note + f" (n={n})"


def _end_to_end(args):
    """Untraced run: the workload's processes one after another, pooled."""
    n_proc = 1 if args.smoke else PROCESSES[args.workload]
    parts = [_spawn_worker(args, i, args.seconds / n_proc) for i in range(n_proc)]
    times = [t for part in parts for t in part["times"]]
    failed = sum(part["failed"] for part in parts)
    attempted = len(times) + failed
    score = {k: sum(part["score"][k] for part in parts) for k in parts[0]["score"]}
    simulate, process = [t[0] for t in times], [t[1] for t in times]
    setups = [part["setup_s"] for part in parts]
    values = {
        "setup_s": statistics.median(setups),
        "simulate_s": statistics.median(simulate),
        "process_s": statistics.median(process),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "detect_ratio": score["detected"] / score["targets"],
        "velocity_ok_ratio": score["velocity_ok"] / score["targets"],
        "azimuth_ok_ratio": score["azimuth_ok"] / score["targets"],
        "ok_ratio": (attempted - failed) / attempted,
    }
    notes = {"setup_s": f"median of {len(setups)} processes",
             "simulate_s": _percentile_note(simulate),
             "process_s": _percentile_note(process),
             "peak_rss_mb": f"highest of {len(parts)} processes",
             "ok_ratio": f"{attempted - failed}/{attempted} units, failed_ratio {failed / attempted}"}
    for name, key in (("detect_ratio", "detected"), ("velocity_ok_ratio", "velocity_ok"),
                      ("azimuth_ok_ratio", "azimuth_ok")):
        notes[name] = f"{score[key]}/{score['targets']} truth targets"
    return values, notes, END_TO_END, attempted, failed


def _per_layer(args, env, workdir: Path):
    """Traced run, in this process: per-layer metrics from the traced units,
    tracing overhead from the untraced units between them."""
    import tracing
    _, workload = _set_up(args, workdir)
    tracer = tracing.Tracer()
    units, failed, _ = _measure(args, workload, tracer)
    plain = [r for _, traced, r in units if not traced]
    traced = [r for _, was_traced, r in units if was_traced]
    overhead = 0.0
    if plain and traced:
        unit_time = lambda rs: statistics.median(r.simulate_s + r.process_s for r in rs)
        overhead = unit_time(traced) / unit_time(plain) - 1.0
        print(f"trace: stage self times outside simulation sum to "
              f"{tracer.self_time_sum(('cli.simulate', 'simulate.simulate_frame')):.4f} s per unit; "
              f"process_s untraced {statistics.median(r.process_s for r in plain):.4f} s, "
              f"traced {statistics.median(r.process_s for r in traced):.4f} s")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json", env)
    return tracer.layer_metrics(overhead), {}, tracing.LAYER_METRICS, len(units) + failed, failed


def _run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "tdmradar" / "__init__.py").is_file():
        print(f"perfbench: no tdmradar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    if not args.trace and args.worker is None:
        values, notes, table, attempted, failed = _end_to_end(args)
        env = environment()
    else:
        workdir = ROOT / ".perfbench_work" / str(os.getpid())
        workdir.mkdir(parents=True)
        try:
            if args.worker is not None:
                print(json.dumps(_worker(args, workdir)))
                return 0
            env = environment()
            values, notes, table, attempted, failed = _per_layer(args, env, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                workdir.parent.rmdir()

    print("env " + json.dumps(env))
    metrics = {}
    for name, value in values.items():
        unit, better = table[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload:13s} {name:34s} {value:14.6g} {unit:6s} "
              f"({better} is better{'; ' + notes[name] if name in notes else ''})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
