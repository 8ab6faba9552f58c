#!/usr/bin/env python3
"""Benchmark of liouville-disk: three workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload topology --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.
Workloads (see workloads.py for what each loads and why):

  topology       extendability_check + seifert_decompose on figure fixtures
                 and seeded glued-positive-loop curves
  singular-disk  analytic completion, boundary polyline and transfer equation
                 of anchored fields with a seeded corner defect
  quant-ladder   concentration scan, blow-up classification, disk maps,
                 pinching, recentering and audit of seeded bubble ladders

The launcher pins BLAS/OpenMP and the package's own threads to 1, times
set-up in fresh interpreters (two probes plus the measuring process; the
median is setup_s, each time rescaled to the reference speed the interpreter
measures right after it), and runs one worker process with one job in flight.

--trace 0 prints the end-to-end metrics: setup_s, jobs_per_s, job_p50_ms,
job_tail_ms and peak_rss_mb (failed_frac goes on the summary lines and into
the attempted/failed fields).  The three job timings are rescaled to a fixed
reference speed of the host (see worker.py); their plain wall-clock values
and the host's speed go on the summary lines and into the machine facts,
and so do the plain set-up times.  --trace 1 runs whole rounds of the inputs
traced and then as many jobs untraced, checks that both produce identical
outputs, and prints the per-layer metrics with the tracing overhead.  The
last line of standard output is always the JSON result; the lines before it
are a readable summary and the machine facts.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from statistics import median
from time import monotonic, perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("topology", "singular-disk", "quant-ladder")
SETUP_PROBES = 2  # fresh interpreters timed besides the measuring one
DEADLINE_S = 175.0  # the whole run, probes included

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "LIOUVILLE_DISK_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def start_worker(args, env, probe):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    setup_s = perf_counter() - t0
    try:
        info = dict(json.loads(ready), **json.loads(proc.stdout.readline()))
    except ValueError:
        info = None
    return proc, setup_s, info


def finish(proc, deadline):
    """Collect a worker's remaining output; kill it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    return out if proc.returncode == 0 else None


def assemble(res, setups, imports, generates, trace):
    """The metrics of a run, name -> (value, unit): end-to-end ones without
    tracing, per-layer ones with it.  Set-up times are medians over the
    fresh interpreters."""
    if trace:
        metrics = dict(res["layers"])
        metrics["package.import_s"] = (median(imports), "s")
        metrics["fixtures.generate_s"] = (median(generates), "s")
        return metrics
    values = {
        "setup_s": median(setups),
        "jobs_per_s": res["jobs_per_s"],
        "job_p50_ms": res["job_p50_ms"],
        "job_tail_ms": res["job_tail_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def machine_facts(args, extra):
    facts = {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "thread_pins": THREAD_PINS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    facts.update(extra)
    return facts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "liouville_disk", "__init__.py")):
        return fail(f"no package source under {os.path.join(ROOT, 'src')}; "
                    "run from a checkout of the repository")

    deadline = monotonic() + DEADLINE_S
    env = dict(os.environ, **THREAD_PINS)
    setups, setup_walls, imports, generates = [], [], [], []

    for probe in [True] * SETUP_PROBES + [False]:
        proc, setup_s, info = start_worker(args, env, probe=probe)
        out = finish(proc, deadline)
        if out is None or info is None:
            return fail("set-up failed in a fresh interpreter" if probe else
                        "the measuring worker failed or ran past the deadline")
        setups.append(setup_s * info["speed"])
        setup_walls.append(setup_s)
        imports.append(info["import_s"])
        generates.append(info["generate_s"])
    res = json.loads(out.strip().splitlines()[-1])

    metrics = assemble(res, setups, imports, generates, args.trace)

    failed_frac = res["failed"] / res["attempted"]
    facts = machine_facts(args, {
        "inputs": res["inputs"],
        "jobs_attempted": res["attempted"],
        "setup_samples_s": setups,
        "setup_wall_samples_s": setup_walls,
        "tail_percentile": res["tail_percentile"],
        "tail_samples": res["tail_samples"],
        "host_speed": res["host_speed"],
        "wall_clock": res["wall"],
    })
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(f"{'failed_frac':<{width}}  {failed_frac:.6g} 1 "
          f"({res['failed']} of {res['attempted']} jobs)")
    print(f"{'host_speed':<{width}}  {res['host_speed']:.6g} (reference speed = 1); "
          f"wall clock: setup_s {median(setup_walls):.6g}, "
          + ", ".join(f"{k} {v:.6g}" for k, v in res["wall"].items()))
    print(json.dumps({"machine": facts}))
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
