"""One benchmark process: set up a workload, then run it as a closed loop.

run.py starts it as a separate process.  It prints one JSON line as soon as
the first job could run (the launcher times set-up up to that line), then one
line with the host's speed just after set-up, and, unless --probe is given,
one JSON line with the run's results at the end.

A run cycles through the workload's inputs, one job at a time, until
--seconds have passed and every input has run at least once.  Each input's
latency is the median over its executions, so the throughput and latency
figures describe the same mix of inputs however many executions fit.
Oracle checks run between jobs, outside the timed region.

The host's speed drifts: on a shared 2-vCPU host one fixed input took from
350 to 530 ms in successive 5 s windows, and a pure-Python loop and a numpy
FFT slowed and sped up with it.  So a fixed reference computation of the
benchmark's own runs before every job, and each job's time is rescaled by
REF_NOMINAL_S over the median of the reference times around it: the timing
metrics read as on a host where the reference takes REF_NOMINAL_S.  The
program cannot change the reference, so the rescaled times still move with
every change to the program.  The plain wall-clock figures are reported
beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import traceback
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

TAIL_BEYOND = 10  # samples that must lie above the tail percentile

# The reference computation: a pure-Python loop and a few numpy FFTs, about
# 6 ms in all.  REF_NOMINAL_S is its median time on an Intel Xeon host
# with 2 vCPUs, numpy 2.4 and Python 3.11.
REF_LOOP = 40_000
REF_FFTS = 8
REF_FFT_SIZE = 1 << 14
REF_NOMINAL_S = 0.0063
REF_WINDOW = 2  # reference samples on each side of a job that set its speed
SETUP_REF_SAMPLES = 15  # reference runs after set-up that give the speed for it


def make_reference():
    import numpy as np  # not at the top: the package import is timed without it

    x = np.random.default_rng(0).standard_normal(REF_FFT_SIZE)

    def reference():
        s = 0
        for i in range(REF_LOOP):
            s += i * i % 7
        y = x
        for _ in range(REF_FFTS):
            y = np.fft.irfft(np.fft.rfft(y), n=REF_FFT_SIZE)
        return s, y

    return reference


@dataclass
class Phase:
    """What one closed-loop phase measured."""

    digests: list  # per input, digest of its first execution
    order: list = field(default_factory=list)  # input index of each execution
    walls: list = field(default_factory=list)  # seconds of each execution
    refs: list = field(default_factory=list)  # seconds of the reference before it
    attempted: int = 0
    failed: int = 0
    deterministic: bool = True  # every repeat of an input gave the same digest
    diagnostics: dict = field(default_factory=dict)  # name -> worst value


def run_phase(wl, jobs, seconds=None, executions=None, whole_rounds=False):
    """Run the jobs cyclically, one at a time, until `seconds` have passed
    and every job has run at least once (with whole_rounds, every job equally
    often), or for exactly `executions` jobs."""
    ph = Phase(digests=[None] * len(jobs))
    reference = make_reference()
    start = perf_counter()
    while True:
        i = ph.attempted % len(jobs)
        job = jobs[i]
        gc.collect()
        t0 = perf_counter()
        reference()
        ph.refs.append(perf_counter() - t0)
        t0 = perf_counter()
        try:
            out = wl.run(job)
        except Exception:
            dt = perf_counter() - t0
            out = None
            print(f"job {job.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        else:
            dt = perf_counter() - t0
        ph.attempted += 1
        ph.order.append(i)
        ph.walls.append(dt)
        if out is None:
            ph.failed += 1
        else:
            try:
                bad, diag = wl.check(job, out)
                dig = wl.digest(out)
            except Exception:
                bad, diag, dig = [f"oracle raised:\n{traceback.format_exc()}"], {}, None
            if bad:
                ph.failed += 1
                print(f"job {job.name} failed its oracle: {'; '.join(bad)}", file=sys.stderr)
            for name, value in diag.items():
                ph.diagnostics[name] = max(value, ph.diagnostics.get(name, value))
            if ph.digests[i] is None:
                ph.digests[i] = dig
            elif dig != ph.digests[i]:
                ph.deterministic = False
        if executions is not None:
            if ph.attempted >= executions:
                break
        elif (ph.attempted >= len(jobs) and perf_counter() - start >= seconds
              and not (whole_rounds and ph.attempted % len(jobs))):
            break
    return ph


def speed_factors(refs):
    """Per execution, REF_NOMINAL_S over the median of the reference times
    within REF_WINDOW executions of it."""
    return [REF_NOMINAL_S / median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i in range(len(refs))]


def latency_stats(ph, rescale=True):
    """Throughput and latency of the job mix, from each input's median
    latency.  jobs_per_s is the number of inputs over the sum of their
    medians; the tail is the highest percentile that keeps TAIL_BEYOND
    inputs above it.  With rescale, each execution's time is first rescaled
    to the reference speed."""
    factors = speed_factors(ph.refs) if rescale else [1.0] * len(ph.walls)
    times = [[] for _ in ph.digests]
    for i, dt, f in zip(ph.order, ph.walls, factors):
        times[i].append(dt * f)
    per_input = sorted(median(t) for t in times if t)
    n = len(per_input)
    k = max(0, n - 1 - TAIL_BEYOND)
    return {
        "jobs_per_s": n / sum(per_input),
        "job_p50_ms": median(per_input) * 1e3,
        "job_tail_ms": per_input[k] * 1e3,
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_samples": n,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, jobs, seconds, trace):
    """Run the closed loop on jobs and summarise it.  With trace, the jobs
    run traced first and then untraced, and the outputs must agree."""
    result = {"inputs": len(jobs)}
    if not trace:
        ph = run_phase(wl, jobs, seconds=seconds)
        phases = [ph]
        correct = ph.deterministic
    else:
        import tracing
        import workloads

        # whole rounds, so the per-job counts repeat exactly
        with tracing.Tracer() as tracer:
            ph_traced = run_phase(wl, jobs, seconds=seconds, whole_rounds=True)
        ph = run_phase(wl, jobs, executions=ph_traced.attempted)
        same = ph_traced.digests == ph.digests
        if not same:
            print("traced and untraced runs produced different outputs", file=sys.stderr)
        correct = same and ph.deterministic and ph_traced.deterministic
        traced_rate = latency_stats(ph_traced)["jobs_per_s"]
        untraced_rate = latency_stats(ph)["jobs_per_s"]
        layers = tracer.metrics(ph_traced.attempted)
        layers["trace.jobs_per_s_traced"] = (traced_rate, "1/s")
        layers["trace.jobs_per_s_untraced"] = (untraced_rate, "1/s")
        layers["trace.overhead_ratio"] = (traced_rate / untraced_rate, "1")
        layers["trace.outputs_identical"] = (float(same), "1")
        for name, unit in workloads.DIAGNOSTICS.items():
            layers[name] = (ph.diagnostics.get(name, 0.0), unit)
        result["layers"] = layers
        phases = [ph_traced, ph]
    failed = sum(p.failed for p in phases)
    result.update(latency_stats(ph))
    wall = latency_stats(ph, rescale=False)
    result["wall"] = {k: wall[k] for k in ("jobs_per_s", "job_p50_ms", "job_tail_ms")}
    result["host_speed"] = REF_NOMINAL_S / median(ph.refs)
    result.update({
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "correct": bool(correct and failed == 0),
        "peak_rss_mb": peak_rss_mb(),
    })
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="stop once set-up is done")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import liouville_disk  # noqa: F401  (the cold-start cost every CLI call pays)

    import_s = perf_counter() - t0
    sys.path.insert(0, HERE)
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    t0 = perf_counter()
    jobs = wl.build(args.seed)
    generate_s = perf_counter() - t0
    print(json.dumps({"ready": True, "import_s": import_s, "generate_s": generate_s}),
          flush=True)
    reference = make_reference()
    refs = []
    for _ in range(SETUP_REF_SAMPLES):
        t0 = perf_counter()
        reference()
        refs.append(perf_counter() - t0)
    print(json.dumps({"speed": REF_NOMINAL_S / median(refs)}), flush=True)
    if args.probe:
        return 0

    result = measure(wl, jobs, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
