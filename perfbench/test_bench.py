"""Smoke tests of the benchmark itself, on a few cheap inputs per workload.

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 20240917  # not a seed the benchmark was tuned on


def cheap_jobs(name, seed=SEED):
    """Three of the cheapest inputs of a workload's round."""
    jobs = workloads.WORKLOADS[name].build(seed)
    if name == "topology":
        keep = [j for j in jobs if j.name == "fblank-2" or "-n32-" in j.name][:3]
    elif name == "singular-disk":
        keep = [j for j in jobs if j.params["n"] == 256][:3]
    else:
        keep = [j for j in jobs if j.expect["k"] == 10][:3]
    assert len(keep) == 3
    return keep


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_passes_every_oracle(name):
    jobs = cheap_jobs(name)
    res = worker.measure(workloads.WORKLOADS[name], jobs, seconds=0.0, trace=0)
    assert res["failed"] == 0 and res["correct"]
    assert res["attempted"] == len(jobs)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_every_declared_metric_with_its_unit(trace, kind):
    jobs = cheap_jobs("singular-disk")
    res = worker.measure(workloads.WORKLOADS["singular-disk"], jobs, seconds=0.0, trace=trace)
    metrics = run.assemble(res, [1.0, 1.1, 1.2], [0.5] * 3, [0.1] * 3, trace)
    assert {k: unit for k, (_v, unit) in metrics.items()} == declared(kind)
    assert all(isinstance(v, float) for v, _unit in metrics.values())
    if trace:
        assert metrics["trace.outputs_identical"][0] == 1.0
        assert metrics["spectral.eval_modes.calls"][0] > 0


def test_wrong_expected_value_counts_as_failed():
    jobs = cheap_jobs("topology")
    jobs[1].expect["index"] += 1
    res = worker.measure(workloads.WORKLOADS["topology"], jobs, seconds=0.0, trace=0)
    assert res["attempted"] == 3 and res["failed"] == 1
    assert not res["correct"]


def test_job_times_rescale_to_the_reference_speed():
    ph = worker.Phase(digests=[None, None], order=[0, 1, 0, 1], walls=[0.2, 0.4, 0.2, 0.4],
                      refs=[worker.REF_NOMINAL_S * 2] * 4)
    wall = worker.latency_stats(ph, rescale=False)
    fast = worker.latency_stats(ph)
    assert fast["job_p50_ms"] == pytest.approx(wall["job_p50_ms"] / 2)
    assert fast["jobs_per_s"] == pytest.approx(wall["jobs_per_s"] * 2)


def test_tracer_restores_the_package():
    from liouville_disk import arrangement, blank, quant

    import tracing

    before = (blank.build_arrangement, arrangement.build_arrangement, quant.Bubble.disk_map)
    with tracing.Tracer():
        assert blank.build_arrangement is arrangement.build_arrangement
        assert blank.build_arrangement is not before[0]
    assert (blank.build_arrangement, arrangement.build_arrangement,
            quant.Bubble.disk_map) == before


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "topology", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
