"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run `bench/run.py` as the driver does, from the repository root, with
short runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
ALL_WORKLOADS = ("mc_allrules_s3m1024", "mc_threshold_s1m512", "estimate_cli_s3m1024")


def run(workload, trace, seed=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(workload, trace, seed=0):
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pair():
    return [result("mc_threshold_s1m512", 1, seed=3) for _ in range(2)]


def test_benchmark_json_workloads_are_runnable():
    assert {w["name"] for w in BENCH["workloads"]} <= set(ALL_WORKLOADS)


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_untraced_metrics_match_benchmark_json(workload):
    res = result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1 and res["correct"] == (res["failed"] == 0)
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    if workload.startswith("mc_"):
        assert res["failed"] == 0


def test_traced_metrics_match_benchmark_json(traced_pair):
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for res in traced_pair:
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected


def test_traced_outputs_match_untraced(traced_pair):
    # byte-for-byte replicates.csv, amse.csv, run.json and alpha_hat.csv
    for res in traced_pair:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0


def test_traced_counts_identical_across_runs(traced_pair):
    counts = ("wavelet.forward_flops", "shrinkage.coefficients",
              "shrinkage.kernel_evals.log", "shrinkage.kernel_evals.beta",
              "cli.rows_parsed", "cli.output_bytes", "simharness.emit_bytes",
              "shrinkage.underflow_count")
    first, second = ({name: res["metrics"][name]["value"] for name in counts}
                     for res in traced_pair)
    assert first == second
    M, I, J0, taps = 512, 50, 3, 20
    assert first["wavelet.forward_flops"] == taps * I * (2 * M - 2 ** (J0 + 1))
    assert first["shrinkage.coefficients"] == (M - 2 ** J0) * I
    assert first["shrinkage.kernel_evals.log"] == (M - 2 ** J0) * I * 64
    assert first["shrinkage.kernel_evals.beta"] == (M - 2 ** J0) * I * 128
    assert first["cli.rows_parsed"] == M * I


@pytest.fixture
def bench_modules(monkeypatch):
    for path in (ROOT / "bench", ROOT / "src"):
        monkeypatch.syspath_prepend(str(path))
    import common
    import tracing
    return common, tracing


def test_kernel_evals_count_only_node_grids(bench_modules, monkeypatch):
    common, tracing = bench_modules
    from wavecal import DatasetSpec, generate_dataset, shrinkage, simharness

    dataset = generate_dataset(DatasetSpec(components=("bumps", "blocks"), M=64,
                                           I=4, snr=5.0, seed=1))

    def beta_kernel_evals():
        counts = tracing.Counts()
        with tracing.traced_program(tracing.Tracer(), counts):
            simharness.estimate_components(dataset.observed, dataset.weights,
                                           common.estimation_config("beta"))
        return counts.per_call["shrinkage.coefficients"], \
            counts.per_call["shrinkage.kernel_evals.beta"]

    coefficients, evals = beta_kernel_evals()
    assert coefficients == [(64 - 2 ** common.J0) * 4]
    assert evals == [coefficients[0] * shrinkage.DEFAULT_GL_NODES]

    def closed_form(d, spec, quad=None):  # keeps `quad` but evaluates no node grid
        arr = np.asarray(d, dtype=float)
        return arr * (1.0 - shrinkage._phi(arr / spec.sigma))

    monkeypatch.setattr(shrinkage, "beta_rule", closed_form)
    assert beta_kernel_evals() == (coefficients, [0])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(BENCH["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
