"""The benchmark's runs still work against this program.

The benchmark (`bench/`) traces the program by swapping the module-level
names through which its modules call each other, and checks that traced and
untraced outputs are equal byte for byte.  This runs a short traced run the
way the benchmark's own tests do, from the repository root, so a refactor
that breaks that contract fails here.  A short untraced run of each listed
workload checks every rule's AMSE at seed 0 against the stored
`bench/reference/<workload>.amse.csv` (relative 1e-6).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_all_rules_match_the_stored_reference(workload):
    run_bench(workload, trace=0)


def test_traced_run_is_correct_and_reports_every_layer():
    result = run_bench("mc_threshold_s1m512", trace=1)
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
