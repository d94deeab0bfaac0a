"""Workload loops, output checks, set-up timing, environment and the result.

Every workload is a closed loop with one caller: the next `wavecal` call
starts when the previous one has returned and been checked.  End-to-end
metrics come from these untraced loops; `--trace 1` hands over to
`tracing.run_traced` instead.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

import wavecal
from wavecal import estimate_components
from wavecal.simharness import STUDY_COMPONENTS

import tracing
from common import (
    DEFAULT_SEED,
    REPLICATES_PER_CALL,
    SNRS,
    WORKLOADS,
    call_seed,
    estimate_argv,
    estimation_config,
    run_cli,
    simulate_argv,
    warm_up,
    write_estimate_input,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
SETUP_REPEATS = 9
ESTIMATE_INPUTS = 4
AMSE_RTOL = 1e-6          # the tolerance of acceptance criterion 2
ESTIMATE_RTOL = 1e-6

END_TO_END_UNITS = {"setup_s": "s", "replicates_per_s": "1/s", "peak_rss_mb": "MiB"}

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import common
common.warm_up()
print(time.perf_counter() - t0)
"""


def measure_setup(src: str) -> float:
    """Seconds for a fresh process to import wavecal and finish the warm-up."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, src, BENCH_DIR],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def setup_sampler(src: str, seconds: float):
    """(times, between): ``between(elapsed)``, called before each operation of
    a run, adds a set-up time to ``times`` whenever the next of SETUP_REPEATS
    even steps through the run is due.  Spread over the run, the samples meet
    the host's slow and fast spells alike, so their median drifts less than
    that of samples taken back to back."""
    times: list[float] = []

    def between(elapsed: float) -> None:
        if len(times) < SETUP_REPEATS and elapsed >= len(times) * seconds / SETUP_REPEATS:
            times.append(measure_setup(src))

    return times, between


def environment(seed: int, thread_pins: dict[str, str]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "wavecal": wavecal.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model, "blas": blas, "blas_thread_caps": thread_pins,
            "seed": seed}


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _read_amse(path: str) -> dict[tuple, tuple[float, float]]:
    with open(path, newline="") as fh:
        return {(r["rule"], int(r["M"]), float(r["snr"]), r["component"]):
                (float(r["amse"]), float(r["sd"])) for r in csv.DictReader(fh)}


def simulate_cells(rules) -> set[tuple]:
    """The (rule, snr, replicate) cells one `simulate` call attempts."""
    return {(rule, snr, rep) for rule in rules for snr in SNRS
            for rep in range(REPLICATES_PER_CALL)}


def check_simulate(out: str, study: int, M: int, rules, reference) -> set[tuple]:
    """The failed (rule, snr, replicate) cells of one `simulate` call.

    A cell fails when run.json lists it, when a component MSE is missing or
    not finite, or when its AMSE row is missing, not finite or, given a
    reference, off by more than AMSE_RTOL relative.
    """
    components = STUDY_COMPONENTS[study]
    attempted = simulate_cells(rules)
    failed = set()
    with open(os.path.join(out, "run.json")) as fh:
        run = json.load(fh)
    for f in run["failed_replicates"]:
        failed.add((f["rule"], float(f["snr"]), int(f["replicate"])))
    seen: dict[tuple, set] = {}
    with open(os.path.join(out, "replicates.csv"), newline="") as fh:
        for r in csv.DictReader(fh):
            cell = (r["rule"], float(r["snr"]), int(r["replicate"]))
            if int(r["M"]) == M and math.isfinite(float(r["mse"])):
                seen.setdefault(cell, set()).add(r["component"])
    failed |= {cell for cell in attempted if seen.get(cell) != set(components)}
    amse = _read_amse(os.path.join(out, "amse.csv"))
    for rule in rules:
        for snr in SNRS:
            for comp in components:
                key = (rule, M, snr, comp)
                got = amse.get(key)
                ok = got is not None and all(math.isfinite(v) for v in got)
                if ok and reference is not None:
                    ok = all(abs(g - w) <= AMSE_RTOL * abs(w)
                             for g, w in zip(got, reference[key]))
                if not ok:
                    failed |= {(rule, snr, rep) for rep in range(REPLICATES_PER_CALL)}
    return failed & attempted


def check_estimate(path: str, grid: np.ndarray, reference: np.ndarray) -> float:
    """Largest |alpha_hat.csv - reference| relative to max(1, max|reference|);
    inf when the file's layout is wrong."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    M, L = reference.shape
    if rows.shape != (M * L, 3) or not np.array_equal(rows[:, 0], np.tile(grid, L)) \
            or not np.array_equal(rows[:, 1], np.repeat(np.arange(L), M)):
        return math.inf
    est = rows[:, 2].reshape(L, M).T
    return float(np.max(np.abs(est - reference)) / max(1.0, np.max(np.abs(reference))))


# ---------------------------------------------------------------------------
# untraced workload loops
# ---------------------------------------------------------------------------

def _timed_call(argv: list[str]) -> tuple[float, int]:
    t0 = time.perf_counter()
    try:
        rc = run_cli(argv)
    except Exception:  # one failed call is counted, the loop goes on
        traceback.print_exc()
        rc = -1
    return time.perf_counter() - t0, rc


def simulate_loop(w, seed: int, seconds: float, work: str, between) -> dict:
    reference = _read_amse(os.path.join(REFERENCE_DIR, f"{w.name}.amse.csv"))
    out = os.path.join(work, "simulate")
    cells = simulate_cells(w.rules)
    times, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        between(time.perf_counter() - start)
        k = len(times)
        shutil.rmtree(out, ignore_errors=True)
        elapsed, rc = _timed_call(simulate_argv(w.study, w.M, w.rules, call_seed(seed, k), out))
        times.append(elapsed)
        ref = reference if seed == DEFAULT_SEED and k == 0 else None
        attempted += len(cells)
        failed += len(cells) if rc != 0 else \
            len(check_simulate(out, w.study, w.M, w.rules, ref))
    return {"call_s": times, "datasets_per_call": REPLICATES_PER_CALL * len(SNRS),
            "attempted": attempted, "failed": failed}


def estimate_loop(w, seed: int, seconds: float, work: str, between) -> dict:
    inputs, references = [], []
    for d in range(ESTIMATE_INPUTS):
        dataset, data_csv, weights_csv = write_estimate_input(
            w.study, w.M, SNRS[d % len(SNRS)], call_seed(seed, d),
            os.path.join(work, f"input{d}"))
        inputs.append((dataset.grid, data_csv, weights_csv))
        # the columns in sample_id order are the dataset's own column order
        references.append(estimate_components(dataset.observed, dataset.weights,
                                              estimation_config(w.rules[0])))
    times, errors, failed = [], [], 0
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        between(time.perf_counter() - start)
        d = len(times) % ESTIMATE_INPUTS
        grid, data_csv, weights_csv = inputs[d]
        out = os.path.join(work, f"out{d}")
        shutil.rmtree(out, ignore_errors=True)
        elapsed, rc = _timed_call(estimate_argv(data_csv, weights_csv, w.rules[0], out))
        times.append(elapsed)
        err = check_estimate(os.path.join(out, "alpha_hat.csv"), grid, references[d]) \
            if rc == 0 else math.inf
        errors.append(err)
        failed += not err <= ESTIMATE_RTOL
    return {"call_s": times, "datasets_per_call": 1, "attempted": len(times),
            "failed": failed, "max_rel_error": max(errors)}


def run_untraced(w, seed: int, seconds: float, src: str, work: str):
    warm_up()
    setup, between = setup_sampler(src, seconds)
    loop = simulate_loop if w.kind == "simulate" else estimate_loop
    result = loop(w, seed, seconds, work, between)
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(src))
    times = result["call_s"]
    metrics = {
        "setup_s": statistics.median(setup),
        # The fastest call: other load on the host only ever slows a call down,
        # and it comes and goes within seconds, so the median call drifts
        # between runs by far more than the fastest does.
        "replicates_per_s": result["datasets_per_call"] / min(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    t = tail(times)
    latency = f"{w.kind}_s"  # latency per `estimate` or per `simulate` call
    details = {
        "calls": len(times),
        f"{latency}.p50": statistics.median(times),
        f"{latency}.tail": f"p{t[0]} = {t[1]:.6g} s" if t else "fewer than 11 calls",
        "failed_frac": result["failed"] / result["attempted"],
        "setup_runs_s": setup,
        "call_times_s": times,
    }
    if "max_rel_error" in result:
        details["max_rel_error"] = result["max_rel_error"]
    return metrics, END_TO_END_UNITS, result["attempted"], result["failed"], details


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv, root: str, thread_pins: dict[str, str]) -> int:
    args = _parse(argv)
    src = os.path.join(root, "src")
    if os.path.dirname(os.path.abspath(wavecal.__file__)) != os.path.join(src, "wavecal"):
        print(f"error: imported wavecal from {wavecal.__file__}, not {src}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    env = environment(args.seed, thread_pins)
    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-", dir=work_root)
    try:
        if args.trace:
            metrics, units, attempted, failed, details = tracing.run_traced(
                w, args.seed, args.seconds, work)
        else:
            metrics, units, attempted, failed, details = run_untraced(
                w, args.seed, args.seconds, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": w.name, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "metrics": metrics, "details": details}
    stem = os.path.join(work_root, f"{w.name}-seed{args.seed}-trace{args.trace}")
    spans = details.pop("spans", None)
    if spans is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": spans}, fh)
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=2)

    print(f"workload {w.name}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    notes = details.get("notes", {})
    for name, value in details.items():
        if not isinstance(value, (list, dict)):
            print(f"  {name}: {value}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0
