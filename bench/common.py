"""Settings and helpers shared by the untraced and traced benchmark runs.

The workloads fix the paper's Monte Carlo design: SNR 3 and 9, I = 50
aggregated samples, J0 = 3 and Daubechies filters with 10 vanishing moments,
all through `wavecal`'s public API and CLI.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np

from wavecal import (
    Abe,
    Bams,
    Beta,
    DatasetSpec,
    EstimationConfig,
    LevelPolicy,
    Logistic,
    Lpm,
    estimate_components,
    generate_dataset,
    make_filter,
)
from wavecal.cli import main as cli_main
from wavecal.simharness import RULE_NAMES, STUDY_COMPONENTS
from wavecal.testbed import dataset_to_csv

SNRS = (3.0, 9.0)
SAMPLES = 50
J0 = 3
VANISHING_MOMENTS = 10
# Two replicates per `simulate` call keep the AMSE sd column finite, so the
# reference comparison checks it too.
REPLICATES_PER_CALL = 2
DEFAULT_SEED = 0

# Rule name -> (unresolved spec, uses the level policy); the same pairing as
# `wavecal simulate` and `wavecal estimate`, rebuilt from public names.
RULE_SPECS = {
    "log": (Logistic(), True),
    "beta": (Beta(), True),
    "lpm": (Lpm(), False),
    "abe": (Abe(), False),
    "bams": (Bams(), False),
}
if tuple(RULE_SPECS) != RULE_NAMES:
    raise RuntimeError(f"benchmark rules {tuple(RULE_SPECS)} != wavecal rules {RULE_NAMES}")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "simulate" or "estimate"
    study: int
    M: int
    rules: tuple[str, ...]


# Why each workload was chosen is recorded in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("mc_allrules_s3m1024", "simulate", 3, 1024, RULE_NAMES),
    Workload("mc_threshold_s1m512", "simulate", 1, 512, ("lpm", "abe", "bams")),
    Workload("estimate_cli_s3m1024", "estimate", 3, 1024, ("log",)),
)}


def call_seed(seed: int, k: int) -> int:
    """Seed of the k-th operation of a run: distinct per call, fixed by --seed."""
    return seed * 100_000 + k


def estimation_config(rule: str, filt=None) -> EstimationConfig:
    spec, use_policy = RULE_SPECS[rule]
    return EstimationConfig(
        filter=filt if filt is not None else make_filter("daubechies", VANISHING_MOMENTS),
        rule=spec, J0=J0, policy=LevelPolicy(J0=J0) if use_policy else None)


def simulate_argv(study: int, M: int, rules, seed: int, out: str) -> list[str]:
    return ["simulate", "--study", str(study), "--m", str(M),
            "--snr", ",".join(format(s, "g") for s in SNRS),
            "--replicates", str(REPLICATES_PER_CALL), "--rules", ",".join(rules),
            "--seed", str(seed), "--samples", str(SAMPLES), "--j0", str(J0),
            "--out", out]


def estimate_argv(data_csv: str, weights_csv: str, rule: str, out: str) -> list[str]:
    return ["estimate", "--input", data_csv, "--weights", weights_csv,
            "--rule", rule, "--j0", str(J0),
            "--vanishing-moments", str(VANISHING_MOMENTS), "--out", out]


def run_cli(argv: list[str]) -> int:
    """`wavecal <argv>` in this process, with its printed paths discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def write_estimate_input(study: int, M: int, snr: float, seed: int, stem: str):
    """Generate one dataset and write it as `estimate` input files.

    Returns (dataset, data_csv, weights_csv).  Weights carry 17 significant
    digits, so the CLI parses the exact doubles.
    """
    dataset = generate_dataset(DatasetSpec(components=STUDY_COMPONENTS[study], M=M,
                                           I=SAMPLES, snr=snr, seed=seed))
    data_csv, weights_csv = stem + ".data.csv", stem + ".weights.csv"
    dataset_to_csv(dataset, data_csv)
    np.savetxt(weights_csv, dataset.weights, delimiter=",", fmt="%.17g")
    return dataset, data_csv, weights_csv


def warm_up() -> None:
    """Build the filter and fill the cached Gauss nodes of every rule."""
    filt = make_filter("daubechies", VANISHING_MOMENTS)
    dataset = generate_dataset(DatasetSpec(components=("bumps", "blocks"), M=64,
                                           I=4, snr=5.0, seed=0))
    for rule in RULE_NAMES:
        estimate_components(dataset.observed, dataset.weights,
                            estimation_config(rule, filt))
