"""Command-line interface.

    wavecal simulate --study 1 --m 512 --snr 3,9 --replicates 20 \
        --rules log,beta,lpm,abe,bams --seed 42 --out results/
    wavecal estimate --input data.csv --weights y.csv --rule log --out results/
    wavecal rules --show
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from .decomposition import (
    EstimationConfig,
    PipelineError,
    estimate_components,
    estimates_to_csv,
)
from .shrinkage import RULES, rule_defaults
from .simharness import (
    DESK_REPLICATES,
    FULL_REPLICATES,
    RULE_NAMES,
    VANISHING_MOMENTS,
    StudyConfig,
    emit_reports,
    run_study,
)
from .wavelet import make_filter


def _parse_m(value: str) -> tuple[int, ...]:
    if value == "both":
        return (512, 1024)
    try:
        sizes = tuple(int(v) for v in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --m value {value!r}")
    for m in sizes:
        if m < 2 or m & (m - 1):
            raise argparse.ArgumentTypeError(f"M={m} is not a power of two")
    return sizes


def _parse_snr(value: str) -> tuple[float, ...]:
    try:
        snrs = tuple(float(v) for v in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --snr value {value!r}")
    if not all(0.0 < snr < np.inf for snr in snrs):
        raise argparse.ArgumentTypeError(f"bad --snr value {value!r}: not finite and > 0")
    return snrs


def _parse_rules(value: str) -> tuple[str, ...]:
    rules = tuple(v.strip() for v in value.split(",") if v.strip())
    for r in rules:
        if r not in RULE_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown rule {r!r}; choose from {','.join(RULE_NAMES)}")
    return rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavecal",
        description="Wavelet-domain Bayesian shrinkage for aggregated functional data")
    sub = parser.add_subparsers(dest="command", required=True)

    # an option that is not given is left out, and StudyConfig's default holds
    sim = sub.add_parser("simulate", help="run a Monte Carlo study",
                         argument_default=argparse.SUPPRESS)
    sim.add_argument("--study", type=int, choices=(1, 2, 3))
    sim.add_argument("--m", dest="m_values", metavar="M", type=_parse_m,
                     help="sample sizes: 512, 1024, both, or a comma list")
    sim.add_argument("--snr", dest="snr_values", metavar="SNR", type=_parse_snr)
    sim.add_argument("--replicates", type=int,
                     help=f"replicates per cell (default {DESK_REPLICATES}, "
                          f"or {FULL_REPLICATES} with --full)")
    sim.add_argument("--rules", type=_parse_rules)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--samples", dest="n_samples", metavar="SAMPLES", type=int,
                     help="number of aggregated samples I per dataset")
    sim.add_argument("--j0", dest="J0", type=int)
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--full", action="store_true", default=False,
                     help=f"full-scale profile: {FULL_REPLICATES} replicates")

    est = sub.add_parser("estimate", help="estimate components from a CSV dataset")
    est.add_argument("--input", required=True,
                     help="CSV with columns t,sample_id,value; sample_id is an "
                          "integer, and samples are taken in increasing numeric "
                          "sample_id order; every sample has the same uniformly "
                          "spaced t values, without duplicates")
    est.add_argument("--weights", required=True,
                     help="CSV holding the L x I mixing matrix; column i weights "
                          "the sample with the i-th smallest sample_id")
    est.add_argument("--rule", choices=RULE_NAMES, default="log")
    est.add_argument("--j0", dest="J0", type=int, default=argparse.SUPPRESS)
    est.add_argument("--vanishing-moments", type=int, default=VANISHING_MOMENTS)
    est.add_argument("--out", required=True, help="output directory")

    rules = sub.add_parser("rules", help="describe the shrinkage rules")
    rules.add_argument("--show", action="store_true",
                       help="print each rule's resolved hyperparameters")
    return parser


def _cmd_simulate(args) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(StudyConfig) if f.name in args}
    if args.full:
        given.setdefault("replicates", FULL_REPLICATES)
    config = StudyConfig(**given)
    report, stream, failures = run_study(config)
    paths = emit_reports(report, stream, args.out, config=config, failures=failures)
    for name in ("replicates", "amse", "run"):
        print(paths[name])
    if failures:
        print(f"warning: {len(failures)} replicate(s) failed; see run.json",
              file=sys.stderr)
    return 0


# the columns `estimate` reads, by header name, in the order of the fields
_SAMPLE_ROW = np.dtype([("t", float), ("sample_id", np.int64), ("value", float)])


def _read_samples(path):
    """(grid, M x I observations), one column per sample_id in increasing
    numeric order.  Every sample must have distinct t values on one common,
    uniformly spaced grid (each step within 1% of the mean step)."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or not set(_SAMPLE_ROW.names).issubset(header):
            raise ValueError(f"{path}: expected columns t,sample_id,value")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: reported below
            try:
                rows = np.loadtxt(fh, dtype=_SAMPLE_ROW, delimiter=",", quotechar='"',
                                  usecols=[header.index(n) for n in _SAMPLE_ROW.names],
                                  ndmin=1)
            except ValueError as exc:  # includes a sample_id that is not an integer
                raise ValueError(f"{path}: {exc}") from None
    if rows.size == 0:
        raise ValueError(f"{path}: no data rows")
    rows = rows[np.lexsort((rows["value"], rows["t"], rows["sample_id"]))]
    t, ids = rows["t"], rows["sample_id"]
    same_sample = ids[1:] == ids[:-1]
    duplicate = same_sample & (t[1:] == t[:-1])
    if duplicate.any():
        raise ValueError(f"{path}: sample_id {ids[np.argmax(duplicate)]} "
                         f"has duplicate t values")
    counts = np.diff(np.flatnonzero(np.r_[True, ~same_sample, True]))
    if np.any(counts != counts[0]):
        raise ValueError(f"{path}: samples are not on a common grid")
    grids = t.reshape(counts.size, counts[0])
    grid = grids[0]
    if not np.allclose(grids, grid, rtol=0, atol=1e-12):
        raise ValueError(f"{path}: samples are not on a common grid")
    steps = np.diff(grid)
    if steps.size and np.any(np.abs(steps - steps.mean()) > 0.01 * steps.mean()):
        raise ValueError(f"{path}: the t grid is not uniformly spaced (steps from "
                         f"{steps.min():.6g} to {steps.max():.6g})")
    return grid, np.ascontiguousarray(rows["value"].reshape(grids.shape).T)


def _cmd_estimate(args) -> int:
    grid, observed = _read_samples(args.input)
    weights = np.loadtxt(args.weights, delimiter=",", dtype=float, ndmin=2)
    if weights.shape[1] != observed.shape[1]:
        raise ValueError(f"{args.input} has {observed.shape[1]} distinct sample_ids "
                         f"but {args.weights} has {weights.shape[1]} weight columns")
    config = EstimationConfig(
        filter=make_filter("daubechies", args.vanishing_moments),
        rule=RULES[args.rule](), **({"J0": args.J0} if "J0" in args else {}))
    alpha_hat = estimate_components(observed, weights, config)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "alpha_hat.csv")
    estimates_to_csv(alpha_hat, grid, out_path)
    print(out_path)
    return 0


def _cmd_rules(args) -> int:
    defaults = rule_defaults()
    print(json.dumps(defaults, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        return _cmd_rules(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: [input] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
