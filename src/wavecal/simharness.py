"""Monte Carlo driver for the component-curve estimation studies.

Three canned studies aggregate L = 2, 4 and 6 component functions.  For each
(M, SNR) cell, N replicate datasets are generated from per-replicate RNG
substreams.  Each replicate dataset is prepared once (`prepare`: input
checks, forward transform, sigma-hat, pseudo-inverse of the weights), and
every shrinkage rule then runs on that identical prepared dataset, so rule
comparisons are paired.  The replicates run on one worker thread per
available CPU, with the same output for any number of threads.
Per-component mean squared errors (`run_study`), one `compute_mse` call
per rule over all components, are aggregated into AMSE tables and
serialized as CSV/JSON with 17 significant digits (bitwise round-trip for
64-bit floats).  The true curves and their wavelet coefficients are computed
once per process.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import __version__
from .decomposition import (EstimationConfig, PipelineError, _read_only, estimate_components,
                            prepare)
from .shrinkage import (DEFAULT_J0, POLICY_GAMMA, POLICY_RULES, RULES, check_integer,
                        rule_defaults)
from .testbed import COMPONENT_NAMES, DatasetSpec, _fmt, _truth, _write_csv, generate_dataset
from .wavelet import make_filter, transform_columns

__all__ = [
    "STUDY_COMPONENTS",
    "RULE_NAMES",
    "StudyConfig",
    "ReplicateResult",
    "AmseRow",
    "ReplicateFailure",
    "compute_mse",
    "run_study",
    "aggregate",
    "emit_reports",
]

STUDY_COMPONENTS: dict[int, tuple[str, ...]] = {
    1: ("bumps", "blocks"),
    2: ("bumps", "blocks", "doppler", "logit"),
    3: COMPONENT_NAMES,
}

RULE_NAMES = tuple(RULES)

# The paper's design, fixed for every study: Daubechies filters with 10
# vanishing moments, uniform mixing weights (`draw_weights`) and the level
# policy's exponent POLICY_GAMMA.
VANISHING_MOMENTS = 10

DESK_REPLICATES = 20


@dataclass(frozen=True)
class StudyConfig:
    """Inputs of one Monte Carlo study; ``study`` (1, 2 or 3) names its
    components, STUDY_COMPONENTS[study].  A field of the wrong kind or out
    of range fails when the config is built."""

    study: int = 1
    m_values: tuple[int, ...] = (512,)
    snr_values: tuple[float, ...] = (3.0, 9.0)
    n_samples: int = 50
    replicates: int = DESK_REPLICATES
    rules: tuple[str, ...] = RULE_NAMES
    seed: int = 0
    J0: int = DEFAULT_J0

    def __post_init__(self):
        for name, low in (("study", 1), ("replicates", 1), ("J0", 0)):
            check_integer(name, getattr(self, name), low)
        if self.study not in STUDY_COMPONENTS:
            raise ValueError(f"study must be one of {sorted(STUDY_COMPONENTS)}")
        lists = {name: getattr(self, name) for name in ("rules", "m_values", "snr_values")}
        for name, values in lists.items():
            if not isinstance(values, (tuple, list)) or not values:
                raise ValueError(f"{name} must be a non-empty tuple, got {values!r}")
        for r in self.rules:
            if not isinstance(r, str) or r not in RULES:
                raise ValueError(f"unknown rule {r!r}; choose from {RULE_NAMES}")
        for M in self.m_values:
            for snr in self.snr_values:  # each cell's spec checks M, n_samples, snr, seed
                DatasetSpec(components=self.components, M=M, I=self.n_samples, snr=snr,
                            seed=self.seed)
            if M < 2 ** (self.J0 + 1):
                raise ValueError(f"M={M} has no detail level at J0={self.J0}: "
                                 f"need M >= 2^(J0+1) = {2 ** (self.J0 + 1)}")
        # a repeated value would merge its cells, counting each replicate twice
        for name, values in lists.items():
            if len(set(values)) < len(values):
                raise ValueError(f"duplicate value in {name}: {values}")
        # one type for an SNR in every report: an int 3 is written 3.0 as well
        object.__setattr__(self, "snr_values", tuple(float(s) for s in self.snr_values))

    @property
    def components(self) -> tuple[str, ...]:
        return STUDY_COMPONENTS[self.study]


@dataclass(frozen=True)
class _Cell:
    """The cell a row belongs to: a rule at one (M, snr) point of a study."""

    study: int
    rule: str
    M: int
    snr: float


@dataclass(frozen=True)
class ReplicateResult(_Cell):
    replicate: int
    component: str
    mse: float


@dataclass(frozen=True)
class ReplicateFailure(_Cell):
    replicate: int
    stage: str
    message: str


@dataclass(frozen=True)
class AmseRow(_Cell):
    component: str
    amse: float
    sd: float
    n: int


def compute_mse(estimate: np.ndarray, truth: np.ndarray):
    """Mean squared error (1/M) sum (est - truth)^2 over the M values of a
    vector, as a float, or over each column of an M x L matrix, as an array
    of L; PipelineError at the ``mse`` stage when an MSE is not finite,
    naming the first such column's value."""
    est = np.asarray(estimate, dtype=float)
    tr = np.asarray(truth, dtype=float)
    if est.shape != tr.shape:
        raise ValueError(f"length mismatch: {est.shape} vs {tr.shape}")
    if est.ndim not in (1, 2):
        raise ValueError(f"expected a vector or an M x L matrix, got shape {est.shape}")
    M = est.shape[0]
    # each column's squares are one contiguous row of an L x M array, so its
    # MSE has the bits of np.mean on that column alone
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN, named below
        squares = np.subtract(est.reshape(M, -1).T, tr.reshape(M, -1).T, order="C")
        squares *= squares
        mse = np.add.reduce(squares, axis=1) / M
    bad = mse[~np.isfinite(mse)]
    if bad.size:
        raise PipelineError("mse", f"the mean squared error is {float(bad[0])}")
    return float(mse[0]) if est.ndim == 1 else mse


@lru_cache(maxsize=16)
def _truth_coefficients(components: tuple[str, ...], M: int, J0: int) -> np.ndarray:
    """The read-only wavelet coefficients of `_truth` (components, M) down to
    J0, with the paper's filter: every study with that key scores against them."""
    return _read_only(transform_columns(_truth(components, M),
                                        make_filter("daubechies", VANISHING_MOMENTS), J0))


def _sort_key(r):
    return (r.study, r.rule, r.M, r.snr, r.replicate, r.component)


def _amse_key(row):
    return (row.study, row.rule, row.M, row.snr, row.component)


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _run_replicate(config: StudyConfig, est_configs: dict, gamma: np.ndarray,
                   spec: DatasetSpec, snr_index: int, rep: int):
    """(results, failures) of every rule of the study on one replicate
    dataset, prepared once, in rule order.  The raw dataset is freed once it
    is prepared, so that the rules run beside the prepared one alone."""
    dataset = generate_dataset(spec, spawn_key=(spec.M, snr_index, rep))
    snr = config.snr_values[snr_index]
    try:  # the rules' configs differ in the rule alone
        prepared = prepare(dataset.observed, dataset.weights, next(iter(est_configs.values())))
    except PipelineError as exc:  # every rule fails with it, as each call would
        return [], [ReplicateFailure(config.study, rule_name, spec.M, snr, rep, exc.stage,
                                     str(exc)) for rule_name in est_configs]
    del dataset
    results: list[ReplicateResult] = []
    failures: list[ReplicateFailure] = []
    for rule_name, est_config in est_configs.items():
        key = (config.study, rule_name, spec.M, snr, rep)
        try:
            mses = compute_mse(estimate_components(prepared, None, est_config), gamma)
        except PipelineError as exc:
            failures.append(ReplicateFailure(*key, exc.stage, str(exc)))
            continue
        results += [ReplicateResult(*key, comp, mse)
                    for comp, mse in zip(config.components, mses.tolist())]
    return results, failures


def run_study(config: StudyConfig):
    """Run the replicate loop.

    Returns (aggregate(results), results, failures).  Replicate r of cell
    (M, snr) is ``generate_dataset(spec, spawn_key=(M, snr_index, r))``, a
    substream of the study seed.  It is prepared once (`prepare`), and every
    rule runs on that prepared dataset (`estimate_components`), with the bits
    of a call on the raw dataset.  A failing pipeline or MSE aborts only its
    (rule, replicate) cell, recorded with its stage; a dataset that `prepare`
    rejects (at its input, transform, sigma or least-squares stage) records
    that failure for every rule.

    The replicates run on one thread per CPU this process may run on, at most
    one per replicate: this thread and a per-call pool of the others, each
    taking the next replicate not yet taken.  A pool of all of them, this
    thread only waiting, ran study 1 at M = 512 1.4-7.6% slower (5 of 5 pairs
    of 10 s runs, two Xeon CPUs) and took 0.2-0.9 MiB more peak RSS at studies
    1 and 3 (7 of 7).  Results and failures are kept in the order of the cells
    (M, then snr, then replicate, then rule), so the output does not depend on
    the number of threads or on their timing.  When a replicate raises
    anything but a `PipelineError`, or on KeyboardInterrupt, no thread starts
    another replicate, and the exception is raised once the running ones have
    ended.

    Each rule's MSEs are one `compute_mse` call on its estimated wavelet
    coefficients (the pipeline's ``output="coefficients"``) against the
    truth's, which are transformed once per process, one MSE per component.
    The transform is orthonormal, so this is the curve MSE to about 1e-14
    relative, without an inverse transform per rule and dataset;
    `estimate_components` still returns curves by default.
    """
    filt = make_filter("daubechies", VANISHING_MOMENTS)
    est_configs = {name: EstimationConfig(filter=filt, rule=RULES[name](), J0=config.J0,
                                          output="coefficients")
                   for name in config.rules}
    jobs = []
    for M in config.m_values:
        gamma = _truth_coefficients(config.components, M, config.J0)
        for snr_index, snr in enumerate(config.snr_values):
            spec = DatasetSpec(components=config.components, M=M,
                               I=config.n_samples, snr=snr, seed=config.seed)
            jobs += [(gamma, spec, snr_index, rep) for rep in range(config.replicates)]
    outcomes: list = [None] * len(jobs)
    unclaimed, lock, stop = iter(range(len(jobs))), threading.Lock(), threading.Event()

    def work():
        # run the next unclaimed replicate until none is left or a worker raised
        while not stop.is_set():
            with lock:
                k = next(unclaimed, None)
            if k is None:
                return
            try:
                outcomes[k] = _run_replicate(config, est_configs, *jobs[k])
            except BaseException:
                stop.set()
                raise

    # this thread is one of the workers, so the pool has one thread fewer
    helpers = min(_available_cpus(), len(jobs)) - 1
    with ThreadPoolExecutor(max(helpers, 1)) as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
        for future in futures:
            future.result()
    results = [r for done, _ in outcomes for r in done]
    failures = [f for _, failed in outcomes for f in failed]
    results.sort(key=_sort_key)
    return aggregate(results), results, failures


def aggregate(results: Sequence[ReplicateResult]) -> list[AmseRow]:
    """Group replicate MSEs by (study, rule, M, snr, component) into AMSE rows,
    sorted by that key.  Groups of one size are the rows of one matrix,
    reduced with the bits that np.mean and np.std give each group alone."""
    groups: dict[tuple, list[float]] = {}
    for r in results:
        groups.setdefault(_amse_key(r), []).append(r.mse)
    by_count: dict[int, list[tuple]] = {}
    for key, mses in groups.items():
        by_count.setdefault(len(mses), []).append(key)
    rows = []
    for n, keys in by_count.items():
        arr = np.array([groups[key] for key in keys])
        amse = np.mean(arr, axis=1)
        sd = np.std(arr, axis=1, ddof=1) if n > 1 else np.full(len(keys), np.nan)
        rows += [AmseRow(*key, amse=float(a), sd=float(d), n=n)
                 for key, a, d in zip(keys, amse, sd)]
    rows.sort(key=_amse_key)
    return rows


def emit_reports(rows: Sequence[AmseRow], stream: Sequence[ReplicateResult], outdir,
                 config: StudyConfig,
                 failures: Sequence[ReplicateFailure] = ()) -> dict[str, str]:
    """Write replicates.csv, amse.csv and run.json into ``outdir``.

    Returns the mapping of logical name to written path.  Numbers carry 17
    significant digits so re-parsing reproduces the exact doubles.  run.json
    lists each (rule, M, snr, component) cell of ``config`` with fewer than
    ``config.replicates`` successful replicates, n = 0 included.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = {name: os.path.join(outdir, name + ext)
             for name, ext in (("replicates", ".csv"), ("amse", ".csv"), ("run", ".json"))}

    _write_csv(paths["replicates"],
               ["study", "rule", "M", "snr", "replicate", "component", "mse"],
               ([r.study, r.rule, r.M, _fmt(r.snr), r.replicate, r.component, _fmt(r.mse)]
                for r in sorted(stream, key=_sort_key)))
    _write_csv(paths["amse"], ["study", "rule", "M", "snr", "component", "amse", "sd"],
               ([row.study, row.rule, row.M, _fmt(row.snr), row.component, _fmt(row.amse),
                 _fmt(row.sd)] for row in sorted(rows, key=_amse_key)))

    counts = {(row.rule, row.M, row.snr, row.component): row.n for row in rows}
    payload = {
        "version": __version__,
        "config": {
            **asdict(config),
            "components": config.components,
            "filter": {"family": "daubechies", "vanishing_moments": VANISHING_MOMENTS},
            "weight_scheme": "uniform",
            "sigma_mode": "pooled",
            "level_policy": {"gamma": POLICY_GAMMA, "applies_to": list(POLICY_RULES)},
            "rule_defaults": rule_defaults(),
        },
        "failed_replicates": [asdict(f) for f in failures],
        "incomplete_cells": [
            {"rule": rule, "M": M, "snr": snr, "component": component, "n": n}
            for rule, M, snr, component in sorted(itertools.product(
                config.rules, config.m_values, config.snr_values, config.components))
            if (n := counts.get((rule, M, snr, component), 0)) < config.replicates],
    }
    with open(paths["run"], "w") as fh:
        # a config's numbers may be numpy scalars, which json writes by value
        fh.write(json.dumps(payload, indent=2, sort_keys=True, default=np.generic.item) + "\n")
    return paths
