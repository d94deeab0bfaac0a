"""Monte Carlo driver for the component-curve estimation studies.

Three canned studies aggregate L = 2, 4 and 6 component functions.  For each
(M, SNR) cell, N replicate datasets are generated from per-replicate RNG
substreams and every shrinkage rule is run on the identical dataset within a
replicate, so rule comparisons are paired.  Per-component mean squared errors
are aggregated into AMSE tables and serialized as CSV/JSON with 17
significant digits (bitwise round-trip for 64-bit floats).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .decomposition import EstimationConfig, PipelineError, estimate_components
from .shrinkage import POLICY_GAMMA, RULES, check_integer, rule_defaults
from .testbed import COMPONENT_NAMES, DatasetSpec, check_snr, generate_dataset
from .wavelet import make_filter

__all__ = [
    "STUDY_COMPONENTS",
    "RULE_NAMES",
    "StudyConfig",
    "ReplicateResult",
    "AmseRow",
    "AmseReport",
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
FULL_REPLICATES = 100


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
    J0: int = 3

    def __post_init__(self):
        for name, low in (("study", 1), ("replicates", 1), ("seed", 0), ("J0", 0)):
            check_integer(name, getattr(self, name), low)
        if self.study not in STUDY_COMPONENTS:
            raise ValueError(f"study must be one of {sorted(STUDY_COMPONENTS)}")
        check_integer("n_samples", self.n_samples, len(self.components))
        lists = {name: getattr(self, name) for name in ("rules", "m_values", "snr_values")}
        for name, values in lists.items():
            if not isinstance(values, (tuple, list)) or not values:
                raise ValueError(f"{name} must be a non-empty tuple, got {values!r}")
        for r in self.rules:
            if not isinstance(r, str) or r not in RULES:
                raise ValueError(f"unknown rule {r!r}; choose from {RULE_NAMES}")
        for M in self.m_values:
            check_integer("M", M)
            if M & (M - 1):
                raise ValueError(f"M={M} is not a power of two")
            if M < 2 ** (self.J0 + 1):
                raise ValueError(f"M={M} has no detail level at J0={self.J0}: "
                                 f"need M >= 2^(J0+1) = {2 ** (self.J0 + 1)}")
        for snr in self.snr_values:
            check_snr(snr)
        # a repeated value would merge its cells, counting each replicate twice
        for name, values in lists.items():
            if len(set(values)) < len(values):
                raise ValueError(f"duplicate value in {name}: {values}")

    @property
    def components(self) -> tuple[str, ...]:
        return STUDY_COMPONENTS[self.study]


@dataclass(frozen=True)
class ReplicateResult:
    study: int
    rule: str
    M: int
    snr: float
    replicate: int
    component: str
    mse: float


@dataclass(frozen=True)
class ReplicateFailure:
    study: int
    rule: str
    M: int
    snr: float
    replicate: int
    stage: str
    message: str


@dataclass(frozen=True)
class AmseRow:
    study: int
    rule: str
    M: int
    snr: float
    component: str
    amse: float
    sd: float
    n: int


@dataclass
class AmseReport:
    rows: list[AmseRow] = field(default_factory=list)

    def cell(self, rule: str, M: int, snr: float, component: str) -> AmseRow:
        for row in self.rows:
            if (row.rule, row.M, row.snr, row.component) == (rule, M, snr, component):
                return row
        raise KeyError((rule, M, snr, component))


def compute_mse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared error over the sampling grid: (1/M) sum (est - truth)^2;
    PipelineError at the ``mse`` stage when it is not finite."""
    est = np.asarray(estimate, dtype=float)
    tr = np.asarray(truth, dtype=float)
    if est.shape != tr.shape:
        raise ValueError(f"length mismatch: {est.shape} vs {tr.shape}")
    with np.errstate(over="ignore"):
        mse = float(np.mean((est - tr) ** 2))
    if not np.isfinite(mse):
        raise PipelineError("mse", f"the mean squared error is {mse}")
    return mse


def _sort_key(r):
    return (r.study, r.rule, r.M, r.snr, r.replicate, r.component)


def run_study(config: StudyConfig):
    """Run the replicate loop.

    Returns (report, results, failures).  Within one replicate all rules see
    the identical dataset.  Per-replicate substreams are spawned from
    (seed, (M, snr-index, replicate)), so output is deterministic regardless
    of execution order or thread count.  A failing pipeline or MSE aborts
    only its (rule, replicate) cell and is recorded with its stage label.
    """
    filt = make_filter("daubechies", VANISHING_MOMENTS)
    est_configs = {name: EstimationConfig(filter=filt, rule=RULES[name](), J0=config.J0)
                   for name in config.rules}
    results: list[ReplicateResult] = []
    failures: list[ReplicateFailure] = []
    for M in config.m_values:
        for snr_index, snr in enumerate(config.snr_values):
            spec = DatasetSpec(components=config.components, M=M,
                               I=config.n_samples, snr=snr, seed=config.seed)
            for rep in range(config.replicates):
                seed_seq = np.random.SeedSequence(
                    config.seed, spawn_key=(M, snr_index, rep))
                dataset = generate_dataset(spec, seed_seq=seed_seq)
                for rule_name in config.rules:
                    try:
                        alpha_hat = estimate_components(
                            dataset.observed, dataset.weights, est_configs[rule_name])
                        mses = [compute_mse(alpha_hat[:, l], dataset.truth[:, l])
                                for l in range(len(config.components))]
                    except PipelineError as exc:
                        failures.append(ReplicateFailure(
                            study=config.study, rule=rule_name, M=M, snr=snr,
                            replicate=rep, stage=exc.stage, message=str(exc)))
                        continue
                    results += [ReplicateResult(
                        study=config.study, rule=rule_name, M=M, snr=snr,
                        replicate=rep, component=comp, mse=mse)
                        for comp, mse in zip(config.components, mses)]
    results.sort(key=_sort_key)
    return aggregate(results), results, failures


def aggregate(results: Sequence[ReplicateResult]) -> AmseReport:
    """Group replicate MSEs by (study, rule, M, snr, component) into AMSE rows.
    Groups of one size are the rows of one matrix, reduced with the bits that
    np.mean and np.std give each group alone."""
    groups: dict[tuple, list[float]] = {}
    for r in results:
        groups.setdefault((r.study, r.rule, r.M, r.snr, r.component), []).append(r.mse)
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
    rows.sort(key=lambda row: (row.study, row.rule, row.M, row.snr, row.component))
    return AmseReport(rows=rows)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def emit_reports(report: AmseReport, stream: Sequence[ReplicateResult], outdir,
                 config: Optional[StudyConfig] = None,
                 failures: Sequence[ReplicateFailure] = (),
                 notes: Optional[dict] = None) -> dict[str, str]:
    """Write replicates.csv, amse.csv and run.json into ``outdir``.

    Returns the mapping of logical name to written path.  Numbers carry 17
    significant digits so re-parsing reproduces the exact doubles.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = {name: os.path.join(outdir, name + ext)
             for name, ext in (("replicates", ".csv"), ("amse", ".csv"), ("run", ".json"))}

    with open(paths["replicates"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["study", "rule", "M", "snr", "replicate", "component", "mse"])
        for r in sorted(stream, key=_sort_key):
            writer.writerow([r.study, r.rule, r.M, _fmt(r.snr), r.replicate,
                             r.component, _fmt(r.mse)])

    with open(paths["amse"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["study", "rule", "M", "snr", "component", "amse", "sd"])
        for row in sorted(report.rows, key=lambda r: (r.study, r.rule, r.M, r.snr, r.component)):
            writer.writerow([row.study, row.rule, row.M, _fmt(row.snr),
                             row.component, _fmt(row.amse), _fmt(row.sd)])

    payload: dict = {"version": __version__}
    if config is not None:
        payload["config"] = {
            **asdict(config),
            "components": config.components,
            "snr_values": [float(s) for s in config.snr_values],
            "filter": {"family": "daubechies", "vanishing_moments": VANISHING_MOMENTS},
            "weight_scheme": "uniform",
            "sigma_mode": "pooled",
            "level_policy": {"gamma": POLICY_GAMMA, "applies_to": ["log", "beta"]},
            "rule_defaults": rule_defaults(),
        }
    payload["failed_replicates"] = [asdict(f) for f in failures]
    incomplete = [
        {"rule": row.rule, "M": row.M, "snr": row.snr, "component": row.component,
         "n": row.n}
        for row in report.rows
        if config is not None and row.n < config.replicates]
    payload["incomplete_cells"] = incomplete
    if notes:
        payload["notes"] = notes
    with open(paths["run"], "w") as fh:
        # a config's integers may be numpy integers, which json writes as ints
        fh.write(json.dumps(payload, indent=2, sort_keys=True, default=int) + "\n")
    return paths
