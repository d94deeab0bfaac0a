"""Traced run: spans around the public calls of every wavecal module.

One sweep, repeated with the same inputs until --seconds have passed, works
at the workload's study and M with I = 50:

1. `wavecal simulate` with all five rules, untraced and then traced.  The
   two runs' replicates.csv, amse.csv and run.json must be equal byte for
   byte.
2. `wavecal estimate --rule log` on one CSV dataset per SNR, untraced and
   then traced.  The two alpha_hat.csv files must be equal byte for byte.

Tracing swaps the module-level names through which wavecal's modules call
each other (`cli.run_study`, `simharness.estimate_components`,
`decomposition.transform_columns`, ...) for wrappers that record a span, so
the traced calls run the program's own code and nothing else.  Work counts
are taken inside the same wrappers from the arguments the program passes.

Every sweep covers every layer and every rule, so each workload reports the
whole per-layer set; the workload's own rule set and call pattern shape only
its untraced end-to-end figures.  Counts are per call and therefore identical
across runs with one seed.  Tracing overhead is the traced wall time of a
sweep minus its untraced wall time.
"""

from __future__ import annotations

import contextlib
import filecmp
import os
import shutil
import statistics
import time
import warnings
from unittest import mock

import numpy as np

from wavecal import Abe, Bams, Beta, Logistic, Lpm
from wavecal import cli, decomposition, shrinkage, simharness
from wavecal.shrinkage import ShrinkageUnderflowWarning
from wavecal.simharness import RULE_NAMES

from common import (
    SNRS,
    call_seed,
    estimate_argv,
    run_cli,
    simulate_argv,
    warm_up,
    write_estimate_input,
)

RULE_OF_SPEC = {Logistic: "log", Beta: "beta", Lpm: "lpm", Abe: "abe", Bams: "bams"}
QUADRATURE_RULES = ("log", "beta")
SIMULATE_OUTPUTS = ("replicates.csv", "amse.csv", "run.json")

PER_LAYER_UNITS = {
    "testbed.generate_s": "s",
    "wavelet.forward_s": "s",
    "wavelet.inverse_s": "s",
    "wavelet.forward_flops": "count",
    "shrinkage.sigma_s": "s",
    "shrinkage.coefficients": "count",
    "shrinkage.underflow_count": "count",
    **{f"shrinkage.shrink_s.{r}": "s" for r in RULE_NAMES},
    **{f"shrinkage.kernel_evals.{r}": "count" for r in QUADRATURE_RULES},
    "decomposition.lstsq_s": "s",
    **{f"decomposition.self_s.{r}": "s" for r in RULE_NAMES},
    "simharness.mse_s": "s",
    "simharness.aggregate_s": "s",
    "simharness.emit_s": "s",
    "simharness.emit_bytes": "bytes",
    "simharness.self_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.rows_parsed": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]; -1 is a root."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            yield idx
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def indices(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def durations(self, name: str) -> list[float]:
        return [self.duration(i) for i in self.indices(name)]

    def child_totals(self) -> list[dict[str, float]]:
        """Per span, the time its direct child spans take, summed by name."""
        totals: list[dict[str, float]] = [{} for _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                totals[parent][name] = totals[parent].get(name, 0.0) + end - start
        return totals

    def self_times(self, name: str) -> list[float]:
        """Span duration minus the time its direct child spans cover."""
        totals = self.child_totals()
        return [self.duration(i) - sum(totals[i].values()) for i in self.indices(name)]


class Counts:
    """Work counts taken inside the traced calls, one entry per call."""

    def __init__(self):
        self.per_call: dict[str, list[int]] = {}
        self.underflows = 0
        self._pipeline: list[dict[str, int]] = []  # counters of open pipeline calls
        self._rule_ndim: list[int] = []            # input ndim of open rule calls

    def add(self, name: str, value: int) -> None:
        self.per_call.setdefault(name, []).append(int(value))

    def bump(self, key: str, value: int) -> None:
        if self._pipeline:
            self._pipeline[-1][key] += int(value)

    @contextlib.contextmanager
    def pipeline(self, rule: str):
        """An `estimate_components` call: count the detail coefficients it
        shrinks and, for a quadrature rule, its kernel evaluations."""
        self._pipeline.append({"coefficients": 0, "kernel_evals": 0})
        try:
            yield
        finally:
            frame = self._pipeline.pop()
            self.add("shrinkage.coefficients", frame["coefficients"])
            if rule in QUADRATURE_RULES:
                self.add(f"shrinkage.kernel_evals.{rule}", frame["kernel_evals"])

    def rule_call(self, fn):
        """A quadrature rule, noting the dimension of the coefficients it gets."""
        def counted(d, *args, **kwargs):
            self._rule_ndim.append(np.ndim(d))
            try:
                return fn(d, *args, **kwargs)
            finally:
                self._rule_ndim.pop()
        return counted

    def kernel(self, fn):
        """A density kernel; inside a rule call, an argument with more axes than
        the rule's coefficients carries a node axis, and each of its elements is
        one kernel evaluation.  Evaluations at the coefficients alone (a
        closed-form rule) are not counted."""
        def counted(x, *args, **kwargs):
            if self._rule_ndim and np.ndim(x) > self._rule_ndim[-1]:
                self.bump("kernel_evals", np.size(x))
            return fn(x, *args, **kwargs)
        return counted


@contextlib.contextmanager
def traced_program(tracer: Tracer, counts: Counts):
    """Within the block, wavecal's inter-module calls record spans and counts."""

    def estimate(observed, weights, config):
        rule = RULE_OF_SPEC[type(config.rule)]
        with tracer.span(f"decomposition.estimate_components.{rule}"), counts.pipeline(rule):
            return simharness_estimate(observed, weights, config)

    def transform(matrix, filt, J0, direction="forward"):
        if direction == "forward":
            M, I = np.shape(matrix)
            counts.add("wavelet.forward_flops", len(filt) * I * (2 * M - 2 ** (J0 + 1)))
        with tracer.span(f"wavelet.transform_columns.{direction}"):
            return transform_columns(matrix, filt, J0, direction)

    def shrink(pyr, rule, policy=None):
        counts.bump("coefficients", sum(np.size(d) for d in pyr.details))
        with tracer.span("shrinkage.shrink_pyramid"):
            return shrink_pyramid(pyr, rule, policy)

    def emit(*args, **kwargs):
        with tracer.span("simharness.emit_reports"):
            paths = emit_reports(*args, **kwargs)
        counts.add("simharness.emit_bytes", sum(os.path.getsize(p) for p in paths.values()))
        return paths

    simharness_estimate = simharness.estimate_components
    transform_columns = decomposition.transform_columns
    shrink_pyramid = decomposition.shrink_pyramid
    emit_reports = cli.emit_reports
    patches = [
        (cli, "run_study", tracer.wrap("simharness.run_study", cli.run_study)),
        (cli, "emit_reports", emit),
        (cli, "estimate_components", tracer.wrap(
            "decomposition.estimate_components.cli", cli.estimate_components)),
        (cli, "estimates_to_csv", tracer.wrap(
            "decomposition.estimates_to_csv", cli.estimates_to_csv)),
        (simharness, "generate_dataset", tracer.wrap(
            "testbed.generate_dataset", simharness.generate_dataset)),
        (simharness, "estimate_components", estimate),
        (simharness, "compute_mse", tracer.wrap(
            "simharness.compute_mse", simharness.compute_mse)),
        (simharness, "aggregate", tracer.wrap("simharness.aggregate", simharness.aggregate)),
        (decomposition, "transform_columns", transform),
        (decomposition, "estimate_sigma", tracer.wrap(
            "shrinkage.estimate_sigma", decomposition.estimate_sigma)),
        (decomposition, "shrink_pyramid", shrink),
        (decomposition, "solve_gamma", tracer.wrap(
            "decomposition.solve_gamma", decomposition.solve_gamma)),
        (shrinkage, "logistic_rule", counts.rule_call(shrinkage.logistic_rule)),
        (shrinkage, "beta_rule", counts.rule_call(shrinkage.beta_rule)),
        # the densities the quadrature rules evaluate on their node grids
        (shrinkage, "_logistic_pdf", counts.kernel(shrinkage._logistic_pdf)),
        (shrinkage, "_phi", counts.kernel(shrinkage._phi)),
    ]
    with contextlib.ExitStack() as stack:
        for module, name, wrapper in patches:
            stack.enter_context(mock.patch.object(module, name, wrapper))
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always", ShrinkageUnderflowWarning)
        try:
            yield
        finally:
            counts.underflows += sum(issubclass(c.category, ShrinkageUnderflowWarning)
                                     for c in caught)


def timed_pair(tracer: Tracer, counts: Counts, name: str, argv_for,
               work: str) -> tuple[float, float, bool]:
    """One untraced and one traced CLI call, writing to `<work>/<name>_u` and
    `<work>/<name>_t`; returns their wall times and whether both succeeded.
    ``argv_for`` maps an output directory to the call's arguments."""
    untraced_out, traced_out = (os.path.join(work, name + s) for s in ("_u", "_t"))
    for out in (untraced_out, traced_out):
        shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    rc_untraced = run_cli(argv_for(untraced_out))
    untraced = time.perf_counter() - t0
    with traced_program(tracer, counts), tracer.span(name) as idx:
        rc_traced = run_cli(argv_for(traced_out))
    return untraced, tracer.duration(idx), rc_untraced == rc_traced == 0


def same_files(ok: bool, work: str, name: str, files) -> list[bool]:
    """Per file, whether the untraced and traced outputs are equal byte for byte."""
    a, b = (os.path.join(work, name + s) for s in ("_u", "_t"))
    return [ok and filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False)
            for f in files]


def run_traced(w, seed: int, seconds: float, work: str):
    warm_up()
    tracer, counts = Tracer(), Counts()
    sim_seed = call_seed(seed, 0)
    estimate_inputs = []
    for d, snr in enumerate(SNRS):
        dataset, data_csv, weights_csv = write_estimate_input(
            w.study, w.M, snr, call_seed(seed, d), os.path.join(work, f"input{d}"))
        estimate_inputs.append((data_csv, weights_csv, dataset.observed.size))
    checks, overheads, untraced_walls, traced_wall = [], [], [], 0.0
    start = time.perf_counter()
    while not overheads or time.perf_counter() - start < seconds:
        untraced, traced, ok = timed_pair(
            tracer, counts, "cli.simulate",
            lambda out: simulate_argv(w.study, w.M, RULE_NAMES, sim_seed, out), work)
        checks += same_files(ok, work, "cli.simulate", SIMULATE_OUTPUTS)
        for data_csv, weights_csv, rows in estimate_inputs:
            u_est, t_est, ok = timed_pair(
                tracer, counts, "cli.estimate",
                lambda out: estimate_argv(data_csv, weights_csv, "log", out), work)
            checks += same_files(ok, work, "cli.estimate", ("alpha_hat.csv",))
            counts.add("cli.rows_parsed", rows)
            if ok:
                counts.add("cli.output_bytes",
                           os.path.getsize(os.path.join(work, "cli.estimate_t", "alpha_hat.csv")))
            untraced += u_est
            traced += t_est
        overheads.append(traced - untraced)
        untraced_walls.append(untraced)
        traced_wall += traced

    totals = tracer.child_totals()
    pipelines = {r: tracer.indices(f"decomposition.estimate_components.{r}")
                 for r in RULE_NAMES}
    every_pipeline = sorted(i for r in RULE_NAMES for i in pipelines[r])

    def stage(name: str, parents=every_pipeline) -> list[float]:
        """Per Monte Carlo `estimate_components` call, the time spent in ``name``."""
        return [totals[i].get(name, 0.0) for i in parents]

    times = {
        "testbed.generate_s": tracer.durations("testbed.generate_dataset"),
        "wavelet.forward_s": stage("wavelet.transform_columns.forward"),
        "wavelet.inverse_s": stage("wavelet.transform_columns.inverse"),
        "shrinkage.sigma_s": stage("shrinkage.estimate_sigma"),
        **{f"shrinkage.shrink_s.{r}": stage("shrinkage.shrink_pyramid", pipelines[r])
           for r in RULE_NAMES},
        "decomposition.lstsq_s": stage("decomposition.solve_gamma"),
        **{f"decomposition.self_s.{r}": tracer.self_times(
            f"decomposition.estimate_components.{r}") for r in RULE_NAMES},
        "simharness.mse_s": tracer.durations("simharness.compute_mse"),
        "simharness.aggregate_s": tracer.durations("simharness.aggregate"),
        "simharness.emit_s": tracer.durations("simharness.emit_reports"),
        "simharness.self_s": tracer.self_times("simharness.run_study"),
        "cli.self_s": tracer.self_times("cli.estimate"),
        "cli.write_s": tracer.durations("decomposition.estimates_to_csv"),
        "trace.overhead_s": overheads,
    }
    metrics, notes = {}, {}
    for name in PER_LAYER_UNITS:
        if name in times:
            values = times[name]
            metrics[name] = statistics.median(values)
            notes[name] = (f"median of {len(values)} calls, "
                           f"{100 * sum(values) / traced_wall:.2f}% of traced wall")
        elif name == "shrinkage.underflow_count":
            metrics[name] = counts.underflows // len(overheads)  # one overhead per sweep
            notes[name] = "per sweep"
        else:
            values = counts.per_call[name]
            metrics[name] = statistics.median_low(values)
            notes[name] = f"per call, {len(values)} calls"
    notes["trace.overhead_s"] = (f"median of {len(overheads)} sweeps, untraced sweep "
                                 f"{statistics.median(untraced_walls):.4g} s")
    details = {"sweeps": len(overheads), "checks": len(checks),
               "notes": notes, "spans": tracer.spans}
    return metrics, PER_LAYER_UNITS, len(checks), checks.count(False), details
