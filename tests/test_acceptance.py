"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Reference AMSE values for this design depend on mixing
weights and rule hyperparameters that were never published, so criterion 7
checks direction-level findings under this package's documented defaults;
the SNR=3 ranking is reported but non-blocking.
"""

import os
import subprocess
import sys
import time

import numpy as np

from wavecal.decomposition import EstimationConfig, estimate_components, prepare, solve_gamma
from wavecal.shrinkage import (
    Abe,
    Bams,
    Beta,
    Logistic,
    Lpm,
    abe_rule,
    bams_rule,
    beta_rule,
    estimate_sigma,
    logistic_rule,
    lpm_rule,
)
from wavecal.simharness import STUDY_COMPONENTS, StudyConfig, emit_reports, run_study
from wavecal.testbed import draw_weights, eval_component, sample_grid
from wavecal.wavelet import make_filter, transform_columns

from oracles import bams_oracle, beta_oracle, logistic_oracle


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_transform_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_rt = worst_en = 0.0
    for v in (1, 4, 10):
        filt = make_filter("daubechies", v)
        for M in (64, 512, 1024):
            x = rng.standard_normal((M, 1000))
            d = transform_columns(x, filt, 3, "forward")
            back = transform_columns(d, filt, 3, "inverse")
            worst_rt = max(worst_rt, float(np.max(np.abs(back - x))))
            e_in = np.linalg.norm(x, axis=0)
            e_out = np.linalg.norm(d, axis=0)
            worst_en = max(worst_en, float(np.max(np.abs(e_out - e_in) / e_in)))
    elapsed = time.perf_counter() - t0
    ok = worst_rt < 1e-8 and worst_en < 1e-8 and elapsed < 10.0
    _report(1, ok, f"1000 signals x (M,V) grid: round-trip {worst_rt:.2e}, "
                   f"energy {worst_en:.2e}, {elapsed:.1f}s")


def test_criterion_2_rule_oracle_equivalence():
    t0 = time.perf_counter()
    d_grid = np.linspace(-10.0, 10.0, 201)

    worst_log = 0.0
    # tau = 1: the cases sigma / tau = 1, 1 / 2 and 0.5 / 1.5
    for p, sigma in [(0.9, 1.0), (0.5, 0.5), (0.8, 0.5 / 1.5)]:
        got = logistic_rule(d_grid, Logistic(sigma=sigma), p=p)
        want = logistic_oracle(d_grid, p, 1.0, sigma, panels=25_000)
        worst_log = max(worst_log, float(np.max(np.abs(got - want))))

    worst_beta = 0.0
    for p, m, sigma in [(0.9, 5.0, 1.0), (0.5, 8.0, 2.0), (0.0, 10.0, 1.0)]:
        got = beta_rule(d_grid, Beta(sigma=sigma), p=p, m=m)
        want = beta_oracle(d_grid, p, m, sigma, panels=25_000)
        worst_beta = max(worst_beta, float(np.max(np.abs(got - want))))

    worst_bams = 0.0
    # alpha = 0.8, tau = 3 sigma, mu = 1 / sigma^2
    for sigma in (0.5, 1.0, 2.0):
        got = bams_rule(d_grid, Bams(sigma=sigma))
        want = bams_oracle(d_grid, 0.8, 3.0 * sigma, 1.0 / sigma ** 2)
        worst_bams = max(worst_bams, float(np.max(np.abs(got - want))))

    elapsed = time.perf_counter() - t0
    ok = worst_log < 1e-6 and worst_beta < 1e-6 and worst_bams < 1e-10 and elapsed < 5.0
    _report(2, ok, f"logistic {worst_log:.2e} (<1e-6), beta {worst_beta:.2e} "
                   f"(<1e-6), bams {worst_bams:.2e} (<1e-10), {elapsed:.1f}s")


def test_criterion_3_closed_form_spot_values():
    checks = [
        ("abe_rule(2, sigma=1)", abe_rule(2.0, Abe(sigma=1.0)), 0.5),
        ("lpm_rule(3, sigma=1)", lpm_rule(3.0, Lpm(sigma=1.0)),
         (3.0 + np.sqrt(5.0)) / 2.0),
        ("estimate_sigma(calibrated)",
         estimate_sigma([0.6745, -0.6745, 0.6745, 0.6745]), 1.0),
        ("blocks(0.5)", eval_component("blocks", 0.5), 0.9),
        ("heavisine(0.5)", eval_component("heavisine", 0.5), -2.0),
        ("logit(0.5)", eval_component("logit", 0.5), 0.5),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    ok = worst < 1e-9
    _report(3, ok, f"six spot values, worst abs error {worst:.2e} (<1e-9)")


def test_criterion_4_property_suite():
    failures = []

    def rule_set(sigma):
        return {
            "log": lambda d: logistic_rule(d, Logistic(sigma=sigma), p=0.9),
            "beta": lambda d: beta_rule(d, Beta(sigma=sigma), p=0.9, m=10.0 * sigma),
            "lpm": lambda d: lpm_rule(d, Lpm(sigma=sigma)),
            "abe": lambda d: abe_rule(d, Abe(sigma=sigma)),
            "bams": lambda d: bams_rule(d, Bams(sigma=sigma)),
        }

    rng = np.random.default_rng(404)
    for sigma in (0.5, 1.0, 2.0):
        rules = rule_set(sigma)
        grid = np.linspace(-10 * sigma, 10 * sigma, 201)
        seeded = rng.uniform(0.0, 10.0 * sigma, size=50)
        for name, rule in rules.items():
            for d in seeded:
                if abs(rule(-float(d)) + rule(float(d))) > 1e-8:
                    failures.append(f"antisymmetry {name} sigma={sigma} d={d}")
            for d in grid:
                if abs(rule(float(d))) > abs(d) + 1e-12:
                    failures.append(f"bound {name} sigma={sigma} d={d}")

    # threshold regions
    for sigma in (0.5, 1.0, 2.0):
        lam = 2.0 * sigma  # 2 sigma sqrt(2k - 1) at k = 1
        spec = Lpm(sigma=sigma)
        for d in np.linspace(-3 * lam, 3 * lam, 301):
            v = lpm_rule(float(d), spec)
            if (abs(d) < lam) != (v == 0.0):
                failures.append(f"lpm threshold sigma={sigma} d={d}")
        bound = np.sqrt(3.0) * sigma
        spec = Abe(sigma=sigma)
        for d in np.linspace(-3 * bound, 3 * bound, 301):
            v = abe_rule(float(d), spec)
            if (abs(d) <= bound) != (v == 0.0):
                failures.append(f"abe threshold sigma={sigma} d={d}")

    # monotone shrinkage in p: a heavier point mass shrinks harder
    for d in (0.5, 1.5, 4.0):
        vals = [logistic_rule(d, Logistic(sigma=1.0), p=p)
                for p in np.linspace(0.05, 0.95, 10)]
        if not all(b < a for a, b in zip(vals, vals[1:])):
            failures.append(f"logistic p-monotonicity d={d}")
    for d in (0.5, 1.5, 2.0, 4.0, 6.0, 8.0):
        vals = [beta_rule(d, Beta(sigma=1.0), p=p, m=8.0)
                for p in np.linspace(0.05, 0.95, 10)]
        if not all(b < a for a, b in zip(vals, vals[1:])):
            failures.append(f"beta p-monotonicity d={d}")

    ok = not failures
    _report(4, ok, "antisymmetry, |delta(d)| <= |d|, threshold regions, "
                   f"p monotonicity: {len(failures)} failures"
                   + (f" (first: {failures[0]})" if failures else ""))


def test_criterion_5_exact_recovery():
    filt = make_filter("daubechies", 10)
    grid = sample_grid(512)
    worst = 0.0
    rng = np.random.default_rng(512)
    for study in (1, 3):
        names = STUDY_COMPONENTS[study]
        truth = np.column_stack([eval_component(n, grid) for n in names])
        y = draw_weights(len(names), 50, rng)
        observed = truth @ y
        for rule in (Lpm(sigma=0.0), Abe(sigma=0.0)):
            config = EstimationConfig(filter=filt, rule=rule, J0=3)
            alpha_hat = estimate_components(observed, y, config)
            worst = max(worst, float(np.max(np.abs(alpha_hat - truth))))
    ok = worst < 1e-6
    _report(5, ok, f"sigma=0 pipeline, LPM/ABE, studies 1 and 3: "
                   f"max abs error {worst:.2e} (<1e-6)")


def test_criterion_6_least_squares_oracle():
    def normal_equations_longdouble(D, y):
        Dl = np.asarray(D, dtype=np.longdouble)
        yl = np.asarray(y, dtype=np.longdouble)
        gram = yl @ yl.T
        rhs = yl @ Dl.T
        L = gram.shape[0]
        a = np.concatenate([gram, rhs], axis=1)
        for col in range(L):
            pivot = col + int(np.argmax(np.abs(a[col:, col])))
            a[[col, pivot]] = a[[pivot, col]]
            a[col] /= a[col, col]
            for r in range(L):
                if r != col:
                    a[r] -= a[r, col] * a[col]
        return np.asarray(a[:, L:].T, dtype=float)

    # the pseudo-inverse comes from prepare, here of zero observations
    config = EstimationConfig(filter=make_filter("daubechies", 4), rule=Lpm())
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(100):
        L = (2, 4, 6)[trial % 3]
        D = rng.standard_normal((64, 10))
        y = rng.uniform(0.5, 1.5, (L, 10))
        got = solve_gamma(D, prepare(np.zeros((16, 10)), y, config))
        want = normal_equations_longdouble(D, y)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst < 1e-8
    _report(6, ok, f"100 random instances vs extended-precision normal "
                   f"equations: max abs diff {worst:.2e} (<1e-8)")


def test_criterion_7_qualitative_study_one():
    t0 = time.perf_counter()
    config = StudyConfig(study=1, m_values=(512,), snr_values=(3.0, 9.0),
                         replicates=20, seed=42)
    rows, _, failures = run_study(config)
    elapsed = time.perf_counter() - t0
    amse = {(row.rule, row.snr, row.component): row.amse for row in rows}

    blocking = []
    if failures:
        blocking.append(f"{len(failures)} failed replicates")
    for comp in ("bumps", "blocks"):
        lpm9 = amse["lpm", 9.0, comp]
        log9 = amse["log", 9.0, comp]
        if not lpm9 < log9:
            blocking.append(f"LPM !< LOG at SNR=9 for {comp} ({lpm9:.4f} vs {log9:.4f})")
        for rule in config.rules:
            a3 = amse[rule, 3.0, comp]
            a9 = amse[rule, 9.0, comp]
            if not a9 <= a3:
                blocking.append(f"{rule} AMSE(9)={a9:.4f} > AMSE(3)={a3:.4f} for {comp}")

    # non-blocking: report which rule wins at SNR=3 (original finding: log)
    snr3_best = {}
    for comp in ("bumps", "blocks"):
        best = min(config.rules, key=lambda r: amse[r, 3.0, comp])
        snr3_best[comp] = best
    reversal = any(best != "log" for best in snr3_best.values())
    print(f"     criterion 7 note: SNR=3 best rule {snr3_best} "
          f"(reference: log; reversed: {reversal}; non-blocking)")

    ok = not blocking and elapsed < 60.0
    _report(7, ok, "study 1 (N=20, M=512, seed 42): LPM < LOG at SNR=9 and "
                   f"AMSE(9) <= AMSE(3) per rule; {elapsed:.1f}s"
                   + (f"; blocking: {blocking}" if blocking else ""))


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    config = StudyConfig(study=3, m_values=(512,), snr_values=(3.0, 9.0),
                         replicates=20, seed=7)
    rows, stream, failures = run_study(config)
    dir_a = tmp_path / "run_a"
    paths_a = emit_reports(rows, stream, dir_a, config=config, failures=failures)

    # second run through the CLI in a subprocess pinned to one thread
    dir_b = tmp_path / "run_b"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "wavecal", "simulate", "--study", "3",
         "--m", "512", "--snr", "3,9", "--replicates", "20",
         "--rules", "log,beta,lpm,abe,bams", "--seed", "7", "--out", str(dir_b)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr

    same = True
    for name in ("replicates.csv", "amse.csv"):
        same = same and (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    elapsed = time.perf_counter() - t0
    ok = same and not failures and elapsed < 120.0
    _report(8, ok, f"two desk-scale study-3 runs (seed 7, different thread "
                   f"caps): byte-identical CSVs = {same}, {elapsed:.1f}s")
