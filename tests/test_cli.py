"""Command-line interface: exit codes, file outputs, error labeling."""

import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from wavecal import cli, simharness
from wavecal.cli import _read_samples, main
from wavecal.decomposition import EstimationConfig, estimate_components
from wavecal.shrinkage import RULES
from wavecal.testbed import DatasetSpec, dataset_to_csv, generate_dataset
from wavecal.wavelet import make_filter


def test_rules(capsys):
    assert main(["rules"]) == 0
    out = capsys.readouterr().out
    with open(os.path.join(os.path.dirname(__file__), "data", "rules.json")) as want:
        assert out == want.read()  # the checked-in output, byte for byte
    payload = json.loads(out)
    assert set(payload) == {"log", "beta", "lpm", "abe", "bams"}
    assert payload["abe"]["threshold"] == "sqrt(3) sigma"
    # beta's shape is fixed at a = 2, reported as the float the run.json files hold
    assert type(payload["beta"]["a"]) is float and payload["beta"]["a"] == 2.0


@pytest.mark.parametrize("snr,failed_stages", [("3", []), ("1e-300", ["mse"])])
def test_simulate_writes_reports(tmp_path, capsys, snr, failed_stages):
    # at SNR 1e-300 the squared error overflows: the replicate fails at its
    # stage, the reports are still written, and the run exits 0 with a warning
    out = tmp_path / "results"
    rc = main(["simulate", "--study", "1", "--m", "64", "--snr", snr,
               "--replicates", "1", "--rules", "lpm", "--seed", "4",
               "--samples", "8", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert str(out / "replicates.csv") in captured.out.splitlines()
    assert ("replicate(s) failed" in captured.err) == bool(failed_stages)
    with open(out / "amse.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["component"] for r in rows} == (set() if failed_stages else {"bumps", "blocks"})
    payload = json.loads((out / "run.json").read_text())
    assert payload["config"]["replicates"] == 1
    assert [f["stage"] for f in payload["failed_replicates"]] == failed_stages


def test_simulate_m_both_parses(tmp_path):
    rc = main(["simulate", "--study", "1", "--m", "both", "--snr", "3",
               "--replicates", "1", "--rules", "abe", "--samples", "4",
               "--out", str(tmp_path / "r")])
    assert rc == 0
    with open(tmp_path / "r" / "amse.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["M"] for r in rows} == {"512", "1024"}


def test_estimate_round_trip(tmp_path, capsys):
    spec = DatasetSpec(components=("bumps", "blocks"), M=128, I=10, snr=5.0, seed=21)
    ds = generate_dataset(spec)
    data_csv = tmp_path / "data.csv"
    dataset_to_csv(ds, data_csv)
    weights_csv = tmp_path / "y.csv"
    np.savetxt(weights_csv, ds.weights, delimiter=",")
    out = tmp_path / "est"
    rc = main(["estimate", "--input", str(data_csv), "--weights", str(weights_csv),
               "--rule", "lpm", "--out", str(out)])
    assert rc == 0
    with open(out / "alpha_hat.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 128 * 2
    est = np.full((128, 2), np.nan)
    for row in rows:
        m = int(round(float(row["t"]) * 128)) - 1
        est[m, int(row["component_index"])] = float(row["estimate"])
    # denoised estimate should be in the right ballpark
    assert np.mean((est - ds.truth) ** 2) < np.var(ds.truth)


def read_alpha_hat(path, M, L):
    est = np.full((M, L), np.nan)
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            m = int(round(float(row["t"]) * M)) - 1
            est[m, int(row["component_index"])] = float(row["estimate"])
    return est


@pytest.mark.parametrize("rule", tuple(RULES))
def test_estimate_orders_samples_numerically(tmp_path, rule):
    # with I >= 11, sorting ids as strings (0, 1, 10, 11, 2, ...) would pair
    # observed columns with the wrong weight columns
    spec = DatasetSpec(components=("bumps", "blocks"), M=128, I=12, snr=5.0, seed=22)
    ds = generate_dataset(spec)
    data_csv, weights_csv = tmp_path / "data.csv", tmp_path / "y.csv"
    dataset_to_csv(ds, data_csv)
    np.savetxt(weights_csv, ds.weights, delimiter=",", fmt="%.17g")
    rc = main(["estimate", "--input", str(data_csv), "--weights", str(weights_csv),
               "--rule", rule, "--out", str(tmp_path / "est")])
    assert rc == 0
    want = estimate_components(ds.observed, ds.weights, EstimationConfig(
        filter=make_filter("daubechies", 10), rule=RULES[rule](), J0=3))
    np.testing.assert_array_equal(read_alpha_hat(tmp_path / "est" / "alpha_hat.csv",
                                                 128, 2), want)


def read_samples_by_row(path):
    """One sorted (t, value) list per integer sample_id, in id order."""
    by_sample = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            by_sample.setdefault(int(row["sample_id"]), []).append(
                (float(row["t"]), float(row["value"])))
    columns = [sorted(by_sample[sid]) for sid in sorted(by_sample)]
    return (np.array([t for t, _ in columns[0]]),
            np.array([[v for _, v in column] for column in columns]).T)


def test_read_samples_matches_row_by_row_reading(tmp_path):
    # rows shuffled, columns in another order, an extra column, quoted ids
    ds = generate_dataset(DatasetSpec(components=("bumps",), M=32, I=12, snr=5.0, seed=25))
    rows = [(repr(float(ds.observed[m, i])), "x", repr(float(ds.grid[m])),
             f'"{i * 7 - 30}"') for i in range(12) for m in range(32)]
    order = np.random.default_rng(0).permutation(len(rows))
    with open(tmp_path / "data.csv", "w", newline="") as fh:
        fh.write("value,note,t,sample_id\n")
        fh.writelines(",".join(rows[k]) + "\n" for k in order)
    grid, observed = _read_samples(tmp_path / "data.csv")
    want_grid, want = read_samples_by_row(tmp_path / "data.csv")
    np.testing.assert_array_equal(grid, want_grid)
    np.testing.assert_array_equal(observed, want)
    np.testing.assert_array_equal(observed, ds.observed)
    assert observed.flags.c_contiguous


@pytest.mark.parametrize("body,message", [
    ("", "no data rows"),
    ("0.5,1,1.0\n1.0,1\n", "[input]"),
    ("0.5,1.5,1.0\n", "int64"),
    ("0.5,0,1.0\n1.0,0,2.0\n0.5,1,1.0\n", "not on a common grid"),
])
def test_estimate_malformed_rows_rejected(tmp_path, capsys, body, message):
    (tmp_path / "data.csv").write_text("t,sample_id,value\n" + body)
    np.savetxt(tmp_path / "y.csv", np.ones((1, 2)), delimiter=",")
    rc = main(["estimate", "--input", str(tmp_path / "data.csv"),
               "--weights", str(tmp_path / "y.csv"), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "[input]" in err and message in err


def test_estimate_sample_count_must_match_weights(tmp_path, capsys):
    spec = DatasetSpec(components=("bumps",), M=64, I=4, snr=5.0, seed=23)
    ds = generate_dataset(spec)
    data_csv, weights_csv = tmp_path / "data.csv", tmp_path / "y.csv"
    dataset_to_csv(ds, data_csv)
    np.savetxt(weights_csv, np.ones((1, 5)), delimiter=",")
    rc = main(["estimate", "--input", str(data_csv), "--weights", str(weights_csv),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "[input]" in err and "4 distinct sample_ids" in err and "5 weight columns" in err


def test_estimate_reads_a_one_column_weights_file_as_one_sample(tmp_path, capsys):
    # an L x 1 file is L components of one sample, not one component of L
    # samples, so the error is the true one: fewer samples than components
    ds = generate_dataset(DatasetSpec(components=("bumps",), M=64, I=1, snr=5.0, seed=23))
    data_csv, weights_csv = tmp_path / "data.csv", tmp_path / "y.csv"
    dataset_to_csv(ds, data_csv)
    np.savetxt(weights_csv, np.ones((2, 1)), delimiter=",")
    rc = main(["estimate", "--input", str(data_csv), "--weights", str(weights_csv),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "[least-squares] underdetermined mixing: L=2 components, I=1 samples" in err


def test_estimate_empty_weights_file_has_no_data_rows(tmp_path, capsys):
    # np.loadtxt reads an empty file as 0 x 1 weights, with a warning; with a
    # one-sample input those pass the column check
    ds = generate_dataset(DatasetSpec(components=("bumps",), M=64, I=1, snr=5.0, seed=23))
    data_csv, weights_csv = tmp_path / "data.csv", tmp_path / "y.csv"
    dataset_to_csv(ds, data_csv)
    weights_csv.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["estimate", "--input", str(data_csv), "--weights", str(weights_csv),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: [input] {weights_csv}: no data rows\n"


def test_estimate_non_integer_sample_id_rejected(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    with open(data_csv, "w") as fh:
        fh.write("t,sample_id,value\n0.5,a,1.0\n1.0,a,2.0\n")
    weights_csv = tmp_path / "y.csv"
    np.savetxt(weights_csv, np.ones((1, 1)), delimiter=",")
    rc = main(["estimate", "--input", str(data_csv), "--weights", str(weights_csv),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "[input]" in capsys.readouterr().err


def test_estimate_bad_grid_fails_with_label(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    with open(data_csv, "w") as fh:
        fh.write("t,sample_id,value\n0.5,0,1.0\n1.0,0,2.0\n0.25,1,1.0\n1.0,1,2.0\n")
    weights_csv = tmp_path / "y.csv"
    np.savetxt(weights_csv, np.ones((1, 2)), delimiter=",")
    rc = main(["estimate", "--input", str(data_csv), "--weights", str(weights_csv),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "common grid" in capsys.readouterr().err


def write_sample_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "sample_id", "value"])
        writer.writerows(rows)


def test_estimate_duplicate_t_rejected(tmp_path, capsys):
    # both samples repeat t = 0.5 in place of t = 0.75: a common grid of
    # dyadic length, four rows per sample
    grid = [0.25, 0.5, 0.5, 1.0]
    write_sample_rows(tmp_path / "data.csv", [(t, i, 1.0) for i in range(2) for t in grid])
    np.savetxt(tmp_path / "y.csv", np.ones((1, 2)), delimiter=",")
    rc = main(["estimate", "--input", str(tmp_path / "data.csv"),
               "--weights", str(tmp_path / "y.csv"), "--j0", "0",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "[input]" in err and "sample_id 0 has duplicate t values" in err


def test_estimate_non_uniform_grid_rejected(tmp_path, capsys):
    # a common grid of dyadic length with one gap: 8 of the points t = m/9
    grid = [m / 9 for m in range(1, 10) if m != 5]
    write_sample_rows(tmp_path / "data.csv",
                      [(t, i, float(k % 3)) for i in range(2) for k, t in enumerate(grid)])
    np.savetxt(tmp_path / "y.csv", np.ones((1, 2)), delimiter=",")
    rc = main(["estimate", "--input", str(tmp_path / "data.csv"),
               "--weights", str(tmp_path / "y.csv"), "--j0", "0",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "[input]" in err and "not uniformly spaced" in err


def test_estimate_policy_rule_at_other_j0(tmp_path):
    # `log` and `beta` take p(j) = 1 - (j - J0 + 1)^-2 at J0 = --j0
    spec = DatasetSpec(components=("bumps", "blocks"), M=128, I=6, snr=5.0, seed=24)
    ds = generate_dataset(spec)
    dataset_to_csv(ds, tmp_path / "data.csv")
    np.savetxt(tmp_path / "y.csv", ds.weights, delimiter=",", fmt="%.17g")
    for rule in ("log", "beta"):
        rc = main(["estimate", "--input", str(tmp_path / "data.csv"),
                   "--weights", str(tmp_path / "y.csv"), "--rule", rule,
                   "--j0", "2", "--out", str(tmp_path / rule)])
        assert rc == 0


def test_estimate_refuses_an_oversized_logistic_table(tmp_path, capsys):
    # noise sd 1e4 against the prior scale tau = 1, and one sample point 1e9
    # high: the table would need about 8 min(1e9, sigma^2 / tau) / sigma = 8e4
    # panels, a build of seconds that `log` refuses before it starts
    ds = generate_dataset(DatasetSpec(components=("bumps",), M=256, I=4, snr=5.0, seed=6))
    observed = 1e4 * np.random.default_rng(6).standard_normal((256, 4))
    observed[100] += 1e9
    dataset_to_csv(replace(ds, observed=observed), tmp_path / "data.csv")
    np.savetxt(tmp_path / "y.csv", ds.weights, delimiter=",", fmt="%.17g")
    rc = main(["estimate", "--input", str(tmp_path / "data.csv"),
               "--weights", str(tmp_path / "y.csv"), "--rule", "log",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [shrinkage]") and "rescale the data" in err


def test_estimate_non_dyadic_length_fails_with_stage(tmp_path, capsys):
    spec = DatasetSpec(components=("logit",), M=64, I=2, snr=5.0, seed=2)
    ds = generate_dataset(spec)
    data_csv = tmp_path / "data.csv"
    with open(data_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "sample_id", "value"])
        for i in range(2):
            for m in range(63):  # drop one row: length no longer dyadic
                writer.writerow([ds.grid[m], i, ds.observed[m, i]])
    weights_csv = tmp_path / "y.csv"
    np.savetxt(weights_csv, ds.weights, delimiter=",")
    rc = main(["estimate", "--input", str(data_csv), "--weights", str(weights_csv),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "[transform]" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    # M < 2^(J0+1) would fail every replicate at the transform stage and
    # leave an amse.csv with only its header
    (["--m", "8"], "M=8 has no detail level"),
    (["--m", "512", "--j0", "9"], "M=512 has no detail level"),
    # a repeated value would merge two cells into one, counting every
    # replicate twice in replicates.csv and in the AMSE
    (["--snr", "3,3"], "duplicate value in snr_values"),
    (["--snr", "3,3.0"], "duplicate value in snr_values"),
    (["--rules", "lpm,lpm"], "duplicate value in rules"),
    (["--m", "64,64"], "duplicate value in m_values"),
    # sd / snr overflows: every replicate would fail at the input stage,
    # with exit code 0
    (["--snr", "1e-310"], "snr 1e-310 is too small"),
    # argparse only parses; StudyConfig judges every value, so a value out
    # of range exits 1, like the ones above, and not 2 with a usage line.
    # NaN would otherwise reach the generated data and fail every replicate
    # at the input stage, with an empty amse.csv and exit code 0
    (["--rules", "soft"], "unknown rule 'soft'"),
    (["--snr", "nan"], "snr must be finite and in (0, inf), got nan"),
    (["--snr", "3,nan"], "snr must be finite and in (0, inf), got nan"),
    (["--snr", "inf"], "snr must be finite and in (0, inf), got inf"),
    (["--snr", "0"], "snr must be finite and in (0, inf), got 0.0"),
    (["--snr", "-3"], "snr must be finite and in (0, inf), got -3.0"),
    (["--m", "3"], "M must be a power of two >= 2, got 3"),
    (["--study", "4"], "study must be one of [1, 2, 3]"),
])
def test_simulate_bad_design_rejected(tmp_path, capsys, args, message):
    out = tmp_path / "r"
    # the last of a repeated option wins, so ``args`` overrides these values
    rc = main(["simulate", "--study", "1", "--m", "64", "--snr", "3", "--rules", "lpm",
               "--replicates", "2", "--samples", "4", "--out", str(out), *args])
    assert rc == 1
    assert f"error: [input] {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [["--snr", "3,,9"], ["--m", "x"], ["--study", "one"],
                                  ["--samples", "4.5"]])
def test_simulate_text_that_does_not_parse_is_a_usage_error(tmp_path, capsys, args):
    out = tmp_path / "r"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--study", "1", "--m", "64", "--out", str(out), *args])
    assert exc.value.code == 2
    assert "usage: wavecal simulate" in capsys.readouterr().err
    assert not out.exists()


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "study3_m64_128_seed0")


def test_simulate_bytes_match_the_checked_in_outputs(tmp_path, capsys):
    # `wavecal simulate --study 3 --m 64,128 --replicates 2 --seed 0 --rules
    # log,beta,lpm,abe,bams`; every rule and both M, byte for byte.  The CSVs
    # were rewritten when the MSE moved to the wavelet domain, which moved
    # them by at most 3.2e-15 (mse), 1.2e-15 (amse) and 1.8e-13 (sd)
    # relative.  run.json, written after `log` and `beta` stopped reporting
    # a p, pins the reported configuration
    rc = main(["simulate", "--study", "3", "--m", "64,128", "--replicates", "2",
               "--seed", "0", "--rules", "log,beta,lpm,abe,bams", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("replicates.csv", "amse.csv", "run.json"):
        with open(os.path.join(GOLDEN, name), "rb") as want, \
                open(tmp_path / name, "rb") as got:
            assert got.read() == want.read(), name


def test_simulate_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys):
    # run_study runs the replicates on one thread per available CPU; every
    # report byte, the failures of the SNR 1e-300 cell and their order in
    # run.json included, is the same for one CPU, two, and eight (one thread
    # per dataset, more than the cores) with a short thread switch interval
    outputs = []
    interval = sys.getswitchinterval()
    try:
        for cpus in (1, 2, 8):
            monkeypatch.setattr(simharness, "_available_cpus", lambda: cpus)
            if cpus > 2:
                sys.setswitchinterval(1e-6)
            out = tmp_path / str(cpus)
            assert main(["simulate", "--study", "1", "--m", "64", "--snr", "1e-300,3",
                         "--replicates", "3", "--seed", "2", "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("replicates.csv", "amse.csv", "run.json")])
    finally:
        sys.setswitchinterval(interval)
    assert "15 replicate(s) failed" in capsys.readouterr().err
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def write_scaled_dataset(tmp_path, scale):
    ds = generate_dataset(DatasetSpec(components=("bumps", "blocks"), M=64, I=12,
                                      snr=5.0, seed=3))
    dataset_to_csv(replace(ds, observed=ds.observed * scale), tmp_path / "data.csv")
    np.savetxt(tmp_path / "y.csv", ds.weights, delimiter=",")
    return ["estimate", "--input", str(tmp_path / "data.csv"),
            "--weights", str(tmp_path / "y.csv"), "--out", str(tmp_path / "o")]


ESTIMATE_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                               "estimate_study1_m64_i12_seed3")


@pytest.mark.parametrize("rule", tuple(RULES))
def test_estimate_bytes_match_the_checked_in_outputs(tmp_path, rule):
    # study 1, M = 64, I = 12, SNR 5, seed 3; with I >= 11 the bytes also pin
    # the numeric sample_id order
    assert main([*write_scaled_dataset(tmp_path, 1.0), "--rule", rule]) == 0
    with open(os.path.join(ESTIMATE_GOLDEN, f"alpha_hat_{rule}.csv"), "rb") as want, \
            open(tmp_path / "o" / "alpha_hat.csv", "rb") as got:
        assert got.read() == want.read()


@pytest.mark.parametrize("rule,scale,error", [
    pytest.param("bams", 1e-300, "[shrinkage] ZeroDivisionError",
                 id="bams-ZeroDivisionError"),
    pytest.param("log", 1e-300, "[shrinkage] logistic_rule: sigma^2 underflows",
                 id="log-logistic_rule: sigma^2 underflows"),
    *(pytest.param(rule, 1e307, "[transform] output has NaN or inf",
                   id=f"{rule}-transform-overflow") for rule in RULES),
])
def test_estimate_arithmetic_failure_exits_with_its_stage(tmp_path, rule, scale, error):
    # BAMS's 1 / sigma^2 used to escape as a ZeroDivisionError traceback; log
    # divided by its underflowed sigma^2 with a numpy RuntimeWarning, dropped
    # the point mass and exited 0.  At x1e307 the data are finite but the
    # forward transform overflows, which numpy warned about before a later
    # stage (shrinkage, for log and bams) took the blame
    run = subprocess.run([sys.executable, "-m", "wavecal",
                          *write_scaled_dataset(tmp_path, scale), "--rule", rule],
                         capture_output=True, text=True)
    assert run.returncode == 1
    assert f"error: {error}" in run.stderr
    assert "Traceback" not in run.stderr and "RuntimeWarning" not in run.stderr
    assert not (tmp_path / "o" / "alpha_hat.csv").exists()


@pytest.mark.parametrize("rule", ["log", "bams"])
def test_estimate_at_huge_scale_fails_at_shrinkage(tmp_path, capsys, rule):
    # log returned a non-finite estimate with exit code 0; bams overflowed,
    # with a numpy warning
    rc = main([*write_scaled_dataset(tmp_path, 1e300), "--rule", rule])
    assert rc == 1
    assert "error: [shrinkage]" in capsys.readouterr().err
    assert not (tmp_path / "o" / "alpha_hat.csv").exists()


@pytest.mark.parametrize("rule", tuple(RULES))
def test_estimate_overflowing_sigma_exits_at_sigma(tmp_path, rule):
    # finite data, rows alternating +-9e307, whose sigma-hat overflows: the
    # overflow used to be warned of, a traceback under -W error::RuntimeWarning
    ds = generate_dataset(DatasetSpec(components=("bumps", "blocks"), M=64, I=12,
                                      snr=5.0, seed=3))
    observed = np.where(np.arange(64) % 2, 9e307, -9e307)[:, None] * np.linspace(1, 1.001, 12)
    dataset_to_csv(replace(ds, observed=observed), tmp_path / "data.csv")
    np.savetxt(tmp_path / "y.csv", ds.weights, delimiter=",")
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "wavecal",
                          "estimate", "--input", str(tmp_path / "data.csv"),
                          "--weights", str(tmp_path / "y.csv"), "--out", str(tmp_path / "o"),
                          "--rule", rule], capture_output=True, text=True)
    low = "[" if rule in ("lpm", "abe") else "("  # only they admit sigma = 0
    assert run.returncode == 1
    assert run.stderr == f"error: [sigma] sigma must be finite and in {low}0, inf), got inf\n"
    assert "Traceback" not in run.stderr and "RuntimeWarning" not in run.stderr


def test_estimate_subnormal_weights_exit_at_least_squares(tmp_path):
    # full-rank weights of 1e-320 overflow the pseudo-inverse: exit 1 at its
    # stage, with no numpy warning
    argv = write_scaled_dataset(tmp_path, 1.0)
    np.savetxt(tmp_path / "y.csv", np.full((1, 12), 1e-320), delimiter=",")
    run = subprocess.run([sys.executable, "-m", "wavecal", *argv, "--rule", "lpm"],
                         capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stderr.startswith("error: [least-squares] the pseudo-inverse of the "
                                 "weights is not finite")
    assert "Traceback" not in run.stderr and "RuntimeWarning" not in run.stderr


SIMULATE_SMALL = ["simulate", "--study", "1", "--m", "64", "--replicates", "1",
                  "--rules", "lpm", "--samples", "4", "--out", "r"]


def test_one_parser_serves_every_call_as_a_fresh_parser(tmp_path, monkeypatch, capsys):
    # main reuses one parser: a call before must leave no option, such as
    # the --seed of a call that failed, to a later call that omits it
    calls = [(2, ["simulate", "--seed", "5", "--study", "one", "--out", "r"]),
             (1, ["simulate", "--seed", "7", "--study", "4", "--out", "r"]),
             (0, [*SIMULATE_SMALL, "--seed", "3"]),
             (0, SIMULATE_SMALL)]
    for k, (code, argv) in enumerate(calls):
        runs = []  # each call with a parser built for it, then with the shared one
        for side, build in (("fresh", cli._build_parser.__wrapped__),
                            ("shared", cli._build_parser)):
            out = tmp_path / f"{side}{k}"
            out.mkdir()
            monkeypatch.chdir(out)
            monkeypatch.setattr(cli, "_build_parser", build)
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            got = capsys.readouterr()
            files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            runs.append((rc, got.out, got.err, files))
        assert runs[0][0] == code
        assert runs[1] == runs[0]
    assert json.loads(files[os.path.join("r", "run.json")])["config"]["seed"] == 0
    assert cli._build_parser.cache_info().currsize == 1


def test_module_entry_point(tmp_path):
    rc = subprocess.run(
        [sys.executable, "-m", "wavecal", "rules"],
        capture_output=True, text=True)
    assert rc.returncode == 0
    assert "lpm" in rc.stdout
