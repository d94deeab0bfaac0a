"""`wavecal.cli.main` on argv drawn across and past the edges of its options.

Whatever the arguments, `main` exits 0, 1 or 2 (argparse's usage error), no
exception or `RuntimeWarning` escapes it, nothing it prints to stderr is a
traceback, and every number in the CSVs it writes is finite.  The one
exception is by design: the sample sd of an AMSE cell with a single
replicate is undefined and written as ``nan``.
"""

import contextlib
import csv
import io
import math
import os
import tempfile
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavecal.cli import main
from wavecal.simharness import RULE_NAMES
from wavecal.testbed import DatasetSpec, dataset_to_csv, generate_dataset

def run_main(argv):
    """(exit code, stderr) of ``main(argv)``; fails on a RuntimeWarning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (argv, runtime)
    return rc, err.getvalue()


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_finite(rows, path, undefined=()):
    """Every cell of ``rows`` that parses as a number is finite, apart from
    the (row index, column) pairs in ``undefined``."""
    for i, row in enumerate(rows):
        for column, cell in row.items():
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value) or (i, column) in undefined, (path, i, column, cell)


def check_simulate_outputs(out):
    if not os.path.exists(os.path.join(out, "amse.csv")):
        return
    replicates = csv_rows(os.path.join(out, "replicates.csv"))
    assert_finite(replicates, "replicates.csv")
    counts = Counter((r["rule"], r["M"], r["snr"], r["component"]) for r in replicates)
    amse = csv_rows(os.path.join(out, "amse.csv"))
    single = {(i, "sd") for i, r in enumerate(amse)
              if counts[r["rule"], r["M"], r["snr"], r["component"]] == 1}
    assert_finite(amse, "amse.csv", single)


# Values each `simulate` option accepts, for every study and J0 in 0..5, and
# values it rejects.  An SNR of 1e-300 or 1e300 is accepted, and takes the
# rules to the ends of the double range.
VALID = {
    "--m": st.sampled_from(["64", "128", "256", "64,128"]),
    "--snr": st.sampled_from(["3", "9", "1e-300", "1e300", "1e-300,9", "0.5,1e300"]),
    "--j0": st.integers(0, 5).map(str),
    "--samples": st.integers(6, 60).map(str),
    "--replicates": st.integers(1, 2).map(str),
    "--seed": st.sampled_from(["0", "7", str(2 ** 70)]),
}
INVALID = {
    # not dyadic, or below 2^(J0 + 1) (J0 >= 3 for 16), or repeated
    "--m": st.sampled_from(["0", "2", "3", "16", "48", "100", "-64", "64,64"]),
    "--snr": st.sampled_from(["0", "nan", "-3", "inf", "3,nan"]),
    "--j0": st.sampled_from(["-1", "6", "7", "8", "9"]),
    "--samples": st.integers(0, 5).map(str),
    "--replicates": st.sampled_from(["-1", "0"]),
    "--seed": st.just("-1"),
}


@st.composite
def rule_lists(draw, valid):
    """A --rules value, with empty entries among the names; an invalid one
    repeats a name or has no name at all."""
    names = draw(st.lists(st.sampled_from(RULE_NAMES), unique=valid,
                          min_size=1 if valid else 0, max_size=5))
    if not valid and names:
        names.append(names[0])
    names += [""] * draw(st.integers(0 if names else 1, 2))
    return ",".join(draw(st.permutations(names)))


@st.composite
def simulate_argv(draw):
    """`simulate` arguments with at most one option out of its range."""
    broken = draw(st.sampled_from([None, None, *VALID, "--rules"]))
    argv = ["simulate", "--study", draw(st.sampled_from(["1", "2", "3"])),
            "--rules", draw(rule_lists(valid=broken != "--rules"))]
    for option, values in VALID.items():
        argv += [option, draw(INVALID[option] if option == broken else values)]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=simulate_argv())
def test_simulate_argv(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        rc, err = run_main([*argv, "--out", out])
        assert rc in (0, 1, 2)
        assert "Traceback" not in err
        check_simulate_outputs(out)


@pytest.fixture(scope="module")
def estimate_inputs(tmp_path_factory):
    """The --input and --weights files of one valid study-1 dataset,
    M = 128, I = 12."""
    tmp = tmp_path_factory.mktemp("estimate")
    data = generate_dataset(DatasetSpec(components=("bumps", "blocks"), M=128, I=12,
                                        snr=5.0, seed=3))
    dataset_to_csv(data, tmp / "data.csv")
    np.savetxt(tmp / "y.csv", data.weights, delimiter=",")
    return str(tmp / "data.csv"), str(tmp / "y.csv")


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(rule=st.sampled_from(RULE_NAMES), j0=st.integers(-1, 9),
       moments=st.integers(0, 11))
def test_estimate_argv(estimate_inputs, rule, j0, moments):
    data, weights = estimate_inputs
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        rc, err = run_main(["estimate", "--input", data, "--weights", weights,
                            "--rule", rule, "--j0", str(j0),
                            "--vanishing-moments", str(moments), "--out", out])
        assert rc in (0, 1, 2)
        assert "Traceback" not in err
        path = os.path.join(out, "alpha_hat.csv")
        assert (rc == 0) == os.path.exists(path)
        if rc == 0:
            assert_finite(csv_rows(path), path)
