"""Every field of `StudyConfig`, `EstimationConfig` and `DatasetSpec`,
broken one at a time.

A config whose field is not of its kind or out of its range raises
ValueError when it is built.  Any other config runs: `run_study` returns
finite MSEs and records each failure with its stage,
`estimate_components` returns a finite estimate or raises `PipelineError`
naming a stage, and `generate_dataset` returns finite data of the spec's
shape.  The designs are small (M <= 128, one replicate), so the
whole module takes a few seconds.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from wavecal.decomposition import EstimationConfig, PipelineError, estimate_components
from wavecal.shrinkage import RULES, LevelPolicy
from wavecal.simharness import StudyConfig, run_study
from wavecal.testbed import DatasetSpec, generate_dataset
from wavecal.wavelet import make_filter

STAGES = ("input", "transform", "sigma", "shrinkage", "least-squares", "inverse-transform",
          "mse")
FILTER = make_filter("daubechies", 4)
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

# values of the wrong kind for any field
JUNK = st.sampled_from([None, True, False, 1.5, 64.0, math.nan, math.inf, -1.0, "3", "log",
                        b"1", (), [], {}, np.float64(2.0), object()])

VALID_STUDY = dict(study=1, m_values=(64,), snr_values=(3.0,), n_samples=4, replicates=1,
                   rules=("lpm",), seed=0, J0=3)

STUDY_FIELDS = {
    "study": st.integers(-1, 4) | JUNK,
    "m_values": (st.lists(st.sampled_from([0, 2, 8, 16, 32, 64, 96, 128, -64]) | JUNK,
                          max_size=3).map(tuple)
                 | st.integers(-64, 128) | JUNK),
    "snr_values": (st.lists(st.floats(1e-3, 1e3) | st.integers(-2, 9) | JUNK,
                            max_size=3).map(tuple) | JUNK),
    "n_samples": st.integers(-1, 12) | JUNK,
    "replicates": st.integers(-1, 2) | JUNK,
    "rules": (st.lists(st.sampled_from(sorted(RULES) + ["soft", ""]) | JUNK,
                       max_size=3).map(tuple) | JUNK),
    "seed": st.integers(-3, 2 ** 64) | JUNK,
    "J0": st.integers(-1, 7) | JUNK,
}

ESTIMATION_FIELDS = {
    "filter": st.sampled_from([FILTER, make_filter("daubechies", 1)]) | JUNK
    | st.sampled_from(["daubechies", FILTER.low_pass]),
    "rule": st.sampled_from([cls() for cls in RULES.values()]) | JUNK
    | st.sampled_from([LevelPolicy(), RULES["log"], "bams"]),
    "J0": st.integers(-1, 7) | JUNK,
    "policy": st.integers(0, 7).map(lambda J0: LevelPolicy(J0=J0)) | JUNK,
}


VALID_DATASET = dict(components=("bumps", "blocks"), M=64, I=4, snr=3.0, seed=0)

DATASET_FIELDS = {
    "components": (st.lists(st.sampled_from(["bumps", " Doppler ", "spahet", "soft", ""])
                            | JUNK, max_size=3).map(tuple) | JUNK),
    "M": st.integers(-2, 128) | JUNK,
    "I": st.integers(-1, 8) | JUNK,
    "snr": st.floats(1e-3, 1e3) | st.integers(-2, 9) | JUNK,
    "seed": st.integers(-3, 2 ** 64) | JUNK,
}


def built(make):
    """The config ``make`` builds, or None when it raises ValueError."""
    try:
        return make()
    except ValueError:
        return None


def fields_broken_one_at_a_time(table):
    return st.sampled_from(sorted(table)).flatmap(
        lambda name: st.tuples(st.just(name), table[name]))


@SETTINGS
@given(field=fields_broken_one_at_a_time(STUDY_FIELDS))
def test_study_config(field):
    name, value = field
    config = built(lambda: StudyConfig(**{**VALID_STUDY, name: value}))
    if config is None:
        return
    with warnings.catch_warnings():
        # a numpy warning on the way is not a failure; the outcome is
        warnings.simplefilter("ignore", RuntimeWarning)
        report, results, failures = run_study(config)
    assert all(math.isfinite(r.mse) for r in results)
    assert all(f.stage in STAGES for f in failures)
    assert len(results) + len(failures) * len(config.components) == (
        len(config.m_values) * len(config.snr_values) * config.replicates
        * len(config.rules) * len(config.components))


@SETTINGS
@given(field=fields_broken_one_at_a_time(ESTIMATION_FIELDS))
def test_estimation_config(field):
    name, value = field
    valid = dict(filter=FILTER, rule=RULES["log"](), J0=3, policy=None)
    config = built(lambda: EstimationConfig(**{**valid, name: value}))
    if config is None:
        return
    data = generate_dataset(DatasetSpec(components=("bumps", "blocks"), M=128, I=6,
                                        snr=5.0, seed=2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            alpha = estimate_components(data.observed, data.weights, config)
        except PipelineError as exc:
            assert exc.stage in STAGES
            return
    assert alpha.shape == (128, 2) and np.isfinite(alpha).all()


@SETTINGS
@given(field=fields_broken_one_at_a_time(DATASET_FIELDS))
def test_dataset_spec(field):
    name, value = field
    spec = built(lambda: DatasetSpec(**{**VALID_DATASET, name: value}))
    if spec is None:
        return
    data = generate_dataset(spec)
    assert data.observed.shape == (spec.M, spec.I)
    assert data.weights.shape == (len(spec.components), spec.I)
    assert np.isfinite(data.observed).all() and data.sigma_true > 0


def test_the_broken_fields_seen_before_are_rejected():
    # each of these was accepted when the config was built, and then ran or
    # failed inside run_study or estimate_components with a bare
    # TypeError or AttributeError
    for broken in (dict(replicates=2.5), dict(n_samples=50.5), dict(m_values=(64.0,)),
                   dict(seed=1.5), dict(snr_values=("3",)), dict(m_values=(96,)),
                   dict(snr_values=(math.nan,)), dict(seed=-1), dict(replicates=True),
                   dict(study=True), dict(m_values=64)):
        assert built(lambda: StudyConfig(**{**VALID_STUDY, **broken})) is None, broken
    for broken in (dict(filter="daubechies"), dict(policy=3), dict(rule=LevelPolicy())):
        assert built(lambda: EstimationConfig(**{**dict(filter=FILTER, rule=RULES["log"]()),
                                                **broken})) is None, broken
    # a bare TypeError when built, or accepted and failed in generate_dataset,
    # or ran: seed=True as seed 1, snr=inf with sigma_true = 0
    for broken in (dict(M=64.0), dict(snr="3"), dict(I=4.5), dict(seed=-1), dict(seed=1.5),
                   dict(seed=True), dict(snr=math.inf)):
        assert built(lambda: DatasetSpec(**{**VALID_DATASET, **broken})) is None, broken
