"""The public estimation boundary at every data scale, and at weights near
the rank cutoff.

`estimate_components` on data scaled by 2^k, for k across nearly the whole
double exponent range, every rule and I from L to 60 samples, either returns
a finite estimate or raises `PipelineError` naming one of its stages; for
the rules free of a fixed scale, `beta`, `lpm` and `abe`, it returns the
estimate at scale 1 times 2^k, bit for bit.  On
weights whose singular values span about the cutoff ratio 1e-10, it returns
a finite estimate or fails at the least-squares stage, and then `prepare`
on them fails there with the same message.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavecal.decomposition import EstimationConfig, PipelineError, estimate_components, prepare
from wavecal.shrinkage import RULES
from wavecal.simharness import STUDY_COMPONENTS
from wavecal.testbed import DatasetSpec, generate_dataset
from wavecal.wavelet import make_filter

STAGES = ("input", "transform", "sigma", "shrinkage", "least-squares", "inverse-transform")
FILTER = make_filter("daubechies", 10)


@st.composite
def scaled_datasets(draw):
    """(dataset, k) of a study dataset with L <= I <= 60 and k in [-900, 900]."""
    components = STUDY_COMPONENTS[draw(st.sampled_from(sorted(STUDY_COMPONENTS)))]
    spec = DatasetSpec(components=components, M=draw(st.sampled_from([64, 128, 256])),
                       I=draw(st.integers(len(components), 60)),
                       snr=draw(st.sampled_from([3.0, 9.0, 20.0])),
                       seed=draw(st.integers(0, 2 ** 16)))
    data = generate_dataset(spec)
    # k in [-900, 900], drawn from the ends of the range, where the rules'
    # arithmetic fails, as often as from the rest
    k = draw(st.integers(0, 900) | st.integers(500, 900)) * draw(st.sampled_from([1, -1]))
    return data, k


@pytest.mark.parametrize("rule", sorted(RULES))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scaled=scaled_datasets())
def test_estimate_is_finite_or_names_a_stage(rule, scaled):
    data, k = scaled
    observed, weights = data.observed * 2.0 ** k, data.weights
    config = EstimationConfig(filter=FILTER, rule=RULES[rule](), J0=3)
    with warnings.catch_warnings():
        # no stage warns: the outcome is a finite estimate or a named stage
        warnings.simplefilter("error", RuntimeWarning)
        try:
            alpha = estimate_components(observed, weights, config)
        except PipelineError as exc:
            assert exc.stage in STAGES
            return
    assert alpha.shape == (observed.shape[0], weights.shape[0])
    assert np.isfinite(alpha).all()


@pytest.mark.parametrize("rule", ["beta", "lpm", "abe"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(scaled=scaled_datasets())
def test_scale_free_rules_are_exact_at_every_power_of_two(rule, scaled):
    # every stage is homogeneous of degree one in the data, and power-of-two
    # scaling is exact while no value leaves the normal range
    data, k = scaled
    config = EstimationConfig(filter=FILTER, rule=RULES[rule](), J0=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled_estimate = estimate_components(data.observed * 2.0 ** k, data.weights, config)
        estimate = estimate_components(data.observed, data.weights, config)
    assert scaled_estimate.tobytes() == (estimate * 2.0 ** k).tobytes()


@st.composite
def weights_near_the_cutoff(draw):
    """L x I weights U diag(s) V^T, 2 <= L <= 6 and L <= I <= 60, whose
    singular values fall geometrically from 1 to 10^k * 1e-10, k in [-2, 2]."""
    L = draw(st.integers(2, 6))
    I = draw(st.integers(L, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    u = np.linalg.qr(rng.standard_normal((L, L)))[0]
    v = np.linalg.qr(rng.standard_normal((I, L)))[0]
    return (u * np.geomspace(1.0, 10.0 ** draw(st.floats(-2.0, 2.0)) * 1e-10, L)) @ v.T


OBSERVED = generate_dataset(DatasetSpec(components=STUDY_COMPONENTS[3], M=64, I=60,
                                        snr=3.0, seed=5)).observed


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(weights=weights_near_the_cutoff())
def test_weights_near_the_rank_cutoff(weights):
    L, I = weights.shape
    observed = OBSERVED[:, :I]
    config = EstimationConfig(filter=FILTER, rule=RULES["lpm"](), J0=3)
    try:
        alpha = estimate_components(observed, weights, config)
    except PipelineError as exc:
        assert exc.stage == "least-squares"
        with pytest.raises(PipelineError) as early:
            prepare(observed, weights, config)
        assert str(early.value) == str(exc)
        return
    assert alpha.shape == (64, L) and np.isfinite(alpha).all()
