"""The public estimation boundary at every data scale, and at weights near
the rank cutoff.

`estimate_components` on data scaled by 2^k, for k across nearly the whole
double exponent range, every rule and I from L to 60 samples, either returns
a finite estimate or raises `PipelineError` naming one of its stages.  On
weights whose singular values span about the cutoff ratio 1e-10, it returns
a finite estimate or fails at the least-squares stage, and caches nothing
of the weights it rejects.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavecal import decomposition
from wavecal.decomposition import EstimationConfig, PipelineError, estimate_components
from wavecal.shrinkage import RULES
from wavecal.simharness import STUDY_COMPONENTS
from wavecal.testbed import DatasetSpec, generate_dataset
from wavecal.wavelet import make_filter

STAGES = ("input", "transform", "sigma", "shrinkage", "least-squares", "inverse-transform")
FILTER = make_filter("daubechies", 10)


@st.composite
def scaled_datasets(draw):
    """(observed * 2^k, weights) of a study dataset with L <= I <= 60."""
    components = STUDY_COMPONENTS[draw(st.sampled_from(sorted(STUDY_COMPONENTS)))]
    spec = DatasetSpec(components=components, M=draw(st.sampled_from([64, 128, 256])),
                       I=draw(st.integers(len(components), 60)),
                       snr=draw(st.sampled_from([3.0, 9.0, 20.0])),
                       seed=draw(st.integers(0, 2 ** 16)))
    data = generate_dataset(spec)
    # k in [-900, 900], drawn from the ends of the range, where the rules'
    # arithmetic fails, as often as from the rest
    k = draw(st.integers(0, 900) | st.integers(500, 900)) * draw(st.sampled_from([1, -1]))
    return data.observed * 2.0 ** k, data.weights


@pytest.mark.parametrize("rule", sorted(RULES))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=scaled_datasets())
def test_estimate_is_finite_or_names_a_stage(rule, data):
    observed, weights = data
    config = EstimationConfig(filter=FILTER, rule=RULES[rule](), J0=3)
    with warnings.catch_warnings():
        # a numpy warning on the way is not a failure; the outcome is
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            alpha = estimate_components(observed, weights, config)
        except PipelineError as exc:
            assert exc.stage in STAGES
            return
    assert alpha.shape == (observed.shape[0], weights.shape[0])
    assert np.isfinite(alpha).all()


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
    full_rank = np.random.default_rng(I).uniform(0.5, 1.5, (L, I))
    config = EstimationConfig(filter=FILTER, rule=RULES["lpm"](), J0=3)
    with mock.patch.object(decomposition, "_pseudoinverse", decomposition._LastResult()):
        try:
            alpha = estimate_components(observed, weights, config)
        except PipelineError as exc:
            assert exc.stage == "least-squares"
            assert decomposition._pseudoinverse.entry is None  # nothing cached
            with pytest.raises(PipelineError, match=r"\[least-squares\]"):
                estimate_components(observed, weights, config)
            after = estimate_components(observed, full_rank, config)
            decomposition._pseudoinverse = decomposition._LastResult()
            fresh = estimate_components(observed, full_rank, config)
            assert after.tobytes() == fresh.tobytes()
            return
    assert alpha.shape == (64, L) and np.isfinite(alpha).all()
