"""Monte Carlo driver: counting, determinism, aggregation, report emission."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

import wavecal.simharness as sh
from wavecal.decomposition import EstimationConfig, PipelineError, estimate_components, prepare
from wavecal.shrinkage import RULES, rule_defaults
from wavecal.simharness import (
    ReplicateResult,
    StudyConfig,
    aggregate,
    compute_mse,
    emit_reports,
    run_study,
)
from wavecal.testbed import DatasetSpec, _truth, generate_dataset
from wavecal.wavelet import make_filter, transform_columns


def replicate_dataset(cfg, M, snr_index, rep):
    """Replicate ``rep`` of the study's cell (M, snr_values[snr_index])."""
    spec = DatasetSpec(cfg.components, M=M, I=cfg.n_samples,
                       snr=cfg.snr_values[snr_index], seed=cfg.seed)
    return generate_dataset(spec, spawn_key=(M, snr_index, rep))


def prepared_coefficients(cfg, M, snr_index, rep):
    """The bytes of the prepared coefficients of one replicate of the study,
    by which a rule call on it is told from the others."""
    ds = replicate_dataset(cfg, M, snr_index, rep)
    config = EstimationConfig(filter=make_filter("daubechies", sh.VANISHING_MOMENTS),
                              rule=RULES[cfg.rules[0]](), J0=cfg.J0)
    return prepare(ds.observed, ds.weights, config).coefficients.tobytes()


class TestComputeMse:
    def test_zero_for_equal(self):
        x = np.arange(10.0)
        assert compute_mse(x, x) == 0.0

    def test_unit_offset(self):
        assert compute_mse(np.ones(7), np.zeros(7)) == 1.0

    def test_constant_offset_squares(self):
        rng = np.random.default_rng(0)
        truth = rng.standard_normal(33)
        assert compute_mse(truth + 0.3, truth) == pytest.approx(0.09, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_mse(np.zeros(3), np.zeros(4))

    def test_overflow_fails_at_the_mse_stage(self):
        with pytest.raises(PipelineError) as info:
            compute_mse(np.full(4, 1e300), np.zeros(4))
        assert info.value.stage == "mse"

    @pytest.mark.parametrize("M,L", [(512, 2), (1024, 6), (64, 4), (7, 3)])
    def test_columns_have_the_bits_of_one_column(self, M, L):
        # one call over an M x L matrix scores each column with the bits of
        # np.mean on that column alone, as a call on the column does, at the
        # study shapes
        rng = np.random.default_rng(M + L)
        truth = rng.standard_normal((M, L)) * np.logspace(-3, 3, L)
        estimate = truth + rng.standard_normal((M, L)) * 0.1
        got = compute_mse(estimate, truth)
        assert got.shape == (L,)
        want = np.array([np.mean((estimate[:, l] - truth[:, l]) ** 2) for l in range(L)])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for l in range(L):
            column = compute_mse(estimate[:, l], truth[:, l])
            assert type(column) is float and column == want[l]

    @pytest.mark.parametrize("bad,value", [(np.inf, "nan"), (-np.inf, "nan"),
                                           (np.nan, "nan")])
    def test_non_finite_columns_fail_at_the_mse_stage_without_a_warning(self, bad, value):
        # inf - inf used to warn of an invalid value (an error under this
        # suite's filters) instead of failing at the mse stage; the first
        # column that is not finite names the value
        estimate, truth = np.zeros((16, 3)), np.zeros((16, 3))
        estimate[5, 1] = truth[5, 1] = bad
        estimate[2, 2] = 1e300
        for est, tr in ((estimate, truth), (estimate[:, 1], truth[:, 1])):
            with pytest.raises(PipelineError, match=rf"^\[mse\] the mean squared error "
                                                    rf"is {value}$") as info:
                compute_mse(est, tr)
            assert info.value.stage == "mse"
        with pytest.raises(PipelineError, match=r"is inf$"):
            compute_mse(estimate[:, 2:], truth[:, 2:])

    def test_shape_must_be_a_vector_or_a_matrix(self):
        with pytest.raises(ValueError, match="expected a vector or an M x L matrix"):
            compute_mse(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))


def test_one_rule_table():
    assert tuple(RULES) == sh.RULE_NAMES == tuple(rule_defaults())


class TestStudyConfig:
    def test_study_components(self):
        assert StudyConfig(study=1).components == ("bumps", "blocks")
        assert StudyConfig(study=2).components == ("bumps", "blocks", "doppler", "logit")
        assert len(StudyConfig(study=3).components) == 6

    def test_components_cannot_be_overridden(self):
        with pytest.raises(TypeError):
            StudyConfig(study=1, components=("doppler",))

    def test_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(study=4)
        with pytest.raises(ValueError):
            StudyConfig(study=None)
        with pytest.raises(ValueError):
            StudyConfig(study=1, rules=("hardthresh",))
        with pytest.raises(ValueError):
            StudyConfig(study=1, replicates=0)
        with pytest.raises(ValueError):
            StudyConfig(study=3, n_samples=4)

    @pytest.mark.parametrize("field,values", [("rules", ("lpm", "abe", "lpm")),
                                              ("m_values", (64, 128, 64)),
                                              ("snr_values", (3.0, 3.0))])
    def test_duplicate_values_rejected(self, field, values):
        with pytest.raises(ValueError, match=f"duplicate value in {field}"):
            StudyConfig(study=1, **{field: values})

    @pytest.mark.parametrize("M,J0", [(8, 3), (512, 9), (2, 1)])
    def test_m_without_detail_level_rejected(self, M, J0):
        with pytest.raises(ValueError, match=f"M={M} has no detail level"):
            StudyConfig(study=1, m_values=(M,), J0=J0)
        StudyConfig(study=1, m_values=(2 * M,), J0=J0)  # one detail level


class TestRunStudy:
    def test_single_replicate_counting(self):
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0, 9.0),
                          replicates=1, rules=("lpm",), seed=0, n_samples=8)
        rows, stream, failures = run_study(cfg)
        assert not failures
        # L results per (M, snr) cell
        assert len(stream) == 2 * 2
        assert len(rows) == 4
        for row in rows:
            assert row.n == 1 and np.isnan(row.sd)

    def test_level_policy_follows_study_j0(self):
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0,), replicates=1,
                          rules=("log", "beta"), seed=0, n_samples=8, J0=2)
        _, stream, failures = run_study(cfg)
        assert not failures and len(stream) == 2 * 2

    def test_paired_rules_multiply_counts(self):
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0,),
                          replicates=2, rules=("lpm", "abe"), seed=0, n_samples=8)
        _, stream, failures = run_study(cfg)
        assert not failures
        assert len(stream) == 2 * 2 * 2  # rules x replicates x components

    def test_deterministic_across_runs(self):
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0,),
                          replicates=2, rules=("lpm", "abe"), seed=42, n_samples=8)
        _, s1, _ = run_study(cfg)
        _, s2, _ = run_study(cfg)
        assert s1 == s2

    def test_replicates_are_substreams_of_the_study_seed(self, monkeypatch):
        # replicate r of cell (M, snr) is generate_dataset(spec, spawn_key=(M,
        # snr_index, r)) bit for bit, the contract the checked-in bytes rest
        # on; the replicates run on worker threads, so each call is matched
        # to its spawn key by its bits, not by its place in the call order
        seen = []
        real = sh.prepare

        def record(observed, weights, config):
            seen.append((observed, weights))
            return real(observed, weights, config)

        monkeypatch.setattr(sh, "prepare", record)
        cfg = StudyConfig(study=2, m_values=(64, 128), snr_values=(3.0, 9.0),
                          replicates=2, rules=("lpm",), seed=11, n_samples=8)
        run_study(cfg)
        cells = [(M, i, r) for M in cfg.m_values
                 for i in range(len(cfg.snr_values)) for r in range(cfg.replicates)]
        datasets = {cell: replicate_dataset(cfg, *cell) for cell in cells}
        key_of = {ds.observed.tobytes(): cell for cell, ds in datasets.items()}
        assert len(key_of) == len(cells)
        matched = []
        for observed, weights in seen:
            cell = key_of[observed.tobytes()]
            assert np.array_equal(weights.view(np.uint64),
                                  datasets[cell].weights.view(np.uint64))
            matched.append(cell)
        assert sorted(matched) == cells  # each replicate once

    def test_failures_recorded_and_study_continues(self, monkeypatch):
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0,),
                          replicates=2, rules=("lpm",), seed=1, n_samples=8)
        first = prepared_coefficients(cfg, 64, 0, 0)
        real = sh.estimate_components

        def flaky(prepared, weights, config):
            if prepared.coefficients.tobytes() == first:
                raise PipelineError("shrinkage", "synthetic failure")
            return real(prepared, weights, config)

        monkeypatch.setattr(sh, "estimate_components", flaky)
        rows, stream, failures = run_study(cfg)
        assert [(f.replicate, f.stage) for f in failures] == [(0, "shrinkage")]
        assert len(stream) == 2  # one surviving replicate x two components
        assert all(row.n == 1 for row in rows)

    def test_one_non_finite_component_fails_only_its_cell(self, monkeypatch):
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0,),
                          replicates=2, rules=("lpm", "abe"), seed=4, n_samples=8)
        first = prepared_coefficients(cfg, 64, 0, 0)
        real = sh.estimate_components

        def overflowing(prepared, weights, config):
            alpha = real(prepared, weights, config)
            if prepared.coefficients.tobytes() == first and isinstance(config.rule, RULES["abe"]):
                alpha[:, 1] = 1e300  # its squared error overflows
            return alpha

        monkeypatch.setattr(sh, "estimate_components", overflowing)
        rows, stream, failures = run_study(cfg)
        assert [(f.rule, f.replicate, f.stage) for f in failures] == [("abe", 0, "mse")]
        assert sorted((r.rule, r.replicate, r.component) for r in stream) == sorted(
            (rule, rep, comp) for rule, rep in (("lpm", 0), ("lpm", 1), ("abe", 1))
            for comp in cfg.components)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_exception_stops_every_worker(self, monkeypatch, error):
        # anything but a PipelineError, raised by any worker, ends the study:
        # no thread starts another replicate, and the exception reaches the caller
        generated = []
        real = sh.generate_dataset

        def failing(spec, spawn_key):
            generated.append(spawn_key)
            if spawn_key[2] == 0:
                raise error("synthetic")
            return real(spec, spawn_key=spawn_key)

        monkeypatch.setattr(sh, "generate_dataset", failing)
        monkeypatch.setattr(sh, "_available_cpus", lambda: 4)
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0,), replicates=40,
                          rules=("lpm",), n_samples=8)
        with pytest.raises(error, match="synthetic"):
            run_study(cfg)
        assert (64, 0, 0) in generated and len(generated) < 20

    @pytest.mark.parametrize("study", [1, 2, 3])
    def test_mses_are_the_curve_mses(self, study):
        # run_study scores each component's wavelet coefficients against the
        # truth's; the transform is orthonormal, so that is the curves' MSE
        cfg = StudyConfig(study=study, m_values=(64, 512), snr_values=(1.0, 3.0, 9.0, 25.0),
                          replicates=1, seed=5)
        _, stream, failures = run_study(cfg)
        assert not failures
        got = {(r.rule, r.M, r.snr, r.component): r.mse for r in stream}
        filt = make_filter("daubechies", sh.VANISHING_MOMENTS)
        for M in cfg.m_values:
            for i, snr in enumerate(cfg.snr_values):
                ds = replicate_dataset(cfg, M, i, 0)
                for rule in cfg.rules:
                    alpha = estimate_components(ds.observed, ds.weights, EstimationConfig(
                        filter=filt, rule=RULES[rule](), J0=cfg.J0))
                    for l, component in enumerate(cfg.components):
                        want = compute_mse(alpha[:, l], ds.truth[:, l])
                        assert got[(rule, M, snr, component)] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("study", [1, 2, 3])
    def test_truth_coefficients_are_the_truths_transform(self, study):
        # computed once per (components, M, J0) and shared by every study
        components = sh.STUDY_COMPONENTS[study]
        filt = make_filter("daubechies", 10)
        for M, J0 in ((64, 3), (512, 3), (1024, 5)):
            cached = sh._truth_coefficients(components, M, J0)
            assert sh._truth_coefficients(components, M, J0) is cached
            assert not cached.flags.writeable
            want = transform_columns(_truth(components, M), filt, J0)
            assert np.array_equal(cached.view(np.uint64), want.view(np.uint64))

    def test_overflowing_mse_recorded_as_failure(self):
        # at SNR 1e-300 the noise, and every estimate, is about 1e300: the
        # squared errors of beta, lpm and abe overflow, and log and bams fail
        # in their arithmetic first
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(1e-300,), replicates=2)
        rows, stream, failures = run_study(cfg)
        assert rows == [] and stream == []
        stages = {(f.rule, f.replicate): f.stage for f in failures}
        assert stages == {(rule, rep): "mse" if rule in ("beta", "lpm", "abe") else "shrinkage"
                          for rule in RULES for rep in (0, 1)}


class TestAggregate:
    def test_mean_and_sample_sd(self):
        results = [ReplicateResult(1, "lpm", 64, 3.0, j, "bumps", mse)
                   for j, mse in enumerate([1.0, 2.0, 3.0])]
        rows = aggregate(results)
        assert len(rows) == 1
        assert rows[0].amse == pytest.approx(2.0)
        assert rows[0].sd == pytest.approx(1.0)
        assert rows[0].n == 3


class TestEmitReports:
    def test_empty_stream_headers_only(self, tmp_path):
        paths = emit_reports([], [], tmp_path, config=StudyConfig())
        assert Path(paths["replicates"]).read_bytes() == \
            b"study,rule,M,snr,replicate,component,mse\r\n"
        assert Path(paths["amse"]).read_bytes() == \
            b"study,rule,M,snr,component,amse,sd\r\n"
        payload = json.loads(Path(paths["run"]).read_text())
        assert payload["failed_replicates"] == []

    def test_row_counts(self, tmp_path):
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0, 9.0),
                          replicates=2, rules=("lpm", "abe"), seed=3, n_samples=8)
        rows, stream, failures = run_study(cfg)
        paths = emit_reports(rows, stream, tmp_path, config=cfg, failures=failures)
        with open(paths["amse"], newline="") as fh:
            amse = list(csv.DictReader(fh))
        # |rules| * |M| * |snr| * L
        assert len(amse) == 2 * 1 * 2 * 2
        with open(paths["replicates"], newline="") as fh:
            reps = list(csv.DictReader(fh))
        assert len(reps) == 2 * 1 * 2 * 2 * 2

    def test_reaggregation_reproduces_amse_exactly(self, tmp_path):
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0,),
                          replicates=5, rules=("lpm", "abe"), seed=9, n_samples=8)
        rows, stream, failures = run_study(cfg)
        paths = emit_reports(rows, stream, tmp_path, config=cfg, failures=failures)
        parsed = []
        with open(paths["replicates"], newline="") as fh:
            for row in csv.DictReader(fh):
                parsed.append(ReplicateResult(
                    study=int(row["study"]), rule=row["rule"], M=int(row["M"]),
                    snr=float(row["snr"]), replicate=int(row["replicate"]),
                    component=row["component"], mse=float(row["mse"])))
        with open(paths["amse"], newline="") as fh:
            emitted = list(csv.DictReader(fh))
        wanted = aggregate(parsed)
        assert len(emitted) == len(wanted)
        for row, want in zip(emitted, wanted):
            # 17 significant digits round-trip: equality must be exact
            assert float(row["amse"]) == want.amse
            assert float(row["sd"]) == want.sd

    def test_run_json_contents(self, tmp_path):
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0,),
                          replicates=1, rules=("lpm",), seed=7, n_samples=8)
        rows, stream, failures = run_study(cfg)
        paths = emit_reports(rows, stream, tmp_path, config=cfg, failures=failures)
        payload = json.loads(Path(paths["run"]).read_text())
        assert payload["config"]["seed"] == 7
        assert payload["config"]["rules"] == ["lpm"]
        assert payload["config"]["rule_defaults"]["lpm"]["k"] == 1.0
        assert payload["incomplete_cells"] == []

    def test_incomplete_cells_flagged(self, tmp_path, monkeypatch):
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0,),
                          replicates=2, rules=("abe",), seed=2, n_samples=8)
        first = prepared_coefficients(cfg, 64, 0, 0)
        real = sh.estimate_components

        def flaky(prepared, weights, config):
            if prepared.coefficients.tobytes() == first:
                raise PipelineError("least-squares", "synthetic")
            return real(prepared, weights, config)

        monkeypatch.setattr(sh, "estimate_components", flaky)
        rows, stream, failures = run_study(cfg)
        paths = emit_reports(rows, stream, tmp_path, config=cfg, failures=failures)
        payload = json.loads(Path(paths["run"]).read_text())
        assert len(payload["failed_replicates"]) == 1
        assert payload["failed_replicates"][0]["stage"] == "least-squares"
        assert payload["failed_replicates"][0]["replicate"] == 0
        assert len(payload["incomplete_cells"]) == 2  # both components short one rep

    def test_cells_without_a_successful_replicate_are_incomplete(self, tmp_path):
        # at SNR 1e-300 every rule fails every replicate, so those cells have
        # no AMSE row, and run.json used to leave them out
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(1e-300, 3.0), replicates=3,
                          seed=2)
        rows, stream, failures = run_study(cfg)
        paths = emit_reports(rows, stream, tmp_path, config=cfg, failures=failures)
        payload = json.loads(Path(paths["run"]).read_text())
        assert len(payload["failed_replicates"]) == 15
        assert payload["incomplete_cells"] == [
            {"rule": rule, "M": 64, "snr": 1e-300, "component": component, "n": 0}
            for rule in sorted(RULES) for component in ("blocks", "bumps")]


@pytest.mark.parametrize("n", [1, 2, 20, 100])
def test_aggregate_matches_per_group_reduction(n):
    # groups of one replicate count are reduced as rows of one matrix; each
    # row must keep the bits of np.mean / np.std on the group alone, also
    # beside groups of other counts (an incomplete cell has fewer replicates)
    rng = np.random.default_rng(n)
    results = [ReplicateResult(study=2, rule=rule, M=M, snr=snr, replicate=rep,
                               component=comp, mse=float(rng.lognormal(-4.0, 3.0)))
               for rule in ("lpm", "abe") for M in (64, 128) for snr in (3.0, 9.0)
               for comp in ("bumps", "logit") for rep in range(n)]
    results += [ReplicateResult(study=2, rule="bams", M=64, snr=3.0, replicate=rep,
                                component="bumps", mse=float(rng.lognormal(-4.0, 3.0)))
                for rep in range(max(1, n // 2))]
    rows = aggregate(results)
    keys = [(r.study, r.rule, r.M, r.snr, r.component) for r in rows]
    assert keys == sorted(set((r.study, r.rule, r.M, r.snr, r.component)
                              for r in results))
    for row in rows:
        mses = np.array([r.mse for r in results
                         if (r.rule, r.M, r.snr, r.component)
                         == (row.rule, row.M, row.snr, row.component)])
        assert row.n == mses.size
        assert np.float64(row.amse).view(np.uint64) == np.mean(mses).view(np.uint64)
        if mses.size > 1:
            assert (np.float64(row.sd).view(np.uint64)
                    == np.std(mses, ddof=1).view(np.uint64))
        else:
            assert np.isnan(row.sd)


@pytest.mark.parametrize("J0", [3.0, True, "3", None])
def test_study_j0_must_be_an_integer(J0):
    # 3.0 used to reach range() in the transform as a bare TypeError, and
    # True was taken for J0 = 1
    with pytest.raises(ValueError, match="J0 must be an integer"):
        StudyConfig(study=1, J0=J0, m_values=(64,), replicates=1, rules=("lpm",))
    assert StudyConfig(study=1, J0=np.int64(3), m_values=(64,)).J0 == 3


def test_numpy_integer_fields_write_the_same_reports(tmp_path):
    # every integer field accepts a numpy integer; run.json used to fail on it
    # with a bare TypeError, after the CSVs were written
    fields = dict(study=1, m_values=(64,), snr_values=(3.0,), n_samples=4, replicates=1,
                  rules=("lpm",), seed=5, J0=3)
    written = []
    for cast in (int, np.int64):
        config = StudyConfig(**{**fields, **{name: cast(fields[name]) for name in
                                             ("study", "n_samples", "replicates", "seed", "J0")},
                                "m_values": (cast(64),)})
        rows, stream, failures = run_study(config)
        paths = emit_reports(rows, stream, tmp_path / cast.__name__, config=config,
                             failures=failures)
        written.append([Path(paths[name]).read_bytes() for name in ("replicates", "amse", "run")])
    assert written[0] == written[1]


def test_numpy_float_snrs_are_written_by_value(tmp_path, monkeypatch):
    # run.json wrote a numpy float SNR of a failure or an incomplete cell
    # through int(), so 2.5 became 2 there and stayed 2.5 in the CSVs
    real = sh.estimate_components

    def abe_fails(prepared, weights, config):
        if isinstance(config.rule, RULES["abe"]):
            raise PipelineError("shrinkage", "synthetic")
        return real(prepared, weights, config)

    monkeypatch.setattr(sh, "estimate_components", abe_fails)
    config = StudyConfig(study=1, m_values=(64,), snr_values=(np.float32(2.5), 9.0),
                         n_samples=4, replicates=1, rules=("lpm", "abe"), seed=5)
    rows, stream, failures = run_study(config)
    paths = emit_reports(rows, stream, tmp_path, config=config, failures=failures)
    payload = json.loads(Path(paths["run"]).read_text())
    assert payload["config"]["snr_values"] == [2.5, 9.0]
    assert [f["snr"] for f in payload["failed_replicates"]] == [2.5, 9.0]
    assert [cell["snr"] for cell in payload["incomplete_cells"]] == [2.5, 2.5, 9.0, 9.0]
    for name in ("replicates", "amse"):
        with open(paths[name], newline="") as fh:
            assert {float(row["snr"]) for row in csv.DictReader(fh)} == {2.5, 9.0}


def test_int_snrs_are_written_as_floats(tmp_path, monkeypatch):
    # run.json wrote the config's SNRs through float() but a failure's and an
    # incomplete cell's as given, so an int 3 was 3.0 in one place, 3 in another
    real = sh.estimate_components

    def abe_not_finite(prepared, weights, config):
        estimate = real(prepared, weights, config)
        return estimate * np.nan if isinstance(config.rule, RULES["abe"]) else estimate

    monkeypatch.setattr(sh, "estimate_components", abe_not_finite)
    config = StudyConfig(study=1, m_values=(64,), snr_values=(3, 9), n_samples=4,
                         replicates=1, rules=("lpm", "abe"), seed=5)
    rows, stream, failures = run_study(config)
    paths = emit_reports(rows, stream, tmp_path, config=config, failures=failures)
    payload = json.loads(Path(paths["run"]).read_text())
    assert [f["stage"] for f in payload["failed_replicates"]] == ["mse", "mse"]
    snrs = (payload["config"]["snr_values"] + [f["snr"] for f in payload["failed_replicates"]]
            + [cell["snr"] for cell in payload["incomplete_cells"]])
    assert snrs == [3.0, 9.0, 3.0, 9.0, 3.0, 3.0, 9.0, 9.0]
    assert all(type(snr) is float for snr in snrs)
