"""Monte Carlo driver: counting, determinism, aggregation, report emission."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

import wavecal.simharness as sh
from wavecal.decomposition import PipelineError
from wavecal.shrinkage import RULES, rule_defaults
from wavecal.simharness import (
    AmseReport,
    ReplicateResult,
    StudyConfig,
    aggregate,
    compute_mse,
    emit_reports,
    run_study,
)


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
        report, stream, failures = run_study(cfg)
        assert not failures
        # L results per (M, snr) cell
        assert len(stream) == 2 * 2
        assert len(report.rows) == 4
        for row in report.rows:
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

    def test_failures_recorded_and_study_continues(self, monkeypatch):
        calls = {"n": 0}
        real = sh.estimate_components

        def flaky(observed, weights, config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise PipelineError("shrinkage", "synthetic failure")
            return real(observed, weights, config)

        monkeypatch.setattr(sh, "estimate_components", flaky)
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0,),
                          replicates=2, rules=("lpm",), seed=1, n_samples=8)
        report, stream, failures = run_study(cfg)
        assert len(failures) == 1
        assert failures[0].stage == "shrinkage"
        assert len(stream) == 2  # one surviving replicate x two components
        assert all(row.n == 1 for row in report.rows)


class TestAggregate:
    def test_mean_and_sample_sd(self):
        rows = [ReplicateResult(1, "lpm", 64, 3.0, j, "bumps", mse)
                for j, mse in enumerate([1.0, 2.0, 3.0])]
        report = aggregate(rows)
        assert len(report.rows) == 1
        assert report.rows[0].amse == pytest.approx(2.0)
        assert report.rows[0].sd == pytest.approx(1.0)
        assert report.rows[0].n == 3

    def test_cell_lookup(self):
        rows = [ReplicateResult(1, "lpm", 64, 3.0, 0, "bumps", 1.5)]
        report = aggregate(rows)
        assert report.cell("lpm", 64, 3.0, "bumps").amse == 1.5
        with pytest.raises(KeyError):
            report.cell("abe", 64, 3.0, "bumps")


class TestEmitReports:
    def test_empty_stream_headers_only(self, tmp_path):
        paths = emit_reports(AmseReport(), [], tmp_path)
        assert Path(paths["replicates"]).read_bytes() == \
            b"study,rule,M,snr,replicate,component,mse\r\n"
        assert Path(paths["amse"]).read_bytes() == \
            b"study,rule,M,snr,component,amse,sd\r\n"
        payload = json.loads(Path(paths["run"]).read_text())
        assert payload["failed_replicates"] == []

    def test_row_counts(self, tmp_path):
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0, 9.0),
                          replicates=2, rules=("lpm", "abe"), seed=3, n_samples=8)
        report, stream, failures = run_study(cfg)
        paths = emit_reports(report, stream, tmp_path, config=cfg, failures=failures)
        with open(paths["amse"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        # |rules| * |M| * |snr| * L
        assert len(rows) == 2 * 1 * 2 * 2
        with open(paths["replicates"], newline="") as fh:
            reps = list(csv.DictReader(fh))
        assert len(reps) == 2 * 1 * 2 * 2 * 2

    def test_reaggregation_reproduces_amse_exactly(self, tmp_path):
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0,),
                          replicates=5, rules=("lpm", "abe"), seed=9, n_samples=8)
        report, stream, failures = run_study(cfg)
        paths = emit_reports(report, stream, tmp_path, config=cfg, failures=failures)
        parsed = []
        with open(paths["replicates"], newline="") as fh:
            for row in csv.DictReader(fh):
                parsed.append(ReplicateResult(
                    study=int(row["study"]), rule=row["rule"], M=int(row["M"]),
                    snr=float(row["snr"]), replicate=int(row["replicate"]),
                    component=row["component"], mse=float(row["mse"])))
        re_report = aggregate(parsed)
        with open(paths["amse"], newline="") as fh:
            emitted = list(csv.DictReader(fh))
        assert len(emitted) == len(re_report.rows)
        for row, want in zip(emitted,
                             sorted(re_report.rows,
                                    key=lambda r: (r.study, r.rule, r.M, r.snr, r.component))):
            # 17 significant digits round-trip: equality must be exact
            assert float(row["amse"]) == want.amse
            assert float(row["sd"]) == want.sd

    def test_run_json_contents(self, tmp_path):
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0,),
                          replicates=1, rules=("lpm",), seed=7, n_samples=8)
        report, stream, failures = run_study(cfg)
        paths = emit_reports(report, stream, tmp_path, config=cfg,
                             failures=failures, notes={"why": "test"})
        payload = json.loads(Path(paths["run"]).read_text())
        assert payload["config"]["seed"] == 7
        assert payload["config"]["rules"] == ["lpm"]
        assert payload["config"]["rule_defaults"]["lpm"]["k"] == 1.0
        assert payload["notes"] == {"why": "test"}
        assert payload["incomplete_cells"] == []

    def test_incomplete_cells_flagged(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = sh.estimate_components

        def flaky(observed, weights, config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise PipelineError("least-squares", "synthetic")
            return real(observed, weights, config)

        monkeypatch.setattr(sh, "estimate_components", flaky)
        cfg = StudyConfig(study=1, m_values=(64,), snr_values=(3.0,),
                          replicates=2, rules=("abe",), seed=2, n_samples=8)
        report, stream, failures = run_study(cfg)
        paths = emit_reports(report, stream, tmp_path, config=cfg, failures=failures)
        payload = json.loads(Path(paths["run"]).read_text())
        assert len(payload["failed_replicates"]) == 1
        assert payload["failed_replicates"][0]["stage"] == "least-squares"
        assert len(payload["incomplete_cells"]) == 2  # both components short one rep


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
    report = aggregate(results)
    keys = [(r.study, r.rule, r.M, r.snr, r.component) for r in report.rows]
    assert keys == sorted(set((r.study, r.rule, r.M, r.snr, r.component)
                              for r in results))
    for row in report.rows:
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
