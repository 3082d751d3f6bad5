import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import TASK_BETAS, TASK_MEANS, TASK_RHO, TASK_T, TASK_TARGET, TASK_WINDOW
from symguide import (
    ConfigError,
    GuidanceConfig,
    RunConfig,
    ddim_rollout,
    emit_plots,
    run_ablation_n,
    run_ablation_rho,
    run_adjoint_comparison,
    run_single_sample,
    run_window_and_repeats_study,
    sag_sample,
)
from symguide.harness import ExperimentReport, default_window_thirds

GOLDEN = Path(__file__).parent / "golden"


def task_config(**overrides) -> RunConfig:
    base = {
        "schedule": {"T": TASK_T, "beta_min": TASK_BETAS[0], "beta_max": TASK_BETAS[1]},
        "model": {"kind": "gmm", "weights": [0.5, 0.5], "means": TASK_MEANS},
        "loss": {"kind": "l2_target", "target": TASK_TARGET},
        "guidance": {"window": list(TASK_WINDOW), "rho": TASK_RHO, "repeats": 1, "n_steps": 4},
        "num_seeds": 6,
        "base_seed": 0,
    }
    base.update(overrides)
    return RunConfig.from_dict(base)


class TestConfig:
    def test_missing_sections_rejected(self):
        with pytest.raises(ConfigError, match="model"):
            RunConfig.from_dict({"schedule": {"T": 10, "beta_min": 0.01, "beta_max": 0.1}})

    def test_empty_sweep_axis_rejected(self):
        with pytest.raises(ConfigError, match="sweep"):
            task_config(sweep={"n_list": []})

    def test_window_outside_schedule_rejected(self):
        with pytest.raises(ConfigError, match="window"):
            task_config(guidance={"window": [10, 50], "rho": 0.1})

    def test_bad_model_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown model"):
            task_config(model={"kind": "transformer"})

    def test_missing_weights_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            task_config(model={"kind": "mlp", "weights_file": "/nonexistent/w.json"})

    def test_loss_model_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="dimension"):
            task_config(loss={"kind": "l2_target", "target": [1.0, 2.0, 3.0]})

    def test_malformed_guidance_section_rejected(self):
        with pytest.raises(ConfigError):
            task_config(guidance={"window": [15], "rho": 0.1})
        with pytest.raises(ConfigError):
            task_config(guidance="not an object")

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.from_json_file(tmp_path / "nope.json")

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            RunConfig.from_json_file(p)

    def test_resolved_round_trip(self):
        cfg = task_config()
        again = RunConfig.from_dict(cfg.to_resolved_dict())
        assert again.to_resolved_dict() == cfg.to_resolved_dict()

    def test_builders(self):
        cfg = task_config()
        schedule, model, loss, gcfg = cfg.build()
        assert schedule.num_steps == TASK_T
        assert model.dim == 2
        assert gcfg.window == TASK_WINDOW


class TestSingleSample:
    def test_report_deterministic(self):
        cfg = task_config(base_seed=7)
        a = run_single_sample(cfg)
        b = run_single_sample(cfg)
        assert a.to_json_text() == b.to_json_text()
        assert a.to_csv_text() == b.to_csv_text()

    def test_timing_outside_report_payload(
        self, ablation_report, rho_report, window_report, comparison_report
    ):
        report = run_single_sample(task_config(base_seed=3))
        assert report.timings and "wall_time_ns" in report.timings[0]
        assert "wall_time_ns" not in report.to_json_text()
        # Each timing row is its report row plus the run's wall time (and error, in a sweep).
        for report in (report, ablation_report, rho_report, window_report, comparison_report):
            assert len(report.timings) == len(report.rows)
            for row, timing in zip(report.rows, report.timings):
                assert "wall_time_ns" in timing
                assert {k: timing[k] for k in row} == row


@pytest.fixture(scope="module")
def ablation_report():
    return run_ablation_n(task_config(sweep={"n_list": [1, 2], "m_curve_samples": [50]}))


@pytest.fixture(scope="module")
def rho_report():
    # pilot-calibrated: loss improves through 0.1, degrades at 2, diverges at 10
    return run_ablation_rho(task_config(num_seeds=8, sweep={"rho_list": [0.0, 0.02, 0.1, 10.0]}))


@pytest.fixture(scope="module")
def window_report():
    # pilot-calibrated at rho=0.05: middle beats late at r=1, and extra
    # repeats help on the late (low-sigma) window
    return run_window_and_repeats_study(
        task_config(
            num_seeds=25,
            guidance={"window": list(TASK_WINDOW), "rho": 0.05, "repeats": 1, "n_steps": 4},
            sweep={"repeats_list": [1, 2]},
        )
    )


@pytest.fixture(scope="module")
def comparison_report():
    return run_adjoint_comparison(task_config(sweep={"n_list": [1, 2, 4, 8], "d_list": [2, 4]}))


class TestAblationN:
    @pytest.fixture()
    def report(self, ablation_report):
        return ablation_report

    def test_schema(self, report):
        assert len(report.rows) == 12  # 2 n-values x 6 seeds
        header = report.to_csv_text().splitlines()[0]
        assert header == "seed,n,rho,window,final_loss,steps_guided,diverged"
        assert all(len(line.split(",")) == 7 for line in report.to_csv_text().splitlines())

    def test_n1_column_equals_single_step_runs(self, report):
        cfg = task_config()
        schedule, model, loss, _ = cfg.build()
        gcfg = GuidanceConfig(window=TASK_WINDOW, rho=TASK_RHO, repeats=1, n_steps=1)
        for row in report.rows:
            if row["n"] == 1:
                rec = sag_sample(model, schedule, loss, gcfg, row["seed"])
                assert row["final_loss"] == rec.final_loss

    def test_curves_present(self, report):
        assert "n=1" in report.curves and "n=2" in report.curves
        assert report.curves["n=1"]["t"] == sorted(report.curves["n=1"]["t"], reverse=True)
        m = report.curves["m_curve"]
        assert m["n"] == [1, 2]

    def test_mean_loss_non_increasing_over_n(self):
        # statistical trend on the default task, 50 seeds per n (pilot-calibrated)
        cfg = task_config(num_seeds=50)
        schedule, model, loss, _ = cfg.build()
        means = []
        for n in (1, 2, 4):
            gcfg = cfg.with_guidance(n_steps=n)
            losses = [
                sag_sample(model, schedule, loss, gcfg, s).final_loss for s in range(50)
            ]
            means.append(np.mean(losses))
        assert means[1] <= means[0] and means[2] <= means[1]

    def test_reproducible_bytes(self, report):
        again = run_ablation_n(task_config(sweep={"n_list": [1, 2], "m_curve_samples": [50]}))
        assert again.to_json_text() == report.to_json_text()
        assert again.to_csv_text() == report.to_csv_text()

    def test_guided_step_time_grows_with_n(self):
        # eval-dominated model so per-step overhead does not mask the scaling;
        # per-n minimum over seeds is the noise-robust timing estimator
        cfg = RunConfig.from_dict(
            {
                "schedule": {"T": TASK_T, "beta_min": TASK_BETAS[0], "beta_max": TASK_BETAS[1]},
                "model": {"kind": "mlp", "widths": [16, 512, 512, 16], "seed": 1},
                "loss": {"kind": "l2_target", "target": [0.0] * 16},
                "guidance": {"window": list(TASK_WINDOW), "rho": 0.01, "repeats": 1, "n_steps": 1},
                "num_seeds": 8,
                "base_seed": 0,
                "sweep": {"n_list": [1, 8], "m_curve_samples": [50]},
            }
        )
        report = run_ablation_n(cfg)
        per_step = {1: [], 8: []}
        for row in report.timings:
            if row["wall_time_ns"] is not None and row["steps_guided"]:
                per_step[row["n"]].append(row["wall_time_ns"] / row["steps_guided"])
        ratio = min(per_step[8]) / min(per_step[1])
        assert 4.0 <= ratio <= 12.0


class TestAblationRho:
    @pytest.fixture()
    def report(self, rho_report):
        return rho_report

    def test_no_rows_dropped(self, report):
        assert len(report.rows) == 32
        diverged = [r for r in report.rows if r["diverged"]]
        assert diverged and all(r["rho"] == 10.0 for r in diverged)
        assert all(r["final_loss"] is None for r in diverged)

    def test_loss_improves_then_breaks(self, report):
        means = {}
        for rho in (0.0, 0.02, 0.1):
            vals = [r["final_loss"] for r in report.rows if r["rho"] == rho and not r["diverged"]]
            means[rho] = np.mean(vals)
        assert means[0.02] < means[0.0]
        assert means[0.1] < means[0.02]
        assert all(r["diverged"] for r in report.rows if r["rho"] == 10.0)

    def test_rho_zero_matches_unguided_baseline(self, report):
        cfg = task_config()
        schedule, model, loss, _ = cfg.build()
        for row in report.rows:
            if row["rho"] == 0.0:
                base = ddim_rollout(model, schedule, row["seed"])
                assert row["final_loss"] == loss.value(base)

    def test_rows_carry_seeds_and_flags(self, report):
        assert all(isinstance(r["seed"], int) for r in report.rows)
        assert all(r["diverged"] in (True, False) for r in report.rows)


class TestWindowStudy:
    @pytest.fixture()
    def report(self, window_report):
        return window_report

    def _mean(self, report, window_name, repeats):
        vals = [
            r["final_loss"]
            for r in report.rows
            if r["window_name"] == window_name and r["repeats"] == repeats and not r["diverged"]
        ]
        assert vals
        return float(np.mean(vals))

    def test_schema_and_grid(self, report):
        assert len(report.rows) == 3 * 2 * 25
        names = {r["window_name"] for r in report.rows}
        assert names == {"early", "middle", "late"}
        assert default_window_thirds(TASK_T) == {
            "late": (1, 16), "middle": (17, 33), "early": (34, 49)
        }

    def test_middle_window_beats_late_at_equal_rho(self, report):
        assert self._mean(report, "middle", 1) < self._mean(report, "late", 1)

    def test_configured_windows_are_named_in_order(self):
        report = run_window_and_repeats_study(
            task_config(num_seeds=2, sweep={"windows": [[5, 10], [20, 30]], "repeats_list": [1]})
        )
        assert [(r["window_name"], r["window"]) for r in report.rows] == [
            ("w0", "5-10"), ("w0", "5-10"), ("w1", "20-30"), ("w1", "20-30")
        ]

    def test_repeats_help_on_fixed_late_window(self, report):
        # same guided-step set; repeats vary the applications per step
        assert self._mean(report, "late", 2) <= self._mean(report, "late", 1)

    def test_distance_to_unguided_recorded(self, report):
        assert all(
            r["distance_to_unguided"] is not None
            for r in report.rows
            if not r["diverged"]
        )


class TestAdjointComparison:
    @pytest.fixture()
    def report(self, comparison_report):
        return comparison_report

    def test_symplectic_rows_hit_oracle(self, report):
        for row in report.rows:
            if row["method"] in ("symplectic_euler", "symplectic_rk2"):
                assert row["rel_error_vs_oracle"] <= 1e-9

    def test_vanilla_rows_dominate_symplectic(self, report):
        by_cell = {}
        for row in report.rows:
            by_cell.setdefault((row["model"], row["d"], row["n"]), {})[row["method"]] = row
        for cell in by_cell.values():
            van = cell["vanilla"]["rel_error_vs_oracle"]
            sym = cell["symplectic_euler"]["rel_error_vs_oracle"]
            assert van >= 10.0 * sym
            assert van > 1e-8

    def test_memory_counters(self, report):
        for row in report.rows:
            if row["method"] == "symplectic_euler":
                assert row["checkpoints_read"] == row["n"] + 1
                assert row["peak_state_vectors"] == 2
        mlp_oracle = {
            row["n"]: row["tape_arrays"]
            for row in report.rows
            if row["method"] == "oracle_backprop" and row["model"] == "mlp" and row["d"] == 2
        }
        assert mlp_oracle[1] == 3  # one tape entry per linear layer
        assert all(mlp_oracle[n] == n * mlp_oracle[1] for n in mlp_oracle)


class TestPlots:
    def test_empty_report_rejected(self, tmp_path):
        report = ExperimentReport(kind="ablation_n", columns=["a"], rows=[])
        with pytest.raises(ValueError, match="empty report"):
            emit_plots(report, tmp_path)

    def _golden_report(self):
        return ExperimentReport(
            kind="ablation_n",
            columns=["seed", "n", "final_loss"],
            rows=[
                {"seed": 0, "n": 1, "final_loss": 0.9},
                {"seed": 0, "n": 4, "final_loss": 0.2},
            ],
            curves={
                "n=1": {"t": [35, 30, 25, 20, 15], "loss": [5.0, 3.2, 2.1, 1.4, 0.9]},
                "n=4": {"t": [35, 30, 25, 20, 15], "loss": [4.0, 2.0, 0.9, 0.45, 0.2]},
                "m_curve": {
                    "n": [1, 2, 4, 8],
                    "mean_error": [2.4, 1.0, 0.5, 0.25],
                    "stderr": [0.1, 0.05, 0.02, 0.01],
                },
            },
            meta={"m_curve_samples": 0, "m_curve_seed": 0},
        )

    def test_golden_bytes(self, tmp_path):
        paths = emit_plots(self._golden_report(), tmp_path)
        for p in paths:
            assert p.read_bytes() == (GOLDEN / p.name).read_bytes()

    def test_one_polyline_per_n(self, tmp_path):
        paths = emit_plots(self._golden_report(), tmp_path)
        svg = (tmp_path / "loss_curves.svg").read_text()
        assert svg.count("<polyline") == 2
        assert ">n=1<" in svg and ">n=4<" in svg

    def test_rho_curve_skips_diverged_runs(self, rho_report, tmp_path):
        paths = emit_plots(rho_report, tmp_path)
        assert [p.name for p in paths] == ["rho_curve.svg"]
        points = ET.parse(paths[0]).getroot().find("{http://www.w3.org/2000/svg}polyline")
        assert len(points.get("points").split()) == 3  # every rho = 10 run diverged

    @pytest.mark.parametrize(
        "report, labels",
        [
            (
                ExperimentReport(
                    kind="ablation_n",
                    columns=["seed"],
                    rows=[{"seed": 0}],
                    curves={"n=1": {"label": "n=1 & <2>", "t": [2, 1], "loss": [1.0, 0.5]}},
                ),
                {"n=1 & <2>"},
            ),
            (
                ExperimentReport(kind="window_study", columns=["x & y"], rows=[{"x & y": "a<b"}]),
                {"x & y", "a<b"},
            ),
        ],
        ids=["line", "table"],
    )
    def test_text_from_report_is_escaped(self, tmp_path, report, labels):
        # Each file must parse as XML, and each label must come back as text.
        texts = {
            "".join(node.itertext())
            for path in emit_plots(report, tmp_path)
            for node in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")
        }
        assert labels <= texts

    def test_table_plot_for_comparison(self, tmp_path):
        report = run_adjoint_comparison(task_config(sweep={"n_list": [1], "d_list": [2]}))
        paths = emit_plots(report, tmp_path)
        svg = paths[0].read_text()
        assert "symplectic_euler" in svg and "vanilla" in svg


class TestWriteOutputs:
    def test_written_files_and_mcurve_csv(self, tmp_path):
        report = run_ablation_n(task_config(num_seeds=3, sweep={"n_list": [1, 2], "m_curve_samples": [50]}))
        paths = report.write(tmp_path)
        assert paths["csv"].exists() and paths["json"].exists() and paths["timing"].exists()
        m_lines = paths["m_curve"].read_text().strip().splitlines()
        assert m_lines[0] == "n,mean_error,stderr,num_samples,seed"
        assert len(m_lines) == 3
        m = report.curves["m_curve"]
        for line, (n, e, se) in zip(m_lines[1:], zip(m["n"], m["mean_error"], m["stderr"])):
            assert line.split(",") == [repr(n), repr(e), repr(se), "50", "0"]
        obj = json.loads(paths["json"].read_text())
        assert obj["kind"] == "ablation_n"
        assert "wall_time_ns" not in paths["json"].read_text()
