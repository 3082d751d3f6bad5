import json
import re
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    TASK_BETAS,
    TASK_MEANS,
    TASK_RHO,
    TASK_T,
    TASK_TARGET,
    TASK_WINDOW,
    CountingModel,
)
from symguide import (
    ConfigError,
    DivergenceError,
    GuidanceConfig,
    L2TargetLoss,
    MlpModel,
    RunConfig,
    ddim_rollout,
    emit_plots,
    guidance,
    harness,
    run_ablation_n,
    run_ablation_rho,
    run_adjoint_comparison,
    run_single_sample,
    run_window_and_repeats_study,
    sag_sample,
)
from symguide.cli import main
from symguide.estimator import MIN_ERROR_SAMPLES
from symguide.harness import MAX_SIZE, ExperimentReport, build_model, default_window_thirds

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

    @pytest.mark.parametrize(
        "axis, values, repeated",
        [
            ("n_list", [2, 4, 2], "2"),
            ("rho_list", [0.0, 0.1, -0.0], "-0.0"),
            ("windows", [[5, 10], [5, 10]], "(5, 10)"),
        ],
    )
    def test_repeated_axis_value_rejected(self, axis, values, repeated):
        with pytest.raises(ConfigError, match=re.escape(f"sweep axis '{axis}' repeats the value {repeated}")):
            task_config(sweep={axis: values})

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
        with pytest.raises(ConfigError, match="feature_map"):
            task_config(loss={"kind": "gram_style", "target_gram": [[1.0]], "feature_map": [[1.0, 0.0, 0.0]]})

    def test_loading_never_calls_the_loss(self, monkeypatch):
        def refuse(self, x0):
            raise AssertionError("the config loader called the loss")

        monkeypatch.setattr(L2TargetLoss, "grad", refuse)
        monkeypatch.setattr(L2TargetLoss, "value", refuse)
        assert task_config().build()[2].dim == 2

    def test_malformed_guidance_section_rejected(self):
        with pytest.raises(ConfigError):
            task_config(guidance={"window": [15], "rho": 0.1})
        with pytest.raises(ConfigError):
            task_config(guidance="not an object")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_seeds": MAX_SIZE + 1},
            {"guidance": {"window": list(TASK_WINDOW), "rho": TASK_RHO, "repeats": MAX_SIZE + 1}},
            {"sweep": {"repeats_list": [1, MAX_SIZE + 1]}},
            {"sweep": {"m_curve_samples": [MAX_SIZE + 1]}},
        ],
        ids=["num_seeds", "repeats", "repeats_list", "m_curve_samples"],
    )
    def test_counts_past_the_ceiling_rejected(self, overrides):
        with pytest.raises(ConfigError, match=str(MAX_SIZE)):
            task_config(**overrides)

    def test_counts_at_the_ceiling_load(self):
        config = task_config(
            num_seeds=MAX_SIZE,
            sweep={"repeats_list": [MAX_SIZE], "m_curve_samples": [MAX_SIZE]},
        )
        assert config.num_seeds == MAX_SIZE
        assert config.axis("repeats_list") == [MAX_SIZE]
        assert config.axis("m_curve_samples") == [MAX_SIZE]

    def test_mlp_parameter_ceiling(self, tmp_path):
        # 100 layers of MAX_SIZE x MAX_SIZE weights: ~13 GB, refused before any weight is allocated.
        wide = [2] + 100 * [MAX_SIZE] + [2]
        with pytest.raises(ConfigError, match="MAX_MLP_PARAMETERS"):
            build_model({"kind": "mlp", "widths": wide})
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"widths": wide, "layers": []}))
        with pytest.raises(ConfigError, match="MAX_MLP_PARAMETERS"):
            build_model({"kind": "mlp", "weights_file": str(path)})
        for widths in ([2, MAX_SIZE, 2], [16, 256, 256, 16]):
            assert build_model({"kind": "mlp", "widths": widths}).widths == widths

    def test_weights_file_with_integral_float_widths_loads(self, tmp_path):
        # JSON counts 2.0 as an integer (the seed 3.0 too), and the loader hands MlpModel the ints it checked.
        mlp = MlpModel.random([2, 4, 2], seed=0)
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({**mlp.to_json_dict(), "widths": [2.0, 4.0, 2.0], "seed": 3.0}))
        loaded = build_model({"kind": "mlp", "weights_file": str(path)})
        assert loaded.widths == [2, 4, 2]
        assert loaded.seed == 3 and type(loaded.seed) is int
        assert loaded.eps(np.ones(2), 1.0).tobytes() == mlp.eps(np.ones(2), 1.0).tobytes()

    @pytest.mark.parametrize("seeded", [True, False], ids=["int-seed", "null-seed"])
    def test_weights_file_round_trip(self, tmp_path, seeded):
        # to_json_dict writes what build_model reads, a null seed included.
        if seeded:
            mlp = MlpModel.random([2, 4, 2], 0)
        else:
            rng = np.random.default_rng(1)
            mlp = MlpModel([2, 4, 2], [(rng.standard_normal((4, 3)), rng.standard_normal(4)),
                                       (rng.standard_normal((2, 4)), rng.standard_normal(2))])
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(mlp.to_json_dict()))
        loaded = build_model({"kind": "mlp", "weights_file": str(path)})
        assert loaded.seed == (0 if seeded else None)
        for x, sigma in [(np.ones(2), 1.0), (np.array([0.3, -2.5]), 0.01), (np.zeros(2), 7.5)]:
            assert loaded.eps(x, sigma).tobytes() == mlp.eps(x, sigma).tobytes()

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
        self, tmp_path, ablation_report, rho_report, window_report, comparison_report
    ):
        # Each timing.json row is its report.json row plus the run's wall time (and error, in a sweep).
        sample = run_single_sample(task_config(base_seed=3))
        for report in (sample, ablation_report, rho_report, window_report, comparison_report):
            paths = report.write(tmp_path / report.kind)
            assert "wall_time_ns" not in paths["json"].read_text()
            rows = json.loads(paths["json"].read_text())["rows"]
            timings = json.loads(paths["timing"].read_text())["rows"]
            sweep = report.kind in ("ablation_n", "ablation_rho", "window_study")
            assert len(timings) == len(rows)
            for row, timing in zip(rows, timings):
                assert set(timing) == {*row, "wall_time_ns", *(["error"] if sweep else [])}
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

    def test_guided_step_time_grows_with_n(self, monkeypatch):
        # The sampler's clock reads the model calls made so far, so wall_time_ns counts
        # the n eps and n vjp calls of each guided step and the ratio is exactly 8.
        models, gmm = [], harness.GmmModel

        def counting(*args, **kwargs):
            models.append(CountingModel(gmm(*args, **kwargs)))
            return models[-1]

        monkeypatch.setattr(harness, "GmmModel", counting)
        clock = SimpleNamespace(perf_counter_ns=lambda: sum(models[0].calls.values()))
        monkeypatch.setattr(guidance, "time", clock)
        report = run_ablation_n(task_config(num_seeds=2, sweep={"n_list": [1, 8], "m_curve_samples": [50]}))
        per_step = {1: [], 8: []}
        for row in report.rows:
            if row["wall_time_ns"] is not None and row["steps_guided"]:
                per_step[row["n"]].append(row["wall_time_ns"] / row["steps_guided"])
        ratio = min(per_step[8]) / min(per_step[1])
        assert ratio == 8.0


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

    def test_each_completed_seed_is_rolled_out_once(self, monkeypatch):
        # Seed 1 diverges in every cell and seed 2 in the first one only.
        sample, rollout, rolled = harness.sag_sample, harness.ddim_rollout, []

        def diverging_sample(model, schedule, loss, guidance, seed):
            if seed == 1 or (seed == 2 and guidance.repeats == 1):
                raise DivergenceError(f"seed {seed} made to diverge")
            return sample(model, schedule, loss, guidance, seed)

        def counted_rollout(model, schedule, seed):
            rolled.append(seed)
            return rollout(model, schedule, seed)

        monkeypatch.setattr(harness, "sag_sample", diverging_sample)
        monkeypatch.setattr(harness, "ddim_rollout", counted_rollout)
        report = run_window_and_repeats_study(
            task_config(num_seeds=4, sweep={"windows": [list(TASK_WINDOW)], "repeats_list": [1, 2]})
        )
        assert rolled == [0, 3, 2]
        assert [r["diverged"] for r in report.rows] == [False, True, True, False, False, True, False, False]
        assert all((r["distance_to_unguided"] is None) == r["diverged"] for r in report.rows)

    def test_distance_to_unguided_recorded(self, report):
        assert all(
            r["distance_to_unguided"] is not None
            for r in report.rows
            if not r["diverged"]
        )


@pytest.mark.parametrize(
    "runner, sweep",
    [
        (run_ablation_n, {"n_list": [1, 2, 4], "m_curve_samples": [50]}),
        (run_ablation_rho, {"rho_list": [0.0, 0.05, 0.1]}),
        (run_window_and_repeats_study, {"windows": [list(TASK_WINDOW)], "repeats_list": [1, 2, 3]}),
    ],
)
def test_sweep_releases_each_cells_records(monkeypatch, runner, sweep):
    # When a cell's first seed runs, at most one earlier record (a loop variable's) is alive.
    sample, records, alive = harness.sag_sample, [], []

    def tracked_sample(model, schedule, loss, guidance, seed):
        if seed == 0:
            alive.append(sum(ref() is not None for ref in records))
        rec = sample(model, schedule, loss, guidance, seed)
        records.append(weakref.ref(rec))
        return rec

    monkeypatch.setattr(harness, "sag_sample", tracked_sample)
    runner(task_config(num_seeds=4, sweep=sweep))
    assert len(alive) == 3 and max(alive) <= 1


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

    @pytest.mark.parametrize("n", [1, 3, 32])
    def test_model_call_counts_per_cell(self, monkeypatch, n):
        # Per model and n: the Euler estimate (n eps) and Heun estimate (2n eps); the
        # Euler and Heun oracles (n + 2n eps_with_tape, n + 3n vjp_from_tape); the
        # symplectic Euler and Heun sweeps (n + 2n vjp); the vanilla adjoint (n eps, n vjp).
        # The Heun oracle calls vjp_from_tape 3 times per step where 2 suffice, so
        # caching J_m^T w_m per stage would turn 4n into 3n.  At n = 32 these are the
        # 128/128/96/128 calls of the adjoint-mlp benchmark workload.
        counted = []

        def counting(build):
            def make(*args, **kwargs):
                counted.append(CountingModel(build(*args, **kwargs)))
                return counted[-1]

            return make

        monkeypatch.setattr(harness, "GmmModel", counting(harness.GmmModel))
        monkeypatch.setattr(harness.MlpModel, "random", counting(harness.MlpModel.random))
        run_adjoint_comparison(task_config(sweep={"n_list": [n], "d_list": [2]}))
        expected = {"eps": 4 * n, "vjp": 4 * n, "eps_with_tape": 3 * n, "vjp_from_tape": 4 * n}
        # The first model is the config's own, which config.build() makes and the cell never calls.
        unused = dict.fromkeys(expected, 0)
        assert [model.calls for model in counted] == [unused, expected, expected]


@st.composite
def ablate_n_cases(draw):
    """A small T, a window (K1, K2) inside it, repeats r, rho, an n_list, a seed count and M-curve samples."""
    T = draw(st.integers(3, 10))
    k1 = draw(st.integers(1, T - 2))
    k2 = draw(st.integers(k1 + 1, T - 1))
    rho = draw(st.sampled_from([0.0, TASK_RHO]))
    n_list = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    num_seeds = draw(st.integers(1, 3))
    return T, k1, k2, draw(st.integers(1, 2)), rho, n_list, num_seeds, draw(st.integers(MIN_ERROR_SAMPLES, 55))


class TestAblateN:
    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(case=ablate_n_cases())
    @example(case=(50, 15, 35, 1, TASK_RHO, [1, 2, 4, 8], 50, 200))  # configs/default.json: 41550 eps, 15750 vjp
    def test_model_call_counts(self, case):
        # Each of the num_seeds samples per n makes T + (r-1)*W ddim_step eps calls and, at each
        # of its G = r*W guided steps (none when rho = 0), an n-call estimate and an n-call
        # costate sweep.  The M-curve adds m * (n_ref + sum(n_list)) eps calls, n_ref = 8 * max(n_list).
        T, k1, k2, r, rho, n_list, num_seeds, m = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "build_model", lambda spec: CountingModel(build_model(spec)))
            config = task_config(
                schedule={"T": T, "beta_min": TASK_BETAS[0], "beta_max": TASK_BETAS[1]},
                guidance={"window": [k1, k2], "rho": rho, "repeats": r, "n_steps": 1},
                sweep={"n_list": n_list, "m_curve_samples": [m]},
                num_seeds=num_seeds,
            )
        model = config.build()[1]
        report = run_ablation_n(config)
        assert not any(row["diverged"] for row in report.rows)
        W = k2 - k1 + 1
        G = r * W if rho > 0.0 else 0
        eps = sum(num_seeds * (T + (r - 1) * W + G * n) for n in n_list) + m * (8 * max(n_list) + sum(n_list))
        vjp = sum(num_seeds * G * n for n in n_list)
        assert model.calls == {**dict.fromkeys(model.calls, 0), "eps": eps, "vjp": vjp}


class TestPlots:
    def test_row_lacking_a_column_rejected(self, tmp_path):
        # Keys beyond the columns are allowed; a missing column is not, here or when plotting.
        good = self._golden_report().to_json_dict()
        good["rows"][0]["wall_time_ns"] = 1
        assert ExperimentReport(**good).rows[0]["wall_time_ns"] == 1
        del good["rows"][1]["final_loss"]
        with pytest.raises(ValueError, match=r"row 1 lacks column\(s\) \['final_loss'\]"):
            ExperimentReport(**good)
        (tmp_path / "report.json").write_text(json.dumps(good))
        assert main(["plot", "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.glob("*.svg"))

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
