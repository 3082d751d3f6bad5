import copy
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TASK_BETAS, TASK_MEANS, TASK_RHO, TASK_T, TASK_TARGET, TASK_WINDOW
from symguide import (
    AffineModel,
    L2TargetLoss,
    MlpModel,
    build_linear_schedule,
    cli,
    ddim_step,
    estimate_clean,
    harness,
    symplectic_euler_grad,
)
from symguide.cli import main
from symguide.harness import MAX_SIZE

NAN, INF = math.nan, math.inf


@pytest.fixture()
def config_path(tmp_path):
    cfg = {
        "schedule": {"T": TASK_T, "beta_min": TASK_BETAS[0], "beta_max": TASK_BETAS[1]},
        "model": {"kind": "gmm", "weights": [0.5, 0.5], "means": TASK_MEANS},
        "loss": {"kind": "l2_target", "target": TASK_TARGET},
        "guidance": {"window": list(TASK_WINDOW), "rho": TASK_RHO, "repeats": 1, "n_steps": 4},
        "num_seeds": 4,
        "base_seed": 0,
        "out_dir": str(tmp_path / "out"),
        "sweep": {"n_list": [1, 2], "m_curve_samples": [50]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_sample_seed_7_is_byte_identical(config_path, tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["sample", "--config", str(config_path), "--seed", "7", "--out", str(out1)]) == 0
    assert main(["sample", "--config", str(config_path), "--seed", "7", "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_main_dispatches_through_the_runner_table(config_path, tmp_path, monkeypatch):
    # perfbench/tracing.py replaces a runner in the table with a wrapper that has no docstring.
    calls = []
    original = cli._RUNNERS["sample"]
    monkeypatch.setitem(cli._RUNNERS, "sample", lambda config: calls.append(config) or original(config))
    assert main(["sample", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_out_naming_a_file_exits_2(config_path, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["sample", "--config", str(config_path), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write outputs to {taken}")
    assert taken.read_text() == ""


def test_sample_writes_resolved_config(config_path, tmp_path):
    out = tmp_path / "run"
    assert main(["sample", "--config", str(config_path), "--seed", "3", "--out", str(out)]) == 0
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["base_seed"] == 3
    assert resolved["out_dir"] == str(out)
    assert (out / "timing.json").exists()


def test_seed_and_out_build_the_config_once(config_path, tmp_path, monkeypatch):
    # --seed and --out replace keys of the JSON before the config is checked and built.
    counts = {"build_model": 0, "build_schedule": 0}
    for name in counts:
        original = getattr(harness, name)

        def counted(spec, name=name, original=original):
            counts[name] += 1
            return original(spec)

        monkeypatch.setattr(harness, name, counted)
    out = tmp_path / "run"
    assert main(["sample", "--config", str(config_path), "--seed", "3", "--out", str(out)]) == 0
    assert counts == {"build_model": 1, "build_schedule": 1}


@pytest.mark.parametrize("out_dir", [None, 5, ["a"]])
def test_non_string_out_dir_exits_2(config_path, tmp_path, monkeypatch, capsys, out_dir):
    monkeypatch.chdir(tmp_path)
    obj = json.loads(config_path.read_text())
    obj["out_dir"] = out_dir
    bad = tmp_path / "bad_out_dir.json"
    bad.write_text(json.dumps(obj))
    assert main(["sample", "--config", str(bad)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad_out_dir.json", "config.json"]
    # --out replaces the key before it is checked.
    assert main(["sample", "--config", str(bad), "--out", str(tmp_path / "o")]) == 0


def test_integral_float_count_gives_identical_report(config_path, tmp_path):
    obj = json.loads(config_path.read_text())
    reports = []
    for n_steps in (2, 2.0):
        obj["guidance"]["n_steps"] = n_steps
        path = tmp_path / f"n_steps_{n_steps}.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / f"out_{n_steps}"
        assert main(["sample", "--config", str(path), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert b'"n_steps": 2.0' in path.read_bytes()
    assert reports[0] == reports[1]


def test_missing_config_exits_2(tmp_path):
    assert main(["sample", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2
    # A directory exists but cannot be read as a config file.
    assert main(["sample", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command, section, values",
    [
        ("study-window", "sweep", {"windows": [[40, 60]]}),  # outside T = 50
        ("study-window", "sweep", {"windows": [[5]]}),
        ("ablate-n", "sweep", {"m_curve_samples": [10]}),
        ("ablate-n", "sweep", {"n_list": ["a"]}),
        ("compare-adjoint", "sweep", {"d_list": [0]}),
        ("sample", None, {"num_seeds": "x"}),
        ("sample", "guidance", {"n_step": 8}),
        ("sample", "guidance", {"rho_by_t": {"20": 0.5}}),
        # Non-finite numbers (json writes and reads the NaN and Infinity literals).
        ("sample", "guidance", {"rho": NAN}),
        ("sample", "guidance", {"rho": INF}),
        ("ablate-rho", "sweep", {"rho_list": [NAN]}),
        ("sample", "model", {"means": [[NAN, 0.0], [3.0, 0.0]]}),
        ("sample", "model", {"means": [[INF, 0.0], [3.0, 0.0]]}),
        ("sample", "model", {"weights": [NAN, 0.5]}),
        ("sample", "model", {"kind": "affine", "matrix": [[NAN, 0.0], [0.0, 0.1]]}),
        ("sample", "model", {"kind": "affine", "matrix": [[INF, 0.0], [0.0, 0.1]]}),
        ("sample", "loss", {"target": [NAN, 0.0]}),
        ("sample", "loss", {"target": [INF, 0.0]}),
        # Integer keys: negative seeds, booleans and fractions.
        ("sample", None, {"base_seed": -1}),
        ("sample --seed -1", None, {}),
        ("sample", None, {"num_seeds": 2.5}),
        ("sample", "schedule", {"T": 50.5}),
        ("sample", "model", {"kind": "mlp", "widths": [2, 8.5, 2]}),
        ("sample", "guidance", {"n_steps": 1.5}),
        ("sample", "guidance", {"n_steps": True}),
        ("sample", "guidance", {"repeats": 2.7}),
        ("sample", "guidance", {"window": [15.7, 35]}),
        ("sample", "guidance", {"window": [-3, 35]}),
        ("ablate-n", "sweep", {"n_list": [1.5]}),
        ("compare-adjoint", "sweep", {"d_list": [2.5]}),
        # Float keys: booleans and strings are not numbers.
        ("sample", "guidance", {"rho": True}),
        ("sample", "guidance", {"rho": "0.1"}),
        ("sample", "schedule", {"beta_min": "0.004"}),
        ("sample", "model", {"weights": ["0.5", "0.5"]}),
        ("sample", "model", {"means": [["-3.0", "0.0"], ["3.0", "0.0"]]}),
        ("sample", "loss", {"target": ["-3.0", "0.0"]}),
        ("sample", "loss", {"target": [True, False]}),
        ("ablate-rho", "sweep", {"rho_list": [True]}),
        ("sample", "model", {"kind": "affine", "matrix": [[True, False], [False, True]]}),
        # Integer keys past sys.maxsize: no count may overflow a machine integer.
        ("sample", "guidance", {"n_steps": 10**400}),
        ("sample", "guidance", {"repeats": 10**400}),
        ("sample", None, {"num_seeds": 10**400}),
        # Sub-step counts past the ceiling, which numpy cannot allocate or the run would not finish.
        ("sample", "guidance", {"n_steps": 2**62}),
        ("ablate-n", "sweep", {"n_list": [2**62]}),
        ("sample", "guidance", {"n_steps": MAX_SIZE + 1}),
        ("sample", "guidance", {"repeats": 5000}),
        # Sizes past the ceiling, for which numpy would be asked for terabytes.
        ("sample", "schedule", {"T": 2**40}),
        ("sample", "model", {"kind": "mlp", "widths": [2, 2**40, 2]}),
        ("compare-adjoint", "sweep", {"d_list": [2**40]}),
        ("sample", "model", {"kind": "mlp", "widths": [2, MAX_SIZE + 1, 2]}),
        # ablate-n draws one M-curve, so it takes one sample count.
        ("ablate-n", "sweep", {"m_curve_samples": [50, 60]}),
        # A 0-dimensional model: the GMM's means have no columns.
        ("sample", None, {
            "model": {"kind": "gmm", "weights": [1.0], "means": [[]]},
            "loss": {"kind": "l2_target", "target": []},
        }),
        # An alpha so small that sigma = sqrt((1 - alpha) / alpha) overflows.
        ("compare-adjoint", None, {
            "schedule": {"alpha": [1.0, 0.5, 1e-310, 1e-320]},
            "guidance": {"window": [1, 2], "rho": TASK_RHO},
        }),
        # A key that nothing reads: misspelt, or another kind's.
        ("sample", None, {"num_seed": 2}),
        ("sample", None, {"base-seed": 5}),
        ("sample", "model", {"widths": [2, 3]}),
        ("sample", "loss", {"feature_map": [[1.0]]}),
        ("sample", "schedule", {"alpha": [1.0, 0.9, 0.5]}),
        # An MLP whose weights would fill gigabytes, though each width is within the ceiling.
        ("sample", "model", {"kind": "mlp", "widths": [2] + 100 * [MAX_SIZE] + [2]}),
        # A target that is not a vector of the model's dimension, which numpy would broadcast.
        ("sample", "loss", {"target": [-3.0]}),
        ("sample", "loss", {"target": -3.0}),
        # A repeated axis value would run its cells twice and draw one curve for them.
        ("ablate-n", "sweep", {"n_list": [2, 2]}),
        # An asymmetric target Gram matrix whose c - c.T overflows.
        ("sample", None, {"loss": {
            "kind": "gram_style", "target_gram": [[1.0, 1e308], [-1e308, 1.0]], "feature_map": [[1.0, 0.0], [0.0, 1.0]],
        }}),
    ],
)
def test_malformed_config_exits_2(config_path, tmp_path, capsys, command, section, values):
    assert _run_with(config_path, tmp_path, command, section, values) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    # The message names a key the case sets (--seed sets base_seed).
    assert any(re.search(rf"\b{re.escape(key)}\b", err) for key in values or ["base_seed"]), err


@pytest.mark.parametrize(
    "section, values, message",
    [
        # GuidanceConfig is the one range check of a guidance count, so -3 and 0 read alike.
        ("guidance", {"window": [-3, 35]}, f"bad guidance spec: window step must be in [1, {sys.maxsize}], got -3"),
        ("guidance", {"window": [0, 35]}, f"bad guidance spec: window step must be in [1, {sys.maxsize}], got 0"),
        ("guidance", {"n_steps": 0}, f"bad guidance spec: n_steps must be in [1, {MAX_SIZE}], got 0"),
        ("guidance", {"repeats": -2.0}, f"bad guidance spec: repeats must be in [1, {MAX_SIZE}], got -2"),
        # So is MlpModel's check of its seed; a base seed, which no constructor bounds, has the config's.
        ("model", {"kind": "mlp", "widths": [2, 4, 2], "seed": -1},
         f"bad model spec: seed must be in [0, {sys.maxsize}], got -1"),
        (None, {"base_seed": -1}, f"base_seed must be in [0, {sys.maxsize}], got -1"),
    ],
    ids=["window-step-minus-3", "window-step-0", "n_steps-0", "repeats-minus-2.0", "mlp-seed-minus-1", "base_seed-minus-1"],
)
def test_a_count_error_reads_as_the_check_that_owns_the_count(config_path, tmp_path, capsys, section, values, message):
    assert _run_with(config_path, tmp_path, "sample", section, values) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def _run_with(config_path, tmp_path, command, section, values):
    """The exit code of command on the test config with values set in section (None: the top level)."""
    obj = json.loads(config_path.read_text())
    target = obj[section] if section else obj
    if "kind" in values:  # the section's other keys belong to its old kind
        target.clear()
    target.update(values)
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(obj))
    return main([*command.split(), "--config", str(bad), "--out", str(tmp_path / "o")])


def _string_first_W(weights):
    layer = weights["layers"][0]
    layer["W"] = [[str(v) for v in row] for row in layer["W"]]


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (lambda weights: weights.update(widths=["2", "4", "2"]), "widths"),
        (_string_first_W, "W"),
        (lambda weights: weights["layers"][-1].update(b=[True, False]), "b"),
        (lambda weights: weights.update(typo=1), "typo"),
        (lambda weights: weights["layers"][0].update(typo=1), "typo"),
        (lambda weights: weights.update(seed="x"), "seed"),
        (lambda weights: weights.update(seed=True), "seed"),
        (lambda weights: weights.update(seed=-1), "seed"),
        (lambda weights: weights.update(seed=2.5), "seed"),
    ],
    ids=[
        "string-widths", "string-W", "boolean-b", "stray-key", "stray-layer-key",
        "string-seed", "boolean-seed", "negative-seed", "fractional-seed",
    ],
)
def test_malformed_weights_file_exits_2(config_path, tmp_path, capsys, corrupt, named):
    obj = json.loads(config_path.read_text())
    weights_path = tmp_path / "weights.json"
    obj["model"] = {"kind": "mlp", "weights_file": str(weights_path)}
    cfg = tmp_path / "mlp.json"
    cfg.write_text(json.dumps(obj))
    weights = MlpModel.random([2, 4, 2], seed=0).to_json_dict()
    weights_path.write_text(json.dumps(weights))
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    corrupt(weights)
    weights_path.write_text(json.dumps(weights))
    assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert re.search(rf"\b{named}\b", err), err


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schedule": {"T": 10, "beta_min": 0.01, "beta_max": 0.1}}))
    assert main(["sample", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_bad_window_exits_2(config_path, tmp_path):
    obj = json.loads(config_path.read_text())
    obj["guidance"]["window"] = [10, TASK_T + 5]
    bad = tmp_path / "bad_window.json"
    bad.write_text(json.dumps(obj))
    assert main(["sample", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_divergent_single_run_exits_3(config_path, tmp_path):
    obj = json.loads(config_path.read_text())
    obj["guidance"]["rho"] = 50.0
    div = tmp_path / "divergent.json"
    div.write_text(json.dumps(obj))
    assert main(["sample", "--config", str(div), "--out", str(tmp_path / "o")]) == 3


def test_any_n_steps_runs(config_path, tmp_path):
    # At t = 29 the 25 sub-steps of 29/25 must end on sigma(29) exactly.
    obj = json.loads(config_path.read_text())
    obj["guidance"].update(window=[5, 35], n_steps=25)
    path = tmp_path / "n25.json"
    path.write_text(json.dumps(obj))
    assert main(["sample", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_compare_adjoint_overflow_exits_3(config_path, tmp_path, capsys):
    # sigma(3) = 1e150: the vanilla adjoint's gradient overflows, and no numpy warning escapes.
    obj = json.loads(config_path.read_text())
    obj["schedule"] = {"alpha": [1.0, 0.5, 1e-200, 1e-300]}
    obj["guidance"]["window"] = [1, 2]
    obj["sweep"] = {"d_list": [2], "n_list": [1, 2]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(obj))
    assert main(["compare-adjoint", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical divergence: non-finite rel_error_vs_oracle")
    assert all(f"'{key}'" in err for key in ("model", "d", "n", "method"))


@pytest.mark.parametrize(
    "scale, message",
    [
        # The estimates stay finite, but their distances overflow: the mean error is inf.
        (1e10, "non-finite M-curve point at n=1: MCurvePoint(n=1, mean_error=inf, stderr=nan)"),
        # An estimate itself overflows, at the M-curve's first sub-step.
        (1e40, "non-finite state at sub-step tau=8"),
    ],
    ids=["distance-overflows", "estimate-overflows"],
)
def test_ablate_n_m_curve_overflow_exits_3(config_path, tmp_path, capsys, scale, message):
    # Every guided run diverges and becomes a flagged row; the M-curve then fails, as
    # compare-adjoint does, with a DivergenceError and no numpy warning.
    obj = json.loads(config_path.read_text())
    obj["model"] = {"kind": "affine", "matrix": [[-scale, 0.0], [0.0, -scale]]}
    obj["num_seeds"] = 2
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(obj))
    assert main(["ablate-n", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(f"numerical divergence: {message}")


def test_study_window_rolls_out_only_completed_seeds(config_path, tmp_path):
    # Every guided run diverges, so no unguided rollout, which would overflow, is made.
    obj = json.loads(config_path.read_text())
    obj["model"] = {"kind": "affine", "matrix": [[1e8, 0.0], [0.0, 1e8]]}
    obj.update(num_seeds=2, sweep={"windows": [list(TASK_WINDOW)], "repeats_list": [1]})
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "o"
    assert main(["study-window", "--config", str(path), "--out", str(out)]) == 0
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert [(row["diverged"], row["distance_to_unguided"]) for row in rows] == [(True, None)] * 2


def test_study_window_diverging_rollout_exits_3(config_path, tmp_path, capsys):
    # eps = -0.3 x grows every state; rho zeroes the guided state at t = 45, but the
    # unguided rollout of a completed seed passes the norm guard, and the study exits 3.
    model, loss = AffineModel(-0.3 * np.eye(2)), L2TargetLoss([0.0, 0.0])
    schedule, e1, t = build_linear_schedule(TASK_T, *TASK_BETAS), np.array([1.0, 0.0]), 45
    traj = estimate_clean(model, schedule, e1, t, 4)
    grad = symplectic_euler_grad(model, traj, loss.grad(traj.clean_output), schedule, t)
    rho = float(ddim_step(model, schedule, e1, t)[0] / grad[0])
    obj = json.loads(config_path.read_text())
    obj["model"] = {"kind": "affine", "matrix": (-0.3 * np.eye(2)).tolist()}
    obj["loss"]["target"] = [0.0, 0.0]
    obj["guidance"].update(window=[t - 1, t], rho=rho, n_steps=4)
    obj.update(num_seeds=1, sweep={"windows": [[t - 1, t]], "repeats_list": [1]})
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(obj))
    assert main(["sample", "--config", str(path), "--out", str(tmp_path / "sample")]) == 0
    assert main(["study-window", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("numerical divergence: unguided rollout diverged at t=")


def test_ablate_n_end_to_end(config_path, tmp_path):
    out = tmp_path / "abl"
    assert main(["ablate-n", "--config", str(config_path), "--out", str(out)]) == 0
    for name in ("report.csv", "report.json", "config.resolved.json", "timing.json", "m_curve.csv"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "ablation_n"
    assert len(report["rows"]) == 8  # 2 n-values x 4 seeds


def test_plot_from_report(config_path, tmp_path):
    out = tmp_path / "abl"
    assert main(["ablate-n", "--config", str(config_path), "--out", str(out)]) == 0
    assert main(["plot", "--out", str(out)]) == 0
    svgs = list(Path(out).glob("*.svg"))
    assert any(p.name == "loss_curves.svg" for p in svgs)
    assert any(p.name == "m_curve.svg" for p in svgs)


def test_plot_missing_report_exits_2(tmp_path, capsys):
    assert main(["plot", "--out", str(tmp_path / "empty")]) == 2
    good = {"kind": "ablation_rho", "columns": ["rho"], "rows": [{"rho": 0.1}]}
    for name, text in [
        ("not_json", "{not json"),
        ("no_kind", json.dumps({k: v for k, v in good.items() if k != "kind"})),
        ("array", json.dumps([good])),
        ("bad_rows", json.dumps({**good, "rows": [{"seed": 0}]})),
        ("unplottable", json.dumps(good)),  # rho rows need diverged and final_loss
        ("list_meta", json.dumps({**good, "meta": []})),
    ]:
        report = tmp_path / name / "report.json"
        report.parent.mkdir()
        report.write_text(text)
        assert main(["plot", "--out", str(report.parent)]) == 2, name
    assert "missing key 'diverged'" in capsys.readouterr().err


def test_compare_adjoint_end_to_end(config_path, tmp_path):
    obj = json.loads(config_path.read_text())
    obj["sweep"] = {"n_list": [1, 2], "d_list": [2]}
    cfg = tmp_path / "cmp.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "cmp_out"
    assert main(["compare-adjoint", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["plot", "--out", str(out)]) == 0
    assert (out / "adjoint_comparison.svg").exists()


@pytest.mark.parametrize(
    "section, key, off",
    [
        (None, "parallel", 1),
        ("guidance", "rho_by_t", None),
        ("guidance", "repeats_by_t", {}),
        ("guidance", "n_by_t", {}),
        ("guidance", "grad_normalize", False),
    ],
    ids=["parallel", "rho_by_t", "repeats_by_t", "n_by_t", "grad_normalize"],
)
def test_retired_keys_exit_2(config_path, tmp_path, capsys, section, key, off):
    # Each key a retired option used to read, at the value that left the option off.
    obj = json.loads(config_path.read_text())
    (obj[section] if section else obj)[key] = off
    path = tmp_path / "retired.json"
    path.write_text(json.dumps(obj))
    assert main(["sample", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"unknown key\(s\) \['{key}'\]", err), err


# A small valid config; the other kinds of its schedule, model and loss
# sections; and every key the fuzz below may replace.
_FUZZ_BASE = {
    "schedule": {"T": 6, "beta_min": 0.05, "beta_max": 0.3},
    "model": {"kind": "gmm", "weights": [0.5, 0.5], "means": TASK_MEANS},
    "loss": {"kind": "l2_target", "target": TASK_TARGET},
    "guidance": {"window": [2, 4], "rho": TASK_RHO, "repeats": 1, "n_steps": 2},
    "num_seeds": 1,
    "base_seed": 0,
    "sweep": {"n_list": [1, 2], "rho_list": [0.0, 0.1], "m_curve_samples": [50], "windows": [[2, 4]]},
}
_FUZZ_OTHER_KINDS = {
    "schedule": [{"alpha": [1.0, 0.9, 0.75, 0.6, 0.45, 0.3, 0.2]}],
    "model": [
        {"kind": "mlp", "widths": [2, 4, 2], "seed": 0},
        {"kind": "affine", "matrix": [[0.1, 0.0], [0.0, 0.1]], "offset": [0.0, 0.0]},
    ],
    "loss": [{"kind": "gram_style", "target_gram": [[1.0]], "feature_map": [[1.0, 0.0], [0.0, 1.0]]}],
}


def _fuzz_specs(section):
    return [_FUZZ_BASE[section], *_FUZZ_OTHER_KINDS.get(section, [])]


_FUZZ_KEYS = [(None, key) for key in [*_FUZZ_BASE, "out_dir"]] + list(dict.fromkeys(
    (section, key)
    for section in ("schedule", "model", "loss", "guidance", "sweep")
    for spec in _fuzz_specs(section)
    for key in spec
))
# Keys whose value is not a number or a list of numbers.
_NON_NUMERIC_KEYS = {"kind", "out_dir", "schedule", "model", "loss", "guidance", "sweep"}
_FUZZ_COMMANDS = ("sample", "ablate-n", "ablate-rho", "study-window", "compare-adjoint")
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 64)
    | st.floats(-2.0, 64.0)
    | st.sampled_from([NAN, INF, -INF])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _fuzz_config(section, key, value):
    """The base config with the first spec of `section` that holds `key`, key set to value."""
    obj = copy.deepcopy(_FUZZ_BASE)
    if section:
        obj[section] = copy.deepcopy(next(spec for spec in _fuzz_specs(section) if key in spec))
    (obj[section] if section else obj)[key] = value
    return obj


def _holds_bool_or_str(value):
    return isinstance(value, (bool, str)) or (
        isinstance(value, list) and any(_holds_bool_or_str(v) for v in value)
    )


@pytest.mark.parametrize(
    "section, spec",
    [(None, None)] + [(section, spec) for section, specs in _FUZZ_OTHER_KINDS.items() for spec in specs],
)
def test_fuzz_base_configs_run(tmp_path, section, spec):
    obj = {**_FUZZ_BASE, section: spec} if section else _FUZZ_BASE
    path = tmp_path / "base.json"
    path.write_text(json.dumps(obj))
    for command in _FUZZ_COMMANDS:
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_short_schedule_names_the_default_window(tmp_path, capsys):
    # With T = 6 the default early third of steps 1..5 is (5, 5), which is no window.
    obj = {k: v for k, v in _FUZZ_BASE.items() if k != "sweep"}
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps(obj))
    assert main(["study-window", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "got (5, 5)" in err
    assert "default early third of steps 1..5" in err
    assert "sweep.windows sets explicit windows" in err


def _strict_json(path):
    """The JSON in path; NaN, Infinity and -Infinity are not JSON and fail the test."""
    return json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{path} holds {c}"))


def test_overflowing_loss_diverges_and_writes_strict_json(tmp_path, capsys):
    # |x0 - target|^2 overflows: a single run exits 3, a sweep flags every row.
    # At this rho the guided state stays finite, so only the loss checks see it.
    obj = _fuzz_config("loss", "target", [1e200, 0.0])
    obj["guidance"]["rho"] = 1e-300
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(obj))
    assert main(["sample", "--config", str(path), "--out", str(tmp_path / "sample")]) == 3
    assert "non-finite guidance loss" in capsys.readouterr().err
    for command in ("ablate-n", "ablate-rho", "study-window"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        assert all(row["diverged"] for row in _strict_json(out / "report.json")["rows"])
        _strict_json(out / "timing.json")


def _one_key_case(target, value):
    """The base config with one key set to value, and the exit codes the commands may give."""
    section, key = target
    # A boolean or a string is never a number: a numeric key holding one exits 2.
    expected = (2,) if key not in _NON_NUMERIC_KEYS and _holds_bool_or_str(value) else (0, 2, 3)
    return _fuzz_config(section, key, value), expected


# Explicit schedules whose tail alpha is tiny, so that sigma is huge or overflows.
_tiny_tail_configs = st.lists(st.floats(5e-324, 1e-100), min_size=1, max_size=3).map(
    lambda tail: _fuzz_config("schedule", "alpha", [1.0, 0.9, 0.75, 0.6, 0.45, *sorted(tail, reverse=True)])
)


@st.composite
def _long_configs(draw):
    """The base config on T >= 30 steps, with sub-step counts up to 64 and a short window anywhere."""
    T = draw(st.integers(30, 64))
    k1 = draw(st.integers(1, T - 2))
    k2 = draw(st.integers(k1 + 1, min(k1 + 2, T - 1)))
    obj = copy.deepcopy(_FUZZ_BASE)
    obj["schedule"]["T"] = T
    obj["guidance"].update(window=[k1, k2], n_steps=draw(st.integers(1, 64)))
    # Distinct n values: a repeated one is a config error, and the draw would run nothing.
    n_list = draw(st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True))
    obj["sweep"].update(n_list=n_list, windows=[[k1, k2]])
    return obj


# Four draws in six (about 100 of the 150) set one key of the base config;
# the rest draw whole configs, of which a long one costs the most.
_fuzz_cases = st.sampled_from(
    [st.builds(_one_key_case, st.sampled_from(_FUZZ_KEYS), _json_values)] * 4
    + [st.tuples(configs, st.just((0, 2, 3))) for configs in (_tiny_tail_configs, _long_configs())]
).flatmap(lambda cases: cases)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=_fuzz_cases)
@example(case=_one_key_case((None, "base_seed"), -1))
@example(case=_one_key_case(("guidance", "rho"), True))
@example(case=_one_key_case(("loss", "target"), [1e200, 0.0]))
def test_config_fuzz_never_crashes(case):
    obj, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(obj))
        for command in _FUZZ_COMMANDS:
            out = str(Path(tmp) / command)
            code = main([command, "--config", str(path), "--out", out])
            assert code in expected
            if code == 0:
                _strict_json(Path(out) / "report.json")
                _strict_json(Path(out) / "timing.json")
                assert main(["plot", "--out", out]) in (0, 2)
