import json
from pathlib import Path

import pytest

from conftest import TASK_BETAS, TASK_MEANS, TASK_RHO, TASK_T, TASK_TARGET, TASK_WINDOW
from symguide.cli import main


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


def test_sample_writes_resolved_config(config_path, tmp_path):
    out = tmp_path / "run"
    assert main(["sample", "--config", str(config_path), "--seed", "3", "--out", str(out)]) == 0
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["base_seed"] == 3
    assert resolved["out_dir"] == str(out)
    assert (out / "timing.json").exists()


def test_missing_config_exits_2(tmp_path):
    assert main(["sample", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2


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


def test_plot_missing_report_exits_2(tmp_path):
    assert main(["plot", "--out", str(tmp_path / "empty")]) == 2


def test_compare_adjoint_end_to_end(config_path, tmp_path):
    obj = json.loads(config_path.read_text())
    obj["sweep"] = {"n_list": [1, 2], "d_list": [2]}
    cfg = tmp_path / "cmp.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "cmp_out"
    assert main(["compare-adjoint", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["plot", "--out", str(out)]) == 0
    assert (out / "adjoint_comparison.svg").exists()


def test_resolved_config_with_parallel_key_still_loads(config_path, tmp_path):
    # Resolved configs written before the sweep thread pool was removed carry "parallel": 1.
    old = json.loads(config_path.read_text())
    old["parallel"] = 1
    old_path = tmp_path / "config.resolved.json"
    old_path.write_text(json.dumps(old, sort_keys=True, indent=2) + "\n")
    out = tmp_path / "rerun"
    assert main(["sample", "--config", str(old_path), "--seed", "7", "--out", str(out)]) == 0
    assert "parallel" not in json.loads((out / "config.resolved.json").read_text())
