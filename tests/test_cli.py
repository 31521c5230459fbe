"""End-to-end tests of the command-line interface and its exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import interaction_lab
from interaction_lab import MLP, make_pairwise_task, save_model, write_dataset_csv
from interaction_lab.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A dataset CSV plus one small trained model, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "task.csv"
    write_dataset_csv(data, make_pairwise_task(120, 6, 3, seed=17))
    config = root / "config.json"
    config.write_text(json.dumps({
        "epochs": 2, "batch_size": 32, "learning_rate": 0.1, "seed": 3,
        "hidden_sizes": [8], "snapshot_every": 2,
    }))
    out = root / "run"
    code = main(["train", "--config", str(config), "--data", str(data),
                 "--out-dir", str(out)])
    assert code == 0
    return root


def test_train_outputs(workdir, capsys):
    out = workdir / "run"
    assert (out / "model.json").exists()
    assert (out / "train_log.csv").exists()
    assert (out / "profile_epoch_2.csv").exists()
    model = json.loads((out / "model.json").read_text())
    assert model["meta"]["seed"] == 3
    assert len(model["meta"]["config_sha256"]) == 64
    log_text = (out / "train_log.csv").read_text()
    assert log_text.startswith("# ")
    assert "config_sha256=" in log_text
    assert "epoch,train_loss,train_acc,val_loss,val_acc" in log_text


def test_train_seed_override(workdir, capsys):
    out = workdir / "override"
    code = main(["train", "--config", str(workdir / "config.json"),
                 "--data", str(workdir / "task.csv"),
                 "--seed", "9", "--out-dir", str(out)])
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert model["meta"]["seed"] == 9
    assert model["meta"]["train_seed"] == 9


def test_train_rejects_unknown_config_keys(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"epochs": 1, "batch_size": 8, "learning_rate": 0.1,
                               "seed": 0, "momentum": 0.9}))
    code = main(["train", "--config", str(bad), "--data", str(workdir / "task.csv"),
                 "--out-dir", str(workdir / "nope")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: validation:" in err
    assert "momentum" in err


def test_train_rejects_terms_with_variant(workdir, capsys):
    bad = workdir / "both.json"
    bad.write_text(json.dumps({"epochs": 1, "batch_size": 8, "learning_rate": 0.1,
                               "seed": 0, "variant": "low", "terms": []}))
    code = main(["train", "--config", str(bad), "--data", str(workdir / "task.csv"),
                 "--out-dir", str(workdir / "nope")])
    assert code == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_train_variant_config(workdir, capsys):
    cfg = workdir / "variant.json"
    cfg.write_text(json.dumps({"epochs": 1, "batch_size": 32, "learning_rate": 0.05,
                               "seed": 1, "hidden_sizes": [8], "variant": "low"}))
    out = workdir / "variant_run"
    code = main(["train", "--config", str(cfg), "--data", str(workdir / "task.csv"),
                 "--out-dir", str(out)])
    assert code == 0
    assert (out / "model.json").exists()


def test_train_divergence_exits_3(workdir, capsys):
    cfg = workdir / "diverge.json"
    cfg.write_text(json.dumps({"epochs": 5, "batch_size": 16, "learning_rate": 1e8,
                               "seed": 0, "hidden_sizes": [8]}))
    with np.errstate(all="ignore"):
        code = main(["train", "--config", str(cfg), "--data", str(workdir / "task.csv"),
                     "--out-dir", str(workdir / "nope")])
    assert code == 3
    assert "error: numeric:" in capsys.readouterr().err


def test_analyze_writes_stable_profile(workdir, capsys):
    args = ["analyze", "--model", str(workdir / "run" / "model.json"),
            "--data", str(workdir / "task.csv"), "--samples", "8", "--rows", "4"]
    a, b = workdir / "profile_a.csv", workdir / "profile_b.csv"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert "config_sha256=" in text
    assert "m,strength,normalized" in text
    out = capsys.readouterr().out
    assert "degenerate=False" in out


def test_analyze_missing_model_exits_1(workdir, capsys):
    code = main(["analyze", "--model", str(workdir / "ghost.json"),
                 "--data", str(workdir / "task.csv"), "--out", str(workdir / "x.csv")])
    assert code == 1
    assert "error: validation:" in capsys.readouterr().err


def test_analyze_rejects_mismatched_columns(workdir, capsys):
    other = workdir / "other.csv"
    write_dataset_csv(other, make_pairwise_task(20, 5, 2, seed=1))
    code = main(["analyze", "--model", str(workdir / "run" / "model.json"),
                 "--data", str(other), "--out", str(workdir / "x.csv")])
    assert code == 1
    assert "columns" in capsys.readouterr().err


def test_analyze_malformed_csv_exits_1(workdir, capsys):
    bad = workdir / "mangled.csv"
    bad.write_text("x0,x1,label\n1.0,oops,0\n")
    code = main(["analyze", "--model", str(workdir / "run" / "model.json"),
                 "--data", str(bad), "--out", str(workdir / "x.csv")])
    assert code == 1
    assert "row 1" in capsys.readouterr().err


def test_analyze_degenerate_model_warns(workdir, capsys):
    silent = MLP((6, 2), seed=0)
    for w in silent.weights:
        w[:] = 0.0
    path = workdir / "silent.json"
    save_model(path, silent)
    code = main(["analyze", "--model", str(path), "--data", str(workdir / "task.csv"),
                 "--samples", "8", "--rows", "2", "--out", str(workdir / "degen.csv")])
    captured = capsys.readouterr()
    assert code == 0
    assert "degenerate" in captured.err


def test_theory_curve_and_fit(workdir, capsys):
    curve_out = workdir / "curve.csv"
    fit_out = workdir / "fit.json"
    code = main(["theory", "--n", "6", "--fit", str(workdir / "profile_a.csv"),
                 "--fit-out", str(fit_out), "--out", str(curve_out)])
    assert code == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout.splitlines()[-1])
    assert 3 <= payload["n_prime"] <= 6
    assert payload["mismatch"] >= 0.0
    on_disk = json.loads(fit_out.read_text())
    assert on_disk == payload
    assert curve_out.exists()


def test_theory_orders_flag_validation(workdir, capsys):
    code = main(["analyze", "--model", str(workdir / "run" / "model.json"),
                 "--data", str(workdir / "task.csv"), "--orders", "1,two",
                 "--out", str(workdir / "x.csv")])
    assert code == 1
    assert "--orders" in capsys.readouterr().err


def test_attack_outputs_json(workdir, capsys):
    out = workdir / "attack.json"
    code = main(["attack", "--model", str(workdir / "run" / "model.json"),
                 "--data", str(workdir / "task.csv"), "--eps", "0.3",
                 "--steps", "10", "--step-size", "0.05", "--out", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert 0.0 <= payload["adversarial_accuracy"] <= 100.0
    assert payload["adversarial_accuracy"] <= payload["clean_accuracy"]
    assert payload["rows"] == 120
    assert json.loads(out.read_text()) == payload


def test_attack_zero_steps_equals_clean(workdir, capsys):
    code = main(["attack", "--model", str(workdir / "run" / "model.json"),
                 "--data", str(workdir / "task.csv"), "--eps", "0.3", "--steps", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["adversarial_accuracy"] == payload["clean_accuracy"]


def test_verify_efficiency_suite(capsys):
    code = main(["verify", "--suite", "efficiency"])
    assert code == 0
    assert "status=ok" in capsys.readouterr().out


def test_verify_failure_exits_2(monkeypatch, capsys):
    monkeypatch.setattr("interaction_lab.cli._EFFICIENCY_THRESHOLD", 0.0)
    code = main(["verify", "--suite", "efficiency"])
    assert code == 2
    captured = capsys.readouterr()
    assert "status=FAIL" in captured.out
    assert "error: verification:" in captured.err


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert "error: validation:" in capsys.readouterr().err
    assert main(["verify", "--suite", "bogus"]) == 1
    assert main(["theory", "--n", "6"]) == 1  # --out is required


def _wide_model(root, n):
    """A dataset CSV with n features and an untrained model that reads it."""
    data = root / f"wide{n}.csv"
    write_dataset_csv(data, make_pairwise_task(200, n, 4, seed=1))
    model = root / f"wide{n}.json"
    save_model(model, MLP((n, 8, 2), seed=0))
    return ["--model", str(model), "--data", str(data)]


def test_analyze_handles_64_players(tmp_path, capsys):
    out = tmp_path / "wide.csv"
    code = main(["analyze", *_wide_model(tmp_path, 64), "--pairs", "2", "--orders", "5",
                 "--samples", "4", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert "n=64" in out.read_text()


def _stamp(path):
    header = path.read_text().splitlines()[0]
    return next(field for field in header.split() if field.startswith("config_sha256="))


def test_analyze_stamps_the_budgets_it_used(tmp_path, capsys):
    # up to 16 features the profile enumerates, so --samples changes nothing
    model = _wide_model(tmp_path, 12)
    default, full = tmp_path / "default.csv", tmp_path / "full.csv"
    assert main(["analyze", *model, "--rows", "2", "--out", str(default)]) == 0
    assert main(["analyze", *model, "--rows", "2", "--samples", "252",
                 "--out", str(full)]) == 0
    assert default.read_bytes() == full.read_bytes()
    # above the table guard the budget is used, and the stamp tells them apart
    wide = _wide_model(tmp_path, 17)
    stamps = []
    for samples in ("4", "5"):
        out = tmp_path / f"wide17_{samples}.csv"
        assert main(["analyze", *wide, "--rows", "1", "--pairs", "2", "--orders", "5",
                     "--samples", samples, "--out", str(out)]) == 0
        stamps.append(_stamp(out))
    assert stamps[0] != stamps[1]


def test_analyze_rejects_65_players(tmp_path, capsys):
    code = main(["analyze", *_wide_model(tmp_path, 65), "--pairs", "2", "--orders", "5",
                 "--samples", "4", "--out", str(tmp_path / "wide.csv")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: player count must be in [2, 64], got 65"]


def _train(overrides):
    def argv(workdir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 1, "batch_size": 32, "learning_rate": 0.1,
                                      "seed": 0, "hidden_sizes": [4], **overrides}))
        return ["train", "--config", str(config), "--data", str(workdir / "task.csv"),
                "--out-dir", str(tmp_path / "run")]
    return argv


def _saved(command, *flags):
    def argv(workdir, tmp_path):
        return [command, "--model", str(workdir / "run" / "model.json"),
                "--data", str(workdir / "task.csv"), *flags,
                "--out", str(tmp_path / "missing" / "out")]
    return argv


def _out_dir_is_file(workdir, tmp_path):
    argv = _train({})(workdir, tmp_path)
    (tmp_path / "run").write_text("")
    return argv


def _not_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe not utf-8\n")
    return str(path)


def _huge_layer_sizes(workdir, tmp_path):
    # 10**15 hidden units are far beyond any address space, so a model built
    # before its shapes are checked fails at once instead of filling memory
    model = json.loads((workdir / "run" / "model.json").read_text())
    model["layer_sizes"] = [6, 10**15, 2]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(model))
    return ["analyze", "--model", str(path), "--data", str(workdir / "task.csv"),
            "--out", str(tmp_path / "p.csv")]


def _analyze(*flags):
    def argv(workdir, tmp_path):
        return ["analyze", "--model", str(workdir / "run" / "model.json"),
                "--data", str(workdir / "task.csv"), *flags, "--out", str(tmp_path / "p.csv")]
    return argv


@pytest.mark.parametrize("argv", [
    pytest.param(_train({"epochs": 1.5}), id="fractional-epochs"),
    pytest.param(_train({"hidden_sizes": 5}), id="scalar-hidden-sizes"),
    pytest.param(_train({"terms": [{"kind": "suppress", "r1": "x", "r2": 1.0,
                                    "lambda": 1.0}]}), id="non-numeric-term"),
    pytest.param(_train({"terms": [{"kind": "suppress", "r1": 0.7, "r2": 1.0, "lambda": 1.0,
                                    "pair_samples": 2.5}]}), id="fractional-pair-samples"),
    pytest.param(lambda w, t: ["theory", "--n", "100000", "--out", str(t / "curve.csv")],
                 id="huge-theory-n"),
    pytest.param(_saved("analyze"), id="analyze-out-in-missing-dir"),
    pytest.param(_saved("attack", "--eps", "0.1"), id="attack-out-in-missing-dir"),
    pytest.param(lambda w, t: ["theory", "--n", "6", "--out", str(t / "missing" / "c.csv")],
                 id="theory-out-in-missing-dir"),
    pytest.param(lambda w, t: ["theory", "--n", "12", "--out", str(t / "t.csv"),
                               "--fit-out", str(t / "f.json")], id="fit-out-without-fit"),
    pytest.param(_analyze("--rows", "-1"), id="negative-rows"),
    pytest.param(_analyze("--pairs", "-3"), id="negative-pairs"),
    pytest.param(_analyze("--seed", "-3"), id="analyze-negative-seed"),
    pytest.param(lambda w, t: ["attack", "--model", str(w / "run" / "model.json"),
                               "--data", str(w / "task.csv"), "--eps", "0.1",
                               "--seed", "-3"], id="attack-negative-seed"),
    pytest.param(lambda w, t: ["theory", "--n", "6", "--seed", "-3",
                               "--out", str(t / "curve.csv")], id="theory-negative-seed"),
    pytest.param(_train({"terms": [{"kind": "suppress", "r1": 0.7, "r2": 1.0, "lambda": 1.0,
                                    "seed": 5}]}), id="term-seed"),
    pytest.param(_train({"train_fraction": 0.75}), id="train-fraction"),
    pytest.param(_train({"variant": "extreme"}), id="unknown-variant"),
    pytest.param(lambda w, t: ["analyze", "--model", str(w / "run" / "model.json"),
                               "--data", str(w / "task.csv"), "--rows", "1",
                               "--out", str(t)], id="analyze-out-is-dir"),
    pytest.param(lambda w, t: ["attack", "--model", str(w / "run" / "model.json"),
                               "--data", str(w / "task.csv"), "--eps", "0.1",
                               "--out", str(t)], id="attack-out-is-dir"),
    pytest.param(lambda w, t: ["theory", "--n", "6", "--out", str(t)], id="theory-out-is-dir"),
    pytest.param(lambda w, t: ["theory", "--n", "6", "--out", str(t / "c.csv"),
                               "--fit", str(w / "run" / "profile_epoch_2.csv"),
                               "--fit-out", str(t)], id="fit-out-is-dir"),
    pytest.param(_out_dir_is_file, id="train-out-dir-is-file"),
    pytest.param(lambda w, t: ["analyze", "--model", _not_utf8(t, "m.json"),
                               "--data", str(w / "task.csv"), "--out", str(t / "p.csv")],
                 id="model-not-utf8"),
    pytest.param(lambda w, t: ["train", "--config", _not_utf8(t, "c.json"),
                               "--data", str(w / "task.csv"), "--out-dir", str(t / "run")],
                 id="config-not-utf8"),
    pytest.param(lambda w, t: ["analyze", "--model", str(w / "run" / "model.json"),
                               "--data", _not_utf8(t, "d.csv"), "--out", str(t / "p.csv")],
                 id="dataset-not-utf8"),
    pytest.param(lambda w, t: ["theory", "--n", "6", "--out", str(t / "c.csv"),
                               "--fit", _not_utf8(t, "f.csv")], id="fit-profile-not-utf8"),
    pytest.param(_huge_layer_sizes, id="huge-layer-sizes"),
])
def test_malformed_input_is_one_error_line(argv, workdir, tmp_path, capsys):
    code = main(argv(workdir, tmp_path))
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: validation: ")


def test_train_reads_and_writes_utf8_under_an_ascii_locale(tmp_path):
    rows = ["größe,x1,label"] + [f"{k % 7 - 3},{k % 5 - 2},{k % 2}" for k in range(40)]
    data = tmp_path / "umlaut.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 1, "batch_size": 8, "learning_rate": 0.1,
                                  "seed": 0, "hidden_sizes": [4]}))
    src = Path(interaction_lab.__file__).resolve().parents[1]
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "interaction_lab.cli", "train", "--config", str(config),
         "--data", str(data), "--out-dir", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    model = json.loads((tmp_path / "run" / "model.json").read_text(encoding="utf-8"))
    assert model["meta"]["feature_names"] == ["größe", "x1"]


def test_commands_run_on_one_blas_thread_and_restore_the_count(tmp_path, monkeypatch):
    from interaction_lab import cli
    from interaction_lab.cli import _openblas

    blas = _openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS is not available")
    get, put = blas
    seen = []
    real_curve = cli.theory_curve

    def recording_curve(n):
        seen.append(get())
        return real_curve(n)

    monkeypatch.setattr(cli, "theory_curve", recording_curve)
    previous = get()
    put(2)
    try:
        assert main(["theory", "--n", "6", "--out", str(tmp_path / "curve.csv")]) == 0
        assert main(["theory", "--n", "100000", "--out", str(tmp_path / "curve.csv")]) == 1
        assert seen == [1, 1] and get() == 2
    finally:
        put(previous)
