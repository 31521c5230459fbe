"""End-to-end tests of the command-line interface and its exit codes."""
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interaction_lab
from interaction_lab import MLP, make_pairwise_task, save_model, write_dataset_csv
from interaction_lab import cli, interactions
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


def test_verify_gradsim_checks_absolute_norms(monkeypatch, capsys):
    # the ratios to order 0 still match; only the absolute norms are off
    predicted = cli.predicted_update_norm
    monkeypatch.setattr(cli, "predicted_update_norm", lambda *a: 2.0 * predicted(*a))
    code = main(["verify", "--suite", "gradsim"])
    assert code == 2
    captured = capsys.readouterr()
    assert "status=FAIL" in captured.out and "max_norm_deviation=" in captured.out
    assert "error: verification:" in captured.err


def _verify_stdout(suite, seed, capsys):
    assert main(["verify", "--suite", suite, "--seed", str(seed)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("suite", ["efficiency", "theorem2"])
def test_verify_prints_the_same_bytes_on_both_reduction_paths(suite, seed, monkeypatch, capsys):
    interactions._pair_corners.cache_clear()
    gathered = _verify_stdout(suite, seed, capsys)
    assert interactions._pair_corners.cache_info().currsize > 0
    with monkeypatch.context() as patch:
        # no table is small enough to gather: every pair goes through the loop
        patch.setattr(interactions, "_GATHER_CONTEXTS", 0)
        looped = _verify_stdout(suite, seed, capsys)
    hits = interactions._pair_corners.cache_info().hits
    again = _verify_stdout(suite, seed, capsys)
    assert interactions._pair_corners.cache_info().hits > hits
    assert gathered == looped == again


_ARBITRARY = st.text(max_size=12)
_SEEDS = st.one_of(st.integers(-5, 2**70).map(str), _ARBITRARY)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.tuples(st.just("verify"),
              st.one_of(st.sampled_from(["efficiency", "theorem2"]), _ARBITRARY), _SEEDS),
    st.tuples(st.just("theory"), st.one_of(st.integers(-5, 2000).map(str), _ARBITRARY),
              _SEEDS)))
def test_verify_and_theory_keep_the_exit_code_contract(flags):
    command, value, seed = flags
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as root:
        if command == "verify":
            argv = ["verify", "--suite", value, "--seed", seed]
        else:
            argv = ["theory", "--n", value, "--seed", seed, "--out", str(Path(root) / "c.csv")]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    assert sum(line.startswith("error: ") for line in lines) <= 1
    assert "Traceback" not in err.getvalue()


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
    # default budgets at 12 features would sample more masks than the 2^12 of a
    # value table, so the profile enumerates and --samples changes nothing
    model = _wide_model(tmp_path, 12)
    default, full = tmp_path / "default.csv", tmp_path / "full.csv"
    assert main(["analyze", *model, "--rows", "2", "--out", str(default)]) == 0
    assert main(["analyze", *model, "--rows", "2", "--samples", "252",
                 "--out", str(full)]) == 0
    assert default.read_bytes() == full.read_bytes()
    # 2 pairs and 4 contexts sample fewer masks than a table, so the budget is
    # used, and the stamp tells them apart
    wide = _wide_model(tmp_path, 17)
    stamps = []
    for samples in ("4", "5"):
        out = tmp_path / f"wide17_{samples}.csv"
        assert main(["analyze", *wide, "--rows", "1", "--pairs", "2", "--orders", "5",
                     "--samples", samples, "--out", str(out)]) == 0
        stamps.append(_stamp(out))
    assert stamps[0] != stamps[1]


def test_train_rejects_a_band_whose_s1_rounds_to_zero(workdir, tmp_path, capsys):
    argv = _train({"terms": [{"kind": "suppress", "r1": 0.05, "r2": 0.5, "lambda": 1}]})
    code = main(argv(workdir, tmp_path))
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: validation: ")
    assert "n=6" in lines[0]
    assert not (tmp_path / "run" / "model.json").exists()


def test_train_warns_when_snapshots_exceed_the_table_limit(tmp_path, capsys):
    data = tmp_path / "wide21.csv"
    write_dataset_csv(data, make_pairwise_task(40, 21, 3, seed=1))
    argv = _train({"snapshot_every": 1})(tmp_path, tmp_path)
    argv[argv.index("--data") + 1] = str(data)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: snapshots need n <= 20, got n=21; none were taken"]
    assert "and 0 snapshot(s);" in captured.out
    assert not list((tmp_path / "run").glob("profile_epoch_*.csv"))


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


def _out_dir_under_file(workdir, tmp_path):
    argv = _train({})(workdir, tmp_path)
    (tmp_path / "file").write_text("")
    return argv[:-1] + [str(tmp_path / "file" / "run")]


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


def _far_order_profile(tmp_path):
    """A profile of n=6 whose last row has order 40, far outside [0, 4]."""
    path = tmp_path / "far.csv"
    path.write_text("# n=6 pair_budget=15 subset_budget=6 seed=0\n"
                    "m,strength,normalized\n0,1.0,0.5\n40,3.0,1.5\n", encoding="utf-8")
    return str(path)


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
    pytest.param(_out_dir_under_file, id="train-out-dir-under-file"),
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
    pytest.param(lambda w, t: ["theory", "--n", "6", "--out", str(t / "c.csv"),
                               "--fit", _far_order_profile(t)],
                 id="fit-profile-order-out-of-range"),
])
def test_malformed_input_is_one_error_line(argv, workdir, tmp_path, capsys, monkeypatch):
    args = argv(workdir, tmp_path)
    # every case fails before any training, profile, attack or fit runs
    for name in ("train", "order_profile", "adversarial_accuracy", "fit_effective_n"):
        monkeypatch.setattr(cli, name, _must_not_run(name))
    code = main(args)
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: validation: ")


@pytest.mark.parametrize("overrides", [
    pytest.param({"hidden_sizes": [10**15]}, id="huge-hidden-size"),
    pytest.param({"terms": [{"kind": "suppress", "r1": 0.7, "r2": 1.0, "lambda": 1.0,
                             "pair_samples": 10**12}]}, id="huge-pair-samples"),
])
def test_unallocatable_size_is_one_error_line(overrides, workdir, tmp_path, capsys):
    # training starts, and numpy refuses the model's or the first step's
    # arrays at once, so these cannot fail before cli.train runs
    code = main(_train(overrides)(workdir, tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: validation: Unable to allocate")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    pytest.param(_train({"hidden_sizes": [10**30]}), id="hidden-size-beyond-index-range"),
    pytest.param(_train({"terms": [{"kind": "suppress", "r1": 0.7, "r2": 1.0, "lambda": 1.0,
                                    "pair_samples": 10**30}]}),
                 id="pair-samples-beyond-index-range"),
    pytest.param(lambda w, t: ["analyze", *_wide_model(t, 21), "--rows", "1",
                               "--samples", str(10**30), "--out", str(t / "p.csv")],
                 id="analyze-samples-beyond-index-range"),
])
def test_size_beyond_numpy_index_range_is_one_error_line(argv, workdir, tmp_path, capsys):
    # numpy cannot even index arrays this large, so the size is refused where it enters
    code = main(argv(workdir, tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: validation: ")
    assert "Traceback" not in err


def test_failing_fit_writes_no_curve(workdir, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["theory", "--n", "6", "--out", str(out),
                 "--fit", _far_order_profile(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: validation: ")
    assert not out.exists()


def _must_not_run(name):
    def fail(*args, **kwargs):
        pytest.fail(f"{name} ran before the bad input was rejected")
    return fail


@pytest.mark.parametrize("reader", ["model", "config", "dataset", "fit"])
def test_non_utf8_input_names_its_file(reader, workdir, tmp_path, capsys):
    bad = _not_utf8(tmp_path, f"bad-{reader}")
    model, data = str(workdir / "run" / "model.json"), str(workdir / "task.csv")
    argv = {
        "model": ["analyze", "--model", bad, "--data", data, "--out", str(tmp_path / "p.csv")],
        "config": ["train", "--config", bad, "--data", data,
                   "--out-dir", str(tmp_path / "run")],
        "dataset": ["analyze", "--model", model, "--data", bad,
                    "--out", str(tmp_path / "p.csv")],
        "fit": ["theory", "--n", "6", "--out", str(tmp_path / "c.csv"), "--fit", bad],
    }[reader]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: validation: cannot decode {bad} as UTF-8")


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


def test_freed_blocks_stay_in_the_heap_after_a_command(tmp_path):
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the heap thresholds are glibc's")
    # three 300 KB temporaries at a time, like a forward pass over 768 rows:
    # with glibc's adaptive thresholds each round maps, faults and trims them
    # again (about 9000 minor faults for 50 rounds)
    script = """
import resource, sys
import numpy as np
from interaction_lab.cli import main
assert main(["theory", "--n", "6", "--out", sys.argv[1]]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    temporaries = [np.ones(300_000 // 8) for _ in range(3)]
    del temporaries
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = Path(interaction_lab.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "curve.csv")],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) < 500


def test_commands_run_without_mallopt(tmp_path, monkeypatch):
    def no_library(*args, **kwargs):
        raise OSError("no C library here")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
    cli.keep_freed_memory.cache_clear()
    try:
        assert main(["theory", "--n", "6", "--out", str(tmp_path / "curve.csv")]) == 0
    finally:
        cli.keep_freed_memory.cache_clear()
