"""Tests for the SGD trainer, its variants, and the run logs."""
import numpy as np
import pytest

from interaction_lab import (
    DomainError,
    ModulationSpec,
    NumericError,
    SchemaError,
    TabularDataset,
    TrainConfig,
    ValidationError,
    VARIANT_TERMS,
    bundled_dataset,
    make_pairwise_task,
    train,
    write_snapshots,
    write_train_log,
)
from interaction_lab.textio import read_csv
from interaction_lab.training import TRAIN_LOG_HEADER, EpochStats


def _small_task():
    return make_pairwise_task(160, 6, 3, seed=8)


def test_train_config_validation():
    ok = TrainConfig(epochs=2, batch_size=8, learning_rate=0.1, seed=0)
    assert ok.hidden_sizes == (48, 48)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0, batch_size=8, learning_rate=0.1, seed=0)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=1, batch_size=0, learning_rate=0.1, seed=0)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=1, batch_size=8, learning_rate=0.0, seed=0)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=1, batch_size=8, learning_rate=0.1, seed=-1)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=1, batch_size=8, learning_rate=0.1, seed=0,
                    hidden_sizes=(0,))
    with pytest.raises(ValidationError):
        TrainConfig(epochs=1, batch_size=8, learning_rate=0.1, seed=0,
                    snapshot_every=-1)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=1, batch_size=8, learning_rate=0.1, seed=0,
                    terms=("suppress",))


@pytest.mark.parametrize("field, value", [
    ("epochs", True), ("batch_size", 8.0), ("seed", "0"), ("learning_rate", float("inf")),
    ("learning_rate", 10**400), ("val_fraction", float("nan")), ("hidden_sizes", [4, False])])
def test_train_config_fields_are_typed(field, value):
    fields = {"epochs": 1, "batch_size": 8, "learning_rate": 0.1, "seed": 0, field: value}
    with pytest.raises(SchemaError, match=f"^{field} must be "):
        TrainConfig(**fields)


def test_train_config_takes_an_integer_rate_as_given():
    # a rate beyond int64 is still a number; the run stamp records it unchanged
    assert TrainConfig(epochs=1, batch_size=8, learning_rate=10**20, seed=0).learning_rate == 10**20


def test_variant_recipes():
    assert set(VARIANT_TERMS) == {"normal", "low", "mid", "high"}
    assert VARIANT_TERMS["normal"] == ()
    low = VARIANT_TERMS["low"]
    assert low[0].kind == "suppress"
    assert (low[0].r1, low[0].r2) == (0.7, 1.0)
    mid = VARIANT_TERMS["mid"]
    assert mid[0].kind == "encourage"
    high = VARIANT_TERMS["high"]
    assert (high[0].r1, high[0].r2) == (0.0, 0.5)


def test_train_learns_and_logs():
    cfg = TrainConfig(epochs=12, batch_size=16, learning_rate=0.1, seed=2,
                      hidden_sizes=(16,))
    model, log = train(cfg, _small_task())
    assert len(log.epochs) == 12
    assert [s.epoch for s in log.epochs] == list(range(1, 13))
    assert log.epochs[-1].train_loss < log.epochs[0].train_loss
    assert log.epochs[-1].train_acc > 0.7
    assert model.layer_sizes == (6, 16, 2)
    meta = model.meta
    assert len(meta["feature_mean"]) == 6
    assert len(meta["feature_std"]) == 6
    assert meta["label_values"] == ["0", "1"]
    assert meta["train_seed"] == 2


def test_train_is_deterministic():
    cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.1, seed=5,
                      hidden_sizes=(8,))
    ds = _small_task()
    m1, log1 = train(cfg, ds)
    m2, log2 = train(cfg, ds)
    assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))
    assert all(np.array_equal(a, b) for a, b in zip(m1.biases, m2.biases))
    assert log1.epochs == log2.epochs
    m3, _ = train(TrainConfig(epochs=3, batch_size=16, learning_rate=0.1, seed=6,
                              hidden_sizes=(8,)), ds)
    assert not all(np.array_equal(a, b) for a, b in zip(m1.weights, m3.weights))


def test_train_with_modulation_terms_runs():
    cfg = TrainConfig(epochs=2, batch_size=32, learning_rate=0.05, seed=3,
                      hidden_sizes=(8,),
                      terms=(ModulationSpec("suppress", 0.7, 1.0, 0.5, pair_samples=2),))
    model, log = train(cfg, _small_task())
    assert len(log.epochs) == 2
    assert np.all(np.isfinite(model.weights[0]))


def test_train_divergence_raises():
    cfg = TrainConfig(epochs=5, batch_size=16, learning_rate=1e8, seed=0,
                      hidden_sizes=(8,))
    with pytest.raises(NumericError), np.errstate(all="ignore"):
        train(cfg, _small_task())


def test_train_rejects_degenerate_datasets():
    cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1, seed=0)
    one_class = TabularDataset(np.random.default_rng(0).normal(size=(10, 3)),
                               np.zeros(10, dtype=int), ("a", "b", "c"), "y", ("0",))
    with pytest.raises(DomainError):
        train(cfg, one_class)
    one_feature = TabularDataset(np.random.default_rng(0).normal(size=(10, 1)),
                                 np.arange(10) % 2, ("a",), "y", ("0", "1"))
    with pytest.raises(DomainError):
        train(cfg, one_feature)


def test_snapshots_cover_requested_epochs():
    cfg = TrainConfig(epochs=4, batch_size=32, learning_rate=0.1, seed=4,
                      hidden_sizes=(8,), snapshot_every=2)
    _, log = train(cfg, _small_task())
    assert sorted(log.snapshots) == [2, 4]
    profile = log.snapshots[4]
    assert profile.n == 6
    assert profile.order_grid[0] == 0
    # full budgets make the probe exact
    assert profile.pair_budget == 15
    cfg_off = TrainConfig(epochs=4, batch_size=32, learning_rate=0.1, seed=4,
                          hidden_sizes=(8,))
    _, log_off = train(cfg_off, _small_task())
    assert log_off.snapshots == {}


def test_snapshots_are_exact_up_to_the_table_limit():
    cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=0.1, seed=4,
                      hidden_sizes=(8,), snapshot_every=1)
    _, log = train(cfg, make_pairwise_task(48, 17, 4, seed=2))
    profile = log.snapshots[1]
    assert profile.order_grid == tuple(range(16))
    assert (profile.pair_budget, profile.subset_budget) == (136, 6435)


def test_train_rejects_a_band_whose_s1_rounds_to_zero():
    # band_sizes(6, 0.05, 0.5) is (0, 3): only r1 = 0 may take the s1 = 0 convention
    cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=0.1, seed=0, hidden_sizes=(8,),
                      terms=(ModulationSpec("suppress", 0.05, 0.5, 1.0),))
    with pytest.raises(ValidationError, match=r"\[0\.05, 0\.5\].*n=6"):
        train(cfg, _small_task())
    high = TrainConfig(epochs=1, batch_size=32, learning_rate=0.1, seed=0, hidden_sizes=(8,),
                       terms=VARIANT_TERMS["high"])
    _, log = train(high, _small_task())
    assert len(log.epochs) == 1


def test_final_epoch_always_snapshotted():
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=4,
                      hidden_sizes=(8,), snapshot_every=3)
    _, log = train(cfg, _small_task())
    assert sorted(log.snapshots) == [3, 5]


def test_train_log_round_trip(tmp_path):
    cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.1, seed=1,
                      hidden_sizes=(8,))
    _, log = train(cfg, _small_task())
    path = tmp_path / "train_log.csv"
    write_train_log(path, log, meta={"seed": "1"})
    rows, meta = read_csv(path, TRAIN_LOG_HEADER)
    loaded = tuple(EpochStats(int(r[0]), *map(float, r[1:])) for r in rows)
    assert loaded == log.epochs
    assert meta["seed"] == "1"
    first = path.read_bytes()
    write_train_log(path, log, meta={"seed": "1"})
    assert path.read_bytes() == first


def test_write_snapshots_names_files_by_epoch(tmp_path):
    cfg = TrainConfig(epochs=2, batch_size=32, learning_rate=0.1, seed=4,
                      hidden_sizes=(8,), snapshot_every=1)
    _, log = train(cfg, _small_task())
    names = write_snapshots(tmp_path, log, meta={"run": "t"})
    assert names == ["profile_epoch_1.csv", "profile_epoch_2.csv"]
    for name in names:
        assert (tmp_path / name).exists()


def test_validation_probe_uses_held_out_rows():
    """Standardization comes from the training split only."""
    ds = bundled_dataset("pairs")
    cfg = TrainConfig(epochs=1, batch_size=64, learning_rate=0.05, seed=11)
    model, _ = train(cfg, ds)
    mean = np.array(model.meta["feature_mean"])
    # the training mean differs from the full-dataset mean on a finite sample
    assert not np.allclose(mean, ds.features.mean(axis=0), atol=1e-12)
