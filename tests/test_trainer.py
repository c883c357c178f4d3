import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import assert_views_follow_layout, stack_texts, unit_rows
from odpc.errors import ConfigError, DivergenceError, InvalidArgumentError
import odpc.trainer
from odpc.head import init_head
from odpc.losses import LossConfig
from odpc.trainer import (
    SGD_BLOCK_ELEMS,
    TrainingConfig,
    lr_at,
    sgd_step,
    train,
    write_loss_history,
)


def test_lr_schedule_values():
    cfg = TrainingConfig()
    assert lr_at(0, cfg) == pytest.approx(1e-5)
    assert lr_at(29, cfg) == pytest.approx(1e-5)
    assert lr_at(30, cfg) == pytest.approx(2.5e-6)
    assert lr_at(159, cfg) == pytest.approx(1e-5 * 0.25**5)
    with pytest.raises(InvalidArgumentError):
        lr_at(-1, cfg)


def _scalar_arrays(fill):
    """Parameters, gradient, velocity and float64 mirror of 4 elements; the
    first parameter is 1."""
    params = np.zeros(4, dtype=np.float32)
    params[0] = 1.0
    return params, np.full(4, fill), np.zeros(4), params.astype(np.float64)


def test_sgd_plain_step():
    params, grad, velocity, mirror = _scalar_arrays(0.5)
    assert sgd_step(params, grad, velocity, lr=0.1, momentum=0.0, mirror=mirror) is None
    assert params[0] == pytest.approx(0.95, rel=1e-6)
    assert np.array_equal(mirror, params.astype(np.float64))


def test_sgd_momentum_two_steps():
    params, grad, velocity, mirror = _scalar_arrays(1.0)
    sgd_step(params, grad, velocity, lr=0.1, momentum=0.9, mirror=mirror)
    assert params[0] == pytest.approx(0.9, rel=1e-6)
    sgd_step(params, grad, velocity, lr=0.1, momentum=0.9, mirror=mirror)
    # v = 0.9*1 + 1 = 1.9 -> theta = 0.9 - 0.19
    assert params[0] == pytest.approx(0.71, rel=1e-6)
    assert np.array_equal(mirror, params.astype(np.float64))


def test_sgd_zero_lr_updates_buffers_only():
    params, grad, velocity, mirror = _scalar_arrays(1.0)
    before = params.copy()
    sgd_step(params, grad, velocity, lr=0.0, momentum=0.5, mirror=mirror)
    assert np.array_equal(params, before)
    assert np.array_equal(velocity, grad)
    assert np.array_equal(mirror, before.astype(np.float64))


@pytest.mark.parametrize("delta", [-1, 0, 1], ids=["block-1", "block", "block+1"])
def test_sgd_blocked_update_bit_equal_to_whole_array(delta):
    rng = np.random.default_rng(40 + delta)
    size = SGD_BLOCK_ELEMS + delta
    params = rng.standard_normal(size).astype(np.float32)
    velocity = np.zeros(size)
    # A stale mirror: every element must be rewritten by the update.
    mirror = np.full(size, np.nan)
    expected, expected_velocity = params.copy(), np.zeros(size)
    lr, momentum = 1e-3, 0.9
    for _ in range(2):
        grad = rng.standard_normal(size)
        expected_velocity *= momentum
        expected_velocity += grad
        expected = (expected.astype(np.float64) - lr * expected_velocity).astype(np.float32)
        sgd_step(params, grad, velocity, lr, momentum, mirror)
    assert params.dtype == np.float32
    assert np.array_equal(params, expected)
    assert np.array_equal(velocity, expected_velocity)
    assert mirror.tobytes() == expected.astype(np.float64).tobytes()


def _toy_training_setup(seed=0, n_per_class=20, n_classes=3, dim=16):
    rng = np.random.default_rng(seed)
    centers = unit_rows(rng, n_classes, dim)
    rows, labels = [], []
    for c in range(n_classes):
        pts = centers[c] + 0.3 * rng.standard_normal((n_per_class, dim))
        rows.append(pts / np.linalg.norm(pts, axis=1, keepdims=True))
        labels += [c] * n_per_class
    features = np.vstack(rows)
    labels = np.array(labels)
    class_text = unit_rows(rng, n_classes, dim)
    return (features, labels,
            *stack_texts(class_text, {c: unit_rows(rng, 2, dim) for c in range(n_classes)}))


def test_train_deterministic_given_seed():
    features, labels, texts, bounds = _toy_training_setup()
    cfg = TrainingConfig(epochs=3, batch_size=8, lr=1e-4, seed=5,
                         loss=LossConfig(temperature=0.05))
    runs = []
    for _ in range(2):
        head = init_head(3, 6, seed=1, feature_dim=16)
        state = train(features, labels, texts, bounds, head, cfg)
        runs.append(state)
    for a, b in zip(runs[0].history, runs[1].history):
        assert a.total == b.total and a.ce == b.ce and a.pcc_layers == b.pcc_layers
    assert np.array_equal(runs[0].head.params, runs[1].head.params)
    for state in runs:
        assert_views_follow_layout(state.head)


def test_train_float32_features_bit_equal_to_float64_cast():
    """Image features and descriptions in float32 train the same head as
    their float64 casts: ``train`` makes every cast the step functions need,
    and float32 -> float64 is exact."""
    features, labels, texts, bounds = _toy_training_setup()
    f32 = (features.astype(np.float32), texts.astype(np.float32))
    f64 = (f32[0].astype(np.float64), f32[1].astype(np.float64))
    # A mix weight of 0.3, not a power of two, rounds differently in float32.
    cfg = TrainingConfig(epochs=3, batch_size=8, lr=1e-4, seed=5,
                         loss=LossConfig(temperature=0.05, mix_lambda=0.3))
    runs = [train(x, labels, t, bounds, init_head(3, 6, seed=1, feature_dim=16), cfg)
            for x, t in (f32, f64)]
    assert runs[0].history == runs[1].history
    assert runs[0].head.params.tobytes() == runs[1].head.params.tobytes()


def test_train_rows_in_place_bit_equal_to_the_gathered_rows():
    """``rows`` that are shuffled and non-contiguous train the head that the
    gathered rows train, with the same history."""
    features, labels, texts, bounds = _toy_training_setup()
    rng = np.random.default_rng(9)
    matrix = rng.standard_normal((3 * len(features), features.shape[1])).astype(np.float32)
    rows = rng.permutation(len(matrix))[: len(features)]
    matrix[rows] = features
    cfg = TrainingConfig(epochs=3, batch_size=8, lr=1e-4, seed=5,
                         loss=LossConfig(temperature=0.05))
    gathered = train(matrix[rows], labels, texts, bounds,
                     init_head(3, 6, seed=1, feature_dim=16), cfg)
    in_place = train(matrix, labels, texts, bounds,
                     init_head(3, 6, seed=1, feature_dim=16), cfg, rows=rows)
    assert in_place.history == gathered.history
    assert in_place.head.params.tobytes() == gathered.head.params.tobytes()


def test_train_zero_epochs_leaves_head_unchanged():
    features, labels, texts, bounds = _toy_training_setup()
    head = init_head(3, 6, seed=1, feature_dim=16)
    before = head.params.copy()
    state = train(features, labels, texts, bounds, head,
                  TrainingConfig(epochs=0, batch_size=8))
    assert [f.name for f in fields(state)] == ["head", "history"]
    assert state.history == []
    assert np.array_equal(state.head.params, before)


def test_train_zero_epochs_allocates_no_training_buffers():
    """With ``epochs=0`` no step runs, so neither the velocity nor the
    workspace's float64 mirror and gradient is allocated: the peak stays
    below one float64 copy of the parameters."""
    features, labels, texts, bounds = _toy_training_setup(dim=512)
    head = init_head(3, 6, seed=1, feature_dim=512)
    tracemalloc.start()
    try:
        train(features, labels, texts, bounds, head, TrainingConfig(epochs=0, batch_size=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < head.params.size * 8


def test_train_loss_decreases_on_toy_data():
    features, labels, texts, bounds = _toy_training_setup()
    head = init_head(3, 6, seed=1, feature_dim=16)
    cfg = TrainingConfig(epochs=8, batch_size=8, lr=1e-4, seed=2,
                         loss=LossConfig(temperature=0.05))
    state = train(features, labels, texts, bounds, head, cfg)
    assert state.history[-1].total < state.history[0].total
    assert all(np.isfinite(st.total) for st in state.history)


def test_train_inputs_stay_frozen():
    features, labels, texts, bounds = _toy_training_setup()
    snap = features.copy()
    head = init_head(3, 6, seed=1, feature_dim=16)
    train(features, labels, texts, bounds, head,
          TrainingConfig(epochs=1, batch_size=8))
    assert np.array_equal(features, snap)


def test_train_skips_single_class_batches(caplog):
    rng = np.random.default_rng(0)
    # 8 samples of class 0 then 8 of class 1 with batch_size 8 and a shuffle
    # seed chosen freely; skipped batches must be logged, not fatal
    features = unit_rows(rng, 16, 8)
    labels = np.array([0] * 8 + [1] * 8)
    texts, bounds = stack_texts(unit_rows(rng, 2, 8), {0: unit_rows(rng, 1, 8), 1: unit_rows(rng, 1, 8)})
    head = init_head(2, 2, seed=0, feature_dim=8)
    cfg = TrainingConfig(epochs=6, batch_size=8, lr=1e-4, seed=0,
                         loss=LossConfig(temperature=0.05))
    with caplog.at_level("WARNING"):
        state = train(features, labels, texts, bounds, head, cfg)
    total_skipped = sum(st.skipped for st in state.history)
    if total_skipped:
        assert any("single-class batch" in rec.message for rec in caplog.records)
    assert len(state.history) == 6


def test_train_logs_one_skip_warning_per_epoch(caplog):
    rng = np.random.default_rng(1)
    # one class-1 row among 16: at least three of the four batches of 4 hold
    # class 0 alone in every epoch
    features = unit_rows(rng, 16, 8)
    labels = np.array([0] * 15 + [1])
    peers = {0: unit_rows(rng, 1, 8), 1: unit_rows(rng, 1, 8)}
    cfg = TrainingConfig(epochs=3, batch_size=4, lr=1e-4, seed=0,
                         loss=LossConfig(temperature=0.05))
    with caplog.at_level("WARNING", logger="odpc.trainer"):
        state = train(features, labels, *stack_texts(unit_rows(rng, 2, 8), peers),
                      init_head(2, 2, seed=0, feature_dim=8), cfg)
    warnings = [rec.getMessage() for rec in caplog.records if "single-class batch" in rec.getMessage()]
    assert len(warnings) == 3
    for st, message in zip(state.history, warnings):
        assert st.skipped >= 3
        assert f"epoch {st.epoch}: skipped {st.skipped} " in message


def test_epoch_with_every_batch_skipped_records_nan(tmp_path):
    rng = np.random.default_rng(2)
    # one class-1 row among 5, batches of 2: at shuffle seed 1, epoch 0 leaves
    # that row in the dropped tail, so both of its batches hold class 0 alone
    features = unit_rows(rng, 5, 8)
    labels = np.array([0, 0, 0, 0, 1])
    peers = {0: unit_rows(rng, 1, 8), 1: unit_rows(rng, 1, 8)}
    cfg = TrainingConfig(epochs=2, batch_size=2, lr=1e-4, seed=1,
                         loss=LossConfig(temperature=0.05))
    state = train(features, labels, *stack_texts(unit_rows(rng, 2, 8), peers),
                  init_head(2, 2, seed=0, feature_dim=8), cfg)
    empty, trained = state.history
    assert empty.skipped == len(labels) // cfg.batch_size and empty.batches == 0
    assert trained.batches > 0
    assert len(empty.pcc_layers) == len(trained.pcc_layers) == 3
    for st in (empty, trained):
        # plain floats, so repr (and the loss history) reads the same
        assert all(type(v) is float for v in (st.total, *st.pcc_layers, st.ce))
    assert all(np.isnan(v) for v in (empty.total, *empty.pcc_layers, empty.ce))
    assert all(np.isfinite(v) for v in (trained.total, *trained.pcc_layers, trained.ce))
    path = tmp_path / "loss_history.csv"
    write_loss_history(state.history, path)
    rows = path.read_text().splitlines()
    assert rows[1] == f"0,{cfg.lr!r},nan,nan,nan,nan,nan"
    assert "nan" not in rows[2]


def test_train_stops_at_the_first_non_finite_loss(monkeypatch):
    # A step that reports a nan loss stops the run before any update.
    features, labels, texts, bounds = _toy_training_setup()
    loss_and_grad = odpc.trainer.loss_and_grad

    def nan_loss(*args):
        breakdown, grads = loss_and_grad(*args)
        return replace(breakdown, total=float("nan")), grads

    monkeypatch.setattr(odpc.trainer, "loss_and_grad", nan_loss)
    head = init_head(3, 6, seed=1, feature_dim=16)
    before = head.params.copy()
    cfg = TrainingConfig(epochs=3, batch_size=8, lr=1e-3, momentum=0.0, seed=5,
                         loss=LossConfig(temperature=0.05))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        train(features, labels, texts, bounds, head, cfg)
    message = str(err.value)
    assert re.match(r"epoch 0, batch \d+: the loss is (nan|-?inf) at lr 0\.001", message), message
    assert head.params.tobytes() == before.tobytes()


def test_a_diverging_update_names_its_own_batch(monkeypatch):
    """The batch DivergenceError names is the first whose update leaves a
    parameter non-finite, as a replay with the overflow ignored shows."""
    features, labels, texts, bounds = _toy_training_setup()
    cfg = TrainingConfig(epochs=3, batch_size=8, lr=1e6, momentum=0.0, seed=5,
                         loss=LossConfig(temperature=0.05))

    def run():
        train(features, labels, texts, bounds, init_head(3, 6, seed=1, feature_dim=16), cfg)

    with pytest.raises(DivergenceError, match=r"^epoch \d+, batch \d+: the update at lr 1000000\.0 "
                                              r"overflows the float32 parameters; lower the lr$") as err:
        run()
    named = tuple(map(int, re.match(r"epoch (\d+), batch (\d+)", str(err.value)).groups()))

    # Each drawn batch's (epoch, batch), and after each update whether the
    # parameters are all finite.
    drawn, finite = [], []
    batch_rng, step = odpc.trainer._batch_rng, odpc.trainer.sgd_step

    def recording_batch_rng(seed, epoch, b):
        drawn.append((epoch, b))
        return batch_rng(seed, epoch, b)

    def ignoring_step(params, *rest):
        with np.errstate(all="ignore"):
            step(params, *rest)
        finite.append(bool(np.isfinite(params).all()))

    monkeypatch.setattr(odpc.trainer, "_batch_rng", recording_batch_rng)
    monkeypatch.setattr(odpc.trainer, "sgd_step", ignoring_step)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="the loss is"):
        run()
    assert drawn[finite.index(False)] == named


def test_train_requires_two_classes():
    rng = np.random.default_rng(0)
    features = unit_rows(rng, 10, 8)
    labels = np.zeros(10, dtype=int)
    with pytest.raises(ConfigError):
        train(features, labels, *stack_texts(unit_rows(rng, 1, 8), {0: unit_rows(rng, 1, 8)}),
              init_head(2, 0, seed=0, feature_dim=8), TrainingConfig(epochs=1, batch_size=4))


def test_train_missing_peers_rejected():
    features, labels, texts, bounds = _toy_training_setup()
    texts, bounds = stack_texts(texts[:3], {c: texts[bounds[c] : bounds[c + 1]] for c in (0, 2)})
    with pytest.raises(ConfigError, match="^class 1 has no peer description features$"):
        train(features, labels, texts, bounds,
              init_head(3, 6, seed=1, feature_dim=16),
              TrainingConfig(epochs=1, batch_size=8))


# Each of train's input checks, by the ConfigError message it gives. The
# descriptions are one matrix, so no class's peers can differ in width from
# the rest, and that case has no check.
BOUNDARY_MESSAGES = {
    "negative-label": "labels -1..2 do not lie in [0, 3)",
    "label-past-head": "labels 0..2 do not lie in [0, 2) for 3 class descriptions and 2 ID",
    "label-past-class-texts": "labels 0..2 do not lie in [0, 2) for 2 class descriptions and 3 ID",
    "features-width": "the features are 15-d but the head takes 16-d rows",
    "class-texts-width": "the features are 16-d but the descriptions have shape (9, 15)",
    "class-texts-inf": "description row 1 holds a value that is not finite",
    "peer-nan": "description row 5 holds a value that is not finite",
    "bounds-first": "peer_bounds [2, 5, 7, 9] must be 1-D integers that start at 3, never "
                    "decrease and end at the 9 description rows",
    "bounds-decrease": "peer_bounds [3, 7, 5, 9] must be 1-D integers that start at 3",
    "bounds-last": "peer_bounds [3, 5, 7, 8] must be 1-D integers that start at 3",
    "bounds-2d": "peer_bounds [[3], [5], [7], [9]] must be 1-D integers",
    "head-width": "the features are 16-d but the head takes 17-d rows",
    "rows-past-features": "rows 0..60 do not lie in [0, 60)",
    "negative-row": "rows -1..59 do not lie in [0, 60)",
    "rows-2d": "rows must be 1-D integer indices, got shape (60, 1)",
    "float-rows": "rows must be 1-D integer indices, got shape (60,) float64",
    "label-per-row": "labels of shape (60,) do not give one label per row of the 59 rows",
}


@pytest.mark.parametrize("case", list(BOUNDARY_MESSAGES))
def test_train_checks_its_inputs_before_the_first_epoch(case):
    features, labels, texts, bounds = _toy_training_setup()
    n_id, dim, rows = 3, 16, np.arange(len(features))
    if case == "negative-label":
        labels[0] = -1
    elif case == "label-past-head":
        n_id = 2
    elif case == "label-past-class-texts":
        texts, bounds = stack_texts(texts[:2], {c: texts[bounds[c] : bounds[c + 1]] for c in (0, 1)})
    elif case == "features-width":
        features = features[:, :-1]
    elif case == "class-texts-width":
        texts = texts[:, :-1]
    elif case == "class-texts-inf":
        texts[1, 0] = np.inf
    elif case == "peer-nan":
        texts[bounds[1], 3] = np.nan
    elif case == "bounds-first":
        bounds[0] = 2
    elif case == "bounds-decrease":
        bounds[1:3] = bounds[2:0:-1]
    elif case == "bounds-last":
        bounds[-1] -= 1
    elif case == "bounds-2d":
        bounds = bounds[:, None]
    elif case == "rows-past-features":
        rows[-1] = len(features)
    elif case == "negative-row":
        rows[0] = -1
    elif case == "rows-2d":
        rows = rows[:, None]
    elif case == "float-rows":
        rows = rows.astype(np.float64)
    elif case == "label-per-row":
        rows = rows[1:]
    else:
        dim = 17
    head = init_head(n_id, 6, seed=1, feature_dim=dim)
    with pytest.raises(ConfigError, match=re.escape(BOUNDARY_MESSAGES[case])):
        train(features, labels, texts, bounds, head, TrainingConfig(epochs=0, batch_size=8),
              rows=rows)


def test_loss_history_csv(tmp_path):
    features, labels, texts, bounds = _toy_training_setup()
    head = init_head(3, 6, seed=1, feature_dim=16)
    cfg = TrainingConfig(epochs=2, batch_size=8, lr=1e-4, seed=3,
                         loss=LossConfig(temperature=0.05))
    state = train(features, labels, texts, bounds, head, cfg)
    path = tmp_path / "loss_history.csv"
    write_loss_history(state.history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,total,pcc1,pcc2,pcc3,ce"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(1e-4)
    assert float(first[2]) == pytest.approx(state.history[0].total)


def test_training_config_validation():
    with pytest.raises(ConfigError):
        TrainingConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainingConfig(batch_size=1)
    with pytest.raises(ConfigError):
        TrainingConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        TrainingConfig(lr=0.0)
    for field, value in [("lr", float("inf")), ("lr", float("nan")),
                         ("momentum", float("inf")), ("momentum", float("nan"))]:
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            TrainingConfig(**{field: value})
