import pytest

from planlearn.bench import SuiteSpec, build_training_set, generate
from planlearn.errors import EmptyDataset
from planlearn.nn import (
    LabeledGraphSample,
    LrSchedule,
    TrainConfig,
    forward,
    train,
)


@pytest.fixture(scope="module")
def gripper_samples():
    suite = generate(SuiteSpec("gripper", (1, 2, 3), (4,), (5,), seed=0))
    return build_training_set(suite.split("train"), "slg", encoder_seed=0)


def small_config(**over):
    base = dict(seed=0, layer_count=2, hidden_dim=8, max_epochs=40)
    base.update(over)
    return TrainConfig(**base)


def test_training_reduces_mse(gripper_samples):
    assert len(gripper_samples) >= 20
    model, trace = train(gripper_samples, small_config())
    assert trace.rows[-1].train_loss < trace.rows[0].train_loss


def test_single_sample_repeated_memorizes(gripper_samples):
    sample = gripper_samples[0]
    data = [sample] * 8
    # patient schedule: capacity check, not schedule check
    model, trace = train(data, small_config(max_epochs=800, patience_epochs=30))
    pred = forward(model, sample.graph)
    assert trace.rows[-1].train_loss < 1e-3
    assert abs(pred - sample.target) < 0.1


def test_lr_schedule_stagnating_sequence():
    schedule = LrSchedule(1e-3, 10.0, patience=10, stop_below=1e-5)
    seen = []
    for _ in range(200):
        if schedule.stopped:
            break
        seen.append(schedule.lr)
        schedule.observe(1.0)  # never improves after the first epoch
    distinct = sorted(set(seen), reverse=True)
    assert distinct == [1e-3, 1e-4, 1e-5]
    assert schedule.stopped


def test_lr_schedule_improvement_resets_patience():
    schedule = LrSchedule(1e-3, 10.0, patience=3, stop_below=1e-5)
    losses = [5.0, 4.0, 4.0, 4.0, 3.0, 3.0, 3.0, 3.0]
    for loss in losses:
        schedule.observe(loss)
    assert schedule.lr == pytest.approx(1e-4)  # one drop, after the second plateau


def test_training_deterministic(gripper_samples):
    _, t1 = train(gripper_samples, small_config(max_epochs=15))
    _, t2 = train(gripper_samples, small_config(max_epochs=15))
    assert [(r.epoch, r.train_loss, r.holdout_loss, r.lr) for r in t1.rows] == \
           [(r.epoch, r.train_loss, r.holdout_loss, r.lr) for r in t2.rows]
    assert t1.to_csv() == t2.to_csv()


def test_trace_csv_columns(gripper_samples):
    _, trace = train(gripper_samples, small_config(max_epochs=3))
    header = trace.to_csv().splitlines()[0]
    assert header == "epoch,train_loss,holdout_loss,lr"
    assert trace.timings_csv().splitlines()[0] == "epoch,seconds"


def test_empty_dataset_rejected(gripper_samples):
    with pytest.raises(EmptyDataset):
        train([gripper_samples[0]], small_config())


def test_target_must_be_finite(gripper_samples):
    with pytest.raises(ValueError):
        LabeledGraphSample(gripper_samples[0].graph, float("inf"))
