import json

import numpy as np
import pytest

from planlearn.errors import ChecksumMismatch, FormatVersionMismatch, NonFiniteOutput
from planlearn.graphs import build_slg, flg_kind, llg_kind, slg_kind
from planlearn.nn import forward, init_model, load_model
from planlearn.nn.model import param_shapes

from helpers import save_model


def test_round_trip_bit_exact(tmp_path, gripper_ground):
    task, _ = gripper_ground
    model = init_model(slg_kind(), layer_count=3, hidden_dim=10, seed=42)
    path = tmp_path / "m.json"
    save_model(model, path)
    again = load_model(path)
    assert again.kind == model.kind
    for name, param in model.params.items():
        assert np.array_equal(param, again.params[name])
    g = build_slg(task, task.init)
    assert forward(model, g) == forward(again, g)


def test_truncated_file_checksum_mismatch(tmp_path):
    model = init_model(slg_kind(), layer_count=2, hidden_dim=4, seed=0)
    path = tmp_path / "m.json"
    save_model(model, path)
    text = path.read_text()
    path.write_text(text[: len(text) - 40])
    with pytest.raises(ChecksumMismatch):
        load_model(path)


def test_tampered_file_checksum_mismatch(tmp_path):
    model = init_model(slg_kind(), layer_count=2, hidden_dim=4, seed=0)
    path = tmp_path / "m.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    payload["params"]["head.b2"][0] += 1.0
    path.write_text(json.dumps(payload))
    with pytest.raises(ChecksumMismatch):
        load_model(path)


def test_wrong_version_rejected(tmp_path):
    model = init_model(slg_kind(), layer_count=1, hidden_dim=2, seed=0)
    path = tmp_path / "m.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatVersionMismatch):
        load_model(path)


def test_not_a_model_file_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(FormatVersionMismatch):
        load_model(path)


def test_file_size_within_documented_bound(tmp_path):
    """docs/formats.md: size <= 32 bytes per parameter + 4096 overhead."""
    model = init_model(llg_kind(4), layer_count=8, hidden_dim=64, seed=0)
    path = tmp_path / "m.json"
    save_model(model, path)
    n_params = sum(p.size for p in model.params.values())
    expected_layers = 8 * (1 + len(model.kind.labels)) * 64 * 64 + 8 * 64
    assert n_params == expected_layers + 64 * model.kind.dim + (64 * 64 + 64 + 64 + 1)
    assert path.stat().st_size <= 32 * n_params + 4096


@pytest.mark.parametrize("kind", [slg_kind(), flg_kind(), llg_kind(3)])
def test_param_shapes_are_those_init_model_draws(kind):
    model = init_model(kind, layer_count=3, hidden_dim=5, seed=1)
    shapes = {name: param.shape for name, param in model.params.items()}
    assert list(shapes.items()) == list(param_shapes(kind, 3, 5).items())


def test_non_finite_parameter_is_not_written(tmp_path):
    model = init_model(slg_kind(), layer_count=1, hidden_dim=2, seed=0)
    model.params["head.b2"][0] = np.inf
    with pytest.raises(NonFiniteOutput, match="^model file not written"):
        save_model(model, tmp_path / "m.json")
    assert not (tmp_path / "m.json").exists()


def test_load_errors_name_the_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(FormatVersionMismatch, match=f"^{path}: not a model file$"):
        load_model(path)
