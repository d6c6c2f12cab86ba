import json
from dataclasses import fields

import numpy as np
import pytest

from framedfile import blocks, edit_json, replace
from dfuse.checkpointio import (
    MAGIC,
    Checkpoint,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from dfuse.encoder import EncoderConfig, ParamVector, init_params
from dfuse.errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointLayoutError,
    CheckpointMagicError,
    ValidationError,
)
from dfuse.losses import LossConfig


@pytest.fixture
def ckpt(enc_cfg):
    return Checkpoint(
        enc_cfg, LossConfig(sigma=0.05, lambda_=0.999),
        init_params(enc_cfg), step=137, val_loss=0.25,
    )


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, tmp_path, ckpt):
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, ckpt)
        loaded = load_checkpoint(first)
        save_checkpoint(second, loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_fields_survive(self, tmp_path, ckpt):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.enc_cfg == ckpt.enc_cfg
        assert loaded.loss_cfg == ckpt.loss_cfg
        assert loaded.step == ckpt.step
        assert loaded.val_loss == ckpt.val_loss
        assert loaded.params.layout == ckpt.params.layout
        assert loaded.params.values.tobytes() == ckpt.params.values.tobytes()

    def test_numpy_scalars_and_an_int_sigma_are_stored_as_json_types(self, tmp_path, ckpt):
        enc_cfg = EncoderConfig(*(np.int64(getattr(ckpt.enc_cfg, f.name))
                                  for f in fields(EncoderConfig)))
        saved = Checkpoint(enc_cfg, LossConfig(sigma=1, lambda_=np.float64(0.5)),
                           init_params(enc_cfg), np.int64(3), np.float64(0.25))
        path = tmp_path / "numpy.ckpt"
        save_checkpoint(path, saved)
        loaded = load_checkpoint(path)
        assert (loaded.enc_cfg, loaded.loss_cfg) == (ckpt.enc_cfg, LossConfig(1.0, 0.5))
        assert (loaded.step, loaded.val_loss) == (3, 0.25)
        save_checkpoint(tmp_path / "again.ckpt", loaded)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_nan_val_loss_round_trips(self, tmp_path, ckpt):
        path = tmp_path / "fused.ckpt"
        save_checkpoint(path, Checkpoint(
            ckpt.enc_cfg, ckpt.loss_cfg, ckpt.params, step=0, val_loss=float("nan"),
        ))
        assert np.isnan(load_checkpoint(path).val_loss)
        assert json.loads(blocks(path.read_bytes())["header"][1])["val_loss"] is None

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_an_infinite_val_loss_is_refused_and_writes_no_file(self, tmp_path, ckpt, value):
        # Strict JSON has no spelling for it, and null already means "none".
        with pytest.raises(ValidationError) as info:
            save_checkpoint(tmp_path / "model.ckpt", Checkpoint(
                ckpt.enc_cfg, ckpt.loss_cfg, ckpt.params, step=0, val_loss=value))
        assert str(info.value) == f"cannot store an infinite val_loss ({value})"
        assert list(tmp_path.iterdir()) == []


class TestCorruption:
    def test_flipped_value_byte_fails_checksum(self, tmp_path, ckpt):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF  # inside the value block (crc occupies the last 4 bytes)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointChecksumError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path, ckpt):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_layout_value_count_mismatch(self, tmp_path, ckpt):
        path = tmp_path / "model.ckpt"
        data = checkpoint_bytes(ckpt)
        n = ckpt.params.n_params
        path.write_bytes(replace(data, "values", blocks(data)["values"][1], count=n + 1))
        with pytest.raises(CheckpointLayoutError, match=f"declares {n} values but file stores"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path, ckpt):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path, ckpt):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_names_the_file(self, tmp_path, ckpt, value):
        values = ckpt.params.values.copy()
        values[3] = value
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, Checkpoint(ckpt.enc_cfg, ckpt.loss_cfg,
                                         ParamVector(values, ckpt.params.layout), 0, 0.0))
        with pytest.raises(CheckpointFormatError, match=f"^{path}: weight 3 is not finite$"):
            load_checkpoint(path)

    def test_layout_must_match_encoder_config(self, tmp_path, ckpt):
        # swapped video.w1 dims hold the same number of values, so only the
        # comparison with the configured layout can catch them
        layout = tuple((name, shape[::-1]) if name == "video.w1" else (name, shape)
                       for name, shape in ckpt.params.layout)
        assert layout != ckpt.params.layout
        path = tmp_path / "swapped.ckpt"
        save_checkpoint(path, Checkpoint(
            ckpt.enc_cfg, ckpt.loss_cfg, ParamVector(ckpt.params.values, layout),
            step=0, val_loss=0.0,
        ))
        with pytest.raises(CheckpointLayoutError, match="does not match"):
            load_checkpoint(path)


class TestFormat:
    def test_magic_tag(self, ckpt):
        data = checkpoint_bytes(ckpt)
        assert data[:8] == MAGIC == b"DFCK0002"
        header = json.loads(blocks(data)["header"][1])
        assert list(header) == ["format", "encoder", "loss", "step", "val_loss", "layout"]
        assert header["format"] == "dfuse-checkpoint-v2"
        assert header["layout"] == [[name, list(shape)] for name, shape in ckpt.params.layout]

    def test_little_endian_values(self, ckpt):
        data = checkpoint_bytes(ckpt)
        # the crc-protected value block sits right before the 4-byte crc
        n = ckpt.params.n_params
        values = np.frombuffer(data[-4 - 8 * n:-4], dtype="<f8")
        np.testing.assert_array_equal(values, ckpt.params.values)


def _edited(tmp_path, ckpt, change):
    """A file of ``ckpt`` whose header JSON went through ``change``, framed again
    with a fresh CRC-32 so that the load reaches the check behind it."""
    path = tmp_path / "edited.ckpt"
    path.write_bytes(edit_json(checkpoint_bytes(ckpt), "header", change))
    return path


def _set(key, value):
    """A header change that sets ``key``, a dotted path, to ``value``."""
    def change(header):
        *parents, last = key.split(".")
        for parent in parents:
            header = header[parent]
        header[last] = value
    return change


class TestHeaderValidation:
    @pytest.mark.parametrize(("key", "value", "kind"), [
        ("encoder.hidden_dim", 7.0, "an integer"),
        ("encoder.embed_dim", True, "an integer"),
        ("encoder.seed", "11", "an integer"),
        ("encoder.n_frames", None, "an integer"),
        ("loss.sigma", "0.05", "a float"),
        ("loss.sigma", 1, "a float"),
        ("loss.lambda_", False, "a float"),
        ("loss.lambda_", [0.5], "a float"),
        ("step", 137.0, "an integer"),
        ("step", True, "an integer"),
        ("step", "137", "an integer"),
        ("val_loss", 1, "a float or null"),
        ("val_loss", "0.25", "a float or null"),
        ("val_loss", True, "a float or null"),
        ("encoder", [], "an object"),
        ("loss", None, "an object"),
        ("layout", {}, "a list"),
    ])
    def test_wrong_json_type(self, tmp_path, ckpt, key, value, kind):
        path = _edited(tmp_path, ckpt, _set(key, value))
        with pytest.raises(CheckpointFormatError,
                           match=f"^{path}: header: {key} must be {kind}, got "):
            load_checkpoint(path)

    @pytest.mark.parametrize(("key", "value", "message"), [
        ("step", -1, "step must be >= 0, got -1"),
        ("encoder.hidden_dim", 0, "invalid stored configuration: EncoderConfig.hidden_dim"),
        ("encoder.seed", 2**63, "invalid stored configuration: seed must be"),
        ("loss.sigma", 0.0, "invalid stored configuration: sigma must be positive"),
        ("loss.lambda_", -0.5, "invalid stored configuration: lambda must be"),
    ])
    def test_out_of_range_value(self, tmp_path, ckpt, key, value, message):
        path = _edited(tmp_path, ckpt, _set(key, value))
        with pytest.raises(CheckpointFormatError, match=f"^{path}: (header: )?{message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where", ["", "encoder", "loss"])
    @pytest.mark.parametrize("fault", ["missing", "extra"])
    def test_missing_and_extra_keys(self, tmp_path, ckpt, where, fault):
        def change(header):
            obj = header[where] if where else header
            if fault == "missing":
                del obj[list(obj)[-1]]
            else:
                obj["extra"] = 0
        path = _edited(tmp_path, ckpt, change)
        name = where or "the header"
        with pytest.raises(CheckpointFormatError,
                           match=f"^{path}: header: {name} must be an object with the keys "):
            load_checkpoint(path)

    @pytest.mark.parametrize("fault", ["v1", "corpus", "number", "missing", "list", "string"])
    def test_wrong_format(self, tmp_path, ckpt, fault):
        data = checkpoint_bytes(ckpt)
        header = json.loads(blocks(data)["header"][1])
        header = {"v1": {**header, "format": "dfuse-checkpoint-v1"},
                  "corpus": {**header, "format": "dfuse-corpus-v3"},
                  "number": {**header, "format": 2},
                  "missing": {key: value for key, value in header.items() if key != "format"},
                  "list": list(header), "string": "dfuse-checkpoint-v2"}[fault]
        path = tmp_path / "other.ckpt"
        path.write_bytes(replace(data, "header", json.dumps(header).encode()))
        with pytest.raises(CheckpointFormatError,
                           match=f"^{path}: header: expected a dfuse-checkpoint-v2 header$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fault", ["swapped dims", "swapped tensors", "renamed",
                                       "float dim", "dropped tensor"])
    def test_layout_must_be_the_configured_one(self, tmp_path, ckpt, fault):
        def change(header):
            layout = header["layout"]
            if fault == "swapped dims":
                layout[0][1].reverse()
            elif fault == "swapped tensors":
                layout[0], layout[2] = layout[2], layout[0]
            elif fault == "renamed":
                layout[0][0] = "video.W1"
            elif fault == "float dim":  # equal to the int in Python, not in JSON
                layout[0][1][0] = float(layout[0][1][0])
            else:
                layout.pop()
        path = _edited(tmp_path, ckpt, change)
        with pytest.raises(CheckpointLayoutError, match=f"^{path}: stored tensor layout does not"):
            load_checkpoint(path)

    @pytest.mark.parametrize("payload", [
        b"\xff", b'{"format": "dfuse-checkpoint-v2"', b"", b"[" * 100_000,
        'not JSON'.encode(), '{"format": "dfuse-checkpoint-v2", "video\xff": 1}'.encode("latin-1"),
    ])
    def test_invalid_utf8_or_json(self, tmp_path, ckpt, payload):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(replace(checkpoint_bytes(ckpt), "header", payload))
        with pytest.raises(CheckpointFormatError, match=f"^{path}: header: invalid JSON$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_a_non_standard_json_constant_is_invalid_json(self, tmp_path, ckpt, constant):
        # Python's json module reads these as floats; "val_loss": NaN would load
        # as a second spelling of null.
        text = json.dumps(json.loads(blocks(checkpoint_bytes(ckpt))["header"][1]))
        text = text.replace('"val_loss": 0.25', f'"val_loss": {constant}')
        assert constant in text
        path = tmp_path / "bad.ckpt"
        path.write_bytes(replace(checkpoint_bytes(ckpt), "header", text.encode()))
        with pytest.raises(CheckpointFormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: header: invalid JSON"

    def test_an_edited_but_valid_header_loads(self, tmp_path, ckpt):
        # The check is on types and values, not on the header's bytes.
        def change(header):
            header["step"], header["val_loss"] = 5, None
        loaded = load_checkpoint(_edited(tmp_path, ckpt, change))
        assert loaded.step == 5 and np.isnan(loaded.val_loss)
        assert loaded.params.values.tobytes() == ckpt.params.values.tobytes()

