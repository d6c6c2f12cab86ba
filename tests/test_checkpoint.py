import struct

import numpy as np
import pytest

from dfuse.checkpointio import (
    MAGIC,
    Checkpoint,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from dfuse.encoder import ParamVector, init_params
from dfuse.errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointLayoutError,
    CheckpointMagicError,
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

    def test_nan_val_loss_round_trips(self, tmp_path, ckpt):
        path = tmp_path / "fused.ckpt"
        save_checkpoint(path, Checkpoint(
            ckpt.enc_cfg, ckpt.loss_cfg, ckpt.params, step=0, val_loss=float("nan"),
        ))
        assert np.isnan(load_checkpoint(path).val_loss)


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
        save_checkpoint(path, ckpt)
        data = bytearray(path.read_bytes())
        n = ckpt.params.n_params
        # the value-count int64 sits right before the values and the crc
        offset = len(data) - 4 - 8 * n - 8
        assert struct.unpack_from("<q", data, offset)[0] == n
        struct.pack_into("<q", data, offset, n + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointLayoutError):
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


    def test_non_utf8_tensor_name(self, tmp_path, ckpt):
        path = tmp_path / "c.ckpt"
        data = bytearray(checkpoint_bytes(ckpt))
        # magic, 6 config ints, sigma/lambda, step, val_loss, tensor count, name length
        name_at = len(MAGIC) + 8 * (6 + 2 + 1 + 1 + 1) + 2
        assert data[name_at:name_at + 5] == b"video"
        data[name_at] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match="not valid UTF-8"):
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
        assert data[:8] == MAGIC == b"DFCK0001"

    def test_little_endian_values(self, ckpt):
        data = checkpoint_bytes(ckpt)
        # the crc-protected value block sits right before the 4-byte crc
        n = ckpt.params.n_params
        values = np.frombuffer(data[-4 - 8 * n:-4], dtype="<f8")
        np.testing.assert_array_equal(values, ckpt.params.values)
