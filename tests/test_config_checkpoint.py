import numpy as np
import pytest

import struct

from figr.checkpoint import (
    MAGIC,
    BadCheckpoint,
    atomic_write,
    deserialize,
    load_checkpoint,
    restore_streams,
    save_checkpoint,
    serialize,
)
from figr.config import (
    ConfigError,
    RunConfig,
    canonical_text,
    fingerprint,
    inner_config,
    parse_config,
)
from figr.models import Discriminator, Generator, ModelConfig
from figr.reptile import InnerConfig, init_meta_state
from figr.rng import STREAM_LABELS, make_streams, state_from_bytes, state_to_bytes, streams_to_states


class TestConfig:
    def test_defaults_mirror_reference_hyperparameters(self):
        cfg = RunConfig()
        assert cfg.inner_lr == 0.0001
        assert cfg.outer_lr == 0.00001
        assert cfg.k == 10
        assert cfg.n == 4

    def test_parse_round_trip(self):
        cfg = RunConfig(image_size=16, n=8, out_dir="x/y")
        assert parse_config(canonical_text(cfg)) == cfg

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# full comment\n\nk = 3  # trailing\nn = 2\n")
        assert cfg.k == 3 and cfg.n == 2

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError):
            parse_config("inner_lr = 0.1\ninner_lrate = 0.2\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("k = 1\nk = 2\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("k = soon\n")

    def test_bad_format(self):
        with pytest.raises(ConfigError):
            parse_config("just words\n")

    def test_fingerprint_tracks_hyperparameters(self):
        a = fingerprint(RunConfig())
        assert a != fingerprint(RunConfig(inner_lr=2e-4))
        assert a != fingerprint(RunConfig(seed=1))
        assert len(a) == 32

    @pytest.mark.parametrize("mode", ["bce", "hinge"])
    def test_loss_mode_other_than_wgan_gp_rejected(self, mode):
        with pytest.raises(ConfigError, match="loss_mode"):
            parse_config(f"loss_mode = {mode}\n")

    def test_negative_gp_lambda_rejected(self):
        with pytest.raises(ValueError):
            InnerConfig(gp_lambda=-1.0)

    def test_inner_config_carries_gp_lambda(self):
        assert inner_config(RunConfig(gp_lambda=2.5)).gp_lambda == 2.5

    def test_default_fingerprint_pinned(self):
        # loss_mode stays a key so that this, and every checkpoint's
        # fingerprint, does not change
        assert fingerprint(RunConfig()).hex() == (
            "0feeac716134481a6bae72f16017bdb1200d345b30d32700ef818d7117395a29")

    def test_fingerprint_ignores_operational_fields(self):
        a = fingerprint(RunConfig())
        assert a == fingerprint(RunConfig(out_dir="elsewhere", meta_steps=7,
                                          checkpoint_every=3, sample_every=9))


class TestRngStreams:
    def test_streams_are_independent(self):
        s = make_streams(0)
        a = s.task.integers(1000)
        s2 = make_streams(0)
        _ = s2.latent.standard_normal(100)  # consuming another stream
        assert s2.task.integers(1000) == a

    def test_state_round_trip(self):
        s = make_streams(3)
        s.latent.standard_normal(17)
        blob = state_to_bytes(s.latent)
        clone = state_from_bytes(blob)
        np.testing.assert_array_equal(clone.standard_normal(8),
                                      s.latent.standard_normal(8))

    def test_state_length(self):
        assert len(state_to_bytes(make_streams(0).eps)) == 40


CFG = ModelConfig(image_size=8, latent_dim=4, base_width=4, n_blocks=1)


def small_state(cfg=CFG):
    disc, gen = Discriminator(cfg), Generator(cfg)
    streams = make_streams(5)
    state = init_meta_state(disc, gen, streams.init)
    state.adam_d.m += 0.5
    state.adam_d.t = 3
    return state, streams


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        state, streams = small_state()
        fp = fingerprint(RunConfig())
        p1 = tmp_path / "a.figr"
        save_checkpoint(p1, state, streams, fp)
        data = load_checkpoint(p1)
        streams2 = restore_streams(data)
        rebuilt_state, _ = small_state()
        rebuilt_state.phi_d = rebuilt_state.phi_d.with_vector(data.phi_d)
        rebuilt_state.phi_g = rebuilt_state.phi_g.with_vector(data.phi_g)
        rebuilt_state.adam_d, rebuilt_state.adam_g = data.adam_d, data.adam_g
        rebuilt_state.step = data.step
        p2 = tmp_path / "b.figr"
        save_checkpoint(p2, rebuilt_state, streams2, data.fingerprint)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fields_round_trip(self):
        state, streams = small_state()
        fp = fingerprint(RunConfig(seed=9))
        data = deserialize(serialize(state, streams, fp))
        assert data.fingerprint == fp
        assert data.step == 0
        np.testing.assert_array_equal(data.phi_d, state.phi_d.vector)
        np.testing.assert_array_equal(data.adam_d.m, state.adam_d.m)
        assert data.adam_d.t == 3

    def test_bad_magic(self):
        state, streams = small_state()
        blob = serialize(state, streams, b"\x00" * 32)
        with pytest.raises(BadCheckpoint):
            deserialize(b"XXXX" + blob[4:])

    def test_truncation(self):
        state, streams = small_state()
        blob = serialize(state, streams, b"\x00" * 32)
        with pytest.raises(BadCheckpoint):
            deserialize(blob[:-5])

    def test_trailing_garbage(self):
        state, streams = small_state()
        blob = serialize(state, streams, b"\x00" * 32)
        with pytest.raises(BadCheckpoint):
            deserialize(blob + b"\x00")

    def test_restored_streams_continue_from_snapshot(self):
        state, streams = small_state()
        blob = serialize(state, streams, b"\x01" * 32)
        expected = streams.latent.standard_normal(5)  # what comes next
        clone = restore_streams(deserialize(blob))
        np.testing.assert_array_equal(clone.latent.standard_normal(5), expected)

    def test_double_parameters_round_trip_exactly(self):
        state, streams = small_state(ModelConfig(image_size=8, latent_dim=4, base_width=4,
                                                 n_blocks=1, precision="double"))
        data = deserialize(serialize(state, streams, b"\x00" * 32))
        assert data.phi_d.dtype == np.float64 and data.phi_g.dtype == np.float64
        np.testing.assert_array_equal(data.phi_d, state.phi_d.vector)
        np.testing.assert_array_equal(data.phi_g, state.phi_g.vector)

    def test_version_1_still_loads(self):
        # version 1: no dtype tag, parameters always float32
        state, streams = small_state()
        fp = b"\x02" * 32
        parts = [MAGIC, struct.pack("<I", 1), fp, struct.pack("<Q", state.step)]
        for phi, adam in ((state.phi_d, state.adam_d), (state.phi_g, state.adam_g)):
            vec = phi.vector.astype(np.float32)
            parts += [struct.pack("<Q", vec.size), vec.tobytes(), struct.pack("<Q", adam.t)]
            for moment in (adam.m, adam.v):
                parts += [struct.pack("<Q", moment.size), moment.tobytes()]
        states = streams_to_states(streams)
        parts.append(struct.pack("<I", len(STREAM_LABELS)))
        for label in STREAM_LABELS:
            parts += [struct.pack("<B", len(label)), label.encode("ascii"), states[label]]
        data = deserialize(b"".join(parts))
        assert data.fingerprint == fp and data.adam_d.t == 3
        assert data.phi_d.dtype == np.float32
        np.testing.assert_array_equal(data.phi_d, state.phi_d.vector)
        np.testing.assert_array_equal(data.adam_d.m, state.adam_d.m)
        assert serialize(state, streams, fp) == serialize(
            state, restore_streams(data), fp)

    def test_unknown_dtype_tag(self):
        state, streams = small_state()
        blob = bytearray(serialize(state, streams, b"\x00" * 32))
        assert blob[48:49] == b"f"
        blob[48:49] = b"h"
        with pytest.raises(BadCheckpoint, match="dtype"):
            deserialize(bytes(blob))


class TestAtomicWrite:
    def test_replaces_content(self, tmp_path):
        path = tmp_path / "a.bin"
        atomic_write(path, b"old")
        atomic_write(path, "new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    @pytest.mark.parametrize("durable,failing", [(True, "fsync"), (False, "replace")])
    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch, durable, failing):
        path = tmp_path / "ckpt.figr"
        atomic_write(path, b"earlier")

        def crash(*args):
            raise OSError("disk gone")

        # the data is in the temporary file when the flush or the rename fails
        monkeypatch.setattr(f"figr.checkpoint.os.{failing}", crash)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write(path, b"later" * 1000, durable=durable)
        assert path.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.figr"]

    @pytest.mark.parametrize("durable", [True, False])
    def test_flushes_to_disk_when_durable(self, tmp_path, monkeypatch, durable):
        synced = []
        monkeypatch.setattr("figr.checkpoint.os.fsync", synced.append)
        atomic_write(tmp_path / "a.bin", b"data", durable=durable)
        assert len(synced) == int(durable)
