import numpy as np
import pytest

import os
import struct
import tracemalloc

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
    parse_config,
)
from figr.models import Discriminator, Generator
from figr.reptile import init_meta_state
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
        with pytest.raises(ConfigError):
            RunConfig(gp_lambda=-1.0)

    @pytest.mark.parametrize("line", [
        "image_size = 24", "n_blocks = 2", "latent_dim = 0", "base_width = 0",
        "precision = half", "k = 0", "n = 0", "inner_lr = -1e-4", "inner_lr = nan",
        "gp_lambda = -1"])
    def test_model_and_inner_loop_invariants_refused_at_parse(self, line):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")

    @pytest.mark.parametrize("line", [
        "beta1 = 1.0", "beta1 = -0.1", "beta2 = 1.0", "beta2 = -0.5", "beta1 = nan",
        "adam_eps = 0.0", "adam_eps = -1e-8", "outer_lr = -1e-5"])
    def test_adam_settings_that_break_its_arithmetic_refused(self, line):
        # beta1 = 1 made step 1's bias correction divide 0 by 0 and wrote
        # NaN into phi, which NonFiniteStep only caught at step 2
        with pytest.raises(ConfigError):
            parse_config(line + "\n")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["gp_lambda", "inner_lr", "outer_lr", "beta1", "beta2",
                                     "adam_eps"])
    def test_non_finite_float_settings_refused(self, key, value):
        # outer_lr = inf wrote NaN and inf into phi_d's first checkpoint, and
        # adam_eps = inf left phi where it was
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(f"{key} = {value}\n")

    def test_boundary_adam_settings_accepted(self):
        cfg = parse_config("beta1 = 0.0\nbeta2 = 0.0\nouter_lr = 0.0\n")
        assert (cfg.beta1, cfg.beta2, cfg.outer_lr) == (0.0, 0.0, 0.0)

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


CFG = RunConfig(image_size=8, latent_dim=4, base_width=4, n_blocks=1)


def small_state(cfg=CFG):
    disc, gen = Discriminator(cfg), Generator(cfg)
    streams = make_streams(5)
    state = init_meta_state(disc, gen, streams.init)
    state.adam_d.m += 0.5
    state.adam_d.t = 3
    return state, streams


def version_1_blob(state, streams, fp) -> bytes:
    """A version-1 file: no dtype tag, parameters always float32."""
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
    return b"".join(parts)


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

    def test_vectors_are_owned_copies(self):
        # the loaded state must outlive the file's bytes and be writable
        state, streams = small_state()
        data = deserialize(serialize(state, streams, b"\x00" * 32))
        for vec in (data.phi_d, data.phi_g, data.adam_d.m, data.adam_d.v,
                    data.adam_g.m, data.adam_g.v):
            assert vec.flags.owndata and vec.flags.writeable

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
        state, streams = small_state(RunConfig(image_size=8, latent_dim=4, base_width=4,
                                               n_blocks=1, precision="double"))
        data = deserialize(serialize(state, streams, b"\x00" * 32))
        assert data.phi_d.dtype == np.float64 and data.phi_g.dtype == np.float64
        np.testing.assert_array_equal(data.phi_d, state.phi_d.vector)
        np.testing.assert_array_equal(data.phi_g, state.phi_g.vector)

    def test_version_1_still_loads(self):
        state, streams = small_state()
        fp = b"\x02" * 32
        data = deserialize(version_1_blob(state, streams, fp))
        assert data.fingerprint == fp and data.adam_d.t == 3
        assert data.phi_d.dtype == np.float32
        np.testing.assert_array_equal(data.phi_d, state.phi_d.vector)
        np.testing.assert_array_equal(data.adam_d.m, state.adam_d.m)
        assert serialize(state, streams, fp) == serialize(
            state, restore_streams(data), fp)

    @pytest.mark.parametrize("durable", [True, False])
    def test_saved_file_equals_serialize(self, tmp_path, durable):
        # save_checkpoint writes the parts that serialize() joins
        state, streams = small_state()
        path = tmp_path / "a.figr"
        save_checkpoint(path, state, streams, b"\x03" * 32, durable=durable)
        assert path.read_bytes() == serialize(state, streams, b"\x03" * 32)

    def test_save_makes_no_whole_file_copy(self, tmp_path):
        # a default-config checkpoint is about 15 MB; joining it before the
        # write would make the save's peak that large
        cfg = RunConfig()
        state, streams = small_state(cfg)
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "a.figr", state, streams, fingerprint(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "a.figr").stat().st_size > 15 * 10**6
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_load_makes_no_whole_file_copy(self, tmp_path):
        # each vector is read straight into the array returned for it, so
        # the load's peak is those arrays and not a second copy of the file
        cfg = RunConfig()
        state, streams = small_state(cfg)
        path = tmp_path / "a.figr"
        save_checkpoint(path, state, streams, fingerprint(cfg))
        tracemalloc.start()
        try:
            data = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert data.phi_g.size == state.phi_g.vector.size
        assert peak < size + 2**20, f"peak {peak / 2**20:.2f} MiB, file {size / 2**20:.2f} MiB"

    def test_unknown_dtype_tag(self):
        state, streams = small_state()
        blob = bytearray(serialize(state, streams, b"\x00" * 32))
        assert blob[48:49] == b"f"
        blob[48:49] = b"h"
        with pytest.raises(BadCheckpoint, match="dtype"):
            deserialize(bytes(blob))


def vectors(data):
    return (data.phi_d, data.phi_g, data.adam_d.m, data.adam_d.v, data.adam_g.m, data.adam_g.v)


class TestLoadFromFile:
    """load_checkpoint reads the file itself; every damaged file is refused
    with BadCheckpoint, as deserialize refuses the same bytes.  Each test
    runs for the full read and for the φ-only read, which seeks past the
    Adam moments but checks the same layout with the same messages."""

    CFG = RunConfig(image_size=8, latent_dim=1, base_width=1, n_blocks=1)

    @pytest.fixture(params=[True, False], ids=["full", "phi-only"])
    def moments(self, request):
        return request.param

    @pytest.fixture()
    def path(self, tmp_path):
        state, streams = small_state(self.CFG)
        path = tmp_path / "tiny.figr"
        save_checkpoint(path, state, streams, b"\x04" * 32)
        return path

    def test_cut_at_every_offset_names_it(self, path, moments):
        # each cut shortens the same file, so every prefix is read from disk
        for end in range(path.stat().st_size - 1, -1, -1):
            os.truncate(path, end)
            try:
                load_checkpoint(path, moments)
            except BadCheckpoint as exc:
                assert str(exc).endswith(f"but it ends at byte {end}"), (end, str(exc))
            else:
                pytest.fail(f"a file cut at byte {end} loaded")

    def test_empty_file(self, path, moments):
        path.write_bytes(b"")
        with pytest.raises(BadCheckpoint, match="ends at byte 0"):
            load_checkpoint(path, moments)

    def test_appended_byte(self, path, moments):
        with open(path, "ab") as f:
            f.write(b"\x00")
        with pytest.raises(BadCheckpoint, match="^1 trailing bytes$"):
            load_checkpoint(path, moments)

    def test_huge_declared_length_refused_before_allocating(self, path, moments):
        # the first moment's length field follows the tag, phi_d and Adam's t
        blob = bytearray(path.read_bytes())
        (n,) = struct.unpack_from("<Q", blob, 49)
        at = 49 + 8 + 4 * n + 8
        assert struct.unpack_from("<Q", blob, at) == (n,)
        struct.pack_into("<Q", blob, at, 2**40)
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(BadCheckpoint, match=f"{2**43} bytes wanted at byte {at + 8}"):
                load_checkpoint(path, moments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_moment_length_must_match_phi(self, path, moments):
        # a shorter first moment, with the file cut to match, is refused by
        # the length comparison once both moments' bytes are checked
        blob = bytearray(path.read_bytes())
        (n,) = struct.unpack_from("<Q", blob, 49)
        at = 49 + 8 + 4 * n + 8
        struct.pack_into("<Q", blob, at, n - 1)
        del blob[at + 8:at + 16]
        path.write_bytes(bytes(blob))
        with pytest.raises(BadCheckpoint, match="^moment vectors do not match parameter length$"):
            load_checkpoint(path, moments)

    def test_version_1_file_loads(self, tmp_path, moments):
        state, streams = small_state(self.CFG)
        path = tmp_path / "v1.figr"
        path.write_bytes(version_1_blob(state, streams, b"\x05" * 32))
        data = load_checkpoint(path, moments)
        assert data.fingerprint == b"\x05" * 32 and data.adam_d.t == 3
        assert data.phi_d.dtype == np.float32
        np.testing.assert_array_equal(data.phi_g, state.phi_g.vector)
        if moments:
            np.testing.assert_array_equal(data.adam_d.m, state.adam_d.m)
        else:
            assert data.adam_d.m is None

    def test_fields_equal_deserialize_and_vectors_are_owned(self, path, moments):
        # deserialize reads the moments; the φ-only read returns None for them
        data, ref = load_checkpoint(path, moments), deserialize(path.read_bytes())
        assert (data.fingerprint, data.step, data.stream_states) == (
            ref.fingerprint, ref.step, ref.stream_states)
        assert (data.adam_d.t, data.adam_g.t) == (ref.adam_d.t, ref.adam_g.t)
        read = vectors(data) if moments else (data.phi_d, data.phi_g)
        for vec, expected in zip(read, vectors(ref)):
            assert vec.dtype == expected.dtype
            np.testing.assert_array_equal(vec, expected)
            assert vec.flags.owndata and vec.flags.writeable and vec.flags.aligned
        if not moments:
            assert [data.adam_d.m, data.adam_d.v, data.adam_g.m, data.adam_g.v] == [None] * 4

    def test_cut_inside_a_moment_is_named_unread(self, path, monkeypatch):
        # a file cut halfway through phi_d's first moment: the φ-only read
        # names the offset where the moment starts, having read no byte of it
        (n,) = struct.unpack_from("<Q", path.read_bytes(), 49)
        start = 49 + 8 + 4 * n + 8 + 8
        os.truncate(path, start + 4 * n)
        read = []

        class Counting:
            def __init__(self, f):
                self.f = f

            def readinto(self, buf):
                read.append(self.f.readinto(buf))
                return read[-1]

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def __getattr__(self, name):
                return getattr(self.f, name)

        monkeypatch.setattr("figr.checkpoint.open", lambda *a, **k: Counting(open(*a, **k)),
                            raising=False)
        with pytest.raises(BadCheckpoint, match=f"{8 * n} bytes wanted at byte {start}, "
                                                f"but it ends at byte {start + 4 * n}$"):
            load_checkpoint(path, moments=False)
        assert sum(read) == start


class TestAtomicWrite:
    def test_replaces_content(self, tmp_path):
        path = tmp_path / "a.bin"
        atomic_write(path, b"old")
        atomic_write(path, "new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    @pytest.mark.parametrize("durable,failing", [(True, "fsync"), (False, "replace"),
                                                 (True, "write")])
    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch, durable, failing):
        path = tmp_path / "ckpt.figr"
        atomic_write(path, b"earlier")

        def crash(*args):
            raise OSError("disk gone")

        class FailsOnSecondWrite:
            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    crash()
                return self.f.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def __getattr__(self, name):
                return getattr(self.f, name)

        # the data, or its first part, is in the temporary file when the
        # flush, the rename or the next part's write fails
        if failing == "write":
            monkeypatch.setattr("figr.checkpoint.open",
                                lambda *a, **k: FailsOnSecondWrite(open(*a, **k)),
                                raising=False)
        else:
            monkeypatch.setattr(f"figr.checkpoint.os.{failing}", crash)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write(path, [b"later", np.arange(1000.0), b"end"], durable=durable)
        assert path.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.figr"]

    @pytest.mark.parametrize("durable", [True, False])
    def test_flushes_to_disk_when_durable(self, tmp_path, monkeypatch, durable):
        synced = []
        monkeypatch.setattr("figr.checkpoint.os.fsync", synced.append)
        atomic_write(tmp_path / "a.bin", b"data", durable=durable)
        assert len(synced) == int(durable)
