import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import os
import re
import struct
import tracemalloc
from pathlib import Path

import figr.cli
from figr import rng
from figr.checkpoint import (
    MAGIC,
    atomic_write,
    load_checkpoint,
    save_checkpoint,
)
from figr.config import (
    RunConfig,
    build_dataset,
    canonical_text,
    fingerprint,
    load_config,
    parse_config,
)
from figr.models import Discriminator, Generator
from figr.reptile import init_meta_state

_INNER = "need k >= 1, n >= 1, inner_lr >= 0, gp_lambda >= 0"
_ADAM = "need 0 <= beta1, beta2 < 1, adam_eps > 0, outer_lr >= 0"
# a config line the parse refuses -> the whole message it refuses it with
MODEL_REFUSALS = {
    "image_size = 24": "image_size must be 8/16/32/64, got 24",
    "n_blocks = 2": "n_blocks=2 < 3 scale changes for image_size=32",
    "latent_dim = 0": "latent_dim and base_width must be positive",
    "base_width = 0": "latent_dim and base_width must be positive",
    "precision = half": "unknown precision 'half'",
    "k = 0": _INNER, "n = 0": _INNER, "inner_lr = -1e-4": _INNER,
    "inner_lr = nan": "inner_lr must be finite, got nan",
    "gp_lambda = -1": _INNER,
}
ADAM_REFUSALS = {
    "beta1 = 1.0": _ADAM, "beta1 = -0.1": _ADAM, "beta2 = 1.0": _ADAM, "beta2 = -0.5": _ADAM,
    "beta1 = nan": "beta1 must be finite, got nan",
    "adam_eps = 0.0": _ADAM, "adam_eps = -1e-8": _ADAM, "outer_lr = -1e-5": _ADAM,
}


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
        cfg = parse_config("# full comment\n\nk = 3  # trailing\nn = 2\t# tab\n  # indented\n")
        assert cfg.k == 3 and cfg.n == 2

    def test_hash_inside_a_value_is_kept(self):
        # a '#' starts a comment only at a line's start or after whitespace
        cfg = parse_config('validation_classes = "a#b", c\n'
                           "dataset_path = /data/run#1/x.fgr8  # where the shard is\n")
        assert cfg.validation_classes == '"a#b", c'
        assert cfg.dataset_path == "/data/run#1/x.fgr8"
        assert parse_config(canonical_text(cfg)) == cfg

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(["dataset_path", "validation_classes", "out_dir"]),
           value=st.text(alphabet='ab#,"= \t\n\r\x0b\x0c\x1c\x85\u2028', max_size=8))
    def test_str_value_is_refused_or_reads_back(self, key, value):
        # the run's config.cfg is canonical_text, so an accepted value must read back
        try:
            cfg = RunConfig(**{key: value})
        except ValueError as exc:
            assert str(exc) == f"{key} cannot be written to a config file: {value!r}"
            return
        assert parse_config(canonical_text(cfg)) == cfg

    @pytest.mark.parametrize("build,key", [
        (lambda: RunConfig(validation_classes='"a #b", c'), "validation_classes"),
        (lambda: parse_config("dataset_path =#x"), "dataset_path")],
        ids=["hash-after-space", "hash-at-start"])
    def test_value_a_config_file_cannot_hold_is_refused(self, build, key):
        with pytest.raises(ValueError) as exc:
            build()
        assert re.fullmatch(f"{key} cannot be written to a config file: '[^\n]*'", str(exc.value))

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ValueError, match="^line 2: unknown key 'inner_lrate'$"):
            parse_config("inner_lr = 0.1\ninner_lrate = 0.2\n")

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="^line 2: duplicate key 'k'$"):
            parse_config("k = 1\nk = 2\n")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="^line 1: bad value for 'k': invalid literal"):
            parse_config("k = soon\n")

    def test_bad_format(self):
        with pytest.raises(ValueError,
                           match="^line 1: expected 'key = value', got 'just words'$"):
            parse_config("just words\n")

    def test_fingerprint_tracks_hyperparameters(self):
        a = fingerprint(RunConfig())
        assert a != fingerprint(RunConfig(inner_lr=2e-4))
        assert a != fingerprint(RunConfig(seed=1))
        assert len(a) == 32

    @pytest.mark.parametrize("mode", ["bce", "hinge"])
    def test_loss_mode_other_than_wgan_gp_rejected(self, mode):
        with pytest.raises(ValueError, match=f"^loss_mode must be wasserstein_gp, not '{mode}'$"):
            parse_config(f"loss_mode = {mode}\n")

    def test_negative_gp_lambda_rejected(self):
        with pytest.raises(ValueError, match=f"^{re.escape(_INNER)}$"):
            RunConfig(gp_lambda=-1.0)

    @pytest.mark.parametrize("line", list(MODEL_REFUSALS))
    def test_model_and_inner_loop_invariants_refused_at_parse(self, line):
        with pytest.raises(ValueError, match=f"^{re.escape(MODEL_REFUSALS[line])}$"):
            parse_config(line + "\n")

    @pytest.mark.parametrize("line", list(ADAM_REFUSALS))
    def test_adam_settings_that_break_its_arithmetic_refused(self, line):
        # beta1 = 1 made step 1's bias correction divide 0 by 0 and wrote
        # NaN into phi, which meta_step's finiteness check only caught at step 2
        with pytest.raises(ValueError, match=f"^{re.escape(ADAM_REFUSALS[line])}$"):
            parse_config(line + "\n")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["gp_lambda", "inner_lr", "outer_lr", "beta1", "beta2",
                                     "adam_eps"])
    def test_non_finite_float_settings_refused(self, key, value):
        # outer_lr = inf wrote NaN and inf into phi_d's first checkpoint, and
        # adam_eps = inf left phi where it was
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {value}$"):
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


class TestRngKeys:
    TAGS = {"INIT": 0, "EVAL_PICK": 1, "EVAL_ARM": 2, "GENERATE_PICK": 4, "GENERATE": 5,
            "STEP": 6, "MONTAGE": 7}

    def test_tags_are_distinct_and_no_glyph_key(self):
        # a synthetic glyph draws from key (class,) or (class, image) under
        # split_seed, often the run's seed; SeedSequence splits a key entry
        # into 32-bit words, so a tag >= 2**32 gives every derived key
        # (tag, index) one word more than any glyph key has.  The values are
        # pinned: φ₀ and the eval and generate draws depend on them
        tags = {name: value for name, value in vars(rng).items()
                if name.isupper() and isinstance(value, int)}
        assert tags == {name: 2**32 + offset for name, offset in self.TAGS.items()}
        assert len(set(tags.values())) == len(tags)
        assert min(tags.values()) >= 2**32

    def test_train_start_and_eval_baseline_are_the_init_key(self, tmp_path, monkeypatch):
        # ckpt_000000's φ and the baseline arm `figr eval` adapts are both
        # drawn from key (INIT, 0), critic first, through one helper
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("image_size = 8\nlatent_dim = 4\nbase_width = 4\nn_blocks = 1\n"
                            "k = 1\nn = 2\nsynth_classes = 4\nsynth_per_class = 4\n"
                            "n_validation = 2\nseed = 7\n")
        out = tmp_path / "run"
        assert figr.cli.main(["train", "--config", str(cfg_path), "--steps", "0",
                              "--out", str(out)]) == 0
        cfg = load_config(cfg_path)
        disc, gen = Discriminator(cfg), Generator(cfg)
        init = rng.derive(7, rng.INIT, 0)
        expected = (disc.init_params(init).vector, gen.init_params(init).vector)
        data = load_checkpoint(out / "ckpt_000000.figr")
        for got, want in zip((data.phi_d, data.phi_g), expected):
            np.testing.assert_array_equal(got, want)

        arms = []

        def recording(phi_d, phi_g, disc, gen, x, cfg, draws, count):
            arms.append((phi_d.vector, phi_g.vector))
            return np.zeros((count, 1, 8, 8))

        monkeypatch.setattr(figr.cli, "figr_generate", recording)
        trained = (disc.init_params(np.random.default_rng(1)),
                   gen.init_params(np.random.default_rng(2)))
        figr.cli.evaluate_checkpoint(cfg, trained, build_dataset(cfg), disc, gen,
                                     trials=1, seed=0)
        assert len(arms) == 2
        for got, want in zip(arms[1], expected):
            np.testing.assert_array_equal(got, want)
        assert Path(figr.cli.__file__).read_text(encoding="utf-8").count("rng.INIT") == 1


CFG = RunConfig(image_size=8, latent_dim=4, base_width=4, n_blocks=1)


def small_state(cfg=CFG):
    disc, gen = Discriminator(cfg), Generator(cfg)
    init = np.random.default_rng(5)
    state = init_meta_state(disc.init_params(init), gen.init_params(init))
    state.adam_d.m += 0.5
    state.step = 3
    return state


def saved(tmp_path, state, fp=b"\x00" * 32, name="a.figr"):
    path = tmp_path / name
    save_checkpoint(path, state, fp)
    return path


def write_old_version(path, version: int) -> None:
    """Overwrite the version word of the file at path with 1 or 2, which
    carried rng stream states after the Adam moments; the reader stops at
    the version, so the rest of the file need not follow the old layout."""
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, version)
    path.write_bytes(bytes(blob))


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        state = small_state()
        fp = fingerprint(RunConfig())
        p1 = saved(tmp_path, state, fp)
        data = load_checkpoint(p1)
        rebuilt_state = small_state()
        rebuilt_state.phi_d = rebuilt_state.phi_d.with_vector(data.phi_d)
        rebuilt_state.phi_g = rebuilt_state.phi_g.with_vector(data.phi_g)
        rebuilt_state.adam_d, rebuilt_state.adam_g = data.adam_d, data.adam_g
        rebuilt_state.step = data.step
        p2 = saved(tmp_path, rebuilt_state, data.fingerprint, "b.figr")
        assert p1.read_bytes() == p2.read_bytes()

    def test_fields_round_trip(self, tmp_path):
        state = small_state()
        fp = fingerprint(RunConfig(seed=9))
        data = load_checkpoint(saved(tmp_path, state, fp))
        assert data.fingerprint == fp
        assert data.step == 3
        np.testing.assert_array_equal(data.phi_d, state.phi_d.vector)
        np.testing.assert_array_equal(data.adam_d.m, state.adam_d.m)

    def test_bad_magic(self, tmp_path):
        path = saved(tmp_path, small_state())
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(ValueError, match="^bad magic b'XXXX'$"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = saved(tmp_path, small_state())
        os.truncate(path, path.stat().st_size - 5)
        with pytest.raises(ValueError, match="^checkpoint truncated: "):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = saved(tmp_path, small_state())
        with open(path, "ab") as f:
            f.write(b"\x00")
        with pytest.raises(ValueError, match="^1 trailing bytes$"):
            load_checkpoint(path)

    def test_double_parameters_round_trip_exactly(self, tmp_path):
        state = small_state(RunConfig(image_size=8, latent_dim=4, base_width=4,
                                      n_blocks=1, precision="double"))
        data = load_checkpoint(saved(tmp_path, state))
        assert data.phi_d.dtype == np.float64 and data.phi_g.dtype == np.float64
        np.testing.assert_array_equal(data.phi_d, state.phi_d.vector)
        np.testing.assert_array_equal(data.phi_g, state.phi_g.vector)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_version_refused_by_name(self, tmp_path, version):
        path = saved(tmp_path, small_state())
        write_old_version(path, version)
        with pytest.raises(ValueError,
                           match=f"^unsupported checkpoint version {version} "
                                 r"\(this figr reads only version 3\)$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("durable", [True, False])
    @pytest.mark.parametrize("step", [3, 0])
    def test_file_is_the_format_3_layout(self, tmp_path, durable, step):
        # the header, then each network's tagged φ and its Adam state, whose
        # timestep is the step, and nothing after the generator's second
        # moment; at step 0 every moment is zero, so the file ends in a hole
        state = small_state()
        if step == 0:
            state.adam_d.m[:], state.step = 0.0, 0
        path = tmp_path / "a.figr"
        save_checkpoint(path, state, b"\x03" * 32, durable=durable)
        expected = [MAGIC, struct.pack("<I", 3), b"\x03" * 32, struct.pack("<Q", step)]
        for phi, adam in ((state.phi_d, state.adam_d), (state.phi_g, state.adam_g)):
            expected += [b"f", struct.pack("<Q", phi.total_len), phi.vector.tobytes(),
                         struct.pack("<Q", step)]
            for moment in (adam.m, adam.v):
                expected += [struct.pack("<Q", moment.size), moment.tobytes()]
        assert path.read_bytes() == b"".join(expected)

    def test_negative_zero_moments_read_back_bitwise(self, tmp_path):
        # an all-zero part is found on its bytes: -0.0 equals 0.0 but is not
        # a hole, so a check on values would read it back as +0.0
        state = small_state()
        state.adam_g.v[:] = -0.0
        data = load_checkpoint(saved(tmp_path, state))
        assert np.signbit(data.adam_g.v).all()
        assert data.adam_g.v.tobytes() == state.adam_g.v.tobytes()
        np.testing.assert_array_equal(data.adam_d.m, state.adam_d.m)

    def test_step_0_moments_take_no_disk_blocks(self, tmp_path):
        # a fresh run's zero Adam moments, four fifths of its first
        # checkpoint, are file holes, so the file allocates about φ's bytes
        probe = tmp_path / "probe"
        with open(probe, "wb") as f:
            f.seek(2**20)
            f.write(b"\x01")
        if getattr(probe.stat(), "st_blocks", 2**20) * 512 >= 2**20:
            pytest.skip("this file system keeps no holes")
        (tmp_path / "default.cfg").write_text("")
        assert figr.cli.main(["train", "--config", str(tmp_path / "default.cfg"),
                              "--steps", "0", "--out", str(tmp_path / "run")]) == 0
        path = tmp_path / "run" / "ckpt_000000.figr"
        data = load_checkpoint(path)        # the whole layout, zero moments included
        assert not data.adam_g.v.any()
        phi_bytes = data.phi_d.nbytes + data.phi_g.nbytes
        assert path.stat().st_size == 5 * phi_bytes + 114      # float32 φ, float64 moments
        assert path.stat().st_blocks * 512 < phi_bytes + 2**20, path.stat().st_blocks

    def test_save_makes_no_whole_file_copy(self, tmp_path):
        # a default-config checkpoint is about 15 MB; joining it before the
        # write would make the save's peak that large
        cfg = RunConfig()
        state = small_state(cfg)
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "a.figr", state, fingerprint(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "a.figr").stat().st_size > 15 * 10**6
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_load_makes_no_whole_file_copy(self, tmp_path):
        # each vector is read straight into the array returned for it, so
        # the load's peak is those arrays and not a second copy of the file
        cfg = RunConfig()
        state = small_state(cfg)
        path = saved(tmp_path, state, fingerprint(cfg))
        tracemalloc.start()
        try:
            data = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert data.phi_g.size == state.phi_g.vector.size
        assert peak < size + 2**20, f"peak {peak / 2**20:.2f} MiB, file {size / 2**20:.2f} MiB"

    def test_unknown_dtype_tag(self, tmp_path):
        path = saved(tmp_path, small_state())
        blob = bytearray(path.read_bytes())
        assert blob[48:49] == b"f"
        blob[48:49] = b"h"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="^unknown parameter dtype tag b'h'$"):
            load_checkpoint(path)


def vectors(data):
    return (data.phi_d, data.phi_g, data.adam_d.m, data.adam_d.v, data.adam_g.m, data.adam_g.v)


class TestLoadFromFile:
    """load_checkpoint reads the file itself, and every damaged file is
    refused with a ValueError.  Each test runs for the full read and for
    the φ-only read, which seeks past the Adam moments but checks the same
    layout with the same messages."""

    CFG = RunConfig(image_size=8, latent_dim=1, base_width=1, n_blocks=1)

    @pytest.fixture(params=[True, False], ids=["full", "phi-only"])
    def moments(self, request):
        return request.param

    @pytest.fixture()
    def path(self, tmp_path):
        return saved(tmp_path, small_state(self.CFG), b"\x04" * 32, "tiny.figr")

    def test_cut_at_every_offset_names_it(self, path, moments):
        # each cut shortens the same file, so every prefix is read from disk
        for end in range(path.stat().st_size - 1, -1, -1):
            os.truncate(path, end)
            try:
                load_checkpoint(path, moments)
            except ValueError as exc:
                assert str(exc).endswith(f"but it ends at byte {end}"), (end, str(exc))
            else:
                pytest.fail(f"a file cut at byte {end} loaded")

    def test_empty_file(self, path, moments):
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="^checkpoint truncated: 4 bytes wanted at byte 0, "
                                             "but it ends at byte 0$"):
            load_checkpoint(path, moments)

    def test_appended_byte(self, path, moments):
        with open(path, "ab") as f:
            f.write(b"\x00")
        with pytest.raises(ValueError, match="^1 trailing bytes$"):
            load_checkpoint(path, moments)

    def test_huge_declared_length_refused_before_allocating(self, path, moments):
        # the first moment's length field follows the tag, phi_d and Adam's timestep
        blob = bytearray(path.read_bytes())
        (n,) = struct.unpack_from("<Q", blob, 49)
        at = 49 + 8 + 4 * n + 8
        assert struct.unpack_from("<Q", blob, at) == (n,)
        struct.pack_into("<Q", blob, at, 2**40)
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^checkpoint truncated: {2**43} bytes "
                                                 f"wanted at byte {at + 8}, "):
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
        with pytest.raises(ValueError, match="^moment vectors do not match parameter length$"):
            load_checkpoint(path, moments)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_version_refused(self, path, moments, version):
        write_old_version(path, version)
        with pytest.raises(ValueError, match=f"^unsupported checkpoint version {version} "):
            load_checkpoint(path, moments)

    @pytest.mark.parametrize("net", ["critic", "generator"])
    def test_timestep_other_than_the_step_refused(self, path, moments, net):
        # Adam's timestep is the outer step; a file whose timestep field says
        # otherwise was written by hand, and is refused naming both
        blob = bytearray(path.read_bytes())
        (n,) = struct.unpack_from("<Q", blob, 49)
        at = 49 + 8 + 4 * n
        if net == "generator":
            tag = at + 8 + 2 * (8 + 8 * n)
            (n_g,) = struct.unpack_from("<Q", blob, tag + 1)
            at = tag + 1 + 8 + 4 * n_g
        assert struct.unpack_from("<Q", blob, at) == (3,)
        struct.pack_into("<Q", blob, at, 4)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError,
                           match="^Adam timestep 4 differs from the checkpoint's step 3$"):
            load_checkpoint(path, moments)

    def test_fields_equal_the_state_and_vectors_are_owned(self, path, moments):
        # the full read returns every vector; the φ-only read returns None
        # for the moments
        state, data = small_state(self.CFG), load_checkpoint(path, moments)
        assert (data.fingerprint, data.step) == (b"\x04" * 32, 3)
        ref = (state.phi_d.vector, state.phi_g.vector, state.adam_d.m, state.adam_d.v,
               state.adam_g.m, state.adam_g.v)
        read = vectors(data) if moments else (data.phi_d, data.phi_g)
        for vec, expected in zip(read, ref):
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
        with pytest.raises(ValueError, match=f"^checkpoint truncated: {8 * n} bytes wanted "
                                             f"at byte {start}, but it ends at byte "
                                             f"{start + 4 * n}$"):
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
