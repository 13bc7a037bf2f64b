import argparse
import builtins
import csv
import ctypes
import io
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import figr.cli
from figr import rng
from figr.checkpoint import save_checkpoint
from figr.cli import CSV_HEADER, main
from figr.config import RunConfig, build_dataset, fingerprint, load_config
from figr.data import load_shard, pack_shard, read_pgm, sample_images, sample_task, write_pgm
from figr.evaluation import to_uint8
from figr.models import Discriminator, Generator
from figr.reptile import figr_generate, init_meta_state

SRC = str(Path(__file__).resolve().parents[1] / "src")

TINY_CFG = """
# desk-scale smoke configuration
image_size = 8
latent_dim = 6
base_width = 4
n_blocks = 1
k = 2
n = 2
inner_lr = 0.0001
outer_lr = 0.0001
synth_classes = 6
synth_per_class = 4
n_validation = 2
split_seed = 3
meta_steps = 6
checkpoint_every = 3
sample_every = 3
seed = 11
"""


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(TINY_CFG + f"out_dir = {tmp_path / 'run'}\n")
    return p


def run_cli(*argv):
    return main([str(a) for a in argv])


def raw_shard(classes):
    """FGR8 bytes of (name, (n, h, w)) zero classes, written without
    pack_shard's checks."""
    blob = b"FGR8" + struct.pack("<II", 1, len(classes))
    for name, (n, h, w) in classes:
        blob += struct.pack("<H", len(name)) + name.encode() + struct.pack("<IHH", n, h, w)
        blob += bytes(n * h * w)
    return blob


def log_rows(out):
    """The train log's rows without their seconds field."""
    lines = (out / "train_log.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.rsplit(",", 1)[0].split(",") for line in lines[1:]]


def write_old_version(path, version):
    """Overwrite the version word of the checkpoint at path (1 or 2: the
    formats that stored rng stream states; 3: the one that wrote φ's length
    again before each moment)."""
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, version)
    path.write_bytes(bytes(blob))


def _int_flags():
    """(command, flag, floor) of every integer flag of every command."""
    sub = next(a for a in figr.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0], figr.cli.FLOORS[action.dest])
            for command, parser in sub.choices.items()
            for action in parser._actions if action.type is int]


INT_FLAGS = _int_flags()


def test_every_integer_flag_is_swept():
    # a new integer flag needs a floor; a KeyError in _int_flags names it
    assert sorted({(c, f) for c, f, _ in INT_FLAGS}) == [
        ("eval", "--seed"), ("eval", "--trials"), ("generate", "--count"),
        ("generate", "--k"), ("generate", "--n"), ("generate", "--seed"),
        ("gradcheck", "--seed"), ("gradcheck", "--trials"), ("train", "--steps")]


class TestTrain:
    def test_zero_steps_writes_initial_checkpoint_only(self, cfg_path, tmp_path):
        out = tmp_path / "zero"
        assert run_cli("train", "--config", cfg_path, "--steps", 0, "--out", out) == 0
        ckpts = sorted(p.name for p in out.glob("ckpt_*.figr"))
        assert ckpts == ["ckpt_000000.figr"]

    def test_full_run_artifacts(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path) == 0
        names = {p.name for p in out.iterdir()}
        assert {"ckpt_000000.figr", "ckpt_000003.figr", "ckpt_000006.figr",
                "train_log.csv", "config.cfg"} <= names
        log = (out / "train_log.csv").read_text().strip().splitlines()
        assert log[0].startswith("step,task_id")
        assert len(log) == 7  # header + 6 steps
        assert (out / "samples_000003.pgm").exists()
        read_pgm((out / "samples_000003.pgm").read_bytes())  # valid image

    def test_training_montage_layout(self, cfg_path, tmp_path):
        # samples_000003.pgm: the n = 2 images drawn from (MONTAGE, 3) as the
        # top row, then three rows of the images generated from step 3's phi,
        # with 2 px white separators between the 8 px tiles
        assert run_cli("train", "--config", cfg_path, "--steps", 3) == 0
        cfg = load_config(cfg_path)
        img = read_pgm((tmp_path / "run" / "samples_000003.pgm").read_bytes())
        assert img.shape == (4 * 8 + 3 * 2, 2 * 8 + 2)
        draws = rng.derive(cfg.seed, rng.MONTAGE, 3)
        _, task = sample_task(build_dataset(cfg), draws, split="validation")
        x = sample_images(task, cfg.n, draws)
        disc, gen, state = figr.cli._restore(cfg, tmp_path / "run" / "ckpt_000003.figr")
        tiles = to_uint8(np.concatenate([x, figr_generate(state.phi_d, state.phi_g, disc, gen,
                                                          x, cfg, draws, count=3 * cfg.n)])[:, 0])
        for i, tile in enumerate(tiles):
            r, c = divmod(i, 2)
            np.testing.assert_array_equal(img[r * 10:r * 10 + 8, c * 10:c * 10 + 8], tile)
        for gap in (8, 18, 28):
            np.testing.assert_array_equal(img[gap:gap + 2], 255)
        np.testing.assert_array_equal(img[:, 8:10], 255)

    def test_same_seed_runs_are_byte_identical(self, cfg_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("train", "--config", cfg_path, "--out", a)
        run_cli("train", "--config", cfg_path, "--out", b)
        for step in ("000003", "000006"):
            assert (a / f"ckpt_{step}.figr").read_bytes() == \
                   (b / f"ckpt_{step}.figr").read_bytes()

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_resume_from_every_step_is_byte_identical(self, tmp_path, precision):
        # step t's draws are a function of (seed, t), so a checkpoint needs
        # no rng state and a resume from any step continues exactly; a
        # double run's parameters are checkpointed at their own precision
        cfg_path = tmp_path / "every.cfg"
        cfg_path.write_text(TINY_CFG.replace("checkpoint_every = 3", "checkpoint_every = 1")
                            + f"precision = {precision}\n")
        full = tmp_path / "full"
        assert run_cli("train", "--config", cfg_path, "--out", full) == 0
        final, rows = (full / "ckpt_000006.figr").read_bytes(), log_rows(full)
        assert [r[0] for r in rows] == ["1", "2", "3", "4", "5", "6"]
        for step in range(6):
            fresh = tmp_path / f"from{step}"
            assert run_cli("train", "--config", cfg_path, "--out", fresh,
                           "--resume", full / f"ckpt_{step:06d}.figr") == 0
            assert (fresh / "ckpt_000006.figr").read_bytes() == final, step
            assert log_rows(fresh) == rows[step:], step

    def test_cadences_do_not_move_training(self, tmp_path):
        # the montage draws from its own key and a checkpoint holds no rng
        # state, so neither cadence changes what training computes
        finals = set()
        for sample_every in (0, 1, 3):
            for checkpoint_every in (1, 6):
                cfg_path = tmp_path / f"s{sample_every}c{checkpoint_every}.cfg"
                cfg_path.write_text(TINY_CFG.replace("checkpoint_every = 3", "")
                                    .replace("sample_every = 3", "")
                                    + f"sample_every = {sample_every}\n"
                                    + f"checkpoint_every = {checkpoint_every}\n")
                out = tmp_path / cfg_path.stem
                assert run_cli("train", "--config", cfg_path, "--out", out) == 0
                assert len(list(out.glob("samples_*.pgm"))) == (
                    0 if sample_every == 0 else 6 // sample_every)
                finals.add((out / "ckpt_000006.figr").read_bytes())
        assert len(finals) == 1

    def test_hard_kill_after_checkpoint_keeps_its_steps_in_the_log(self, cfg_path, tmp_path):
        # the log is cut back to a checkpoint on resume, never filled in, so
        # it must hold every step of a checkpoint before the checkpoint exists
        out = tmp_path / "killed"
        code = ("import os, sys\n"
                "import figr.cli\n"
                "save = figr.cli.save_checkpoint\n"
                "def save_then_die(path, *args, **kwargs):\n"
                "    save(path, *args, **kwargs)\n"
                "    if path.name == 'ckpt_000003.figr':\n"
                "        os._exit(9)\n"
                "figr.cli.save_checkpoint = save_then_die\n"
                "figr.cli.main(sys.argv[1:])\n")
        proc = subprocess.run([sys.executable, "-c", code, "train", "--config", str(cfg_path),
                               "--out", str(out)], env={**os.environ, "PYTHONPATH": SRC},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 9, proc.stderr
        rows = (out / "train_log.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "2", "3"]

    def test_resume_at_target_into_fresh_dir_writes_its_checkpoint(self, cfg_path, tmp_path):
        # a run that starts at its target takes no step, but its directory
        # still gets the checkpoint it stands at
        part, fresh = tmp_path / "part", tmp_path / "fresh"
        run_cli("train", "--config", cfg_path, "--out", part, "--steps", 3)
        assert run_cli("train", "--config", cfg_path, "--out", fresh, "--steps", 3,
                       "--resume", part / "ckpt_000003.figr") == 0
        assert (fresh / "ckpt_000003.figr").read_bytes() == \
               (part / "ckpt_000003.figr").read_bytes()

    def test_resume_reconciles_log_with_checkpoint(self, cfg_path, tmp_path):
        full, fresh = tmp_path / "full", tmp_path / "fresh"
        run_cli("train", "--config", cfg_path, "--out", full)
        uninterrupted = log_rows(full)
        assert [r[0] for r in uninterrupted] == ["1", "2", "3", "4", "5", "6"]
        # resume in place from an earlier checkpoint than the log's last row
        assert run_cli("train", "--config", cfg_path, "--out", full,
                       "--resume", full / "ckpt_000003.figr") == 0
        assert log_rows(full) == uninterrupted
        # resume into a directory with no log
        assert run_cli("train", "--config", cfg_path, "--out", fresh,
                       "--resume", full / "ckpt_000003.figr") == 0
        assert log_rows(fresh) == uninterrupted[3:]

    def test_interrupted_log_rewrite_keeps_the_old_log(self, tmp_path, monkeypatch):
        # a rewrite that dies partway (a full disk, a kill) must not leave
        # the log cut short: rows a checkpoint still claims would be lost
        log = tmp_path / "train_log.csv"
        old = figr.cli.CSV_HEADER + "\n" + "".join(f"{s},0,1,2,3,4,0.5\n" for s in (1, 2, 3))
        log.write_text(old)
        real_open = io.open

        class HalfWritten:
            def __init__(self, f):
                self.f = f

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                self.f.flush()
                raise OSError("disk full")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def __getattr__(self, name):
                return getattr(self.f, name)

        def failing_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            return HalfWritten(f) if "w" in mode else f

        with monkeypatch.context() as m:
            m.setattr(builtins, "open", failing_open)
            m.setattr(io, "open", failing_open)
            with pytest.raises(OSError, match="disk full"):
                figr.cli._reconcile_log(log, 2)
        assert log.read_text() == old
        assert [p.name for p in tmp_path.iterdir()] == ["train_log.csv"]

    def test_log_reaches_disk_before_each_checkpoint(self, cfg_path, tmp_path, monkeypatch):
        # a power loss may keep a checkpoint whose log rows never reached the
        # disk, and a resume cuts the log back but cannot restore rows
        out = tmp_path / "run"
        synced = []
        real_fsync = os.fsync

        def recording(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording)
        assert run_cli("train", "--config", cfg_path, "--out", out) == 0
        log = (out / "train_log.csv").stat().st_ino
        for step in (3, 6):
            ckpt = synced.index((out / f"ckpt_{step:06d}.figr").stat().st_ino)
            assert ckpt > 0 and synced[ckpt - 1] == log, step

    def test_non_finite_step_stops_run(self, cfg_path, tmp_path, monkeypatch, capsys):
        clean, bad = tmp_path / "clean", tmp_path / "bad"
        run_cli("train", "--config", cfg_path, "--out", clean, "--steps", 0)

        real = figr.cli.build_dataset

        def poisoned(cfg):
            ds = real(cfg)
            for c in ds.classes:
                c.images[:, 0, 0, 0] = np.nan
            return ds

        monkeypatch.setattr(figr.cli, "build_dataset", poisoned)
        rc = run_cli("train", "--config", cfg_path, "--out", bad, "--steps", 3)
        assert rc == 2
        assert "meta-step 1 on task" in capsys.readouterr().err
        assert sorted(p.name for p in bad.glob("ckpt_*.figr")) == ["ckpt_000000.figr"]
        assert (bad / "ckpt_000000.figr").read_bytes() == \
               (clean / "ckpt_000000.figr").read_bytes()
        assert len((bad / "train_log.csv").read_text().splitlines()) == 1

    def test_outer_step_overflow_stops_run(self, tmp_path, capsys):
        # a finite outer_lr too large for float32 phi: no checkpoint past step 0
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(TINY_CFG.replace("outer_lr = 0.0001", "outer_lr = 1e300"))
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--out", out, "--steps", 3) == 2
        assert "meta-step 1 on task" in capsys.readouterr().err
        assert sorted(p.name for p in out.glob("ckpt_*.figr")) == ["ckpt_000000.figr"]

    def test_resume_rejects_drifted_config(self, cfg_path, tmp_path):
        out = tmp_path / "drift"
        run_cli("train", "--config", cfg_path, "--out", out, "--steps", 3)
        drifted = tmp_path / "drifted.cfg"
        drifted.write_text(cfg_path.read_text().replace(
            "inner_lr = 0.0001", "inner_lr = 0.0002"))
        rc = run_cli("train", "--config", drifted, "--out", out,
                     "--resume", out / "ckpt_000003.figr")
        assert rc == 2

    def test_refused_resume_makes_no_out_dir(self, cfg_path, tmp_path, capsys):
        bad = tmp_path / "bad.figr"
        bad.write_bytes(b"not a checkpoint")
        out = tmp_path / "fresh"
        assert run_cli("train", "--config", cfg_path, "--out", out, "--resume", bad) == 2
        assert "bad magic" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_checkpoint_version_is_one_error_line(self, cfg_path, tmp_path, capsys,
                                                      version):
        # versions 1 and 2 stored rng streams that a resume could not continue,
        # and version 3's fingerprints cover two keys since deleted
        run = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", run, "--steps", 0) == 0
        ckpt = run / "ckpt_000000.figr"
        write_old_version(ckpt, version)
        fresh = tmp_path / "fresh"
        capsys.readouterr()
        for argv in (("train", "--config", cfg_path, "--out", fresh, "--resume", ckpt),
                     ("eval", "--config", cfg_path, "--checkpoint", ckpt, "--trials", 1),
                     ("generate", "--config", cfg_path, "--checkpoint", ckpt,
                      "--out", tmp_path / "gen")):
            assert run_cli(*argv) == 2
            err = capsys.readouterr().err
            assert err == (f"error: unsupported checkpoint version {version} "
                           "(this figr reads only version 4)\n"), argv[0]
        assert not fresh.exists()

    def test_cut_checkpoint_is_one_error_line_naming_its_offset(self, cfg_path, tmp_path,
                                                                capsys):
        # cut inside phi_d, which starts at byte 57; the resume writes nothing
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out, "--steps", 3) == 0
        ckpt = out / "ckpt_000003.figr"
        os.truncate(ckpt, 157)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        for argv in (("eval", "--config", cfg_path, "--checkpoint", ckpt, "--trials", 1),
                     ("train", "--config", cfg_path, "--out", out, "--resume", ckpt)):
            assert run_cli(*argv) == 2
            out_text, err = capsys.readouterr()
            assert err.startswith("error: checkpoint truncated:") and err.count("\n") == 1
            assert "wanted at byte 57, but it ends at byte 157" in err
            assert out_text == ""
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("width", ["wider", "narrower"])
    def test_resume_refuses_log_with_another_header(self, cfg_path, tmp_path, capsys, width):
        # rows of another width would all be dropped as torn by the log's cut
        out = tmp_path / "run"
        run_cli("train", "--config", cfg_path, "--out", out, "--steps", 3)
        log = out / "train_log.csv"
        lines = log.read_text().splitlines()
        if width == "wider":
            foreign = [line + ",extra" for line in lines]
        else:
            foreign = [line.rsplit(",", 1)[0] for line in lines]
        log.write_text("\n".join(foreign) + "\n")
        capsys.readouterr()
        assert run_cli("train", "--config", cfg_path, "--out", out, "--steps", 4,
                       "--resume", out / "ckpt_000003.figr") == 2
        err = capsys.readouterr().err
        assert repr(foreign[0]) in err and repr(CSV_HEADER) in err and "--out" in err
        assert log.read_text().splitlines() == foreign
        assert not (out / "ckpt_000004.figr").exists()
        # a fresh start owns the directory and rewrites the log
        assert run_cli("train", "--config", cfg_path, "--out", out, "--steps", 0) == 0
        assert log.read_text() == CSV_HEADER + "\n"

    def test_refuses_shard_class_without_pixels(self, tmp_path, capsys):
        # pack_shard refuses such a class, so the shard is written by hand
        shard = tmp_path / "flat.fgr8"
        shard.write_bytes(raw_shard([("a", (4, 8, 8)), ("b", (4, 8, 8)), ("c", (4, 8, 8)),
                                     ("flat", (4, 0, 8))]))
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(TINY_CFG + f"dataset_path = {shard}\n")
        capsys.readouterr()
        assert run_cli("train", "--config", cfg, "--steps", 1,
                       "--out", tmp_path / "run") == 2
        assert "'flat' has no images or no pixels" in capsys.readouterr().err

    def test_refuses_shard_with_repeated_class_name(self, tmp_path, capsys):
        # holding out "a" by name would leave its namesake in the train split
        shard = tmp_path / "twice.fgr8"
        shard.write_bytes(raw_shard([("a", (4, 8, 8)), ("b", (4, 8, 8)), ("c", (4, 8, 8)),
                                     ("a", (4, 8, 8))]))
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(TINY_CFG + f"dataset_path = {shard}\nvalidation_classes = a\n")
        capsys.readouterr()
        assert run_cli("train", "--config", cfg, "--steps", 1,
                       "--out", tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert err == "error: class names ['a'] appear more than once in the shard\n"
        assert not (tmp_path / "run").exists()

    def test_holds_out_a_class_whose_name_holds_a_comma(self, tmp_path, capsys):
        # validation_classes is one CSV row, so a quoted name may hold a comma
        shard = tmp_path / "comma.fgr8"
        shard.write_bytes(raw_shard([("a,b", (4, 8, 8)), ("c", (4, 8, 8)), ("d", (4, 8, 8))]))
        cfg = tmp_path / "comma.cfg"
        cfg.write_text(TINY_CFG + f'dataset_path = {shard}\nvalidation_classes = "a,b"\n')
        ds = build_dataset(load_config(cfg))
        assert [ds.classes[i].name for i in ds.val_ids] == ["a,b"]
        assert run_cli("train", "--config", cfg, "--steps", 1,
                       "--out", tmp_path / "run") == 0, capsys.readouterr().err

    def test_failed_allocation_is_one_error_line(self, tmp_path):
        # a child lowers its own address-space limit after its imports, so
        # φ at base_width 4096 (3.5 GiB) is refused before any page is touched
        pytest.importorskip("resource")
        if not Path("/proc/self/statm").exists():
            pytest.skip("the child reads its size from /proc/self/statm")
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(TINY_CFG.replace("base_width = 4", "base_width = 4096"))
        code = ("import os, resource, sys\n"
                "import figr.cli\n"
                "pages = int(open('/proc/self/statm').read().split()[0])\n"
                "limit = pages * os.sysconf('SC_PAGE_SIZE') + 2**26\n"
                "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
                "if hard != resource.RLIM_INFINITY:\n"
                "    limit = min(limit, hard)\n"
                "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
                "sys.exit(figr.cli.main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", code, "train", "--config", str(cfg),
                               "--out", str(tmp_path / "run")],
                              env={**os.environ, "PYTHONPATH": SRC},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert re.fullmatch(r"error: out of memory: Unable to allocate [\d.]+ GiB for an array "
                            r"with shape \(\d+,\) and data type float32\n",
                            proc.stderr), proc.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("old,new", [("k = 2", "k = 0"),
                                         ("image_size = 8", "image_size = 32"),
                                         ("outer_lr = 0.0001", "outer_lr = inf")],
                             ids=["k0", "32px-1-block", "outer-lr-inf"])
    def test_invalid_config_writes_nothing(self, tmp_path, capsys, old, new):
        # the config is refused at parse, before the run makes --out
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CFG.replace(old, new))
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--out", out) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old,new", [("n_validation = 2", "n_validation = -1"),
                                         ("meta_steps = 6", "meta_steps = -1"),
                                         ("checkpoint_every = 3", "checkpoint_every = -1"),
                                         ("sample_every = 3", "sample_every = -2"),
                                         ("seed = 11", "seed = -1"),
                                         ("split_seed = 3", "split_seed = -1")],
                             ids=["n_validation", "meta_steps", "checkpoint_every",
                                  "sample_every", "seed", "split_seed"])
    def test_negative_count_or_cadence_refused(self, tmp_path, capsys, old, new):
        # 0 means none or never; a negative value is refused at parse, where
        # checkpoint_every = -1 would otherwise save at every step, and a
        # negative seed would fail in numpy without naming its key
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CFG.replace(old, new))
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--out", out) == 2
        key = new.split(" = ")[0]
        assert f"{key} must be >= 0" in capsys.readouterr().err
        assert not out.exists()
        cfg.write_text(TINY_CFG.replace(old, f"{key} = 0"))
        assert run_cli("train", "--config", cfg, "--out", out, "--steps", 1) == 0

    def test_64px_synth_run_trains(self, tmp_path):
        # the synthetic corpus renders at every image_size the config accepts
        cfg = tmp_path / "64.cfg"
        cfg.write_text(TINY_CFG.replace("image_size = 8", "image_size = 64").replace(
            "n_blocks = 1", "n_blocks = 4").replace("base_width = 4", "base_width = 1")
            .replace("k = 2", "k = 1"))
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--steps", 1, "--out", out) == 0
        assert (out / "ckpt_000001.figr").exists()

    def test_negative_steps_refused(self, cfg_path, tmp_path, capsys):
        # the same value as meta_steps is refused at parse
        out = tmp_path / "run"
        capsys.readouterr()
        assert run_cli("train", "--config", cfg_path, "--steps", -3, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == "error: --steps must be >= 0, got -3\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "generate", "gradcheck"])
    def test_negative_seed_flag_refused_before_any_work(self, cfg_path, tmp_path,
                                                         monkeypatch, capsys, command):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("load_config", "run_gradcheck"):
            monkeypatch.setattr(figr.cli, name, no_work)
        argv = {"eval": ("eval", "--config", cfg_path, "--checkpoint", tmp_path / "c.figr"),
                "generate": ("generate", "--config", cfg_path, "--checkpoint",
                             tmp_path / "c.figr", "--out", tmp_path / "gen"),
                "gradcheck": ("gradcheck", "--trials", 1)}[command]
        capsys.readouterr()
        assert run_cli(*argv, "--seed", -1) == 2
        assert capsys.readouterr() == ("", "error: --seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("command,flag,value", [
        (command, flag, value) for command, flag, floor in INT_FLAGS
        for value in ("x", "1.5", "", str(floor - 1))])
    def test_integer_flag_refused_before_any_work(self, cfg_path, tmp_path, monkeypatch,
                                                  capsys, command, flag, value):
        # a value that is not an integer, or is below the flag's floor, is
        # refused in one line naming the flag before any input is read
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("load_config", "run_gradcheck"):
            monkeypatch.setattr(figr.cli, name, no_work)
        argv = {"train": ("train", "--config", cfg_path, "--out", tmp_path / "run"),
                "generate": ("generate", "--config", cfg_path, "--checkpoint",
                             tmp_path / "c.figr", "--out", tmp_path / "gen"),
                "eval": ("eval", "--config", cfg_path, "--checkpoint", tmp_path / "c.figr"),
                "gradcheck": ("gradcheck",)}[command]
        before = snapshot(tmp_path)
        capsys.readouterr()
        assert run_cli(*argv, flag, value) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err, err
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("key", ["n", "k", "synth_classes"])
    def test_int_past_a_c_long_refused_before_any_file(self, tmp_path, capsys, key):
        # numpy takes no such int: n failed at step 1's first draw, after the
        # step-0 files were written, and k and synth_classes ran for minutes
        cfg = tmp_path / "big.cfg"
        cfg.write_text(re.sub(rf"^{key} = \d+$", f"{key} = {10**20}", TINY_CFG, flags=re.M))
        before = snapshot(tmp_path)
        capsys.readouterr()
        assert run_cli("train", "--config", cfg, "--steps", 1, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {key} must be < 2**63, got {10**20}\n"
        assert snapshot(tmp_path) == before

    def test_help_exits_zero_with_usage_on_stdout(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--help")
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: figr train") and err == ""

    @pytest.mark.parametrize("case", [
        "train-config-dir", "train-out-file", "stats-shard-dir", "eval-checkpoint-dir",
        "config-bad-value", "config-unknown-key", "config-refused",
        "shard-bad-magic", "shard-truncated", "idx-count-mismatch", "idx-dir-without-files",
        "checkpoint-truncated", "checkpoint-old-version", "checkpoint-foreign-fingerprint",
        "validation-empty", "validation-too-many", "train-diverges", "train-n-overflow",
        "eval-seed-negative", "generate-seed-negative", "gradcheck-seed-negative",
        "generate-count-zero", "eval-trials-zero", "generate-k-zero", "generate-n-zero",
        "no-command", "unknown-command", "unknown-flag", "missing-config", "split-bogus"])
    def test_input_failure_is_one_error_line(self, cfg_path, tmp_path, capsys, case):
        # every ValueError and OSError a command meets in its input exits 2
        # with one line naming the failure, not a traceback, and writes nothing
        argv, message = input_failure(case, cfg_path, tmp_path)
        before = snapshot(tmp_path)
        capsys.readouterr()
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(f"error: {message}\n", err), err
        assert snapshot(tmp_path) == before


def snapshot(root):
    """Every path under root, with the bytes of each file."""
    return {p: p.is_file() and p.read_bytes() for p in root.rglob("*")}


def input_failure(case, cfg_path, tmp_path):
    """The argv of a command whose input fails as `case` names, made ready
    under tmp_path, and a regex for the message it must fail with."""
    def config(text):
        path = tmp_path / "case.cfg"
        path.write_text(text)
        return path

    def dataset(path):
        return config(TINY_CFG + f"dataset_path = {path}\n")

    def checkpoint(cfg):
        assert run_cli("train", "--config", cfg, "--steps", 0, "--out", tmp_path / "ck") == 0
        return tmp_path / "ck" / "ckpt_000000.figr"

    def train(cfg):
        return ("train", "--config", cfg, "--steps", 1, "--out", tmp_path / "out")

    def evaluate(cfg, ckpt):
        return ("eval", "--config", cfg, "--checkpoint", ckpt, "--trials", 1)

    def generate(*flags):
        return ("generate", "--config", cfg_path, "--checkpoint", tmp_path / "c.figr",
                "--out", tmp_path / "gen", *flags)

    errno = r"\[Errno \d+\] [^\n]+"
    if case == "train-config-dir":
        return ("train", "--config", tmp_path), errno
    if case == "train-out-file":
        return ("train", "--config", cfg_path, "--out", cfg_path), errno
    if case == "stats-shard-dir":
        return ("stats", "--shard", tmp_path), errno
    if case == "eval-checkpoint-dir":
        return evaluate(cfg_path, tmp_path), errno
    if case == "config-bad-value":
        return (train(config(TINY_CFG.replace("k = 2", "k = soon"))),
                r"line \d+: bad value for 'k': invalid literal for int\(\) with base 10: 'soon'")
    if case == "config-unknown-key":
        return train(config(TINY_CFG + "k_typo = 3\n")), r"line \d+: unknown key 'k_typo'"
    if case == "config-refused":
        return (train(config(TINY_CFG.replace("k = 2", "k = 0"))),
                re.escape("need k >= 1, n >= 1, inner_lr >= 0, gp_lambda >= 0"))
    if case == "shard-bad-magic":
        (tmp_path / "bad.fgr8").write_bytes(b"NOPE" + bytes(20))
        return (train(dataset(tmp_path / "bad.fgr8")),
                re.escape("shard magic b'NOPE' != b'FGR8'"))
    if case == "shard-truncated":
        blob = raw_shard([(name, (4, 8, 8)) for name in "abcd"])
        (tmp_path / "cut.fgr8").write_bytes(blob[:-10])
        return (train(dataset(tmp_path / "cut.fgr8")),
                f"shard truncated: 256 bytes wanted at byte {len(blob) - 256}, "
                f"but it ends at byte {len(blob) - 10}")
    if case == "idx-count-mismatch":
        (tmp_path / "idx").mkdir()
        (tmp_path / "idx" / "train-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 0x803, 2, 8, 8) + bytes(2 * 8 * 8))
        (tmp_path / "idx" / "train-labels-idx1-ubyte").write_bytes(
            struct.pack(">II", 0x801, 3) + bytes(3))
        return train(dataset(tmp_path / "idx")), "2 images vs 3 labels"
    if case == "idx-dir-without-files":
        # a directory is read as an IDX pair, so its missing images file is named
        (tmp_path / "empty").mkdir()
        return (train(dataset(tmp_path / "empty")),
                r"\[Errno 2\] No such file or directory: '[^']*/empty/train-images-idx3-ubyte'")
    if case == "checkpoint-truncated":
        ckpt = checkpoint(cfg_path)
        os.truncate(ckpt, 157)
        return (evaluate(cfg_path, ckpt),
                r"checkpoint truncated: \d+ bytes wanted at byte 57, but it ends at byte 157")
    if case == "checkpoint-old-version":
        ckpt = checkpoint(cfg_path)
        write_old_version(ckpt, 2)
        return (evaluate(cfg_path, ckpt),
                re.escape("unsupported checkpoint version 2 (this figr reads only version 4)"))
    if case == "checkpoint-foreign-fingerprint":
        ckpt = checkpoint(cfg_path)
        return (evaluate(config(TINY_CFG.replace("seed = 11", "seed = 12")), ckpt),
                "config fingerprint does not match the checkpoint; "
                "refusing to use it with drifted hyperparameters")
    if case == "validation-empty":
        cfg = config(TINY_CFG.replace("n_validation = 2", "n_validation = 0"))
        return evaluate(cfg, checkpoint(cfg)), "validation split is empty"
    if case.endswith("-seed-negative"):
        argv = {"eval": evaluate(cfg_path, tmp_path / "c.figr"), "generate": generate(),
                "gradcheck": ("gradcheck", "--trials", 1)}[case.split("-")[0]]
        return argv + ("--seed", -1), re.escape("--seed must be >= 0, got -1")
    if case == "generate-count-zero":
        return generate("--count", 0), re.escape("--count must be >= 1, got 0")
    # refused before the checkpoint, which does not exist, is read
    if case == "eval-trials-zero":
        return (evaluate(cfg_path, tmp_path / "c.figr") + ("--trials", 0),
                re.escape("--trials must be >= 1, got 0"))
    if case in ("generate-k-zero", "generate-n-zero"):
        flag = "--" + case.split("-")[1]
        return generate(flag, 0), re.escape(f"{flag} must be >= 1, got 0")
    # argparse's refusals
    if case == "no-command":
        return (), "the following arguments are required: command"
    if case == "unknown-command":
        return ("bogus",), r"argument command: invalid choice: 'bogus' \(choose from .+\)"
    if case == "unknown-flag":
        return train(cfg_path) + ("--bogus",), "unrecognized arguments: --bogus"
    if case == "missing-config":
        return ("train", "--steps", 1), "the following arguments are required: --config"
    if case == "split-bogus":
        return (generate("--split", "bogus"),
                re.escape("argument --split: invalid choice: 'bogus' "
                          "(choose from 'train', 'validation')"))
    if case == "validation-too-many":
        return (train(config(TINY_CFG.replace("n_validation = 2", "n_validation = 6"))),
                "6 validation of 6 classes")
    if case == "train-n-overflow":
        # an n no C long holds is refused at parse, before any file is written
        cfg = config(TINY_CFG.replace("\nn = 2\n", "\nn = 100000000000000000000\n"))
        return train(cfg), re.escape("n must be < 2**63, got 100000000000000000000")
    # the step-0 files the failing run rewrites are made first, so it leaves
    # the tree as it found it
    assert case == "train-diverges"
    # numpy's overflow warnings, errors under pytest, must not precede the line
    cfg = config(TINY_CFG.replace("inner_lr = 0.0001", "inner_lr = 1000"))
    assert run_cli("train", "--config", cfg, "--steps", 0, "--out", tmp_path / "out") == 0
    return train(cfg), r"meta-step 1 on task \d+: non-finite critic loss, generator loss, " \
                       r"critic delta, generator delta"


class TestGenerateEval:
    @pytest.fixture()
    def trained(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        run_cli("train", "--config", cfg_path)
        return out / "ckpt_000006.figr"

    def test_generate_montage_layout(self, cfg_path, trained, tmp_path):
        out = tmp_path / "gen"
        assert run_cli("generate", "--config", cfg_path, "--checkpoint", trained,
                       "--count", 4, "--seed", 7, "--out", out) == 0
        img = read_pgm((out / "montage.pgm").read_bytes())
        # n=2 conditioning + 4 generated in rows of 2: 3 rows of 8px + 2 sep rows
        assert img.shape == (3 * 8 + 2 * 2, 2 * 8 + 2)
        with open(out / "generated.fgr8", "rb") as f:
            (_, images), = load_shard(f)
        assert images.shape == (4, 8, 8)

    def test_generate_count_across_chunks(self, cfg_path, trained, tmp_path):
        # 40 images are sampled in three chunks (16, 16, 8)
        out = tmp_path / "gen"
        assert run_cli("generate", "--config", cfg_path, "--checkpoint", trained,
                       "--count", 40, "--seed", 7, "--out", out) == 0
        img = read_pgm((out / "montage.pgm").read_bytes())
        # n=2 conditioning + 40 generated in rows of 2: 21 rows, 20 separators
        assert img.shape == (21 * 8 + 20 * 2, 2 * 8 + 2)
        with open(out / "generated.fgr8", "rb") as f:
            (_, images), = load_shard(f)
        assert images.shape == (40, 8, 8)
        assert len(np.unique(images.reshape(40, -1), axis=0)) == 40

    def test_generate_deterministic(self, cfg_path, trained, tmp_path):
        outs = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            run_cli("generate", "--config", cfg_path, "--checkpoint", trained,
                    "--count", 3, "--seed", 5, "--out", out)
            outs.append((out / "montage.pgm").read_bytes())
        assert outs[0] == outs[1]

    def test_generate_out_that_cannot_be_made_fails_before_adapting(
            self, cfg_path, trained, tmp_path, monkeypatch, capsys):
        def no_adapting(*args, **kwargs):
            raise AssertionError("adapted")

        monkeypatch.setattr(figr.cli, "figr_generate", no_adapting)
        (tmp_path / "afile").write_text("")
        capsys.readouterr()
        assert run_cli("generate", "--config", cfg_path, "--checkpoint", trained,
                       "--out", tmp_path / "afile" / "gen") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_generate_count_validated(self, cfg_path, trained, tmp_path, capsys):
        capsys.readouterr()
        assert run_cli("generate", "--config", cfg_path, "--checkpoint", trained,
                       "--count", 0, "--out", tmp_path / "x") == 2
        assert capsys.readouterr() == ("", "error: --count must be >= 1, got 0\n")
        assert not (tmp_path / "x").exists()

    def test_generate_insufficient_images(self, cfg_path, trained, tmp_path):
        rc = run_cli("generate", "--config", cfg_path, "--checkpoint", trained,
                     "--n", 99, "--out", tmp_path / "x")
        assert rc == 2

    def test_generate_on_empty_split(self, tmp_path, capsys):
        cfg = tmp_path / "noval.cfg"
        cfg.write_text(TINY_CFG.replace("n_validation = 2", "n_validation = 0"))
        run_cli("train", "--config", cfg, "--steps", 0, "--out", tmp_path / "run")
        out = tmp_path / "gen"
        assert run_cli("generate", "--config", cfg, "--checkpoint",
                       tmp_path / "run" / "ckpt_000000.figr", "--out", out) == 2
        assert "validation split is empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--k", "--n"])
    def test_generate_rejects_zero_k_and_n(self, cfg_path, trained, tmp_path, flag, capsys):
        out = tmp_path / "x"
        capsys.readouterr()
        assert run_cli("generate", "--config", cfg_path, "--checkpoint", trained,
                       flag, 0, "--out", out) == 2
        assert capsys.readouterr() == ("", f"error: {flag} must be >= 1, got 0\n")
        assert not out.exists()

    def test_eval_emits_rows(self, cfg_path, trained, tmp_path, capsys):
        csv = tmp_path / "eval.csv"
        assert run_cli("eval", "--config", cfg_path, "--checkpoint", trained,
                       "--trials", 1, "--out", csv) == 0
        rows = csv.read_text().strip().splitlines()
        assert rows[0] == "task_id,name,mmd2,baseline_mmd2,nn_distance,win"
        assert len(rows) == 2

    def test_eval_csv_reads_back_names_with_commas_quotes_and_line_breaks(self, tmp_path):
        # a class name is any UTF-8 a directory or shard holds; split_seed 3
        # holds out classes 0, 1 and 3 and trains on "train"
        names = ["a,b", 'say "hi"', "train", "two\nlines\r"]
        rng = np.random.default_rng(0)
        shard = tmp_path / "names.fgr8"
        shard.write_bytes(pack_shard([(name, rng.integers(0, 256, size=(4, 8, 8), dtype=np.uint8))
                                      for name in names]))
        cfg = tmp_path / "names.cfg"
        cfg.write_text(TINY_CFG.replace("n_validation = 2", "n_validation = 3")
                       + f"dataset_path = {shard}\n")
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--steps", 1, "--out", out) == 0
        table = tmp_path / "eval.csv"
        assert run_cli("eval", "--config", cfg, "--checkpoint", out / "ckpt_000001.figr",
                       "--trials", 3, "--out", table) == 0
        with open(table, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert [(int(r["task_id"]), r["name"]) for r in rows] == [
            (0, "a,b"), (1, 'say "hi"'), (3, "two\nlines\r")]
        assert all(len(r) == 6 and None not in r for r in rows)
        assert table.read_bytes().startswith(
            b'task_id,name,mmd2,baseline_mmd2,nn_distance,win\n0,"a,b",0.')

    @pytest.mark.parametrize("size", [3, 4])
    def test_eval_refuses_class_without_held_out_images(self, tmp_path, capsys, size):
        # n = 4 images condition the adaptation; a scored class needs at
        # least one more to hold out, else it names the class and stops
        rng = np.random.default_rng(0)
        classes = [(f"c{i}", rng.integers(0, 256, size=(size if i == 0 else 6, 8, 8),
                                          dtype=np.uint8)) for i in range(4)]
        shard = tmp_path / "small.fgr8"
        shard.write_bytes(pack_shard(classes))
        cfg = tmp_path / "small.cfg"
        cfg.write_text(TINY_CFG.replace("n = 2", "n = 4")
                       + f"dataset_path = {shard}\nvalidation_classes = c0\n")
        out = tmp_path / "small"
        assert run_cli("train", "--config", cfg, "--steps", 0, "--out", out) == 0
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg, "--checkpoint",
                       out / "ckpt_000000.figr", "--trials", 1) == 2
        err = capsys.readouterr().err
        assert "'c0'" in err and "more than n=4" in err

    @pytest.mark.parametrize("trials", [0, -1])
    def test_eval_rejects_trials_below_one(self, cfg_path, trained, tmp_path, trials):
        csv = tmp_path / "eval.csv"
        assert run_cli("eval", "--config", cfg_path, "--checkpoint", trained,
                       "--trials", trials, "--out", csv) == 2
        assert not csv.exists()

    def test_eval_of_the_starting_point_ties_its_baseline(self, cfg_path, tmp_path, capsys):
        # the baseline arm adapts from the run's own step-0 state, so
        # evaluating that state gives both arms the same scores bit for bit
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--steps", 0) == 0
        ckpt = out / "ckpt_000000.figr"
        cfg = load_config(cfg_path)
        disc, gen, state = figr.cli._restore(cfg, ckpt)
        reports = figr.cli.evaluate_checkpoint(cfg, (state.phi_d, state.phi_g),
                                               build_dataset(cfg), disc, gen, trials=2, seed=5)
        assert len(reports) == 2
        assert all(r.mmd2 == r.baseline_mmd2 for r in reports)
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg_path, "--checkpoint", ckpt,
                       "--trials", 2, "--seed", 5) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.rsplit(",", 1)[1] for row in rows[1:3]] == ["0", "0"]
        assert "on 0/2 classes" in rows[3]

    def test_eval_out_into_missing_directory(self, cfg_path, trained, tmp_path):
        csv = tmp_path / "sub" / "dir" / "eval.csv"
        assert run_cli("eval", "--config", cfg_path, "--checkpoint", trained,
                       "--trials", 1, "--out", csv) == 0
        assert csv.read_text().splitlines()[0] == "task_id,name,mmd2,baseline_mmd2,nn_distance,win"

    def test_eval_out_that_cannot_be_made_fails_before_scoring(self, cfg_path, trained,
                                                               tmp_path, monkeypatch, capsys):
        def no_scoring(*args, **kwargs):
            raise AssertionError("scored")

        monkeypatch.setattr(figr.cli, "evaluate_checkpoint", no_scoring)
        (tmp_path / "file").write_text("")
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg_path, "--checkpoint", trained,
                       "--out", tmp_path / "file" / "eval.csv") == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_eval_out_that_is_a_directory_fails_before_scoring(self, cfg_path, trained,
                                                              tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(figr.cli, "evaluate_checkpoint",
                            lambda *a, **k: pytest.fail("scored"))
        (tmp_path / "outdir").mkdir()
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg_path, "--checkpoint", trained,
                       "--out", tmp_path / "outdir") == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'outdir'} is a directory, not a file to write\n"

    def test_restore_without_moments_allocates_phi_alone(self, tmp_path):
        # tracemalloc's peak of a φ-only restore of a default checkpoint is φ
        # and under 1 MiB besides (3.09 MiB with φ at 3.06 MiB when this was
        # set); the full read's was 15.35 MiB, the moments being 12.8 MB
        cfg = RunConfig()
        disc, gen = Discriminator(cfg), Generator(cfg)
        path = tmp_path / "a.figr"
        save_checkpoint(path, init_meta_state(*figr.cli._initial_phi(cfg, disc, gen)),
                        fingerprint(cfg))
        phi_bytes = (disc.param_count() + gen.param_count()) * np.dtype(cfg.dtype).itemsize
        tracemalloc.start()
        try:
            state = figr.cli._restore(cfg, path, moments=False)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.adam_d.m is None and state.adam_g.v is None
        assert peak <= phi_bytes + 2**20, (
            f"peak {peak / 2**20:.2f} MiB, phi is {phi_bytes / 2**20:.2f} MiB")

    def test_eval_holds_only_phi_while_scoring(self, tmp_path, monkeypatch):
        # at the default config, what cmd_eval has allocated and still holds
        # when scoring starts is phi and under 2 MiB besides, not also the
        # checkpoint's Adam moments (four float64 vectors, 12.8 MB)
        cfg_path = tmp_path / "default.cfg"
        cfg_path.write_text("")
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--steps", 0, "--out", out) == 0
        cfg = load_config(cfg_path)
        phi_bytes = ((Discriminator(cfg).param_count() + Generator(cfg).param_count())
                     * np.dtype(cfg.dtype).itemsize)

        class Stop(Exception):
            pass

        held = []

        def stop_at_scoring(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            raise Stop

        monkeypatch.setattr(figr.cli, "evaluate_checkpoint", stop_at_scoring)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                run_cli("eval", "--config", cfg_path, "--checkpoint", out / "ckpt_000000.figr")
        finally:
            tracemalloc.stop()
        assert held[0] < phi_bytes + 2 * 2**20, (
            f"{held[0] / 2**20:.2f} MiB held, phi is {phi_bytes / 2**20:.2f} MiB")

    def test_eval_releases_its_scratch_after_the_last_class(self, cfg_path, trained,
                                                            monkeypatch):
        events = []
        scored = figr.cli.nn_distance
        monkeypatch.setattr(figr.cli, "nn_distance",
                            lambda *a: events.append("class") or scored(*a))
        monkeypatch.setattr(figr.cli, "_release_free_heap", lambda: events.append("release"))
        assert run_cli("eval", "--config", cfg_path, "--checkpoint", trained,
                       "--trials", 2) == 0
        assert events == ["class", "class", "release"]

    def test_eval_caps_trials(self, cfg_path, trained, tmp_path, capsys):
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg_path, "--checkpoint", trained,
                       "--trials", 99) == 0
        out, err = capsys.readouterr()
        # the warning goes to stderr, so stdout stays a CSV from its first line
        assert out.splitlines()[0] == "task_id,name,mmd2,baseline_mmd2,nn_distance,win"
        assert len(out.splitlines()) == 4
        assert "capped at 2" in err


def _has_malloc_trim() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "malloc_trim")
    except TypeError:
        return False


@pytest.mark.skipif(not (Path("/proc/self/statm").exists() and _has_malloc_trim()),
                    reason="needs /proc/self/statm and glibc's malloc_trim")
def test_release_free_heap_returns_freed_pages():
    # 32 MiB of 64 KiB arrays, each below glibc's mmap threshold, freed under
    # a live last array that keeps them off the heap's top: they stay
    # resident until the release hands their pages back
    def resident() -> int:
        return int(Path("/proc/self/statm").read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    arrays = [np.ones(8192) for _ in range(512)]
    before = resident()
    del arrays[:-1]
    figr.cli._release_free_heap()
    assert before - resident() > 16 * 2**20


def test_no_derived_stream_repeats_a_glyph_stream(tmp_path, monkeypatch):
    # with seed == split_seed, every stream train, eval and generate derive
    # from the seed must differ from each synthetic glyph's stroke stream
    # (class,) and jitter stream (class, image) under that same seed
    cfg = tmp_path / "same.cfg"
    cfg.write_text(TINY_CFG.replace("\nseed = 11", "\nseed = 3"))
    real = np.random.SeedSequence
    derived = []

    def recording(*args, **kwargs):
        seq = real(*args, **kwargs)
        # frame 1 is rng.derive, which builds every SeedSequence; frame 2 its caller
        if sys._getframe(2).f_globals["__name__"] != "figr.data":
            derived.append(tuple(seq.generate_state(4, np.uint64)))
        return seq

    monkeypatch.setattr(np.random, "SeedSequence", recording)
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--steps", 3, "--out", out) == 0
    ckpt = out / "ckpt_000003.figr"
    assert run_cli("eval", "--config", cfg, "--checkpoint", ckpt, "--seed", 3) == 0
    assert run_cli("generate", "--config", cfg, "--checkpoint", ckpt, "--seed", 3,
                   "--out", tmp_path / "gen") == 0
    glyph = {tuple(real(3, spawn_key=key).generate_state(4, np.uint64))
             for c in range(6) for key in [(c,)] + [(c, i) for i in range(4)]}
    assert len(derived) >= 10
    assert sum(state in glyph for state in derived) == 0


class TestPackStats:
    def test_pack_then_stats(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        src = tmp_path / "classes"
        for cname in ("one", "two"):
            d = src / cname
            d.mkdir(parents=True)
            for i in range(3):
                img = rng.integers(0, 256, size=(5, 5), dtype=np.uint8)
                (d / f"{i}.pgm").write_bytes(write_pgm(img))
        shard = tmp_path / "data.fgr8"
        assert run_cli("pack", "--input", src, "--output", shard) == 0
        csv = tmp_path / "density.csv"
        assert run_cli("stats", "--shard", shard, "--csv", csv) == 0
        out = capsys.readouterr().out
        assert "classes: 2" in out
        assert "images: 6" in out
        assert csv.read_text().startswith("class_size,cumulative_fraction")

    def test_stats_prints_the_exact_median(self, tmp_path, capsys):
        shard = tmp_path / "two.fgr8"
        shard.write_bytes(raw_shard([("a", (3, 2, 2)), ("b", (4, 2, 2))]))
        assert run_cli("stats", "--shard", shard) == 0
        assert "class size min/median/max: 3/3.5/4\n" in capsys.readouterr().out
        shard.write_bytes(raw_shard([("a", (3, 2, 2)), ("b", (4, 2, 2)), ("c", (6, 2, 2))]))
        assert run_cli("stats", "--shard", shard) == 0
        assert "class size min/median/max: 3/4/6\n" in capsys.readouterr().out
        # a u32 count and its half stay exact, where :g would print 1e+06
        shard.write_bytes(raw_shard([("a", (10**6, 1, 1)), ("b", (10**6 + 1, 1, 1))]))
        assert run_cli("stats", "--shard", shard) == 0
        assert "min/median/max: 1000000/1000000.5/1000001\n" in capsys.readouterr().out

    def test_outputs_go_into_directories_that_do_not_exist(self, tmp_path):
        src = tmp_path / "classes" / "one"
        src.mkdir(parents=True)
        (src / "0.pgm").write_bytes(write_pgm(np.zeros((3, 3), np.uint8)))
        shard = tmp_path / "missing" / "dir" / "x.fgr8"
        assert run_cli("pack", "--input", src.parent, "--output", shard) == 0
        csv = tmp_path / "also" / "missing" / "density.csv"
        assert run_cli("stats", "--shard", shard, "--csv", csv) == 0
        assert csv.read_text().startswith("class_size,cumulative_fraction")

    @pytest.mark.parametrize("command", ["pack", "stats"])
    def test_output_parent_that_cannot_be_made_fails_before_reading(
            self, tmp_path, capsys, monkeypatch, command):
        # a regular file in the output's path: one error line, and no input read
        (tmp_path / "afile").write_bytes(b"")
        target = tmp_path / "afile" / "sub" / "out"
        shard = tmp_path / "x.fgr8"
        shard.write_bytes(raw_shard([("a", (3, 2, 2))]))
        for reader in ("read_class_dirs", "load_shard"):
            monkeypatch.setattr(figr.cli, reader, lambda *a, r=reader: pytest.fail(f"{r} ran"))
        argv = (("pack", "--input", tmp_path, "--output", target) if command == "pack"
                else ("stats", "--shard", shard, "--csv", target))
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "afile" in err

    @pytest.mark.parametrize("command", ["pack", "stats"])
    def test_output_that_is_a_directory_fails_before_reading(
            self, tmp_path, capsys, monkeypatch, command):
        # refused by name, not by the temporary file's rename over it
        target = tmp_path / "outdir"
        target.mkdir()
        shard = tmp_path / "x.fgr8"
        shard.write_bytes(raw_shard([("a", (3, 2, 2))]))
        for reader in ("read_class_dirs", "load_shard"):
            monkeypatch.setattr(figr.cli, reader, lambda *a, r=reader: pytest.fail(f"{r} ran"))
        argv = (("pack", "--input", tmp_path, "--output", target) if command == "pack"
                else ("stats", "--shard", shard, "--csv", target))
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {target} is a directory, not a file to write\n"
        assert list(target.iterdir()) == []

    def test_pack_refuses_image_without_pixels(self, tmp_path, capsys):
        src = tmp_path / "classes" / "blank"
        src.mkdir(parents=True)
        (src / "0.pgm").write_bytes(b"P5\n0 0\n255\n")
        shard = tmp_path / "data.fgr8"
        assert run_cli("pack", "--input", src.parent, "--output", shard) == 2
        assert "'blank' has no images or no pixels" in capsys.readouterr().err
        assert not shard.exists()

    def test_pack_refuses_image_a_header_cannot_hold(self, tmp_path, capsys):
        # a width of 70000 does not fit the shard's u16 width field
        src = tmp_path / "classes" / "wide"
        src.mkdir(parents=True)
        (src / "0.pgm").write_bytes(write_pgm(np.zeros((1, 70000), np.uint8)))
        shard = tmp_path / "data.fgr8"
        capsys.readouterr()
        assert run_cli("pack", "--input", src.parent, "--output", shard) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: class 'wide'") and err.count("\n") == 1
        assert "(1, 1, 70000)) does not fit a shard header" in err
        assert out == "" and not shard.exists()

    @pytest.mark.parametrize("shape", [(0, 8, 8), (4, 0, 8)])
    def test_stats_refuses_class_pack_refuses(self, tmp_path, capsys, shape):
        shard = tmp_path / "flat.fgr8"
        shard.write_bytes(raw_shard([("a", (4, 8, 8)), ("flat", shape)]))
        csv = tmp_path / "density.csv"
        assert run_cli("stats", "--shard", shard, "--csv", csv) == 2
        assert "'flat' has no images or no pixels" in capsys.readouterr().err
        assert not csv.exists()

    def test_stats_refuses_repeated_class_name(self, tmp_path, capsys):
        shard = tmp_path / "twice.fgr8"
        shard.write_bytes(raw_shard([("a", (4, 8, 8)), ("b", (2, 8, 8)), ("a", (3, 8, 8))]))
        csv = tmp_path / "density.csv"
        capsys.readouterr()
        assert run_cli("stats", "--shard", shard, "--csv", csv) == 2
        out, err = capsys.readouterr()
        assert err == "error: class names ['a'] appear more than once in the shard\n"
        assert out == "" and not csv.exists()

    def test_pack_refuses_repeated_class_name(self, tmp_path, capsys, monkeypatch):
        # directory names are distinct, so the classes read are replaced
        image = np.zeros((1, 4, 4), np.uint8)
        monkeypatch.setattr(figr.cli, "read_class_dirs",
                            lambda root: [("a", image), ("b", image), ("a", image)])
        shard = tmp_path / "data.fgr8"
        capsys.readouterr()
        assert run_cli("pack", "--input", tmp_path, "--output", shard) == 2
        out, err = capsys.readouterr()
        assert err == "error: class names ['a'] appear more than once in the shard\n"
        assert out == "" and not shard.exists()

    def test_stats_on_truncated_shard(self, tmp_path):
        shard = tmp_path / "broken.fgr8"
        shard.write_bytes(b"FGR8\x01\x00\x00")
        assert run_cli("stats", "--shard", shard) == 2

    def test_stats_on_shard_cut_inside_a_class(self, tmp_path, capsys):
        # class "a" holds 4*8*8 bytes from byte 12 + 2 + 1 + 8 = 23
        shard = tmp_path / "cut.fgr8"
        shard.write_bytes(raw_shard([("a", (4, 8, 8)), ("b", (4, 8, 8))])[:100])
        assert run_cli("stats", "--shard", shard) == 2
        out, err = capsys.readouterr()
        assert err == ("error: shard truncated: 256 bytes wanted at byte 23, "
                       "but it ends at byte 100\n")
        assert out == ""

    def test_stats_on_shard_without_classes(self, tmp_path, capsys):
        # a header that declares zero classes: refused when loaded, before
        # any statistic is printed
        shard = tmp_path / "empty.fgr8"
        shard.write_bytes(b"FGR8\x01\x00\x00\x00\x00\x00\x00\x00")
        assert run_cli("stats", "--shard", shard) == 2
        out, err = capsys.readouterr()
        assert out == "" and "shard holds no classes" in err


class TestGradcheckCommand:
    def test_smoke_single_trial(self, capsys):
        assert run_cli("gradcheck", "--trials", 1) == 0
        assert "PASS" in capsys.readouterr().out

    def test_forced_bug_fails(self, flipped_gradcheck, capsys):
        assert run_cli("gradcheck", "--trials", 1) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_is_an_error(self, trials, flipped_gradcheck, capsys):
        # a run that checks nothing must not print PASS, even with a forced bug
        assert run_cli("gradcheck", "--trials", trials) == 2
        out = capsys.readouterr()
        assert "PASS" not in out.out and "trials must be >= 1" in out.err
