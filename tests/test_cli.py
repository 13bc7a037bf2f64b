import builtins
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import figr.cli
from figr.cli import main
from figr.data import load_shard, pack_shard, read_pgm, write_pgm

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
dataset_format = synth
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

    def test_same_seed_runs_are_byte_identical(self, cfg_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("train", "--config", cfg_path, "--out", a)
        run_cli("train", "--config", cfg_path, "--out", b)
        for step in ("000003", "000006"):
            assert (a / f"ckpt_{step}.figr").read_bytes() == \
                   (b / f"ckpt_{step}.figr").read_bytes()

    def test_resume_is_byte_identical_to_uninterrupted(self, cfg_path, tmp_path):
        full, part = tmp_path / "full", tmp_path / "part"
        run_cli("train", "--config", cfg_path, "--out", full)
        run_cli("train", "--config", cfg_path, "--out", part, "--steps", 3)
        run_cli("train", "--config", cfg_path, "--out", part,
                "--resume", part / "ckpt_000003.figr")
        assert (full / "ckpt_000006.figr").read_bytes() == \
               (part / "ckpt_000006.figr").read_bytes()

    def test_double_precision_resume_is_byte_identical(self, tmp_path):
        # parameters are checkpointed at their own precision, so a double
        # run resumes exactly where an uninterrupted one continues
        cfg_path = tmp_path / "double.cfg"
        cfg_path.write_text(TINY_CFG + "precision = double\n")
        full, part = tmp_path / "full", tmp_path / "part"
        run_cli("train", "--config", cfg_path, "--out", full, "--steps", 4)
        run_cli("train", "--config", cfg_path, "--out", part, "--steps", 2)
        run_cli("train", "--config", cfg_path, "--out", part, "--steps", 4,
                "--resume", part / "ckpt_000002.figr")
        assert (full / "ckpt_000004.figr").read_bytes() == \
               (part / "ckpt_000004.figr").read_bytes()

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
        def rows(out):
            lines = (out / "train_log.csv").read_text().splitlines()
            assert lines[0].startswith("step,task_id")
            return [line.split(",")[:-1] for line in lines[1:]]   # drop seconds

        full, fresh = tmp_path / "full", tmp_path / "fresh"
        run_cli("train", "--config", cfg_path, "--out", full)
        uninterrupted = rows(full)
        assert [r[0] for r in uninterrupted] == ["1", "2", "3", "4", "5", "6"]
        # resume in place from an earlier checkpoint than the log's last row
        assert run_cli("train", "--config", cfg_path, "--out", full,
                       "--resume", full / "ckpt_000003.figr") == 0
        assert rows(full) == uninterrupted
        # resume into a directory with no log
        assert run_cli("train", "--config", cfg_path, "--out", fresh,
                       "--resume", full / "ckpt_000003.figr") == 0
        assert rows(fresh) == uninterrupted[3:]

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

    def test_resume_rejects_drifted_config(self, cfg_path, tmp_path):
        out = tmp_path / "drift"
        run_cli("train", "--config", cfg_path, "--out", out, "--steps", 3)
        drifted = tmp_path / "drifted.cfg"
        drifted.write_text(cfg_path.read_text().replace(
            "inner_lr = 0.0001", "inner_lr = 0.0002"))
        rc = run_cli("train", "--config", drifted, "--out", out,
                     "--resume", out / "ckpt_000003.figr")
        assert rc == 2


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
        shard = load_shard((out / "generated.fgr8").read_bytes())
        assert shard.classes[0].images.shape == (4, 8, 8)

    def test_generate_deterministic(self, cfg_path, trained, tmp_path):
        outs = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            run_cli("generate", "--config", cfg_path, "--checkpoint", trained,
                    "--count", 3, "--seed", 5, "--out", out)
            outs.append((out / "montage.pgm").read_bytes())
        assert outs[0] == outs[1]

    def test_generate_count_validated(self, cfg_path, trained, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("generate", "--config", cfg_path, "--checkpoint", trained,
                    "--count", 0, "--out", tmp_path / "x")

    def test_generate_insufficient_images(self, cfg_path, trained, tmp_path):
        rc = run_cli("generate", "--config", cfg_path, "--checkpoint", trained,
                     "--n", 99, "--out", tmp_path / "x")
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--k", "--n"])
    def test_generate_rejects_zero_k_and_n(self, cfg_path, trained, tmp_path, flag):
        out = tmp_path / "x"
        assert run_cli("generate", "--config", cfg_path, "--checkpoint", trained,
                       flag, 0, "--out", out) == 2
        assert not out.exists()

    def test_eval_emits_rows(self, cfg_path, trained, tmp_path, capsys):
        csv = tmp_path / "eval.csv"
        assert run_cli("eval", "--config", cfg_path, "--checkpoint", trained,
                       "--trials", 1, "--out", csv) == 0
        rows = csv.read_text().strip().splitlines()
        assert rows[0] == "task_id,name,mmd2,baseline_mmd2,nn_distance,win"
        assert len(rows) == 2

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
        cfg.write_text(TINY_CFG.replace("n = 2", "n = 4").replace(
            "dataset_format = synth", f"dataset_format = fgr8\ndataset_path = {shard}")
            + "validation_classes = c0\n")
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

    def test_eval_caps_trials(self, cfg_path, trained, tmp_path, capsys):
        assert run_cli("eval", "--config", cfg_path, "--checkpoint", trained,
                       "--trials", 99) == 0
        out = capsys.readouterr().out
        assert "capped at 2" in out


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

    def test_stats_on_truncated_shard(self, tmp_path):
        shard = tmp_path / "broken.fgr8"
        shard.write_bytes(b"FGR8\x01\x00\x00")
        assert run_cli("stats", "--shard", shard) == 2


class TestGradcheckCommand:
    def test_smoke_single_trial(self, capsys):
        assert run_cli("gradcheck", "--trials", 1) == 0
        assert "PASS" in capsys.readouterr().out

    def test_forced_bug_fails(self, capsys):
        assert run_cli("gradcheck", "--trials", 1, "--self-test-bug") == 1
        assert "FAIL" in capsys.readouterr().out
