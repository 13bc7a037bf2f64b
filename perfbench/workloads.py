"""The benchmark's workloads and the closed loop that drives them.

Each run drives figr through ``figr.cli.main`` exactly as a user's command
would, with one caller that starts the next operation only after the last
one returned.  An operation is one meta-step (``figr train``) or one scored
validation class (``figr eval``).  The benchmark sees operation boundaries
through thin hooks on the names ``figr.cli`` calls; the hooks time, check
and, in a traced run, switch the tracer on and off at those boundaries.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from figr import cli, reptile
from figr.checkpoint import load_checkpoint
from figr.config import canonical_text, fingerprint, parse_config

# the tiny CLI-test model: 8 px, width 4, one block, k=2, n=2
TINY_MODEL = """\
image_size = 8
latent_dim = 6
base_width = 4
n_blocks = 1
k = 2
n = 2
inner_lr = 0.0001
outer_lr = 0.0001
synth_per_class = 4
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # "train" or "eval"
    config: str         # config body; the run appends seed and split_seed
    tiny_config: str    # the same workload at the tiny model, for the self-test
    ops_per_s: float    # rate at the baseline commit; sizes a run to --seconds
    cadence: int = 1    # artifact cadence; timed op counts are multiples of 2x this
    setup_probes: int = 4      # half before and half after the measured command
    max_timed_ops: int = 10 ** 6


# pause before each set-up probe: the host's speed changes on this time scale,
# so probes taken back to back would all sample one moment
PROBE_GAP_S = 0.2

TINY_TRAIN = TINY_MODEL + "synth_classes = 6\nn_validation = 2\n"

# Why these three (BENCHMARK.json and README.md give the long form):
# train-default is kernel-bound (conv GEMM and im2col) and writes no artifact
# while timed; train-tiny is dispatch-bound and writes a checkpoint and a
# montage every 3 steps; eval-default adds a batch-64 untaped forward, MMD
# scoring and a checkpoint load, with no outer step.
WORKLOADS = {w.name: w for w in (
    Workload(name="train-default", command="train", config="",
             tiny_config=TINY_TRAIN, ops_per_s=0.42),
    Workload(name="train-tiny", command="train",
             config=TINY_TRAIN + "checkpoint_every = 3\nsample_every = 3\n",
             tiny_config=TINY_TRAIN + "checkpoint_every = 3\nsample_every = 3\n",
             ops_per_s=13.6, cadence=3, setup_probes=14),
    # the default config holds 10 validation classes, one of them the warm-up
    Workload(name="eval-default", command="eval", config="",
             tiny_config=TINY_MODEL + "synth_classes = 12\nn_validation = 5\n",
             ops_per_s=0.2, max_timed_ops=9),
)}


def timed_ops(workload: Workload, seconds: float) -> int:
    """Operations timed after the warm-up, sized to last about `seconds`.

    The count is fixed by the arguments alone, so runs of one workload and
    seed do the same work and must write byte-identical artifacts.
    """
    unit = 2 * workload.cadence
    n = unit * max(1, round(seconds * workload.ops_per_s / unit))
    return min(n, unit * (workload.max_timed_ops // unit))


def config_text(workload: Workload, seed: int, tiny: bool = False) -> str:
    body = workload.tiny_config if tiny else workload.config
    return body + f"seed = {seed}\nsplit_seed = {seed}\n"


class SetupDone(Exception):
    """Raised by a set-up probe's hook to stop the command at its first operation."""


def _sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


class Session:
    """One run of a workload: optional checkpoint preparation, timed set-up
    probes, then the measured command with its correctness gates."""

    def __init__(self, workload: Workload, seed: int, n_timed: int, workdir: Path,
                 tracer=None, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.n_timed = n_timed
        self.n_ops = n_timed + 1          # the first operation is a warm-up
        self.workdir = workdir
        self.tracer = tracer
        self.cfg_text = config_text(workload, seed, tiny)
        cfg = parse_config(self.cfg_text)
        self.canonical = canonical_text(cfg)
        self.fingerprint = fingerprint(cfg)
        self.problems: list[str] = []
        self.bad_ops: set[int] = set()
        self.setup_samples: list[float] = []

    # -- hooks --------------------------------------------------------------

    def _setup_ended(self) -> None:
        self.setup_end = time.perf_counter()
        if self.probing:
            raise SetupDone
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer.op = 1

    def _end_op(self, ok: bool) -> None:
        self.op_ends.append(time.perf_counter())
        done = len(self.op_ends)
        if not ok:
            self.bad_ops.add(done)
        if self.tracer is not None:
            self.tracer.op = done + 1
            if done == 1 + self.n_timed // 2:
                self.tracer.install()
                self.traced_from = time.perf_counter()

    def _meta_step(self, *args, **kwargs):
        if self.setup_end is None:
            self._setup_ended()
        # looked up per call so that an installed tracer's wrapper runs
        state, rec = reptile.meta_step(*args, **kwargs)
        self._end_op(_finite(rec.critic_loss, rec.gen_loss, rec.delta_d_norm,
                             rec.delta_g_norm, state.phi_d.vector, state.phi_g.vector))
        return state, rec

    def _evaluate_checkpoint(self, *args, **kwargs):
        self._setup_ended()
        return self._orig_evaluate(*args, **kwargs)

    def _nn_distance(self, *args, **kwargs):
        value = self._orig_nn_distance(*args, **kwargs)
        self._end_op(_finite(value))    # nn_distance closes each class's scoring
        return value

    def _run_cli(self, argv: list[str], probing: bool) -> int:
        self.probing = probing
        self.setup_end = None
        self.op_ends: list[float] = []
        saved = {name: getattr(cli, name)
                 for name in ("meta_step", "evaluate_checkpoint", "nn_distance")}
        self._orig_evaluate = saved["evaluate_checkpoint"]
        self._orig_nn_distance = saved["nn_distance"]
        if self.workload.command == "train":
            cli.meta_step = self._meta_step
        else:
            cli.evaluate_checkpoint = self._evaluate_checkpoint
            cli.nn_distance = self._nn_distance
        if self.tracer is not None and not probing:
            self.tracer.install()       # trace set-up; paused at the first operation
        self.t_start = time.perf_counter()
        try:
            return cli.main(argv)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            for name, fn in saved.items():
                setattr(cli, name, fn)

    def _probe(self, argv: list[str]) -> None:
        time.sleep(PROBE_GAP_S)
        try:
            rc = self._run_cli(argv, probing=True)
        except SetupDone:
            self.setup_samples.append(self.setup_end - self.t_start)
            return
        self.problems.append(f"set-up probe ended with code {rc} before its first operation")

    # -- the run ------------------------------------------------------------

    def run(self) -> dict:
        w = self.workload
        self.workdir.mkdir(parents=True, exist_ok=True)
        cfg_path = self.workdir / "run.cfg"
        cfg_path.write_text(self.cfg_text, encoding="utf-8")
        out = self.workdir / "out"
        if w.command == "train":
            argv = ["train", "--config", str(cfg_path), "--steps", str(self.n_ops)]
            probe_argv = lambda i: argv + ["--out", str(self.workdir / f"probe{i}")]
            main_argv = argv + ["--out", str(out)]
        else:
            prep = self.workdir / "prep"
            # a child process trains the checkpoint, so that this process's
            # peak memory is the evaluation's and not a training step's
            src = Path(cli.__file__).resolve().parent.parent
            env = {**os.environ, "PYTHONPATH": str(src)}
            rc = subprocess.run([sys.executable, "-m", "figr.cli", "train", "--config",
                                 str(cfg_path), "--steps", "1", "--out", str(prep)],
                                env=env, capture_output=True, timeout=120).returncode
            self.eval_ckpt = prep / "ckpt_000001.figr"
            if rc != 0 or not self.eval_ckpt.exists():
                raise RuntimeError(f"could not make the checkpoint to evaluate (code {rc})")
            self.eval_csv = self.workdir / "eval.csv"
            argv = ["eval", "--config", str(cfg_path), "--checkpoint", str(self.eval_ckpt),
                    "--trials", str(self.n_ops), "--seed", str(self.seed)]
            probe_argv = lambda i: argv
            main_argv = argv + ["--out", str(self.eval_csv)]

        # half the probes run before the measured command and half after it,
        # so that set-up is sampled across the run's whole time span
        before = w.setup_probes // 2
        for i in range(before):
            self._probe(probe_argv(i))

        self.traced_from = None
        rc, error = None, None
        try:
            rc = self._run_cli(main_argv, probing=False)
        except Exception as exc:        # the command died: report it as failed operations
            error = f"{type(exc).__name__}: {exc}"
        if error or rc != 0:
            self.problems.append(error or f"figr {w.command} exited with code {rc}")
        t_start, setup_end, op_ends = self.t_start, self.setup_end, self.op_ends
        if setup_end is not None:
            self.setup_samples.append(setup_end - t_start)

        for i in range(before, w.setup_probes):
            self._probe(probe_argv(i))

        if w.command == "train":
            digest = self._check_train(out)
        else:
            digest = self._check_eval()
        completed = len(op_ends)
        ok_ops = sum(1 for i in range(1, completed + 1) if i not in self.bad_ops)
        return {
            "ops": self.n_ops,
            "timed_ops": self.n_timed,
            "failed": self.n_ops - ok_ops,
            "problems": self.problems,
            "digest": digest,
            "setup_samples_s": self.setup_samples,
            "t_start": t_start,
            "setup_end": setup_end,
            "op_ends": op_ends,
            "traced_from": self.traced_from,
            "config_text": self.canonical,
            "fingerprint": self.fingerprint.hex(),
        }

    # -- correctness gates --------------------------------------------------

    def _check_train(self, out: Path) -> str | None:
        n = self.n_ops
        log = out / "train_log.csv"
        if not log.exists():
            self.problems.append("train_log.csv missing")
            return None
        with open(log, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        if [int(r["step"]) for r in rows] != list(range(1, n + 1)):
            self.problems.append(f"train_log.csv does not hold one row per step 1..{n}")
        for r in rows:
            values = [float(r[k]) for k in ("critic_loss", "gen_loss",
                                            "delta_d_norm", "delta_g_norm")]
            if not all(math.isfinite(v) for v in values):
                self.bad_ops.add(int(r["step"]))

        init = out / "ckpt_000000.figr"
        for i in range(self.workload.setup_probes):
            probe_init = self.workdir / f"probe{i}" / "ckpt_000000.figr"
            if not (init.exists() and probe_init.exists()
                    and _sha256(probe_init) == _sha256(init)):
                self.problems.append("same-seed initial checkpoints differ")
                break

        final = out / f"ckpt_{n:06d}.figr"
        if not final.exists():
            self.problems.append(f"final checkpoint {final.name} missing")
            return None
        data = load_checkpoint(final)
        if data.step != n or data.fingerprint != self.fingerprint:
            self.problems.append(f"final checkpoint holds step {data.step} "
                                 f"or a foreign fingerprint")
        if not _finite(data.phi_d, data.phi_g, data.adam_d.m, data.adam_d.v,
                       data.adam_g.m, data.adam_g.v):
            self.problems.append("final checkpoint holds non-finite values")
        return _sha256(final)

    def _check_eval(self) -> str | None:
        if not self.eval_csv.exists():
            self.problems.append("eval CSV missing")
            return None
        with open(self.eval_csv, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != self.n_ops or len({r["task_id"] for r in rows}) != len(rows):
            self.problems.append(f"eval CSV holds {len(rows)} rows, "
                                 f"expected one per class ({self.n_ops})")
        for i, r in enumerate(rows, start=1):
            values = [float(r[k]) for k in ("mmd2", "baseline_mmd2", "nn_distance")]
            if not all(math.isfinite(v) for v in values):
                self.bad_ops.add(i)
        return _sha256(self.eval_ckpt, self.eval_csv)

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
