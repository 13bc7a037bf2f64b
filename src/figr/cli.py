"""Batch entry point.

    figr train     --config run.cfg [--steps N] [--resume CKPT] [--out DIR]
    figr generate  --config run.cfg --checkpoint CKPT [--class-name NAME] ...
    figr eval      --config run.cfg --checkpoint CKPT [--trials T] ...
    figr pack      --input DIR --output SHARD
    figr stats     --shard SHARD [--csv PATH]
    figr gradcheck [--trials N] [--seed S]

Every command is deterministic under its seed.  Training writes a CSV log,
reconciled on start to the checkpoint the run starts from, periodic
checkpoints, and sample montages.

Failures follow one contract.  Bad input raises ValueError, OSError or
OverflowError: a config, a data file, a checkpoint, a path, an integer
too large for numpy, a command line that argparse refuses, or an integer
flag below its floor in FLOORS (these two before any work).  `main` turns
each into one `error: <message>` line on stderr and exit code 2.  An
allocation that fails, as a config too large for memory makes it, raises
MemoryError: one `error: out of memory: <message>` line, and exit code 2.
Misuse of the engine by code (an op outside a graph, mismatched dtypes)
raises RuntimeError or TypeError, which no command catches, so it ends in
a traceback.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import rng
from .checkpoint import atomic_write, load_checkpoint, save_checkpoint
from .config import (
    RunConfig,
    build_dataset,
    canonical_text,
    fingerprint,
    load_config,
)
from .data import (
    load_shard,
    pack_shard,
    read_class_dirs,
    sample_images,
    sample_task,
    write_pgm,
)
from .evaluation import EvalReport, median_bandwidths, mmd_squared, montage, nn_distance, to_uint8
from .gradcheck import DEFAULT_TOL, run_gradcheck
from .models import Discriminator, Generator, ParameterSet
from .reptile import MetaState, figr_generate, init_meta_state, meta_step


CSV_HEADER = "step,task_id,critic_loss,gen_loss,delta_d_norm,delta_g_norm,seconds"
EVAL_COUNT = 64     # images `figr eval` generates per class and arm
# the least value of each integer flag, by argparse dest, refused before any work
FLOORS = {"steps": 0, "count": 1, "trials": 1, "k": 1, "n": 1, "seed": 0}


def _destination(path) -> None:
    """Make the parent directory of a file to write, or refuse a path that is
    a directory; run before any input is read, so a refused path loses no work."""
    if not path:
        return
    if Path(path).is_dir():
        raise ValueError(f"{path} is a directory, not a file to write")
    Path(path).parent.mkdir(parents=True, exist_ok=True)


def _ckpt_path(out_dir: Path, step: int) -> Path:
    return out_dir / f"ckpt_{step:06d}.figr"


def _restore(cfg: RunConfig, path, moments: bool = True) -> tuple[
        Discriminator, Generator, MetaState]:
    """Load a checkpoint written under this config: the models and the
    outer-loop state.  Only `figr train --resume` reads the Adam moments;
    eval and generate skip them, which leaves the state's m and v None."""
    data = load_checkpoint(path, moments)
    if data.fingerprint != fingerprint(cfg):
        raise ValueError("config fingerprint does not match the checkpoint; "
                         "refusing to use it with drifted hyperparameters")
    disc, gen = Discriminator(cfg), Generator(cfg)
    if data.phi_d.size != disc.param_count() or data.phi_g.size != gen.param_count():
        raise ValueError("checkpoint parameter counts do not match the config")
    state = MetaState(ParameterSet(data.phi_d.astype(cfg.dtype, copy=False), disc.layout),
                      ParameterSet(data.phi_g.astype(cfg.dtype, copy=False), gen.layout),
                      data.adam_d, data.adam_g, step=data.step)
    return disc, gen, state


def _reconcile_log(path: Path, step: int) -> None:
    """Cut the train log back to its header and the rows of steps 1..step.

    A run starting from the checkpoint of `step` then appends the steps
    after it, so the log agrees with the checkpoints on disk whether the
    run resumes in place, into a fresh directory, or from an earlier
    checkpoint than the log's last row.  The new log replaces the old whole
    (a failed rewrite leaves the old one) and reaches disk with the next
    checkpoint.  A resume refuses a log with another header, all of whose
    rows this cut would drop as torn.
    """
    width = CSV_HEADER.count(",") + 1
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    if step > 0 and lines and lines[0] != CSV_HEADER:
        raise ValueError(f"{path} has header {lines[0]!r}, not {CSV_HEADER!r}; "
                         "resume into a fresh --out")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) == width and fields[0].isdigit() and int(fields[0]) <= step:
            rows.append(line)
    atomic_write(path, "\n".join([CSV_HEADER, *rows]) + "\n", durable=False)


def _initial_phi(cfg: RunConfig, disc, gen) -> tuple[ParameterSet, ParameterSet]:
    """The run's φ₀, drawn from key (INIT, 0) under cfg.seed: the start of
    `figr train` and the baseline arm of `figr eval`."""
    init = rng.derive(cfg.seed, rng.INIT, 0)
    return disc.init_params(init), gen.init_params(init)


def _checkpoint(log, path: Path, state, fp: bytes) -> None:
    """Flush the log's rows to disk, then write the checkpoint that claims them:
    a resume cuts the log back to its checkpoint but never fills it in."""
    log.flush()
    os.fsync(log.fileno())
    save_checkpoint(path, state, fp)


def _emit_montage(cfg: RunConfig, dataset, disc, gen, state, out_path: Path) -> None:
    """Conditioning row on top, generated rows below; drawn from key
    (MONTAGE, step), which no training step reads."""
    split = "validation" if dataset.val_ids else "train"
    draws = rng.derive(cfg.seed, rng.MONTAGE, state.step)
    _, task = sample_task(dataset, draws, split=split)
    x = sample_images(task, cfg.n, draws)
    generated = figr_generate(state.phi_d, state.phi_g, disc, gen, x, cfg,
                              draws, count=3 * cfg.n)
    atomic_write(out_path, write_pgm(montage(x, generated)))


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    fp = fingerprint(cfg)
    out_dir = Path(args.out or cfg.out_dir)
    target = cfg.meta_steps if args.steps is None else args.steps

    dataset = build_dataset(cfg)
    if args.resume:
        disc, gen, state = _restore(cfg, args.resume)
        print(f"resumed from {args.resume} at step {state.step}")
    else:
        disc, gen = Discriminator(cfg), Generator(cfg)
        state = init_meta_state(*_initial_phi(cfg, disc, gen))

    # made only now, so a checkpoint the resume refuses leaves no directory
    out_dir.mkdir(parents=True, exist_ok=True)
    if not args.resume:
        # both are a function of the config alone and a fresh start rewrites
        # them, so they are renamed into place whole but not flushed to disk
        save_checkpoint(_ckpt_path(out_dir, 0), state, fp, durable=False)
        atomic_write(out_dir / "config.cfg", canonical_text(cfg), durable=False)

    saved = None if args.resume else state.step      # the last step this run saved
    log_path = out_dir / "train_log.csv"
    _reconcile_log(log_path, state.step)
    t_start = time.perf_counter()
    with open(log_path, "a", encoding="utf-8") as log:
        while state.step < target:
            state, rec = meta_step(state, disc, gen, dataset, cfg)
            log.write(f"{rec.step},{rec.task_id},{rec.critic_loss:.9g},"
                      f"{rec.gen_loss:.9g},{rec.delta_d_norm:.9g},"
                      f"{rec.delta_g_norm:.9g},{rec.seconds:.6f}\n")
            if cfg.sample_every and rec.step % cfg.sample_every == 0:
                _emit_montage(cfg, dataset, disc, gen, state,
                              out_dir / f"samples_{rec.step:06d}.pgm")
            if cfg.checkpoint_every and rec.step % cfg.checkpoint_every == 0:
                _checkpoint(log, _ckpt_path(out_dir, rec.step), state, fp)
                saved = rec.step
            if rec.step % 200 == 0:
                elapsed = time.perf_counter() - t_start
                print(f"step {rec.step}/{target} critic {rec.critic_loss:+.4f} "
                      f"gen {rec.gen_loss:+.4f} ({elapsed:.0f}s)", flush=True)
        if saved != state.step:
            _checkpoint(log, _ckpt_path(out_dir, state.step), state, fp)
    print(f"trained to step {state.step}; artifacts in {out_dir}")
    return 0


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    disc, gen, state = _restore(cfg, args.checkpoint, moments=False)
    dataset = build_dataset(cfg)

    cfg = replace(cfg, k=cfg.k if args.k is None else args.k,
                  n=cfg.n if args.n is None else args.n)
    ids = dataset.class_ids(args.split)
    if not ids:
        raise ValueError(f"{args.split} split is empty")
    if args.class_name:
        matches = [i for i in ids if dataset.classes[i].name == args.class_name]
        if not matches:
            raise ValueError(f"class {args.class_name!r} not in the {args.split} split")
        cid = matches[0]
    else:
        cid = ids[int(rng.derive(args.seed, rng.GENERATE_PICK, 0).integers(len(ids)))]
    task = dataset.classes[cid]
    if task.images.shape[0] < cfg.n:
        raise ValueError(f"class {task.name!r} has {task.images.shape[0]} images, need n={cfg.n}")

    out_dir = Path(args.out)
    # made once the inputs are accepted, before the adaptation: a refused
    # command leaves no directory, and an --out that cannot be made loses no work
    out_dir.mkdir(parents=True, exist_ok=True)
    class_rng = rng.derive(args.seed, rng.GENERATE, cid)
    x = sample_images(task, cfg.n, class_rng)
    generated = figr_generate(state.phi_d, state.phi_g, disc, gen, x, cfg, class_rng,
                              count=args.count)
    atomic_write(out_dir / "montage.pgm", write_pgm(montage(x, generated)))
    shard = pack_shard([(task.name, to_uint8(generated[:, 0]))])
    atomic_write(out_dir / "generated.fgr8", shard)
    print(f"adapted to class {task.name!r} (n={cfg.n}, k={cfg.k}); "
          f"wrote montage + {args.count} samples to {out_dir}")
    return 0


def _release_free_heap() -> None:
    """Give the C heap's free pages back to the OS (glibc's malloc_trim; a
    no-op without it), so what runs next in this process does not land on
    freed scratch whose layout, and so whose reuse, follows the data."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, TypeError):      # no malloc_trim; no CDLL(None) on Windows
        pass


def evaluate_checkpoint(cfg: RunConfig, phi: tuple[ParameterSet, ParameterSet], dataset,
                        disc: Discriminator, gen: Generator, trials: int,
                        seed: int) -> list[EvalReport]:
    """Adapt φ = (φ_d, φ_g) on each validation class and score EVAL_COUNT
    samples against its held-out images.  A scored class needs more than n
    images, so that n condition the adaptation and the rest are held out.

    The baseline arm repeats the identical protocol from the run's own
    starting point, the φ₀ that `figr train` draws from cfg.seed (no Adam
    moments are built); both arms share per-class rng, so the comparison
    is paired and asks what meta-training added.
    """
    ids = dataset.class_ids("validation")
    if not ids:
        raise ValueError("validation split is empty")
    if trials > len(ids):
        print(f"warning: --trials {trials} capped at {len(ids)} validation classes",
              file=sys.stderr)
    for cid in ids[:trials]:
        task = dataset.classes[cid]
        if task.images.shape[0] <= cfg.n:
            raise ValueError(f"validation class {task.name!r} has {task.images.shape[0]} "
                             f"images; scoring needs more than n={cfg.n}")
    base = _initial_phi(cfg, disc, gen)
    reports = []
    for cid in ids[:trials]:
        task = dataset.classes[cid]
        pick_rng = rng.derive(seed, rng.EVAL_PICK, cid)
        idx = pick_rng.choice(task.images.shape[0], cfg.n, replace=False)
        x = task.images[idx]
        held = np.delete(task.images, idx, axis=0)
        bandwidths = median_bandwidths(held)

        meta, baseline = (figr_generate(*arm, disc, gen, x, cfg,
                                        rng.derive(seed, rng.EVAL_ARM, cid), count=EVAL_COUNT)
                          for arm in (phi, base))
        reports.append(EvalReport(
            task_id=cid, task_name=task.name,
            mmd2=mmd_squared(meta, held, bandwidths),
            baseline_mmd2=mmd_squared(baseline, held, bandwidths),
            nn_min_distance=nn_distance(meta, x),
        ))
    _release_free_heap()        # about 37 MB of adaptation scratch at the default config
    return reports


def _csv_line(fields) -> str:
    """One CSV row ending in "\\n".  csv quotes a field that holds a comma, a
    quote or a line break, as a class name may; it is given the terminator
    "\\r\\n", cut off here, so that it quotes a lone "\\r" too."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def cmd_eval(args) -> int:
    _destination(args.out)
    cfg = load_config(args.config)
    disc, gen, state = _restore(cfg, args.checkpoint, moments=False)
    dataset = build_dataset(cfg)
    reports = evaluate_checkpoint(cfg, (state.phi_d, state.phi_g), dataset, disc, gen,
                                  trials=args.trials, seed=args.seed)
    lines = [_csv_line(["task_id", "name", "mmd2", "baseline_mmd2", "nn_distance", "win"])]
    wins = 0
    for r in reports:
        win = int(r.mmd2 < r.baseline_mmd2)
        wins += win
        lines.append(_csv_line([r.task_id, r.task_name, f"{r.mmd2:.9g}",
                                f"{r.baseline_mmd2:.9g}", f"{r.nn_min_distance:.9g}", win]))
    text = "".join(lines)
    if args.out:
        atomic_write(args.out, text)
    sys.stdout.write(text)
    print(f"meta-trained beats its starting point on {wins}/{len(reports)} classes")
    return 0


def cmd_pack(args) -> int:
    _destination(args.output)
    classes = read_class_dirs(Path(args.input))
    atomic_write(args.output, pack_shard(classes))
    total = sum(images.shape[0] for _, images in classes)
    print(f"packed {len(classes)} classes / {total} images into {args.output}")
    return 0


def cmd_stats(args) -> int:
    _destination(args.csv)
    with open(args.shard, "rb") as f:
        classes = load_shard(f)
    sizes = np.array(sorted(images.shape[0] for _, images in classes))
    total = int(sizes.sum())
    print(f"classes: {len(classes)}")
    print(f"images: {total}")
    print(f"class size min/median/max: {sizes.min()}/{np.median(sizes):.12g}/{sizes.max()}")
    lines = ["class_size,cumulative_fraction"] + [
        f"{size},{frac:.6f}" for size, frac in zip(sizes, np.cumsum(sizes) / total)]
    if args.csv:
        atomic_write(args.csv, "\n".join(lines) + "\n")
        print(f"cumulative density written to {args.csv}")
    return 0


def cmd_gradcheck(args) -> int:
    t0 = time.perf_counter()
    worst, _, ok = run_gradcheck(trials=args.trials, seed=args.seed,
                                 log=print if args.verbose else None)
    print(f"gradcheck: {args.trials} trials, max relative error {worst:.3e} "
          f"({time.perf_counter() - t0:.1f}s)")
    if not ok:
        print(f"FAIL: exceeds tolerance {DEFAULT_TOL:g}")
        return 1
    print(f"PASS: all gradients within {DEFAULT_TOL:g}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # refused as bad input by `main`, in one line
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="figr",
                description="few-shot image generation trainer")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run meta-training")
    t.add_argument("--config", required=True)
    t.add_argument("--steps", type=int, default=None,
                   help="override the config's meta_steps target")
    t.add_argument("--resume", default=None, help="checkpoint to continue from")
    t.add_argument("--out", default=None, help="override the config's out_dir")
    t.set_defaults(fn=cmd_train)

    g = sub.add_parser("generate", help="adapt to one class and emit samples")
    g.add_argument("--config", required=True)
    g.add_argument("--checkpoint", required=True)
    g.add_argument("--class-name", default=None)
    g.add_argument("--split", choices=("train", "validation"), default="validation")
    g.add_argument("--n", type=int, default=None, help="conditioning images")
    g.add_argument("--k", type=int, default=None, help="adaptation steps")
    g.add_argument("--count", type=int, default=12, help="images to generate, in fixed-size chunks")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="generated")
    g.set_defaults(fn=cmd_generate)

    e = sub.add_parser("eval", help="score validation classes")
    e.add_argument("--config", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--trials", type=int, default=10)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", default=None, help="CSV destination")
    e.set_defaults(fn=cmd_eval)

    k = sub.add_parser("pack", help="pack PGM class directories into a shard")
    k.add_argument("--input", required=True)
    k.add_argument("--output", required=True)
    k.set_defaults(fn=cmd_pack)

    s = sub.add_parser("stats", help="summarize a shard")
    s.add_argument("--shard", required=True)
    s.add_argument("--csv", default=None)
    s.set_defaults(fn=cmd_stats)

    c = sub.add_parser("gradcheck", help="finite-difference gradient certification")
    c.add_argument("--trials", type=int, default=20)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--verbose", action="store_true")
    c.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, floor in FLOORS.items():
            value = getattr(args, name, None)
            if value is not None and value < floor:
                raise ValueError(f"--{name} must be >= {floor}, got {value}")
        return args.fn(args)
    except (OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:      # numpy's message names the array it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
