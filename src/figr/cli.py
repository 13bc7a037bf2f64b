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
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import (
    BadCheckpoint,
    CheckpointData,
    atomic_write,
    load_checkpoint,
    restore_streams,
    save_checkpoint,
)
from .config import (
    ConfigError,
    RunConfig,
    build_dataset,
    canonical_text,
    fingerprint,
    inner_config,
    load_config,
    model_config,
)
from .data import (
    load_shard,
    pack_class_dirs,
    sample_images,
    write_pgm,
)
from .evaluation import EvalReport, median_bandwidths, mmd_squared, montage, nn_distance
from .gradcheck import DEFAULT_TOL, run_gradcheck
from .models import Discriminator, Generator, ParameterSet
from .reptile import MetaState, figr_generate, init_meta_state, meta_step
from .rng import make_streams


class CliError(RuntimeError):
    pass


class InsufficientImages(CliError):
    pass


CSV_HEADER = "step,task_id,critic_loss,gen_loss,delta_d_norm,delta_g_norm,seconds"
EVAL_COUNT = 64     # images `figr eval` generates per class and arm


def _ckpt_path(out_dir: Path, step: int) -> Path:
    return out_dir / f"ckpt_{step:06d}.figr"


def _build_models(cfg: RunConfig) -> tuple[Discriminator, Generator]:
    mc = model_config(cfg)
    return Discriminator(mc), Generator(mc)


def _restore(cfg: RunConfig, path) -> tuple[Discriminator, Generator, MetaState,
                                           CheckpointData]:
    """Load a checkpoint written under this config and rebuild its state."""
    data = load_checkpoint(path)
    if data.fingerprint != fingerprint(cfg):
        raise CliError("config fingerprint does not match the checkpoint; "
                       "refusing to use it with drifted hyperparameters")
    disc, gen = _build_models(cfg)
    if data.phi_d.size != disc.param_count() or data.phi_g.size != gen.param_count():
        raise BadCheckpoint("checkpoint parameter counts do not match the config")
    dtype = model_config(cfg).dtype
    state = MetaState(
        phi_d=ParameterSet(data.phi_d.astype(dtype, copy=False), disc.layout),
        phi_g=ParameterSet(data.phi_g.astype(dtype, copy=False), gen.layout),
        adam_d=data.adam_d, adam_g=data.adam_g,
        outer_lr=cfg.outer_lr, beta1=cfg.beta1, beta2=cfg.beta2,
        adam_eps=cfg.adam_eps, step=data.step,
    )
    return disc, gen, state, data


def _reconcile_log(path: Path, step: int) -> None:
    """Cut the train log back to its header and the rows of steps 1..step.

    A run starting from the checkpoint of `step` then appends the steps
    after it, so the log agrees with the checkpoints on disk whether the
    run resumes in place, into a fresh directory, or from an earlier
    checkpoint than the log's last row.  The new log replaces the old whole
    (a failed rewrite leaves the old one) and reaches disk with the next
    checkpoint.
    """
    width = CSV_HEADER.count(",") + 1
    rows = []
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            fields = line.split(",")
            if len(fields) == width and fields[0].isdigit() and int(fields[0]) <= step:
                rows.append(line)
    atomic_write(path, "\n".join([CSV_HEADER, *rows]) + "\n", durable=False)


def _checkpoint(log, path: Path, state, streams, fp: bytes) -> None:
    """Flush the log's rows to disk, then write the checkpoint that claims them:
    a resume cuts the log back to its checkpoint but never fills it in."""
    log.flush()
    os.fsync(log.fileno())
    save_checkpoint(path, state, streams, fp)


def _emit_montage(cfg: RunConfig, dataset, disc, gen, state, streams,
                  out_path: Path) -> None:
    """Conditioning row on top, generated rows below; isolated rng stream."""
    from .data import sample_task

    split = "validation" if dataset.val_ids else "train"
    _, task = sample_task(dataset, streams.sample, split=split)
    x = sample_images(task, cfg.n, streams.sample)
    generated = figr_generate(state.phi_d, state.phi_g, disc, gen, x, inner_config(cfg),
                              streams.sample, count=3 * cfg.n)
    tiles = np.concatenate([x, generated], axis=0)
    atomic_write(out_path, write_pgm(montage(tiles, columns=cfg.n, separator_px=2)))


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    fp = fingerprint(cfg)
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = cfg.meta_steps if args.steps is None else args.steps

    dataset = build_dataset(cfg)

    if args.resume:
        disc, gen, state, data = _restore(cfg, args.resume)
        streams = restore_streams(data)
        print(f"resumed from {args.resume} at step {state.step}")
    else:
        disc, gen = _build_models(cfg)
        streams = make_streams(cfg.seed)
        state = init_meta_state(disc, gen, streams.init,
                                outer_lr=cfg.outer_lr, beta1=cfg.beta1,
                                beta2=cfg.beta2, adam_eps=cfg.adam_eps)
        # both are a function of the config alone and a fresh start rewrites
        # them, so they are renamed into place whole but not flushed to disk
        save_checkpoint(_ckpt_path(out_dir, 0), state, streams, fp, durable=False)
        atomic_write(out_dir / "config.cfg", canonical_text(cfg), durable=False)

    saved = None if args.resume else state.step      # the last step this run saved
    log_path = out_dir / "train_log.csv"
    _reconcile_log(log_path, state.step)
    icfg = inner_config(cfg)
    t_start = time.perf_counter()
    with open(log_path, "a", encoding="utf-8") as log:
        while state.step < target:
            state, rec = meta_step(state, disc, gen, dataset, icfg, streams)
            log.write(f"{rec.step},{rec.task_id},{rec.critic_loss:.9g},"
                      f"{rec.gen_loss:.9g},{rec.delta_d_norm:.9g},"
                      f"{rec.delta_g_norm:.9g},{rec.seconds:.6f}\n")
            # montage first: its stream consumption must land in the checkpoint
            if cfg.sample_every and rec.step % cfg.sample_every == 0:
                _emit_montage(cfg, dataset, disc, gen, state, streams,
                              out_dir / f"samples_{rec.step:06d}.pgm")
            if cfg.checkpoint_every and rec.step % cfg.checkpoint_every == 0:
                _checkpoint(log, _ckpt_path(out_dir, rec.step), state, streams, fp)
                saved = rec.step
            if rec.step % 200 == 0:
                elapsed = time.perf_counter() - t_start
                print(f"step {rec.step}/{target} critic {rec.critic_loss:+.4f} "
                      f"gen {rec.gen_loss:+.4f} ({elapsed:.0f}s)", flush=True)
        if saved != state.step:
            _checkpoint(log, _ckpt_path(out_dir, state.step), state, streams, fp)
    print(f"trained to step {state.step}; artifacts in {out_dir}")
    return 0


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    disc, gen, state, _ = _restore(cfg, args.checkpoint)
    dataset = build_dataset(cfg)

    icfg = replace(inner_config(cfg), k=cfg.k if args.k is None else args.k,
                   n=cfg.n if args.n is None else args.n)
    ids = dataset.class_ids(args.split)
    if args.class_name:
        matches = [i for i in ids if dataset.classes[i].name == args.class_name]
        if not matches:
            raise CliError(f"class {args.class_name!r} not in the {args.split} split")
        cid = matches[0]
    else:
        rng0 = np.random.default_rng(args.seed)
        cid = ids[int(rng0.integers(len(ids)))]
    task = dataset.classes[cid]
    if task.images.shape[0] < icfg.n:
        raise InsufficientImages(
            f"class {task.name!r} has {task.images.shape[0]} images, need n={icfg.n}")

    rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(cid,)))
    idx = rng.choice(task.images.shape[0], size=icfg.n, replace=False)
    x = task.images[idx]
    generated = figr_generate(state.phi_d, state.phi_g, disc, gen, x, icfg,
                              rng, count=args.count)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tiles = np.concatenate([x, generated], axis=0)
    atomic_write(out_dir / "montage.pgm",
                 write_pgm(montage(tiles, columns=icfg.n, separator_px=2)))
    from .data import pack_shard
    from .evaluation import to_uint8
    shard = pack_shard([(task.name, to_uint8(generated[:, 0]))])
    atomic_write(out_dir / "generated.fgr8", shard)
    print(f"adapted to class {task.name!r} (n={icfg.n}, k={icfg.k}); "
          f"wrote montage + {args.count} samples to {out_dir}")
    return 0


def evaluate_checkpoint(cfg: RunConfig, state: MetaState, dataset,
                        disc: Discriminator, gen: Generator, trials: int,
                        seed: int) -> list[EvalReport]:
    """Adapt on each validation class and score EVAL_COUNT samples against
    its held-out images.  A scored class needs more than n images, so that
    n condition the adaptation and the rest are held out.

    The baseline arm repeats the identical protocol from a fresh random
    initialization; both arms share per-class rng so the comparison is paired.
    """
    ids = dataset.class_ids("validation")
    if not ids:
        raise CliError("validation split is empty")
    if trials < 1:
        raise CliError(f"--trials must be >= 1, got {trials}")
    if trials > len(ids):
        print(f"warning: --trials {trials} capped at {len(ids)} validation classes")
        trials = len(ids)
    icfg = inner_config(cfg)
    for cid in ids[:trials]:
        task = dataset.classes[cid]
        if task.images.shape[0] <= icfg.n:
            raise InsufficientImages(f"validation class {task.name!r} has {task.images.shape[0]} "
                                     f"images; scoring needs more than n={icfg.n}")
    baseline_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xB, 0)))
    base_state = init_meta_state(disc, gen, baseline_rng)
    reports = []
    for cid in ids[:trials]:
        task = dataset.classes[cid]
        pick_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(cid, 1)))
        idx = pick_rng.choice(task.images.shape[0], icfg.n, replace=False)
        x = task.images[idx]
        held = np.delete(task.images, idx, axis=0)
        bandwidths = median_bandwidths(held)

        samples = {}
        for arm, phi_d, phi_g in (("meta", state.phi_d, state.phi_g),
                                  ("base", base_state.phi_d, base_state.phi_g)):
            arm_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(cid, 2)))
            samples[arm] = figr_generate(phi_d, phi_g, disc, gen, x, icfg,
                                         arm_rng, count=EVAL_COUNT)
        reports.append(EvalReport(
            task_id=cid, task_name=task.name,
            mmd2=mmd_squared(samples["meta"], held, bandwidths),
            baseline_mmd2=mmd_squared(samples["base"], held, bandwidths),
            nn_min_distance=nn_distance(samples["meta"], x),
        ))
    return reports


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    disc, gen, state, _ = _restore(cfg, args.checkpoint)
    dataset = build_dataset(cfg)
    reports = evaluate_checkpoint(cfg, state, dataset, disc, gen,
                                  trials=args.trials, seed=args.seed)
    lines = ["task_id,name,mmd2,baseline_mmd2,nn_distance,win"]
    wins = 0
    for r in reports:
        win = int(r.mmd2 < r.baseline_mmd2)
        wins += win
        lines.append(f"{r.task_id},{r.task_name},{r.mmd2:.9g},"
                     f"{r.baseline_mmd2:.9g},{r.nn_min_distance:.9g},{win}")
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write(args.out, text)
    sys.stdout.write(text)
    print(f"meta-trained beats random init on {wins}/{len(reports)} classes")
    return 0


def cmd_pack(args) -> int:
    blob = pack_class_dirs(Path(args.input))
    atomic_write(args.output, blob)
    ds = load_shard(blob)
    total = sum(c.images.shape[0] for c in ds.classes)
    print(f"packed {len(ds.classes)} classes / {total} images into {args.output}")
    return 0


def cmd_stats(args) -> int:
    ds = load_shard(Path(args.shard).read_bytes())
    sizes = np.array(sorted(c.images.shape[0] for c in ds.classes))
    total = int(sizes.sum())
    print(f"classes: {len(ds.classes)}")
    print(f"images: {total}")
    print(f"class size min/median/max: {sizes.min()}/{int(np.median(sizes))}/{sizes.max()}")
    lines = ["class_size,cumulative_fraction"]
    cum = np.cumsum(sizes) / total
    for size, frac in zip(sizes, cum):
        lines.append(f"{size},{frac:.6f}")
    if args.csv:
        atomic_write(args.csv, "\n".join(lines) + "\n")
        print(f"cumulative density written to {args.csv}")
    return 0


def cmd_gradcheck(args) -> int:
    t0 = time.perf_counter()
    worst, _, ok = run_gradcheck(trials=args.trials, seed=args.seed,
                                 corrupt=args.self_test_bug,
                                 log=print if args.verbose else None)
    print(f"gradcheck: {args.trials} trials, max relative error {worst:.3e} "
          f"({time.perf_counter() - t0:.1f}s)")
    if not ok:
        print(f"FAIL: exceeds tolerance {DEFAULT_TOL:g}")
        return 1
    print(f"PASS: all gradients within {DEFAULT_TOL:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="figr",
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
    g.add_argument("--count", type=int, default=12, help="images to generate")
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
    c.add_argument("--self-test-bug", action="store_true", help=argparse.SUPPRESS)
    c.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and args.count < 1:
        parser.error("--count must be >= 1")
    try:
        return args.fn(args)
    except (CliError, ConfigError, BadCheckpoint, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
