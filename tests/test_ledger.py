"""Same bits, checked: sha256 digests of figr's outputs, pinned.

The table holds the digests of
- a tiny 6-step `figr train` in single and in double precision: the final
  φ, Adam moments and step (the arrays, not the file, so a change of
  container does not move them) and the log rows without `seconds`;
- `figr eval --trials 2`'s CSV and the uint8 images of `figr generate
  --count 8`, both on that run's last checkpoint;
- one default-config meta-step from φ₀: the updated φ and moments and the
  record without `seconds`;
- `run_gradcheck(trials=2)`'s per-check errors, to 3 significant digits.

A change that claims to keep every output bit must leave the table as it
is.  Changing a digest needs a CHANGES.md line that says which digest, why,
and that the old value was checked against the parent commit.

The digests hold for one numpy and BLAS build (OpenBLAS picks its kernels
by build and CPU), recorded in BUILD; on another build each check fails
and names both.  `python tests/test_ledger.py` prints the table this build
computes (run it with `src` on PYTHONPATH), to update both in a commit
of their own.
"""

import contextlib
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from figr.checkpoint import load_checkpoint
from figr.cli import _initial_phi, main
from figr.config import RunConfig, build_dataset
from figr.data import load_shard
from figr.gradcheck import run_gradcheck
from figr.models import Discriminator, Generator
from figr.reptile import init_meta_state, meta_step

BUILD = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

LEDGER = {
    "train-single-state": "eaf6964b0ea2c0a5e4eb2544269ca5393143a3c3b2be6ea8042a7cf73a6810d2",
    "train-single-log": "f84b1802a6bd5d058492bd9f6b71855c21c2176d7a16cbc194e5cd3fea65b6da",
    "eval-single-csv": "24e8f991c0758a22c43c2c77e1356e9b06bfca974f498ba738ed842785b42969",
    "generate-single-images": "e1217f0d892f05a89f4b0d0897507397eb237c40012f8082bdca6e55d909530f",
    "train-double-state": "c05e2e66898da9b7e4f6f695c4af669abcb58faf34081e0385c9b87a89a2444d",
    "train-double-log": "1c4005a1261c4bb3d75913ee841baa19910d70fc7a93433e4d03d31398d17be6",
    "eval-double-csv": "4099bc6e0bed43bb8b7df2bccbc20a8f3166a5e4d2403d7a760c139049381385",
    "generate-double-images": "79e36ee465e5a40d96513e24cead0866f715640b168f3ffd8f779962bf7c1b37",
    "meta-step-default": "3c036081fee61119f6b7ddcb451e9040f87765f422d905668fc415c220272c6a",
    "gradcheck-errors": "c9be1df35dcfad7ff45f482086642123aec390c25e16a382ee665fb06a580bb1",
}

TINY_CFG = """
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


def this_build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.ascontiguousarray(part).data)
    return h.hexdigest()


def state_digest(step, phi_d, phi_g, adam_d, adam_g, *more) -> str:
    return sha(str(step), phi_d, phi_g, adam_d.m, adam_d.v, adam_g.m, adam_g.v, *more)


def tiny_run(root: Path, precision: str) -> dict:
    """Train, eval and generate at the tiny config; the digests of each."""
    cfg_path = root / "run.cfg"
    cfg_path.write_text(TINY_CFG + f"precision = {precision}\nout_dir = {root / 'run'}\n")
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = root / "run" / "ckpt_000006.figr"
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--trials", "2", "--out", str(root / "eval.csv")]) == 0
    assert main(["generate", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                 "--count", "8", "--out", str(root / "gen")]) == 0
    data = load_checkpoint(ckpt)
    rows = (root / "run" / "train_log.csv").read_text().splitlines()
    with open(root / "gen" / "generated.fgr8", "rb") as f:
        (_, images), = load_shard(f)
    return {
        f"train-{precision}-state": state_digest(data.step, data.phi_d, data.phi_g,
                                                 data.adam_d, data.adam_g),
        f"train-{precision}-log": sha("\n".join(row.rsplit(",", 1)[0] for row in rows)),
        f"eval-{precision}-csv": sha((root / "eval.csv").read_text()),
        f"generate-{precision}-images": sha(str(images.shape), images),
    }


def default_meta_step() -> str:
    cfg = RunConfig()
    disc, gen = Discriminator(cfg), Generator(cfg)
    state, rec = meta_step(init_meta_state(*_initial_phi(cfg, disc, gen)), disc, gen,
                           build_dataset(cfg), cfg)
    record = (f"{rec.step},{rec.task_id},{rec.critic_loss!r},{rec.gen_loss!r},"
              f"{rec.delta_d_norm!r},{rec.delta_g_norm!r}")
    return state_digest(state.step, state.phi_d.vector, state.phi_g.vector,
                        state.adam_d, state.adam_g, record)


def compute(root: Path) -> dict:
    digests = {}
    for precision in ("single", "double"):
        (root / precision).mkdir()
        digests.update(tiny_run(root / precision, precision))
    digests["meta-step-default"] = default_meta_step()
    _, results, _ = run_gradcheck(trials=2)
    digests["gradcheck-errors"] = sha("\n".join(f"{r.name} {r.trial} {r.max_rel_err:.2e}"
                                                for r in results))
    return digests


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return compute(tmp_path_factory.mktemp("ledger"))


@pytest.mark.parametrize("name", list(LEDGER))
def test_digest_matches_ledger(computed, name):
    build = this_build()
    assert build == BUILD, (f"the ledger was computed on {BUILD}, this is {build}: "
                            "recompute it with `python tests/test_ledger.py`")
    assert computed[name] == LEDGER[name], f"{name} changed: {computed[name]}"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        digests = compute(Path(tmp))
    print(f"BUILD = {this_build()!r}")
    for name, digest in digests.items():
        print(f'    "{name}": "{digest}",')
