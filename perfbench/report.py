"""Turn a run's timestamps and spans into the named metrics, and record the
environment they were measured in."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
from pathlib import Path

import numpy as np

from .tracing import STEP_KINDS, TARGETS

TRAIN = ("train-default", "train-tiny")
ALL = TRAIN + ("eval-default",)

# which workload must exercise each layer; the self-test asserts it
COVERAGE = {
    "autodiff.conv2d": ALL,
    "autodiff.unfold3x3": ALL,
    "autodiff.fold3x3": ALL,
    "autodiff.matmul": ALL,
    "autodiff.conv": ALL,
    "autodiff.layer_norm": ALL,
    "autodiff.prelu": ALL,
    "autodiff.backward": ALL,
    "autodiff.backward_gp": ALL,
    "autodiff.tape_nodes": ALL,
    "losses.gradient_penalty": ALL,
    "models.Generator.forward": ALL,
    "models.Discriminator.forward": ALL,
    "reptile.inner_loop": ALL,
    "reptile.adam_step": TRAIN,
    "reptile.params_delta": TRAIN,
    "reptile.figr_generate": ("train-tiny", "eval-default"),
    "checkpoint.save_checkpoint": ("train-tiny",),
    "checkpoint.load_checkpoint": ("eval-default",),
    "config.build_dataset": ALL,
    "data.synth_glyph_dataset": ALL,
    "data.sample_images": TRAIN,
    "evaluation.mmd_squared": ("eval-default",),
    "evaluation.montage": ("train-tiny",),
    "trace": (),
}

# layers that run only during set-up; their metrics are per run, the rest per operation
SETUP_LAYERS = ("config.build_dataset", "data.synth_glyph_dataset",
                "checkpoint.load_checkpoint")
CONV_LAYERS = ("autodiff.conv2d", "autodiff.unfold3x3", "autodiff.fold3x3")


def layer_of(metric: str) -> str:
    """The COVERAGE key a metric name belongs to (longest dotted prefix)."""
    parts = metric.split(".")
    for i in range(len(parts) - 1, 0, -1):
        key = ".".join(parts[:i])
        if key in COVERAGE:
            return key
    raise KeyError(f"metric {metric!r} belongs to no known layer")


def timing(result: dict, time_first_op: bool) -> dict:
    """Operation intervals and rate of the timed window.

    Train runs skip the warm-up meta-step.  Eval runs time every class from
    the moment evaluate_checkpoint starts, because a user pays the first,
    cold class on every `figr eval`.
    """
    ends = result["op_ends"]
    marks = [result["setup_end"]] + ends if time_first_op else ends
    intervals = np.diff(marks)
    window = marks[-1] - marks[0]
    return {"intervals_s": [float(v) for v in intervals],
            "ops_per_s": len(intervals) / window,
            "op_ms_p50": 1000 * float(np.median(intervals)),
            "op_ms_p90": 1000 * float(np.percentile(intervals, 90))}


def end_to_end(result: dict, t: dict, peak_rss_mb: float) -> dict:
    return {"ops_per_s": t["ops_per_s"],
            "setup_s": statistics.median(result["setup_samples_s"]),
            "peak_rss_mb": peak_rss_mb}


def per_layer(result: dict, tracer, names: list[str]) -> dict:
    """Every named per-layer metric from the traced half of a run.

    The run's first half (after the warm-up) is untraced and its second
    half traced; the ratio of their mean operation times is the tracing
    overhead.  Per-operation values divide by the traced operations.
    """
    ends = result["op_ends"]
    h = result["timed_ops"] // 2
    untraced = ends[h] - ends[0]
    traced = ends[2 * h] - ends[h]
    ops_ids = tracer.window(result["traced_from"], ends[2 * h])
    ops = tracer.aggregate(ops_ids)
    setup = tracer.aggregate(tracer.window(result["t_start"], result["setup_end"]))
    layers, tape = ops["layers"], ops["tape"]

    def stat(layer: str, field: str) -> float:
        if layer in SETUP_LAYERS:
            return setup["layers"].get(layer, {}).get(field, 0)
        return layers.get(layer, {}).get(field, 0) / h

    values = {}
    for name in names:
        layer, _, field = name.rpartition(".")
        if name == "trace.overhead":
            values[name] = traced / untraced - 1.0
        elif name == "trace.spans":
            values[name] = len(ops_ids) / h
        elif name == "autodiff.conv.share":
            values[name] = sum(layers.get(k, {}).get("self_s", 0.0)
                               for k in CONV_LAYERS) / traced
        elif name == "autodiff.layer_norm.share":
            values[name] = layers.get("autodiff.layer_norm", {}).get("s", 0.0) / traced
        elif layer == "autodiff.tape_nodes":
            if field in STEP_KINDS:
                steps = tape["steps"][field]
                values[name] = tape["nodes"][field] / steps if steps else 0.0
            elif field == "all":
                values[name] = sum(tape["nodes"].values()) / h
            else:
                values[name] = tape["ops"][field] / h
        elif name == "checkpoint.save_checkpoint.bytes":
            values[name] = ops["saved_bytes"] / h
        elif field in ("calls", "s", "self_s") and (
                layer in TARGETS or layer == "autodiff.backward_gp"):
            values[name] = stat(layer, field)
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return values


# -- environment -------------------------------------------------------------

def _blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if it cannot be asked."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit(root: Path):
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
    }
