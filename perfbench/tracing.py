"""Span tracer that wraps figr's public functions from outside the package.

Installing the tracer replaces each traced function by a wrapper in every
figr module that holds a reference to it.  Several modules import by name
(``reptile`` and ``losses`` hold their own ``backward``; ``cli`` holds
``figr_generate``, ``save_checkpoint``, ``build_dataset`` and others), so
patching only the defining module would leave those callers untraced and
the layer would silently read zero.

Each wrapped call appends one span to an in-memory list: name, parent
span, operation index (the meta-step or class that caused it), start,
end, and a few layer-specific counts.  Spans are aggregated and written
out only after the run.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import types
from collections import Counter, defaultdict

# span name -> (defining module, attribute path); params_delta lives in models
# but is reported under the reptile layer that calls it
TARGETS = {
    "autodiff.conv2d": ("figr.autodiff", "conv2d"),
    "autodiff.unfold3x3": ("figr.autodiff", "unfold3x3"),
    "autodiff.fold3x3": ("figr.autodiff", "fold3x3"),
    "autodiff.matmul": ("figr.autodiff", "matmul"),
    "autodiff.layer_norm": ("figr.autodiff", "layer_norm"),
    "autodiff.prelu": ("figr.autodiff", "prelu"),
    "autodiff.backward": ("figr.autodiff", "backward"),
    "losses.gradient_penalty": ("figr.losses", "gradient_penalty"),
    "models.Generator.forward": ("figr.models", "Generator.forward"),
    "models.Discriminator.forward": ("figr.models", "Discriminator.forward"),
    "reptile.meta_step": ("figr.reptile", "meta_step"),
    "reptile.inner_loop": ("figr.reptile", "inner_loop"),
    "reptile.adam_step": ("figr.reptile", "adam_step"),
    "reptile.params_delta": ("figr.models", "params_delta"),
    "reptile.figr_generate": ("figr.reptile", "figr_generate"),
    "checkpoint.save_checkpoint": ("figr.checkpoint", "save_checkpoint"),
    "checkpoint.load_checkpoint": ("figr.checkpoint", "load_checkpoint"),
    "config.build_dataset": ("figr.config", "build_dataset"),
    "data.synth_glyph_dataset": ("figr.data", "synth_glyph_dataset"),
    "data.sample_images": ("figr.data", "sample_images"),
    "evaluation.mmd_squared": ("figr.evaluation", "mmd_squared"),
    "evaluation.montage": ("figr.evaluation", "montage"),
}

# first-order backward calls alternate critic step, generator step inside
# every inner loop, so their order within the loop names the step
STEP_KINDS = ("critic_step", "gen_step")

# span record fields
NAME, PARENT, OP, START, END, EXTRA = range(6)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Records spans while installed; install() and uninstall() may repeat."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0                  # index of the operation in progress
        self._parity = 0             # first-order backward calls in this inner loop
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            return
        figr_modules = [m for n, m in list(sys.modules.items())
                        if m is not None and (n == "figr" or n.startswith("figr."))]
        for name, (module_name, path) in TARGETS.items():
            owner, attr, original = _resolve(module_name, path)
            wrapper = self._wrapper(name, original)
            if not isinstance(owner, types.ModuleType):   # a method: patch the class only
                self._patch(owner, attr, original, wrapper)
                continue
            for module in figr_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    # -- wrappers -----------------------------------------------------------

    def _open(self, name: str, extra=None) -> list:
        rec = [name, self.stack[-1] if self.stack else -1, self.op,
               time.perf_counter(), 0.0, extra]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.stack.pop()

    def _wrapper(self, name: str, fn):
        if name == "autodiff.backward":
            return self._backward_wrapper(fn)
        if name == "reptile.inner_loop":
            return self._inner_loop_wrapper(fn)
        if name == "checkpoint.save_checkpoint":
            return self._save_wrapper(fn)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def _backward_wrapper(self, fn):
        def traced(loss, create_graph=False):
            if create_graph:
                rec = self._open("autodiff.backward_gp")
            else:
                # the tape is complete when the first-order backward starts
                nodes = loss.graph.nodes if loss.graph is not None else []
                extra = {"kind": STEP_KINDS[self._parity % 2], "nodes": len(nodes),
                         "ops": Counter(node.op for node in nodes)}
                self._parity += 1
                rec = self._open("autodiff.backward", extra)
            try:
                return fn(loss, create_graph=create_graph)
            finally:
                self._close(rec)
        return traced

    def _inner_loop_wrapper(self, fn):
        def traced(*args, **kwargs):
            self._parity = 0
            rec = self._open("reptile.inner_loop")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def _save_wrapper(self, fn):
        def traced(path, *args, **kwargs):
            rec = self._open("checkpoint.save_checkpoint", {})
            try:
                result = fn(path, *args, **kwargs)
            finally:
                self._close(rec)
            rec[EXTRA]["bytes"] = os.path.getsize(path)
            return result
        return traced

    # -- results ------------------------------------------------------------

    def window(self, t0: float, t1: float) -> list[int]:
        """Ids of the closed spans that start and end inside [t0, t1]."""
        return [i for i, s in enumerate(self.spans)
                if s[END] and s[START] >= t0 and s[END] <= t1]

    def aggregate(self, ids: list[int]) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; plus tape counts.

        Self time is a span's duration minus the time its child spans cover.
        """
        spans = self.spans
        child_s: dict[int, float] = defaultdict(float)
        for i in ids:
            s = spans[i]
            if s[PARENT] >= 0:
                child_s[s[PARENT]] += s[END] - s[START]
        layers: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        tape = {"ops": Counter(), "nodes": Counter(), "steps": Counter()}
        saved_bytes = 0
        for i in ids:
            s = spans[i]
            dur = s[END] - s[START]
            row = layers[s[NAME]]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_s[i]
            extra = s[EXTRA]
            if not extra:
                continue
            if "kind" in extra:
                tape["steps"][extra["kind"]] += 1
                tape["nodes"][extra["kind"]] += extra["nodes"]
                tape["ops"].update(extra["ops"])
            saved_bytes += extra.get("bytes", 0)
        return {"layers": dict(layers), "tape": tape, "saved_bytes": saved_bytes}

    def write(self, path, t_origin: float) -> None:
        """One JSON object per span, times relative to t_origin."""
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                if not s[END]:
                    continue
                row = {"id": i, "parent": s[PARENT], "name": s[NAME], "op": s[OP],
                       "start": round(s[START] - t_origin, 7),
                       "end": round(s[END] - t_origin, 7)}
                extra = s[EXTRA]
                if extra:
                    row.update({k: (dict(v) if isinstance(v, Counter) else v)
                                for k, v in extra.items()})
                out.write(json.dumps(row) + "\n")
