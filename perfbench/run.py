"""figr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

One run drives one workload through ``figr.cli.main`` in this interpreter,
checks the outputs, and prints every metric by name with its unit.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
``--all`` runs every workload, each in a fresh interpreter.  ``--self-test``
checks on the tiny model that every per-layer metric is fed by its layer.
Results, traces and a same-seed digest ledger go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GRADCHECK_TRIALS = 3

# names the timing figures are printed under, by workload command
ALIASES = {
    "train": {"ops_per_s": ("meta_steps_per_s", 1.0, "1/s"),
              "op_ms_p50": ("step_ms_p50", 1.0, "ms")},
    "eval": {"ops_per_s": ("eval_s_per_class", -1.0, "s"),
             "op_ms_p50": ("class_ms_p50", 1.0, "ms")},
}


def nproc() -> int:
    """Usable cores; kept free of numpy so the BLAS cap can be set before it loads."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _limit_blas_threads() -> None:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    cores = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= cores):
            os.environ[var] = str(cores)


def _import_path() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


# -- one workload ------------------------------------------------------------

def _code_hash() -> str:
    """sha256 over figr's sources, so only runs of the same code share a ledger key."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "figr").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _check_ledger(key: str, digest: str | None) -> str | None:
    """Record a run's digest; report a differing digest for the same key."""
    if digest is None:
        return None
    path = OUT / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    known = ledger.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    if known != digest:
        return f"digest {digest[:12]} differs from {known[:12]} of an earlier run ({key})"
    return None


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    from figr.gradcheck import run_gradcheck

    from perfbench import report
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Session, timed_ops

    spec = _spec()
    workload = WORKLOADS[name]
    env = {"nproc": nproc(), **report.environment(ROOT)}

    worst, _, ok = run_gradcheck(trials=GRADCHECK_TRIALS, seed=seed)
    if not ok:
        print(f"error: gradcheck failed (max relative error {worst:.3e})", file=sys.stderr)
        return 1

    tracer = Tracer() if trace else None
    n_timed = timed_ops(workload, seconds)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    session = Session(workload, seed, n_timed, OUT / "work" / f"{tag}-{os.getpid()}", tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):    # figr's own progress lines
            result = session.run()
    except Exception as exc:
        print(f"error: {name} could not run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        session.cleanup()

    config_hash = hashlib.sha256(result["config_text"].encode()).hexdigest()
    key = (f"{name}|seed={seed}|ops={result['ops']}|code={_code_hash()[:16]}"
           f"|config={config_hash[:16]}")
    problem = _check_ledger(key, result["digest"])
    if problem:
        result["problems"].append(problem)
    if result["problems"]:           # output that cannot be trusted fails every operation
        result["failed"] = result["ops"]
    correct = result["failed"] == 0
    complete = len(result["op_ends"]) == result["ops"]

    print(f"figr benchmark: workload {name}, seed {seed}, trace {int(trace)}, "
          f"{result['ops']} operations")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"config fingerprint {result['fingerprint'][:16]}, digest "
          f"{(result['digest'] or 'none')[:16]}")
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}")

    metrics: dict[str, dict] = {}
    if complete and not trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timing = report.timing(result, workload.command == "eval")
        values = report.end_to_end(result, timing, rss_mb)
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        n = len(timing["intervals_s"])
        for key, (alias, power, unit) in ALIASES[workload.command].items():
            print(f"  {alias:22s} {_fmt(timing[key] ** power):>12s} {unit:6s} [{key}, n={n}]")
        if name == "train-tiny":
            print(f"  {'step_ms_p90':22s} {_fmt(timing['op_ms_p90']):>12s} {'ms':6s} "
                  f"[n={n}, {n // 10} beyond]")
        print(f"  {'setup_s':22s} {_fmt(values['setup_s']):>12s} {'s':6s} "
              f"[median of {len(result['setup_samples_s'])} set-ups]")
        print(f"  {'peak_rss_mb':22s} {_fmt(rss_mb):>12s} {'MB':6s}")
        result["intervals_s"] = timing["intervals_s"]
    elif complete:
        names = [m["name"] for m in spec["per_layer"]]
        values = report.per_layer(result, tracer, names)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:40s} {_fmt(values[m['name']]):>12s} {m['unit']}")
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{tag}.jsonl", result["t_start"])
    print(f"  {'error_rate':22s} {_fmt(result['failed'] / result['ops']):>12s} "
          f"{'ratio':6s} [{result['failed']} of {result['ops']} operations failed]")

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "correct": correct, "metrics": metrics,
              **{k: v for k, v in result.items()
                 if k not in ("t_start", "setup_end", "op_ends", "traced_from")}}
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": result["ops"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct and complete else 1


# -- all workloads -----------------------------------------------------------

def run_all(seed: int, seconds: int, trace: bool) -> int:
    from perfbench.workloads import WORKLOADS

    rc = 0
    finals = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            rc = 1
            continue
        finals[name] = json.loads(lines[-1])["metrics"]
    if trace and len(finals) == len(WORKLOADS):
        _print_contrasts(finals)
    return rc


def _print_contrasts(m: dict) -> None:
    def v(workload, metric):
        return m[workload][metric]["value"]

    saves = {w: v(w, "checkpoint.save_checkpoint.calls") for w in m}
    claims = [
        ("conv2d + unfold3x3 + fold3x3 share: train-default > train-tiny",
         v("train-default", "autodiff.conv.share") > v("train-tiny", "autodiff.conv.share")),
        ("layer_norm share: train-tiny > train-default",
         v("train-tiny", "autodiff.layer_norm.share")
         > v("train-default", "autodiff.layer_norm.share")),
        ("save_checkpoint in the timed window only on train-tiny",
         saves["train-tiny"] > 0 and saves["train-default"] == 0
         and saves["eval-default"] == 0),
    ]
    for text, holds in claims:
        print(f"contrast {'holds' if holds else 'DOES NOT HOLD'}: {text}")


# -- self-test ---------------------------------------------------------------

def self_test() -> int:
    """Every per-layer metric must read non-zero on each workload whose layer
    it measures, here on the tiny model; no timing is asserted."""
    import figr

    from perfbench import report
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Session

    names = [m["name"] for m in _spec()["per_layer"]]
    modules = {n: m for n, m in sys.modules.items() if n.startswith(figr.__name__)}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    failures = []
    for name, workload in WORKLOADS.items():
        tracer = Tracer()
        session = Session(workload, 0, 2 * workload.cadence,
                          OUT / "work" / f"selftest-{name}-{os.getpid()}", tracer, tiny=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = session.run()
        finally:
            session.cleanup()
        if result["problems"] or result["failed"]:
            failures.append(f"{name}: run failed: {result['problems']}")
            continue
        values = report.per_layer(result, tracer, names)
        for metric in names:
            if name in report.COVERAGE[report.layer_of(metric)] and not values[metric] > 0:
                failures.append(f"{name}: {metric} reads {values[metric]}")
    for n, m in modules.items():
        changed = [k for k, v in vars(m).items() if before[n].get(k) is not v]
        if changed:
            failures.append(f"{n}: bindings not restored: {changed}")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"self-test: {len(names)} per-layer metrics on {len(WORKLOADS)} workloads, "
          f"{len(failures)} failures")
    return 1 if failures else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--self-test", action="store_true", help="check layer coverage")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "figr" / "cli.py").is_file():
        print(f"error: no figr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    _import_path()
    import figr
    if Path(figr.__file__).resolve().parent != ROOT / "src" / "figr":
        print(f"error: figr imported from {figr.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    if args.self_test:
        return self_test()
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
