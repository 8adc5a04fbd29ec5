"""Benchmark entry point.

    python3 perfbench/run.py --workload tree-online --seed 1 --seconds 15 --trace 0

Runs one workload in this process with BLAS pinned to one thread, prints a
human-readable report (environment, every metric with its unit and sample
count) and, as the last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
``--trace 0`` measures the end-to-end metrics for about ``--seconds`` after
set-up, at reference speed (hostspeed.py); ``--trace 1`` runs fixed counts (so they repeat exactly), reports the
per-layer metrics and writes the spans to .perfbench_out/.  Exits 1 if any operation failed or
any answer differed from exact.propagate_all by more than 1e-9, and 2 if the
package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy is imported

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int, digest: str) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "input_digest": digest,
        "commit": _git_commit(),
    }


def _fmt(name, value, unit, n=None) -> str:
    v = "n/a" if value is None else repr(value)
    extra = f"  (n={n})" if n is not None else ""
    return f"# {name:42s} {v} {unit}{extra}"


def main(argv=None, tiny: bool = False) -> int:
    """``tiny`` shrinks every model for the benchmark's own smoke tests."""
    try:
        import treebelief  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import treebelief from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import measure
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    wl = WORKLOADS[args.workload](args.seed, tiny=tiny)
    env = environment(args.seed, wl.input_digest())
    print(f"# env {json.dumps(env)}")
    print(f"# workload {wl.name}: predict = {wl.predict_name}; closed loop, one client")

    if args.trace:
        metrics, tally, tracer = measure.run_traced(wl)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        stem = f"{wl.name}-seed{args.seed}"
        tracer.save(out / f"trace-{stem}.npz")
        (out / f"layers-{stem}.json").write_text(json.dumps({"env": env, "metrics": metrics}, indent=1))
        gated = measure.PER_LAYER
        shown = {**gated, **measure.PER_LAYER_REPORT_ONLY}
        samples = {}
    else:
        metrics, tally, samples = measure.run_untraced(wl, args.seconds)
        gated = measure.END_TO_END
        shown = {**gated, **measure.END_TO_END_REPORT_ONLY}
    metrics["failed_frac"] = tally.failed / max(tally.attempted, 1)

    for name, unit in shown.items():
        print(_fmt(name, metrics.get(name), unit, samples.get(name)))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in gated.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
