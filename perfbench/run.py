"""MEMHD end-to-end benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-wide-single --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing recorded;
``--trace 1`` runs the same phases, then replays requests and training
stage by stage and reports per-layer metrics instead.  Human-readable
lines (environment, host slowdown, per-phase request counts, every
metric with its unit) go to stdout; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything the run writes stays under ``.bench_build/`` in the checkout:
the native kernel's compile cache, the temporary registries and server
logs, and (traced runs) the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")


def _stop_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _source_digest() -> str:
    """SHA-256 over ``src/repro``: names the code in a checkout without git."""
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src", "repro")
    for directory, subdirs, files in sorted(os.walk(source)):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or None


def environment() -> dict:
    """What makes two results comparable: code, machine, kernel tier.

    The native popcount build falls back to numpy without an error, so a
    fallback run is only recognisable from this record.
    """
    import numpy
    from repro.hdc._packed_kernels import native_build_info
    from repro.hdc.packed import kernel_backend

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel_backend": kernel_backend(),
        "native_build_info": native_build_info(),
    }


def _declared_metrics(kind: str) -> dict:
    with open(BENCHMARK_FILE) as handle:
        declared = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in declared[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    # Keep every file the program writes (the native kernel's compile
    # cache goes to the temp dir) inside the checkout.
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD_DIR, "tmp")
    tempfile.tempdir = None
    sys.path.insert(0, os.path.join(ROOT, "src"))
    signal.signal(signal.SIGTERM, _stop_on_sigterm)

    import workloads
    from hostspeed import HostSpeed
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment()  # also builds the native kernel before any timing
    print("environment " + json.dumps(env, sort_keys=True))

    run = workloads.run_serving if workload.serving else workloads.run_training
    tracer = Tracer()
    host = HostSpeed()
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    try:
        out = run(workload, args.seed, args.seconds, bool(args.trace),
                  ROOT, workdir, tracer, host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.layers["error_rate"] = out.failed / out.attempted

    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, f"{workload.name}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")

    print(f"workload {workload.name} seed {args.seed} "
          + " ".join(f"{k}={v}" for k, v in sorted(out.notes.items())))
    slowdowns = host.slowdowns
    print(f"host slowdown over {len(slowdowns)} bursts: median "
          f"{statistics.median(slowdowns):.3f}, range "
          f"{min(slowdowns):.3f} to {max(slowdowns):.3f}")
    print(f"{'phase':<12} {'attempted':>9} {'succeeded':>9} {'failed':>6} "
          f"{'status0':>7} {'mismatch':>8}  statuses")
    for phase in out.phases:
        print(f"{phase.name:<12} {phase.attempted:>9} {phase.succeeded:>9} "
              f"{phase.failed:>6} {phase.transport_failures:>7} "
              f"{phase.label_mismatches:>8}  {dict(sorted(phase.statuses.items()))}")
    print(f"{'checks':<12} {out.checks_attempted:>9} "
          f"{out.checks_attempted - len(out.failed_checks):>9} "
          f"{len(out.failed_checks):>6}  {out.failed_checks}")

    kind = "per_layer" if args.trace else "end_to_end"
    units = _declared_metrics(kind)
    values = out.layers if args.trace else out.metrics
    if not args.trace:
        print(f"{'error_rate':<34} {out.layers['error_rate']:>14.6g} ratio")
        for name, value in sorted(out.raw.items()):
            print(f"{name + ' (raw)':<34} {value:>14.6g} {units[name]}")
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": float(values[name]), "unit": unit}
        print(f"{name:<34} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
