"""Benchmark of pnpsubdiv, end to end or traced by layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload refine-modified --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

* ``refine-modified``: ``refine(mesh, scheme, 3)`` for modified lp, by, cc
  and k4 on 30x10 tori (300 -> 19,200 vertices);
* ``refine-linear``: the same four refinements in linear mode;
* ``cli-morph``: ``pnpsubdiv.cli.main`` runs ``morph`` (lp, 3 steps,
  3 levels on a 20x8 tri torus) and ``compare`` (cc,k4, 2 levels on a
  20x8 quad torus) on OBJ files written during set-up.

The seed sets a random rigid pose of the inputs. ``--trace 0`` runs whole
passes over the workload's jobs for about ``--seconds`` seconds with
tracing off, checks the outputs (``jobs.py``) and reports the end-to-end
metrics, with times normalized to a host-speed probe (``hostspeed.py``).
``--trace 1`` runs one traced pass (``tracing.py``) and reports the
per-layer metrics.
Readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Everything the run writes goes under ``.bench_work/`` at the
root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("refine-modified", "refine-linear", "cli-morph")
SETUP_REPS = 5

UNITS = {
    "setup_s": "s",
    "refined_vps": "vertices/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "peak_rss_mb": "MiB",
}


def log(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr, flush=True)


def import_package() -> None:
    """Import pnpsubdiv from this checkout's sources, and only from there."""
    init = os.path.join(SRC, "pnpsubdiv", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"bench: {init} not found; run from the root of a pnpsubdiv checkout")
    sys.path.insert(0, SRC)
    import pnpsubdiv

    if os.path.abspath(pnpsubdiv.__file__) != init:
        raise SystemExit(f"bench: imported {pnpsubdiv.__file__}, expected {init}")


def time_setup(workload: str, seed: int, indir: str) -> list[tuple[float, float]]:
    """(wall, probe) seconds of ``SETUP_REPS`` cold set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"), workload, str(seed), indir],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up failed:\n{proc.stderr}")
        wall, probe = proc.stdout.split()[-2:]
        samples.append((float(wall), float(probe)))
    return samples


def end_to_end(workload, meshes, indir, workdir, seed, seconds, goldens, setup_samples) -> dict:
    import hostspeed
    import jobs

    records, passes = jobs.run_passes(workload, meshes, indir, workdir, seed, seconds, goldens, log)
    times = [r.seconds for r in records]
    tail, tail_label = jobs.tail_percentile(times)
    failed = sum(r.failed for r in records)
    metrics = {
        "setup_s": statistics.median(hostspeed.normalize(w, p) for w, p in setup_samples),
        "refined_vps": statistics.median(v / s for v, s in passes),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    walls = [r.wall for r in records]
    notes = {
        "setup_s": f"median of {len(setup_samples)} cold set-ups; "
        f"wall {statistics.median(w for w, _ in setup_samples):.4g} s",
        "refined_vps": f"median of {len(passes)} passes; wall {sum(v for v, _ in passes) / sum(walls):.5g}",
        "job_s.p50": f"n={len(times)}; wall {statistics.median(walls):.4g} s",
        "job_s.tail": f"{tail_label}; wall {jobs.tail_percentile(walls)[0]:.4g} s",
    }
    print(f"{workload} seed={seed}: {len(passes)} passes, {len(records)} jobs")
    print(f"  times normalized to a {hostspeed.PROBE_REF_S * 1e3:g} ms host-speed probe (hostspeed.py)")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:14.6g} {UNITS[name]:<11} {notes.get(name, '')}")
    print(f"  {'failed_ratio':<14} {failed / len(records):14.6g} {'1':<11} {failed} of {len(records)} jobs")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }


def traced(workload, meshes, indir, workdir, seed, goldens) -> dict:
    import tracing

    trace_path = os.path.join(WORK, f"trace-{workload}-s{seed}.json")
    res = tracing.run_traced(workload, meshes, indir, workdir, seed, goldens, trace_path, log)
    units = tracing.PER_LAYER_UNITS
    print(f"{workload} seed={seed}: traced pass, {res['attempted']} jobs, spans in {trace_path}")
    print(f"  untraced {res['untraced_s']:.3f} s, traced {res['traced_s']:.3f} s")
    for name, value in res["metrics"].items():
        print(f"  {name:<30} {value:14.6g} {units[name]}")
    layers = sorted(res["layer_self_s"].items())
    print("  layer self time (s): " + ", ".join(f"{k} {v:.3f}" for k, v in layers))
    if res["absent"]:
        print("  absent (reported as 0): " + ", ".join(res["absent"]))
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in res["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import_package()
    import jobs
    from inputs import build_inputs

    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    indir = os.path.join(workdir, "inputs")
    try:
        goldens = jobs.load_goldens()
        if args.trace:
            meshes = build_inputs(args.workload, args.seed, indir)
            result = traced(args.workload, meshes, indir, workdir, args.seed, goldens)
        else:
            setup_samples = time_setup(args.workload, args.seed, indir)
            meshes = build_inputs(args.workload, args.seed, indir)
            result = end_to_end(
                args.workload, meshes, indir, workdir, args.seed, args.seconds, goldens, setup_samples
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
