"""The benchmark's workloads as lists of jobs, and their correctness checks.

A job is what one user run does: one ``refine(mesh, scheme, 3)`` call on
the ``refine-*`` workloads, one ``pnpsubdiv.cli.main([...])`` command on
``cli-morph``. A pass runs every job of the workload once. Before each job
the ``compile_plan`` cache is cleared and garbage is collected, so every
job starts from the state of a fresh process.

The timed part of a job calls only the stable entry points ``refine``,
``SchemeKind`` and ``cli.main``. Its output is digested and checked after
the clock stops: the first output of a job is checked against
``goldens.json``, and every repeat must digest to the same bytes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Optional

import pnpsubdiv
from pnpsubdiv import SchemeKind, cli, refine

import hostspeed
from inputs import morph_nstar
from paper_metrics import paper_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")

LEVELS = 3
# (scheme, input mesh) of the refine-* workloads
REFINE_JOBS = (("lp", "tri"), ("by", "tri"), ("cc", "quad"), ("k4", "quad"))
MORPH_STEPS = 3
MORPH_ITERS = 3
COMPARE_SCHEMES = ("cc", "k4")
COMPARE_ITERS = 2

# In-memory results are pose invariant to ~1e-12. Results the CLI computes
# from OBJ inputs (9 significant digits) move by up to ~2e-7 with the pose,
# and xi.csv prints 6 significant digits.
REL_TOL = 1e-9
CLI_REL_TOL = 1e-5
# values that are zero up to rounding (xi of a linear scheme, ~3e-16)
ABS_FLOOR = 1e-12


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reset_state() -> None:
    """Put the process in the state a fresh CLI run starts from."""
    clear = getattr(getattr(pnpsubdiv, "compile_plan", None), "cache_clear", None)
    if clear is not None:
        clear()
    gc.collect()


def refined_vertices(mesh, levels: int) -> int:
    """Output vertices produced by ``levels`` 1-to-4 splits of ``mesh``."""
    v, e, f = mesh.vertex_count, mesh.edge_count, mesh.face_count
    quad = mesh.arity == 4
    total = 0
    for _ in range(levels):
        v, e, f = v + e + (f if quad else 0), 2 * e + mesh.arity * f, 4 * f
        total += v
    return total


def close(value: float, golden: float, rel: float) -> bool:
    return abs(value - golden) <= rel * abs(golden) + ABS_FLOOR


def check_values(got: dict, want: dict, rel: float, what: str) -> Optional[str]:
    for key, golden in want.items():
        value = got.get(key)
        if value is None or not close(value, golden, rel):
            return f"{what}: {key} = {value!r}, golden {golden!r} (rel tol {rel:g})"
    return None


def mesh_digest(mesh) -> str:
    h = hashlib.sha256()
    for arr in (mesh.vertices, mesh.faces, mesh.normals):
        if arr is not None:
            h.update(arr.tobytes())
    return h.hexdigest()


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@dataclass
class Job:
    """One timed call plus its untimed output digest and golden check.

    ``run`` returns the job's result; ``digest`` maps it to a string that
    must repeat exactly; ``check`` returns a problem description or None.
    """

    key: str
    vertices: int
    run: Callable[[], object]
    digest: Callable[[object], str]
    check: Callable[[object], Optional[str]]
    argv: Optional[list[str]] = None  # CLI jobs: the command and the files it writes
    outputs: Optional[list[str]] = None


def check_refine(out, scheme, goldens: dict) -> Optional[str]:
    """Compare psi, zeta* and xi of ``refine(input, scheme, 3)`` with the goldens."""
    return check_values(paper_metrics(out), goldens["refine"][scheme.name], REL_TOL, scheme.name)


def refine_cases(meshes: dict, modified: bool):
    """(input mesh, scheme) of every refine-* job."""
    return [(meshes[key], SchemeKind(base, modified=modified)) for base, key in REFINE_JOBS]


def refine_jobs(meshes: dict, modified: bool, goldens: dict) -> list[Job]:
    return [
        Job(
            key=scheme.name,
            vertices=refined_vertices(mesh, LEVELS),
            run=lambda mesh=mesh, scheme=scheme: refine(mesh, scheme, LEVELS),
            digest=mesh_digest,
            check=lambda out, scheme=scheme: check_refine(out, scheme, goldens),
        )
        for mesh, scheme in refine_cases(meshes, modified)
    ]


def morph_argv(indir: str, outdir: str, seed: int) -> list[str]:
    return [
        "morph",
        "--input", os.path.join(indir, "tri.obj"),
        # "=" keeps argparse from reading a negative first component as a flag
        f"--nstar={morph_nstar(seed)}",
        "--outdir", outdir,
        "--scheme", "lp",
        "--steps", str(MORPH_STEPS),
        "--iters", str(MORPH_ITERS),
    ]


def compare_argv(indir: str, json_path: str) -> list[str]:
    return [
        "compare",
        "--input", os.path.join(indir, "quad.obj"),
        "--schemes", ",".join(COMPARE_SCHEMES),
        "--iters", str(COMPARE_ITERS),
        "--json", json_path,
    ]


def parse_xi_csv(text: str) -> dict:
    rows = text.strip().splitlines()[1:]
    return {mu: float(xi) for mu, xi in (row.split(",") for row in rows)}


def morph_outputs(outdir: str) -> list[str]:
    names = [f"morph_{i:03d}.obj" for i in range(MORPH_STEPS)] + ["xi.csv"]
    return [os.path.join(outdir, name) for name in names]


def check_morph(outdir: str, goldens: dict) -> Optional[str]:
    with open(os.path.join(outdir, "xi.csv"), encoding="utf-8") as fh:
        got = parse_xi_csv(fh.read())
    return check_values(got, parse_xi_csv(goldens["morph_xi_csv"]), CLI_REL_TOL, "morph xi.csv")


def check_compare(json_path: str, goldens: dict) -> Optional[str]:
    with open(json_path, encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    for name, want in goldens["compare"].items():
        problem = check_values(results.get(name, {}), want, CLI_REL_TOL, f"compare {name}")
        if problem:
            return problem
    return None


def cli_job(key, argv, outputs, check, vertices) -> Job:
    """A CLI command; its result is the exit code, its outputs are files."""

    def digest(code):
        if code != cli.EXIT_OK:
            return f"exit {code}"
        return files_digest(outputs)

    def checked(code):
        if code != cli.EXIT_OK:
            return f"{key}: exit code {code}, expected {cli.EXIT_OK}"
        return check()

    return Job(
        key, vertices, run=lambda: cli.main(argv), digest=digest, check=checked, argv=argv, outputs=outputs
    )


def morph_jobs(meshes: dict, indir: str, outdir: str, seed: int, goldens: dict) -> list[Job]:
    morph_dir = os.path.join(outdir, "morph")
    json_path = os.path.join(outdir, "compare.json")
    tri, quad = meshes["tri"], meshes["quad"]
    return [
        cli_job(
            "morph",
            morph_argv(indir, morph_dir, seed),
            morph_outputs(morph_dir),
            lambda: check_morph(morph_dir, goldens),
            MORPH_STEPS * refined_vertices(tri, MORPH_ITERS),
        ),
        cli_job(
            "compare",
            compare_argv(indir, json_path),
            [json_path],
            lambda: check_compare(json_path, goldens),
            2 * len(COMPARE_SCHEMES) * refined_vertices(quad, COMPARE_ITERS),
        ),
    ]


def make_jobs(workload: str, meshes: dict, indir: str, outdir: str, seed: int, goldens: dict):
    if workload == "cli-morph":
        return morph_jobs(meshes, indir, outdir, seed, goldens)
    return refine_jobs(meshes, workload == "refine-modified", goldens)


@dataclass
class JobRecord:
    wall: float  # seconds
    seconds: float  # wall normalized to the reference host speed
    failed: bool


def run_passes(workload, meshes, indir, workdir, seed, seconds, goldens, log):
    """Run whole passes for about ``seconds`` of job time, at least two.

    Another pass starts only while the mean pass so far still fits in the
    budget, so every pass runs the same job mix. The second pass repeats
    every job, whose output must then be byte-identical. Each job is
    timed between two host-speed probes. Returns the job records and the
    per-pass (vertices, normalized job seconds) totals.
    """
    records: list[JobRecord] = []
    passes: list[tuple[int, float]] = []
    verified: dict[str, Optional[str]] = {}  # job key -> digest of its checked output
    spent = 0.0
    while len(passes) < 2 or spent + spent / len(passes) <= seconds:
        outdir = os.path.join(workdir, f"pass{len(passes)}")
        os.makedirs(outdir)
        vertices = 0
        pass_seconds = 0.0
        for job in make_jobs(workload, meshes, indir, outdir, seed, goldens):
            reset_state()
            before = hostspeed.probe()
            t0 = time.perf_counter()
            try:
                result = job.run()
                raised = None
            except Exception as exc:  # a raising job is a failed job; keep measuring
                raised = exc
            wall = time.perf_counter() - t0
            spent += wall
            normalized = hostspeed.normalize(wall, 0.5 * (before + hostspeed.probe()))
            pass_seconds += normalized
            if raised is not None:
                log(f"job {job.key} raised {type(raised).__name__}: {raised}")
                records.append(JobRecord(wall, normalized, True))
                continue
            vertices += job.vertices
            first = job.key not in verified
            problem = None
            try:
                digest = job.digest(result)
                if first:
                    problem = job.check(result)
            except (OSError, ValueError, KeyError) as exc:  # missing or unreadable output
                digest, problem = None, f"{type(exc).__name__}: {exc}"
            if first:
                verified[job.key] = None if problem else digest
            failed = digest is None or digest != verified[job.key]
            if problem:
                log(f"job {job.key} failed its check: {problem}")
            elif failed and verified[job.key] is not None:
                log(f"job {job.key} wrote different bytes on a repeat")
            records.append(JobRecord(wall, normalized, failed))
            del result
        shutil.rmtree(outdir)
        passes.append((vertices, pass_seconds))
    return records, passes


def tail_percentile(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples above it.

    A run has far fewer than 40 jobs, so the number of samples required
    above it drops to a quarter of them (at least one): the statistic then
    sits near p75 and no single slow job sets it. The label gives the
    percentile, the sample count and how many samples lie beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = max(1, min(10, n // 4))
    rank = n - beyond  # 1-based rank of the reported order statistic
    return ordered[rank - 1], f"p{math.floor(100.0 * rank / n)} of n={n}, {beyond} beyond"
