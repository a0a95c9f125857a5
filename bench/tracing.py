"""Traced replay: per-layer times and counts, recorded from outside the library.

The traced run does each job of a workload twice: once through the stable
entry points with tracing off (the reference output and the untraced wall
time), and once replayed through each layer's public functions with a span
around every call. A span records its name, start, end and parent;
a layer's self time is the time its spans cover minus their child spans.
Spans stay in memory and are written to a JSON file at the end.

Modified-mode levels are replayed as ``refinement_step`` ->
``compile_plan`` -> ``evaluate_plan`` with a counting ``circle_avg_3d``
wrapper as the binary average -> ``Mesh``, and must reproduce the
reference level bit for bit. Linear mode evaluates positions with a
private helper, so a linear level is one ``refine(mesh, scheme, 1)`` call
in which ``Mesh`` and ``naive_normals``, as looked up by
``pnpsubdiv.schemes``, are observed; the stencil build is replayed beside
it, and what remains of the call is reported as a residual.

A public name the replay needs may disappear in a later version. The
layers that depend on it are then reported as absent (value 0) and the job
is timed as a whole; the traced run does not fail.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Optional

import numpy as np

import pnpsubdiv
from pnpsubdiv import Mesh, SchemeKind, cli, refine

import jobs
from paper_metrics import paper_metrics

# public names each replay needs
FOLD_API = (
    "refinement_step",
    "compile_plan",
    "evaluate_plan",
    "circle_avg_3d",
    "Pnp",
    "angle_between",
    "get_tolerances",
)
CLI_API = (
    "load_obj",
    "save_obj",
    "naive_normals",
    "geodesic_avg",
    "dihedral_angles",
    "curvature",
    "zeta",
    "normal_deviation",
)
# the library's layers; "cli" (replayed command bodies) and "trace" (the
# wrapper's own cost) are not among them and do not count as coverage
LAYERS = ("mesh", "schemes", "stencil", "circle3d", "metrics", "geom")

PERM_LEVELS = 2


def _missing(names) -> list[str]:
    return [name for name in names if not hasattr(pnpsubdiv, name)]


class Tracer:
    """In-memory spans and counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    def aggregate(self, name: str, seconds: float, parent: dict) -> None:
        """A child of ``parent`` standing for many short calls, ``seconds`` in all."""
        start = parent["start"]
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "parent": parent["id"],
                "start": start,
                "end": start + seconds,
                "aggregate": True,
            }
        )

    def total(self, name: str, **attrs) -> float:
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())
        )

    def self_times(self) -> list[float]:
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_self(self) -> dict[str, float]:
        out: Counter = Counter()
        for s, own in zip(self.spans, self.self_times()):
            out[s["name"].split(".")[0]] += own
        return dict(out)


class CountingAverage:
    """``circle_avg_3d`` as ``evaluate_plan``'s binop, counting branches.

    A call with weight 0 or 1 is an endpoint; otherwise normals closer than
    ``theta_linear`` take the linear limit and all others the helix.
    """

    def __init__(self):
        self.avg = pnpsubdiv.circle_avg_3d
        self.angle = pnpsubdiv.angle_between
        self.theta_linear = pnpsubdiv.get_tolerances().theta_linear
        self.branches: Counter = Counter()
        self.call_s = 0.0
        self.wrapper_s = 0.0

    def __call__(self, a, b, w):
        t0 = time.perf_counter()
        out = self.avg(a, b, w)
        t1 = time.perf_counter()
        if w == 0.0 or w == 1.0:
            self.branches["endpoint"] += 1
        elif self.angle(a.normal, b.normal) < self.theta_linear:
            self.branches["linear_limit"] += 1
        else:
            self.branches["helix"] += 1
        self.call_s += t1 - t0
        self.wrapper_s += time.perf_counter() - t1
        return out


class _Observed:
    """Stands in for a callable and records a span around each call."""

    def __init__(self, tracer: Tracer, fn, span_name: str):
        self._tracer, self._fn, self._span_name = tracer, fn, span_name

    def __call__(self, *args, **kwargs):
        with self._tracer.span(self._span_name):
            return self._fn(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._fn, name)


@contextmanager
def observe(tracer: Tracer, module, attr: str, span_name: str):
    """Record a span around every call ``module`` makes to its global ``attr``."""
    orig = getattr(module, attr, None)
    if orig is None:
        yield
        return
    setattr(module, attr, _Observed(tracer, orig, span_name))
    try:
        yield
    finally:
        setattr(module, attr, orig)


class Replay:
    """Replays refinement and CLI commands with spans around layer calls."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.fold_absent = _missing(FOLD_API)
        self.cli_absent = _missing(CLI_API)
        self.fold = None if self.fold_absent else CountingAverage()

    # -- refinement -----------------------------------------------------------

    def refine(self, mesh, scheme, levels: int) -> list:
        """Every level's output of ``levels`` replayed refinement steps."""
        outs = []
        fold = scheme.modified and self.fold is not None
        for level in range(1, levels + 1):
            with self.tr.span("schemes.level", level=level):
                out = self._fold_level(mesh, scheme) if fold else self._observed_level(mesh, scheme)
            if not fold:
                self._stencil_build(mesh, scheme, replay=True)
            outs.append(out)
            mesh = out
        return outs

    def _stencil_build(self, mesh, scheme, replay: bool = False):
        step_fn = getattr(pnpsubdiv, "refinement_step", None)
        if step_fn is None:
            return None
        with self.tr.span("schemes.refinement_step", replay=replay):
            step = step_fn(mesh, scheme.base)
        self.tr.counts["schemes.stencils"] += len(step.stencils)
        self.tr.counts["schemes.stencil_terms"] += sum(len(st.terms) for st in step.stencils)
        return step

    def _observed_level(self, mesh, scheme):
        schemes_module = getattr(pnpsubdiv, "schemes", None)
        with observe(self.tr, schemes_module, "Mesh", "mesh.Mesh"), observe(
            self.tr, schemes_module, "naive_normals", "mesh.naive_normals"
        ):
            with self.tr.span("schemes.refine_once"):
                return refine(mesh, scheme, 1)

    def _fold_level(self, mesh, scheme):
        tr, fold = self.tr, self.fold
        step = self._stencil_build(mesh, scheme)
        pnps = [pnpsubdiv.Pnp(mesh.vertices[i], mesh.normals[i]) for i in range(mesh.vertex_count)]
        info = getattr(pnpsubdiv.compile_plan, "cache_info", None)
        before = info() if info else None
        with tr.span("stencil.compile_plan"):
            plans = [pnpsubdiv.compile_plan(st) for st in step.stencils]
        if info:
            after = info()
            tr.counts["stencil.plan_cache_hits"] += after.hits - before.hits
            tr.counts["stencil.plan_cache_misses"] += after.misses - before.misses
        tr.counts["stencil.fold_steps"] += sum(len(plan.steps) for plan in plans)
        call_s, wrapper_s = fold.call_s, fold.wrapper_s
        with tr.span("stencil.evaluate_plan") as ev:
            results = [pnpsubdiv.evaluate_plan(plan, pnps, fold) for plan in plans]
        tr.aggregate("circle3d.circle_avg_3d", fold.call_s - call_s, ev)
        tr.aggregate("trace.wrapper", fold.wrapper_s - wrapper_s, ev)
        points = np.array([res.point for res in results])
        normals = np.array([res.normal for res in results])
        with tr.span("mesh.Mesh"):
            return Mesh(points, step.faces, normals=normals)

    # -- CLI commands -----------------------------------------------------------

    def _load(self, path):
        with self.tr.span("mesh.load_obj"):
            mesh = pnpsubdiv.load_obj(path)
        self.tr.counts["mesh.obj_bytes"] += os.path.getsize(path)
        return mesh

    def _save(self, mesh, path):
        with self.tr.span("mesh.save_obj"):
            pnpsubdiv.save_obj(mesh, path)
        self.tr.counts["mesh.obj_bytes"] += os.path.getsize(path)

    def morph(self, argv: list[str]) -> None:
        """``cli.cmd_morph`` step by step (same arguments, same outputs)."""
        args = cli.build_parser().parse_args(argv)
        tr = self.tr
        mesh = self._load(args.input)
        nstar = np.array([float(x) for x in args.nstar.split(",")])
        nstar /= np.linalg.norm(nstar)
        scheme = SchemeKind(args.scheme, modified=True)
        with tr.span("mesh.naive_normals"):
            target = pnpsubdiv.naive_normals(mesh)
        os.makedirs(args.outdir, exist_ok=True)
        rows = ["mu,xi_deg"]
        for i in range(args.steps):
            mu = i / (args.steps - 1)
            with tr.span("geom.geodesic_avg"):
                blended = np.array(
                    [pnpsubdiv.geodesic_avg(nstar, target[j], mu) for j in range(len(target))]
                )
            refined = self.refine(mesh.with_normals(blended), scheme, args.iters)[-1]
            self._save(refined, os.path.join(args.outdir, f"morph_{i:03d}.obj"))
            with tr.span("metrics.normal_deviation"):
                xi = pnpsubdiv.normal_deviation(refined)
            rows.append(f"{mu:.6g},{xi:.6g}")
        with open(os.path.join(args.outdir, "xi.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")

    def compare(self, argv: list[str]) -> None:
        """``cli.cmd_compare`` step by step (same arguments, same outputs)."""
        args = cli.build_parser().parse_args(argv)
        tr = self.tr
        mesh = self._load(args.input)
        results = {}
        for base in args.schemes.split(","):
            for modified in (False, True):
                scheme = SchemeKind(base, modified=modified)
                work = mesh
                if modified and not mesh.has_normals:
                    with tr.span("mesh.naive_normals"):
                        work = mesh.with_normals(pnpsubdiv.naive_normals(mesh))
                refined = self.refine(work, scheme, args.iters)[-1]
                with tr.span("metrics.dihedral_angles"):
                    dihedral = pnpsubdiv.dihedral_angles(refined)
                with tr.span("metrics.curvature"):
                    k = pnpsubdiv.curvature(refined)
                with tr.span("metrics.zeta"):
                    z = pnpsubdiv.zeta(refined, k)
                results[scheme.name] = {
                    "psi_deg": math.degrees(float(dihedral.max())),
                    "zeta_star": float(z.max()),
                }
        payload = {"input": args.input, "iters": args.iters, "results": results}
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# traced workloads
# ---------------------------------------------------------------------------


def permuted(mesh, rng):
    """``mesh`` with its vertices renumbered by a random permutation."""
    perm = rng.permutation(mesh.vertex_count)
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    normals = None
    if mesh.normals is not None:
        normals = np.empty_like(mesh.normals)
        normals[perm] = mesh.normals
    return Mesh(verts, perm[mesh.faces], normals=normals)


def perm_rel_dev(mesh, scheme, reference, rng) -> float:
    """Largest relative change of psi, zeta* (and xi, modified mode) when
    the input's vertices are renumbered; ``reference`` is ``mesh`` refined
    ``PERM_LEVELS`` times."""
    a = paper_metrics(reference)
    b = paper_metrics(refine(permuted(mesh, rng), scheme, PERM_LEVELS))
    keys = ("psi_deg", "zeta_star", "xi_deg") if scheme.modified else ("psi_deg", "zeta_star")
    return max(abs(b[key] - a[key]) / abs(a[key]) for key in keys)


def _traced_refine(replay, meshes, workload, seed, goldens, log):
    rng = np.random.default_rng([seed, 1])
    untraced = traced = 0.0
    failed, deviations = [], []
    for mesh, scheme in jobs.refine_cases(meshes, workload == "refine-modified"):
        jobs.reset_state()
        t0 = time.perf_counter()
        reference = [mesh]
        for _ in range(jobs.LEVELS):
            reference.append(refine(reference[-1], scheme, 1))
        untraced += time.perf_counter() - t0
        jobs.reset_state()
        t0 = time.perf_counter()
        outs = replay.refine(mesh, scheme, jobs.LEVELS)
        traced += time.perf_counter() - t0
        problems = [
            f"replayed level {k} differs from refine_once"
            for k, (got, want) in enumerate(zip(outs, reference[1:]), start=1)
            if jobs.mesh_digest(got) != jobs.mesh_digest(want)
        ]
        problems.append(jobs.check_refine(reference[-1], scheme, goldens))
        problems = [p for p in problems if p]
        for problem in problems:
            log(f"job {scheme.name}: {problem}")
        failed.append(bool(problems))
        deviations.append(perm_rel_dev(mesh, scheme, reference[PERM_LEVELS], rng))
        del outs, reference
    return untraced, traced, failed, max(deviations)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _traced_cli(replay, meshes, indir, workdir, seed, goldens, log):
    untraced = traced = 0.0
    failed = []
    cli_dir = os.path.join(workdir, "cli")
    replay_dir = os.path.join(workdir, "replay")
    os.makedirs(cli_dir)
    os.makedirs(replay_dir)
    cli_jobs = jobs.morph_jobs(meshes, indir, cli_dir, seed, goldens)
    twins = jobs.morph_jobs(meshes, indir, replay_dir, seed, goldens)
    for job, twin in zip(cli_jobs, twins):
        jobs.reset_state()
        t0 = time.perf_counter()
        code = job.run()
        untraced += time.perf_counter() - t0
        jobs.reset_state()
        t0 = time.perf_counter()
        with replay.tr.span(f"cli.{job.key}"):
            if replay.cli_absent:
                twin.run()
            else:
                getattr(replay, job.key)(twin.argv)
        traced += time.perf_counter() - t0
        problem = job.check(code)
        if problem is None and any(_read(a) != _read(b) for a, b in zip(job.outputs, twin.outputs)):
            problem = "replayed outputs differ from the CLI's"
        if problem:
            log(f"job {job.key}: {problem}")
        failed.append(problem is not None)
    return untraced, traced, failed, 0.0


PER_LAYER_UNITS = {
    "mesh.adjacency_s": "s",
    "mesh.naive_normals_s": "s",
    "mesh.obj_save_s": "s",
    "mesh.obj_load_s": "s",
    "mesh.obj_bytes": "bytes",
    "schemes.stencil_build_s": "s",
    "schemes.stencils": "count",
    "schemes.stencil_terms": "count",
    "schemes.level_s.L1": "s",
    "schemes.level_s.L2": "s",
    "schemes.level_s.L3": "s",
    "schemes.affine_residual_s": "s",
    "schemes.perm_rel_dev": "1",
    "stencil.compile_s": "s",
    "stencil.plan_cache_hits": "count",
    "stencil.plan_cache_misses": "count",
    "stencil.plan_cache_hit_ratio": "1",
    "stencil.fold_steps": "count",
    "stencil.eval_s": "s",
    "circle3d.calls": "count",
    "circle3d.helix": "count",
    "circle3d.linear_limit": "count",
    "circle3d.endpoint": "count",
    "circle3d.call_us": "us",
    "metrics.dihedral_s": "s",
    "metrics.curvature_s": "s",
    "metrics.zeta_s": "s",
    "metrics.xi_s": "s",
    "geom.blend_s": "s",
    "trace.overhead": "1",
    "trace.coverage": "1",
}
PER_LAYER_SPANS = {
    "mesh.adjacency_s": "mesh.Mesh",
    "mesh.naive_normals_s": "mesh.naive_normals",
    "mesh.obj_save_s": "mesh.save_obj",
    "mesh.obj_load_s": "mesh.load_obj",
    "schemes.stencil_build_s": "schemes.refinement_step",
    "stencil.compile_s": "stencil.compile_plan",
    "stencil.eval_s": "stencil.evaluate_plan",
    "metrics.dihedral_s": "metrics.dihedral_angles",
    "metrics.curvature_s": "metrics.curvature",
    "metrics.zeta_s": "metrics.zeta",
    "metrics.xi_s": "metrics.normal_deviation",
    "geom.blend_s": "geom.geodesic_avg",
}
PER_LAYER_COUNTS = (
    "mesh.obj_bytes",
    "schemes.stencils",
    "schemes.stencil_terms",
    "stencil.plan_cache_hits",
    "stencil.plan_cache_misses",
    "stencil.fold_steps",
)


def layer_metrics(tr: Tracer, fold: Optional[CountingAverage], untraced: float, traced: float) -> dict:
    out = {name: tr.total(span) for name, span in PER_LAYER_SPANS.items()}
    out.update({name: tr.counts[name] for name in PER_LAYER_COUNTS})
    for level in (1, 2, 3):
        out[f"schemes.level_s.L{level}"] = tr.total("schemes.level", level=level)
    # linear levels: refine_once's own time beyond the stencil build replayed beside
    # it. Clamped at 0: the affine evaluation can cost less than the run-to-run
    # noise of the replayed build.
    own = dict(zip((s["id"] for s in tr.spans), tr.self_times()))
    out["schemes.affine_residual_s"] = max(
        0.0,
        sum(own[s["id"]] for s in tr.spans if s["name"] == "schemes.refine_once")
        - tr.total("schemes.refinement_step", replay=True),
    )
    lookups = out["stencil.plan_cache_hits"] + out["stencil.plan_cache_misses"]
    out["stencil.plan_cache_hit_ratio"] = out["stencil.plan_cache_hits"] / lookups if lookups else 0.0
    branches = fold.branches if fold else Counter()
    calls = sum(branches.values())
    out["circle3d.calls"] = calls
    for branch in ("helix", "linear_limit", "endpoint"):
        out[f"circle3d.{branch}"] = branches[branch]
    out["circle3d.call_us"] = 1e6 * fold.call_s / calls if calls else 0.0
    out["trace.overhead"] = traced / untraced - 1.0
    layers = tr.layer_self()
    out["trace.coverage"] = sum(layers.get(layer, 0.0) for layer in LAYERS) / traced
    return out


def run_traced(workload, meshes, indir, workdir, seed, goldens, trace_path, log):
    """One traced pass over the workload's jobs; returns the result dict."""
    tracer = Tracer()
    replay = Replay(tracer)
    if workload == "cli-morph":
        untraced, traced, failed, perm_dev = _traced_cli(replay, meshes, indir, workdir, seed, goldens, log)
    else:
        untraced, traced, failed, perm_dev = _traced_refine(replay, meshes, workload, seed, goldens, log)
    metrics = layer_metrics(tracer, replay.fold, untraced, traced)
    metrics["schemes.perm_rel_dev"] = perm_dev
    metrics = {name: metrics[name] for name in PER_LAYER_UNITS}
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    return {
        "failed": sum(failed),
        "attempted": len(failed),
        "metrics": metrics,
        "layer_self_s": tracer.layer_self(),
        "absent": replay.fold_absent + replay.cli_absent,
        "untraced_s": untraced,
        "traced_s": traced,
    }
