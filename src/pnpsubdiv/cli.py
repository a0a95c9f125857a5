"""Command line front end.

Subcommands::

    pnpsubdiv refine   --input m.obj --output out.obj --scheme lp [--modified] [--iters N]
    pnpsubdiv normals  --input m.obj --output out.obj
    pnpsubdiv metrics  --input m.obj [--json report.json] [--xi] [--arrays]
    pnpsubdiv morph    --input m.obj --nstar X,Y,Z --outdir DIR [--scheme lp]
                       [--steps 11] [--iters 4]
    pnpsubdiv colorize --input m.obj --range=LO:HI --output out.ply [--binary]
    pnpsubdiv compare  --input m.obj --schemes lp,cc [--iters N] [--json out.json]

Write ``--range=LO:HI`` with the equals sign: a negative ``LO`` as a
separate word (``--range -1:1``) reads as an option and is a usage error.

Exit codes: 0 success, 2 usage error, 3 file or parse error, 4 mesh
topology error, 5 numeric degeneracy.

Inputs without normals are handled by computing naive normals on the fly
(with a logged notice) wherever normals are required. All outputs are
written atomically and are byte-identical across runs for identical inputs
and flags.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .errors import (
    MeshParseError,
    MissingNormalsError,
    NumericDegeneracyError,
    TopologyError,
)
from .geom import geodesic_avg
from .mesh import Mesh, load_obj, naive_normals, save_obj, save_ply
from .metrics import curvature, curvature_colors, measure, normal_deviation
from .schemes import SchemeKind, refine

log = logging.getLogger("pnpsubdiv")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_TOPOLOGY = 4
EXIT_NUMERIC = 5


def _with_normals(mesh: Mesh) -> Mesh:
    if mesh.has_normals:
        return mesh
    log.info("input has no normals; computing naive normals")
    return mesh.with_normals(naive_normals(mesh))


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_refine(args) -> None:
    mesh = load_obj(args.input)
    scheme = SchemeKind(args.scheme, modified=args.modified)
    if scheme.modified:
        mesh = _with_normals(mesh)
    refined = refine(mesh, scheme, args.iters)
    save_obj(refined, args.output)
    log.info("wrote %s (%d vertices, %d faces)", args.output, refined.vertex_count, refined.face_count)


def cmd_normals(args) -> None:
    mesh = load_obj(args.input)
    save_obj(mesh.with_normals(naive_normals(mesh)), args.output)


def cmd_metrics(args) -> None:
    mesh = load_obj(args.input)
    report = measure(mesh, xi=args.xi)
    _write_json(args.json, report.to_dict(include_arrays=args.arrays))


def cmd_morph(args) -> None:
    mesh = load_obj(args.input)
    try:
        nstar = np.array([float(x) for x in args.nstar.split(",")])
        if nstar.shape != (3,):
            raise ValueError
    except ValueError:
        raise ValueError(f"--nstar must be three comma-separated numbers, got {args.nstar!r}") from None
    if not np.isfinite(nstar).all():
        raise ValueError(f"--nstar components must be finite, got {args.nstar!r}")
    # an exact power-of-two rescale keeps the norm from overflowing or underflowing
    nstar = np.ldexp(nstar, -np.frexp(np.abs(nstar).max())[1])
    norm = np.linalg.norm(nstar)
    if norm == 0.0:
        raise ValueError("--nstar must be nonzero")
    nstar /= norm
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")

    scheme = SchemeKind(args.scheme, modified=True)
    target = naive_normals(mesh)
    os.makedirs(args.outdir, exist_ok=True)
    rows = ["mu,xi_deg"]
    for i in range(args.steps):
        mu = i / (args.steps - 1)
        blended = np.array([geodesic_avg(nstar, target[j], mu) for j in range(len(target))])
        refined = refine(mesh.with_normals(blended), scheme, args.iters)
        out_path = os.path.join(args.outdir, f"morph_{i:03d}.obj")
        save_obj(refined, out_path)
        xi = normal_deviation(refined)
        rows.append(f"{mu:.6g},{xi:.6g}")
        log.info("step %d (mu=%.2f): xi=%.2f deg -> %s", i, mu, xi, out_path)
    csv_path = os.path.join(args.outdir, "xi.csv")
    tmp = f"{csv_path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    os.replace(tmp, csv_path)


def cmd_colorize(args) -> None:
    try:
        lo_text, hi_text = args.range.split(":")
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        raise ValueError(f"--range must be LO:HI, got {args.range!r}") from None
    mesh = load_obj(args.input)
    colors = curvature_colors(curvature(mesh), lo, hi)
    save_ply(mesh, args.output, colors=colors, binary=args.binary)


def cmd_compare(args) -> None:
    bases = [s for s in args.schemes.split(",") if s]
    if not bases:
        raise ValueError("--schemes must name at least one scheme")
    mesh = load_obj(args.input)
    results = {}
    for base in bases:
        for modified in (False, True):
            scheme = SchemeKind(base, modified=modified)
            work = _with_normals(mesh) if modified else mesh
            refined = refine(work, scheme, args.iters)
            report = measure(refined)
            results[scheme.name] = {
                "psi_deg": report.psi_deg,
                "zeta_star": report.zeta_star,
            }
            log.info("%s: psi=%.3f deg, zeta*=%.4g", scheme.name, report.psi_deg, report.zeta_star)
    _write_json(args.json, {"input": args.input, "iters": args.iters, "results": results})


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnpsubdiv",
        description="Refine point-normal pair meshes with circle-average subdivision schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="subdivide a mesh")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--scheme", required=True, choices=["cc", "lp", "k4", "by"])
    p.add_argument("--modified", action="store_true", help="refine point-normal pairs")
    p.add_argument("--iters", type=int, default=1)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("normals", help="attach naive normals to a mesh")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_normals)

    p = sub.add_parser("metrics", help="dihedral / curvature report")
    p.add_argument("--input", required=True)
    p.add_argument("--json", default=None, help="output path (stdout if omitted)")
    p.add_argument("--xi", action="store_true", help="include the normal-deviation average")
    p.add_argument("--arrays", action="store_true", help="include per-element arrays")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("morph", help="normal-morph sequence from a shared normal to naive normals")
    p.add_argument("--input", required=True)
    p.add_argument("--nstar", required=True, help="shared start normal as X,Y,Z")
    p.add_argument("--outdir", required=True)
    p.add_argument("--scheme", default="lp", choices=["cc", "lp", "k4", "by"])
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--iters", type=int, default=4)
    p.set_defaults(func=cmd_morph)

    p = sub.add_parser("colorize", help="write a PLY colored by curvature")
    p.add_argument("--input", required=True)
    p.add_argument("--range", required=True, help="curvature range, written --range=LO:HI")
    p.add_argument("--output", required=True)
    p.add_argument("--binary", action="store_true", help="binary little-endian PLY")
    p.set_defaults(func=cmd_colorize)

    p = sub.add_parser("compare", help="linear vs modified metrics per scheme")
    p.add_argument("--input", required=True)
    p.add_argument("--schemes", required=True, help="comma-separated scheme list, e.g. lp,cc")
    p.add_argument("--iters", type=int, default=4)
    p.add_argument("--json", default=None, help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        args.func(args)
    except (MeshParseError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_PARSE
    except TopologyError as exc:
        log.error("%s", exc)
        return EXIT_TOPOLOGY
    except NumericDegeneracyError as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC
    except (ValueError, MissingNormalsError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
