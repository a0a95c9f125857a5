"""Command line front end.

Subcommands::

    pnpsubdiv refine   --input m.obj --output out.obj --scheme lp [--modified] [--iters N]
    pnpsubdiv normals  --input m.obj --output out.obj
    pnpsubdiv metrics  --input m.obj [--json report.json] [--xi] [--arrays]
    pnpsubdiv morph    --input m.obj --nstar X,Y,Z --outdir DIR [--scheme lp]
                       [--steps 11] [--iters 4]
    pnpsubdiv colorize --input m.obj --range LO:HI --output out.ply [--binary]
    pnpsubdiv compare  --input m.obj --schemes lp,cc [--iters N] [--json out.json]

``morph`` refines the input once per step ``i`` of ``--steps``, with the
normals ``geodesic_avg(nstar, naive normal, mu)`` at ``mu = i / (steps - 1)``.
The first step uses ``nstar`` at every vertex and the last the naive
normals, exactly, so these two always succeed. The steps in between are
undefined where ``nstar`` is opposite a naive normal: with more than two
steps that is a numeric degeneracy naming the lowest such vertex and step
1, raised before any file is written. Only the normals change between
steps, so one :class:`~pnpsubdiv.schemes.Refiner` builds the stencil
tables, plans and refined topology of every level once for all steps.

``compare`` refines the input with every scheme of ``--schemes`` in linear
and in modified mode, and reports ψ and ζ* of each result. Every name is
checked before anything is refined. An input without normals gets its
naive normals once, for all modified runs, and each scheme's two modes
share one ``Refiner``.

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
    AntipodalNormalsError,
    MeshParseError,
    MissingNormalsError,
    NumericDegeneracyError,
    TopologyError,
)
from .geom import _angle_rows, _slerp_rows
from .mesh import Mesh, _atomic_write, load_obj, naive_normals, save_obj, save_ply
from .metrics import curvature, curvature_colors, measure, normal_deviation
from .schemes import Refiner, SchemeKind, refine

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
    _atomic_write(path, text.encode("utf-8"))


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
        nstar = np.array(_parse_triple(args.nstar))
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

    target = naive_normals(mesh)
    ends = tuple(target.T)
    theta, antipodal, _, _ = _angle_rows(nstar, ends)
    if args.steps > 2 and antipodal.any():
        raise AntipodalNormalsError(
            f"geodesic average undefined for antipodal normals: --nstar is opposite the naive "
            f"normal of vertex {np.argmax(antipodal)}, so morph step 1 "
            f"(mu={1 / (args.steps - 1):.6g}) has no blend"
        )
    refiner = Refiner(mesh, args.scheme, args.iters)
    os.makedirs(args.outdir, exist_ok=True)
    rows = ["mu,xi_deg"]
    for i in range(args.steps):
        mu = i / (args.steps - 1)
        if i == 0:
            blended = np.tile(nstar, (len(target), 1))
        elif i == args.steps - 1:
            blended = target
        else:
            blended = np.stack(_slerp_rows(nstar, ends, mu, theta), axis=1)
        refined = refiner.evaluate(mesh.with_normals(blended), modified=True)
        out_path = os.path.join(args.outdir, f"morph_{i:03d}.obj")
        save_obj(refined, out_path)
        xi = normal_deviation(refined)
        rows.append(f"{mu:.6g},{xi:.6g}")
        log.info("step %d (mu=%.2f): xi=%.2f deg -> %s", i, mu, xi, out_path)
    _atomic_write(os.path.join(args.outdir, "xi.csv"), ("\n".join(rows) + "\n").encode("utf-8"))


def _parse_range(text: str) -> tuple[float, float]:
    lo_text, hi_text = text.split(":")
    return float(lo_text), float(hi_text)


def _parse_triple(text: str) -> list[float]:
    values = [float(x) for x in text.split(",")]
    if len(values) != 3:
        raise ValueError(f"expected three numbers, got {len(values)}")
    return values


# options whose value may start with "-", and the parser a value must pass
_SIGNED_VALUES = {"--range": _parse_range, "--nstar": _parse_triple}


def _join_signed_values(argv: list[str]) -> list[str]:
    """``--range LO:HI`` as ``--range=LO:HI``, ``--nstar X,Y,Z`` as ``--nstar=X,Y,Z``.

    argparse reads a separate word starting with ``-``, such as ``-1:1`` or
    ``-0.3,0.4,0.8``, as an option, so a negative first number would need
    the equals sign. An option may be abbreviated as argparse allows. A
    next word that does not parse as the option's value is left for
    argparse to reject.
    """
    out, i = [], 0
    while i < len(argv):
        word = argv[i]
        name = next((n for n in _SIGNED_VALUES if len(word) > 2 and n.startswith(word)), None)
        if name is not None and i + 1 < len(argv):
            try:
                _SIGNED_VALUES[name](argv[i + 1])
            except ValueError:
                pass
            else:
                out.append(f"{word}={argv[i + 1]}")
                i += 2
                continue
        out.append(word)
        i += 1
    return out


def cmd_colorize(args) -> None:
    try:
        lo, hi = _parse_range(args.range)
    except ValueError:
        raise ValueError(f"--range must be LO:HI, got {args.range!r}") from None
    mesh = load_obj(args.input)
    colors = curvature_colors(curvature(mesh), lo, hi)
    save_ply(mesh, args.output, colors=colors, binary=args.binary)


def cmd_compare(args) -> None:
    bases = [SchemeKind(s).base for s in args.schemes.split(",") if s]
    if not bases:
        raise ValueError("--schemes must name at least one scheme")
    mesh = load_obj(args.input)
    paired = _with_normals(mesh)
    results = {}
    for base in bases:
        refiner = Refiner(mesh, base, args.iters)
        for modified in (False, True):
            scheme = SchemeKind(base, modified=modified)
            refined = refiner.evaluate(paired if modified else mesh, modified)
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
    p.add_argument("--range", required=True, help="curvature range LO:HI")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_signed_values(argv))
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
