"""Record ``goldens.json``: the outputs every benchmark run is checked against.

Usage, from the root of a checkout: ``python3 bench/make_goldens.py``

At the identity pose it records psi, zeta* and xi of every refine-* job
(computed by ``pnpsubdiv.measure``, and confirmed to agree with the
benchmark's own ``paper_metrics``), the morph's ``xi.csv`` and the compare
results. The paper metrics are
invariant under the rigid pose a seed applies, so these hold for every
seed; rerun this only when a change is meant to move them.
"""

import json
import logging
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from pnpsubdiv import cli, measure, refine  # noqa: E402

import jobs  # noqa: E402
from inputs import build_inputs  # noqa: E402
from paper_metrics import paper_metrics  # noqa: E402


def main() -> None:
    logging.disable(logging.INFO)
    workdir = os.path.join(os.path.dirname(HERE), ".bench_work", "goldens")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        goldens = {"refine": {}}
        for modified in (False, True):
            meshes = build_inputs("refine-modified", None, os.path.join(workdir, "refine"))
            for mesh, scheme in jobs.refine_cases(meshes, modified):
                out = refine(mesh, scheme, jobs.LEVELS)
                report = measure(out, xi=True)
                want = {"psi_deg": report.psi_deg, "zeta_star": report.zeta_star, "xi_deg": report.xi_deg}
                problem = jobs.check_values(paper_metrics(out), want, jobs.REL_TOL / 100, scheme.name)
                if problem:
                    raise SystemExit(f"paper_metrics disagrees with measure: {problem}")
                goldens["refine"][scheme.name] = want
        indir = os.path.join(workdir, "inputs")
        build_inputs("cli-morph", None, indir)
        morph_dir = os.path.join(workdir, "morph")
        json_path = os.path.join(workdir, "compare.json")
        for argv in (jobs.morph_argv(indir, morph_dir, None), jobs.compare_argv(indir, json_path)):
            if cli.main(argv) != cli.EXIT_OK:
                raise SystemExit(f"pnpsubdiv {argv[0]} failed")
        with open(os.path.join(morph_dir, "xi.csv"), encoding="utf-8") as fh:
            goldens["morph_xi_csv"] = fh.read()
        with open(json_path, encoding="utf-8") as fh:
            goldens["compare"] = json.load(fh)["results"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(jobs.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
