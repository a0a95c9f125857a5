import warnings

import numpy as np
import pytest

from meshes import tetrahedron, torus_quad, torus_tri
from pnpsubdiv import Mesh, cli, save_obj


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_morph_succeeds_and_reruns_byte_identically(tmp_path):
    src = tmp_path / "torus.obj"
    save_obj(torus_tri(12, 6), src)
    outputs = []
    for run in ("a", "b"):
        outdir = tmp_path / run
        argv = [
            "morph", "--input", str(src), "--nstar", "0.3,0.4,0.866", "--outdir", str(outdir),
            "--scheme", "lp", "--steps", "3", "--iters", "2",
        ]
        assert cli.main(argv) == cli.EXIT_OK
        outputs.append(_files(outdir))
    assert sorted(outputs[0]) == ["morph_000.obj", "morph_001.obj", "morph_002.obj", "xi.csv"]
    assert outputs[0] == outputs[1]


def test_non_finite_obj_coordinate_is_a_parse_error(tmp_path):
    src = tmp_path / "nan.obj"
    src.write_text("v nan 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n")
    argv = ["normals", "--input", str(src), "--output", str(tmp_path / "out.obj")]
    assert cli.main(argv) == cli.EXIT_PARSE


def test_modified_refine_with_antipodal_normals_is_a_numeric_error(tmp_path):
    normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    src = tmp_path / "antipodal.obj"
    save_obj(tetrahedron().with_normals(normals), src)
    argv = ["refine", "--input", str(src), "--output", str(tmp_path / "out.obj"),
            "--scheme", "lp", "--modified"]
    assert cli.main(argv) == cli.EXIT_NUMERIC
    assert not (tmp_path / "out.obj").exists()


def test_metrics_on_a_tiny_mesh_succeed(tmp_path):
    m = torus_tri(12, 6)
    src = tmp_path / "tiny.obj"
    save_obj(Mesh(m.vertices * 1e-8, m.faces), src)
    argv = ["metrics", "--input", str(src), "--json", str(tmp_path / "report.json")]
    assert cli.main(argv) == cli.EXIT_OK


@pytest.mark.parametrize("nstar", ["nan,0,0", "inf,0,0", "1,inf,0", "0,0,-inf"])
def test_morph_rejects_a_non_finite_nstar(tmp_path, caplog, nstar):
    src = tmp_path / "torus.obj"
    save_obj(torus_tri(12, 6), src)
    argv = ["morph", "--input", str(src), "--nstar", nstar, "--outdir", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == cli.EXIT_USAGE
    assert caught == []
    assert f"--nstar components must be finite, got {nstar!r}" in caplog.text


@pytest.fixture
def cli_inputs(tmp_path):
    """OBJ inputs for the exit-code table, by placeholder name."""
    paths = {"out": tmp_path / "out"}
    paths["out"].mkdir()
    for name, mesh in (("tri", torus_tri(12, 6)), ("quad", torus_quad(12, 6))):
        paths[name] = tmp_path / f"{name}.obj"
        save_obj(mesh, paths[name])
    # a corner of face [0, 3, 1] is collinear: vertex 3 sits on the edge 0-1
    flat = Mesh([[0, 0, 0], [2, 0, 0], [0, 2, 0], [1, 0, 0]], tetrahedron().faces)
    paths["collinear"] = tmp_path / "collinear.obj"
    save_obj(flat, paths["collinear"])
    records = {
        "open": "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
        "mixed": "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0 0 1\n"
                 "f 1 4 3 2\nf 1 2 5\nf 2 3 5\nf 3 4 5\nf 4 1 5\n",
        "bad_v": "v 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n",
    }
    for name, text in records.items():
        paths[name] = tmp_path / f"{name}.obj"
        paths[name].write_text(text)
    return {name: str(path) for name, path in paths.items()}


MORPH = "morph --input {tri} --outdir {out}/m --steps 2 --iters 1 --nstar"

# (id, command with {placeholders} from cli_inputs, exit code)
CLI_TABLE = [
    ("refine", "refine --input {tri} --output {out}/r.obj --scheme lp --modified", cli.EXIT_OK),
    ("normals", "normals --input {quad} --output {out}/n.obj", cli.EXIT_OK),
    ("metrics", "metrics --input {tri} --json {out}/m.json", cli.EXIT_OK),
    ("morph", f"{MORPH} 0,0,1", cli.EXIT_OK),
    # the norm of these --nstar values overflows or underflows unless rescaled first
    ("morph-huge-nstar", f"{MORPH} 1e308,1e308,0", cli.EXIT_OK),
    ("morph-tiny-nstar", f"{MORPH} 0,0,1e-200", cli.EXIT_OK),
    ("colorize", "colorize --input {tri} --range=-1:1 --output {out}/c.ply", cli.EXIT_OK),
    ("compare", "compare --input {quad} --schemes cc,k4 --iters 1 --json {out}/c.json", cli.EXIT_OK),
    ("iters-negative", "refine --input {tri} --output {out}/r.obj --scheme lp --iters -1",
     cli.EXIT_USAGE),
    ("unknown-scheme", "compare --input {tri} --schemes zz", cli.EXIT_USAGE),
    ("one-morph-step", "morph --input {tri} --outdir {out}/m --nstar 0,0,1 --steps 1", cli.EXIT_USAGE),
    ("missing-input", "metrics --input {out}/missing.obj", cli.EXIT_PARSE),
    ("bad-v-record", "normals --input {bad_v} --output {out}/n.obj", cli.EXIT_PARSE),
    ("cc-on-triangles", "refine --input {tri} --output {out}/r.obj --scheme cc", cli.EXIT_TOPOLOGY),
    ("open-mesh", "normals --input {open} --output {out}/n.obj", cli.EXIT_TOPOLOGY),
    ("mixed-arity", "normals --input {mixed} --output {out}/n.obj", cli.EXIT_TOPOLOGY),
    ("collinear-corner", "normals --input {collinear} --output {out}/n.obj", cli.EXIT_NUMERIC),
]


@pytest.mark.parametrize(
    "command,code", [row[1:] for row in CLI_TABLE], ids=[row[0] for row in CLI_TABLE]
)
def test_cli_exit_codes(cli_inputs, command, code):
    argv = [word.format(**cli_inputs) for word in command.split()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == code
    assert caught == []
