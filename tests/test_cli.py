import warnings

import numpy as np
import pytest

from meshes import tetrahedron, torus_tri
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
