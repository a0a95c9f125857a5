import logging
import warnings
from pathlib import Path

import numpy as np
import pytest

from meshes import tetrahedron, torus_quad, torus_tri
from pnpsubdiv import Mesh, cli, geodesic_avg, load_obj, naive_normals, save_obj


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
MORPHED = ["m/morph_000.obj", "m/morph_001.obj", "m/xi.csv"]

# (id, command with {placeholders} from cli_inputs, exit code, files written under {out})
CLI_TABLE = [
    ("refine", "refine --input {tri} --output {out}/r.obj --scheme lp --modified", cli.EXIT_OK,
     ["r.obj"]),
    ("normals", "normals --input {quad} --output {out}/n.obj", cli.EXIT_OK, ["n.obj"]),
    ("metrics", "metrics --input {tri} --json {out}/m.json", cli.EXIT_OK, ["m.json"]),
    ("morph", f"{MORPH} 0,0,1", cli.EXIT_OK, MORPHED),
    # the norm of these --nstar values overflows or underflows unless rescaled first
    ("morph-huge-nstar", f"{MORPH} 1e308,1e308,0", cli.EXIT_OK, MORPHED),
    ("morph-tiny-nstar", f"{MORPH} 0,0,1e-200", cli.EXIT_OK, MORPHED),
    # --nstar is opposite the naive normal of vertex 3: the two end steps need no blend
    ("morph-antipodal-nstar", f"{MORPH} 1,0,0", cli.EXIT_OK, MORPHED),
    ("morph-antipodal-nstar-3-steps", f"{MORPH} 1,0,0 --steps 3", cli.EXIT_NUMERIC, []),
    ("colorize", "colorize --input {tri} --range=-1:1 --output {out}/c.ply", cli.EXIT_OK,
     ["c.ply"]),
    ("colorize-range-word", "colorize --input {tri} --range -1:1 --output {out}/c.ply",
     cli.EXIT_OK, ["c.ply"]),
    ("colorize-range-missing", "colorize --input {tri} --range --output {out}/c.ply",
     cli.EXIT_USAGE, []),
    ("compare", "compare --input {quad} --schemes cc,k4 --iters 1 --json {out}/c.json", cli.EXIT_OK,
     ["c.json"]),
    ("iters-negative", "refine --input {tri} --output {out}/r.obj --scheme lp --iters -1",
     cli.EXIT_USAGE, []),
    ("unknown-scheme", "compare --input {tri} --schemes zz", cli.EXIT_USAGE, []),
    ("one-morph-step", "morph --input {tri} --outdir {out}/m --nstar 0,0,1 --steps 1",
     cli.EXIT_USAGE, []),
    ("missing-input", "metrics --input {out}/missing.obj", cli.EXIT_PARSE, []),
    ("bad-v-record", "normals --input {bad_v} --output {out}/n.obj", cli.EXIT_PARSE, []),
    ("cc-on-triangles", "refine --input {tri} --output {out}/r.obj --scheme cc", cli.EXIT_TOPOLOGY,
     []),
    ("open-mesh", "normals --input {open} --output {out}/n.obj", cli.EXIT_TOPOLOGY, []),
    ("mixed-arity", "normals --input {mixed} --output {out}/n.obj", cli.EXIT_TOPOLOGY, []),
    ("collinear-corner", "normals --input {collinear} --output {out}/n.obj", cli.EXIT_NUMERIC, []),
    ("refine-collinear-corner",
     "refine --input {collinear} --output {out}/r.obj --scheme by --iters 2", cli.EXIT_NUMERIC, []),
    ("morph-nstar-word", f"{MORPH} -0.3,0.4,0.8", cli.EXIT_OK, MORPHED),
]


@pytest.mark.parametrize(
    "command,code,written", [row[1:] for row in CLI_TABLE], ids=[row[0] for row in CLI_TABLE]
)
def test_cli_exit_codes(cli_inputs, command, code, written):
    argv = [word.format(**cli_inputs) for word in command.split()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == code
    assert caught == []
    out = Path(cli_inputs["out"])
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()) == written


def test_colorize_range_as_a_separate_word_writes_the_same_bytes(cli_inputs):
    out = Path(cli_inputs["out"])
    for name, flag in (("joined", ["--range=-1:1"]), ("separate", ["--range", "-1:1"])):
        argv = ["colorize", "--input", cli_inputs["tri"], *flag, "--output", str(out / name)]
        assert cli.main(argv) == cli.EXIT_OK
    assert (out / "joined").read_bytes() == (out / "separate").read_bytes()


@pytest.mark.parametrize("nstar", ["-0.3,0.4,0.8", "-1,-1,-1"])
def test_morph_nstar_as_a_separate_word_writes_the_same_bytes(cli_inputs, nstar):
    out = Path(cli_inputs["out"])
    written = []
    for name, flag in (("joined", [f"--nstar={nstar}"]), ("separate", ["--nstar", nstar])):
        argv = ["morph", "--input", cli_inputs["tri"], *flag, "--outdir", str(out / name),
                "--steps", "3", "--iters", "1"]
        assert cli.main(argv) == cli.EXIT_OK
        written.append(_files(out / name))
    assert len(written[0]) == 4
    assert written[0] == written[1]


def test_signed_values_join_abbreviated_options_and_leave_other_words():
    joined = cli._join_signed_values(
        ["colorize", "--ran", "-1:1", "morph", "--ns", "-1,0,0", "--nstar", "-1,0", "--range", "-x"]
    )
    assert joined == ["colorize", "--ran=-1:1", "morph", "--ns=-1,0,0", "--nstar", "-1,0",
                      "--range", "-x"]


def test_morph_names_the_vertex_and_step_of_an_antipodal_blend(cli_inputs, caplog):
    argv = f"{MORPH} 1,0,0 --steps 3".format(**cli_inputs).split()
    assert cli.main(argv) == cli.EXIT_NUMERIC
    assert "naive normal of vertex 3, so morph step 1 (mu=0.5)" in caplog.text


@pytest.mark.parametrize("steps", [4, 5, 11])  # mu in {1/3, 2/3}, {1/4, 1/2, 3/4}, {0.1, ..., 0.9}
def test_morph_blends_equal_the_per_vertex_geodesic_average(tmp_path, monkeypatch, rng, steps):
    """Each step's normals are geodesic_avg(nstar, naive normal, mu), bit for bit; the ends exactly."""
    src = tmp_path / "torus.obj"
    save_obj(torus_tri(12, 6), src)
    mesh = load_obj(src)
    target = naive_normals(mesh)
    seen = []

    def record(refiner, blended, modified):
        seen.append(blended.normals)
        return blended

    monkeypatch.setattr(cli.Refiner, "evaluate", record)
    # random directions, and one naive normal itself: theta = 0 on its vertex
    for nstar in [rng.normal(size=3) for _ in range(3)] + [target[5]]:
        seen.clear()
        argv = ["morph", "--input", str(src), "--nstar=" + ",".join(repr(float(x)) for x in nstar),
                "--outdir", str(tmp_path / "out"), "--steps", str(steps)]
        assert cli.main(argv) == cli.EXIT_OK
        unit = seen[0][0]
        assert np.allclose(unit, nstar / np.linalg.norm(nstar), rtol=0.0, atol=1e-15)
        assert np.array_equal(seen[0], np.tile(unit, (len(target), 1)))
        assert np.array_equal(seen[-1], target)
        for i, normals in enumerate(seen[1:-1], start=1):
            want = [geodesic_avg(unit, t, i / (steps - 1)) for t in target]
            assert np.array_equal(normals, mesh.with_normals(want).normals)


def test_compare_checks_every_scheme_name_before_refining(cli_inputs, monkeypatch, caplog):
    built = []
    monkeypatch.setattr(cli, "Refiner", lambda *args: built.append(args))
    argv = ["compare", "--input", cli_inputs["tri"], "--schemes", "lp,zz"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert built == []
    assert "unknown scheme 'zz'" in caplog.text


def test_compare_computes_naive_normals_once(cli_inputs, caplog):
    caplog.set_level(logging.INFO, logger="pnpsubdiv")
    argv = ["compare", "--input", cli_inputs["quad"], "--schemes", "cc,k4", "--iters", "1",
            "--json", str(Path(cli_inputs["out"]) / "c.json")]
    assert cli.main(argv) == cli.EXIT_OK
    assert caplog.text.count("input has no normals; computing naive normals") == 1
