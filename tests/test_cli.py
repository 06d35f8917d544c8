"""End-to-end CLI runs: reports, determinism, exit codes."""

import filecmp
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dconn import lie_group as lg
from dconn.bundle import Bundle
from dconn.cli import main
from dconn.connection import horizontal_component, vertical_component
from dconn import meshes
from dconn.meshes import cone, flat_grid, icosphere, write_complex_json, write_off
from dconn.presets import default_pair, resolve_connection

README = Path(__file__).resolve().parent.parent / "README.md"


def rot_z(theta):
    c, s = math.cos(theta), math.sin(theta)
    return [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# -- decompose -------------------------------------------------------------------


def test_decompose_pure_group_pair(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {
        "connection": "euler_poincare",
        "pair": {
            "first": {"shape": [], "fiber": rot_z(0.3)},
            "second": {"shape": [], "fiber": rot_z(0.8)},
        },
    })
    code, report = run(capsys, ["decompose", "--config", cfg])
    assert code == 0
    assert report["command"] == "decompose"
    assert np.max(np.abs(np.array(report["connection_value"]) - rot_z(0.5))) < 1e-12
    assert report["reconstruction_residual"] < 1e-12
    # Horizontal part of a vertical pair is stationary.
    hor = report["horizontal"]
    assert np.max(np.abs(np.array(hor["second"]["fiber"]) - rot_z(0.3))) < 1e-12


def test_decompose_diagonal_pair_gives_identity(tmp_path, capsys):
    point = {"shape": [0.1, -0.2], "fiber": rot_z(0.4)}
    cfg = write_config(tmp_path, "d.json", {
        "connection": "trivial",
        "pair": {"first": point, "second": point},
    })
    code, report = run(capsys, ["decompose", "--config", cfg])
    assert code == 0
    assert np.max(np.abs(np.array(report["connection_value"]) - np.eye(3))) < 1e-12


def test_decompose_default_pair_and_mechanical(tmp_path, capsys):
    for family, tol in (("trivial", 1e-12), ("mechanical:so3_coupled", 1e-11),
                        ("exponentiated:se3_mechanical", 1e-11)):
        cfg = write_config(tmp_path, "d.json", {"connection": family})
        code, report = run(capsys, ["decompose", "--config", cfg])
        assert code == 0
        assert report["connection"] == family
        assert report["reconstruction_residual"] < tol
        ver = report["vertical"]
        assert ver["first"]["shape"] == ver["second"]["shape"]


def test_decompose_default_pair_of_a_translation_group_past_six(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"connection": "trivial", "group": "T7"})
    code, report = run(capsys, ["decompose", "--config", cfg])
    assert code == 0
    assert report["reconstruction_residual"] < 1e-12


def test_default_pairs_up_to_dimension_six_slice_the_fiber_seeds():
    # The six-entry seeds repeat only past dimension six.
    for name in ("SO2", "SO3", "SE3", *(f"T{n}" for n in range(1, 7))):
        group = lg.group_by_name(name)
        first = lg.exp(group, 0.15 * np.array([1.0, -0.5, 0.25, 0.75, -0.25, 0.5][: group.dim]))
        step = lg.exp(group, 0.2 * np.array([-0.5, 1.0, 0.5, -0.25, 0.75, 0.25][: group.dim]))
        pair = default_pair(Bundle(group, 2))
        assert np.array_equal(pair.first.fiber.matrix, first.matrix), name
        assert np.array_equal(pair.second.fiber.matrix, lg.compose(first, step).matrix), name


def test_decompose_components_match_the_library(tmp_path, capsys):
    # One form evaluation feeds both components; they must equal the library's
    # separate horizontal_component and vertical_component bit for bit.
    for family in ("trivial", "exponentiated:so3_mechanical", "cayley:se3_mechanical",
                   "mechanical:so3_coupled", "mechanical:se3_coupled"):
        group = "SE3" if "se3" in family else "SO3"
        cfg = write_config(tmp_path, "d.json", {"connection": family, "group": group})
        code, report = run(capsys, ["decompose", "--config", cfg])
        assert code == 0
        conn = resolve_connection(family, group)
        pair = default_pair(conn.bundle)
        for key, part in (("horizontal", horizontal_component(conn, pair)),
                          ("vertical", vertical_component(conn, pair))):
            for end, q in (("first", part.first), ("second", part.second)):
                assert report[key][end]["shape"] == q.shape.coords.tolist()
                assert report[key][end]["fiber"] == q.fiber.matrix.tolist()


def _readme_families() -> list[str]:
    text = README.read_text()
    section = text[text.index("Connection families accepted"):text.index("### decompose")]
    families = ["trivial", "euler_poincare"]
    for kinds, fixtures in re.findall(r"^- (`\w+:<fixture>`.*?)\(([^)]*)\)", section, re.M | re.S):
        for kind in re.findall(r"`(\w+):<fixture>`", kinds):
            families += [f"{kind}:{f}" for f in re.findall(r"`(\w+)`", fixtures)]
    return families


def test_every_family_in_the_readme_resolves():
    families = _readme_families()
    assert "cayley:abelian" in families and "mechanical:so3_pure" in families
    for family in families:
        assert resolve_connection(family).bundle is not None


# -- order -----------------------------------------------------------------------


def test_order_cayley_is_second_order(tmp_path, capsys):
    cfg = write_config(tmp_path, "o.json", {
        "candidate": "cayley:so3_mechanical",
        "reference": "exponentiated:so3_mechanical",
        "directions": 8,
    })
    code, report = run(capsys, ["order", "--config", cfg])
    assert code == 0
    assert report["exact_match"] is False
    assert abs(report["order"] - 2.0) < 0.2
    assert len(report["step_sizes"]) == 7
    assert report["step_sizes"][0] == pytest.approx(1e-1)
    assert report["step_sizes"][-1] == pytest.approx(1e-3)
    errs = report["max_errors"]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert len(report["per_direction_errors"]) == 7
    assert len(report["per_direction_errors"][0]) == 8


def test_order_forward_difference_is_first_order(tmp_path, capsys):
    cfg = write_config(tmp_path, "o.json", {
        "candidate": "forward_difference:so3_mechanical",
        "reference": "exponentiated:so3_mechanical",
        "directions": 8,
    })
    code, report = run(capsys, ["order", "--config", cfg])
    assert code == 0
    assert abs(report["order"] - 1.0) < 0.2


def test_order_identical_connections_exact_match(tmp_path, capsys):
    cfg = write_config(tmp_path, "o.json", {
        "candidate": "exponentiated:so3_mechanical",
        "reference": "exponentiated:so3_mechanical",
        "directions": 4,
    })
    code, report = run(capsys, ["order", "--config", cfg])
    assert code == 0
    assert report["exact_match"] is True
    assert report["order"] is None


def test_order_reports_degenerate_sweeps_as_warning(tmp_path, capsys):
    cfg = write_config(tmp_path, "o.json", {
        "candidate": "cayley:so3_mechanical",
        "reference": "exponentiated:so3_mechanical",
        "directions": 4,
        "h_sweep": {"start": 1e-2, "stop": 1e-5, "count": 7},
    })
    code, report = run(capsys, ["order", "--config", cfg])
    assert code == 0
    assert report["order"] is None
    assert "warning" in report


# -- curvature --------------------------------------------------------------------


def test_curvature_of_icosphere(tmp_path, capsys):
    verts, faces = icosphere(1)
    mesh = tmp_path / "sphere.off"
    write_off(mesh, verts, faces)
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
    code, report = run(capsys, ["curvature", "--config", cfg])
    assert code == 0
    assert report["is_closed"] is True
    assert report["euler_characteristic"] == 2
    assert abs(report["total_curvature"] - 4.0 * math.pi) < 1e-9
    assert abs(report["gauss_bonnet_residual"]) < 1e-9
    assert len(report["per_vertex"]) == 42


def test_curvature_of_flat_grid(tmp_path, capsys):
    n, tris, lengths = flat_grid(3, 3)
    mesh = tmp_path / "grid.json"
    write_complex_json(mesh, n, tris, lengths)
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
    code, report = run(capsys, ["curvature", "--config", cfg])
    assert code == 0
    assert report["is_closed"] is False
    assert report["gauss_bonnet_residual"] is None
    assert abs(report["total_curvature"]) < 1e-12
    for v, norm in report["per_vertex"]:
        assert norm < 1e-12


def test_curvature_of_cone(tmp_path, capsys):
    n, tris, lengths = cone(5)
    mesh = tmp_path / "cone.json"
    write_complex_json(mesh, n, tris, lengths)
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
    code, report = run(capsys, ["curvature", "--config", cfg])
    assert code == 0
    assert report["per_vertex"] == [[0, pytest.approx(math.pi / 3, abs=1e-12)]]


def test_non_manifold_vertex_is_a_domain_failure(tmp_path, capsys):
    from test_levi_civita import two_tetrahedra_sharing_a_vertex

    mesh = tmp_path / "pinched.off"
    write_off(mesh, *two_tetrahedra_sharing_a_vertex())
    for command, extra in (("curvature", {}), ("holonomy", {"around_vertex": 0})):
        cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh), **extra})
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "star of vertex 0 is not a single closed fan" in captured.err


# -- holonomy ----------------------------------------------------------------------


def test_holonomy_around_vertex_matches_defect(tmp_path, capsys):
    n, tris, lengths = cone(5)
    mesh = tmp_path / "cone.json"
    write_complex_json(mesh, n, tris, lengths)
    cfg = write_config(tmp_path, "h.json", {"mesh": str(mesh), "around_vertex": 0})
    code, report = run(capsys, ["holonomy", "--config", cfg])
    assert code == 0
    assert report["loop_source"] == "around_vertex"
    assert report["loop_length"] == 5
    assert report["enclosed_curvature"] == pytest.approx(math.pi / 3, abs=1e-12)
    assert report["difference_mod_2pi"] < 1e-12


def test_holonomy_around_degree_two_vertex(tmp_path, capsys):
    # Two triangles glued along all three edges: consecutive star cofaces
    # share two edges, and the loop around vertex 0 crosses both.
    mesh = tmp_path / "pillow.json"
    write_complex_json(mesh, 3, [[0, 1, 2], [0, 2, 1]],
                       [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]])
    cfg = write_config(tmp_path, "h.json", {"mesh": str(mesh), "around_vertex": 0})
    code, report = run(capsys, ["holonomy", "--config", cfg])
    assert code == 0
    assert report["loop_length"] == 2
    assert report["enclosed_curvature"] == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)
    assert report["difference_mod_2pi"] < 1e-12


def test_holonomy_explicit_single_simplex(tmp_path, capsys):
    n, tris, lengths = cone(5)
    mesh = tmp_path / "cone.json"
    write_complex_json(mesh, n, tris, lengths)
    cfg = write_config(tmp_path, "h.json", {"mesh": str(mesh), "loop": [2]})
    code, report = run(capsys, ["holonomy", "--config", cfg])
    assert code == 0
    assert report["angle"] == 0.0
    assert report["enclosed_curvature"] is None
    assert "difference_mod_2pi" not in report
    cfg = write_config(tmp_path, "h.json", {"mesh": str(mesh), "loop": [999]})
    assert main(["holonomy", "--config", cfg]) == 2
    assert "triangle 999 is not in the complex" in capsys.readouterr().err


def test_holonomy_latitude_consistency(tmp_path, capsys):
    verts, faces = icosphere(2)
    mesh = tmp_path / "sphere.off"
    write_off(mesh, verts, faces)
    cfg = write_config(tmp_path, "h.json", {
        "mesh": str(mesh),
        "latitude": {"colatitude_deg": 50.0},
    })
    code, report = run(capsys, ["holonomy", "--config", cfg])
    assert code == 0
    assert report["loop_source"] == "latitude"
    assert report["difference_mod_2pi"] < 1e-10


def test_holonomy_requires_a_loop_spec(tmp_path, capsys):
    n, tris, lengths = cone(5)
    mesh = tmp_path / "cone.json"
    write_complex_json(mesh, n, tris, lengths)
    cfg = write_config(tmp_path, "h.json", {"mesh": str(mesh)})
    code, _ = run(capsys, ["holonomy", "--config", cfg])
    assert code == 2


# -- determinism ------------------------------------------------------------------


def test_reports_are_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"connection": "mechanical:so3_coupled"})
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["decompose", "--config", cfg, "--out", out1]) == 0
    assert main(["decompose", "--config", cfg, "--out", out2]) == 0
    assert filecmp.cmp(out1, out2, shallow=False)
    code, report = run(capsys, ["decompose", "--config", cfg])
    assert code == 0
    assert json.dumps(report, sort_keys=True) == json.dumps(
        json.loads((tmp_path / "r1.json").read_text()), sort_keys=True)


def test_holonomy_after_curvature_of_the_same_mesh_is_unchanged(tmp_path, capsys):
    # In one process a holonomy report shares the complex of the curvature
    # report before it; read after another mesh, it builds afresh.  Cone 3's
    # curvature fails on the SO(2) cut locus and leaves nothing behind.
    other = tmp_path / "other.json"
    write_complex_json(other, *flat_grid(2, 2))
    sphere = tmp_path / "sphere.off"
    write_off(sphere, *icosphere(1))
    cases = [(sphere, {"latitude": {"colatitude_deg": 60.0}}, 0)]
    for k in (3, 5):
        mesh = tmp_path / f"cone{k}.json"
        write_complex_json(mesh, *cone(k))
        cases.append((mesh, {"around_vertex": 0}, 2 if k == 3 else 0))
    for mesh, loop, curvature_code in cases:
        curvature = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
        holonomy = write_config(tmp_path, "h.json", {"mesh": str(mesh), **loop})
        assert main(["curvature", "--config", curvature]) == curvature_code
        err = capsys.readouterr().err
        assert ("of pi" in err) == (curvature_code == 2)
        assert main(["holonomy", "--config", holonomy]) == 0
        shared = capsys.readouterr().out
        meshes.read_mesh(other)
        assert main(["holonomy", "--config", holonomy]) == 0
        assert capsys.readouterr().out == shared


def test_stdout_report_is_canonical_json(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"connection": "trivial"})
    assert main(["decompose", "--config", cfg]) == 0
    raw = capsys.readouterr().out
    assert raw == json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n"


# -- failure modes -----------------------------------------------------------------


def test_missing_config_file_is_a_parse_failure(tmp_path, capsys):
    code = main(["decompose", "--config", str(tmp_path / "nope.json")])
    assert code == 3
    assert "dconn:" in capsys.readouterr().err


def test_invalid_json_config_is_a_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["decompose", "--config", str(bad)]) == 3


def test_missing_mesh_file_is_a_parse_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"mesh": str(tmp_path / "gone.off")})
    assert main(["curvature", "--config", cfg]) == 3


# A config in each encoding that is not plain UTF-8 JSON text.
NOT_UTF8 = {
    "latin-1": '{"connection": "trivial", "note": "café"}'.encode("latin-1"),
    "utf-16": '{"connection": "trivial"}'.encode("utf-16"),
    "utf-8 with a byte order mark": '{"connection": "trivial"}'.encode("utf-8-sig"),
}


@pytest.mark.parametrize("encoding", NOT_UTF8)
def test_config_that_is_not_utf8_json_is_a_parse_failure(tmp_path, capsys, encoding):
    # A latin-1 config once exited 2 with "invalid config: UnicodeDecodeError(...)".
    path = tmp_path / "c.json"
    path.write_bytes(NOT_UTF8[encoding])
    assert main(["decompose", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith("dconn: cannot parse input: ")


@pytest.mark.parametrize("suffix", [".json", ".off"])
@pytest.mark.parametrize("encoding", ["latin-1", "utf-16"])
def test_mesh_file_that_is_not_utf8_is_a_domain_failure_naming_it(tmp_path, capsys, suffix,
                                                                  encoding):
    mesh = tmp_path / f"m{suffix}"
    if suffix == ".json":
        write_complex_json(mesh, *cone(5))
    else:
        write_off(mesh, *icosphere(0))
    # A comment in an OFF file or an unknown key in a complex is ignored once read.
    text = mesh.read_text()
    text = (text.replace("{", '{"note": "café",', 1) if suffix == ".json"
            else "# café\n" + text)
    mesh.write_bytes(text.encode(encoding))
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
    assert main(["curvature", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"dconn: {mesh}: not UTF-8 text (")
    mesh.write_bytes(text.encode("utf-8"))
    assert main(["curvature", "--config", cfg]) == 0


def test_invalid_json_mesh_file_is_a_domain_failure_naming_it(tmp_path, capsys):
    mesh = tmp_path / "m.json"
    mesh.write_text("{oops")
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
    assert main(["curvature", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"dconn: {mesh}: invalid JSON (")



@pytest.mark.parametrize("root, kind", [("[1, 2]", "list"), ('"mesh"', "str"), ("7", "int")])
@pytest.mark.parametrize("command, extra", [("curvature", {}), ("holonomy", {"around_vertex": 0})])
def test_mesh_file_whose_root_is_not_an_object_is_a_domain_failure(tmp_path, capsys, root, kind,
                                                                   command, extra):
    mesh = tmp_path / "m.json"
    mesh.write_text(root)
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh), **extra})
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dconn: a dconn-complex must be a JSON object, not {kind}\n"

# Deep enough that json.loads runs out of stack (it recurses once per level).
DEEP_JSON = "[" * 100_000


def test_deeply_nested_config_is_a_parse_failure(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(DEEP_JSON)
    assert main(["decompose", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("dconn: cannot parse input: ")


def test_deeply_nested_mesh_file_is_a_domain_failure_naming_it(tmp_path, capsys):
    mesh = tmp_path / "m.json"
    mesh.write_text(DEEP_JSON)
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
    assert main(["curvature", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"dconn: {mesh}: invalid JSON (")


# -- the command line ------------------------------------------------------------

USAGE = "usage: dconn {decompose,order,curvature,holonomy} --config PATH [--out PATH]"


@pytest.mark.parametrize("argv, reason", [
    ([], "missing command"),
    (["--config", "c.json"], "unknown command '--config'"),
    (["decomp", "--config", "c.json"], "unknown command 'decomp'"),
    (["decompose"], "missing --config"),
    (["decompose", "--out", "r.json"], "missing --config"),
    (["decompose", "--config"], "--config needs a value"),
    (["decompose", "--config", "c.json", "--out"], "--out needs a value"),
    (["decompose", "--config", "--out", "r.json"], "--config needs a value"),
    (["decompose", "--config", "c.json", "--verbose"], "unrecognized argument '--verbose'"),
    (["decompose", "--config", "c.json", "extra"], "unrecognized argument 'extra'"),
    (["decompose", "--conf", "c.json"], "unrecognized argument '--conf'"),
    (["decompose", "--config=c.json", "--config", "d.json"], "--config given twice"),
    (["decompose", "--config", "c.json", "--out=a", "--out=b"], "--out given twice"),
])
def test_command_lines_outside_the_grammar_return_2(capsys, argv, reason):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{USAGE}\ndconn: {reason}\n"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["order", "--help"],
                                  ["order", "--config", "c.json", "-h"]])
def test_help_prints_the_usage_and_returns_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(USAGE + "\n") and captured.err == ""


def test_options_in_either_order_and_either_form(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"connection": "euler_poincare"})
    out = tmp_path / "r.json"
    expected = None
    for argv in (["--config", cfg], [f"--config={cfg}"], ["--out", str(out), "--config", cfg],
                 [f"--out={out}", f"--config={cfg}"]):
        assert main(["decompose", *argv]) == 0
        report = capsys.readouterr().out.encode() or out.read_bytes()
        assert report == (expected := expected or report)
    # A value that begins with "-" takes the "=" form.
    dashed = tmp_path / "-d.json"
    dashed.write_text(Path(cfg).read_text())
    assert main(["decompose", f"--config={dashed}"]) == 0
    assert capsys.readouterr().out.encode() == expected


def test_main_without_argv_reads_the_process_arguments(tmp_path, capsys, monkeypatch):
    # The console script dconn = "dconn.cli:main" calls main() with no arguments.
    cfg = write_config(tmp_path, "d.json", {"connection": "euler_poincare"})
    monkeypatch.setattr("sys.argv", ["dconn", "decompose", "--config", cfg])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["command"] == "decompose"
    monkeypatch.setattr("sys.argv", ["dconn", "decompose"])
    assert main() == 2
    assert capsys.readouterr().err == f"{USAGE}\ndconn: missing --config\n"


def test_out_replaces_a_longer_file_with_exactly_the_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"connection": "trivial"})
    assert main(["decompose", "--config", cfg]) == 0
    report = capsys.readouterr().out.encode()
    out = tmp_path / "r.json"
    out.write_bytes(b"x" * (3 * len(report)))
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == report


def test_out_is_created_with_the_mode_path_write_bytes_gives(tmp_path):
    # Both create the file with 0o666 less the process umask.
    cfg = write_config(tmp_path, "d.json", {"connection": "trivial"})
    out, reference = tmp_path / "r.json", tmp_path / "reference.json"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    reference.write_bytes(b"{}")
    assert out.stat().st_mode == reference.stat().st_mode


def test_unknown_mesh_suffix_is_a_domain_failure(tmp_path, capsys):
    stray = tmp_path / "mesh.obj"
    stray.write_text("v 0 0 0\n")
    cfg = write_config(tmp_path, "c.json", {"mesh": str(stray)})
    assert main(["curvature", "--config", cfg]) == 2


def test_unknown_family_is_a_domain_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"connection": "sporadic"})
    assert main(["decompose", "--config", cfg]) == 2
    cfg2 = write_config(tmp_path, "d2.json", {"connection": "mechanical:unknown"})
    assert main(["decompose", "--config", cfg2]) == 2


def test_negative_shape_dimension_is_a_domain_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"connection": "trivial", "shape_dim": -1})
    assert main(["decompose", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "shape_dim" in captured.err


def test_empty_direction_list_is_a_domain_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "o.json", {
        "candidate": "cayley:so3_mechanical",
        "reference": "exponentiated:so3_mechanical",
        "directions": 0,
    })
    assert main(["order", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "directions must hold at least one" in captured.err


def test_missing_connection_field_is_a_domain_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {})
    assert main(["decompose", "--config", cfg]) == 2


def test_fibers_outside_the_group_are_domain_failures(tmp_path, capsys):
    stretched = np.diag([2.0, 1.0, 1.0]).tolist()
    cfg = write_config(tmp_path, "d.json", {
        "connection": "euler_poincare",
        "pair": {
            "first": {"shape": [], "fiber": stretched},
            "second": {"shape": [], "fiber": rot_z(0.8)},
        },
    })
    assert main(["decompose", "--config", cfg]) == 2
    assert "not orthonormal" in capsys.readouterr().err
    reflection = np.diag([1.0, 1.0, -1.0]).tolist()
    cfg2 = write_config(tmp_path, "o.json", {
        "candidate": "cayley:so3_mechanical",
        "reference": "exponentiated:so3_mechanical",
        "base_point": {"shape": [0.1, -0.2], "fiber": reflection},
    })
    assert main(["order", "--config", cfg2]) == 2
    assert "negative determinant" in capsys.readouterr().err
    # NaN compares false with every tolerance, so it is rejected on its own.
    nan_fiber = rot_z(0.3)
    nan_fiber[0][1] = math.nan
    for family, first, second, message in (
        ("euler_poincare", {"shape": [], "fiber": nan_fiber},
         {"shape": [], "fiber": rot_z(0.8)}, "non-finite"),
        ("exponentiated:so3_mechanical", {"shape": [math.nan, 0.0], "fiber": rot_z(0.3)},
         {"shape": [0.1, 0.0], "fiber": rot_z(0.8)}, "not finite"),
    ):
        cfg3 = write_config(tmp_path, "n.json", {
            "connection": family, "pair": {"first": first, "second": second}})
        assert main(["decompose", "--config", cfg3]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_bad_h_sweep_is_a_domain_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "o.json", {
        "candidate": "cayley:so3_mechanical",
        "reference": "exponentiated:so3_mechanical",
        "h_sweep": {"start": 1e-3, "stop": 1e-1, "count": 5},
    })
    assert main(["order", "--config", cfg]) == 2
    # Not "rotation angle ... within 1e-6 of pi" from the NaN samples it would give.
    # Nor numpy's warnings or its "Geometric sequence cannot include zero".
    for start in (math.nan, math.inf, -0.1, 0.0):
        cfg = write_config(tmp_path, "o.json", {
            "candidate": "cayley:so3_mechanical",
            "reference": "exponentiated:so3_mechanical",
            "h_sweep": {"start": start, "stop": 1e-3, "count": 5},
        })
        capsys.readouterr()
        assert main(["order", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "finite, positive and strictly decreasing" in err
        assert "RuntimeWarning" not in err



def test_sweep_past_the_validity_radius_is_a_domain_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "o.json", {
        "candidate": "cayley:so3_mechanical",
        "reference": "exponentiated:so3_mechanical",
        "h_sweep": {"start": 1.0, "stop": 1e-2, "count": 5},
    })
    assert main(["order", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds validity radius" in captured.err


def test_sweep_past_the_radius_is_refused_before_any_solve(tmp_path, capsys, monkeypatch):
    # The per-pair candidate once solved its in-domain prefix (4 Newton solves)
    # before the first sample past the radius raised.
    from dconn import mechanical

    solves = []
    solve = mechanical._canonical_solve
    monkeypatch.setattr(mechanical, "_canonical_solve",
                        lambda *args: solves.append(args) or solve(*args))
    cfg = write_config(tmp_path, "o.json", {
        "candidate": "mechanical:so3_coupled",
        "reference": "exponentiated:so3_mechanical",
        "h_sweep": {"start": 0.9, "stop": 0.01, "count": 4},
        "directions": 6,
    })
    line = _assert_one_line_domain_failure(capsys, "order", cfg)
    assert line == "dconn: shape pair distance 0.7362 exceeds validity radius 0.5"
    assert solves == []


def test_group_tag_that_is_not_a_string_is_a_domain_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"connection": "trivial", "group": 7})
    assert main(["decompose", "--config", cfg]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("dconn: ")
    assert "group tag" in lines[0]


@pytest.mark.parametrize("shape_dim", [2.7, 2.0, True, "2"])
def test_shape_dimension_that_is_not_an_integer_is_a_domain_failure(tmp_path, capsys,
                                                                     shape_dim):
    cfg = write_config(tmp_path, "d.json", {"connection": "trivial", "shape_dim": shape_dim})
    assert main(["decompose", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'shape_dim' must be an integer" in captured.err


@pytest.mark.parametrize("field, value", [
    ("directions", 2.7), ("seed", 7.5), ("seed", True), ("h_sweep.count", 3.9),
    ("h_sweep.count", "7"),
])
def test_order_integers_that_are_not_integers_are_domain_failures(tmp_path, capsys,
                                                                  field, value):
    data = {"candidate": "cayley:so3_mechanical", "reference": "exponentiated:so3_mechanical",
            "h_sweep": {"start": 1e-1, "stop": 1e-2, "count": 3}}
    if field == "h_sweep.count":
        data["h_sweep"]["count"] = value
    else:
        data[field] = value
    cfg = write_config(tmp_path, "o.json", data)
    assert main(["order", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"'{field}' must be an integer" in captured.err


def test_h_sweep_that_is_not_an_object_is_a_domain_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "o.json", {
        "candidate": "cayley:so3_mechanical", "reference": "exponentiated:so3_mechanical",
        "h_sweep": 5,
    })
    assert main(["order", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'h_sweep' must be an object" in captured.err


@pytest.mark.parametrize("spec", [{"around_vertex": 0.7}, {"around_vertex": False},
                                  {"loop": [2.0]}, {"loop": [2, 3.5]}])
def test_holonomy_indices_that_are_not_integers_are_domain_failures(tmp_path, capsys, spec):
    n, tris, lengths = cone(5)
    mesh = tmp_path / "cone.json"
    write_complex_json(mesh, n, tris, lengths)
    cfg = write_config(tmp_path, "h.json", {"mesh": str(mesh), **spec})
    assert main(["holonomy", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"'{next(iter(spec))}' must be an integer" in captured.err


def test_complex_with_a_fractional_triangle_index_is_a_domain_failure(tmp_path, capsys):
    mesh = tmp_path / "cone.json"
    data = meshes.complex_to_dict(*cone(5))
    data["triangles"][0][2] = 3.6
    mesh.write_text(json.dumps(data))
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
    assert main(["curvature", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "triangle indices must be JSON integers" in captured.err


def _assert_one_line_domain_failure(capsys, command, cfg):
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("dconn: ")
    return lines[0]


@pytest.mark.parametrize("where", ["off", "json", "loop"])
def test_index_beyond_int64_is_a_domain_failure(tmp_path, capsys, where):
    # Each once printed "invalid config: OverflowError(...)" or "malformed
    # complex dictionary (...)", naming no field.
    big, command, spec = 10**20, "curvature", {}
    if where == "off":
        mesh = tmp_path / "triangle.off"
        mesh.write_text(f"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 {big}\n")
    else:
        mesh = tmp_path / "cone.json"
        data = meshes.complex_to_dict(*cone(5))
        if where == "json":
            data["triangles"][0][2] = big
        else:
            command, spec = "holonomy", {"loop": [0, big, 0]}
        mesh.write_text(json.dumps(data))
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh), **spec})
    line = _assert_one_line_domain_failure(capsys, command, cfg)
    want = f"triangle {big} is not in the complex" if where == "loop" else "index out of range"
    assert want in line


def test_sweep_start_too_large_for_a_float_is_a_domain_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "o.json", {
        "candidate": "cayley:so3_mechanical", "reference": "exponentiated:so3_mechanical",
        "h_sweep": {"start": 10**400, "stop": 1e-3, "count": 5},
    })
    _assert_one_line_domain_failure(capsys, "order", cfg)


def test_shape_coordinate_too_large_for_a_float_is_a_domain_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {
        "connection": "exponentiated:so3_mechanical",
        "pair": {"first": {"shape": [10**400, 0.0], "fiber": rot_z(0.3)},
                 "second": {"shape": [0.1, 0.0], "fiber": rot_z(0.8)}},
    })
    _assert_one_line_domain_failure(capsys, "decompose", cfg)


@pytest.mark.parametrize("length, message", [
    (-1.0, "length -1.0 is not positive and finite"),
    (10**400, "malformed complex dictionary"),
])
def test_complex_with_a_bad_edge_length_is_a_domain_failure(tmp_path, capsys, length, message):
    mesh = tmp_path / "cone.json"
    data = meshes.complex_to_dict(*cone(5))
    data["edge_lengths"][0][2] = length
    mesh.write_text(json.dumps(data))
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
    assert message in _assert_one_line_domain_failure(capsys, "curvature", cfg)


def test_cone_too_large_to_square_is_a_domain_failure(tmp_path, capsys):
    # Its squared sides once overflowed: three RuntimeWarnings, then "metric of
    # triangle 0 is not positive definite".
    mesh = tmp_path / "cone.json"
    write_complex_json(mesh, *cone(5, 1e200))
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
    line = _assert_one_line_domain_failure(capsys, "curvature", cfg)
    assert "edge (0, 1) length 1e+200 has no finite square" in line


@pytest.mark.parametrize("side", [1e-100, 1e100, 1e154])
def test_cone_of_extreme_side_reports_its_apex(tmp_path, capsys, side):
    # At 1e-100 the determinant once underflowed to 0: "not positive definite".
    # At 1e100 it overflowed: two RuntimeWarnings, then exit 0 with the apex at
    # 1.5708 for pi/3.  Later 1e-100 read "too small" and 1e100 and 1e154 "too
    # large"; each metric is now judged at its own scale.
    mesh = tmp_path / "cone.json"
    write_complex_json(mesh, *cone(5, side))
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
    code, report = run(capsys, ["curvature", "--config", cfg])
    assert code == 0
    assert report["per_vertex"] == [[0, pytest.approx(math.pi / 3, abs=1e-12)]]


@pytest.mark.parametrize("side", [1e-160, 1e-170])
def test_cone_whose_metric_is_not_a_normal_float_is_a_domain_failure(tmp_path, capsys, side):
    # Sides of 1e-160 square to a subnormal, and of 1e-170 to 0.
    mesh = tmp_path / "cone.json"
    write_complex_json(mesh, *cone(5, side))
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
    line = _assert_one_line_domain_failure(capsys, "curvature", cfg)
    assert (("metric of triangle 0 is too small: its largest entry is not a normal float"
             if side**2 else "edge (0, 1) length 1e-170 has no nonzero square") in line)


def test_off_too_large_for_its_gram_product_is_a_domain_failure(tmp_path, capsys):
    # The Gram product once warned of its overflow before this refusal.
    mesh = tmp_path / "triangle.off"
    mesh.write_text("OFF\n3 1 0\n0 0 0\n1e200 0 0\n0 1 0\n3 0 1 2\n")
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
    line = _assert_one_line_domain_failure(capsys, "curvature", cfg)
    assert "metric of triangle 0 is not finite" in line


@pytest.mark.parametrize("coordinate", ["inf", "nan"])
def test_off_with_a_non_finite_coordinate_is_a_domain_failure(tmp_path, capsys, coordinate):
    mesh = tmp_path / "triangle.off"
    mesh.write_text(f"OFF\n3 1 0\n0 0 0\n1 {coordinate} 0\n0 1 0\n3 0 1 2\n")
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
    line = _assert_one_line_domain_failure(capsys, "curvature", cfg)
    assert "vertex 1 has a non-finite coordinate" in line


@pytest.mark.parametrize("body, message", [
    # A short face line once crashed into numpy: "invalid config: ValueError(...)".
    ("3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 1 3\n", "face 1 has fewer than three vertex indices"),
    # Faces past the declared count were dropped, and the report covered part of the mesh.
    ("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 2 1\n", "1 line(s) after the 3 vertices"),
])
def test_off_short_or_extra_face_line_is_a_domain_failure(tmp_path, capsys, body, message):
    mesh = tmp_path / "triangle.off"
    mesh.write_text("OFF\n" + body)
    cfg = write_config(tmp_path, "c.json", {"mesh": str(mesh)})
    line = _assert_one_line_domain_failure(capsys, "curvature", cfg)
    assert f"{mesh}: {message}" in line


def test_newton_stall_is_a_domain_failure(tmp_path, capsys, monkeypatch):
    from dconn import mechanical

    monkeypatch.setattr(mechanical, "NEWTON_MAX_ITER", 1)
    cfg = write_config(tmp_path, "d.json", {"connection": "mechanical:so3_coupled"})
    assert main(["decompose", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "stalled" in captured.err


@pytest.mark.parametrize("data, message", [
    ({"candidate": "trivial", "shape_dim": 5, "reference": "exponentiated:so3_mechanical"},
     "shape dimensions differ: candidate 5, exact 2, q 2"),
    ({"candidate": "cayley:so3_mechanical", "reference": "mechanical:so3_pure"},
     "shape dimensions differ: candidate 2, exact 0, q 0"),
])
def test_order_across_shape_dimensions_is_a_domain_failure(tmp_path, capsys, data, message):
    cfg = write_config(tmp_path, "o.json", data)
    assert message in _assert_one_line_domain_failure(capsys, "order", cfg)


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} reached before the size check")
    return refuse


@pytest.fixture
def nothing_built(monkeypatch):
    """Every builder a command reaches after its size checks raises."""
    import dconn.cli

    for name in ("default_pair", "unit_directions"):
        monkeypatch.setattr(dconn.cli, name, _refuse(name))
    monkeypatch.setattr(np, "geomspace", _refuse("np.geomspace"))
    monkeypatch.setattr(np, "bincount", _refuse("np.bincount"))
    monkeypatch.setattr(lg, "translation_group", _refuse("translation_group"))


@pytest.mark.parametrize("command, data, field", [
    ("decompose", {"connection": "trivial", "shape_dim": 10**12}, "shape_dim"),
    ("order", {"candidate": "trivial", "reference": "trivial", "shape_dim": 10**12},
     "shape_dim"),
    ("order", {"candidate": "cayley:so3_mechanical",
               "reference": "exponentiated:so3_mechanical", "directions": 10**7}, "directions"),
    ("order", {"candidate": "cayley:so3_mechanical",
               "reference": "exponentiated:so3_mechanical",
               "h_sweep": {"start": 1e-1, "stop": 1e-3, "count": 10**12}}, "h_sweep.count"),
    *(("curvature", {"mesh": {"format": "dconn-complex", "vertices": n, "triangles": [[0, 1, 2]],
                              "edge_lengths": [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]]}},
       "vertices") for n in (meshes.MAX_VERTICES + 1, 10**14)),
    ("decompose", {"connection": "trivial", "group": "T3000"}, "group"),
])
def test_sizes_above_their_caps_are_refused_before_allocation(tmp_path, capsys, nothing_built,
                                                              command, data, field):
    if "mesh" in data:  # a dconn-complex, written to the file the config names
        mesh = tmp_path / "mesh.json"
        mesh.write_text(json.dumps(data["mesh"]))
        data = {**data, "mesh": str(mesh)}
    cfg = write_config(tmp_path, "c.json", data)
    line = _assert_one_line_domain_failure(capsys, command, cfg)
    assert f"'{field}' must be at most" in line


@pytest.mark.parametrize("command, data, field", [
    ("order", {"candidate": "trivial", "reference": "trivial", "directions": -1}, "directions"),
    ("order", {"candidate": "trivial", "reference": "trivial", "h_sweep": {"count": -2}},
     "h_sweep.count"),
    ("order", {"candidate": "trivial", "reference": "trivial", "seed": -5}, "seed"),
    ("order", {"candidate": "trivial", "reference": "trivial", "shape_dim": -3}, "shape_dim"),
])
def test_negative_counts_are_refused_naming_the_field(tmp_path, capsys, nothing_built, command,
                                                      data, field):
    cfg = write_config(tmp_path, "c.json", data)
    line = _assert_one_line_domain_failure(capsys, command, cfg)
    assert f"config field '{field}' must be at least 0, got -" in line


@pytest.mark.parametrize("family", ["trivial", "cayley:so3_mechanical"])
@pytest.mark.parametrize("group, message", [
    ("T" + "9" * 5000, "must be at most T1000"),
    ("T²", "must name SO2, SO3, SE3 or Tn"),
    ("T0", "must name SO2, SO3, SE3 or Tn"),
    ("SU2", "must name SO2, SO3, SE3 or Tn"),
])
def test_group_tags_are_parsed_once_on_ascii_digits(tmp_path, capsys, monkeypatch, family,
                                                    group, message):
    # A tag past Python's int-string limit, or with digits of another script,
    # names the field; no translation group is built for a refused tag.
    monkeypatch.setattr(lg, "translation_group", _refuse("translation_group"))
    cfg = write_config(tmp_path, "d.json", {"connection": family, "group": group})
    line = _assert_one_line_domain_failure(capsys, "decompose", cfg)
    assert f"config field 'group' {message}" in line


_ORDER = {"candidate": "cayley:so3_mechanical", "reference": "exponentiated:so3_mechanical",
          "directions": 4}
_PAIR = {"first": {"shape": [0.1, 0.2], "fiber": rot_z(0.3)},
         "second": {"shape": [0.15, 0.1], "fiber": rot_z(0.5)}}


def _with(base, path, value):
    data = json.loads(json.dumps(base))
    node = data
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("command, data, field", [
    ("order", _with(_ORDER, ["h_sweep", "start"], "0.1"), "h_sweep.start"),
    ("order", _with(_ORDER, ["h_sweep", "start"], True), "h_sweep.start"),
    ("order", _with(_ORDER, ["h_sweep", "stop"], "1e-3"), "h_sweep.stop"),
    ("order", _with(_ORDER, ["h_sweep", "stop"], False), "h_sweep.stop"),
    ("holonomy", {"latitude": {"colatitude_deg": "60"}}, "latitude.colatitude_deg"),
    ("holonomy", {"latitude": {"colatitude_deg": True}}, "latitude.colatitude_deg"),
    ("decompose", _with({"connection": "exponentiated:so3_mechanical", "pair": _PAIR},
                        ["pair", "first", "shape"], ["0.1", "0.2"]), "pair.first.shape"),
    ("decompose", _with({"connection": "exponentiated:so3_mechanical", "pair": _PAIR},
                        ["pair", "second", "shape"], [True, 0.3]), "pair.second.shape"),
    ("decompose", _with({"connection": "exponentiated:so3_mechanical", "pair": _PAIR},
                        ["pair", "first", "fiber"],
                        [[1, 0, 0], [0, 1, "0"], [0, 0, 1]]), "pair.first.fiber"),
    ("decompose", _with({"connection": "exponentiated:so3_mechanical", "pair": _PAIR},
                        ["pair", "second", "fiber"],
                        [[True, 0, 0], [0, 1, 0], [0, 0, 1]]), "pair.second.fiber"),
    ("order", _with(_ORDER, ["base_point"], {"shape": ["0.1", 0.2], "fiber": rot_z(0.3)}),
     "base_point.shape"),
    ("order", _with(_ORDER, ["base_point"], {"shape": [0.1, 0.2], "fiber": [[1, 0, 0],
                                                                           [0, 1, 0],
                                                                           [0, 0, None]]}),
     "base_point.fiber"),
])
def test_numbers_that_are_not_json_numbers_are_domain_failures(tmp_path, capsys, command,
                                                               data, field):
    if command == "holonomy":
        n, tris, lengths = cone(5)
        mesh = tmp_path / "cone.json"
        write_complex_json(mesh, n, tris, lengths)
        data = {"mesh": str(mesh), **data}
    cfg = write_config(tmp_path, "c.json", data)
    line = _assert_one_line_domain_failure(capsys, command, cfg)
    assert f"config field '{field}' must" in line


_EYE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("command, data, message", [
    ("decompose", {"connection": "trivial",
                   "pair": {"first": {"shape": [0.1], "fiber": _EYE3},
                            "second": {"shape": [0.1, 0.2], "fiber": _EYE3}}},
     "config field 'pair.first.shape' must hold 2 numbers, got 1"),
    ("decompose", {"connection": "trivial",
                   "pair": {"first": {"shape": [0.1, 0.2], "fiber": _EYE3},
                            "second": {"shape": [0.1, 0.2, 0.3], "fiber": _EYE3}}},
     "config field 'pair.second.shape' must hold 2 numbers, got 3"),
    ("order", {"candidate": "euler_poincare", "reference": "euler_poincare",
               "base_point": {"shape": [0.05, -0.1], "fiber": _EYE3}},
     "config field 'base_point.shape' must hold 0 numbers, got 2"),
    ("decompose", {"connection": "trivial", "pair": [1, 2]},
     "config field 'pair' must be an object, got [1, 2]"),
    ("decompose", {"connection": "trivial", "pair": {"first": 3, "second": 4}},
     "config field 'pair.first' must be an object, got 3"),
    ("decompose", {"connection": "trivial",
                   "pair": {"first": {"shape": [0.1, 0.2], "fiber": _EYE3}}},
     "config field 'pair.second' must be an object, got None"),
    ("order", {"candidate": "trivial", "reference": "trivial", "base_point": [0.1, 0.2]},
     "config field 'base_point' must be an object"),
    ("order", {**_ORDER, "base_point": {"shape": [math.inf, 0.0], "fiber": _EYE3}},
     "bad bundle point in config field 'base_point': shape coordinates are not finite"),
    ("decompose", _with({"connection": "exponentiated:so3_mechanical", "pair": _PAIR},
                        ["pair", "second", "shape"], [0.1, -math.inf]),
     "bad bundle point in config field 'pair.second': shape coordinates are not finite"),
    # With several entries that are not numbers, the refusal names the last.
    ("decompose", _with({"connection": "exponentiated:so3_mechanical", "pair": _PAIR},
                        ["pair", "first", "fiber"], [[1, "a", 0], [0, 1, "b"], [0, 0, 1]]),
     "config field 'pair.first.fiber' must hold numbers, got 'b'"),
    ("decompose", _with({"connection": "exponentiated:so3_mechanical", "pair": _PAIR},
                        ["pair", "first", "fiber"], [["a", 0, 0], 1, [[None]]]),
     "config field 'pair.first.fiber' must hold numbers, got None"),
    ("decompose", _with({"connection": "exponentiated:so3_mechanical", "pair": _PAIR},
                        ["pair", "first", "fiber"], [[1, 0, 0], [0, 1], [0, 0, 1]]),
     "bad bundle point in config field 'pair.first': setting an array element"),
    ("holonomy", {"loop": 5}, "config field 'loop' must be a list of triangles, got 5"),
    ("holonomy", {"latitude": 30}, "config field 'latitude' must be an object, got 30"),
])
def test_fields_of_the_wrong_form_are_domain_failures(tmp_path, capsys, command, data,
                                                      message):
    if command == "holonomy":
        n, tris, lengths = cone(5)
        mesh = tmp_path / "cone.json"
        write_complex_json(mesh, n, tris, lengths)
        data = {"mesh": str(mesh), **data}
    cfg = write_config(tmp_path, "c.json", data)
    assert message in _assert_one_line_domain_failure(capsys, command, cfg)
