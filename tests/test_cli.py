"""End-to-end CLI runs: reports, determinism, exit codes."""

import filecmp
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dconn.cli import main
from dconn.connection import horizontal_component, vertical_component
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
                       {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
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

