"""CLI reports against reports recorded earlier.

``report_regression.json`` holds the parsed reports of a fixed set of
meshes, recorded before transport and curvature became sums of edge
angles; the explicit-loop holonomy cases were recorded later, before the
signed edge crossing became one helper.  ``fiber_regression.json`` holds fiber-side reports with no mesh:
``decompose`` on six connection families, ``order`` sweeps on four
candidate/reference pairs and the end of two discrete Euler-Lagrange
trajectories, recorded before local representations became bare matrices.
The comparison is insensitive to roundoff: ``per_vertex`` is read as a
vertex -> norm map, angles are compared on the circle, and every number
must agree within 1e-12.  The bytes are not: every report and every
``dconn-complex`` file the cases write must be canonical JSON, as json
itself writes it.
"""

import json
import math
from pathlib import Path

import numpy as np

from dconn.bundle import PairElement
from dconn.cli import main
from dconn.mechanical import del_trajectory, discrete_momentum
from dconn.meshes import cone, flat_grid, icosphere, torus_grid, write_complex_json, write_off
from dconn.presets import LAGRANGIAN_FIXTURES, default_pair

RECORDED = Path(__file__).resolve().parent / "report_regression.json"
FIBER_RECORDED = Path(__file__).resolve().parent / "fiber_regression.json"
TOL = 1.0e-12

# The connection families, order pairs and trajectories of the fiber-reports benchmark workload.
DECOMPOSE_FAMILIES = (
    ("trivial", "SO3", 2),
    ("exponentiated:so3_mechanical", "SO3", 2),
    ("cayley:se3_mechanical", "SE3", 2),
    ("mechanical:so3_pure", "SO3", 0),
    ("mechanical:so3_coupled", "SO3", 2),
    ("mechanical:se3_coupled", "SE3", 2),
)
ORDER_PAIRS = (
    ("cayley:so3_mechanical", "exponentiated:so3_mechanical"),
    ("cayley:se3_mechanical", "exponentiated:se3_mechanical"),
    ("forward_difference:se3_mechanical", "exponentiated:se3_mechanical"),
    ("cayley:abelian", "exponentiated:abelian"),
)
DEL_FIXTURES = ("so3_coupled", "se3_coupled")
DEL_STEPS = 10
# The latitude loop of the level-2 icosphere at colatitude 30 degrees.
SPHERE2_LOOP = [96, 99, 97, 108, 111, 109, 106, 107, 104, 240, 243, 241, 252, 255, 253, 250,
                251, 248, 96]


def _cases():
    """(name, mesh writer, mesh file name, [(command, extra config)])."""
    def abstract(parts):
        return lambda path: write_complex_json(path, *parts)

    def embedded(path):
        write_off(path, *icosphere(2))

    return [
        ("cone5", abstract(cone(5)), "cone5.json",
         [("curvature", {}), ("holonomy", {"around_vertex": 0})]),
        ("cone7", abstract(cone(7, 1.3)), "cone7.json",
         [("curvature", {}), ("holonomy", {"around_vertex": 0}),
          ("holonomy", {"loop": [0, 1, 2, 3, 4, 5, 6, 0]})]),
        # Apex defect pi: the curvature norm sits on the SO(2) cut locus.
        ("cone3", abstract(cone(3)), "cone3.json", [("curvature", {})]),
        ("grid4x3", abstract(flat_grid(4, 3)), "grid4x3.json",
         [("curvature", {}), ("holonomy", {"around_vertex": 6}),
          ("holonomy", {"around_vertex": 0})]),
        # The loop runs once around the torus through the first row of cells.
        ("torus5x4", abstract(torus_grid(5, 4)), "torus5x4.json",
         [("curvature", {}), ("holonomy", {"around_vertex": 7}),
          ("holonomy", {"loop": [0, 3, 2, 5, 4, 7, 6, 9, 8, 1, 0]})]),
        ("sphere2", embedded, "sphere2.off",
         [("curvature", {}), ("holonomy", {"latitude": {"colatitude_deg": 50.0}}),
          ("holonomy", {"loop": SPHERE2_LOOP})]),
    ]


def canonical(text: str):
    """The parsed JSON of a report or a dconn-complex file, whose text must be what
    json.dumps(..., sort_keys=True, indent=2) writes, plus a newline."""
    parsed = json.loads(text)
    assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    return parsed


def reports(directory: Path, capsys) -> dict:
    """Run every case's CLI commands; {label: {"exit": code, "report": parsed}}."""
    out = {}
    for name, write, filename, commands in _cases():
        mesh = directory / filename
        write(mesh)
        if filename.endswith(".json"):
            canonical(mesh.read_text())
        for i, (command, extra) in enumerate(commands):
            cfg = directory / f"{name}-{i}.json"
            cfg.write_text(json.dumps({"mesh": str(mesh), **extra}))
            code = main([command, "--config", str(cfg)])
            text = capsys.readouterr().out
            report = canonical(text) if text else None
            if report is not None:
                report["mesh"] = filename
            out[f"{name}/{command}/{i}"] = {"exit": code, "report": report}
    return out


def fiber_reports(directory: Path, capsys) -> dict:
    """decompose at the default pair, 4-direction order sweeps and 10-step DEL runs.

    {label: {"exit": code, "report": parsed}}; a DEL report holds the final
    point and the largest drift of the discrete momentum from its first value.
    """
    configs = {f"decompose/{family}/{group}": ("decompose", {
        "connection": family, "group": group, "shape_dim": dim})
        for family, group, dim in DECOMPOSE_FAMILIES}
    configs.update({f"order/{cand}/{ref}": ("order", {
        "candidate": cand, "reference": ref, "directions": 4}) for cand, ref in ORDER_PAIRS})
    out = {}
    for i, (label, (command, data)) in enumerate(configs.items()):
        cfg = directory / f"fiber-{i}.json"
        cfg.write_text(json.dumps(data))
        code = main([command, "--config", str(cfg)])
        text = capsys.readouterr().out
        out[label] = {"exit": code, "report": canonical(text) if text else None}
    for fixture in DEL_FIXTURES:
        L = LAGRANGIAN_FIXTURES[fixture]()
        start = default_pair(L.bundle)
        path = del_trajectory(L, start.first, start.second, DEL_STEPS)
        momenta = [discrete_momentum(L, PairElement(u, v)).covector
                   for u, v in zip(path, path[1:])]
        out[f"del/{fixture}"] = {"exit": 0, "report": {
            "final": {"shape": path[-1].shape.coords.tolist(),
                      "fiber": path[-1].fiber.matrix.tolist()},
            "momentum_drift": max(float(np.max(np.abs(m - momenta[0]))) for m in momenta),
        }}
    return out


def _circle_gap(a: float, b: float) -> float:
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _assert_close(new, old, where: str) -> None:
    if isinstance(old, dict):
        assert isinstance(new, dict) and set(new) == set(old), where
        for key in old:
            if key == "per_vertex":
                _assert_per_vertex(new[key], old[key], where)
            elif key == "angle":
                assert _circle_gap(new[key], old[key]) <= TOL, where
            else:
                _assert_close(new[key], old[key], f"{where}.{key}")
    elif isinstance(old, list):
        assert isinstance(new, list) and len(new) == len(old), where
        for i, (n, o) in enumerate(zip(new, old)):
            _assert_close(n, o, f"{where}[{i}]")
    elif isinstance(old, float):
        assert abs(new - old) <= TOL, f"{where}: {new!r} vs {old!r}"
    else:
        assert new == old, where


def _assert_per_vertex(new, old, where: str) -> None:
    new_map, old_map = dict(map(tuple, new)), dict(map(tuple, old))
    assert len(new_map) == len(new) and set(new_map) == set(old_map), where
    for v, norm in old_map.items():
        assert abs(new_map[v] - norm) <= TOL, f"{where}.per_vertex[{v}]"
    assert [v for v, _ in new] == sorted(new_map, key=lambda v: (-new_map[v], v)), where


def _assert_matches_recorded(current: dict, recorded_file: Path) -> None:
    recorded = json.loads(recorded_file.read_text())
    assert set(current) == set(recorded)
    for label, old in recorded.items():
        new = current[label]
        assert new["exit"] == old["exit"], label
        _assert_close(new["report"], old["report"], label)


def test_reports_match_the_recorded_ones(tmp_path, capsys):
    _assert_matches_recorded(reports(tmp_path, capsys), RECORDED)


def test_fiber_reports_match_the_recorded_ones(tmp_path, capsys):
    _assert_matches_recorded(fiber_reports(tmp_path, capsys), FIBER_RECORDED)
