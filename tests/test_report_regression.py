"""CLI curvature and holonomy reports against reports recorded earlier.

``report_regression.json`` holds the parsed reports of a fixed set of
meshes, recorded before transport and curvature became sums of edge
angles.  The comparison is insensitive to roundoff: ``per_vertex`` is read
as a vertex -> norm map, angles are compared on the circle, and every
number must agree within 1e-12.
"""

import json
import math
from pathlib import Path

from dconn.cli import main
from dconn.meshes import cone, flat_grid, icosphere, torus_grid, write_complex_json, write_off

RECORDED = Path(__file__).resolve().parent / "report_regression.json"
TOL = 1.0e-12


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
         [("curvature", {}), ("holonomy", {"around_vertex": 0})]),
        # Apex defect pi: the curvature norm sits on the SO(2) cut locus.
        ("cone3", abstract(cone(3)), "cone3.json", [("curvature", {})]),
        ("grid4x3", abstract(flat_grid(4, 3)), "grid4x3.json",
         [("curvature", {}), ("holonomy", {"around_vertex": 6}),
          ("holonomy", {"around_vertex": 0})]),
        ("torus5x4", abstract(torus_grid(5, 4)), "torus5x4.json",
         [("curvature", {}), ("holonomy", {"around_vertex": 7})]),
        ("sphere2", embedded, "sphere2.off",
         [("curvature", {}), ("holonomy", {"latitude": {"colatitude_deg": 50.0}})]),
    ]


def reports(directory: Path, capsys) -> dict:
    """Run every case's CLI commands; {label: {"exit": code, "report": parsed}}."""
    out = {}
    for name, write, filename, commands in _cases():
        mesh = directory / filename
        write(mesh)
        for i, (command, extra) in enumerate(commands):
            cfg = directory / f"{name}-{i}.json"
            cfg.write_text(json.dumps({"mesh": str(mesh), **extra}))
            code = main([command, "--config", str(cfg)])
            text = capsys.readouterr().out
            report = json.loads(text) if text else None
            if report is not None:
                report["mesh"] = filename
            out[f"{name}/{command}/{i}"] = {"exit": code, "report": report}
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


def test_reports_match_the_recorded_ones(tmp_path, capsys):
    recorded = json.loads(RECORDED.read_text())
    current = reports(tmp_path, capsys)
    assert set(current) == set(recorded)
    for label, old in recorded.items():
        new = current[label]
        assert new["exit"] == old["exit"], label
        _assert_close(new["report"], old["report"], label)
