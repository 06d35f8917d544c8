"""Command-line front end: decomposition, order estimation, curvature, holonomy.

Every command reads a JSON config (--config) and emits a JSON report on
stdout or to --out.  Reports are deterministic: keys sorted, two-space
indent, a trailing newline, no timestamps or machine fields.  Exit codes:
0 success, 2 domain or validation failure, 3 unreadable input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import levi_civita as lc
from . import lie_group as lg
from . import meshes
from .bundle import BundlePoint, PairElement, act
from .connection import (
    DiscreteConnection,
    eval_form,
    horizontal_from_form,
    vertical_from_form,
)
from .errors import DconnError, DegenerateFitError
from .limits import estimate_order, unit_directions
from .presets import default_base_point, default_pair, resolve_connection

_EXIT_OK = 0
_EXIT_DOMAIN = 2
_EXIT_PARSE = 3

# Caps on the config fields that size what a command builds, checked before
# anything of that size is allocated.  The fixtures have at most 2 shape
# coordinates; the benchmark sweeps 32 directions over 7 step sizes.  A group
# tag Tn is capped by lie_group.MAX_TRANSLATION_DIM.
MAX_SHAPE_DIM = 1000
MAX_DIRECTIONS = 4096
MAX_H_COUNT = 256


def _plain(x):
    # json writes np.float64 (a float subclass) itself; arrays, np.bool_ and
    # np.integer become Python lists, bools and ints.
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _dump_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, default=_plain) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise DconnError("config root must be a JSON object")
    return data


def _integer(value, name: str) -> int:
    """A config value that must be a JSON integer; floats are not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DconnError(f"config field {name!r} must be an integer, got {value!r}")
    return value


def _bounded(value, name: str, cap: int) -> int:
    """A config value that must be a JSON integer no larger than cap."""
    n = _integer(value, name)
    if n > cap:
        raise DconnError(f"config field {name!r} must be at most {cap}, got {n}")
    return n


def _is_number(x) -> bool:
    # JSON numbers decode to exactly int or float; bool is an int subclass.
    return type(x) in (int, float)


def _number(value, name: str) -> float:
    """A config value that must be a JSON number; strings and booleans are refused."""
    if not _is_number(value):
        raise DconnError(f"config field {name!r} must be a number, got {value!r}")
    return float(value)


def _numbers(value, name: str) -> np.ndarray:
    """A config number or nested list whose entries must all be JSON numbers."""
    stack = [value]
    while stack:
        x = stack.pop()
        if isinstance(x, list):
            stack.extend(x)
        elif not _is_number(x):
            raise DconnError(f"config field {name!r} must hold numbers, got {x!r}")
    return np.asarray(value, dtype=float)


def _build_connection(cfg: dict, key: str = "connection") -> DiscreteConnection:
    family = cfg.get(key)
    if not isinstance(family, str):
        raise DconnError(f"config field {key!r} must name a connection family")
    shape_dim = _bounded(cfg.get("shape_dim", 2), "shape_dim", MAX_SHAPE_DIM)
    group = cfg.get("group", "SO3")
    try:
        lg.group_by_name(group)
    except ValueError as exc:
        raise DconnError(f"config field 'group' {exc}") from exc
    return resolve_connection(family, group, shape_dim)


def _parse_point(conn: DiscreteConnection, data: dict, name: str) -> BundlePoint:
    try:
        coords = _numbers(data["shape"], f"{name}.shape")
        fiber = _numbers(data["fiber"], f"{name}.fiber")
        conn.bundle.group.check_matrix(fiber)
    except (KeyError, TypeError, ValueError) as exc:
        raise DconnError(f"bad bundle point in config: {exc}") from exc
    return conn.bundle.point(coords, lg.element(conn.bundle.group, fiber))


def _parse_pair(conn: DiscreteConnection, cfg: dict) -> PairElement:
    data = cfg.get("pair")
    if data is None:
        return default_pair(conn.bundle)
    return PairElement(
        _parse_point(conn, data["first"], "pair.first"),
        _parse_point(conn, data["second"], "pair.second"),
    )


def _point_report(q: BundlePoint) -> dict:
    return {"shape": q.shape.coords, "fiber": q.fiber.matrix}


def cmd_decompose(cfg: dict) -> dict:
    conn = _build_connection(cfg)
    pair = _parse_pair(conn, cfg)
    w = eval_form(conn, pair)
    hor = horizontal_from_form(pair, w)
    ver = vertical_from_form(pair, w)
    recon = act(w, hor.second)
    residual = max(
        float(np.max(np.abs(recon.fiber.matrix - pair.second.fiber.matrix))),
        float(np.max(np.abs(recon.shape.coords - pair.second.shape.coords), initial=0.0)),
    )
    return {
        "command": "decompose",
        "connection": cfg["connection"],
        "connection_value": w.matrix,
        "horizontal": {"first": _point_report(hor.first), "second": _point_report(hor.second)},
        "vertical": {"first": _point_report(ver.first), "second": _point_report(ver.second)},
        "reconstruction_residual": residual,
    }


def cmd_order(cfg: dict) -> dict:
    candidate = _build_connection(cfg, "candidate")
    reference = _build_connection(cfg, "reference")
    sweep = cfg.get("h_sweep", {})
    if not isinstance(sweep, dict):
        raise DconnError("config field 'h_sweep' must be an object")
    start = _number(sweep.get("start", 1.0e-1), "h_sweep.start")
    stop = _number(sweep.get("stop", 1.0e-3), "h_sweep.stop")
    count = _bounded(sweep.get("count", 7), "h_sweep.count", MAX_H_COUNT)
    n_directions = _bounded(cfg.get("directions", 32), "directions", MAX_DIRECTIONS)
    seed = _integer(cfg.get("seed", 7), "seed")
    # np.geomspace warns on non-finite ends and refuses a zero one.
    if not all(0.0 < h < math.inf for h in (start, stop)):
        raise ValueError("h_list must be finite, positive and strictly decreasing")
    h_list = [float(h) for h in np.geomspace(start, stop, count)]
    if "base_point" in cfg:
        q = _parse_point(reference, cfg["base_point"], "base_point")
    else:
        q = default_base_point(reference.bundle)
    directions = unit_directions(reference.bundle, n_directions, seed)
    report = {
        "command": "order",
        "candidate": cfg["candidate"],
        "reference": cfg["reference"],
        "step_sizes": h_list,
    }
    try:
        est = estimate_order(candidate, reference, q, directions, h_list)
    except DegenerateFitError as exc:
        report.update({"order": None, "exact_match": False, "warning": str(exc)})
        return report
    report.update(
        {
            "order": None if est.exact_match else est.order,
            "slope": None if est.exact_match else est.slope,
            "exact_match": est.exact_match,
            "max_errors": list(est.max_errors),
            "per_direction_errors": [list(row) for row in est.errors],
        }
    )
    return report


def _load_mesh(cfg: dict) -> lc.MetricComplex:
    path = cfg.get("mesh")
    if not isinstance(path, str):
        raise DconnError("config field 'mesh' must be a file path")
    return meshes.read_mesh(path)


def cmd_curvature(cfg: dict) -> dict:
    K = _load_mesh(cfg)
    A = lc.connection_form(K)
    report = lc.quality_report(K, A)
    total = lc.total_defect(K)
    chi = K.euler_characteristic()
    closed = K.is_closed()
    return {
        "command": "curvature",
        "mesh": cfg["mesh"],
        "per_vertex": [[v, norm] for v, norm in report.items()],
        "total_curvature": total,
        "euler_characteristic": chi,
        "two_pi_chi": 2.0 * math.pi * chi,
        "gauss_bonnet_residual": (total - 2.0 * math.pi * chi) if closed else None,
        "is_closed": closed,
    }


def _angle_of(m: np.ndarray) -> float:
    return math.atan2(m[1, 0], m[0, 0])


def _mod_2pi_distance(a: float, b: float) -> float:
    return abs(float(np.angle(np.exp(1j * (a - b)))))


def cmd_holonomy(cfg: dict) -> dict:
    K = _load_mesh(cfg)
    A = lc.connection_form(K)
    enclosed_curvature = None
    if "loop" in cfg:
        loop = [_integer(t, "loop") for t in cfg["loop"]]
        h = lc.holonomy(K, A, loop)
        loop_length = len(loop) - 1
        loop_source = "explicit"
    elif "around_vertex" in cfg:
        v = _integer(cfg["around_vertex"], "around_vertex")
        h = lc.curvature(K, A, v)
        loop_length = int(K.star_ptr[v + 1] - K.star_ptr[v])
        enclosed_curvature = lc.angle_defect(K, v)
        loop_source = "around_vertex"
    elif "latitude" in cfg:
        colat = math.radians(_number(cfg["latitude"]["colatitude_deg"],
                                     "latitude.colatitude_deg"))
        loop, enclosed = meshes.latitude_loop(K, colat)
        h = lc.holonomy(K, A, loop)
        loop_length = len(loop) - 1
        enclosed_curvature = float(
            sum(lc.angle_defect(K, v) for v in enclosed)
        )
        loop_source = "latitude"
    else:
        raise DconnError("holonomy config needs 'loop', 'around_vertex', or 'latitude'")
    angle = _angle_of(h.matrix)
    report = {
        "command": "holonomy",
        "mesh": cfg["mesh"],
        "loop_source": loop_source,
        "loop_length": loop_length,
        "holonomy_matrix": h.matrix,
        "angle": angle,
        "enclosed_curvature": enclosed_curvature,
    }
    if enclosed_curvature is not None:
        report["difference_mod_2pi"] = _mod_2pi_distance(angle, enclosed_curvature)
    return report


_DISPATCH = {
    "decompose": cmd_decompose,
    "order": cmd_order,
    "curvature": cmd_curvature,
    "holonomy": cmd_holonomy,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dconn",
        description="Discrete connection reports: decomposition, order, curvature, holonomy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _DISPATCH.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="write the report here instead of stdout")
    return parser


# Built once per process: construction costs more than parsing one command line.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        report = _DISPATCH[args.command](cfg)
        _dump_report(report, args.out)
    except json.JSONDecodeError as exc:
        print(f"dconn: cannot parse input: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except OSError as exc:
        print(f"dconn: cannot read or write: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except DconnError as exc:
        print(f"dconn: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        print(f"dconn: invalid config: {exc!r}", file=sys.stderr)
        return _EXIT_DOMAIN
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
