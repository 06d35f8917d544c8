"""Command-line front end: decomposition, order estimation, curvature, holonomy.

The command line is ``dconn COMMAND --config PATH [--out PATH]``: the two
options in either order, each as ``--name VALUE`` or ``--name=VALUE``, and
neither given twice nor abbreviated; a VALUE that begins with ``-`` takes the
``=`` form.  ``-h`` or ``--help`` prints the usage.  ``main`` reads it with
one pass over the arguments and returns, rather than raises, its exit code.

Every command reads a JSON config (--config) and emits a JSON report on
stdout or to --out, the same bytes either way.  Reports are deterministic:
``canonical.json_bytes`` writes them as json.dumps(report, sort_keys=True,
indent=2) plus a newline, with no timestamps or machine fields.  Config and
mesh files are read as bytes and decoded as UTF-8, so a byte order mark or a
UTF-16 file is refused; ``canonical.write_file`` creates or truncates --out.
Meshes are read through ``meshes.read_mesh``, so in-process commands run
one after another on the same mesh file (same suffix, same text) share its
build.
Exit codes: 0 success or help; 2 a command line outside the grammar (the
usage and the reason on stderr), or a domain or validation failure, a mesh
file that is not UTF-8 or not valid JSON included; 3 a config that is not
UTF-8 JSON, or a file that cannot be opened, read or written.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain

import numpy as np

from . import canonical
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
from .limits import _validate_h_list, estimate_order, unit_directions
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


def _dump_report(report: dict, out_path: str | None) -> None:
    data = canonical.json_bytes(report)
    if out_path:
        canonical.write_file(out_path, data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)


def _load_config(path: str) -> dict:
    data = json.loads(canonical.read_text(path))
    if not isinstance(data, dict):
        raise DconnError("config root must be a JSON object")
    return data


def _integer(value, name: str) -> int:
    """A config value that must be a non-negative JSON integer; floats are not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DconnError(f"config field {name!r} must be an integer, got {value!r}")
    if value < 0:
        raise DconnError(f"config field {name!r} must be at least 0, got {value}")
    return value


def _bounded(value, name: str, cap: int) -> int:
    """A config value that must be a JSON integer from 0 to cap."""
    n = _integer(value, name)
    if n > cap:
        raise DconnError(f"config field {name!r} must be at most {cap}, got {n}")
    return n


def _object(value, name: str) -> dict:
    """A config value that must be a JSON object."""
    if not isinstance(value, dict):
        raise DconnError(f"config field {name!r} must be an object, got {value!r}")
    return value


# JSON numbers decode to exactly int or float; bool is an int subclass.
_NUMBER_TYPES = frozenset((int, float))


def _number(value, name: str) -> float:
    """A config value that must be a JSON number; strings and booleans are refused."""
    if type(value) not in _NUMBER_TYPES:
        raise DconnError(f"config field {name!r} must be a number, got {value!r}")
    return float(value)


def _numbers(value, name: str) -> np.ndarray:
    """A config number or nested list whose entries must all be JSON numbers.

    The entries are flattened one nesting level at a time, in order, and each
    level's types are read by one C-level pass, so Python runs once per row,
    not once per number.  A refusal names the last entry that is not a number.
    """
    flat = [value]
    while not (kinds := set(map(type, flat))) <= _NUMBER_TYPES:
        if list not in kinds:
            bad = next(x for x in reversed(flat) if type(x) not in _NUMBER_TYPES)
            raise DconnError(f"config field {name!r} must hold numbers, got {bad!r}")
        flat = list(chain.from_iterable(x if type(x) is list else (x,) for x in flat))
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


def _parse_point(conn: DiscreteConnection, data, name: str) -> BundlePoint:
    data = _object(data, name)
    try:
        coords = _numbers(data.get("shape"), f"{name}.shape")
        if not np.isfinite(coords).all():
            raise ValueError("shape coordinates are not finite")
        fiber = _numbers(data.get("fiber"), f"{name}.fiber")
        conn.bundle.group.check_matrix(fiber)
    except (TypeError, ValueError) as exc:
        raise DconnError(f"bad bundle point in config field {name!r}: {exc}") from exc
    if coords.size != conn.bundle.shape_dim:
        raise DconnError(f"config field '{name}.shape' must hold {conn.bundle.shape_dim} "
                         f"numbers, got {coords.size}")
    return conn.bundle.point(coords, lg.element(conn.bundle.group, fiber))


def _parse_pair(conn: DiscreteConnection, cfg: dict) -> PairElement:
    data = cfg.get("pair")
    if data is None:
        return default_pair(conn.bundle)
    data = _object(data, "pair")
    return PairElement(
        _parse_point(conn, data.get("first"), "pair.first"),
        _parse_point(conn, data.get("second"), "pair.second"),
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
    sweep = _object(cfg.get("h_sweep", {}), "h_sweep")
    start = _number(sweep.get("start", 1.0e-1), "h_sweep.start")
    stop = _number(sweep.get("stop", 1.0e-3), "h_sweep.stop")
    count = _bounded(sweep.get("count", 7), "h_sweep.count", MAX_H_COUNT)
    n_directions = _bounded(cfg.get("directions", 32), "directions", MAX_DIRECTIONS)
    seed = _integer(cfg.get("seed", 7), "seed")
    _validate_h_list((start, stop))  # np.geomspace warns on non-finite ends, refuses a zero one
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
        loop = cfg["loop"]
        if not isinstance(loop, list):
            raise DconnError(f"config field 'loop' must be a list of triangles, got {loop!r}")
        loop = [_integer(t, "loop") for t in loop]
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
        latitude = _object(cfg["latitude"], "latitude")
        colat = math.radians(_number(latitude.get("colatitude_deg"), "latitude.colatitude_deg"))
        loop, enclosed = meshes.latitude_loop(K, colat)
        h = lc.holonomy(K, A, loop)
        loop_length = len(loop) - 1
        enclosed_curvature = sum(K.angle_defects[enclosed].tolist())
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


_USAGE = f"usage: dconn {{{','.join(_DISPATCH)}}} --config PATH [--out PATH]"
_HELP = f"""{_USAGE}

Discrete connection reports: decomposition, order, curvature, holonomy.

  --config PATH  JSON config path
  --out PATH     write the report here instead of stdout
"""
_OPTIONS = ("--config", "--out")


class _UsageError(Exception):
    """A command line outside ``dconn COMMAND --config PATH [--out PATH]``."""


def _read_command_line(argv: list[str]) -> tuple[str, dict[str, str]]:
    """The command and its options, by name, from one pass over argv."""
    if not argv:
        raise _UsageError("missing command")
    command, *rest = argv
    if command not in _DISPATCH:
        raise _UsageError(f"unknown command {command!r}")
    options = {}
    tokens = iter(rest)
    for token in tokens:
        name, eq, value = token.partition("=")
        if name not in _OPTIONS:
            raise _UsageError(f"unrecognized argument {token!r}")
        if name in options:
            raise _UsageError(f"{name} given twice")
        if not eq:
            value = next(tokens, "-")
            if value.startswith("-"):
                raise _UsageError(f"{name} needs a value")
        options[name] = value
    if "--config" not in options:
        raise _UsageError("missing --config")
    return command, options


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "-h" in argv or "--help" in argv:
        print(_HELP, end="")
        return _EXIT_OK
    try:
        command, options = _read_command_line(argv)
    except _UsageError as exc:
        print(f"{_USAGE}\ndconn: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    try:
        cfg = _load_config(options["--config"])
        report = _DISPATCH[command](cfg)
        _dump_report(report, options.get("--out"))
    # json.loads recurses once per nesting level, so a deep enough config exhausts the stack.
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
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
