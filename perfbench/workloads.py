"""Seeded inputs, operations and output checks for the two workloads.

Every input is generated here from the seed, by the benchmark's own code,
and reaches the program only as files (CLI configs and meshes) or, for the
discrete Euler-Lagrange trajectories, as initial configurations.  A pass is
one fixed batch of operations; pass ``p`` of seed ``s`` always produces the
same bytes, and every pass draws fresh inputs so that no report repeats an
earlier one.

Why each workload:

* ``small-complexes``: cones (k = 3..12), flat grids and flat tori written as
  ``dconn-complex`` JSON, each with a ``curvature`` and an ``around_vertex``
  ``holonomy`` report, plus one level-2 icosphere written as OFF with a
  ``curvature`` and a latitude ``holonomy`` report.  The simplicial layer
  (``levi_civita``, ``meshes``) does nearly all the work, so a fiber-side
  change must read "no change" here.  Construction, validation and star
  walks dominate.  Grid and torus sides are drawn per pass around fixed cell
  counts, so the shapes vary while the work per pass does not.  Cones with
  k = 3 and k = 9 have an apex defect of +-pi, on the cut locus of the SO(2)
  logarithm: their ``curvature`` report exits 2, and the benchmark counts
  that as a known failure.
* ``fiber-reports``: no mesh.  ``decompose`` on six connection families,
  ``order`` sweeps on four candidate/reference pairs and two
  discrete Euler-Lagrange trajectories.  ``lie_group``, ``bundle``,
  ``connection``, ``limits`` and ``mechanical`` do all the work.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("small-complexes", "fiber-reports")

SPHERE_LEVEL = 2
COLATITUDE_DEG = (30.0, 150.0)
CONE_KS = tuple(range(3, 13))
# Cones whose apex defect is +-pi: the curvature norm sits on the cut locus.
CUT_LOCUS_CONES = (3, 9)
# Target cell counts of the grids and tori of one pass (sides stay in 3..24).
CELL_TARGETS = (12, 48, 108, 192, 300)
SHAPE_OFFSET_MAX = 0.3
DEL_STEPS = 10
ORDER_DIRECTIONS = 32
ORDER_SWEEP = {"start": 1.0e-1, "stop": 1.0e-3, "count": 7}

DECOMPOSE_FAMILIES = (
    ("trivial", "SO3", 2),
    ("exponentiated:so3_mechanical", "SO3", 2),
    ("cayley:se3_mechanical", "SE3", 2),
    ("mechanical:so3_pure", "SO3", 0),
    ("mechanical:so3_coupled", "SO3", 2),
    ("mechanical:se3_coupled", "SE3", 2),
)
ORDER_PAIRS = (
    ("cayley:so3_mechanical", "exponentiated:so3_mechanical", 2.0),
    ("cayley:se3_mechanical", "exponentiated:se3_mechanical", 2.0),
    ("forward_difference:se3_mechanical", "exponentiated:se3_mechanical", 1.0),
    # Cayley and exponentiated discretizations agree exactly on an abelian fiber.
    ("cayley:abelian", "exponentiated:abelian", None),
)
DEL_FIXTURES = (("so3_coupled", "SO3"), ("se3_coupled", "SE3"))

TOL_CURVATURE = 1.0e-9
TOL_HOLONOMY = 1.0e-9
TOL_DECOMPOSE = 1.0e-10
TOL_ORDER = 0.2
TOL_MOMENTUM = 1.0e-9


@dataclass
class Op:
    """One operation of a pass: a CLI report or a DEL trajectory."""

    kind: str  # curvature | holonomy | decompose | order | del
    label: str
    config: Path | None = None  # CLI config file
    expect: dict = field(default_factory=dict)  # what the check needs
    trajectory: dict | None = None  # DEL fixture, group and initial pair
    key: str = ""  # digest of every input byte, used to match golden reports
    known_failure: str | None = None  # stderr fragment of an expected exit 2


def rng_for(seed: int, pass_index: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index, stream])


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


# -- meshes -----------------------------------------------------------------


def icosphere(level: int) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Subdivided unit icosahedron with outward-oriented faces."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        np.array(v, dtype=float) / math.sqrt(1.0 + phi * phi)
        for v in (
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        )
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(level):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(i: int, j: int) -> int:
            key = _edge(i, j)
            if key not in midpoint:
                p = verts[i] + verts[j]
                verts.append(p / np.linalg.norm(p))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    v = np.array(verts)
    oriented = []
    for a, b, c in faces:
        if np.dot(np.cross(v[b] - v[a], v[c] - v[a]), v[a] + v[b] + v[c]) < 0.0:
            b, c = c, b
        oriented.append((a, b, c))
    return v, oriented


def off_text(verts: np.ndarray, faces) -> str:
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [" ".join(repr(float(x)) for x in row) for row in verts]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces]
    return "\n".join(lines) + "\n"


def complex_text(vertex_count: int, triangles, lengths: dict) -> str:
    return canonical_json({
        "format": "dconn-complex",
        "vertices": vertex_count,
        "triangles": [list(t) for t in triangles],
        "edge_lengths": [[a, b, float(l)] for (a, b), l in sorted(lengths.items())],
    })


def cone(k: int, scale: float):
    """k equilateral triangles around apex 0; the apex defect is 2 pi - k pi / 3."""
    tris = [(0, i, i % k + 1) for i in range(1, k + 1)]
    lengths = {}
    for i in range(1, k + 1):
        lengths[_edge(0, i)] = scale
        lengths[_edge(i, i % k + 1)] = scale
    return k + 1, tris, lengths


def _square_cells(n: int, m: int, vid, scale: float):
    tris, lengths = [], {}
    for j in range(m):
        for i in range(n):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris += [(a, b, c), (a, c, d)]
            for e in ((a, b), (b, c), (c, d), (d, a)):
                lengths[_edge(*e)] = scale
            lengths[_edge(a, c)] = scale * math.sqrt(2.0)
    return tris, lengths


def flat_grid(n: int, m: int, scale: float):
    tris, lengths = _square_cells(n, m, lambda i, j: i + (n + 1) * j, scale)
    return (n + 1) * (m + 1), tris, lengths


def flat_torus(n: int, m: int, scale: float):
    tris, lengths = _square_cells(n, m, lambda i, j: (i % n) + n * (j % m), scale)
    return n * m, tris, lengths


def _sides(rng: np.random.Generator, cells: int) -> tuple[int, int]:
    lo, hi = max(3, math.ceil(cells / 24)), min(24, cells // 3)
    n = int(rng.integers(lo, hi + 1))
    return n, max(3, min(24, round(cells / n)))


# -- Lie group samples (independent of the program) ---------------------------


def _hat(w) -> np.ndarray:
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def rotation(w) -> np.ndarray:
    """Rodrigues' formula."""
    theta = float(np.linalg.norm(w))
    k = _hat(w)
    if theta < 1.0e-12:
        return np.eye(3) + k
    return (np.eye(3) + (math.sin(theta) / theta) * k
            + ((1.0 - math.cos(theta)) / theta**2) * (k @ k))


def group_sample(group: str, rng: np.random.Generator, scale: float) -> np.ndarray:
    r = rotation(scale * rng.standard_normal(3))
    if group == "SO3":
        return r
    m = np.eye(4)
    m[:3, :3] = r
    m[:3, 3] = scale * rng.standard_normal(3)
    return m


def _point(shape, fiber) -> dict:
    return {"shape": [float(x) for x in shape], "fiber": np.asarray(fiber).tolist()}


# -- passes -------------------------------------------------------------------


class Workload:
    """Writes the inputs of one pass into a directory and lists its operations."""

    kinds: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def make_pass(self, pass_index: int, directory: Path) -> list[Op]:
        raise NotImplementedError

    def warmup(self, directory: Path) -> list[Op]:
        """Small seed-independent operations, one per kind, run before timing."""
        raise NotImplementedError

    # helpers shared by the workloads
    @staticmethod
    def _write(path: Path, text: str) -> bytes:
        data = text.encode()
        path.write_bytes(data)
        return data

    def _cli_op(self, kind: str, label: str, directory: Path, config: dict,
                expect: dict, mesh_bytes: bytes = b"", known_failure=None) -> Op:
        path = directory / f"{label}.{kind}.json"
        cfg_bytes = self._write(path, canonical_json(config))
        return Op(kind, label, config=path, expect=expect,
                  key=_digest(kind.encode(), cfg_bytes, mesh_bytes),
                  known_failure=known_failure)


class SmallComplexes(Workload):
    kinds = ("curvature", "holonomy")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sphere = icosphere(SPHERE_LEVEL)

    def _sphere_ops(self, directory: Path, label: str, verts: np.ndarray, faces,
                    colatitude: float) -> list[Op]:
        mesh = directory / f"{label}.off"
        mesh_bytes = self._write(mesh, off_text(verts, faces))
        return [
            self._cli_op("curvature", label, directory, {"mesh": str(mesh)},
                         {"closed": True, "vertices": len(verts)}, mesh_bytes),
            self._cli_op("holonomy", label, directory,
                         {"mesh": str(mesh), "latitude": {"colatitude_deg": colatitude}},
                         {"loop_source": "latitude"}, mesh_bytes),
        ]

    def _complex_ops(self, directory: Path, label: str, built, apex_k: int | None,
                     vertex: int, flat: bool, closed: bool) -> list[Op]:
        mesh = directory / f"{label}.mesh.json"
        mesh_bytes = self._write(mesh, complex_text(*built))
        expect = {"closed": closed, "flat": flat}
        known = None
        if apex_k is not None:
            expect["apex_k"] = apex_k
            if apex_k in CUT_LOCUS_CONES:
                known = "of pi"
        return [
            self._cli_op("curvature", label, directory, {"mesh": str(mesh)}, expect,
                         mesh_bytes, known_failure=known),
            self._cli_op("holonomy", label, directory,
                         {"mesh": str(mesh), "around_vertex": vertex},
                         {"loop_source": "around_vertex"}, mesh_bytes),
        ]

    def make_pass(self, pass_index: int, directory: Path) -> list[Op]:
        rng = rng_for(self.seed, pass_index)
        ops = []
        for k in CONE_KS:
            ops += self._complex_ops(directory, f"cone{k}", cone(k, rng.uniform(0.5, 2.0)),
                                     k, 0, flat=False, closed=False)
        for cells in CELL_TARGETS:
            n, m = _sides(rng, cells)
            # Interior vertices of an n x m grid have both indices in 1..n-1, 1..m-1.
            v = int(rng.integers(1, n)) + (n + 1) * int(rng.integers(1, m))
            ops += self._complex_ops(directory, f"grid{n}x{m}",
                                     flat_grid(n, m, rng.uniform(0.5, 2.0)), None, v,
                                     flat=True, closed=False)
        for cells in CELL_TARGETS:
            n, m = _sides(rng, cells)
            ops += self._complex_ops(directory, f"torus{n}x{m}",
                                     flat_torus(n, m, rng.uniform(0.5, 2.0)), None,
                                     int(rng.integers(0, n * m)), flat=True, closed=True)
        # Turning the sphere about z keeps its latitudes, loops and work.
        turn = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(turn), math.sin(turn)
        verts, faces = self.sphere
        verts = verts @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        return ops + self._sphere_ops(directory, "sphere", verts, faces,
                                      float(rng.uniform(*COLATITUDE_DEG)))

    def warmup(self, directory: Path) -> list[Op]:
        return (self._complex_ops(directory, "warm-cone5", cone(5, 1.0), 5, 0,
                                  flat=False, closed=False)
                + self._sphere_ops(directory, "warm-sphere", *icosphere(1), 60.0))


class FiberReports(Workload):
    kinds = ("decompose", "order", "del")

    def _decompose(self, directory: Path, label: str, family: str, group: str,
                   shape_dim: int, rng: np.random.Generator | None) -> Op:
        config = {"connection": family, "group": group, "shape_dim": shape_dim}
        if rng is not None:
            x0 = 0.1 * rng.standard_normal(shape_dim)
            offset = rng.standard_normal(shape_dim)
            if shape_dim:
                offset *= rng.uniform(0.05, SHAPE_OFFSET_MAX) / np.linalg.norm(offset)
            config["pair"] = {
                "first": _point(x0, group_sample(group, rng, 0.3)),
                "second": _point(x0 + offset, group_sample(group, rng, 0.3)),
            }
        return self._cli_op("decompose", label, directory, config, {})

    def _order(self, directory: Path, label: str, candidate: str, reference: str,
               order: float | None, seed: int, directions: int) -> Op:
        config = {"candidate": candidate, "reference": reference, "directions": directions,
                  "seed": seed, "h_sweep": ORDER_SWEEP}
        return self._cli_op("order", label, directory, config, {"order": order})

    @staticmethod
    def _trajectory(label: str, fixture: str, group: str, rng: np.random.Generator,
                    steps: int) -> Op:
        x0 = rng.uniform(-0.1, 0.1, 2)
        g0 = group_sample(group, rng, 0.3)
        x1 = x0 + rng.uniform(-0.05, 0.05, 2)
        g1 = g0 @ group_sample(group, rng, 0.03)
        spec = {"fixture": fixture, "steps": steps,
                "first": _point(x0, g0), "second": _point(x1, g1)}
        return Op("del", label, trajectory=spec, key=_digest(b"del", canonical_json(spec).encode()))

    def make_pass(self, pass_index: int, directory: Path) -> list[Op]:
        rng = rng_for(self.seed, pass_index)
        ops = [self._decompose(directory, f"decompose{i}", family, group, dim, rng)
               for i, (family, group, dim) in enumerate(DECOMPOSE_FAMILIES)]
        ops += [self._order(directory, f"order{i}", cand, ref, order,
                            int(rng.integers(0, 2**31)), ORDER_DIRECTIONS)
                for i, (cand, ref, order) in enumerate(ORDER_PAIRS)]
        ops += [self._trajectory(f"del-{fixture}", fixture, group, rng, DEL_STEPS)
                for fixture, group in DEL_FIXTURES]
        return ops

    def warmup(self, directory: Path) -> list[Op]:
        return [
            self._decompose(directory, "warm", "mechanical:so3_coupled", "SO3", 2, None),
            self._order(directory, "warm", *ORDER_PAIRS[0], seed=7, directions=8),
            self._trajectory("warm-del", "so3_coupled", "SO3", rng_for(0, 0, 1), 3),
        ]


def make_workload(name: str, seed: int) -> Workload:
    cls = {"small-complexes": SmallComplexes, "fiber-reports": FiberReports}[name]
    return cls(seed)


# -- output checks ----------------------------------------------------------------


def _wrapped_angle(x: float) -> float:
    return math.atan2(math.sin(x), math.cos(x))


def check(op: Op, report: dict) -> str | None:
    """None when the report is right, else what is wrong with it."""
    if report.get("command", op.kind) != op.kind:
        return f"report of command {report.get('command')!r}"
    e = op.expect
    if op.kind == "curvature":
        if e.get("closed"):
            residual = report.get("gauss_bonnet_residual")
            if residual is None or not abs(residual) <= TOL_CURVATURE:
                return f"Gauss-Bonnet residual {residual!r}"
        if "vertices" in e and len(report["per_vertex"]) != e["vertices"]:
            return f"{len(report['per_vertex'])} per-vertex entries, expected {e['vertices']}"
        if e.get("flat"):
            worst = max((abs(n) for _, n in report["per_vertex"]), default=0.0)
            if not worst <= TOL_CURVATURE:
                return f"flat complex has curvature norm {worst!r}"
        if "apex_k" in e:
            want = abs(_wrapped_angle(2.0 * math.pi - e["apex_k"] * math.pi / 3.0))
            got = dict((int(v), n) for v, n in report["per_vertex"]).get(0)
            if got is None or not abs(got - want) <= TOL_CURVATURE:
                return f"apex curvature {got!r}, expected {want!r}"
        return None
    if op.kind == "holonomy":
        if report.get("loop_source") != e["loop_source"]:
            return f"loop source {report.get('loop_source')!r}"
        diff = report.get("difference_mod_2pi")
        if diff is None or not diff <= TOL_HOLONOMY:
            return f"holonomy misses the enclosed curvature by {diff!r}"
        return None
    if op.kind == "decompose":
        residual = report.get("reconstruction_residual")
        if residual is None or not residual <= TOL_DECOMPOSE:
            return f"reconstruction residual {residual!r}"
        return None
    if op.kind == "order":
        if e["order"] is None:
            return None if report.get("exact_match") is True else "no exact match"
        got = report.get("order")
        if got is None or not abs(got - e["order"]) <= TOL_ORDER:
            return f"order {got!r}, expected {e['order']}"
        return None
    if op.kind == "del":
        drift = report.get("momentum_drift")
        if drift is None or not drift <= TOL_MOMENTUM:
            return f"momentum drift {drift!r}"
        return None
    return f"unknown kind {op.kind!r}"
