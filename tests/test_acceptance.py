"""End-to-end acceptance suite: nine checks, one verdict line each.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per check;
add `-s` (or `-rP`) to see the measured numbers behind each verdict.
"""

import json
import math
import time

import numpy as np
import pytest

from dconn import bundle as bd
from dconn import lie_group as lg
from dconn.bundle import Bundle, BundlePoint, PairElement, ShapePoint
from dconn.cli import main
from dconn.connection import (
    DiscreteConnection,
    adjoint_element,
    assemble_chain,
    assemble_quotient,
    canonical_chain,
    decompose_chain,
    decompose_quotient,
    eval_form,
    extended_compose,
    horizontal_component,
    horizontal_lift,
    quotient_pair,
    trivial_connection,
    vertical_component,
)
from dconn.levi_civita import MetricComplex, connection_form, holonomy, total_defect
from dconn.lie_group import SE3, SO3
from dconn.limits import (
    cayley_connection,
    endpoint_connection,
    estimate_order,
    exponentiated_connection,
    TangentVector,
    induced_continuous,
    unit_directions,
    vertical_tangent,
)
from dconn.mechanical import (
    del_trajectory,
    discrete_momentum,
    mechanical_discrete_connection,
)
from dconn.meshes import (
    cone,
    flat_grid,
    icosphere,
    latitude_loop,
    torus_grid,
    write_complex_json,
    write_off,
)
from dconn.presets import (
    default_base_point,
    free_particle,
    se3_coupled,
    se3_mechanical,
    so3_coupled,
    so3_mechanical,
)

TWO_PI = 2.0 * math.pi


def verdict(index: int, name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {index}/9 {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def group_residual(a, b) -> float:
    return float(np.max(np.abs(a.matrix - b.matrix)))


def point_residual(a: BundlePoint, b: BundlePoint) -> float:
    fiber = float(np.max(np.abs(a.fiber.matrix - b.fiber.matrix)))
    if a.shape.coords.size == 0:
        return fiber
    return max(fiber, float(np.max(np.abs(a.shape.coords - b.shape.coords))))


def pair_residual(a: PairElement, b: PairElement) -> float:
    return max(point_residual(a.first, b.first), point_residual(a.second, b.second))


def sample_pair(c: DiscreteConnection, rng) -> PairElement:
    # Bounded shape offset: every sampled pair stays inside the validity radius.
    b = c.bundle
    q0 = b.random_point(rng, shape_scale=0.1)
    if b.shape_dim:
        d = rng.standard_normal(b.shape_dim)
        d *= 0.3 * rng.uniform(0.2, 1.0) / np.linalg.norm(d)
        x1 = ShapePoint(q0.shape.coords + d)
    else:
        x1 = q0.shape
    return PairElement(q0, BundlePoint(x1, lg.random_element(b.group, rng)))


def sample_chain(c: DiscreteConnection, rng, k: int) -> list[BundlePoint]:
    b = c.bundle
    qs = [b.random_point(rng, shape_scale=0.1)]
    for _ in range(k):
        if b.shape_dim:
            d = rng.standard_normal(b.shape_dim)
            d *= 0.25 * rng.uniform(0.2, 1.0) / np.linalg.norm(d)
            x = ShapePoint(qs[-1].shape.coords + d)
        else:
            x = qs[-1].shape
        qs.append(BundlePoint(x, lg.random_element(b.group, rng)))
    return qs


@pytest.fixture(scope="module")
def families() -> dict[str, DiscreteConnection]:
    return {
        "trivial-so3": trivial_connection(Bundle(SO3, 2)),
        "trivial-se3": trivial_connection(Bundle(SE3, 2)),
        "pure-group-so3": trivial_connection(Bundle(SO3, 0)),
        "pure-group-se3": trivial_connection(Bundle(SE3, 0)),
        "exponentiated-so3": exponentiated_connection(so3_mechanical()),
        "exponentiated-se3": exponentiated_connection(se3_mechanical()),
        "mechanical-so3": mechanical_discrete_connection(so3_coupled()),
        "mechanical-se3": mechanical_discrete_connection(se3_coupled()),
    }


def test_acceptance_1_connection_form_identities(families):
    samples = 200
    start = time.perf_counter()
    worst = 0.0
    for c in families.values():
        b = c.bundle
        e = lg.identity(b.group)
        rng = np.random.default_rng(11)
        for _ in range(samples):
            p = sample_pair(c, rng)
            q0, q1 = p.first, p.second
            g = lg.random_element(b.group, rng)
            h = lg.random_element(b.group, rng)
            w = eval_form(c, p)
            # The form vanishes on the diagonal and inverts the generator.
            worst = max(worst, group_residual(eval_form(c, PairElement(q0, q0)), e))
            worst = max(worst, group_residual(eval_form(c, bd.discrete_generator(q0, g)), g))
            # Equivariance: moving the pair conjugates the form value.
            conj = lg.compose(h, lg.compose(w, lg.inverse(h)))
            worst = max(worst, group_residual(eval_form(c, bd.act_pair(h, p)), conj))
            # Vertical-horizontal recomposition recovers the pair.
            hor = horizontal_component(c, p)
            back = bd.vertical_compose(vertical_component(c, p), hor)
            worst = max(worst, pair_residual(back, p))
            # Horizontal pairs are fixed points of the projector and sit in
            # the identity level set of the form.
            worst = max(worst, pair_residual(horizontal_component(c, hor), hor))
            worst = max(worst, group_residual(eval_form(c, hor), e))
            # Acting the form value on the lift rebuilds the pair.
            lift = horizontal_lift(c, q0.shape, q1.shape, q0)
            rebuilt = bd.vertical_compose(bd.discrete_generator(q0, w), lift)
            worst = max(worst, pair_residual(rebuilt, p))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    verdict(1, "connection form identities", ok,
            f"max residual {worst:.2e} over {len(families)} fixtures x {samples} samples, "
            f"{elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_acceptance_2_quotient_isomorphism_round_trips(families):
    pairs = 100
    worst = 0.0
    for c in families.values():
        b = c.bundle
        rng = np.random.default_rng(22)
        for _ in range(pairs):
            # Forward: pair -> (shapes, adjoint part) -> pair.
            qp = quotient_pair(sample_pair(c, rng))
            x0, x1, a = decompose_quotient(c, qp)
            back = assemble_quotient(c, x0, x1, a)
            worst = max(worst, pair_residual(back.representative, qp.representative))
            # Reverse: quotient data -> pair -> quotient data.
            y0 = ShapePoint(0.1 * rng.standard_normal(b.shape_dim))
            if b.shape_dim:
                d = rng.standard_normal(b.shape_dim)
                d *= 0.3 * rng.uniform(0.2, 1.0) / np.linalg.norm(d)
                y1 = ShapePoint(y0.coords + d)
            else:
                y1 = y0
            g = lg.random_element(b.group, rng)
            a0 = adjoint_element(BundlePoint(y0, lg.identity(b.group)), g)
            z0, z1, a1 = decompose_quotient(c, assemble_quotient(c, y0, y1, a0))
            worst = max(worst, group_residual(a1.group_part, g))
            worst = max(worst, float(np.linalg.norm(z0.coords - y0.coords)))
            worst = max(worst, float(np.linalg.norm(z1.coords - y1.coords)))
    chain_worst = 0.0
    for c in families.values():
        rng = np.random.default_rng(23)
        for _ in range(10):
            qs = sample_chain(c, rng, k=3)
            shapes, adjoints = decompose_chain(c, qs)
            rebuilt = assemble_chain(c, shapes, adjoints)
            canon = canonical_chain(qs)
            chain_worst = max(chain_worst,
                              max(point_residual(r, q) for r, q in zip(rebuilt, canon)))
    # Pure-group reduction has the closed form g0^-1 g1 for the adjoint part.
    c = trivial_connection(Bundle(SO3, 0))
    g0 = lg.exp(SO3, [0.3, -0.2, 0.5])
    g1 = lg.exp(SO3, [-0.1, 0.4, 0.2])
    p = PairElement(c.bundle.point(np.zeros(0), g0), c.bundle.point(np.zeros(0), g1))
    _, _, a = decompose_quotient(c, quotient_pair(p))
    closed = float(np.max(np.abs(a.group_part.matrix - g0.matrix.T @ g1.matrix)))
    ok = worst < 1e-10 and chain_worst < 1e-10 and closed < 1e-12
    verdict(2, "quotient isomorphism round trips", ok,
            f"pair residual {worst:.2e}, order-3 chain residual {chain_worst:.2e}, "
            f"pure-group closed form {closed:.2e}")
    assert worst < 1e-10
    assert chain_worst < 1e-10
    assert closed < 1e-12


def sample_triple(c: DiscreteConnection, rng):
    b = c.bundle
    xs = [0.1 * rng.standard_normal(b.shape_dim)]
    for _ in range(3):
        d = rng.standard_normal(b.shape_dim)
        d *= 0.25 * rng.uniform(0.2, 1.0) / np.linalg.norm(d)
        xs.append(xs[-1] + d)
    f = [lg.random_element(b.group, rng) for _ in range(6)]
    points = [BundlePoint(ShapePoint(x), g) for x, g in zip(xs, f)]
    p = PairElement(points[0], points[1])
    r = PairElement(BundlePoint(ShapePoint(xs[1]), f[2]), BundlePoint(ShapePoint(xs[2]), f[3]))
    s = PairElement(BundlePoint(ShapePoint(xs[2]), f[4]), BundlePoint(ShapePoint(xs[3]), f[5]))
    return p, r, s


def test_acceptance_3_extended_composition_laws():
    fixtures = {
        "trivial-se3": trivial_connection(Bundle(SE3, 2)),
        "exponentiated-so3": exponentiated_connection(so3_mechanical()),
    }
    exact_worst = 0.0
    law_worst = 0.0
    for c in fixtures.values():
        b = c.bundle
        rng = np.random.default_rng(33)
        for _ in range(40):
            p, r, _ = sample_triple(c, rng)
            # Matching middle points reduce to plain pair-groupoid chaining.
            joined = PairElement(p.second, r.second)
            out = extended_compose(c, p, joined)
            exact_worst = max(exact_worst,
                              pair_residual(out, PairElement(p.first, r.second)))
            # Composing with a generator agrees with vertical composition.
            q = b.random_point(rng, shape_scale=0.1)
            q1 = b.random_point(rng, shape_scale=0.1)
            v = bd.discrete_generator(q, lg.random_element(b.group, rng))
            tail = PairElement(q, q1)
            exact_worst = max(exact_worst,
                              point_residual(extended_compose(c, v, tail).second,
                                             bd.vertical_compose(v, tail).second))
        for _ in range(100):
            p, r, s = sample_triple(c, rng)
            left = extended_compose(c, extended_compose(c, p, r), s)
            right = extended_compose(c, p, extended_compose(c, r, s))
            law_worst = max(law_worst, pair_residual(left, right))
            h = lg.random_element(b.group, rng)
            moved = extended_compose(c, bd.act_pair(h, p), bd.act_pair(h, r))
            expect = bd.act_pair(h, extended_compose(c, p, r))
            law_worst = max(law_worst, pair_residual(moved, expect))
    ok = exact_worst < 1e-12 and law_worst < 1e-10
    verdict(3, "extended composition laws", ok,
            f"groupoid/vertical residual {exact_worst:.2e}, "
            f"associativity/equivariance residual {law_worst:.2e} over 200 triples")
    assert exact_worst < 1e-12
    assert law_worst < 1e-10


def test_acceptance_4_continuous_limit_recovery():
    a = so3_mechanical()
    c = exponentiated_connection(a)
    rng = np.random.default_rng(44)
    q = a.bundle.random_point(rng, shape_scale=0.1)
    directions = []
    for _ in range(5):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        directions.append(TangentVector(q, u, 0.3 * rng.standard_normal(3)))
    hs = np.geomspace(1e-1, 2e-2, 5)
    errors = []
    for h in hs:
        step = max(
            float(np.max(np.abs(induced_continuous(c, v, h_list=[h])
                                - a.one_form(v))))
            for v in directions
        )
        errors.append(step)
    slope = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    vertical_worst = 0.0
    for _ in range(10):
        q2 = a.bundle.random_point(rng, shape_scale=0.1)
        xi = lg.random_algebra(SO3, rng, scale=0.5)
        got = induced_continuous(c, vertical_tangent(q2, xi))
        vertical_worst = max(vertical_worst,
                             float(np.max(np.abs(got - xi))))
    ok = slope >= 1.8 and errors[-1] < 1e-5 and vertical_worst < 1e-8
    verdict(4, "continuous limit recovery", ok,
            f"difference-quotient slope {slope:.2f}, finest-step error {errors[-1]:.1e}, "
            f"vertical recovery {vertical_worst:.1e}")
    assert slope >= 1.8
    assert errors[-1] < 1e-5
    assert vertical_worst < 1e-8


def test_acceptance_5_order_estimation():
    start = time.perf_counter()
    a = so3_mechanical()
    exact = exponentiated_connection(a)
    q = default_base_point(a.bundle)
    directions = unit_directions(a.bundle, count=16)
    hs = list(np.geomspace(1e-1, 1e-3, 7))
    second = estimate_order(cayley_connection(a), exact, q, directions, hs)
    first = estimate_order(endpoint_connection(a), exact, q, directions, hs)
    elapsed = time.perf_counter() - start
    ok = (abs(second.order - 2.0) <= 0.2 and abs(first.order - 1.0) <= 0.2
          and elapsed < 30.0)
    verdict(5, "order estimation", ok,
            f"cayley order {second.order:.4f}, forward-difference order {first.order:.4f}, "
            f"{elapsed:.1f}s")
    assert abs(second.order - 2.0) <= 0.2
    assert abs(first.order - 1.0) <= 0.2
    assert elapsed < 30.0


def test_acceptance_6_momentum_conservation_and_horizontality():
    steps = 100
    drifts = {}
    L_free = free_particle()
    b = L_free.bundle
    cases = {
        "translation": (L_free,
                        b.point([0.0], [[1.0, 0.0], [0.0, 1.0]]),
                        b.point([0.05], [[1.0, 0.03], [0.0, 1.0]])),
    }
    L_rot = so3_coupled()
    cases["rotation-coupled"] = (
        L_rot,
        L_rot.bundle.point([0.05, -0.05], np.eye(3)),
        L_rot.bundle.point([0.08, -0.02], lg.exp(SO3, [0.02, -0.01, 0.03])),
    )
    for name, (L, q0, q1) in cases.items():
        path = del_trajectory(L, q0, q1, steps)
        values = [discrete_momentum(L, PairElement(u, v)).covector
                  for u, v in zip(path, path[1:])]
        drifts[name] = max(float(np.max(np.abs(v - values[0]))) for v in values)
    # Horizontal pairs of the mechanical connection carry zero momentum.
    zero_worst = 0.0
    for L in (so3_coupled(), se3_coupled()):
        c = mechanical_discrete_connection(L)
        rng = np.random.default_rng(66)
        for _ in range(10):
            hor = horizontal_component(c, sample_pair(c, rng))
            zero_worst = max(zero_worst,
                             float(np.max(np.abs(discrete_momentum(L, hor).covector))))
    worst_drift = max(drifts.values())
    ok = worst_drift < 1e-9 and zero_worst < 1e-9
    verdict(6, "momentum conservation and horizontality", ok,
            f"{steps}-step drifts " +
            ", ".join(f"{k} {v:.1e}" for k, v in drifts.items()) +
            f", horizontal momentum {zero_worst:.1e}")
    assert worst_drift < 1e-9
    assert zero_worst < 1e-9


def test_acceptance_7_gauss_bonnet_totals():
    sphere_residual = 0.0
    level3_elapsed = None
    for level in range(4):
        start = time.perf_counter()
        K = MetricComplex.from_embedding(*icosphere(level))
        total = total_defect(K)
        if level == 3:
            level3_elapsed = time.perf_counter() - start
        sphere_residual = max(sphere_residual, abs(total - 2.0 * TWO_PI))
    grid = MetricComplex.from_edge_lengths(*flat_grid(5, 5))
    grid_residual = abs(total_defect(grid))
    torus = MetricComplex.from_edge_lengths(*torus_grid(8, 6))
    torus_residual = abs(total_defect(torus))
    ok = (sphere_residual < 1e-9 and grid_residual < 1e-12
          and torus_residual < 1e-9 and level3_elapsed < 5.0)
    verdict(7, "total curvature by topology", ok,
            f"sphere residual {sphere_residual:.1e}, grid {grid_residual:.1e}, "
            f"torus {torus_residual:.1e}, level-3 time {level3_elapsed:.1f}s")
    assert sphere_residual < 1e-9
    assert grid_residual < 1e-12
    assert torus_residual < 1e-9
    assert level3_elapsed < 5.0


def circle_distance(a: float, b: float) -> float:
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def test_acceptance_8_latitude_holonomy():
    errors = {}
    for level in (4, 5):
        K = MetricComplex.from_embedding(*icosphere(level))
        A = connection_form(K)
        for degrees in (30.0, 60.0):
            loop, _ = latitude_loop(K, math.radians(degrees))
            g = holonomy(K, A, loop)
            angle = math.atan2(g.matrix[1, 0], g.matrix[0, 0])
            target = TWO_PI * (1.0 - math.cos(math.radians(degrees)))
            # Traversal direction is a convention; compare both orientations.
            errors[(level, degrees)] = min(circle_distance(angle, target),
                                           circle_distance(-angle, target))
    coarse = max(errors[(4, d)] for d in (30.0, 60.0))
    fine = max(errors[(5, d)] for d in (30.0, 60.0))
    ok = all(e < 2e-2 for e in errors.values()) and fine < coarse
    verdict(8, "latitude loop holonomy", ok,
            "errors " + ", ".join(f"L{lvl} {deg:.0f}deg {e:.2e}"
                                  for (lvl, deg), e in sorted(errors.items())) +
            f"; refinement {coarse:.2e} -> {fine:.2e}")
    assert errors[(4, 30.0)] < 2e-2
    assert errors[(4, 60.0)] < 2e-2
    assert errors[(5, 30.0)] < 2e-2
    assert errors[(5, 60.0)] < 2e-2
    assert fine < coarse


def test_acceptance_9_cli_determinism(tmp_path):
    sphere = tmp_path / "sphere.off"
    write_off(sphere, *icosphere(1))
    cone_mesh = tmp_path / "cone.json"
    write_complex_json(cone_mesh, *cone(5))
    configs = {
        "decompose": {"connection": "mechanical:so3_coupled"},
        "order": {"candidate": "cayley:so3_mechanical",
                  "reference": "exponentiated:so3_mechanical",
                  "directions": 4},
        "curvature": {"mesh": str(sphere)},
        "holonomy": {"mesh": str(cone_mesh), "around_vertex": 0},
    }
    mismatches = []
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for k in range(2):
            out = tmp_path / f"{command}-{k}.json"
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            mismatches.append(command)
    ok = not mismatches
    verdict(9, "deterministic reports", ok,
            "byte-identical repeated runs for " + ", ".join(configs)
            if ok else "mismatch in " + ", ".join(mismatches))
    assert not mismatches
