"""Group arithmetic checks against series and brute-force matrix oracles."""

import gc

import numpy as np
import pytest

from dconn import lie_group as lg
from dconn.errors import CutLocusError, GroupMismatchError
from dconn.lie_group import SE3, SO2, SO3, translation_group

ALL_GROUPS = [SO2, SO3, SE3, translation_group(2)]


def rot_z(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def series_exp(m: np.ndarray, terms: int = 20) -> np.ndarray:
    # Truncated matrix power series; the oracle for the closed-form exps.
    out = np.eye(len(m))
    acc = np.eye(len(m))
    for k in range(1, terms):
        acc = acc @ m / k
        out = out + acc
    return out


# -- exp ---------------------------------------------------------------------


def test_exp_zero_is_identity():
    for g in ALL_GROUPS:
        e = lg.exp(g, np.zeros(g.dim))
        assert np.array_equal(e.matrix, np.eye(g.matrix_size))


def test_exp_z_axis_is_planar_rotation():
    theta = 0.7321
    r = lg.exp(SO3, [0.0, 0.0, theta])
    assert np.max(np.abs(r.matrix - rot_z(theta))) < 1e-15


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_exp_matches_power_series(group):
    rng = np.random.default_rng(11)
    for _ in range(40):
        xi = lg.random_algebra(group, rng)
        xi = xi / max(1.0, np.linalg.norm(xi))
        expected = series_exp(group.hat(xi))
        assert np.max(np.abs(lg.exp(group, xi).matrix - expected)) < 1e-10


def test_exp_small_angle_branch():
    # Exercise the Taylor branches below the 1e-8 switch.
    for group in (SO3, SE3):
        v = 1e-10 * np.arange(1, group.dim + 1, dtype=float)
        got = lg.exp(group, v).matrix
        assert np.max(np.abs(got - series_exp(group.hat(v)))) < 1e-15


# -- compose / inverse --------------------------------------------------------


def test_compose_planar_angles_add():
    a = lg.exp(SO3, [0, 0, np.radians(30.0)])
    b = lg.exp(SO3, [0, 0, np.radians(50.0)])
    assert np.max(np.abs(lg.compose(a, b).matrix - rot_z(np.radians(80.0)))) < 1e-14


def test_compose_identity_and_raw_product():
    rng = np.random.default_rng(3)
    e = lg.identity(SO3)
    for _ in range(50):
        a = lg.random_element(SO3, rng)
        b = lg.random_element(SO3, rng)
        assert np.array_equal(lg.compose(a, e).matrix, a.matrix)
        assert np.array_equal(lg.compose(a, b).matrix, a.matrix @ b.matrix)


def test_compose_associative():
    rng = np.random.default_rng(4)
    for group in ALL_GROUPS:
        for _ in range(20):
            a, b, c = (lg.random_element(group, rng) for _ in range(3))
            left = lg.compose(lg.compose(a, b), c)
            right = lg.compose(a, lg.compose(b, c))
            assert np.max(np.abs(left.matrix - right.matrix)) < 1e-12


def test_compose_group_mismatch():
    with pytest.raises(GroupMismatchError):
        lg.compose(lg.identity(SO3), lg.identity(SO2))


def test_inverse_planar_and_identity():
    theta = 1.1
    r = lg.exp(SO3, [0, 0, theta])
    assert np.max(np.abs(lg.inverse(r).matrix - rot_z(-theta))) < 1e-15
    e = lg.identity(SE3)
    assert np.array_equal(lg.inverse(e).matrix, e.matrix)


def test_inverse_se3_block_formula():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = lg.random_element(SE3, rng)
        r, p = g.matrix[:3, :3], g.matrix[:3, 3]
        inv = lg.inverse(g)
        assert np.max(np.abs(inv.matrix[:3, :3] - r.T)) < 1e-14
        assert np.max(np.abs(inv.matrix[:3, 3] + r.T @ p)) < 1e-14
        prod = lg.compose(g, inv)
        assert np.max(np.abs(prod.matrix - np.eye(4))) < 1e-12


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_inverse_roundtrip(group):
    rng = np.random.default_rng(6)
    for _ in range(25):
        g = lg.random_element(group, rng)
        prod = lg.compose(g, lg.inverse(g))
        assert np.max(np.abs(prod.matrix - np.eye(group.matrix_size))) < 1e-12


# -- log -----------------------------------------------------------------------


def test_log_identity_and_planar():
    assert np.array_equal(lg.log(lg.identity(SO3)), np.zeros(3))
    theta = -2.2
    r = lg.exp(SO3, [0, 0, theta])
    assert np.max(np.abs(lg.log(r) - [0, 0, theta])) < 1e-13


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_exp_log_roundtrip(group):
    rng = np.random.default_rng(7)
    for _ in range(60):
        g = lg.random_element(group, rng, scale=0.8)
        back = lg.exp(group, lg.log(g))
        assert np.max(np.abs(back.matrix - g.matrix)) < 1e-10


def test_log_near_identity_tight():
    rng = np.random.default_rng(8)
    for _ in range(30):
        g = lg.random_element(SO3, rng, scale=1e-3)
        assert np.max(np.abs(lg.exp(SO3, lg.log(g)).matrix - g.matrix)) < 1e-12


def half_turn_vector(group, angle: float) -> list:
    # Rotation by `angle` about the z axis, padded to the group's coordinates.
    if group is SO2:
        return [angle]
    if group is SO3:
        return [0.0, 0.0, angle]
    return [0.0, 0.0, angle, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("group", [SO2, SO3, SE3], ids=lambda g: g.name)
def test_log_rejects_cut_locus(group):
    near = lg.exp(group, half_turn_vector(group, np.pi - 1e-8))
    with pytest.raises(CutLocusError):
        lg.log(near)
    ok = lg.exp(group, half_turn_vector(group, np.pi - 1e-3))
    assert np.linalg.norm(lg.log(ok)) == pytest.approx(np.pi - 1e-3, abs=1e-9)


# -- cayley ---------------------------------------------------------------------


def test_cayley_zero_and_group_membership():
    rng = np.random.default_rng(9)
    for group in ALL_GROUPS:
        assert np.array_equal(lg.cayley(group, np.zeros(group.dim)).matrix,
                              np.eye(group.matrix_size))
        for _ in range(10):
            c = lg.cayley(group, lg.random_algebra(group, rng))
            group.check_matrix(c.matrix, tol=1e-10)


def test_cayley_third_order_agreement_with_exp():
    # cay(t v) - exp(t v) = O(t^3): the gap shrinks ~8x when t halves.
    v = np.array([0.4, -0.3, 0.5])
    gaps = []
    for t in (0.2, 0.1, 0.05):
        gaps.append(np.max(np.abs(lg.cayley(SO3, t * v).matrix - lg.exp(SO3, t * v).matrix)))
    assert 6.0 < gaps[0] / gaps[1] < 10.0
    assert 6.0 < gaps[1] / gaps[2] < 10.0


# -- hat / vee / adjoint / bracket ------------------------------------------------


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_hat_vee_roundtrip(group):
    rng = np.random.default_rng(10)
    for _ in range(20):
        v = rng.standard_normal(group.dim)
        assert np.max(np.abs(group.vee(group.hat(v)) - v)) < 1e-14


def test_adjoint_identity_and_rotation_oracle():
    rng = np.random.default_rng(12)
    xi = lg.random_algebra(SO3, rng)
    assert np.max(np.abs(lg.adjoint(lg.identity(SO3), xi) - xi)) < 1e-15
    for _ in range(30):
        r = lg.random_element(SO3, rng)
        w = lg.random_algebra(SO3, rng)
        # On SO(3) the adjoint action is the rotation itself.
        assert np.max(np.abs(lg.adjoint(r, w) - r.matrix @ w)) < 1e-12


@pytest.mark.parametrize("group", [SO3, SE3], ids=lambda g: g.name)
def test_adjoint_respects_bracket(group):
    rng = np.random.default_rng(13)
    for _ in range(25):
        g = lg.random_element(group, rng)
        xi = lg.random_algebra(group, rng)
        chi = lg.random_algebra(group, rng)
        lhs = lg.adjoint(g, lg.bracket(group, xi, chi))
        rhs = lg.bracket(group, lg.adjoint(g, xi), lg.adjoint(g, chi))
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_adjoint_matches_matrix_conjugation():
    rng = np.random.default_rng(14)
    for group in ALL_GROUPS:
        for _ in range(15):
            g = lg.random_element(group, rng)
            xi = lg.random_algebra(group, rng)
            conj = g.matrix @ group.hat(xi) @ lg.inverse(g).matrix
            assert np.max(np.abs(group.hat(lg.adjoint(g, xi)) - conj)) < 1e-11
            closed_form = lg.adjoint_matrix(g) @ xi
            assert np.max(np.abs(closed_form - group.vee(conj))) < 1e-11


# -- conjugation-invariant norm ----------------------------------------------------


def test_norm_identity_and_planar_angle():
    assert lg.conj_invariant_norm(lg.identity(SO3)) == 0.0
    theta = 0.9
    assert lg.conj_invariant_norm(lg.exp(SO3, [0, 0, theta])) == pytest.approx(theta, abs=1e-13)
    assert lg.conj_invariant_norm(lg.exp(SO2, [-theta])) == pytest.approx(theta, abs=1e-13)


@pytest.mark.parametrize("group", [SO2, SO3, translation_group(3)], ids=lambda g: g.name)
def test_norm_invariant_under_conjugation(group):
    rng = np.random.default_rng(15)
    g = lg.random_element(group, rng, scale=0.6)
    n = lg.conj_invariant_norm(g)
    for _ in range(100):
        h = lg.random_element(group, rng)
        conj = lg.compose(h, lg.compose(g, lg.inverse(h)))
        assert abs(lg.conj_invariant_norm(conj) - n) < 1e-11


def test_norm_se3_invariant_under_rotations():
    # The se(3) coordinate norm is preserved by conjugation with rotations
    # (no fully bi-invariant nondegenerate norm exists on SE(3)).
    rng = np.random.default_rng(16)
    g = lg.random_element(SE3, rng, scale=0.5)
    n = lg.conj_invariant_norm(g)
    for _ in range(50):
        w = rng.standard_normal(3)
        h = lg.exp(SE3, np.concatenate([w, np.zeros(3)]))
        conj = lg.compose(h, lg.compose(g, lg.inverse(h)))
        assert abs(lg.conj_invariant_norm(conj) - n) < 1e-11


# -- long products ------------------------------------------------------------------


def test_thousand_fold_composition_stays_orthonormal():
    rng = np.random.default_rng(17)
    acc = lg.identity(SO3)
    for _ in range(1000):
        acc = lg.compose(acc, lg.random_element(SO3, rng, scale=0.3))
    drift = np.max(np.abs(acc.matrix.T @ acc.matrix - np.eye(3)))
    assert drift < 1e-9


# -- tags and validation ---------------------------------------------------------------


def test_group_lookup():
    assert lg.group_by_name("SO3") is SO3
    assert lg.group_by_name("T4").dim == 4
    assert lg.group_by_name("T4") is lg.group_by_name("T4")
    assert lg.group_by_name("T004") is lg.group_by_name("T4")
    with pytest.raises(ValueError):
        lg.group_by_name("SU2")


def test_translation_groups_are_freed_once_nothing_holds_them():
    assert translation_group(7) is translation_group(7)
    group = lg.group_by_name("T200")
    assert lg._TRANSLATION_CACHE.get(200) is group
    del group
    gc.collect()
    assert 200 not in lg._TRANSLATION_CACHE


def test_check_matrix_rejects_junk():
    with pytest.raises(ValueError):
        SO3.check_matrix(np.eye(3) + 1e-3)
    with pytest.raises(ValueError):
        SO3.check_matrix(np.eye(4))
    bad = np.eye(4)
    bad[3, 0] = 0.5
    with pytest.raises(ValueError):
        SE3.check_matrix(bad)


def test_elements_are_immutable():
    g = lg.identity(SO3)
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 2.0
    xi = lg.random_algebra(SO3, np.random.default_rng(16))
    with pytest.raises(ValueError):
        xi[0] = 3.0


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_kernel_outputs_are_read_only(group):
    rng = np.random.default_rng(15)
    g, h = lg.random_element(group, rng), lg.random_element(group, rng)
    xi, eta = lg.random_algebra(group, rng, 0.5), lg.random_algebra(group, rng, 0.5)
    arrays = [
        lg.identity(group).matrix, lg.compose(g, h).matrix, lg.inverse(g).matrix,
        lg.exp(group, xi).matrix, lg.cayley(group, xi).matrix, lg.log(g),
        lg.adjoint(g, xi), lg.bracket(group, xi, eta), xi, lg.adjoint_matrix(g),
    ]
    for a in arrays:
        assert not a.flags.writeable


def test_constructors_copy_the_callers_array():
    m = np.eye(3)
    g = lg.element(SO3, m)
    m[0, 0] = 2.0
    assert g.matrix[0, 0] == 1.0
