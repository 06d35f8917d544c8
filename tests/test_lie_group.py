"""Group arithmetic checks against series and brute-force matrix oracles.

The sampled checks run under hypothesis, derandomized, so every run draws
the same examples.
"""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dconn import lie_group as lg
from dconn.errors import CutLocusError, GroupMismatchError
from dconn.lie_group import SE3, SO2, SO3, translation_group

ALL_GROUPS = [SO2, SO3, SE3, translation_group(2)]
GROUPS = st.sampled_from(ALL_GROUPS)
SAMPLED = settings(derandomize=True, max_examples=30, deadline=None, database=None)

# Rotation angles anywhere below the cut locus at pi, and crowded next to it.
ANGLES = st.one_of(st.floats(0.0, 3.0), st.floats(-4.0, -1.0).map(lambda e: math.pi - 10.0 ** e))
# The same for checks through the log, up to its cut margin: past 2 rad the
# log takes its angle from atan2 and its axis from the symmetric part, so it
# stays exact at pi - d for every d down to 1.1e-6.
LOG_ANGLES = st.one_of(st.floats(0.0, 3.0),
                       st.floats(math.log10(1.1e-6), -1.0).map(lambda e: math.pi - 10.0 ** e))
# Distances d from pi, log-uniform in [1.1e-6, 0.03].
CUT_DISTANCES = st.floats(math.log10(1.1e-6), math.log10(0.03)).map(lambda e: 10.0 ** e)
# Rotation angles from the Taylor branches below 1e-8 up to 1e-2.
SMALL_ANGLES = st.floats(-10.0, -2.0).map(lambda e: 10.0 ** e)


def _rotation_slots(group) -> slice:
    return {SO2: slice(0, 1), SO3: slice(0, 3), SE3: slice(0, 3)}.get(group, slice(0, 0))


@st.composite
def algebra(draw, group, angles=ANGLES, bound=3.0):
    """Coordinates of group within ``bound``, the rotation part (SO2, SO3, SE3)
    turned to an angle drawn from ``angles`` about its own axis."""
    xi = np.array(draw(st.lists(st.floats(-bound, bound), min_size=group.dim,
                                max_size=group.dim)))
    axis = xi[_rotation_slots(group)]
    if axis.size:
        norm = np.linalg.norm(axis)
        unit = axis / norm if norm > 0.0 else np.eye(axis.size)[0]
        xi[_rotation_slots(group)] = draw(angles) * unit
    return xi


def elements(group, angles=ANGLES, bound=3.0):
    return algebra(group, angles, bound).map(lambda xi: lg.exp(group, xi))


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
@SAMPLED
@given(data=st.data())
def test_exp_matches_power_series(group, data):
    xi = data.draw(algebra(group))
    xi = xi / max(1.0, np.linalg.norm(xi))
    expected = series_exp(group.hat(xi))
    assert np.max(np.abs(lg.exp(group, xi).matrix - expected)) < 1e-10


def test_exp_small_angle_branch():
    # Exercise the Taylor branches below the 1e-8 switch.
    for group in (SO3, SE3):
        v = 1e-10 * np.arange(1, group.dim + 1, dtype=float)
        got = lg.exp(group, v).matrix
        assert np.max(np.abs(got - series_exp(group.hat(v)))) < 1e-15


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
@pytest.mark.parametrize("kernel", ["exp_matrix", "cayley_matrix"])
def test_per_element_kernels_refuse_a_stack_of_vectors(group, kernel):
    # 2 dim coordinates would be two rows to the batched kernel, not one element.
    with pytest.raises(ValueError):
        getattr(group, kernel)(np.zeros(2 * group.dim))


# -- compose / inverse --------------------------------------------------------


def test_compose_planar_angles_add():
    a = lg.exp(SO3, [0, 0, np.radians(30.0)])
    b = lg.exp(SO3, [0, 0, np.radians(50.0)])
    assert np.max(np.abs(lg.compose(a, b).matrix - rot_z(np.radians(80.0)))) < 1e-14


@SAMPLED
@given(data=st.data(), group=GROUPS)
def test_compose_identity_and_raw_product(data, group):
    a, b = data.draw(elements(group)), data.draw(elements(group))
    assert np.array_equal(lg.compose(a, lg.identity(group)).matrix, a.matrix)
    assert np.array_equal(lg.compose(a, b).matrix, a.matrix @ b.matrix)


@SAMPLED
@given(data=st.data(), group=GROUPS)
def test_compose_associative(data, group):
    a, b, c = (data.draw(elements(group)) for _ in range(3))
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


@SAMPLED
@given(elements(SE3))
def test_inverse_se3_block_formula(g):
    r, p = g.matrix[:3, :3], g.matrix[:3, 3]
    inv = lg.inverse(g)
    assert np.max(np.abs(inv.matrix[:3, :3] - r.T)) < 1e-14
    assert np.max(np.abs(inv.matrix[:3, 3] + r.T @ p)) < 1e-14
    prod = lg.compose(g, inv)
    assert np.max(np.abs(prod.matrix - np.eye(4))) < 1e-12


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
@SAMPLED
@given(data=st.data())
def test_inverse_roundtrip(group, data):
    g = data.draw(elements(group))
    prod = lg.compose(g, lg.inverse(g))
    assert np.max(np.abs(prod.matrix - np.eye(group.matrix_size))) < 1e-12


# -- log -----------------------------------------------------------------------


def test_log_identity_and_planar():
    assert np.array_equal(lg.log(lg.identity(SO3)), np.zeros(3))
    theta = -2.2
    r = lg.exp(SO3, [0, 0, theta])
    assert np.max(np.abs(lg.log(r) - [0, 0, theta])) < 1e-13


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
@SAMPLED
@given(data=st.data())
def test_exp_log_roundtrip(group, data):
    g = data.draw(elements(group, LOG_ANGLES))
    back = lg.exp(group, lg.log(g))
    assert np.max(np.abs(back.matrix - g.matrix)) < 1e-10


@SAMPLED
@given(elements(SO3, SMALL_ANGLES))
def test_log_near_identity_tight(g):
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


@st.composite
def near_half_turns(draw, group):
    """Elements of SO(3) or SE(3) at angle pi - d about a drawn axis, d from
    CUT_DISTANCES, with translation coordinates within 1."""
    xi = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=group.dim, max_size=group.dim)))
    axis = xi[:3]
    norm = np.linalg.norm(axis)
    xi[:3] = (math.pi - draw(CUT_DISTANCES)) * (axis / norm if norm > 0.0 else np.eye(3)[0])
    return group.exp_matrix(xi)


@pytest.mark.parametrize("group", [SO3, SE3], ids=lambda g: g.name)
@settings(SAMPLED, max_examples=200)
@given(data=st.data())
def test_log_is_exact_up_to_its_cut_margin(group, data):
    ms = np.stack([data.draw(near_half_turns(group)) for _ in range(4)])
    scalar = np.stack([group.log_vector(m) for m in ms])
    batched = group.log_vectors(ms)
    assert batched.tobytes() == scalar.tobytes()
    for logs in (scalar, batched):
        assert np.max(np.abs(group.exp_matrices(logs) - ms)) <= 2e-15
        assert np.max(np.abs(np.stack([group.exp_matrix(v) for v in logs]) - ms)) <= 2e-15


@pytest.mark.parametrize("group", [SO3, SE3], ids=lambda g: g.name)
@settings(SAMPLED, max_examples=50)
@given(data=st.data(), angles=st.lists(st.one_of(st.floats(0.0, 3.0), CUT_DISTANCES.map(
    lambda d: math.pi - d)), min_size=1, max_size=6), nan_row=st.integers(0, 6))
def test_batched_logs_equal_the_scalar_logs_past_the_pivot_nan_rows_included(group, data, angles,
                                                                            nan_row):
    # A NaN off the diagonal leaves the angle finite, so the log returns NaN
    # entries rather than refusing; rows short of the pivot, past it and NaN
    # rows mix in one stack.  A NaN row has its NaNs in the same entries, but
    # past the pivot the sign bit of a NaN may differ.
    ms = np.stack([group.exp_matrix(data.draw(algebra(group, st.just(a), bound=1.0)))
                   for a in angles])
    bad = nan_row % len(ms)
    ms[bad, 0, 1] = np.nan
    want = np.stack([group.log_vector(m) for m in ms])
    got = group.log_vectors(ms)
    assert np.isnan(want[bad]).any()
    assert np.array_equal(got, want, equal_nan=True)
    assert np.delete(got, bad, axis=0).tobytes() == np.delete(want, bad, axis=0).tobytes()


@pytest.mark.parametrize("group", [SO2, SO3, SE3], ids=lambda g: g.name)
def test_log_refuses_a_nan_matrix(group):
    # The SO(2) kernels once returned NaN: abs(nan) >= pi - margin is false.
    nan = np.full((group.matrix_size, group.matrix_size), np.nan)
    with pytest.raises(CutLocusError):
        group.log_vector(nan)
    with pytest.raises(CutLocusError):
        group.log_vectors(np.stack([np.eye(group.matrix_size), nan]))


# -- cayley ---------------------------------------------------------------------


@SAMPLED
@given(data=st.data(), group=GROUPS)
def test_cayley_zero_and_group_membership(data, group):
    assert np.array_equal(lg.cayley(group, np.zeros(group.dim)).matrix,
                          np.eye(group.matrix_size))
    c = lg.cayley(group, data.draw(algebra(group)))
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
@SAMPLED
@given(data=st.data())
def test_hat_vee_roundtrip(group, data):
    v = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=group.dim,
                                    max_size=group.dim)))
    assert np.max(np.abs(group.vee(group.hat(v)) - v)) < 1e-14


@SAMPLED
@given(algebra(SO3), elements(SO3), algebra(SO3))
def test_adjoint_identity_and_rotation_oracle(xi, r, w):
    assert np.max(np.abs(lg.adjoint(lg.identity(SO3), xi) - xi)) < 1e-15
    # On SO(3) the adjoint action is the rotation itself.
    assert np.max(np.abs(lg.adjoint(r, w) - r.matrix @ w)) < 1e-12


@pytest.mark.parametrize("group", [SO3, SE3], ids=lambda g: g.name)
@SAMPLED
@given(data=st.data())
def test_adjoint_respects_bracket(group, data):
    g = data.draw(elements(group))
    xi, chi = data.draw(algebra(group)), data.draw(algebra(group))
    lhs = lg.adjoint(g, lg.bracket(group, xi, chi))
    rhs = lg.bracket(group, lg.adjoint(g, xi), lg.adjoint(g, chi))
    assert np.max(np.abs(lhs - rhs)) < 1e-11


@SAMPLED
@given(data=st.data(), group=GROUPS)
def test_adjoint_matches_matrix_conjugation(data, group):
    g, xi = data.draw(elements(group)), data.draw(algebra(group))
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
@SAMPLED
@given(data=st.data())
def test_norm_invariant_under_conjugation(group, data):
    g, h = data.draw(elements(group, LOG_ANGLES)), data.draw(elements(group))
    conj = lg.compose(h, lg.compose(g, lg.inverse(h)))
    assert abs(lg.conj_invariant_norm(conj) - lg.conj_invariant_norm(g)) < 1e-11


@SAMPLED
@given(elements(SE3, LOG_ANGLES), algebra(SO3))
def test_norm_se3_invariant_under_rotations(g, w):
    # The se(3) coordinate norm is preserved by conjugation with rotations
    # (no fully bi-invariant nondegenerate norm exists on SE(3)).
    h = lg.exp(SE3, np.concatenate([w, np.zeros(3)]))
    conj = lg.compose(h, lg.compose(g, lg.inverse(h)))
    assert abs(lg.conj_invariant_norm(conj) - lg.conj_invariant_norm(g)) < 1e-11


# -- long products ------------------------------------------------------------------


@settings(SAMPLED, max_examples=10)
@given(st.lists(elements(SO3), min_size=1, max_size=10))
def test_thousand_fold_composition_stays_orthonormal(word):
    # 1000 factors: the drawn word, repeated.
    acc = lg.identity(SO3)
    for i in range(1000):
        acc = lg.compose(acc, word[i % len(word)])
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


@pytest.mark.parametrize("group", [SO2, SO3, SE3], ids=lambda g: g.name)
@SAMPLED
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_check_matrix_refuses_exactly_the_reflections(group, seed, row):
    # The closed-form determinant's sign is LAPACK's on every near-orthonormal block.
    m = np.array(lg.random_element(group, np.random.default_rng(seed)).matrix)
    group.check_matrix(m)
    k = 3 if group is SE3 else group.matrix_size
    m[row % k, :k] *= -1.0
    assert np.linalg.det(m[:k, :k]) < 0.0
    with pytest.raises(ValueError, match=f"^{group.name}: rotation block has negative "
                                         "determinant$"):
        group.check_matrix(m)


@SAMPLED
@given(st.integers(0, 2**32 - 1), GROUPS)
def test_elements_are_immutable(seed, group):
    # random_algebra and random_element take a numpy Generator; hypothesis draws its seed.
    g = lg.random_element(group, np.random.default_rng(seed))
    for matrix in (lg.identity(group).matrix, g.matrix):
        with pytest.raises(ValueError):
            matrix[0, 0] = 2.0
    xi = lg.random_algebra(group, np.random.default_rng(seed))
    with pytest.raises(ValueError):
        xi[0] = 3.0


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
@SAMPLED
@given(data=st.data())
def test_kernel_outputs_are_read_only(group, data):
    g, h = data.draw(elements(group)), data.draw(elements(group))
    xi, eta = data.draw(algebra(group, bound=1.5)), data.draw(algebra(group, bound=1.5))
    arrays = [
        lg.identity(group).matrix, lg.compose(g, h).matrix, lg.inverse(g).matrix,
        lg.exp(group, xi).matrix, lg.cayley(group, xi).matrix, lg.log(g),
        lg.adjoint(g, xi), lg.bracket(group, xi, eta), lg.adjoint_matrix(g),
    ]
    for a in arrays:
        assert not a.flags.writeable


def test_constructors_copy_the_callers_array():
    m = np.eye(3)
    g = lg.element(SO3, m)
    m[0, 0] = 2.0
    assert g.matrix[0, 0] == 1.0
