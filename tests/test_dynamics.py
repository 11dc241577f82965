import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeflow.conserved import integrals, multiset_distance
from chargeflow.dynamics import (
    FlowSpec,
    _coeff_velocity,
    _min_separation,
    integrate,
    integrate_lanes,
    monitors,
    phi_identity_i1,
    phi_identity_i2,
    reduced_velocity_residual,
    rhs_flat,
    state_residual,
    symmetric_reduce,
)
from chargeflow.errors import Collision, SymmetryViolation, ValidationError
from chargeflow.operators import SystemCoefficients
from chargeflow.polynomials import Polynomial, find_roots, from_roots, hermite

BASE = 2 * math.pi


def two_species(xs, ys):
    """A two-species state: the positions xs, then ys."""
    return np.array([*xs, *ys], dtype=complex)


def rand_state(rng, n, m, scale=1.0):
    while True:
        pts = rng.normal(size=n + m) * scale + 1j * rng.normal(size=n + m) * scale
        seps = [
            abs(pts[i] - pts[j])
            for i in range(n + m)
            for j in range(i + 1, n + m)
        ]
        if not seps or min(seps) > 0.3 * scale:
            return pts


# -- right-hand sides -----------------------------------------------------------


def test_rhs_linear_single_root():
    sys = SystemCoefficients.linear([1.0], [0.0, -2.0])
    flow = FlowSpec.linear(sys, 1)
    state = np.array([0.37 + 0.11j])
    (v,) = rhs_flat(flow, state)
    assert abs(v - 2 * (0.37 + 0.11j)) < 1e-15


def test_rhs_rational_omega_single():
    flow = FlowSpec.rational_omega(1.3, 1.0, 1, 0)
    state = two_species([0.5 + 0.2j], [])
    (v,) = rhs_flat(flow, state)
    # i dx/dt = omega x
    assert abs(1j * v - 1.3 * (0.5 + 0.2j)) < 1e-15


def test_rhs_angular_two_body():
    flow = FlowSpec.angular(1, 1)
    phi0, th0 = 1.1, 0.3
    state = two_species([phi0], [th0])
    vphi, vth = rhs_flat(flow, state)
    rate = 2.0 / math.tan(phi0 - th0)
    assert abs(vphi - rate) < 1e-14
    assert abs(vth - rate) < 1e-14


def test_rhs_bilinear_agrees_with_polylinear():
    rng = np.random.default_rng(3)
    Lam = 1.7
    sysb = SystemCoefficients.bilinear([0.5, 0.2, 1.0], [0.1, -2.0], Lambda=Lam)
    sysp = SystemCoefficients.polylinear([0.5, 0.2, 1.0], [0.1, -2.0], [1.0, -Lam])
    z = rand_state(rng, 4, 2)
    va = rhs_flat(FlowSpec.bilinear(sysb, 4, 2), z)
    vb = rhs_flat(FlowSpec.polylinear(sysp, (4, 2)), z)
    assert np.max(np.abs(va - vb)) == 0.0


def test_rhs_rational_omega_agrees_with_polylinear():
    rng = np.random.default_rng(4)
    Lam, omega = 0.8, 1.4
    flow = FlowSpec.rational_omega(omega, Lam, 3, 2)
    sysp = SystemCoefficients.polylinear(
        [1j], [0.0, 1j * omega], [1.0, -Lam]
    )
    z = rand_state(rng, 3, 2)
    va = rhs_flat(flow, z)
    vb = rhs_flat(FlowSpec.polylinear(sysp, (3, 2)), z)
    assert np.max(np.abs(va - vb)) == 0.0


# -- reference double loops for the shared pair kernel ---------------------------


def naive_rhs(flow, z):
    """Per-kind double loops: the angular flow's four cotangent sums, and
    -2 P sum_j Q_j/(z_i - z_j) - U - (Q_i/2) P' for the planar flows (no
    P' term for the linear flow)."""
    z = [complex(v) for v in z]
    if flow.sys is None:
        n, m = flow.sizes
        phi, theta = z[:n], z[n:]
        out = []
        for i in range(n):
            acc = sum(-2.0 / cmath.tan(phi[i] - phi[j]) for j in range(n) if j != i)
            out.append(acc + sum(2.0 / cmath.tan(phi[i] - t) for t in theta))
        for i in range(m):
            acc = sum(2.0 / cmath.tan(theta[i] - theta[j]) for j in range(m) if j != i)
            out.append(acc - sum(2.0 / cmath.tan(theta[i] - p) for p in phi))
        return np.array(out)
    P, U = flow.sys.P.to_float(), flow.sys.U.to_float()
    dP = P.derivative()
    charged = flow.sys.charges is not None
    species_q = [complex(q).real for q in flow.sys.charges] if charged else [1.0]
    q = [qs for qs, size in zip(species_q, flow.sizes) for _ in range(size)]
    out = []
    for i, zi in enumerate(z):
        pair = sum(q[j] / (zi - z[j]) for j in range(len(z)) if j != i)
        v = -2.0 * P(zi) * pair - U(zi)
        if charged:
            v -= 0.5 * q[i] * dP(zi)
        out.append(v)
    return np.array(out)


def assert_rel_close(a, b, rtol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= rtol * max(1.0, np.max(np.abs(b), initial=0.0))


_QUARTIC = SystemCoefficients.linear(
    [1.0, 0.3, 0.2, 0.1, 0.05], [0.1, -1.0, 0.2, -0.3]
)
_BILINEAR = SystemCoefficients.bilinear([0.5, 0.2, 1.0], [0.1, -2.0], Lambda=1.7)
_POLY3 = SystemCoefficients.polylinear(
    [1.0, 0.3, 0.2], [0.2, -1.0], [1.0, 2.5, -0.7]
)

KERNEL_FLOWS = {
    "linear_quartic": FlowSpec.linear(_QUARTIC, 5),
    "linear_single": FlowSpec.linear(_QUARTIC, 1),
    "bilinear": FlowSpec.bilinear(_BILINEAR, 4, 2),
    "polylinear_3species": FlowSpec.polylinear(_POLY3, (3, 2, 2)),
    "polylinear_n30": FlowSpec.polylinear(_POLY3, (12, 10, 8)),
    "rational_omega": FlowSpec.rational_omega(1.3, 0.8, 3, 2),
    "rational_omega_single": FlowSpec.rational_omega(1.0, 1.0, 1, 0),
    "rational_omega_empty_species": FlowSpec.rational_omega(1.2, 0.7, 2, 0),
    "rational_omega_n30": FlowSpec.rational_omega(1.0, 1.0, 20, 10),
    "angular": FlowSpec.angular(3, 2),
    "angular_single": FlowSpec.angular(1, 0),
    "angular_n30": FlowSpec.angular(16, 14),
}


def kernel_points(flow, seed):
    rng = np.random.default_rng(seed)
    n = sum(flow.sizes)
    if flow.sys is None:  # angles, slightly off the real line
        return rng.uniform(0, math.pi, size=n) + 0.05j * rng.normal(size=n)
    return rng.normal(size=n) * 1.4 + 1j * rng.normal(size=n)


@pytest.mark.parametrize("name", sorted(KERNEL_FLOWS))
def test_rhs_matches_double_loops(name):
    flow = KERNEL_FLOWS[name]
    for seed in range(3):
        z = kernel_points(flow, seed)
        assert_rel_close(rhs_flat(flow, z), naive_rhs(flow, z))


@pytest.mark.parametrize("name", sorted(KERNEL_FLOWS))
def test_min_separation_matches_double_loop(name):
    flow = KERNEL_FLOWS[name]
    z = kernel_points(flow, 11)
    angular = flow.sys is None
    best = math.inf
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            d = abs(math.sin((z[i] - z[j]).real)) if angular else abs(z[i] - z[j])
            best = min(best, d)
    got = _min_separation(flow, z)
    if best == math.inf:  # fewer than two particles
        assert got == math.inf
    else:
        assert abs(got - best) <= 1e-12 * best


def test_min_separation_no_particles():
    flow = FlowSpec.rational_omega(1.0, 1.0, 0, 0)
    assert _min_separation(flow, np.zeros(0, dtype=complex)) == math.inf


def test_flowspec_derived_data_outside_equality():
    a = FlowSpec.rational_omega(1.3, 0.8, 3, 2)
    b = FlowSpec.rational_omega(1.3, 0.8, 3, 2)
    assert a == b and hash(a) == hash(b)
    assert a.charges == (1.0, -0.8)
    assert np.array_equal(a.q, [1, 1, 1, -0.8, -0.8])
    assert np.array_equal(a.w, 0.5 * a.q)
    assert FlowSpec.angular(2, 1).charges == (1.0, -1.0)
    assert not np.any(FlowSpec.linear(_QUARTIC, 3).w)


def test_flow_and_its_system_cannot_disagree():
    # a linear flow of a charged system used to drop its charges silently,
    # and a two-species flow of a linear system failed with a TypeError
    charged = SystemCoefficients.bilinear([1.0], [0, -2.0], Lambda=1.5)
    with pytest.raises(ValidationError, match="1 species sizes for 2 charges"):
        FlowSpec.linear(charged, 3)
    with pytest.raises(ValidationError, match="2 species sizes for 1 charges"):
        FlowSpec.bilinear(SystemCoefficients.linear([1.0], [0, -2.0]), 2, 1)
    assert FlowSpec(charged, (3, 1)) == FlowSpec.bilinear(charged, 3, 1)
    assert FlowSpec.linear(_QUARTIC, 3).omega is None
    assert FlowSpec.rational_omega(1.3, 0.8, 3, 2).omega == 1.3
    assert FlowSpec.angular(2, 1).omega is None


def test_rhs_collision_guard():
    flow = FlowSpec.rational_omega(1.0, 1.0, 2, 0)
    state = two_species([0.1, 0.1 + 1e-9], [])
    with pytest.raises(Collision):
        integrate(flow, state, 1.0)


# -- integrator ----------------------------------------------------------------


def test_a_start_of_the_wrong_width_is_a_validation_error():
    # a width-3 start under a (2, 2) flow failed inside numpy's matmul
    # with a ValueError; a stack of them does too
    flow = FlowSpec.rational_omega(1.0, 1.0, 2, 2)
    z0 = np.array([1.0 + 0.2j, -0.8 + 0.9j, 0.3 - 1.1j])
    with pytest.raises(ValidationError, match=r"starts of shape \(1, 3\) for a flow of 4 positions"):
        integrate(flow, z0, 1.0)
    with pytest.raises(ValidationError, match=r"starts of shape \(2, 3\) for a flow of 4 positions"):
        integrate_lanes(flow, np.array([z0, -z0]), [0.0, 1.0])
    with pytest.raises(ValidationError, match=r"starts of shape \(4,\)"):
        integrate_lanes(flow, np.append(z0, 2.0), [0.0, 1.0])


def test_the_flow_splits_and_charges_a_start():
    # A start is its positions only, so a split or charges of its own have
    # nowhere to go: sizes (3, 1) with a second charge of 7 once rode along
    # and were ignored.  The same four positions integrate under the (2, 2)
    # flow's charges (+1, +1, -1, -1): with P' = 0 the pair terms cancel in
    # the charge moment M = sum q_i z_i, which obeys dM/dt = -i omega M.
    flow = FlowSpec.rational_omega(1.0, 1.0, 2, 2)
    z0 = np.array([1.0 + 0.2j, -0.8 + 0.9j, 0.3 - 1.1j, 1.5 + 1.4j])
    traj = integrate(flow, z0, 1.0, rtol=1e-12, atol=1e-14, n_samples=5)
    moment = traj.positions @ np.array([1.0, 1.0, -1.0, -1.0])
    assert np.max(np.abs(moment - moment[0] * np.exp(-1j * traj.times))) < 1e-10
    # the (3, 1) split's charges (+1, +1, +1, -1) are not what moved them
    other = traj.positions @ np.array([1.0, 1.0, 1.0, -1.0])
    assert np.max(np.abs(other - other[0] * np.exp(-1j * traj.times))) > 1e-2


def test_integrate_single_particle_period():
    flow = FlowSpec.rational_omega(1.0, 1.0, 1, 0)
    init = two_species([1.0], [])
    traj = integrate(flow, init, BASE, rtol=1e-10, atol=1e-12, n_samples=65)
    final = traj.positions[-1, 0]
    assert abs(final - 1.0) < 1e-8
    # quarter period: x = e^{-i pi/2} = -i
    quarter = traj.positions[16, 0]
    assert abs(quarter - (-1j)) < 1e-8


def test_integrate_zero_time():
    flow = FlowSpec.rational_omega(1.0, 1.0, 1, 0)
    init = two_species([0.3 + 0.4j], [])
    traj = integrate(flow, init, 0.0)
    assert len(traj.positions) == 1
    assert traj.positions[0, 0] == 0.3 + 0.4j


def test_integrate_zero_time_shape():
    flow = FlowSpec.rational_omega(1.0, 1.0, 3, 2)
    init = rand_state(np.random.default_rng(5), 3, 2)
    traj = integrate(flow, init, 0.0)
    assert traj.positions.shape == (1, 5)
    assert np.array_equal(traj.times, [0.0])
    assert np.array_equal(traj.positions[0], init)


def test_integrate_hermite_equilibrium_stationary():
    # roots of H6 are a fixed point of the constant-field flow
    sysb = SystemCoefficients.bilinear([1.0], [0.0, -2.0], Lambda=1.0)
    flow = FlowSpec.bilinear(sysb, 6, 0)
    roots = sorted(find_roots(hermite(6)), key=lambda z: z.real)
    init = two_species(roots, [])
    traj = integrate(flow, init, 1.0, rtol=1e-12, atol=1e-14, n_samples=9)
    drift = max(
        multiset_distance(init[:6], z[:6])
        for z in traj.positions
    )
    assert drift < 1e-9


def test_integrate_convergence_order():
    flow = FlowSpec.rational_omega(1.0, 1.0, 1, 0)
    init = two_species([1.0], [])
    errs = []
    for h in (0.1, 0.05, 0.025):
        traj = integrate(flow, init, BASE, fixed_step=h, n_samples=2)
        errs.append(abs(traj.positions[-1, 0] - 1.0))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    assert all(20 < r < 45 for r in ratios)


def test_integrate_tolerance_halving_monotone():
    flow = FlowSpec.rational_omega(1.0, 1.0, 1, 0)
    init = two_species([1.0], [])
    errs = []
    for rtol in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
        traj = integrate(flow, init, BASE, rtol=rtol, atol=rtol * 1e-2,
                         n_samples=2)
        errs.append(abs(traj.positions[-1, 0] - 1.0))
    assert all(a > b for a, b in zip(errs, errs[1:]))


# -- half-period return at Lambda = 1 --------------------------------------------

# ROADMAP item 2's table: relative half-period error max|z(pi) + z0| / max|z0|
# over three starts per N, at atol = rtol / 100, as (lowest, highest)
_HALF_PERIOD_TABLE = {
    7: {1e-6: (5.6e-6, 7.2e-6), 1e-8: (5.1e-8, 8.9e-8), 1e-10: (3.2e-10, 1.1e-9), 1e-12: (2.9e-12, 1.1e-11)},
    30: {1e-6: (2.6e-4, 1.8e-3), 1e-8: (2.8e-7, 1.0e-6), 1e-10: (2.5e-9, 7.4e-9), 1e-12: (1.9e-11, 6.0e-11)},
}


def _separated_starts(n_total, count, seed, scale=1.8, min_sep=0.36):
    """``count`` Gaussian starts (per-axis sd ``scale``) whose pair
    distances all exceed ``min_sep``, as the trap benchmark draws them."""
    rng = np.random.default_rng(seed)
    starts = []
    while len(starts) < count:
        z = rng.normal(size=n_total) * scale + 1j * rng.normal(size=n_total) * scale
        dist = np.abs(z[:, None] - z[None, :]) + np.diag(np.full(n_total, np.inf))
        if dist.min() > min_sep:
            starts.append(z)
    return np.array(starts)


def _half_period_errors(flow, Z0, rtol):
    """Per start, the largest per-species ``multiset_distance`` between
    z(pi / omega) and -z0, over max|z0|."""
    lanes = integrate_lanes(flow, Z0, [0.0, math.pi / flow.omega], rtol=rtol, atol=rtol / 100)
    split = np.cumsum(flow.sizes)[:-1]
    errs = []
    for z0, traj in zip(Z0, lanes):
        assert not isinstance(traj, Exception), traj
        pairs = zip(np.split(traj.positions[-1], split), np.split(-z0, split))
        errs.append(max(multiset_distance(a, b) for a, b in pairs) / np.max(np.abs(z0)))
    return errs


@pytest.mark.parametrize(
    "omega, n, m", [(1.0, 6, 1), (1.0, 3, 2), (1.0, 4, 4), (1.0, 20, 10), (0.5, 5, 3), (2.0, 5, 3)]
)
def test_lambda_one_trap_returns_to_minus_start_at_half_period(omega, n, m):
    # at rtol 1e-10: 10x the table's highest N = 7 reading for N <= 8, and
    # 100x its highest N = 30 one, since three starts understate that
    # column's spread (twenty starts drawn this way read up to 3.3e-7)
    flow = FlowSpec.rational_omega(omega, 1.0, n, m)
    column = 7 if n + m <= 8 else 30
    bound = (10 if column == 7 else 100) * _HALF_PERIOD_TABLE[column][1e-10][1]
    assert max(_half_period_errors(flow, _separated_starts(n + m, 3, seed=100 * n + m), 1e-10)) < bound


@pytest.mark.parametrize("n, m", [(4, 3), (20, 10)])
def test_half_period_error_falls_with_rtol(n, m):
    # each 100x tighter rtol cuts every start's error more than 10x (twenty
    # starts read at least 36x), and each reading stays within 100x of the
    # table's range for its rtol
    flow = FlowSpec.rational_omega(1.0, 1.0, n, m)
    table = _HALF_PERIOD_TABLE[n + m]
    starts = _separated_starts(n + m, 3, seed=n + m)
    errs = [_half_period_errors(flow, starts, rtol) for rtol in table]
    for (lo, hi), row in zip(table.values(), errs):
        assert all(lo / 100 <= e <= 100 * hi for e in row), row
    for loose, tight in zip(errs, errs[1:]):
        assert all(a > 10 * b for a, b in zip(loose, tight)), (loose, tight)


def test_collision_during_integration_localized():
    # two same-sign angular charges attract and collide in finite time
    flow = FlowSpec.angular(3, 2)
    angs = np.array([0.2, 0.9, 1.6, 2.6, 3.9])
    init = two_species(angs[:3], angs[3:])
    with pytest.raises(Collision) as err:
        integrate(flow, init, 0.5, rtol=1e-11, atol=1e-13, n_samples=11)
    assert err.value.time is not None
    assert 0.0 < err.value.time < 0.5


# -- monitors -------------------------------------------------------------------


@pytest.mark.parametrize("Lam", [1.0, 1.213579, 0.5])
def test_residual_random_states(Lam):
    rng = np.random.default_rng(21)
    flow = FlowSpec.rational_omega(1.0, Lam, 3, 2)
    for _ in range(3):
        state = rand_state(rng, 3, 2)
        assert state_residual(flow, state) < 1e-10


def test_residual_hermite_field_random_state():
    rng = np.random.default_rng(22)
    sysb = SystemCoefficients.bilinear([1.0], [0.0, -2.0], Lambda=1.0)
    flow = FlowSpec.bilinear(sysb, 3, 2)
    state = rand_state(rng, 3, 2)
    assert state_residual(flow, state) < 1e-10


def test_residual_along_trajectory_monitor():
    flow = FlowSpec.rational_omega(1.0, 1.213579, 6, 1)
    rng = np.random.default_rng(2)
    init = rand_state(rng, 6, 1)
    traj = integrate(flow, init, 2 * BASE, rtol=1e-10, atol=1e-12, n_samples=2 * 128 + 1)
    worst = max(monitors(traj)["bilinear_residual"])
    assert worst < 1e-8


def test_residual_zero_at_equilibrium_state():
    # a fixed point evolves nothing, so the identity residual is the
    # (zero) operator norm itself
    sysb = SystemCoefficients.bilinear([1.0], [0.0, -2.0], Lambda=1.0)
    flow = FlowSpec.bilinear(sysb, 6, 0)
    roots = sorted(find_roots(hermite(6)), key=lambda z: z.real)
    state = two_species(roots, [])
    assert state_residual(flow, state) < 1e-12


def test_bilinear_residual_sample_api():
    flow = FlowSpec.rational_omega(1.0, 1.0, 2, 1)
    rng = np.random.default_rng(19)
    init = rand_state(rng, 2, 1)
    traj = integrate(flow, init, 1.0, rtol=1e-10, atol=1e-12, n_samples=5)
    residuals = monitors(traj)["bilinear_residual"]
    assert len(residuals) == len(traj.positions)
    for k, val in enumerate(residuals):
        assert val == state_residual(flow, traj.positions[k])
        assert val < 1e-10


def test_monitor_columns_match_per_sample_monitors():
    flow = FlowSpec.rational_omega(1.0, 1.0, 3, 2)
    init = rand_state(np.random.default_rng(9), 3, 2)
    traj = integrate(flow, init, 1.0, rtol=1e-10, atol=1e-12, n_samples=9)
    mon = monitors(traj)
    S, K = 9, 2 * 5 - 1
    assert set(mon) == {"min_separation", "bilinear_residual", "charge_moment", "conserved"}
    for key in ("min_separation", "bilinear_residual", "charge_moment"):
        assert mon[key].shape == (S,)
    assert mon["conserved"].shape == (S, K)
    for k, z in enumerate(traj.positions):
        assert mon["min_separation"][k] == _min_separation(flow, z)
        assert mon["bilinear_residual"][k] == state_residual(flow, z)
        # Z @ q and q @ z sum in different orders: N eps of the summed magnitudes
        bound = len(z) * np.finfo(float).eps * (np.abs(flow.q) @ np.abs(z))
        assert abs(mon["charge_moment"][k] - flow.q @ z) <= bound
        assert np.array_equal(mon["conserved"][k], integrals(z, flow))


STACK_FLOWS = [
    FlowSpec.rational_omega(1.0, 1.213579, 4, 2),
    FlowSpec.polylinear(
        SystemCoefficients.polylinear([1.0, 0.3, 0.2], [0.2, -1.0], [1.0, 2.5, -0.7]), (3, 2, 2)
    ),
    FlowSpec.linear(SystemCoefficients.linear([1.0, 0.0, 0.5], [0.0, -2.0]), 5),
    FlowSpec.angular(3, 2),
]
STACK_IDS = ["trap", "three_species", "linear", "angular"]


@pytest.mark.parametrize("flow", STACK_FLOWS, ids=STACK_IDS)
def test_stacked_rhs_and_separation_match_rows_bit_for_bit(flow):
    rng = np.random.default_rng(37)
    N = sum(flow.sizes)
    Z = rng.normal(size=(33, N)) + 1j * rng.normal(size=(33, N))
    V = rhs_flat(flow, Z)
    assert V.shape == (33, N)
    assert np.array_equal(V, np.array([rhs_flat(flow, z) for z in Z]))
    sep = _min_separation(flow, Z)
    assert sep.shape == (33,)
    rows = [_min_separation(flow, z) for z in Z]
    assert all(isinstance(r, float) for r in rows)
    assert sep.tolist() == rows


@pytest.mark.parametrize(
    "flow",
    [
        FlowSpec.rational_omega(1.0, 1.213579, 4, 2),
        FlowSpec.polylinear(
            SystemCoefficients.polylinear([1.0, 0.3, 0.2], [0.2, -1.0], [1.0, 2.5, -0.7]), (3, 2, 2)
        ),
    ],
    ids=["trap", "three_species"],
)
def test_stacked_state_residual_matches_rows_bit_for_bit(flow):
    rng = np.random.default_rng(31)
    Z = rng.normal(size=(6, sum(flow.sizes))) + 1j * rng.normal(size=(6, sum(flow.sizes)))
    stacked = state_residual(flow, Z)
    assert stacked.shape == (6,)
    rows = [state_residual(flow, z) for z in Z]
    assert all(isinstance(r, float) for r in rows)
    assert stacked.tolist() == rows


def _deflate_by_one_root(p, root):
    """Synthetic division of a float polynomial by (z - root), one
    coefficient at a time: the quotient and the remainder."""
    coeffs = p.coeffs
    n = len(coeffs) - 1
    out = [0] * n
    acc = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = coeffs[k] + acc * root
    return Polynomial(out), acc


def _coeff_velocity_by_root(roots, velocities):
    """``_coeff_velocity`` as a fold over the roots in Polynomial
    arithmetic: dp/dt = -sum_i v_i p / (z - root_i)."""
    p = from_roots(roots)
    total = Polynomial.zero()
    for r, v in zip(roots, velocities):
        quotient, _ = _deflate_by_one_root(p, r)
        total = total - quotient.scale(v)
    return p, total


# finite values with the signed zeros, so a resting root and exact zero
# products come up
_entries = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False), st.sampled_from([0.0, -0.0])
)


@st.composite
def _root_stacks(draw):
    """(n, S) roots and velocities: the columns of S states of one species."""
    n, S = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    table = st.lists(st.builds(complex, _entries, _entries), min_size=n * S, max_size=n * S)
    roots, velocities = (np.array(draw(table), dtype=complex).reshape(n, S) for _ in range(2))
    return roots, velocities


@settings(max_examples=150, deadline=None)
@given(_root_stacks())
def test_coeff_velocity_matches_the_fold_over_roots_bit_for_bit(stack):
    roots, velocities = stack
    p, dp = _coeff_velocity(roots, velocities)
    p_ref, dp_ref = _coeff_velocity_by_root(roots, velocities)
    assert dp.exact == dp_ref.exact and len(dp.floats) == len(dp_ref.floats)
    # the fold skips a root at rest in every state (its term is the zero
    # polynomial), the whole-array sum adds its signed zeros: the sign of
    # a zero may differ then, and nothing else
    resting = not np.all(np.any(velocities != 0, axis=1))
    for got, want in zip(dp.floats, dp_ref.floats):
        got, want = np.broadcast_arrays(got, want)
        assert np.array_equal(got, want) if resting else got.tobytes() == want.tobytes()


def test_charge_moment_oscillates_with_base_frequency():
    # M = sum x - Lambda sum y obeys i dM/dt = omega M exactly
    flow = FlowSpec.rational_omega(1.0, 0.75, 3, 2)
    rng = np.random.default_rng(14)
    init = rand_state(rng, 3, 2)
    traj = integrate(flow, init, BASE, rtol=1e-11, atol=1e-13, n_samples=33)
    moments = monitors(traj)["charge_moment"]
    m0 = moments[0]
    for t, moment in zip(traj.times, moments):
        expected = m0 * np.exp(-1j * t)
        assert abs(moment - expected) < 1e-7


def test_angular_center_of_mass_conserved():
    flow = FlowSpec.angular(3, 2)
    angs = np.array([0.2, 0.9, 1.6, 2.6, 3.9])
    init = two_species(angs[:3], angs[3:])
    traj = integrate(flow, init, 0.02, rtol=1e-11, atol=1e-13, n_samples=11)
    moms = monitors(traj)["charge_moment"]
    assert max(abs(m - moms[0]) for m in moms) < 1e-9


# -- symmetric reduction ----------------------------------------------------------


def symmetric_init(rng, l):
    xs = rng.normal(size=l) * 0.9 + 1j * rng.normal(size=l) * 0.5 + 0.6
    pts = np.concatenate([xs, -xs])
    return np.concatenate([pts, [0j]])


def test_symmetric_reduce_single_pair():
    state = np.array([0.8 + 0.1j, -0.8 - 0.1j, 0j])
    flow = FlowSpec.rational_omega(1.0, 0.7, 2, 1)
    (z,) = symmetric_reduce(state, flow)
    assert abs(z - (0.8 + 0.1j) ** 2) < 1e-14
    # single pair: i dz/dt = 2(1 - 2 Lambda) + 2 omega z exactly
    assert reduced_velocity_residual(flow, state) < 1e-12


def test_symmetric_reduce_asymmetric_rejected():
    state = np.array([0.8, -0.7, 0j])
    with pytest.raises(SymmetryViolation):
        symmetric_reduce(state, FlowSpec.rational_omega(1.0, 1.0, 2, 1))


def test_symmetric_reduce_offset_second_species_rejected():
    state = np.array([0.8, -0.8, 0.5 + 0j])
    with pytest.raises(SymmetryViolation):
        symmetric_reduce(state, FlowSpec.rational_omega(1.0, 1.0, 2, 1))


def test_symmetry_preserved_and_reduction_matches():
    rng = np.random.default_rng(8)
    Lam = 0.8
    init = symmetric_init(rng, 2)
    flow = FlowSpec.rational_omega(1.0, Lam, 4, 1)
    traj = integrate(flow, init, 2 * BASE, rtol=1e-11, atol=1e-13, n_samples=65)
    for z in traj.positions:
        xs = list(z[:4])
        neg = [-x for x in xs]
        assert multiset_distance(xs, neg) < 1e-7
        assert abs(z[4]) < 1e-7
        assert reduced_velocity_residual(flow, z) < 1e-8


def test_symmetry_persists_five_periods():
    rng = np.random.default_rng(15)
    Lam = 1.3
    init = symmetric_init(rng, 2)
    flow = FlowSpec.rational_omega(1.0, Lam, 4, 1)
    traj = integrate(flow, init, 5 * BASE, rtol=1e-11, atol=1e-13, n_samples=5 * 32 + 1)
    worst = max(
        multiset_distance(z[:4], [-x for x in z[:4]])
        for z in traj.positions
    )
    assert worst < 1e-7


# -- functional identity sums -----------------------------------------------------


def test_identity_sums_inverse():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 7))
        xs = list(rng.normal(size=n) * 2)
        ys = list(rng.normal(size=m) * 2 + 5)
        phi = lambda x: 1.0 / x
        i1, pair = phi_identity_i1(xs, phi)
        assert abs(i1 - pair) < 1e-10 * max(1, abs(i1))
        assert abs(phi_identity_i2(xs, ys, phi)) < 1e-10


def test_identity_sums_coth_with_offsets():
    # coth satisfies the pair product equation with constant -1, which
    # shifts I1 by 2 C(n,3) and I2 by n m (m - n)
    rng = np.random.default_rng(8)
    phi = lambda x: 1.0 / np.tanh(x)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 7))
        xs = list(rng.normal(size=n) * 1.5)
        ys = list(rng.normal(size=m) * 1.5 + 5)
        i1, pair = phi_identity_i1(xs, phi)
        offset1 = 2.0 * (n * (n - 1) * (n - 2) // 6)
        assert abs(i1 - pair - offset1) < 1e-9
        i2 = phi_identity_i2(xs, ys, phi)
        assert abs(i2 - n * m * (m - n)) < 1e-9


def _i1_by_loops(xs, phi):
    """phi_identity_i1 as the scalar loops it replaced: the reference."""
    n = len(xs)
    total = 0.0
    for c in range(n):
        acc = 0.0
        for i in range(n):
            if i != c:
                acc += phi(xs[c] - xs[i])
        total += acc * acc
    pair = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            pair += phi(xs[i] - xs[j]) ** 2
    return total, 2.0 * pair


def _i2_terms_by_loops(xs, ys, phi):
    """The four triple sums T1..T4 of phi_identity_i2 = 2 T1 - 2 T2 + T3 - T4
    as the scalar loops it replaced: the reference."""
    N, M = len(xs), len(ys)
    t1 = 0.0
    for m in range(M):
        for i in range(N):
            for j in range(N):
                if j != i:
                    t1 += phi(xs[j] - ys[m]) * phi(xs[i] - xs[j])
    t2 = 0.0
    for m in range(N):
        for i in range(M):
            for j in range(M):
                if j != i:
                    t2 += phi(ys[j] - xs[m]) * phi(ys[i] - ys[j])
    t3 = 0.0
    for m in range(N):
        for i in range(N):
            for j in range(M):
                t3 += phi(ys[j] - xs[m]) * phi(xs[i] - ys[j])
    t4 = 0.0
    for m in range(M):
        for i in range(M):
            for j in range(N):
                t4 += phi(xs[j] - ys[m]) * phi(ys[i] - xs[j])
    return t1, t2, t3, t4


@pytest.mark.parametrize(
    "phi",
    [lambda x: 1.0 / x, lambda x: 1.0 / np.tanh(x), lambda x: np.exp(0.3 * x) + x * x],
    ids=["inverse", "coth", "neither_odd_nor_even"],
)
def test_identity_sums_match_the_scalar_loops(phi):
    # within 1e-12 of the sum of the terms' moduli (I2 cancels to about 0
    # for the first two phi, which satisfy the functional equation)
    rng = np.random.default_rng(11)
    size = lambda x: np.abs(phi(x))
    for _ in range(40):
        n, m = int(rng.integers(1, 9)), int(rng.integers(0, 9))
        xs, ys = rng.normal(size=n) * 1.5, rng.normal(size=m) * 1.5 + 4.0
        (i1, pair), (ref_i1, ref_pair) = phi_identity_i1(xs, phi), _i1_by_loops(xs, phi)
        assert abs(i1 - ref_i1) <= 1e-12 * _i1_by_loops(xs, size)[0]
        assert abs(pair - ref_pair) <= 1e-12 * ref_pair
        t1, t2, t3, t4 = _i2_terms_by_loops(xs, ys, phi)
        s1, s2, s3, s4 = _i2_terms_by_loops(xs, ys, size)
        ref_i2 = 2.0 * t1 - 2.0 * t2 + t3 - t4
        assert abs(phi_identity_i2(xs, ys, phi) - ref_i2) <= 1e-12 * (2.0 * s1 + 2.0 * s2 + s3 + s4)


# -- Hamiltonian embedding (finite differences) ----------------------------------


def test_embedding_constant_field_newton():
    # d2x/dt2 = dV+/dx and d2y/dt2 = dV-/dy for the charge-ratio-1 flow
    sysb = SystemCoefficients.bilinear([1.0], [0.0, -2.0], Lambda=1.0)
    flow = FlowSpec.bilinear(sysb, 3, 2)
    pts = np.array([1.5 + 0.2j, -1.3 + 0.5j, 0.1 - 1.2j, 2.2 - 0.8j, -1.9 - 1.1j])
    init = two_species(pts[:3], pts[3:])
    h = 1e-3
    traj = integrate(flow, init, 10 * h, rtol=1e-13, atol=1e-15, n_samples=11)
    Z = traj.positions
    mid = 5
    xdd = (Z[mid + 1] - 2 * Z[mid] + Z[mid - 1]) / h**2

    def grad_vpm(group):
        g = np.zeros(len(group), dtype=complex)
        for i in range(len(group)):
            for j in range(len(group)):
                if i != j:
                    g[i] += -8.0 / (group[i] - group[j]) ** 3
            g[i] += (-2.0 * group[i]) * (-2.0)
        return g

    gx = grad_vpm(Z[mid][:3])
    gy = grad_vpm(Z[mid][3:])
    assert np.max(np.abs(xdd[:3] - gx)) <= 1e-4 * np.max(np.abs(gx))
    assert np.max(np.abs(xdd[3:] - gy)) <= 1e-4 * np.max(np.abs(gy))


def test_embedding_quartic_linear_newton():
    # quartic P: d2z/dt2 / P - P'(dz/dt)^2/(2P^2) = dV/dz
    from chargeflow.conserved import linear_potential

    n = 4
    E = 0.125
    D = 0.0625
    sysl = SystemCoefficients.linear(
        [1.0, 0, 0, D, E], [0.2, -1.0, 0.3, -2 * (n - 1) * E]
    )
    flow = FlowSpec.linear(sysl, n)
    pts = np.array([1.1 + 0.3j, -0.9 + 0.6j, 0.2 - 1.0j, -0.3 + 1.4j])
    h = 1e-3
    traj = integrate(flow, pts, 10 * h, rtol=1e-13, atol=1e-15, n_samples=11)
    Z = traj.positions
    mid = 5
    xdd = (Z[mid + 1] - 2 * Z[mid] + Z[mid - 1]) / h**2
    xd = (Z[mid + 1] - Z[mid - 1]) / (2 * h)
    zs = Z[mid]
    P = sysl.P
    dP = P.derivative()
    Pv = np.array([P(z) for z in zs])
    dPv = np.array([dP(z) for z in zs])
    lhs = xdd / Pv - dPv * xd**2 / (2 * Pv**2)
    eps = 1e-6
    grad = np.zeros(n, dtype=complex)
    for i in range(n):
        zp, zm = zs.copy(), zs.copy()
        zp[i] += eps
        zm[i] -= eps
        grad[i] = (linear_potential(zp, sysl) - linear_potential(zm, sysl)) / (2 * eps)
    assert np.max(np.abs(lhs - grad)) <= 1e-4 * np.max(np.abs(grad))
