import math

import numpy as np
import pytest

from chargeflow.conserved import (
    detect_period,
    hamiltonians,
    integrals,
    lax,
    multiset_distance,
    split_potential,
)
from chargeflow.dynamics import _SAMPLE_BLOCK, FlowSpec, integrate, over_samples, rhs_flat
from chargeflow.errors import CoincidentPositions, NoReturnFound, PZero, ValidationError
from chargeflow.operators import (
    ChargeConfiguration,
    Species,
    SystemCoefficients,
    energy,
    equilibrium_gradient,
)
from chargeflow.polynomials import hermite, find_roots

BASE = 2 * math.pi


def two_species(xs, ys, q2=-1.0):
    return ChargeConfiguration((Species(1.0, tuple(xs)), Species(q2, tuple(ys))))


def rand_state(rng, n, m, q2=-1.0, scale=1.2):
    while True:
        pts = rng.normal(size=n + m) * scale + 1j * rng.normal(size=n + m) * scale * 0.7
        seps = [
            abs(pts[i] - pts[j]) for i in range(n + m) for j in range(i + 1, n + m)
        ]
        if not seps or min(seps) > 0.35 * scale:
            return two_species(pts[:n], pts[n:], q2)


def flat(state):
    return np.array(state.all_positions(), dtype=complex)


def config(flow, z):
    """The configuration of one trajectory row, for ``hamiltonians``."""
    parts = np.split(z, np.cumsum(flow.sizes)[:-1])
    return ChargeConfiguration(
        tuple(Species(q, tuple(p)) for q, p in zip(flow.charges, parts))
    )


def velocities(flow, state):
    return rhs_flat(flow, flat(state))


# -- hamiltonians ----------------------------------------------------------------


def test_hamiltonian_cross_term_vanishes_at_ratio_one():
    rng = np.random.default_rng(1)
    flow = FlowSpec.rational_omega(1.0, 1.0, 2, 2)
    state = rand_state(rng, 2, 2)
    H = hamiltonians(state, flow.sys, velocities(flow, state))
    assert H.h_plus is not None and H.h_minus is not None
    assert abs(1j * (H.h_plus + H.h_minus) - H.h_total) < 1e-12 * max(1, abs(H.h_total))


def test_hamiltonian_single_particle_constant():
    flow = FlowSpec.rational_omega(1.5, 1.0, 1, 0)
    for x0 in (1.0 + 0j, 0.3 - 0.8j):
        traj = integrate(flow, two_species([x0], []), BASE / 1.5,
                         rtol=1e-11, atol=1e-13, n_samples=17)
        vals = []
        for z in traj.positions:
            H = hamiltonians(config(flow, z), flow.sys, rhs_flat(flow, z))
            vals.append(H.h_total)
        assert max(abs(v - vals[0]) for v in vals) < 1e-10


def test_split_hamiltonians_conserved():
    rng = np.random.default_rng(2)
    flow = FlowSpec.rational_omega(1.0, 1.0, 3, 2)
    init = rand_state(rng, 3, 2)
    traj = integrate(flow, init, 3 * BASE, rtol=1e-10, atol=1e-12,
                     n_samples=61)
    hp, hm = [], []
    for z in traj.positions:
        H = hamiltonians(config(flow, z), flow.sys, rhs_flat(flow, z))
        hp.append(H.h_plus)
        hm.append(H.h_minus)
    assert max(abs(v - hp[0]) for v in hp) / abs(hp[0]) < 1e-7
    assert max(abs(v - hm[0]) for v in hm) / abs(hm[0]) < 1e-7


def test_free_pair_hamiltonian_conserved():
    # n=2, m=0, P=1, U=0: H+ = sum v^2/2 - 4/(x1-x2)^2 along the flow
    sysb = SystemCoefficients.bilinear([1.0], [0.0], Lambda=1.0)
    flow = FlowSpec.bilinear(sysb, 2, 0)
    init = two_species([0.9 + 0.2j, -1.1 - 0.4j], [])
    traj = integrate(flow, init, 1.0, rtol=1e-11, atol=1e-13, n_samples=21)
    vals = []
    for z in traj.positions:
        v = rhs_flat(flow, z)
        xs = z[:2]
        h = 0.5 * (v[0] ** 2 + v[1] ** 2) - 4.0 / (xs[0] - xs[1]) ** 2
        vals.append(h)
    assert max(abs(v - vals[0]) for v in vals) < 1e-7


def test_split_potential_value():
    xs = [0.5, -0.5]
    sysb = SystemCoefficients.bilinear([1.0], [0.0], Lambda=1.0)
    assert abs(split_potential(xs, sysb, +1.0) - 4.0) < 1e-14


def naive_hamiltonians(state, sys, vel):
    """Site-by-site double loops of the total and split Hamiltonians."""
    P, U = sys.P.to_float(), sys.U.to_float()
    dP = P.derivative()
    sites = [
        (complex(z), complex(sp.charge)) for sp in state.species for z in sp.positions
    ]
    total = 0j
    for (z, q), v in zip(sites, vel):
        uq = U(z) + q * dP(z) / 2.0
        total += q / (2.0 * P(z)) * v * v - q * uq * uq / (2.0 * P(z))
    for a in range(len(sites)):
        for b in range(a + 1, len(sites)):
            (za, qa), (zb, qb) = sites[a], sites[b]
            total -= qa * qb * (qa + qb) * (P(za) + P(zb)) / (za - zb) ** 2
    h_total = 1j * total if sys.omega is not None else total

    def split_part(zs, vs, sign):
        kin = sum(v * v / (2.0 * P(z)) for z, v in zip(zs, vs))
        pot = sum(0.5 * (U(z) + sign * dP(z) / 2.0) ** 2 / P(z) for z in zs)
        for a in range(len(zs)):
            for b in range(a + 1, len(zs)):
                pot += 2.0 * (P(zs[a]) + P(zs[b])) / (zs[a] - zs[b]) ** 2
        return kin, pot

    n = len(state.species[0].positions)
    z = [s[0] for s in sites]
    kx, vx = split_part(z[:n], vel[:n], +1.0)
    ky, vy = split_part(z[n:], vel[n:], -1.0)
    return h_total, kx - vx, -ky + vy


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


@pytest.mark.parametrize(
    "flow",
    [
        FlowSpec.rational_omega(1.0, 1.0, 3, 2),
        FlowSpec.rational_omega(1.5, 1.0, 1, 0),
        FlowSpec.rational_omega(1.2, 1.0, 2, 0),
        FlowSpec.rational_omega(1.0, 1.0, 20, 10),
        FlowSpec.bilinear(
            SystemCoefficients.bilinear([0.5, 0.2, 1.0], [0.1, -2.0], Lambda=1.0), 4, 3
        ),
        FlowSpec.bilinear(
            SystemCoefficients.bilinear([0.5, 0.2, 1.0], [0.1, -2.0], Lambda=1.7), 4, 3
        ),
    ],
    ids=["trap", "trap_single", "trap_empty_species", "trap_n30", "quadratic_P", "ratio_1.7"],
)
def test_hamiltonians_match_double_loops(flow):
    rng = np.random.default_rng(sum(flow.sizes))
    n, m = flow.sizes
    pts = rng.normal(size=n + m) * 2.0 + 1j * rng.normal(size=n + m)
    state = two_species(pts[:n], pts[n:], q2=flow.charges[1])
    vel = velocities(flow, state)
    H = hamiltonians(state, flow.sys, vel)
    h_total, h_plus, h_minus = naive_hamiltonians(state, flow.sys, vel)
    assert _close(H.h_total, h_total)
    if flow.charges[1] == -1.0:
        assert _close(H.h_plus, h_plus) and _close(H.h_minus, h_minus)
    else:
        assert H.h_plus is None and H.h_minus is None


def test_hamiltonians_of_an_exact_system_equal_the_float_systems():
    # the exact system's charges are GaussianRationals, which complex()
    # refused: a TypeError before
    state = two_species([1.0, -1.0 + 0.5j], [0.3 - 1.0j])
    vel = [0.1, 0.2, 0.3]
    exact = hamiltonians(state, SystemCoefficients.bilinear([1], [0, -2], Lambda=1), vel)
    floats = hamiltonians(state, SystemCoefficients.bilinear([1.0], [0.0, -2.0], Lambda=1.0), vel)
    assert exact == floats
    assert abs(floats.h_total - (-6.1704498 + 0.3570934j)) < 1e-7


def test_split_potential_matches_double_loop():
    rng = np.random.default_rng(9)
    sysb = SystemCoefficients.bilinear([0.5, 0.2, 1.0], [0.1, -2.0], Lambda=1.0)
    P, U = sysb.P, sysb.U
    dP = P.derivative()
    for size in (0, 1, 5, 30):
        zs = list(rng.normal(size=size) * 2.0 + 1j * rng.normal(size=size))
        ref = sum(0.5 * (U(z) - dP(z) / 2.0) ** 2 / P(z) for z in zs)
        for i in range(size):
            for j in range(i + 1, size):
                ref += 2.0 * (P(zs[i]) + P(zs[j])) / (zs[i] - zs[j]) ** 2
        assert _close(split_potential(zs, sysb, -1.0), ref)


# -- Lax matrices ----------------------------------------------------------------


def test_lax_single_particle():
    flow = FlowSpec.rational_omega(1.0, 1.0, 1, 0)
    state = two_species([0.7 + 0.3j], [])
    L = lax(flat(state), flow)
    assert L.shape == (1, 1)
    assert abs(L[0, 0] - 1.0 * (0.7 + 0.3j)) < 1e-14


def test_lax_symmetric_pair_trace_zero():
    flow = FlowSpec.rational_omega(1.0, 1.0, 2, 0)
    state = two_species([0.8, -0.8], [])
    L = lax(flat(state), flow)
    assert abs(np.trace(L)) < 1e-14


def test_lax_generic_trace_oracle():
    # brute-force substitution: Tr L = sum_j (i v_j + omega z_j)/2
    flow = FlowSpec.rational_omega(1.3, 1.0, 2, 1)
    rng = np.random.default_rng(5)
    state = rand_state(rng, 2, 1)
    v = velocities(flow, state)
    L = lax(flat(state), flow)
    zs = state.all_positions()
    expected = sum(0.5 * (1j * v[k] + 1.3 * zs[k]) for k in range(3))
    assert abs(np.trace(L) - expected) < 1e-12


def test_lax_requires_ratio_one():
    flow = FlowSpec.rational_omega(1.0, 1.25, 2, 1)
    rng = np.random.default_rng(6)
    state = rand_state(rng, 2, 1, q2=-1.25)
    with pytest.raises(ValidationError):
        lax(flat(state), flow)


def test_lax_on_a_stack_is_block_diagonal_per_state():
    flow = FlowSpec.rational_omega(1.3, 1.0, 3, 2)
    rng = np.random.default_rng(8)
    Z = np.array([flat(rand_state(rng, 3, 2)) for _ in range(4)])
    L = lax(Z, flow)
    assert L.shape == (4, 5, 5)
    assert np.all(L[:, :3, 3:] == 0) and np.all(L[:, 3:, :3] == 0)
    for z, block in zip(Z, L):
        assert np.array_equal(block, lax(z, flow))
        assert block[0, 1] == 1.0 / (z[0] - z[1])
        assert block[4, 3] == 1.0 / (z[4] - z[3])


def test_lax_checks_every_state_of_a_stack():
    flow = FlowSpec.rational_omega(1.0, 1.0, 2, 1)
    Z = np.array([[1e6, 0.5, -0.3], [1.0, 1.0 + 1e-9, 0.5], [0.2, -0.7, 0.9]], dtype=complex)
    lax(Z, flow)  # 1e-9 apart passes at its own state's scale 1, not at 1e6
    Z[2, 2] = Z[2, 0]  # a cross-species coincidence in the last state only
    with pytest.raises(CoincidentPositions, match="positions 0 and 2 coincide"):
        lax(Z, flow)
    with pytest.raises(ValidationError):
        lax(Z[:2], FlowSpec.rational_omega(1.0, 1.25, 2, 1))


def test_positions_5e_14_of_the_scale_apart_coincide_at_1e_13_only():
    # hamiltonians and lax check coincidence at 1e-13 of the scale, the
    # gradient and the energy at 1e-14; one check serves all four
    flow = FlowSpec.rational_omega(1.0, 1.0, 2, 1)
    state = two_species([1.0, 1.0 + 5e-14], [-0.5 + 0.5j])
    with pytest.raises(CoincidentPositions, match="positions 0 and 1 coincide"):
        hamiltonians(state, flow.sys, np.zeros(3))
    with pytest.raises(CoincidentPositions, match="positions 0 and 1 coincide"):
        lax(flat(state), flow)
    assert np.all(np.isfinite(equilibrium_gradient(state, flow.sys)))
    assert np.isfinite(energy(state, flow.sys))


@pytest.mark.parametrize(
    "check", [lambda state, sys: hamiltonians(state, sys, np.zeros(3)), energy], ids=["hamiltonians", "energy"]
)
def test_a_site_on_a_zero_of_p_raises_pzero(check):
    sys = SystemCoefficients.bilinear([0.0, 1.0], [0.0, 1.0], Lambda=1.0)  # P = z
    with pytest.raises(PZero, match="P vanishes at position 0j"):
        check(two_species([0.0, 1.0], [-0.5 + 0.5j]), sys)


# -- trace integrals ----------------------------------------------------------------


def test_integrals_single_particle():
    flow = FlowSpec.rational_omega(1.0, 1.0, 1, 0)
    x0 = 0.9 - 0.4j
    vals = integrals(np.array([x0]), flow)
    assert len(vals) == 1
    assert abs(vals[0] - abs(x0) ** 2) < 1e-13
    traj = integrate(flow, two_species([x0], []), BASE, rtol=1e-11, atol=1e-13,
                     n_samples=17)
    drift = max(
        abs(integrals(z, flow)[0] - vals[0]) for z in traj.positions
    )
    assert drift < 1e-9


def test_integrals_on_a_stack_match_rows():
    flow = FlowSpec.rational_omega(1.0, 1.0, 4, 3)
    rng = np.random.default_rng(17)
    S = _SAMPLE_BLOCK + 6
    Z = np.array([flat(rand_state(rng, 4, 3)) for _ in range(S)])
    rows = np.array([integrals(z, flow) for z in Z])
    assert rows.shape == (S, 13)
    for stacked in (integrals(Z, flow), over_samples(lambda B: integrals(B, flow), Z)):
        assert stacked.shape == (S, 13)
        assert np.all(np.abs(stacked - rows) <= 1e-15 * rows)


def test_integrals_conserved_n2_m1():
    rng = np.random.default_rng(11)
    flow = FlowSpec.rational_omega(1.0, 1.0, 2, 1)
    init = rand_state(rng, 2, 1)
    traj = integrate(flow, init, 2 * BASE, rtol=1e-10, atol=1e-12,
                     n_samples=33)
    base = np.array(integrals(traj.positions[0], flow))
    worst = 0.0
    for z in traj.positions:
        vals = np.array(integrals(z, flow))
        worst = max(worst, np.max(np.abs(vals - base) / np.maximum(np.abs(base), 1e-30)))
    assert worst < 1e-6


def test_integrals_highest_symbol_limit():
    rng = np.random.default_rng(12)
    state = rand_state(rng, 2, 1, scale=2.0)
    omega = 1e6
    flow = FlowSpec.rational_omega(omega, 1.0, 2, 1)
    vals = integrals(flat(state), flow)
    xs = state.species[0].positions
    ys = state.species[1].positions
    for k in (1, 2, 3):
        power_sum = sum(z**k for z in xs) + sum(z**k for z in ys)
        expected = abs(power_sum) ** 2
        ratio = vals[k - 1] / (omega ** (2 * k) * expected)
        assert abs(ratio - 1.0) < 1e-6


def test_integrals_jacobian_full_rank():
    # functional independence proxy at a random point, n + m = 4
    rng = np.random.default_rng(13)
    flow = FlowSpec.rational_omega(1.0, 1.0, 2, 2)
    state = rand_state(rng, 2, 2)
    z0 = np.array(state.all_positions(), dtype=complex)
    kmax = 2 * 4 - 1

    def ivals(z):
        return np.array(integrals(z, flow))

    eps = 1e-6
    J = np.zeros((kmax, 8))
    for col in range(8):
        dz = np.zeros(4, dtype=complex)
        if col % 2 == 0:
            dz[col // 2] = eps
        else:
            dz[col // 2] = 1j * eps
        J[:, col] = (ivals(z0 + dz) - ivals(z0 - dz)) / (2 * eps)
    sv = np.linalg.svd(J, compute_uv=False)
    assert sv[-1] > 1e-8 * sv[0]


# -- period detection ----------------------------------------------------------------


def test_multiset_distance_assignment():
    a = [0.0 + 0j, 1.0 + 0j]
    b = [1.0 + 1e-8j, 1e-9 + 0j]  # swapped order
    assert multiset_distance(a, b) < 2e-8
    assert multiset_distance(a, [0.0 + 0j, 2.0 + 0j]) > 0.5


def test_detect_period_single_particle():
    flow = FlowSpec.rational_omega(1.0, 1.0, 1, 0)
    init = two_species([1.0], [])
    traj = integrate(flow, init, 3 * BASE, rtol=1e-10, atol=1e-12,
                     n_samples=3 * 64 + 1)
    k, mismatch = detect_period(traj, BASE)
    assert k == 1
    assert mismatch < 1e-8


def test_detect_period_equilibrium_trivial():
    # scaled Hermite roots on the imaginary ray are a fixed point
    omega = 2.0
    flow = FlowSpec.rational_omega(omega, 1.0, 4, 0)
    h_roots = sorted(r.real for r in find_roots(hermite(4)))
    scale = 1j * math.sqrt(2.0 / omega)
    init = two_species([scale * r for r in h_roots], [])
    traj = integrate(flow, init, 2 * BASE / omega, rtol=1e-11, atol=1e-13,
                     n_samples=2 * 64 + 1)
    k, mismatch = detect_period(traj, BASE / omega)
    assert k == 1
    assert mismatch < 1e-8


def test_detect_period_no_return():
    flow = FlowSpec.rational_omega(1.0, 1.213579, 3, 1)
    rng = np.random.default_rng(3)
    init = rand_state(rng, 3, 1, q2=-1.213579, scale=0.8)
    traj = integrate(flow, init, 2 * BASE, rtol=1e-9, atol=1e-11,
                     n_samples=2 * 64 + 1)
    with pytest.raises(NoReturnFound):
        detect_period(traj, BASE, tol=1e-8)


@pytest.mark.parametrize(
    "Lam,n,m,seed",
    [(0.5, 4, 2, 0), (0.5, 4, 2, 1), (2.0, 5, 2, 0), (2.0, 5, 2, 2)],
)
def test_detect_period_other_charge_ratios(Lam, n, m, seed):
    # numerical evidence for integer-multiple returns across charge ratios
    from chargeflow.cli import _random_initial

    flow = FlowSpec.rational_omega(1.0, Lam, n, m)
    init = _random_initial(
        flow, {"seed": seed, "scale": 1.9, "min_separation": 0.85}
    )
    traj = integrate(flow, init, 6 * BASE, rtol=1e-10, atol=1e-12,
                     n_samples=6 * 64 + 1)
    k, mismatch = detect_period(traj, BASE, tol=1e-5)
    assert k <= 6
    assert mismatch < 1e-5 * init.scale()


def test_detect_period_multiset_return_generic_ratio():
    # weakly coupled configurations return exactly after one base period
    flow = FlowSpec.rational_omega(1.0, 1.213579, 4, 1)
    rng = np.random.default_rng(40)
    while True:
        pts = rng.normal(size=5) * 1.8 + 1j * rng.normal(size=5) * 1.8
        seps = [abs(pts[i] - pts[j]) for i in range(5) for j in range(i + 1, 5)]
        if min(seps) > 1.5:
            break
    init = two_species(pts[:4], pts[4:], q2=-1.213579)
    traj = integrate(flow, init, 4 * BASE, rtol=1e-10, atol=1e-12,
                     n_samples=4 * 128 + 1)
    k, mismatch = detect_period(traj, BASE, tol=1e-5)
    assert k <= 4
    assert mismatch < 1e-5 * init.scale()
