"""Acceptance criteria, one test per criterion, each printing a
pass/fail line with the measured figure of merit."""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from chargeflow import cli
from chargeflow.conserved import (
    detect_period,
    hamiltonians,
    integrals,
    linear_potential,
)
from chargeflow.dynamics import (
    FlowSpec,
    integrate,
    monitors,
    phi_identity_i1,
    phi_identity_i2,
    reduced_velocity_residual,
    rhs_flat,
    symmetric_reduce,
)
from chargeflow.equilibria import adler_moser, cylinder_pair, laguerre_pair
from chargeflow.errors import BadK
from chargeflow.conserved import multiset_distance
from chargeflow.operators import (
    ChargeConfiguration,
    Species,
    SystemCoefficients,
    hypergeometric_L,
)
from chargeflow.polynomials import Polynomial, hermite, jacobi, laguerre

BASE = 2 * math.pi


def config(flow, z):
    """The configuration of one trajectory row, for ``hamiltonians``."""
    parts = np.split(z, np.cumsum(flow.sizes)[:-1])
    return ChargeConfiguration(
        tuple(Species(q, tuple(p)) for q, p in zip(flow.charges, parts))
    )


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def proportional(p, q):
    if p.degree != q.degree:
        return False
    ratio = None
    for a, b in zip(p.coeffs, q.coeffs):
        if a.is_zero != b.is_zero:
            return False
        if not a.is_zero:
            r = a / b
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return True


def two_species(xs, ys, q2=-1.0):
    return ChargeConfiguration((Species(1.0, tuple(xs)), Species(q2, tuple(ys))))


def separated_random(rng, count, scale, min_sep):
    while True:
        pts = rng.normal(size=count) * scale + 1j * rng.normal(size=count) * scale
        seps = [
            abs(pts[i] - pts[j]) for i in range(count) for j in range(i + 1, count)
        ]
        if not seps or min(seps) > min_sep:
            return pts


def test_criterion_01_worked_hermite_example(tmp_path):
    t0 = time.perf_counter()
    rc = cli.main(
        [
            "equilibrium",
            "--recipe", "hermite",
            "--indices", "2,4,6",
            "--b", "-2",
            "--out", str(tmp_path),
        ]
    )
    elapsed = time.perf_counter() - t0
    doc = json.loads((tmp_path / "certificate.json").read_text())
    p = Polynomial.from_json(doc["p"])
    q = Polynomial.from_json(doc["q"])
    target_p = Polynomial([0, 0, 0, -15, 0, 18, 0, -12, 0, 8]).scale(8192)
    target_q = Polynomial([0, 3, 0, -4, 0, 4]).scale(32)
    inventory = [
        (complex(e["position"][0], e["position"][1]), e["net_charge"])
        for e in doc["inventory"]
    ]
    plus_at_zero = [c for z, c in inventory if abs(z) < 1e-9]
    plus = [z for z, c in inventory if c == 1]
    minus = [z for z, c in inventory if c == -1]
    ok = (
        rc == 0
        and doc["residual_exact_zero"] is True
        and proportional(p, target_p)
        and proportional(q, target_q)
        and plus_at_zero == [2]
        and len(plus) == 6
        and len(minus) == 4
        and all(abs(z.imag) > 1e-3 for z in minus)
        and elapsed < 1.0
    )
    report(1, ok, f"exact pair, inventory (+2, 6x+1, 4x-1 off-axis), {elapsed:.2f}s")


def test_criterion_02_eigenrelations_four_rows():
    t0 = time.perf_counter()
    failures = []
    rows = []
    # constant field: P = 1, U = a + b z; eigenfunctions scale to Hermite
    sys1 = SystemCoefficients.bilinear([1], [0, -2], Lambda=1)
    rows.append(("constant", sys1, lambda n: hermite(n)))
    # linear field: P = z, U = a + b z; Laguerre L_n^(a-1)(-b z)
    a, b = Fraction(2), Fraction(1)
    sys2 = SystemCoefficients.bilinear([0, 1], [a, b], Lambda=1)

    def row2(n):
        base = laguerre(n, a - 1)
        return Polynomial([c * (-b) ** k for k, c in enumerate(base.coeffs)])

    rows.append(("linear", sys2, row2))
    # inverted-square field: P = -z^2, U = a + b z; z^n L_n^(b-2n+1)(-a/z)
    a3, b3 = Fraction(1), Fraction(1, 3)
    sys3 = SystemCoefficients.bilinear([0, 0, -1], [a3, b3], Lambda=1)

    def row3(n):
        alpha = b3 - 2 * n + 1
        base = laguerre(n, alpha)
        coeffs = [Fraction(0)] * (n + 1)
        for k, c in enumerate(base.coeffs):
            coeffs[n - k] = c * (-1) ** k * a3**k
        return Polynomial(coeffs)

    rows.append(("inverted-square", sys3, row3))
    # circle field: P = 1 - z^2; Jacobi with alpha = -(a+b+2)/2, beta = (a-2-b)/2
    a4, b4 = Fraction(0), Fraction(-4)
    alpha4 = -(a4 + b4 + 2) / 2
    beta4 = (a4 - 2 - b4) / 2
    sys4 = SystemCoefficients.bilinear([1, 0, -1], [a4, b4], Lambda=1)
    rows.append(("circle", sys4, lambda n: jacobi(n, alpha4, beta4)))

    for name, sys, build in rows:
        C = sys.P.coeff(2)
        bb = sys.U.coeff(1)
        for n in range(16):
            Q = build(n)
            lam = -(C * (n * (n - 1)) + bb * n)
            resid = hypergeometric_L(sys, Q) + Q.scale(lam)
            if not resid.is_zero:
                failures.append((name, n))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    report(2, ok, f"4 rows x n<=15 exact, {elapsed:.2f}s {failures[:3]}")


def test_criterion_03_chain_degrees_and_pairs():
    rng = np.random.default_rng(33)
    ok = True
    detail = []
    for k in range(7):
        for trial in range(3):
            ts = [
                Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                for _ in range(k)
            ]
            cert = adler_moser(k, ts)
            good = (
                cert.residual_exact_zero
                and cert.p.degree == (k + 1) * (k + 2) // 2
                and cert.q.degree == k * (k + 1) // 2
            )
            ok = ok and good
            if not good:
                detail.append((k, ts))
    report(3, ok, f"deg theta_k = k(k+1)/2, consecutive pairs exact, k<=6 {detail}")


def test_criterion_04_laguerre_construction():
    cert = laguerre_pair([0, 1, 2, 3, 4], 1)
    ok = cert.residual_exact_zero
    rejected = False
    try:
        laguerre_pair([0, 1], 1)
    except BadK:
        rejected = True
    ok = ok and rejected
    report(4, ok, f"k=4 certifies exactly (degrees {cert.degrees}), k=1 -> BadK")


def test_criterion_05_cylinder_construction():
    c1 = cylinder_pair([1, 2], [0.0, math.pi / 6])
    rng = np.random.default_rng(9)
    c2 = cylinder_pair([1, 2], list(rng.uniform(0.1, 2.0, size=2)))
    ok = (
        c1.residual_exact_zero
        and c2.residual_exact_zero
        and c1.bivariate["residual_norm_at_ts"] < 1e-10
        and c2.bivariate["residual_norm_at_ts"] < 1e-10
    )
    report(5, ok, "index set {1,2} certifies exactly; float phases < 1e-10")


def test_criterion_06_identity_lemma():
    rng = np.random.default_rng(77)
    worst_i1 = worst_i2 = 0.0
    for name, phi in (("inverse", lambda x: 1.0 / x), ("coth", lambda x: 1.0 / math.tanh(x))):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 7))
            xs = list(rng.normal(size=n) * 1.5)
            ys = list(rng.normal(size=m) * 1.5 + 5.0)
            i1, pair = phi_identity_i1(xs, phi)
            i2 = phi_identity_i2(xs, ys, phi)
            if name == "inverse":
                off1, off2 = 0.0, 0.0
            else:
                # coth obeys the pair product equation with constant -1
                off1 = 2.0 * (n * (n - 1) * (n - 2) // 6)
                off2 = float(n * m * (m - n))
            worst_i1 = max(worst_i1, abs(i1 - pair - off1))
            worst_i2 = max(worst_i2, abs(i2 - off2))
    ok = worst_i1 < 1e-10 and worst_i2 < 1e-10
    report(6, ok, f"|I1 dev| {worst_i1:.2e}, |I2 dev| {worst_i2:.2e} over 100 configs")


@pytest.mark.parametrize("Lam", [1.0, 1.213579])
def test_criterion_07_residual_monitor(Lam):
    rng = np.random.default_rng(11)
    pts = separated_random(rng, 7, 1.2, 0.4)
    init = two_species(pts[:6], pts[6:], q2=-Lam)
    flow = FlowSpec.rational_omega(1.0, Lam, 6, 1)
    traj = integrate(flow, init, 2 * BASE, rtol=1e-10, atol=1e-12,
                     n_samples=2 * 128 + 1)
    worst = max(monitors(traj)["bilinear_residual"])
    ok = worst < 1e-8
    report(7, ok, f"Lambda={Lam}: max residual {worst:.2e} over 2 periods")


def test_criterion_08_conservation_ratio_one():
    rng = np.random.default_rng(23)
    rtol = 1e-10
    pts = separated_random(rng, 5, 1.2, 0.45)
    init = two_species(pts[:3], pts[3:])
    flow = FlowSpec.rational_omega(1.0, 1.0, 3, 2)
    traj = integrate(flow, init, 3 * BASE, rtol=rtol, atol=1e-12,
                     n_samples=3 * 64 + 1)
    iks, hps, hms = [], [], []
    for z in traj.positions:
        v = rhs_flat(flow, z)
        iks.append(integrals(z, flow).values)
        H = hamiltonians(config(flow, z), flow.sys, v)
        hps.append(H.h_plus)
        hms.append(H.h_minus)
    iks = np.array(iks)
    ik_drift = float(
        np.max(np.max(np.abs(iks - iks[0]), axis=0) / np.maximum(np.abs(iks[0]), 1e-30))
    )
    hp_drift = max(abs(v - hps[0]) for v in hps) / abs(hps[0])
    hm_drift = max(abs(v - hms[0]) for v in hms) / abs(hms[0])
    ik_bound = max(100 * rtol, 1e-6)
    h_bound = max(100 * rtol, 1e-7)
    ok = ik_drift < ik_bound and hp_drift < h_bound and hm_drift < h_bound
    report(
        8,
        ok,
        f"I_k drift {ik_drift:.2e} (<{ik_bound:g}), "
        f"H+/- drift {hp_drift:.2e}/{hm_drift:.2e} (<{h_bound:g})",
    )


def test_criterion_09_hamiltonian_embedding_fd():
    h = 1e-3
    # charge-ratio-1 constant field: d2x/dt2 = dV+/dx, d2y/dt2 = dV-/dy
    sysb = SystemCoefficients.bilinear([1.0], [0.0, -2.0], Lambda=1.0)
    flow = FlowSpec.bilinear(sysb, 3, 2)
    pts = np.array([1.5 + 0.2j, -1.3 + 0.5j, 0.1 - 1.2j, 2.2 - 0.8j, -1.9 - 1.1j])
    init = two_species(pts[:3], pts[3:])
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

    gx, gy = grad_vpm(Z[mid][:3]), grad_vpm(Z[mid][3:])
    dev_split = max(
        np.max(np.abs(xdd[:3] - gx)) / np.max(np.abs(gx)),
        np.max(np.abs(xdd[3:] - gy)) / np.max(np.abs(gy)),
    )

    # quartic-P single-species flow: d2z/dt2 / P - P'(dz/dt)^2/(2P^2) = dV/dz
    n = 4
    E, D = 0.125, 0.0625
    sysl = SystemCoefficients.linear(
        [1.0, 0, 0, D, E], [0.2, -1.0, 0.3, -2 * (n - 1) * E]
    )
    flowl = FlowSpec.linear(sysl, n)
    ptsl = np.array([1.1 + 0.3j, -0.9 + 0.6j, 0.2 - 1.0j, -0.3 + 1.4j])
    initl = ChargeConfiguration((Species(1.0, tuple(ptsl)),))
    trajl = integrate(flowl, initl, 10 * h, rtol=1e-13, atol=1e-15, n_samples=11)
    Z = trajl.positions
    xdd = (Z[mid + 1] - 2 * Z[mid] + Z[mid - 1]) / h**2
    xd = (Z[mid + 1] - Z[mid - 1]) / (2 * h)
    zs = Z[mid]
    P, dP = sysl.P, sysl.P.derivative()
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
    dev_quartic = np.max(np.abs(lhs - grad)) / np.max(np.abs(grad))
    ok = dev_split <= 1e-4 and dev_quartic <= 1e-4
    report(9, ok, f"split-field FD dev {dev_split:.2e}, quartic FD dev {dev_quartic:.2e}")


def test_criterion_10_periodicity_figure_parameters():
    flow = FlowSpec.rational_omega(1.0, 1.213579, 6, 1)
    results = []
    ok = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pts = separated_random(rng, 7, 1.8, 1.6)
        init = two_species(pts[:6], pts[6:], q2=-1.213579)
        t0 = time.perf_counter()
        traj = integrate(flow, init, 4 * BASE, rtol=1e-10, atol=1e-12,
                         n_samples=4 * 128 + 1)
        k, mismatch = detect_period(traj, BASE, tol=1e-5)
        elapsed = time.perf_counter() - t0
        good = k <= 4 and mismatch < 1e-5 * init.scale() and elapsed < 60.0
        ok = ok and good
        results.append((seed, k, f"{mismatch:.1e}", f"{elapsed:.1f}s"))
    report(10, ok, f"5 seeds return: {results}")


def test_criterion_11_symmetric_reduction():
    rng = np.random.default_rng(4)
    Lam = 1.213579
    xs = rng.normal(size=2) * 0.9 + 1j * rng.normal(size=2) * 0.5 + 0.7
    init = ChargeConfiguration(
        (Species(1.0, tuple(np.concatenate([xs, -xs]))), Species(-Lam, (0j,)))
    )
    flow = FlowSpec.rational_omega(1.0, Lam, 4, 1)
    traj = integrate(flow, init, 2 * BASE, rtol=1e-11, atol=1e-13,
                     n_samples=2 * 64 + 1)
    sym_dev = 0.0
    vel_dev = 0.0
    for z in traj.positions:
        xs_t = list(z[:4])
        sym_dev = max(sym_dev, multiset_distance(xs_t, [-x for x in xs_t]))
        symmetric_reduce(z, flow, rtol=1e-6)
        vel_dev = max(vel_dev, reduced_velocity_residual(flow, z))
    ok = sym_dev < 1e-7 and vel_dev < 1e-8
    report(11, ok, f"symmetry dev {sym_dev:.2e}, reduced-velocity dev {vel_dev:.2e}")


def test_criterion_12_single_particle_closed_form():
    flow = FlowSpec.rational_omega(1.0, 1.0, 1, 0)
    init = two_species([1.0], [])
    traj = integrate(flow, init, BASE, rtol=1e-10, atol=1e-12, n_samples=65)
    endpoint = abs(traj.positions[-1, 0] - 1.0)
    errs = []
    for hs in (0.1, 0.05, 0.025):
        t = integrate(flow, init, BASE, fixed_step=hs, n_samples=2)
        errs.append(abs(t.positions[-1, 0] - 1.0))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    tol_errs = []
    for rtol in (1e-6, 5e-7, 2.5e-7):
        t = integrate(flow, init, BASE, rtol=rtol, atol=rtol * 1e-2, n_samples=2)
        tol_errs.append(abs(t.positions[-1, 0] - 1.0))
    ok = (
        endpoint < 1e-8
        and all(20 < r < 45 for r in ratios)
        and all(a > b for a, b in zip(tol_errs, tol_errs[1:]))
    )
    report(
        12,
        ok,
        f"endpoint {endpoint:.2e}, step-halving ratios {[f'{r:.1f}' for r in ratios]}, "
        f"tolerance-halving errors decrease {[f'{e:.1e}' for e in tol_errs]}",
    )
