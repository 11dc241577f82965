import cmath
import dataclasses
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeflow import _trig, equilibria
from chargeflow.equilibria import (
    GRADIENT_TOL,
    EquilibriumCertificate,
    adler_moser,
    certify,
    check_built,
    cylinder_pair,
    hermite_pair,
    laguerre_pair,
    monomial_pair,
)
from chargeflow.errors import BadK, CertificationFailure, ValidationError
from chargeflow.operators import (
    ChargeConfiguration,
    Species,
    SystemCoefficients,
    eigenpoly,
    gradient_with_scale,
    lambda_poly,
    polylinear_H,
)
from chargeflow.polynomials import Polynomial, hermite, leading_wronskians
from chargeflow.scalars import GaussianRational


def proportional(p: Polynomial, q: Polynomial) -> bool:
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


# -- hermite pairs ----------------------------------------------------------------


def test_hermite_pair_worked_example():
    cert = hermite_pair([2, 4, 6], -2)
    assert cert.residual_exact_zero
    assert cert.degrees == (9, 5)
    target_p = Polynomial([0, 0, 0, -15, 0, 18, 0, -12, 0, 8]).scale(8192)
    target_q = Polynomial([0, 3, 0, -4, 0, 4]).scale(32)
    assert proportional(cert.p, target_p)
    assert proportional(cert.q, target_q)
    at_zero = [c for z, c in cert.inventory if abs(z) < 1e-9]
    assert at_zero == [2]
    plus = [z for z, c in cert.inventory if c == 1]
    minus = [z for z, c in cert.inventory if c == -1]
    assert len(plus) == 6 and len(minus) == 4
    assert all(abs(z.imag) > 1e-3 for z in minus)


def test_hermite_pair_single_index():
    cert = hermite_pair([4], -2)
    assert cert.p == hermite(4)
    assert cert.q == Polynomial([1])
    assert cert.residual_exact_zero


def test_hermite_pair_k1_small():
    cert = hermite_pair([0, 1], -2)
    assert cert.degrees == (0, 0)
    assert cert.residual_exact_zero


def test_hermite_pair_various_b_and_sets():
    for indices, b in ([(1, 2), Fraction(1, 3)], [(0, 2, 5), -1], [(3, 5), Fraction(-7, 2)]):
        cert = hermite_pair(indices, b)
        assert cert.residual_exact_zero
        k = len(indices) - 1
        assert cert.degrees[0] == sum(indices) - k * (k + 1) // 2
        assert cert.degrees[1] == sum(indices[:k]) - k * (k - 1) // 2


def test_hermite_pair_validation():
    with pytest.raises(ValidationError):
        hermite_pair([2, 2], -2)
    with pytest.raises(ValidationError):
        hermite_pair([1, 3], 0)


# -- laguerre pairs ----------------------------------------------------------------


def test_laguerre_pair_k0():
    b = Fraction(1)
    cert = laguerre_pair([3], b)
    assert cert.residual_exact_zero
    assert cert.degrees == (3, 0)
    # governing field carries the -1/2 offset
    assert cert.sys.U.coeff(0) == -Fraction(1, 2)


def test_laguerre_pair_k4_consecutive():
    cert = laguerre_pair([0, 1, 2, 3, 4], 1)
    assert cert.residual_exact_zero
    assert cert.degrees == (4, 2)


def test_laguerre_pair_k4_nonconsecutive():
    cert = laguerre_pair([0, 1, 2, 3, 5], 2)
    assert cert.residual_exact_zero
    # n = sum(I) - k(k+2)/4, m = sum(I[:k]) - k^2/4 with k = 4
    assert cert.degrees == (11 - 6, 6 - 4)


@pytest.mark.parametrize("indices,b", [([1, 2, 4, 5, 7], 2), ([2, 3, 4, 5, 8], 1), ([1, 3, 5, 6, 8], 2)])
def test_laguerre_pair_with_minus_sites_before_the_origin_certifies(indices, b):
    # P = z vanishes at the origin, whose site the gradient check skips;
    # these inventories list -1 sites before it
    cert = laguerre_pair(indices, b)
    assert any(c < 0 for _, c in cert.inventory[: [abs(z) for z, _ in cert.inventory].index(0.0)])
    assert certify(cert).notes["gradient_max"] < GRADIENT_TOL


def test_check_built_reads_the_gradient_in_inventory_order():
    cert = laguerre_pair([2, 3, 4, 5, 8], 1)
    origin = [site for site in cert.inventory if site[0] == 0]
    minus = [site for site in cert.inventory if site[1] < 0]
    plus = [site for site in cert.inventory if site[1] > 0 and site[0] != 0]
    assert origin and minus and plus
    for order in (minus + origin + plus, origin + plus[::-1] + minus, plus + minus + origin):
        cert.inventory = order
        assert check_built(cert).notes["gradient_max"] < 1e-10


# roots shrink as b**-0.5 while the gradient's terms grow as b**0.5; a
# bound of 1e-8 * max(1, root scale) failed these exact pairs with
# gradients from 1.9e-8 (b = 1e15) up to 1.2e24 (b = 1e80)
@pytest.mark.parametrize(
    "indices, b",
    [([1, 2, 3], 10**15), ([1, 2, 3], 10**20), ([1, 2], 10**15), ([1, 2], 10**60), ([1, 2], 10**80)],
)
def test_badly_scaled_hermite_pairs_pass_check_built(indices, b):
    cert = check_built(hermite_pair(indices, b))
    assert cert.residual_exact_zero and math.isfinite(cert.notes["gradient_max"])


@pytest.mark.parametrize("indices, b", [([2, 4, 6], -2), ([1, 2, 3], 10**20), ([1, 2], 10**60)])
def test_check_built_rejects_an_inventory_moved_by_1e_6(indices, b):
    cert = hermite_pair(indices, b)
    sites, scale = list(cert.inventory), max(abs(z) for z, _ in cert.inventory)
    for i, (z, c) in enumerate(sites):
        cert.inventory = sites[:i] + [(z + 1e-6 * scale, c)] + sites[i + 1 :]
        with pytest.raises(CertificationFailure, match="equilibrium gradient"):
            check_built(cert)


def test_check_built_rejects_a_nonzero_planar_residual():
    cert = hermite_pair([2, 4, 6], -2)
    p = cert.p + Polynomial([1])
    exact_zero, norm, idx = equilibria._exact_residual(cert.sys, p, cert.q, cert.lam)
    assert not exact_zero and idx is not None
    notes = {**cert.notes, "first_nonzero_residual_index": idx}
    bad = dataclasses.replace(cert, p=p, residual_exact_zero=False, residual_norm=norm, notes=notes)
    with pytest.raises(CertificationFailure, match="bilinear residual nonzero") as info:
        check_built(bad)
    assert info.value.coefficient_index == idx


def _configuration_gradient_max(cert):
    """The gradient check's largest value through a ChargeConfiguration: a
    site of net charge c as |c| charges of the species +-1, the +1 species
    listed first, and a scalar test of P at each site."""
    species = []
    for q in (1.0, -1.0):
        sites = [(z, abs(c)) for z, c in cert.inventory if c * q > 0]
        species.append(Species(q, tuple(z for z, _ in sites), tuple(m for _, m in sites)))
    grad = gradient_with_scale(ChargeConfiguration(species), cert.sys)[0].tolist()
    sites = [z for s in species for z in s.positions]
    scale = max([1.0] + [abs(z) for z in sites])
    P = cert.sys.P.to_float()
    return max([0.0] + [abs(g) for z, g in zip(sites, grad) if abs(P(z)) > 1e-10 * scale])


@pytest.mark.parametrize(
    "build",
    [
        lambda: hermite_pair([0, 3, 5, 7, 10], -3),
        lambda: laguerre_pair([1, 2, 4, 5, 7], 2),
        lambda: monomial_pair([1, 3, 6, 8], 1),
        lambda: adler_moser(4, [Fraction(1, 2), 2, -1, 3]),
        lambda: cylinder_pair([2, 4, 5, 7, 8], [0.4, 0.9, 2.2, 1.3, 0.3]),
    ],
    ids=["hermite", "laguerre", "monomial", "adler_moser", "cylinder"],
)
def test_check_built_gradient_equals_the_configuration_route(build):
    # check_built reads the inventory as arrays; the bits of its largest
    # gradient are those of the configuration's, site by site
    cert = build()
    assert check_built(cert).notes["gradient_max"] == _configuration_gradient_max(cert)


def test_check_built_rejects_a_cylinder_pair_it_cannot_verify():
    # the planar checks: the exact-zero flag and the relative gradient bound
    cert = cylinder_pair([1, 2], [0.3, 1.1])
    with pytest.raises(CertificationFailure, match="bilinear residual nonzero"):
        check_built(dataclasses.replace(cert, residual_exact_zero=False))
    sites = list(cert.inventory)
    z, c = sites[0]
    sites[0] = (z * cmath.exp(1e-3j), c)  # one root angle moved by 5e-4
    with pytest.raises(CertificationFailure, match="equilibrium gradient .* exceeds"):
        check_built(dataclasses.replace(cert, inventory=sites))
    assert check_built(cert).notes["gradient_max"] <= 1e-7


def test_laguerre_pair_badk():
    with pytest.raises(BadK):
        laguerre_pair([0, 1], 1)
    with pytest.raises(BadK):
        laguerre_pair([0, 1, 2], 1)


# -- monomial pairs ----------------------------------------------------------------


def test_monomial_pair_single():
    cert = monomial_pair([5], 2)
    assert cert.p == Polynomial([0, 0, 0, 0, 0, 1])
    assert cert.q == Polynomial([1])
    assert cert.residual_exact_zero


def test_monomial_pair_small_sets():
    c01 = monomial_pair([0, 1], 1)
    assert c01.degrees == (1, 0)
    assert c01.residual_exact_zero
    c13 = monomial_pair([1, 3], Fraction(5, 3))
    assert c13.degrees == (4, 1)
    assert c13.residual_exact_zero
    c3 = monomial_pair([0, 2, 3], Fraction(1, 2))
    assert c3.degrees == (5, 2)
    assert c3.residual_exact_zero


# -- the classical recipe table ------------------------------------------------------

# Chebyshev (circle) row: P = 1 - z^2, U = 0, prefactor base r = 1 - z^2 with
# exponents (k(k+1)/4, k(k-1)/4); its eigenfunctions are the Chebyshev
# polynomials of (1 - z^2) f'' - z f'.  b does not enter.
_CIRCLE_ROW = (
    [1, 0, -1], lambda b: [0], [1, 0, -1], lambda k: (k * (k + 1) // 4, k * (k - 1) // 4), 4,
    lambda F, i, b: eigenpoly(F, i),
)
_CIRCLE_DEGREES = {
    (1, 2, 3, 4, 5): (15, 10),
    (1, 2, 3, 4, 6): (16, 10),
    (2, 3, 4, 6, 7): (22, 15),
    (0, 1, 3, 4, 6): (14, 8),
    tuple(range(1, 10)): (45, 36),
}


@pytest.fixture
def circle_pair(monkeypatch):
    monkeypatch.setitem(equilibria._CLASSICAL, "circle_wronskian", _CIRCLE_ROW)
    return lambda indices: equilibria._classical_pair("circle_wronskian", indices, 1)


@pytest.mark.parametrize("indices", sorted(_CIRCLE_DEGREES))
def test_circle_row_fits_the_classical_table(circle_pair, indices):
    cert = circle_pair(indices)
    assert cert.residual_exact_zero
    assert cert.degrees == _CIRCLE_DEGREES[indices]


# before, the float roots of p and q split the exact repeated roots at
# z = +-1 into separate charges, and the gradient there read 10.7 to 48.5
@pytest.mark.parametrize("indices", sorted(_CIRCLE_DEGREES))
def test_circle_row_pairs_pass_check_built(circle_pair, indices):
    check_built(circle_pair(indices))


# -- chain pairs ----------------------------------------------------------------


def test_adler_moser_k0():
    cert = adler_moser(0)
    assert cert.p == Polynomial([0, 1])
    assert cert.q == Polynomial([1])
    assert cert.residual_exact_zero


def test_adler_moser_k1_parameter():
    for tau in (Fraction(0), Fraction(3, 7), Fraction(-2)):
        cert = adler_moser(1, [tau])
        assert cert.residual_exact_zero
        assert proportional(cert.p, Polynomial([-tau, 0, 0, Fraction(1, 3)]))


def test_adler_moser_degrees():
    rng_ts = [Fraction(1, 3), Fraction(-2), Fraction(5, 7), Fraction(1), Fraction(-1, 9), Fraction(4)]
    for k in range(7):
        cert = adler_moser(k, rng_ts[:k])
        assert cert.p.degree == (k + 1) * (k + 2) // 2
        assert cert.q.degree == k * (k + 1) // 2
        assert cert.residual_exact_zero


def test_adler_moser_consecutive_only():
    # (theta_{k+2}, theta_k) must NOT satisfy the free bilinear identity
    ts = [Fraction(1, 2), Fraction(2)]
    c2 = adler_moser(2, ts)
    c1 = adler_moser(1, ts[:1])
    theta3, theta2, theta1 = c2.p, c2.q, c1.q
    sys = c2.sys
    lam = lambda_poly([theta3.degree, theta1.degree], sys)
    resid = polylinear_H(sys, [theta3, theta1], lam=lam)
    assert not resid.is_zero


@pytest.mark.parametrize("k", range(1, 8))
def test_adler_moser_last_parameter_moves_the_pair_exactly_at_odd_k(k):
    # at even k it adds a multiple of psi_1 = z to psi_{k+1}: no Wronskian sees it
    ts = [Fraction(j + 1, 2) for j in range(k)]
    base, moved = adler_moser(k, ts), adler_moser(k, ts[:-1] + [ts[-1] + 3])
    assert ((base.p, base.q) != (moved.p, moved.q)) == (k % 2 == 1)
    assert base.q == moved.q


def test_adler_moser_wrong_parameter_count():
    with pytest.raises(ValidationError):
        adler_moser(2, [Fraction(1)])


# -- cylinder pairs ----------------------------------------------------------------


def test_cylinder_single_harmonic():
    cert = cylinder_pair([1], [0.0])
    assert cert.residual_exact_zero
    assert cert.degrees == (1, 0)
    # p = r sin(phi) = Y
    assert cert.bivariate["p_xy"][0] == [0.0, 0.0]
    assert abs(cert.bivariate["p_xy"][1][0] - 1.0) < 1e-15


def annihilated(cert) -> bool:
    """Whether the stored exact pair is an equilibrium of its stored field
    and lambda: its polylinear_H is exactly zero."""
    exact = cert.p.exact and cert.q.exact and cert.sys.exact
    return exact and polylinear_H(cert.sys, [cert.p, cert.q], lam=cert.lam).is_zero


def test_cylinder_pair_12():
    for ts in ([0.0, math.pi / 6], [0.3, 1.1]):
        cert = cylinder_pair([1, 2], ts)
        assert cert.residual_exact_zero
        assert cert.degrees == (3, 1)
        assert annihilated(cert)


def test_cylinder_pairs_are_equilibria_of_their_stored_field():
    # before, the float pair left max |H| / max |p q| up to 2.1e-13; the
    # phases' doubles need not lie on the unit circle, and the exact
    # residual of the pair still vanishes at them (_trig.substitute)
    rng = np.random.default_rng(27)
    for _ in range(40):
        k = int(rng.integers(1, 6))
        indices = sorted(int(i) for i in rng.choice(np.arange(1, 9), size=k, replace=False))
        cert = cylinder_pair(indices, list(rng.uniform(0.0, math.pi, size=k)))
        assert cert.residual_exact_zero and cert.sys.U.coeffs == (0, indices[-1])
        assert annihilated(cert), indices


def _exact_substitute(terms, indices, total, eps):
    """_trig.substitute with eps_j**+1 and eps_j**-1 the GaussianRationals
    eps[j] = (plus, minus): the Fourier sum as an exact polynomial in w."""
    unit = _i_times(terms.r, Fraction(1, 2**terms.e))
    coeffs = [GaussianRational(0)] * (total + 1)
    for s, amp in terms.amps.items():
        factors = (eps[j][x < 0] for j, x in enumerate(s) for _ in range(abs(x)))
        phase = math.prod(factors, start=GaussianRational(1))  # eps**s
        coeffs[(_trig._freq(s, indices) + total) // 2] += unit * amp * phase
    return Polynomial(coeffs)


def _laurent_mode(i, big, eps):
    """u**big sin(i phi + t) as an exact polynomial in u = exp(i phi), with
    eps = (exp(i t), exp(-i t)): (eps[0] u**(big+i) - eps[1] u**(big-i)) / 2i."""
    coeffs = [GaussianRational(0)] * (big + i + 1)
    half = GaussianRational(0, Fraction(-1, 2))  # 1 / 2i
    coeffs[big + i] += half * eps[0]
    coeffs[big - i] -= half * eps[1]
    return Polynomial(coeffs)


@settings(max_examples=25, deadline=None)
@given(
    indices=st.lists(st.integers(1, 6), min_size=2, max_size=4, unique=True).map(sorted),
    data=st.data(),
)
def test_cylinder_pair_matches_the_wronskians_of_its_exact_laurent_modes(indices, data):
    """With d/dphi = i u d/du, W_u[u**N f_j, j < K] is
    u**(K N) (i u)**(-K(K-1)/2) W_phi[f_j], and W_phi = u**-n p_w(u**2) for
    the degree-n w-form p_w: so leading_wronskians of the exact modes
    u**N sin(i_j phi + t_j), at the exact images of the doubles that
    substitute reads, is that multiple of cylinder_pair's p_w and q_w."""
    kp1 = len(indices)
    ts = data.draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=kp1, max_size=kp1))
    cert = cylinder_pair(indices, ts)
    eps = [tuple(GaussianRational(*map(Fraction, (c.real, c.imag))) for c in (cmath.exp(1j * t), cmath.exp(-1j * t)))
           for t in ts]
    big = indices[-1]
    *_, wq, wp = leading_wronskians([_laurent_mode(i, big, e) for i, e in zip(indices, eps)])
    for w, form, K in ((wp, cert.p, kp1), (wq, cert.q, kp1 - 1)):
        n = sum(indices[:K])
        squared = Polynomial([form.coeff(j // 2) if j % 2 == 0 else 0 for j in range(2 * n + 1)])  # p_w(u**2)
        expected = squared.shift(K * big - K * (K - 1) // 2 - n).scale(_i_times(-K * (K - 1) // 2, 1))
        assert w == expected, (indices, K)


def test_cylinder_pair_with_a_wrong_amplitude_reports_its_exact_residual(monkeypatch):
    # a wrong amplitude in p's closed form: the stored pair's exact
    # residual is nonzero
    build = _trig.trig_wronskian

    def wrong(indices, nphases):
        terms = build(indices, nphases)
        if len(indices) < nphases:  # q's Wronskian stays right
            return terms
        s = next(iter(terms.amps))
        return terms._replace(amps={**terms.amps, s: terms.amps[s] + 1})

    monkeypatch.setattr(_trig, "trig_wronskian", wrong)
    cert = cylinder_pair([1, 2], [0.3, 1.1])
    assert not cert.residual_exact_zero and cert.residual_norm > 0
    with pytest.raises(CertificationFailure, match="bilinear residual nonzero"):
        check_built(cert)


def test_cylinder_degree_formula():
    for indices, ts in (
        ([0, 2, 3], [0.4, 0.9, 2.2]),
        ([1, 3, 4], [0.25, 1.5, 0.75]),
    ):
        cert = cylinder_pair(indices, ts)
        assert cert.degrees == (sum(indices), sum(indices[:-1]))
        assert cert.residual_exact_zero


def test_cylinder_phase_count_validation():
    with pytest.raises(ValidationError):
        cylinder_pair([1, 2], [0.0])


def test_cylinder_degenerate_phases_rejected():
    from chargeflow.errors import DegenerateWronskian

    # zero-frequency mode with zero phase collapses to the zero function
    with pytest.raises(DegenerateWronskian):
        cylinder_pair([0, 2], [0.0, 0.7])


def _xy_poly(sp, coeffs, X, Y):
    n = len(coeffs) - 1
    return sum(sp.sympify(c) * X ** (n - j) * Y**j for j, c in enumerate(coeffs))


@pytest.mark.parametrize(
    "q_mode,m",
    [(None, None), ((1, 0), 1), ((2, 1), 4)],
    ids=["equilibrium", "sine_1_degree_1", "sine_2_degree_4"],
)
def test_cylinder_fourier_residual_matches_xy_oracle(q_mode, m):
    """4/w times polylinear_H of the substituted pair under the field
    P = -w**2, U = (n - m) w, whose w**j term is the Fourier term of
    frequency h = 2j - (n+m-2), times r**(n+m-2) e^{i h phi}, equals
    q Lap p - 2 (grad q, grad p) + p Lap q of the (X, Y) polynomials."""
    import sympy as sp

    indices = [1, 2, 3]
    rng = np.random.default_rng(11)
    ts = list(rng.uniform(0.0, 2 * math.pi, size=len(indices)))
    wp, n = _trig.trig_wronskian(indices, len(indices)), sum(indices)
    if q_mode is None:
        wq, m = _trig.trig_wronskian(indices[:-1], len(indices)), sum(indices[:-1])
    else:
        # sin(freq phi + t_j): a term's frequency is s . indices
        freq, j = q_mode
        assert indices[j] == freq
        single = _trig.trig_wronskian([freq], 1)
        wq = single._replace(
            amps={tuple(s[0] if i == j else 0 for i in range(len(indices))): a for s, a in single.amps.items()}
        )
    p_w, q_w = _trig.substitute(wp, indices, n, ts), _trig.substitute(wq, indices, m, ts)
    sys = SystemCoefficients.bilinear([0, 0, -1], [0, n - m], Lambda=1)
    H = polylinear_H(sys, [p_w, q_w], lam=lambda_poly((n, m), sys))
    assert H.is_zero == (q_mode is None) and H.coeff(0) == 0
    amps = [4 * c for c in H.to_float().floats[1:]]  # 4 H / w

    X, Y = sp.symbols("X Y", real=True)
    P = _xy_poly(sp, _trig.xy_coeffs(p_w, n), X, Y)
    Q = _xy_poly(sp, _trig.xy_coeffs(q_w, m), X, Y)
    parts = [
        Q * (sp.diff(P, X, 2) + sp.diff(P, Y, 2)),
        -2 * (sp.diff(Q, X) * sp.diff(P, X) + sp.diff(Q, Y) * sp.diff(P, Y)),
        P * (sp.diff(Q, X, 2) + sp.diff(Q, Y, 2)),
    ]
    for x, y in rng.uniform(-1.5, 1.5, size=(4, 2)):
        values = [complex(part.subs({X: x, Y: y}).evalf()) for part in parts]
        z = complex(x, y)
        r = abs(z)
        fourier = r ** (n + m - 2) * sum(a * (z / r) ** (2 * j - n - m + 2) for j, a in enumerate(amps))
        scale = sum(abs(v) for v in values)
        assert abs(fourier - sum(values)) <= 1e-9 * scale


@pytest.mark.parametrize(
    "indices", [[0], [3], [0, 2], [1, 3], [0, 1, 3], [2, 3, 6], [0, 1, 2, 4], [1, 2, 3, 4, 5], [0, 1, 2, 3, 6]]
)
def test_trig_wronskian_closed_form_matches_sympy(indices):
    """The closed form equals sympy's Wronskian of sin(i_j phi + t_j) with
    symbolic phases t_j, both written in exponentials, and keeps all 2**k
    terms: for distinct indices the s_j i_j are distinct, so no
    Vandermonde factor vanishes."""
    import sympy as sp

    k = len(indices)
    terms = _trig.trig_wronskian(indices, k)
    assert len(terms.amps) == 2**k and all(type(a) is int and a for a in terms.amps.values())
    phi = sp.Symbol("phi", real=True)
    ts = sp.symbols(f"t0:{k}", real=True)
    expected = sp.wronskian([sp.sin(i * phi + t) for i, t in zip(indices, ts)], phi)
    unit = sp.Rational(1, 2**terms.e) * sp.I**terms.r
    closed = sum(
        unit * a * sp.exp(sp.I * sum(x * (i * phi + t) for x, i, t in zip(s, indices, ts)))
        for s, a in terms.amps.items()
    )
    assert sp.expand(sp.expand(expected.rewrite(sp.exp)) - sp.expand(closed)) == 0


def _i_times(j, c):
    """i**j c as a GaussianRational, for a rational c."""
    return GaussianRational(*((c, 0), (0, c), (-c, 0), (0, -c))[j % 4])


def _xy_oracle(p_w, n):
    """xy_coeffs by GaussianRational arithmetic, rounded once: w**a is
    (X + iY)**a (X - iY)**(n - a)."""
    out = []
    for j in range(n + 1):
        total = GaussianRational(0)
        for a, c in enumerate(p_w.coeffs):
            y = sum((-1) ** (j - l) * math.comb(a, l) * math.comb(n - a, j - l) for l in range(j + 1))
            total += c * _i_times(j, y)
        out.append(complex(total))
    return out


def _bits(values):
    return [(c.real.hex(), c.imag.hex()) for c in values]


def _formal_product(a, b):
    """The Fourier sum a b: the exponent vectors add, so eps_j eps_j**-1
    gives exponent 0 and eps_j eps_j exponent 2."""
    amps = {}
    for s, x in a.amps.items():
        for u, y in b.amps.items():
            e = tuple(i + j for i, j in zip(s, u))
            amps[e] = amps.get(e, 0) + x * y
    return _trig.Fourier(a.e + b.e, (a.r + b.r) % 4, {e: c for e, c in amps.items() if c})


@settings(max_examples=60, deadline=None)
@given(
    indices=st.lists(st.integers(1, 6), min_size=1, max_size=5, unique=True).map(sorted),
    data=st.data(),
)
def test_trig_substitute_matches_gaussian_rational_oracle(indices, data):
    """substitute is the GaussianRational sum of the terms at the doubles
    exp(+-i t_j), read exactly, and xy_coeffs rounds each exact (X, Y)
    coefficient once, bit for bit with a +0.0 zero part; for the two
    Wronskians and their formal product (exponents up to 2)."""
    k = len(indices)
    ts = data.draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=k, max_size=k))
    eps = [tuple(GaussianRational(*map(Fraction, (c.real, c.imag))) for c in (cmath.exp(1j * t), cmath.exp(-1j * t)))
           for t in ts]
    wp, wq = _trig.trig_wronskian(indices, k), _trig.trig_wronskian(indices[:-1], k)
    n, m = sum(indices), sum(indices[:-1])
    for terms, total in ((wp, n), (wq, m), (_formal_product(wp, wq), n + m)):
        got = _trig.substitute(terms, indices, total, ts)
        assert got == _exact_substitute(terms, indices, total, eps)
        assert _bits(_trig.xy_coeffs(got, total)) == _bits(_xy_oracle(got, total))


# -- inventory / charge counting ---------------------------------------------------


def test_charge_count_identity():
    for cert in (
        hermite_pair([2, 4, 6], -2),
        hermite_pair([1, 2], Fraction(1, 2)),
        laguerre_pair([0, 1, 2, 3, 4], 1),
        monomial_pair([1, 3], 1),
    ):
        total = sum(c for _, c in cert.inventory)
        pbar, qbar = cert.reduced
        assert total == pbar.degree - qbar.degree


# -- certification ----------------------------------------------------------------


def test_certify_worked_example():
    cert = hermite_pair([2, 4, 6], -2)
    out = certify(cert)
    assert out.residual_exact_zero
    assert out.notes["gradient_max"] < 1e-9


def test_certify_all_recipes():
    certs = [
        hermite_pair([1, 3, 4], -2),
        laguerre_pair([0, 1, 2, 3, 4], 2),
        monomial_pair([0, 2, 5], Fraction(3, 4)),
        adler_moser(3, [Fraction(1, 3), Fraction(5), Fraction(-2, 9)]),
        cylinder_pair([1, 2], [0.2, 1.4]),
        # degree 45: the largest exact pair here, whose root bits depend
        # most on how find_roots polishes the companion eigenvalues
        adler_moser(8, [Fraction(t) for t in ("2", "-6/5", "-4", "-1", "-8", "7/4", "8", "-7/4")]),
    ]
    assert certs[-1].p.degree == 45
    for cert in certs:
        out = certify(cert)
        assert out.residual_exact_zero
        assert out.notes["gradient_max"] < 1e-7
    back = EquilibriumCertificate.from_json(json.loads(json.dumps(certs[-1].to_json())))
    assert back.p == certs[-1].p and back.q == certs[-1].q
    assert certify(back).residual_exact_zero


def test_certify_detects_perturbation():
    cert = hermite_pair([2, 4], -2)
    broken = Polynomial(
        [c + (Fraction(1, 1000) if k == 1 else 0) for k, c in enumerate(cert.p.coeffs)]
    )
    cert.p = broken
    with pytest.raises(CertificationFailure) as err:
        certify(cert)
    assert err.value.coefficient_index is not None


def test_certificate_json_replay():
    cert = certify(hermite_pair([2, 4, 6], -2))
    doc = json.loads(json.dumps(cert.to_json()))
    back = EquilibriumCertificate.from_json(doc)
    assert back.p == cert.p
    assert back.q == cert.q
    assert back.lam == cert.lam
    again = certify(back)
    assert again.residual_exact_zero


def test_cylinder_certificate_json_replay():
    cert = certify(cylinder_pair([1, 2], [0.3, 1.1]))
    doc = json.loads(json.dumps(cert.to_json()))
    back = EquilibriumCertificate.from_json(doc)
    assert back.bivariate == cert.bivariate
    again = certify(back)
    assert again.residual_exact_zero



@pytest.mark.parametrize(
    "path,value,message",
    [
        # an exact pair that is no equilibrium is named by its residual
        (("p", "coeffs", 0), ["123", "1"], "bilinear residual nonzero"),
        (("q", "coeffs", 0), ["123", "1"], "bilinear residual nonzero"),
        (("degrees", 0), 4, "stored 'degrees'"),
        (("bivariate", "p_xy", 0), [123.0, 0.0], "stored 'bivariate'"),
    ],
    ids=["p", "q", "degrees", "bivariate"],
)
def test_cylinder_certificate_rejects_mutated_field(path, value, message):
    doc = json.loads(json.dumps(certify(cylinder_pair([1, 2], [0.3, 1.1])).to_json()))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(CertificationFailure, match=message):
        certify(EquilibriumCertificate.from_json(doc))

GOLDEN = pathlib.Path(__file__).parent / "data" / "certs"


@pytest.mark.parametrize(
    "field,path,value",
    [
        ("degrees", ("degrees", 0), 99),
        ("reduced", ("reduced", 0, "coeffs", 0), ["-1", "3"]),
        ("inventory", ("inventory", 0, "position"), [-0.5, 0.0]),
        ("residual_exact_zero", ("residual_exact_zero",), False),
        ("residual_norm", ("residual_norm",), 0.5),
    ],
    ids=["degrees", "reduced", "inventory", "residual_exact_zero", "residual_norm"],
)
def test_planar_certificate_rejects_mutated_field(field, path, value):
    doc = json.loads((GOLDEN / "hermite_124" / "certificate.json").read_text())
    certify(EquilibriumCertificate.from_json(doc))  # the untouched file certifies
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(CertificationFailure, match=f"stored '{field}'"):
        certify(EquilibriumCertificate.from_json(doc))


@pytest.mark.parametrize(
    "name,params,field",
    [
        ("hermite_124", {"indices": [7, 8, 9], "b": "5"}, "U"),
        ("hermite_124", {"indices": [1, 2, 5], "b": "-2"}, "lambda"),
        ("monomial_134", {"indices": [1, 3, 4], "b": "1/3"}, "U"),
        ("adler_moser_4", {"k": 5, "ts": ["1/2", "2", "-1", "3", "1"]}, "degrees"),
        ("adler_moser_4", {"k": 3, "ts": ["1/2", "2", "-1"]}, "degrees"),
        # same system and degrees as the stored pair: only the rebuild tells them apart
        ("adler_moser_4", {"ts": ["7", "7", "7", "7"]}, "p"),
        ("hermite_124", {"indices": [0, 3, 4]}, "p"),
    ],
    ids=[
        "hermite_indices_and_b", "hermite_indices", "monomial_b", "adler_moser_k5",
        "adler_moser_k3", "adler_moser_ts", "hermite_same_index_sums",
    ],
)
def test_planar_certificate_rejects_changed_params(name, params, field):
    doc = json.loads((GOLDEN / name / "certificate.json").read_text())
    certify(EquilibriumCertificate.from_json(doc))  # the untouched file certifies
    doc["params"].update(params)
    with pytest.raises(CertificationFailure, match=f"stored '{field}' does not match the recipe"):
        certify(EquilibriumCertificate.from_json(doc))


@pytest.mark.parametrize(
    "name,params",
    [
        ("hermite_124", {"b": -2}),
        ("monomial_134", {"b": "2/4"}),
        ("adler_moser_4", {"ts": ["1/2", "2", "-1", "3.0"]}),
    ],
    ids=["number_b", "unreduced_b", "decimal_t"],
)
def test_planar_certificate_rejects_non_canonical_params(name, params):
    # the same recipe parameters as the stored ones, not as to_json writes them
    doc = json.loads((GOLDEN / name / "certificate.json").read_text())
    doc["params"].update(params)
    with pytest.raises(CertificationFailure, match="stored 'params' does not match the recipe"):
        certify(EquilibriumCertificate.from_json(doc))


@pytest.mark.parametrize(
    "name,params",
    [
        ("adler_moser_4", {"k": 5}),  # four chain parameters for k = 5
        ("hermite_124", {"b": "0"}),
        ("hermite_124", {"indices": [2, 1, 4]}),
        ("hermite_124", {"b": "x"}),
        ("monomial_134", {"extra": 1}),
    ],
    ids=["k_without_ts", "zero_b", "unsorted_indices", "bad_b", "unknown_key"],
)
def test_planar_certificate_rejects_malformed_params(name, params):
    doc = json.loads((GOLDEN / name / "certificate.json").read_text())
    doc["params"].update(params)
    with pytest.raises(CertificationFailure, match="system for its params"):
        certify(EquilibriumCertificate.from_json(doc))


def test_planar_certificate_rejects_unknown_recipe():
    doc = json.loads((GOLDEN / "hermite_124" / "certificate.json").read_text())
    doc["recipe"] = "laguerre"
    with pytest.raises(CertificationFailure, match="no 'laguerre' system"):
        certify(EquilibriumCertificate.from_json(doc))


def test_planar_certificate_rejects_changed_inventory_charge():
    doc = json.loads((GOLDEN / "hermite_124" / "certificate.json").read_text())
    doc["inventory"][0]["net_charge"] += 1
    with pytest.raises(CertificationFailure, match="stored 'inventory'"):
        certify(EquilibriumCertificate.from_json(doc))


def test_planar_certificate_tolerates_last_bit_of_inventory_position():
    # root finders on other numpy builds may round the last bit differently
    doc = json.loads((GOLDEN / "hermite_124" / "certificate.json").read_text())
    for entry in doc["inventory"]:
        x, y = entry["position"]
        entry["position"] = [math.nextafter(x, math.inf), math.nextafter(y, -math.inf)]
    cert = certify(EquilibriumCertificate.from_json(doc))
    assert cert.residual_exact_zero


def test_certificate_with_tiny_roots_rejects_a_moved_position():
    # roots at +-1e-50 and 0: a position moved by 1e-50 is a different
    # inventory, a last-bit move is not
    doc = hermite_pair([1, 2], 10**100).to_json()
    for entry in doc["inventory"]:
        entry["position"] = [math.nextafter(x, math.inf) for x in entry["position"]]
    assert certify(EquilibriumCertificate.from_json(doc)).residual_exact_zero
    plus = next(e for e in doc["inventory"] if e["net_charge"] == 1)
    plus["position"][0] *= 2
    with pytest.raises(CertificationFailure, match="stored 'inventory'"):
        certify(EquilibriumCertificate.from_json(doc))


def test_certify_rejects_a_pair_without_float_shadow():
    # the exact pair builds, but its field U = b z has no float form
    doc = monomial_pair([1, 2], Fraction(10**400)).to_json()
    with pytest.raises(CertificationFailure, match="system for its params"):
        certify(EquilibriumCertificate.from_json(doc))


def test_float_zero_of_older_certificates_still_loads():
    # certificates written before the zero polynomial became ring-free
    # store a float zero U as {"exact": false, "coeffs": []}
    assert Polynomial.from_json({"exact": False, "coeffs": []}).is_zero
    doc = json.loads((GOLDEN / "adler_moser_4" / "certificate.json").read_text())
    doc["U"] = {"exact": False, "coeffs": []}
    cert = certify(EquilibriumCertificate.from_json(doc))
    assert cert.residual_exact_zero
    assert cert.to_json()["p"] == doc["p"]


def test_certificates_sum_i_up_to_18():
    index_sets = [
        (2, 4, 6),
        (1, 2, 4, 6),
        (0, 1, 3, 5, 8),
        (5, 6, 7),
        (2, 7, 9),
    ]
    for indices in index_sets:
        assert sum(indices) <= 18
        cert = hermite_pair(list(indices), -2)
        assert cert.residual_exact_zero
    for indices in ((0, 1, 2, 3, 4), (0, 1, 2, 4, 5), (1, 2, 3, 4, 5)):
        assert sum(indices) <= 18
        cert = laguerre_pair(list(indices), 1)
        assert cert.residual_exact_zero
    for indices in ((0, 1, 4), (2, 5, 7), (1, 6)):
        cert = monomial_pair(list(indices), Fraction(2, 3))
        assert cert.residual_exact_zero
