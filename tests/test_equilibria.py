import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from chargeflow import _trig
from chargeflow.equilibria import (
    EquilibriumCertificate,
    adler_moser,
    certify,
    cylinder_pair,
    hermite_pair,
    laguerre_pair,
    monomial_pair,
)
from chargeflow.errors import BadK, CertificationFailure, ValidationError
from chargeflow.operators import lambda_poly, polylinear_H
from chargeflow.polynomials import Polynomial, hermite


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


def test_cylinder_pair_12():
    for ts in ([0.0, math.pi / 6], [0.3, 1.1]):
        cert = cylinder_pair([1, 2], ts)
        assert cert.residual_exact_zero
        assert cert.degrees == (3, 1)
        assert cert.bivariate["residual_norm_at_ts"] < 1e-10


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
    """The Fourier-amplitude residual, times r**(n+m-2) e^{i h phi}, equals
    q Lap p - 2 (grad q, grad p) + p Lap q of the (X, Y) polynomials."""
    import sympy as sp

    indices = [1, 2, 3]
    rng = np.random.default_rng(11)
    ts = list(rng.uniform(0.0, 2 * math.pi, size=len(indices)))
    modes = [_trig.TrigPoly.sin_mode(f, j, len(indices)) for j, f in enumerate(indices)]
    wp, n = _trig.trig_wronskian(modes), sum(indices)
    if q_mode is None:
        wq, m = _trig.trig_wronskian(modes[:-1]), sum(indices[:-1])
    else:
        wq = _trig.TrigPoly.sin_mode(*q_mode, len(indices))
    resid = _trig.laplace_residual(wp, wq, n, m)
    assert resid.is_zero == (q_mode is None)
    amps = resid.substitute(ts)

    X, Y = sp.symbols("X Y", real=True)
    P = _xy_poly(sp, [c.substitute(ts) for c in _trig.xy_coeffs(wp, n)], X, Y)
    Q = _xy_poly(sp, [c.substitute(ts) for c in _trig.xy_coeffs(wq, m)], X, Y)
    parts = [
        Q * (sp.diff(P, X, 2) + sp.diff(P, Y, 2)),
        -2 * (sp.diff(Q, X) * sp.diff(P, X) + sp.diff(Q, Y) * sp.diff(P, Y)),
        P * (sp.diff(Q, X, 2) + sp.diff(Q, Y, 2)),
    ]
    for x, y in rng.uniform(-1.5, 1.5, size=(4, 2)):
        values = [complex(part.subs({X: x, Y: y}).evalf()) for part in parts]
        z = complex(x, y)
        r = abs(z)
        fourier = r ** (n + m - 2) * sum(a * (z / r) ** h for h, a in amps.items())
        scale = sum(abs(v) for v in values)
        assert abs(fourier - sum(values)) <= 1e-9 * scale


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
    ]
    for cert in certs:
        out = certify(cert)
        assert out.residual_exact_zero
        assert out.notes["gradient_max"] < 1e-7


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
    "field,path,value",
    [
        ("p", ("p", "coeffs", 0), [123.0, 0.0]),
        ("q", ("q", "coeffs", 0), [123.0, 0.0]),
        ("degrees", ("degrees", 0), 4),
        ("bivariate", ("bivariate", "p_xy", 0), [123.0, 0.0]),
    ],
    ids=["p", "q", "degrees", "bivariate"],
)
def test_cylinder_certificate_rejects_mutated_field(field, path, value):
    doc = json.loads(json.dumps(certify(cylinder_pair([1, 2], [0.3, 1.1])).to_json()))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(CertificationFailure, match=f"stored '{field}'"):
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


def test_float_zero_of_older_certificates_still_loads():
    # certificates written before the zero polynomial became ring-free
    # store a float zero U as {"exact": false, "coeffs": []}
    assert Polynomial.from_json({"exact": False, "coeffs": []}).is_zero
    doc = json.loads((GOLDEN / "cylinder_12" / "certificate.json").read_text())
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
