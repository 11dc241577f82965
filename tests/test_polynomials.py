from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeflow.errors import ClusterAmbiguity
from chargeflow.polynomials import (
    Polynomial,
    classical,
    cluster_points,
    find_roots,
    from_roots,
    hermite,
    jacobi,
    laguerre,
    monomial,
    pair_matrix,
    poly_gcd,
    reduce_pair,
    wronskian,
)
from chargeflow.scalars import GaussianRational


def P(*coeffs):
    return Polynomial(coeffs)


def test_eval_root():
    p = P(2, -3, 1)  # z^2 - 3z + 2
    assert p(1) == GaussianRational(0)
    assert p(2) == GaussianRational(0)


def test_eval_zero_polynomial():
    assert Polynomial.zero()(5) == GaussianRational(0)


def test_eval_hand_horner():
    # 8z^6 - 12z^4 + 18z^2 - 15 at z = 1
    p = P(-15, 0, 18, 0, -12, 0, 8)
    assert p(1) == GaussianRational(-1)


def test_eval_float_point_converts():
    p = P(2, -3, 1)
    val = p(1.0 + 0j)
    assert isinstance(val, complex)
    assert abs(val) < 1e-15


def test_derivative_basic():
    assert P(0, 0, 0, 1).derivative() == P(0, 0, 3)
    assert P(7).derivative() == Polynomial.zero()
    assert hermite(2).derivative() == P(0, 8)


def test_derivative_linear_and_product_rule():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = Polynomial([int(v) for v in rng.integers(-5, 6, size=4)])
        b = Polynomial([int(v) for v in rng.integers(-5, 6, size=5)])
        assert (a + b).derivative() == a.derivative() + b.derivative()
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_from_roots_trivial():
    p = from_roots([1, 2])
    assert max(abs(c - e) for c, e in zip(p.coeffs, [2, -3, 1])) < 1e-14
    assert from_roots([]).degree == 0
    q = from_roots([1j, -1j])
    assert max(abs(c - e) for c, e in zip(q.coeffs, [1, 0, 1])) < 1e-14


def test_find_roots_simple():
    roots = sorted(find_roots(P(1, 0, 1).to_float()), key=lambda z: z.imag)
    assert abs(roots[0] + 1j) < 1e-12 and abs(roots[1] - 1j) < 1e-12
    roots = sorted(find_roots(P(2, -3, 1).to_float()), key=lambda z: z.real)
    assert abs(roots[0] - 1) < 1e-12 and abs(roots[1] - 2) < 1e-12


def test_find_roots_reduced_quartic_no_real():
    # 4z^4 - 4z^2 + 3: four complex roots, none on the real axis
    roots = find_roots(P(3, 0, -4, 0, 4))
    assert len(roots) == 4
    assert all(abs(r.imag) > 1e-3 for r in roots)


def test_find_roots_zero_deflation():
    roots = list(find_roots(P(0, 0, 0, -1, 0, 1)))  # z^3 (z^2 - 1)
    zeros = [r for r in roots if abs(r) < 1e-12]
    assert len(zeros) == 3
    others = sorted(r.real for r in roots if abs(r) > 0.5)
    assert abs(others[0] + 1) < 1e-10 and abs(others[1] - 1) < 1e-10


def test_find_roots_requires_nonconstant():
    with pytest.raises(ValueError):
        find_roots(P(3))


def test_roundtrip_roots_random_degrees():
    rng = np.random.default_rng(123)
    for deg in range(2, 13):
        while True:
            roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
            seps = [
                abs(roots[i] - roots[j])
                for i in range(deg)
                for j in range(i + 1, deg)
            ]
            if min(seps) > 1e-2:
                break
        p = from_roots(roots)
        back = from_roots(sorted(find_roots(p), key=lambda z: (z.real, z.imag)))
        scale = max(abs(c) for c in p.coeffs)
        assert all(
            abs(a - b) <= 1e-8 * scale for a, b in zip(p.coeffs, back.coeffs)
        )


def test_wronskian_basic():
    assert wronskian([P(1), P(0, 1)]) == P(1)
    # W[f, g] = f g' - f' g oracle on a 2x2 case
    f = P(0, 1)
    g = Polynomial([0, 0, 0, Fraction(1, 3)])
    expected = f * g.derivative() - f.derivative() * g
    assert wronskian([f, g]) == expected
    assert expected == Polynomial([0, 0, 0, Fraction(2, 3)])


def test_wronskian_hermite_triple():
    W = wronskian([hermite(2), hermite(4), hermite(6)])
    target = Polynomial([0, 0, 0, -15, 0, 18, 0, -12, 0, 8]).scale(8192)
    assert W == target


def test_wronskian_rejects_float_inputs():
    with pytest.raises(TypeError):
        wronskian([P(0, 1).to_float(), hermite(2).to_float()])
    with pytest.raises(TypeError):
        wronskian([P(0, 1), hermite(2).to_float()])


def test_eval_float_polynomial_on_array():
    p = Polynomial([1.0, -0.5j, 0.25, 2.0])
    z = np.array([0.3 + 0.1j, -1.2, 2.0j])
    ref = np.array([p(complex(v)) for v in z])
    assert np.max(np.abs(p(z) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_pair_matrix_kernel_never_sees_diagonal():
    z = np.array([0.5, -1.0 + 1j, 2.0j])
    K = pair_matrix(z)
    for i in range(3):
        for j in range(3):
            assert K[i, j] == (0.0 if i == j else 1.0 / (z[i] - z[j]))
    seen = []
    pair_matrix(z, lambda d: seen.append(d.copy()) or d)
    assert np.all(seen[0] != 0)
    assert np.all(np.diag(pair_matrix(z, np.abs, diagonal=np.inf)) == np.inf)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(-6, 6))
def test_wronskian_alternating_and_scaling(swap_pos, c):
    fs = [hermite(1), hermite(3), P(1, 2, 1)]
    base = wronskian(fs)
    swapped = list(fs)
    swapped[swap_pos], swapped[(swap_pos + 1) % 3] = (
        swapped[(swap_pos + 1) % 3],
        swapped[swap_pos],
    )
    assert wronskian(swapped) == -base
    scaled = [fs[0].scale(c)] + fs[1:]
    assert wronskian(scaled) == base.scale(c)


def test_classical_hermite_recurrence():
    for n in range(1, 20):
        lhs = hermite(n + 1)
        rhs = P(0, 2) * hermite(n) - hermite(n - 1).scale(2 * n)
        assert lhs == rhs


def test_classical_laguerre_recurrence():
    alpha = Fraction(-1)
    for n in range(1, 20):
        lhs = laguerre(n + 1, alpha).scale(n + 1)
        rhs = (
            Polynomial([2 * n + 1 + alpha, -1]) * laguerre(n, alpha)
            - laguerre(n - 1, alpha).scale(n + alpha)
        )
        assert lhs == rhs


def test_classical_jacobi_recurrence():
    a, b = Fraction(1, 2), Fraction(-1, 3)
    for n in range(1, 20):
        n_f = Fraction(n)
        c1 = 2 * (n_f + 1) * (n_f + a + b + 1) * (2 * n_f + a + b)
        c2 = (2 * n_f + a + b + 1) * (a * a - b * b)
        c3 = (2 * n_f + a + b) * (2 * n_f + a + b + 1) * (2 * n_f + a + b + 2)
        c4 = 2 * (n_f + a) * (n_f + b) * (2 * n_f + a + b + 2)
        lhs = jacobi(n + 1, a, b).scale(c1)
        rhs = (
            Polynomial([c2, c3]) * jacobi(n, a, b)
            - jacobi(n - 1, a, b).scale(c4)
        )
        assert lhs == rhs


def test_classical_examples():
    assert hermite(2) == P(-2, 0, 4)
    assert laguerre(1, -1) == P(0, -1)
    assert monomial(3) == P(0, 0, 0, 1)
    assert classical("hermite", 2) == hermite(2)
    assert classical("laguerre", 1, alpha=-1) == laguerre(1, -1)
    assert classical("jacobi", 2, alpha=1, beta=1) == jacobi(2, 1, 1)
    assert classical("monomial", 3) == monomial(3)


def test_exactness_never_mixes():
    with pytest.raises(TypeError):
        P(1, 1) + P(1.0, 1.0).to_float() * P(1)
    with pytest.raises(TypeError):
        _ = P(1, 1) * Polynomial([1.0])


def test_gcd_and_divexact():
    p = P(-1, 0, 1)  # (z-1)(z+1)
    q = P(-1, 1)  # z - 1
    g = poly_gcd(p, q)
    assert g == q.monic()
    assert p.div_exact(q) == P(1, 1)


def test_reduce_pair_worked_example():
    p = wronskian([hermite(2), hermite(4), hermite(6)])
    q = wronskian([hermite(2), hermite(4)])
    pbar, qbar, inventory = reduce_pair(p, q)
    # z^2 (8z^6 - 12z^4 + 18z^2 - 15) made monic
    target_p = Polynomial(
        [0, 0, Fraction(-15, 8), 0, Fraction(18, 8), 0, Fraction(-12, 8), 0, 1]
    )
    target_q = Polynomial([Fraction(3, 4), 0, -1, 0, 1])
    assert pbar == target_p
    assert qbar == target_q
    at_zero = [net for z, net in inventory if abs(z) < 1e-9]
    assert at_zero == [2]


def test_reduce_pair_trivial():
    pbar, qbar, inv = reduce_pair(P(0, 0, 1), P(0, 1))
    assert pbar == P(0, 1) and qbar == P(1)
    assert inv == [(0j, 1)]
    pbar, qbar, inv = reduce_pair(P(-1, 1), P(1, 1))
    assert pbar == P(-1, 1) and qbar == P(1, 1)
    assert sorted(inv, key=lambda t: t[0].real) == [(-1 + 0j, -1), (1 + 0j, 1)]


def test_reduce_pair_cluster_ambiguity():
    p = from_roots([1.0, 1.0 + 3e-4])
    q = from_roots([2.0])
    with pytest.raises(ClusterAmbiguity):
        reduce_pair(p, q, ctol=1e-3)


def test_cluster_points():
    groups = cluster_points([0j, 1e-12 + 0j, 1.0 + 0j], 1e-6)
    sizes = sorted(len(g) for g in groups)
    assert sizes == [1, 2]


def naive_clusters(points, tol):
    """Union-find over every pair with |p_i - p_j| <= tol, groups keyed by
    their first index."""
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if abs(points[i] - points[j]) <= tol:
                parent[find(j)] = find(i)
    groups = {}
    for i in range(len(points)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


@pytest.mark.parametrize("size", [0, 1, 2, 7, 30])
def test_cluster_points_matches_double_loop(size):
    rng = np.random.default_rng(size)
    centers = rng.normal(size=max(1, size // 3)) + 1j * rng.normal(size=max(1, size // 3))
    pts = list(centers[rng.integers(len(centers), size=size)] + 1e-4 * rng.normal(size=size))
    for tol in (0.0, 1e-6, 1e-3, 0.5, 10.0):
        assert cluster_points(pts, tol) == naive_clusters(pts, tol)


def test_cluster_points_threshold_inclusive():
    pts = [0j, 1 + 0j, 2 + 0j, 3.5 + 0j]
    assert cluster_points(pts, 1.0) == [[0, 1, 2], [3]]
    assert cluster_points(pts, 0.999) == [[0], [1], [2], [3]]
    assert cluster_points([2 + 0j, 5 + 0j, 0j, 3 + 0j], 1.0) == [[0, 3], [1], [2]]


def test_json_roundtrip_exact():
    p = Polynomial([Fraction(1, 3), GaussianRational(0, Fraction(-2, 7)), 5])
    assert Polynomial.loads(p.dumps()) == p


def test_json_roundtrip_float():
    p = Polynomial([1.5 + 0.5j, -2.0])
    q = Polynomial.loads(p.dumps())
    assert q.exact is False
    assert all(abs(a - b) < 1e-16 for a, b in zip(p.coeffs, q.coeffs))


def test_json_format_shape():
    doc = P(1, 2).to_json()
    assert doc == {"exact": True, "coeffs": [["1", "1"], ["2", "1"]]}


def test_zero_polynomial_canonical():
    assert Polynomial([0, 0]).is_zero
    assert Polynomial([0, 0]).coeffs == ()
    assert Polynomial([0.0, 0.0]).coeffs == ()
    assert Polynomial([0, 1]).degree == 1


# -- the ring rule ----------------------------------------------------------------

_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)
_gaussians = st.builds(GaussianRational, _rationals, _rationals)
_exact_polys = st.lists(_gaussians, max_size=5).map(Polynomial)


def _size(p):
    return max((abs(c) for c in p.to_float().coeffs), default=0.0)


def _assert_close(exact, approx, scale):
    """``exact`` converted to float agrees with ``approx`` coefficientwise
    to 1e-12 relative to ``scale``, the magnitude of the terms involved."""
    assert exact.exact and not approx.exact or approx.is_zero
    f = exact.to_float()
    for k in range(max(len(f.coeffs), len(approx.coeffs))):
        assert abs(f.coeff(k) - approx.coeff(k)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(_exact_polys, _exact_polys, _gaussians)
def test_to_float_commutes_with_ring_operations(p, q, x):
    pf, qf = p.to_float(), q.to_float()
    _assert_close(p + q, pf + qf, _size(p) + _size(q))
    _assert_close(p - q, pf - qf, _size(p) + _size(q))
    _assert_close(p * q, pf * qf, 5 * _size(p) * _size(q))
    _assert_close(p.derivative(), pf.derivative(), 5 * _size(p))
    xf = x.to_complex()
    bound = sum(abs(c) * abs(xf) ** k for k, c in enumerate(pf.coeffs))
    assert abs(p(x).to_complex() - pf(xf)) <= 1e-12 * bound


def test_coefficients_decide_the_ring():
    assert Polynomial([1, Fraction(1, 2)]).exact
    assert Polynomial([1, Fraction(1, 2)]).coeffs == (GaussianRational(1), GaussianRational(Fraction(1, 2)))
    assert not Polynomial([1, 0.5]).exact
    assert Polynomial([1, 0.5]).coeffs == (1 + 0j, 0.5 + 0j)
    # the zero polynomial belongs to every ring; past the degree reads 0
    assert Polynomial.zero().exact and Polynomial([0.0]).is_zero
    assert Polynomial([1.0]).coeff(3) == 0 and P(1).coeff(3) == 0
    assert Polynomial.zero() + Polynomial([2.0]) == Polynomial([2.0])
    # a Fraction scale factor joins the float ring
    assert Polynomial([1.0, 2.0]).scale(Fraction(1, 2)) == Polynomial([0.5, 1.0])


def test_mixing_rings_raises():
    exact, flt = P(1, 2, 3), Polynomial([1.0, 2.0, 3.0])
    with pytest.raises(TypeError):
        exact + flt
    with pytest.raises(TypeError):
        flt + exact
    with pytest.raises(TypeError):
        exact * flt
    with pytest.raises(TypeError):
        flt * exact
    with pytest.raises(TypeError):
        exact.scale(0.5)
    with pytest.raises(TypeError):
        Polynomial([GaussianRational(1), 0.5])


def test_array_coefficients_are_a_batch_of_float_polynomials():
    rng = np.random.default_rng(4)
    roots = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))  # 3 roots, 5 samples
    batch = from_roots(roots)
    assert batch.degree == 3 and not batch.exact
    for s in range(5):
        single = from_roots(roots[:, s])
        assert all(abs(batch.coeff(k)[s] - single.coeff(k)) < 1e-14 for k in range(3))
        assert abs(batch(0.3 + 0.1j)[s] - single(0.3 + 0.1j)) < 1e-13
