import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeflow.errors import NonConvergence, ValidationError
from chargeflow.polynomials import (
    _GCD_I,
    _GCD_PRIME,
    Polynomial,
    _convolve,
    _coprime_mod_prime,
    _horner_rows,
    _inverse,
    _value_and_slope,
    find_roots,
    from_roots,
    hermite,
    jacobi,
    laguerre,
    leading_wronskians,
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
    p = P(0, 0, 0, -1, 0, 1)  # z^3 (z^2 - 1)
    for poly in (p, p.to_float()):  # exact zeros split off exactly, float ones one by one
        roots = list(find_roots(poly))
        zeros = [r for r in roots if abs(r) < 1e-12]
        assert len(zeros) == 3
        others = sorted(r.real for r in roots if abs(r) > 0.5)
        assert abs(others[0] + 1) < 1e-10 and abs(others[1] - 1) < 1e-10


def test_find_roots_requires_nonconstant():
    with pytest.raises(ValueError):
        find_roots(P(3))


_DYADIC = 2**12


@st.composite
def _separated_roots(draw, max_size=30):
    """1 to max_size distinct exact Gaussian-rational roots, one in each of n
    equal angular slots (jittered by up to a third of a slot) of an
    annulus 0.8 R .. 1.25 R, rounded to the 2**-12 grid: neighbours stay
    at least a third of a slot apart, so the roots are well conditioned."""
    n = draw(st.integers(1, max_size))
    radius = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    turn = draw(st.floats(0, 1))
    jitter = draw(st.lists(st.tuples(st.floats(-1 / 3, 1 / 3), st.floats(0.8, 1.25)), min_size=n, max_size=n))
    roots = []
    for k, (slot, stretch) in enumerate(jitter):
        w = radius * stretch * np.exp(2j * np.pi * (k + slot + turn) / n)
        roots.append(GaussianRational(Fraction(round(w.real * _DYADIC), _DYADIC), Fraction(round(w.imag * _DYADIC), _DYADIC)))
    return roots


@settings(max_examples=100, deadline=None)
@given(_separated_roots())
def test_find_roots_round_trip_from_the_exact_product(roots):
    p = Polynomial((1,))
    for r in roots:
        p = p * Polynomial((-r, 1))
    got = find_roots(p)
    assert len(got) == len(roots)
    for r in roots:
        z = complex(float(r.re), float(r.im))
        assert min(abs(g - z) for g in got) <= 1e-10 * max(1.0, abs(z))
    c = np.array(p.to_float().coeffs)
    for g in got:
        scale = sum(abs(ck) * abs(g) ** k for k, ck in enumerate(c))
        assert abs(np.polyval(c[::-1], g)) <= 1e-12 * scale
    assert _hex(find_roots(p)) == _hex(got)


@pytest.mark.parametrize(
    "coeffs",
    [[Fraction(-1, 10**400), 1], [1, Fraction(1, 10**400)], [0, Fraction(1, 10**400), 0, 1]],
    ids=["constant", "leading", "constant_past_a_zero_root"],
)
def test_find_roots_with_a_coefficient_below_the_float_range_raises_validation(coeffs):
    # before, a constant term whose float form is 0 was deflated as an
    # exact zero root, and a leading one cost the polynomial its degree
    with pytest.raises(ValidationError, match="past the float range"):
        find_roots(Polynomial(coeffs))


def test_find_roots_lets_a_middle_coefficient_round_to_zero():
    roots = find_roots(Polynomial([1, Fraction(1, 10**400), 1]))
    assert np.allclose(roots, [-1j, 1j], rtol=0, atol=1e-15)


def test_find_roots_whose_monic_form_overflows_raises_nonconvergence():
    # under the tests' error::RuntimeWarning filter, an overflow warning
    # escaping find_roots would fail this test instead
    with pytest.raises(NonConvergence):
        find_roots(Polynomial((1e300, 1.0, 1e-300)))


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


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_pair_matrix_on_a_stack_equals_its_rows(n):
    rng = np.random.default_rng(n)
    Z = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
    D = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
    for kernel, diagonal in ((_inverse, 0.0), (np.abs, np.inf)):
        stack = pair_matrix(Z, kernel, diagonal)
        assert stack.shape == (5, n, n)
        for z, block in zip(Z, stack):
            assert np.array_equal(block, pair_matrix(z, kernel, diagonal))
    stack = pair_matrix(Z, diagonal=D)  # one diagonal entry per state and position
    for z, d, block in zip(Z, D, stack):
        assert np.array_equal(block, pair_matrix(z, diagonal=d))
        assert np.array_equal(np.diag(block), d)


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


def test_reduce_pair_keeps_tiny_roots_apart():
    # every root lies below 1e-30, and no tolerance merges them: +1 at
    # +-1e-50 and -1 at 0 stay three charges
    pbar, qbar, inv = reduce_pair(P(10**200, 0, -(10**300)), P(0, -(10**100)))
    assert qbar == P(0, 1)
    assert sorted((net, z.real * 1e50) for z, net in inv) == [(-1, 0.0), (1, -1.0), (1, 1.0)]


def test_reduce_pair_rejects_float_input():
    # before, a float pair was rebuilt from its root clusters
    p = from_roots([1.0, 1.0 + 3e-4])
    with pytest.raises(TypeError):
        reduce_pair(p, from_roots([2.0]))
    with pytest.raises(TypeError):
        reduce_pair(P(-1, 1), p)


@pytest.mark.parametrize("k", [2, 3])
def test_reduce_pair_repeated_exact_root_carries_multiplicity(k):
    # before, the float roots of (z - 1/3)**k were clustered: at k = 2
    # their split of about 1e-8.5 raised ClusterAmbiguity, and at k = 3
    # they stayed three +1 charges near 1/3
    third = P(Fraction(-1, 3), 1)
    _, _, inv = reduce_pair(third**k * P(2, 1), P(5, 1))
    assert [c for _, c in inv] == [-1, 1, k]
    assert np.allclose([z for z, _ in inv], [-5, -2, 1 / 3], rtol=1e-15, atol=0)


_MULTIPLICITIES = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any)


@settings(max_examples=60, deadline=None)
@given(
    roots=_separated_roots(max_size=6),
    zeros=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    leads=st.tuples(st.integers(1, 9), st.integers(-9, 9), st.integers(1, 9)),
    data=st.data(),
)
def test_reduce_pair_inventory_is_the_net_charge_multiset(roots, zeros, leads, data):
    """Each root goes 1 to 4 times into p, into q or into both, and z = 0
    up to 3 times into each: the inventory holds every point of nonzero
    net charge once, with that charge, within 1e-12 of the largest
    modulus."""
    mults = data.draw(st.lists(_MULTIPLICITIES, min_size=len(roots), max_size=len(roots)))
    p = P(*[0] * zeros[0], GaussianRational(leads[0], leads[1]))
    q = P(*[0] * zeros[1], Fraction(leads[1], leads[2]) or 1)
    for r, (mp, mq) in zip(roots, mults):
        p, q = p * P(-r, 1) ** mp, q * P(-r, 1) ** mq
    want = [(complex(r), mp - mq) for r, (mp, mq) in zip(roots, mults)] + [(0j, zeros[0] - zeros[1])]
    want = [(z, c) for z, c in want if c]
    _, _, inv = reduce_pair(p, q)
    assert len(inv) == len(want)
    tol = 1e-12 * max((abs(z) for z, _ in want + inv), default=1.0)
    for z, c in want:
        assert [net for at, net in inv if abs(at - z) <= tol] == [c]


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
    xf = complex(x)
    bound = sum(abs(c) * abs(xf) ** k for k, c in enumerate(pf.coeffs))
    assert abs(complex(p(x)) - pf(xf)) <= 1e-12 * bound


def test_monic_of_a_float_polynomial_divides_by_its_leading_coefficient():
    p = Polynomial([2.0, 1j, 4.0]).monic()
    assert not p.exact and p.floats == (0.5 + 0j, 0.25j, 1 + 0j)


def test_to_float_drops_top_coefficients_below_the_float_range():
    # 10^-400 rounds to 0.0, so the float shadow has a lower degree
    f = Polynomial([Fraction(3), Fraction(1, 2), Fraction(1, 10**400)]).to_float()
    assert not f.exact and f.degree == 1 and f.floats == (3 + 0j, 0.5 + 0j)
    assert Polynomial([Fraction(1, 10**400), Fraction(-1, 10**500)]).to_float().is_zero


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


# trailing float coefficients: the signed zeros, NaNs in either part, a
# tiny nonzero, and (S,) arrays that are zero, hold a NaN or a tiny entry
_TRAILING = [
    0j, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), math.nan, complex(0.0, math.nan), 1e-300,
    np.zeros(3), np.array([0.0, -0.0, -0j]), np.array([0.0, math.nan, 0.0]), np.array([0.0, 1e-300, 0.0]),
]


def _np_any_strip(coeffs):
    """The float coefficients left after dropping trailing ones that
    ``np.any`` finds zero, the rule the constructor follows."""
    floats = [v if isinstance(v, np.ndarray) else complex(v) for v in coeffs]
    while floats and not np.any(floats[-1]):
        floats.pop()
    return floats


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([[], [2.5], [np.array([1.0, 0.0, -2.0])]]),
    st.lists(st.sampled_from(range(len(_TRAILING))), max_size=4),
)
def test_float_trailing_zeros_strip_as_np_any_finds_them(head, tail):
    coeffs = head + [_TRAILING[i] for i in tail]
    p, want = Polynomial(coeffs), _np_any_strip(coeffs)
    if not want:
        assert _fields(p) == _fields(Polynomial.zero())
        return
    assert not p.exact and len(p.floats) == len(want)
    for got, ref in zip(p.floats, want):
        assert type(got) is type(ref)
        assert np.array_equal(got, ref, equal_nan=True)


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
    # before, a Fraction among floats was rounded into a float polynomial
    for coeffs in ([Fraction(1, 3), 0.5], [1, 2j, Fraction(1, 3)]):
        with pytest.raises(TypeError):
            Polynomial(coeffs)


def test_array_coefficients_are_a_batch_of_float_polynomials():
    rng = np.random.default_rng(4)
    roots = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))  # 3 roots, 5 samples
    batch = from_roots(roots)
    assert batch.degree == 3 and not batch.exact
    for s in range(5):
        single = from_roots(roots[:, s])
        assert all(abs(batch.coeff(k)[s] - single.coeff(k)) < 1e-14 for k in range(3))
        assert abs(batch(0.3 + 0.1j)[s] - single(0.3 + 0.1j)) < 1e-13


# -- the integer kernel against a sympy oracle ----------------------------------
# Exact sums, products, divisions and gcds run on cleared integer numerators;
# sympy's Q(i) polynomials (test-only) are the reference.

_reals = st.builds(GaussianRational, _rationals)
_imaginaries = st.builds(lambda r: GaussianRational(0, r), _rationals)
# purely real, purely imaginary and mixed coefficient lists, so leading
# coefficients come out rational, imaginary and Gaussian; degree 0 included
_kernel_polys = st.one_of(
    *(st.lists(coeff, min_size=1, max_size=7) for coeff in (_reals, _imaginaries, _gaussians))
).map(Polynomial)
_nonzero_polys = _kernel_polys.filter(lambda p: not p.is_zero)


def _fields(p):
    return (p.den, p.re, p.im, p.floats)


# -- exact products against a double loop --------------------------------------

# integer coefficient lists with low-order zeros, all-zero ones and length 1
_int_lists = st.builds(
    lambda k, c: [0] * k + c, st.integers(0, 4), st.lists(st.integers(-9, 9), max_size=6)
).filter(bool)
# polynomials with low-order zeros, and multiples of powers of i z, whose
# real or imaginary numerators are all zero
_iz = Polynomial([0, GaussianRational(0, 1)])
_product_factors = st.one_of(
    st.builds(Polynomial.shift, _kernel_polys, st.integers(0, 4)),
    st.builds(lambda e, c: (_iz**e).scale(c), st.integers(0, 5), st.one_of(_reals, _imaginaries, _gaussians)),
)


def _double_loop(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


@settings(max_examples=150, deadline=None)
@given(_int_lists, _int_lists)
def test_convolve_matches_a_double_loop(a, b):
    assert _convolve(tuple(a), b) == _double_loop(a, b, 0)


@settings(max_examples=150, deadline=None)
@given(_product_factors, _product_factors)
def test_exact_product_matches_a_double_loop(p, q):
    assert _fields(p * q) == _fields(Polynomial(_double_loop(p.coeffs, q.coeffs, GaussianRational(0))))


@settings(max_examples=80, deadline=None)
@given(_kernel_polys, _nonzero_polys, _gaussians.filter(bool))
def test_every_route_reaches_the_one_canonical_form(p, q, c):
    routes = [
        ((p * q).div_exact(q), p),
        ((p + q) - q, p),
        (p.scale(c).monic(), p.monic()),
        (Polynomial.from_json(p.to_json()), p),
    ]
    for got, want in routes:
        assert _fields(got) == _fields(want) and hash(got) == hash(want)
    # lowest terms, positive denominator, no stored zero top or zero imaginary part
    assert p.den > 0 and math.gcd(p.den, *p.re, *(p.im or ())) == 1
    assert p.im is None or (any(p.im) and len(p.im) == len(p.re))
    assert p.is_zero or p.re[-1] or p.im[-1]
    # to_float rounds each part as float(Fraction) does
    assert p.to_float().coeffs == tuple(complex(x) for x in p.coeffs)


def _oracle(p):
    """p as a sympy polynomial over Q(i)."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    expr = sum((sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)) * z**k for k, c in enumerate(p.coeffs))
    return sympy.Poly(expr, z, domain="QQ_I")


@settings(max_examples=80, deadline=None)
@given(_kernel_polys, _kernel_polys, _gaussians)
def test_product_matches_sympy_oracle(p, q, c):
    assert _oracle(p * q) == _oracle(p) * _oracle(q)
    assert _oracle(p.scale(c)) == _oracle(p) * _oracle(Polynomial([c]))


@settings(max_examples=60, deadline=None)
@given(_kernel_polys, _kernel_polys)
def test_sum_and_difference_match_sympy_oracle(p, q):
    assert _oracle(p + q) == _oracle(p) + _oracle(q)
    assert _oracle(p - q) == _oracle(p) - _oracle(q)
    assert (p - p).is_zero


@settings(max_examples=80, deadline=None)
@given(_kernel_polys, _nonzero_polys)
def test_divmod_matches_sympy_oracle(a, b):
    # includes deg a < deg b, constant divisors and Gaussian leads
    quot, rem = a.divmod(b)
    oracle_quot, oracle_rem = _oracle(a).div(_oracle(b))
    assert _oracle(quot) == oracle_quot
    assert _oracle(rem) == oracle_rem


def _oracle_gcd(p, q):
    return _oracle(p).gcd(_oracle(q)).monic()


@settings(max_examples=60, deadline=None)
@given(_nonzero_polys, _nonzero_polys)
def test_gcd_of_random_pairs_matches_sympy_oracle(p, q):
    assert _oracle(poly_gcd(p, q)) == _oracle_gcd(p, q)


@settings(max_examples=40, deadline=None)
@given(_nonzero_polys, _nonzero_polys, st.integers(0, 4), st.integers(0, 4))
def test_gcd_with_shared_z_power_matches_sympy_oracle(p, q, i, j):
    p, q = p.shift(i), q.shift(j)
    g = poly_gcd(p, q)
    assert _oracle(g) == _oracle_gcd(p, q)
    assert g.coeffs[: min(i, j)] == (GaussianRational(0),) * min(i, j)


@settings(max_examples=40, deadline=None)
@given(_nonzero_polys, _nonzero_polys, st.integers(1, 2), st.sampled_from([-1, GaussianRational(0, -1)]))
def test_gcd_with_shared_factor_matches_sympy_oracle(p, q, power, root):
    factor = P(root, 3)  # 3z - 1 or 3z - i
    for _ in range(power):
        p, q = p * factor, q * factor
    g = poly_gcd(p, q)
    assert _oracle(g) == _oracle_gcd(p, q)
    assert g.degree >= power


def test_gcd_prime_has_a_square_root_of_minus_one():
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(_GCD_PRIME) and _GCD_PRIME % 4 == 1
    assert _GCD_I * _GCD_I % _GCD_PRIME == _GCD_PRIME - 1


@settings(max_examples=40, deadline=None)
@given(_nonzero_polys, _nonzero_polys, _rationals.filter(bool), st.integers(1, 3))
def test_gcd_falls_back_to_euclid_when_the_prime_divides_a_lead(p, q, c, den):
    # the cleared leading numerator of a is a multiple of the prime, so the
    # modular test cannot decide and Euclid's algorithm gives the answer
    a = p * Polynomial([c, Fraction(_GCD_PRIME, den)])
    assert not _coprime_mod_prime(a, q)
    assert _oracle(poly_gcd(a, q)) == _oracle_gcd(a, q)
    shared = Polynomial([GaussianRational(1, 2), Fraction(1, 3)])
    assert _oracle(poly_gcd(a * shared, q * shared)) == _oracle_gcd(a * shared, q * shared)


def test_gcd_falls_back_to_euclid_for_pairs_coprime_only_over_q():
    # z - 1 and z - 1 - p are coprime, but equal modulo p
    a, b = P(-1, 1), P(-1 - _GCD_PRIME, 1)
    assert not _coprime_mod_prime(a, b)
    assert poly_gcd(a, b) == P(1)
    assert poly_gcd(a * P(2, 5), b * P(2, 5)) == P(Fraction(2, 5), 1)


# -- the leading-Wronskian chain against sympy ---------------------------------


def _random_exact(rng, kind, degrees):
    """Exact polynomials of the given degrees, with real, imaginary or
    Gaussian rational coefficients drawn from ``rng``."""

    def coeff():
        r = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        i = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return {"real": r, "imaginary": GaussianRational(0, r), "gaussian": GaussianRational(r, i)}[kind]

    def lead():
        c = coeff()
        return c if c else lead()

    return [Polynomial([coeff() for _ in range(d)] + [lead()]) for d in degrees]


def _adler_moser_psis(rng, k):
    """psi_1 .. psi_k of the Adler-Moser chain psi_0 = 1, psi_1 = z,
    psi_j'' = psi_{j-1}, each double integration adding a drawn rational
    times the kernel monomial (1 for even j, z for odd j)."""
    psis = [Polynomial([1]), Polynomial([0, 1])]
    for j in range(2, k + 1):
        psi = [Fraction(0), Fraction(0)] + [c.re / ((m + 1) * (m + 2)) for m, c in enumerate(psis[-1].coeffs)]
        psi[j % 2] += Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        psis.append(Polynomial(psi))
    return psis[1:]


def _oracle_chain(fs):
    """sympy's Wronskian of every prefix of fs, W[] = 1 first: the
    determinant of each leading block of the derivative matrix, taken by
    sympy over Q(i)[z] (``sympy.wronskian`` on expressions takes seconds
    at k = 8)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    z = sympy.Symbol("z")
    ring = sympy.QQ_I[z]
    rows = []
    for f in fs:
        derivatives = [_oracle(f)]
        for _ in range(len(fs) - 1):
            derivatives.append(derivatives[-1].diff(z))
        rows.append([ring.from_sympy(d.as_expr()) for d in derivatives])
    blocks = (DomainMatrix([row[:j] for row in rows[:j]], (j, j), ring) for j in range(len(fs) + 1))
    return [sympy.Poly(ring.to_sympy(m.det()), z, domain="QQ_I") for m in blocks]


@pytest.mark.parametrize(
    "seed, kind, degrees",
    [
        (1, "real", [1, 3, 4, 6]),
        (2, "imaginary", [0, 2, 5, 6]),
        (3, "gaussian", [2, 3, 5, 6]),
        (4, "gaussian", [1, 4, 4, 6]),  # a repeated degree
        (5, "real", [3, 3, 5]),
        (7, "adler_moser", [1, 3, 5, 7, 9, 11, 13, 15]),  # K = 8, as in the benchmark
    ],
)
def test_leading_wronskians_match_sympy_oracle(seed, kind, degrees):
    rng = random.Random(seed)
    fs = _adler_moser_psis(rng, len(degrees)) if kind == "adler_moser" else _random_exact(rng, kind, degrees)
    assert [f.degree for f in fs] == degrees
    chain = leading_wronskians(fs)
    assert [_oracle(w) for w in chain] == _oracle_chain(fs)
    assert chain[-1] == wronskian(fs) and not chain[-1].is_zero


@pytest.mark.parametrize("kind", ["real", "imaginary", "gaussian"])
def test_leading_wronskians_vanish_from_a_dependent_prefix_on(kind):
    f, g, h = _random_exact(random.Random(6), kind, [3, 4, 6])
    fs = [f, f.scale(GaussianRational(Fraction(-2, 3), 1)), g, h]  # f1, f2 dependent
    chain = leading_wronskians(fs)
    assert [_oracle(w) for w in chain] == _oracle_chain(fs)
    assert chain[:2] == [P(1), f]
    assert all(w.is_zero and w.exact for w in chain[2:])


@st.composite
def _chains_with_a_dependent_prefix(draw):
    """Up to 6 exact polynomials, real, imaginary or Gaussian, where the
    one at a drawn position j is a combination of those before it (zero
    at j = 0), so f_1 .. f_{j+1} are linearly dependent."""
    fs = draw(st.lists(_kernel_polys.filter(lambda p: p.degree < 6), min_size=1, max_size=6))
    j = draw(st.integers(0, len(fs) - 1))
    weights = draw(st.lists(st.one_of(_reals, _imaginaries, _gaussians), min_size=j, max_size=j))
    fs[j] = sum((f.scale(w) for f, w in zip(fs, weights)), Polynomial.zero())
    return fs, j


@settings(max_examples=25, deadline=None)
@given(_chains_with_a_dependent_prefix())
def test_leading_wronskians_of_a_dependent_prefix_match_sympy_oracle(drawn):
    fs, j = drawn
    chain = leading_wronskians(fs)
    assert [_oracle(w) for w in chain] == _oracle_chain(fs)
    assert all(w.is_zero and w.exact for w in chain[j + 1 :])


@pytest.mark.parametrize("k", [3, 8, 13])
def test_leading_wronskians_make_at_most_k_k_minus_1_products(monkeypatch, k):
    # the Wronskian identity takes two products per entry of rows 1..k-1;
    # an elimination of the k x k Wronskian matrix takes O(k^3)
    products, multiply = [], Polynomial.__mul__

    def counting(self, other):
        products.append(isinstance(other, Polynomial))
        return multiply(self, other)

    fs = _adler_moser_psis(random.Random(k), k)
    expected = leading_wronskians(fs)
    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert leading_wronskians(fs) == expected
    assert sum(products) <= k * (k - 1)


def test_leading_wronskians_of_no_and_one_function():
    assert leading_wronskians([]) == [P(1)] and wronskian([]) == P(1)
    assert leading_wronskians([hermite(3)]) == [P(1), hermite(3)]
    with pytest.raises(TypeError):
        leading_wronskians([hermite(2).to_float()])


# -- the stacked Horner loop and the exact scale ---------------------------------

# parts with both signed zeros, so a sign slip in the stacked loop would show
_parts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-100, 100, allow_nan=False))
_complexes = st.builds(complex, _parts, _parts)


def _hex(values):
    return [(float(v.real).hex(), float(v.imag).hex()) for v in values]


@settings(max_examples=150, deadline=None)
@given(st.lists(_complexes, min_size=2, max_size=12), st.lists(_complexes, min_size=1, max_size=6))
def test_stacked_horner_rounds_as_polyval(coeffs, points):
    c = np.array(coeffs, dtype=complex)
    # each point in all four quadrants (its sign flips keep its zero parts)
    z = np.array([complex(sr * w.real, si * w.imag) for w in points for sr in (1, -1) for si in (1, -1)])
    p, dp, scale = _value_and_slope(_horner_rows(c), z)
    der = (np.arange(1, len(c)) * c[1:])[::-1]
    assert _hex(p) == _hex(np.polyval(c[::-1], z))
    assert _hex(dp) == _hex(np.polyval(der, z))
    assert _hex(scale) == _hex(np.polyval(np.abs(c[::-1]), np.abs(z)) + 0j)


_SCALARS = [
    *(t(v) for v in (0, 1, -1) for t in (int, Fraction, GaussianRational)),
    Fraction(3, 7),
    GaussianRational(Fraction(3, 7)),
    GaussianRational(2, Fraction(-1, 3)),
]


@settings(max_examples=150, deadline=None)
@given(_kernel_polys, st.sampled_from(_SCALARS))
def test_scale_equals_the_product_with_the_constant(p, c):
    got, want = p.scale(c), p * Polynomial((c,))
    assert _fields(got) == _fields(want) and hash(got) == hash(want)
    assert got is p or c != 1


def test_float_polynomial_scaled_by_an_exact_scalar_is_float():
    # a GaussianRational joins the float ring as a Fraction does; before,
    # complex() refused it with a TypeError
    flt = Polynomial([1.0, 2.0])
    assert flt.scale(GaussianRational(1, 2)) == Polynomial([1 + 2j, 2 + 4j])
    assert flt.scale(GaussianRational(Fraction(1, 2))) == flt.scale(Fraction(1, 2)) == Polynomial([0.5, 1.0])
    assert complex(GaussianRational(Fraction(1, 3), -2)) == complex(1 / 3, -2.0)


def test_exact_zero_scaled_by_a_float_is_the_exact_zero():
    zero = Polynomial.zero()
    for c in (0.5, -2j, 0.0, np.array([1.0, 2.0])):
        got = zero.scale(c)
        assert got.exact and _fields(got) == _fields(zero)
    # a float zero is the zero polynomial too, which belongs to every ring
    assert _fields(P(1, 2).scale(0.0)) == _fields(zero)
