import cmath
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeflow.errors import (
    ArityMismatch,
    CoincidentPositions,
    DegreeViolation,
    PZero,
    ValidationError,
)
from chargeflow.operators import (
    ChargeConfiguration,
    _product,
    Species,
    SystemCoefficients,
    eigenpoly,
    eigenvalue_of,
    energy,
    equilibrium_gradient,
    hypergeometric_L,
    lambda_poly,
    linear_L,
    polylinear_H,
)
from chargeflow.polynomials import Polynomial, hermite, laguerre
from chargeflow.scalars import GaussianRational, exactify


def P(*coeffs):
    return Polynomial(coeffs)


HERMITE_SYS = SystemCoefficients.bilinear([1], [0, -2], Lambda=1)


# -- linear operator ----------------------------------------------------------


def test_linear_L_on_hermite():
    # direct expansion: H2'' + U H2' - (n/2)U' H2 = 8 - 16z^2 + 2 H2 = -2 H2
    sys = SystemCoefficients.linear([1], [0, -2])
    out = linear_L(sys, 2, hermite(2))
    assert out == hermite(2).scale(-2)


def test_linear_L_constant():
    sys = SystemCoefficients.linear([1], [0])
    assert linear_L(sys, 3, P(1)).is_zero


def test_linear_L_degree_violation():
    sys = SystemCoefficients.linear([1], [0, -2])
    with pytest.raises(DegreeViolation):
        linear_L(sys, 1, hermite(2))


def test_linear_L_forced_cubic_validation():
    E = Fraction(1, 4)
    n = 3
    good = SystemCoefficients.linear([1, 0, 0, 0, E], [0, 1, 0, -2 * (n - 1) * E])
    linear_L(good, n, P(1, 1))  # passes validation
    bad = SystemCoefficients.linear([1, 0, 0, 0, E], [0, 1, 0, 1])
    with pytest.raises(ValidationError):
        linear_L(bad, n, P(1, 1))


def test_linear_L_result_degree_bound():
    E = Fraction(1, 8)
    n = 4
    sys = SystemCoefficients.linear(
        [1, 2, 3, 1, E], [1, -1, 2, -2 * (n - 1) * E]
    )
    p = P(3, -1, 2, 1, 5)  # degree 4 = n
    assert linear_L(sys, n, p).degree <= n


# -- eigenrelations of P d^2 + U d --------------------------------------------


def test_laguerre_eigenrelation():
    sys = SystemCoefficients.bilinear([0, 1], [0, Fraction(5, 3)], Lambda=1)
    b = Fraction(5, 3)
    for n in (1, 2, 5):
        Q = Polynomial(
            [c * (-b) ** k for k, c in enumerate(laguerre(n, -1).coeffs)]
        )
        out = hypergeometric_L(sys, Q) + Q.scale(-n * b).scale(-1)
        # (L + lambda_n) Q = 0 with lambda_n = -n b
        assert (hypergeometric_L(sys, Q) + Q.scale(-n * b)).is_zero


def test_eigenpoly_matches_hermite():
    sys = SystemCoefficients.bilinear([1], [0, -2], Lambda=1)
    for n in range(8):
        assert eigenpoly(sys, n, leading=2**n) == hermite(n)


def _eigenpoly_reference(sys, n, leading=1):
    """The recurrence of ``eigenpoly`` in plain GaussianRational scalar
    arithmetic: the reference its fraction-free form must match."""
    A, B, C = sys.P.coeff(0), sys.P.coeff(1), sys.P.coeff(2)
    a, b = sys.U.coeff(0), sys.U.coeff(1)
    lam = eigenvalue_of(sys, n)
    coeffs = [0] * (n + 2)  # coeffs[n + 1] = 0 starts the recurrence
    coeffs[n] = exactify(leading)
    for j in range(n - 1, -1, -1):
        upper2, upper1 = coeffs[j + 2], coeffs[j + 1]
        rhs = (
            A * exactify((j + 2) * (j + 1)) * upper2
            + (B * exactify(j * (j + 1)) + a * exactify(j + 1)) * upper1
        )
        denom = C * exactify(j * (j - 1)) + b * exactify(j) + lam
        if denom.is_zero:
            raise ValidationError(
                f"eigenvalue resonance at power {j}; eigenpolynomial not unique"
            )
        coeffs[j] = -(rhs / denom)
    return Polynomial(coeffs)


def _same_eigenpoly(sys, n, leading):
    """eigenpoly equals the reference in every field, or both raise the
    same ValidationError."""
    try:
        want = _eigenpoly_reference(sys, n, leading)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            eigenpoly(sys, n, leading)
        assert str(got.value) == str(exc)
        return
    got = eigenpoly(sys, n, leading)
    assert (got.den, got.re, got.im) == (want.den, want.re, want.im)


_q = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_real = st.builds(GaussianRational, _q)
_gauss = st.builds(GaussianRational, _q, _q)
_LEADS = [1, -3, Fraction(2, 5), GaussianRational(1, -2), 0]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([_real, _gauss]).flatmap(
        lambda c: st.tuples(st.lists(c, max_size=3), st.lists(c, min_size=2, max_size=2))
    ),
    st.integers(0, 12),
    st.sampled_from(_LEADS),
)
def test_eigenpoly_matches_the_scalar_recurrence(PU, n, leading):
    # real or Gaussian systems, P up to quadratic, U linear
    sys = SystemCoefficients.bilinear(Polynomial(PU[0]), Polynomial(PU[1]), Lambda=1)
    _same_eigenpoly(sys, n, leading)


@pytest.mark.parametrize(
    "P_coeffs, U_coeffs, n",
    [
        ([0, 0, 1], [0, -3], 3),  # C (j + n - 1) + b = 0 at j = 1
        ([0, 0, GaussianRational(0, 1)], [0, GaussianRational(0, -4)], 3),  # at j = 2
        ([1], [0], 2),  # C = b = 0: every power resonates
        ([2, Fraction(1, 3), 1], [Fraction(1, 2), -9], 6),  # at j = 4
    ],
)
def test_eigenpoly_resonance_message_is_the_reference_one(P_coeffs, U_coeffs, n):
    sys = SystemCoefficients.bilinear(P_coeffs, U_coeffs, Lambda=1)
    with pytest.raises(ValidationError, match="resonance"):
        eigenpoly(sys, n)
    for leading in _LEADS:
        _same_eigenpoly(sys, n, leading)


def test_eigenvalue_formula():
    sys = SystemCoefficients.bilinear([1, 0, -1], [2, 3], Lambda=1)
    assert eigenvalue_of(sys, 4) == GaussianRational(-(4 * 3 * -1 + 4 * 3))


# -- bilinear operator ----------------------------------------------------------


def test_bilinear_reduces_to_gauss_form():
    # g = 1: P f'' + (U + P'/2) f' + lam f
    sys = SystemCoefficients.bilinear([0, 1], [1, 2], Lambda=1, lam=Fraction(3))
    f = P(1, -2, 1)
    out = polylinear_H(sys, [f, P(1)])
    expected = (
        sys.P * f.derivative().derivative()
        + (sys.U + sys.P.derivative().scale(Fraction(1, 2))) * f.derivative()
        + f.scale(3)
    )
    assert out == expected


def test_bilinear_free_chain_pair():
    sys = SystemCoefficients.bilinear([1], [0], Lambda=1, lam=0)
    for tau in (Fraction(0), Fraction(2, 3), Fraction(-5)):
        f = Polynomial([tau, 0, 0, 1])
        assert polylinear_H(sys, [f, P(0, 1)]).is_zero


def test_bilinear_hermite_eigen():
    lam = lambda_poly([2, 0], HERMITE_SYS)
    assert lam == GaussianRational(4)
    assert polylinear_H(HERMITE_SYS, [hermite(2), P(1)], lam=lam).is_zero


def test_bilinear_symmetric_when_u_zero():
    sys = SystemCoefficients.bilinear([1, 2, -1], [0], Lambda=1, lam=Fraction(1))
    f, g = P(1, 2, 3), P(-1, 0, 0, 2)
    assert polylinear_H(sys, [f, g]) == polylinear_H(sys, [g, f])


# -- lambda formulas ----------------------------------------------------------


def test_lambda_nm_examples():
    sys = SystemCoefficients.bilinear([1], [5, 7], Lambda=1)
    assert lambda_poly([1, 0], sys) == GaussianRational(-7)
    assert lambda_poly([2, 0], HERMITE_SYS) == GaussianRational(4)
    sys2 = SystemCoefficients.bilinear([3, -2, 9], [1, 4], Lambda=1)
    assert lambda_poly([5, 5], sys2) == GaussianRational(0)


def _sympy_scalar(c):
    sympy = pytest.importorskip("sympy")
    return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)


def _sympy_poly(poly, z):
    """An exact Polynomial as a sympy expression in z."""
    return sum(_sympy_scalar(c) * z**k for k, c in enumerate(poly.coeffs))


def _sympy_lambda(n, m, Lam, Pz, Uz, z):
    """Closed-form two-species eigenconstant (L m - n)(U' + (n - L m) P''/2)."""
    sympy = pytest.importorskip("sympy")
    L = sympy.Rational(Lam)
    return sympy.expand((L * m - n) * (sympy.diff(Uz, z) + (n - L * m) * sympy.diff(Pz, z, 2) / 2))


def _two_species_systems(P, U, Lam):
    return (
        SystemCoefficients.bilinear(P, U, Lambda=Lam),
        SystemCoefficients.polylinear(P, U, [1, -Lam]),
    )


def test_lambda_poly_two_species_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    for Lam in (Fraction(1), Fraction(7, 5), Fraction(-2, 3)):
        for sys in _two_species_systems([2, -1, 3], [1, -4], Lam):
            Pz, Uz = _sympy_poly(sys.P, z), _sympy_poly(sys.U, z)
            for n, m in ((3, 2), (6, 1), (0, 4)):
                ours = _sympy_scalar(lambda_poly([n, m], sys))
                assert sympy.expand(ours - _sympy_lambda(n, m, Lam, Pz, Uz, z)) == 0


# -- polylinear operator ----------------------------------------------------------


def test_polylinear_two_species_matches_sympy_oracle():
    # the bilinear operator written out in sympy rationals:
    # (f''g - 2L f'g' + L^2 g''f) P + (f'g + L^2 g'f) P'/2 + (f'g - L g'f) U + lam f g
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    d = sympy.diff
    rng = np.random.default_rng(9)
    for Lam in (Fraction(1), Fraction(-3, 2)):
        L = sympy.Rational(Lam)
        systems = _two_species_systems([1, 2, -1], [3, 1], Lam)
        Pz, Uz = _sympy_poly(systems[0].P, z), _sympy_poly(systems[0].U, z)
        for _ in range(5):
            f = Polynomial([int(v) for v in rng.integers(-4, 5, size=7)])
            g = Polynomial([int(v) for v in rng.integers(-4, 5, size=5)])
            if f.is_zero or g.is_zero:
                continue
            fz, gz = _sympy_poly(f, z), _sympy_poly(g, z)
            lam = _sympy_lambda(f.degree, g.degree, Lam, Pz, Uz, z)
            oracle = (
                (d(fz, z, 2) * gz - 2 * L * d(fz, z) * d(gz, z) + L**2 * d(gz, z, 2) * fz) * Pz
                + (d(fz, z) * gz + L**2 * d(gz, z) * fz) * d(Pz, z) / 2
                + (d(fz, z) * gz - L * d(gz, z) * fz) * Uz
                + lam * fz * gz
            )
            for sys in systems:
                ours = _sympy_poly(polylinear_H(sys, [f, g]), z)
                assert sympy.expand(ours - oracle) == 0


def _paper_form_H(sys, qs, lam=None):
    """The operator as the paper writes it, with each q_i'' formed: the body
    ``polylinear_H`` had before it used the product rule, kept here as the
    reference it must equal."""
    if sys.charges is None:
        raise ValidationError("polylinear_H needs species charges")
    qs = list(qs)
    if len(qs) != len(sys.charges):
        raise ArityMismatch(
            f"got {len(qs)} polynomials for {len(sys.charges)} species"
        )
    if lam is None:
        lam = sys.lam
    if lam is None:
        lam = lambda_poly([q.degree for q in qs], sys)
    l = len(qs)
    Q = sys.charges
    dqs = [q.derivative() for q in qs]
    rests = [_product(qs[:i] + qs[i + 1 :]) for i in range(l)]

    second = Polynomial.zero()
    for i in range(l):
        second = second + (dqs[i].derivative() * rests[i]).scale(Q[i] * Q[i])
    for i in range(l):
        for j in range(i + 1, l):
            others = [q for k, q in enumerate(qs) if k != i and k != j]
            term = dqs[i] * dqs[j] * _product(others)
            second = second + term.scale(Q[i] * Q[j]).scale(2)

    sym = Polynomial.zero()
    anti = Polynomial.zero()
    for i in range(l):
        slope = dqs[i] * rests[i]  # q_i' prod_{n != i} q_n
        sym = sym + slope.scale(Q[i] * Q[i])
        anti = anti + slope.scale(Q[i])

    return (
        second * sys.P
        + sym.scale(Fraction(1, 2)) * sys.P.derivative()
        + anti * sys.U
        + _product(qs).scale(lam)
    )


_small = st.fractions(-4, 4, max_denominator=6)
_exact_scalars = st.one_of(_small, st.builds(GaussianRational, _small, _small))


def _exact_polys(max_degree):
    return st.lists(_exact_scalars, max_size=max_degree + 1).map(Polynomial)


_eigenconstants = st.one_of(st.none(), _exact_scalars)


@settings(max_examples=150, deadline=None)
@given(
    _exact_polys(2), _exact_polys(1), _small.filter(lambda L: L != -1), _eigenconstants,
    _exact_polys(8), _exact_polys(8),
)
def test_polylinear_equals_the_paper_form_on_exact_pairs(P_, U_, Lam, lam, f, g):
    sys = SystemCoefficients.bilinear(P_, U_, Lambda=Lam, lam=lam)
    assert polylinear_H(sys, [f, g]) == _paper_form_H(sys, [f, g])


_THREE_CHARGES = [
    (1, Fraction(-2, 3), Fraction(5, 2)),
    (GaussianRational(0, 1), GaussianRational(1, Fraction(-1, 2)), Fraction(-3)),
    (GaussianRational(2, 1), GaussianRational(2, -1), 1),
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_THREE_CHARGES), _exact_polys(2), _exact_polys(1), _eigenconstants,
    st.lists(_exact_polys(5), min_size=3, max_size=3),
)
def test_polylinear_equals_the_paper_form_with_three_species(charges, P_, U_, lam, qs):
    sys = SystemCoefficients.polylinear(P_, U_, charges, lam=lam)
    assert polylinear_H(sys, qs) == _paper_form_H(sys, qs)


def _abs_poly(p):
    return Polynomial([np.abs(c) for c in p.coeffs])


@pytest.mark.parametrize(
    "sys, degrees",
    [
        (SystemCoefficients.rational_omega(1.0, 1.0), (20, 10)),
        (SystemCoefficients.rational_omega(2.0, 1.213579), (6, 1)),
        (SystemCoefficients.polylinear([0.5, -1.0, 2.0j], [1.0, -0.25], (1.0, -0.7, 2.5)), (4, 3, 2)),
    ],
)
def test_polylinear_agrees_with_the_paper_form_on_float_stacks(sys, degrees):
    # monic polynomials with (S,) coefficient arrays, as ``state_residual`` builds
    rng = np.random.default_rng(sum(degrees))
    S = 16
    qs = [
        Polynomial([rng.normal(size=S) + 1j * rng.normal(size=S) for _ in range(d)] + [np.ones(S)])
        for d in degrees
    ]
    ours, ref = polylinear_H(sys, qs), _paper_form_H(sys, qs)
    # rounding bound: 16 eps times the paper form of the absolute values
    # with every charge at max |Q_i|, which bounds each term either form
    # adds up to a factor 3 ((Q_i^2 + Q_j^2) and (Q_i - Q_j)^2 per pair);
    # these stacks read at most 1 eps
    top = max(abs(c) for c in sys.charges)
    size = _paper_form_H(
        SimpleNamespace(P=_abs_poly(sys.P), U=_abs_poly(sys.U), charges=(top,) * len(qs)),
        [_abs_poly(q) for q in qs],
        lam=abs(lambda_poly(degrees, sys)),
    )
    for k in range(size.degree + 1):
        assert np.all(np.abs(ours.coeff(k) - ref.coeff(k)) <= 16 * np.finfo(float).eps * size.coeff(k).real)


def test_polylinear_single_species():
    sys = SystemCoefficients.polylinear([0, 1], [2, 1], [1], lam=Fraction(5))
    f = P(1, 1, 1)
    expected = (
        sys.P * f.derivative().derivative()
        + sys.P.derivative().scale(Fraction(1, 2)) * f.derivative()
        + sys.U * f.derivative()
        + f.scale(5)
    )
    assert polylinear_H(sys, [f]) == expected


def test_polylinear_constants():
    sys = SystemCoefficients.polylinear([1, 1], [0, 1], [1, 2, -1], lam=Fraction(9))
    out = polylinear_H(sys, [P(1), P(1), P(1)])
    assert out == P(9)


def test_polylinear_arity():
    sys = SystemCoefficients.polylinear([1], [0, 1], [1, -1])
    with pytest.raises(ArityMismatch):
        polylinear_H(sys, [P(1)])


def test_charges_must_be_distinct():
    with pytest.raises(ValidationError):
        SystemCoefficients.polylinear([1], [0, 1], [1, 1])


def test_mode_degree_limits():
    with pytest.raises(ValidationError):
        SystemCoefficients.bilinear([1, 0, 0, 1], [0, 1], Lambda=1)
    with pytest.raises(ValidationError):
        SystemCoefficients.bilinear([1], [0, 1, 1], Lambda=1)
    with pytest.raises(ValidationError):
        SystemCoefficients.linear([1, 0, 0, 0, 0, 1], [0])


# -- equilibrium gradient and energy ------------------------------------------


def _single(charge, *positions):
    return Species(charge, tuple(positions))


def test_gradient_single_charge_at_origin():
    cfg = ChargeConfiguration((_single(1.0, 0.0), _single(-1.0)))
    sys = SystemCoefficients.bilinear([1.0], [0.0, -2.0], Lambda=1.0)
    (g,) = equilibrium_gradient(cfg, sys)
    assert abs(g) < 1e-14


def test_gradient_two_body_nonzero():
    cfg = ChargeConfiguration((_single(1.0, 0.7), _single(-1.0, -0.3)))
    sys = SystemCoefficients.bilinear([1.0], [0.0], Lambda=1.0)
    gx, gy = equilibrium_gradient(cfg, sys)
    assert abs(gx - 2.0 / (0.7 - (-0.3))) < 1e-14
    assert abs(gx) > 1e-3


def test_gradient_coincident_positions():
    cfg = ChargeConfiguration((_single(1.0, 0.5, 0.5), _single(-1.0)))
    sys = SystemCoefficients.bilinear([1.0], [0.0], Lambda=1.0)
    with pytest.raises(CoincidentPositions):
        equilibrium_gradient(cfg, sys)


def naive_gradient(cfg, sys):
    """Site-by-site double loop of the multiplicity-weighted gradient."""
    sites = [
        (z, complex(sp.charge), complex(sp.charge) * m)
        for sp in cfg.species
        for z, m in zip(sp.positions, sp.mults)
    ]
    P, U = sys.P.to_float(), sys.U.to_float()
    dP = P.derivative()
    out = []
    for r, (zr, qr, cr) in enumerate(sites):
        pair = sum(cs / (zr - zs) for s, (zs, _, cs) in enumerate(sites) if s != r)
        out.append(-2.0 * P(zr) * pair - U(zr) - (cr - qr / 2.0) * dP(zr))
    return out


def _random_species(rng, charge, size, max_mult):
    pts = rng.normal(size=size) * 1.5 + 1j * rng.normal(size=size)
    mults = rng.integers(1, max_mult + 1, size=size)
    return Species(charge, tuple(pts), tuple(mults))


@pytest.mark.parametrize(
    "sizes", [(3, 2), (1, 0), (4, 0), (0, 3), (18, 12)], ids=str
)
def test_gradient_matches_double_loop_with_multiplicities(sizes):
    rng = np.random.default_rng(sum(sizes))
    sys = SystemCoefficients.bilinear([0.4, -0.2, 1.0], [0.3, -2.0], Lambda=1.5)
    cfg = ChargeConfiguration(
        (_random_species(rng, 1.0, sizes[0], 3), _random_species(rng, -1.5, sizes[1], 3))
    )
    got = np.array(equilibrium_gradient(cfg, sys), dtype=complex)
    ref = np.array(naive_gradient(cfg, sys), dtype=complex)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(ref), initial=0.0))


def test_gradient_coincidence_names_first_pair():
    cfg = ChargeConfiguration((_single(1.0, 0.1, 0.5, 0.9), _single(-1.0, 0.5)))
    sys = SystemCoefficients.bilinear([1.0], [0.0], Lambda=1.0)
    with pytest.raises(CoincidentPositions, match="positions 1 and 3 coincide"):
        equilibrium_gradient(cfg, sys)


def test_sites_are_the_site_by_site_arrays_bit_for_bit():
    cfg = ChargeConfiguration((
        Species(Fraction(3, 2), (0.5 + 1j, -0.25, 2.0 - 0.5j), (2, 1, 3)),
        Species(Fraction(-1, 3), (0.1 - 0.7j, 1.3j)),
        Species(GaussianRational(Fraction(2, 7), 0), ()),
    ))
    # the arrays as built from (position, species charge, multiplicity) triples
    triples = [(z, complex(s.charge), m) for s in cfg.species for z, m in zip(s.positions, s.mults)]
    z = np.array([t[0] for t in triples], dtype=complex)
    q = np.array([t[1] for t in triples], dtype=complex)
    c = q * np.array([t[2] for t in triples], dtype=int)
    for got, want in zip(cfg.sites(), (z, q, c)):
        assert got.dtype == complex and got.tobytes() == want.tobytes()


def test_energy_two_charges():
    cfg = ChargeConfiguration((_single(1.0, 1.0, -1.0),))
    sys = SystemCoefficients.polylinear([1.0], [0.0], [1.0])
    assert abs(energy(cfg, sys) - cmath.log(4)) < 1e-14


def test_energy_reflection_symmetric():
    sys = SystemCoefficients.bilinear([1.0], [0.0, -2.0], Lambda=1.0)
    pos = (0.4 + 0.1j, -1.2 + 0.7j)
    neg = (0.9 - 0.3j,)
    a = ChargeConfiguration((_single(1.0, *pos), _single(-1.0, *neg)))
    b = ChargeConfiguration(
        (_single(1.0, *(-z for z in pos)), _single(-1.0, *(-z for z in neg)))
    )
    assert abs(energy(a, sys) - energy(b, sys)) < 1e-12


def test_energy_pzero():
    cfg = ChargeConfiguration((_single(1.0, 0.0, 1.0),))
    sys = SystemCoefficients.polylinear([0.0, 1.0], [0.0, 1.0], [1.0])
    with pytest.raises(PZero):
        energy(cfg, sys)


def test_energy_stationary_at_certified_configuration():
    # the reduced worked-example configuration is a critical point:
    # perturbing one charge by eps changes the energy only at O(eps^2)
    from chargeflow.equilibria import certify, hermite_pair

    cert = certify(hermite_pair([2, 4, 6], -2))
    sys = SystemCoefficients.bilinear([1.0], [0.0, -2.0], Lambda=1.0)
    plus = [(z, c) for z, c in cert.inventory if c > 0]
    minus = [(z, -c) for z, c in cert.inventory if c < 0]

    def config(shift):
        pos = [z for z, _ in plus]
        pos[1] += shift
        return ChargeConfiguration(
            (
                Species(1.0, tuple(pos), tuple(c for _, c in plus)),
                Species(-1.0, tuple(z for z, _ in minus), tuple(c for _, c in minus)),
            )
        )

    # compare real parts: the imaginary part of the principal-branch log
    # can jump by 2 pi under perturbation, the modulus part cannot
    base = energy(config(0.0), sys).real
    for eps in (1e-4, 1e-5):
        delta = abs(energy(config(eps * (0.6 + 0.8j)), sys).real - base)
        assert delta < 50 * eps**2


@pytest.mark.parametrize(
    "P_coeffs,U_coeffs",
    [
        ([1.0], [0.0, -2.0]),
        ([0.0, 1.0], [0.0, 1.5]),
        ([1.0, 0.5, -0.8], [0.3, 1.1]),
        ([1.0, -2.0, 1.0], [0.3, 1.1]),  # (z - 1)^2: the repeated-root term
    ],
)
def test_gradient_is_energy_gradient(P_coeffs, U_coeffs):
    # d energy / d z_r = -c_r * gradient_r / P(z_r), complex-analytic FD
    sys = SystemCoefficients.bilinear(P_coeffs, U_coeffs, Lambda=1.0)
    rng = np.random.default_rng(17)
    pos = tuple(2.0 + rng.normal(size=2) * 0.4 + 1j * rng.normal(size=2) * 0.4)
    neg = tuple(4.0 + rng.normal(size=1) * 0.4 + 1j * rng.normal(size=1) * 0.4)
    mults_pos = (2, 1)
    cfg = ChargeConfiguration(
        (Species(1.0, pos, mults_pos), Species(-1.0, neg))
    )
    grads = equilibrium_gradient(cfg, sys)
    Pf = sys.P
    sites = [(z, 1.0, m) for z, m in zip(pos, mults_pos)] + [
        (z, -1.0, 1) for z in neg
    ]
    eps = 1e-6
    for r, (zr, q, mult) in enumerate(sites):
        def shifted(delta, idx=r):
            new_pos = list(pos)
            new_neg = list(neg)
            if idx < len(pos):
                new_pos[idx] += delta
            else:
                new_neg[idx - len(pos)] += delta
            return ChargeConfiguration(
                (Species(1.0, tuple(new_pos), mults_pos), Species(-1.0, tuple(new_neg)))
            )

        fd = (energy(shifted(eps), sys) - energy(shifted(-eps), sys)) / (2 * eps)
        expected = -q * mult * grads[r] / Pf(zr)
        assert abs(fd - expected) <= 1e-6 * max(1.0, abs(expected))


def test_operators_reject_mixed_rings():
    exact_sys = SystemCoefficients.bilinear([1], [0, -2], Lambda=1)
    float_sys = SystemCoefficients.bilinear([1.0], [0.0, -2.0], Lambda=1.0)
    p, q = hermite(3), hermite(1)
    with pytest.raises(TypeError):
        polylinear_H(exact_sys, [p.to_float(), q.to_float()])
    with pytest.raises(TypeError):
        polylinear_H(float_sys, [p, q])
    with pytest.raises(TypeError):
        hypergeometric_L(SystemCoefficients.linear([1], [0, -2]), p.to_float())


def test_system_puts_p_u_and_charges_in_one_ring():
    exact = SystemCoefficients.bilinear([1], [0, Fraction(-2)], Lambda=Fraction(3, 2))
    assert exact.exact and exact.charges == (GaussianRational(1), GaussianRational(Fraction(-3, 2)))
    for sys in (
        SystemCoefficients.bilinear([1], [0, -2.0], Lambda=1),
        SystemCoefficients.bilinear([1], [0, -2], Lambda=1.5),
    ):
        assert not sys.exact and not sys.P.exact
        assert all(isinstance(c, float) for c in sys.charges)
    # the zero polynomials belong to every ring, so float charges decide
    assert not SystemCoefficients.polylinear([], [], (1.0, -2.0)).exact
    assert SystemCoefficients.polylinear([], [], (1, -2)).exact
