"""Construction and exact certification of equilibrium polynomial pairs.

Every constructor returns an exact pair (p, q) together with an exact
governing system (P, U, charge ratio 1, eigenconstant lambda) for which
the two-argument operator annihilates the pair bit-exactly, and every
certificate checks that on its stored pair (``_exact_residual``).  The
cylinder constructor writes its two trigonometric Wronskians in closed
form (``_trig``); in w = exp(2 i phi), at the phases read exactly from
their doubles, they are an exact pair of the monomial field P = -w**2,
U = (n - m) w.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import _trig
from ._schema import OPTIONAL, REQUIRED, list_of, such_that, typed, walk
from .errors import (
    BadK,
    CertificationFailure,
    ChargeflowError,
    DegenerateWronskian,
    ValidationError,
)
from .operators import SystemCoefficients, _scale, _site_gradient, eigenpoly, lambda_poly, polylinear_H
from .polynomials import Polynomial, _distance, _ratio_from_json, _ratio_json
from .polynomials import leading_wronskians, reduce_pair
from .scalars import GaussianRational, exactify

__all__ = [
    "EquilibriumCertificate",
    "hermite_pair",
    "laguerre_pair",
    "monomial_pair",
    "adler_moser",
    "cylinder_pair",
    "certify",
    "check_built",
    "GRADIENT_TOL",
    "POSITION_TOL",
]

GRADIENT_TOL = 1e-8
# how far, relative to the largest fresh modulus, a stored inventory
# position may lie from the rebuild's: roots can differ in the last bits
# between numpy builds
POSITION_TOL = 1e-8

# what a malformed document or recipe parameter raises
_MALFORMED = (ChargeflowError, LookupError, TypeError, ValueError, ArithmeticError)

# The document ``to_json`` writes, as a ``_schema`` table whose key order is
# the order in which ``certify`` compares the keys.  A rational is written
# as ``_ratio_json`` writes it, and a polynomial as ``Polynomial.to_json``
# does; ``_exact`` reads it, which must be exact (older files wrote a zero
# U as a float one, which reads as zero).
_INTEGER, _FLOAT, _OBJECT = typed(int), typed(float), typed(dict)
_RATIONAL = (lambda doc: Fraction(*_ratio_from_json(doc)), REQUIRED)
_XY = such_that(lambda xy: type(xy) is list and list(map(type, xy)) == [float, float])  # [re, im]
_POLYNOMIAL = {"exact": (typed(bool), REQUIRED), "coeffs": (typed(list), REQUIRED)}
_DOCUMENT = {
    "P": (_POLYNOMIAL, REQUIRED), "U": (_POLYNOMIAL, REQUIRED),
    "lambda": ({"re": _RATIONAL, "im": _RATIONAL}, REQUIRED),
    "degrees": (list_of(_INTEGER), REQUIRED),
    "p": (_POLYNOMIAL, REQUIRED), "q": (_POLYNOMIAL, REQUIRED),
    "residual_exact_zero": (typed(bool), REQUIRED), "residual_norm": (_FLOAT, REQUIRED),
    "bivariate": ({
        "degree_p": (_INTEGER, REQUIRED), "degree_q": (_INTEGER, REQUIRED),
        "p_xy": (list_of(_XY), REQUIRED), "q_xy": (list_of(_XY), REQUIRED),
    }, OPTIONAL),
    "notes": (_OBJECT, REQUIRED),
    "reduced": ([_POLYNOMIAL], OPTIONAL),
    "inventory": ([{"position": (_XY, REQUIRED), "net_charge": (_INTEGER, REQUIRED)}], REQUIRED),
    "recipe": (typed(str), REQUIRED), "params": (_OBJECT, REQUIRED),
}
_exact = such_that(lambda poly: poly.exact, Polynomial.from_json)


@dataclass
class EquilibriumCertificate:
    """A constructed pair with its construction recipe, governing system,
    reduced pair, charge inventory, and residual status."""

    recipe: str
    params: dict
    p: Polynomial
    q: Polynomial
    degrees: Tuple[int, int]
    sys: SystemCoefficients
    lam: object
    reduced: Optional[Tuple[Polynomial, Polynomial]] = None
    inventory: List[Tuple[complex, int]] = field(default_factory=list)
    residual_exact_zero: bool = False
    residual_norm: float = math.inf
    bivariate: Optional[dict] = None  # cylinder payload (X,Y coefficients)
    notes: dict = field(default_factory=dict)

    # -- serialization -------------------------------------------------

    def to_json(self):
        doc = {
            "recipe": self.recipe,
            "params": _jsonify(self.params),
            "p": self.p.to_json(),
            "q": self.q.to_json(),
            "degrees": list(self.degrees),
            "P": self.sys.P.to_json(),
            "U": self.sys.U.to_json(),
            "lambda": _scalar_json(self.lam),
            "inventory": [
                {"position": [z.real, z.imag], "net_charge": c}
                for z, c in self.inventory
            ],
            "residual_exact_zero": self.residual_exact_zero,
            "residual_norm": self.residual_norm,
            "notes": _jsonify(self.notes),
        }
        if self.reduced is not None:
            doc["reduced"] = [self.reduced[0].to_json(), self.reduced[1].to_json()]
        if self.bivariate is not None:
            doc["bivariate"] = self.bivariate
        return doc

    @staticmethod
    def from_json(doc):
        """The certificate of a ``to_json`` document, read through
        ``_DOCUMENT``; raises CertificationFailure where ``to_json`` could
        not have written it: a missing or malformed value, a key it never
        writes, an optional key set to null, or a value of another JSON
        type, such as a float or flag for an integer, which certify's ==
        would equate with the value it compares."""
        try:
            d = walk(doc, _DOCUMENT, "certificate")
            P, U, p, q = (_exact(d[key]) for key in ("P", "U", "p", "q"))
            cert = EquilibriumCertificate(
                recipe=d["recipe"], params=d["params"], p=p, q=q, degrees=tuple(d["degrees"]),
                # to_json writes no charge ratio: certify rejects a U or
                # lambda that implies another one than the rebuild's
                sys=SystemCoefficients.bilinear(P, U, Lambda=1),
                lam=GaussianRational(**d["lambda"]),
                inventory=[(complex(*e["position"]), e["net_charge"]) for e in d["inventory"]],
                residual_exact_zero=d["residual_exact_zero"], residual_norm=d["residual_norm"],
                bivariate=d["bivariate"], notes={**d["notes"]},
            )
            if d["reduced"] is not None:
                p_bar, q_bar = d["reduced"]
                cert.reduced = (_exact(p_bar), _exact(q_bar))
            return cert
        except _MALFORMED as exc:
            raise CertificationFailure(f"malformed certificate document: {exc!r}") from exc


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _scalar_json(value):
    value = exactify(value)
    return {part: _ratio_json(*getattr(value, part).as_integer_ratio()) for part in ("re", "im")}


# -- shared assembly ---------------------------------------------------------


def _exact_residual(sys, p, q, lam):
    """(whether the pair's residual polynomial is zero, its largest
    coefficient over the largest of p q, its first nonzero coefficient
    index or None)."""
    resid = polylinear_H(sys, [p, q], lam=lam)
    if resid.is_zero:
        return True, 0.0, None
    idx = next(k for k, c in enumerate(resid.coeffs) if c)
    denom = max((abs(c) for c in (p * q).to_float().coeffs), default=1.0)
    norm = max(abs(c) for c in resid.to_float().coeffs) / denom
    return False, norm, idx


def _finish_planar(recipe, params, sys, degrees, eigenfunctions, prefactors=(1, 1), notes=None):
    """Certificate of p = r_p W[f_1 .. f_{k+1}], q = r_q W[f_1 .. f_k] for
    the prefactors (r_p, r_q)."""
    *_, wq, wp = leading_wronskians(eigenfunctions)  # one chain gives both
    p, q = wp * prefactors[0], wq * prefactors[1]
    if p.is_zero or q.is_zero:
        raise DegenerateWronskian(f"{recipe}: Wronskian vanished")
    if (p.degree, q.degree) != degrees:
        raise DegenerateWronskian(f"degree drop: got {(p.degree, q.degree)}, expected {degrees}")
    return _certificate(recipe, params, sys, lambda_poly(degrees, sys), degrees, p, q, notes)


def _certificate(recipe, params, sys, lam, degrees, p, q, notes=None, bivariate=None):
    """The certificate of the pair (p, q) under ``sys`` and ``lam``, with
    its residual status (``_exact_residual``), reduced pair and
    inventory."""
    exact_zero, norm, idx = _exact_residual(sys, p, q, lam)
    pbar, qbar, inventory = reduce_pair(p, q)
    cert = EquilibriumCertificate(
        recipe=recipe,
        params=params,
        p=p,
        q=q,
        degrees=degrees,
        sys=sys,
        lam=lam,
        reduced=(pbar, qbar),
        inventory=inventory,
        residual_exact_zero=exact_zero,
        residual_norm=0.0 if exact_zero else norm,
        bivariate=bivariate,
        notes=notes or {},
    )
    cert.notes.setdefault("leading_p", _scalar_json(p.leading()))
    cert.notes.setdefault("leading_q", _scalar_json(q.leading()))
    if idx is not None:
        cert.notes["first_nonzero_residual_index"] = idx
    return cert


def _check_index_set(indices):
    indices = [int(i) for i in indices]
    if not indices:
        raise ValidationError("index set must be nonempty")
    if any(i < 0 for i in indices):
        raise ValidationError("indices must be nonnegative")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValidationError("indices must be strictly increasing")
    return indices


# -- classical recipes ---------------------------------------------------------
# One row per classical special case of the bilinear hypergeometric equation:
#   P, U(b)     the pair's field;
#   r, e(k)     the prefactor base and its exponents (e_p, e_q), so that
#               p = r**e_p W[f_1 .. f_{k+1}] and q = r**e_q W[f_1 .. f_k];
#   k_step      the allowed k are its multiples;
#   f(F, i, b)  the eigenfunction of index i, where F is the eigenfunction
#               field P f'' + (U + P'/2) f' as a system.

_CLASSICAL = {
    "hermite_wronskian": (
        [1], lambda b: [0, b], [1], lambda k: (0, 0), 1,
        lambda F, i, b: eigenpoly(F, i, leading=(-b) ** i),
    ),
    "laguerre_wronskian": (
        [0, 1], lambda b: [Fraction(-1, 2), b], [0, 1], lambda k: (k * k // 4, k * (k - 2) // 4), 4,
        lambda F, i, b: eigenpoly(F, i, leading=b**i / math.factorial(i)),
    ),
    # z**i directly: eigenpoly meets a false resonance at (b, i) = (1, 1)
    "monomial_wronskian": (
        [0, 0, -1], lambda b: [0, b],
        [0, GaussianRational(0, 1)], lambda k: (k * (k + 1) // 2, k * (k - 1) // 2), 1,
        lambda F, i, b: Polynomial([0] * i + [1]),
    ),
}


def _classical_pair(recipe, indices, b, notes=None) -> EquilibriumCertificate:
    """The certificate of one ``_CLASSICAL`` row at these indices and b."""
    P, U, r, exponents, k_step, eigenfunction = _CLASSICAL[recipe]
    indices, b = _check_index_set(indices), Fraction(b)
    if b == 0:
        raise ValidationError("b must be nonzero")
    k = len(indices) - 1
    if k % k_step:
        raise BadK(f"index-set length {k + 1} requires k = {k} divisible by {k_step}")
    sys = SystemCoefficients.bilinear(P, U(b), Lambda=1)
    F = SystemCoefficients.bilinear(sys.P, sys.U + sys.P.derivative().scale(Fraction(1, 2)))
    r, (e_p, e_q) = Polynomial(r), exponents(k)
    # a Wronskian of k + 1 distinct degrees has degree their sum - k(k + 1)/2
    degrees = (
        sum(indices) - k * (k + 1) // 2 + e_p * r.degree,
        sum(indices[:k]) - k * (k - 1) // 2 + e_q * r.degree,
    )
    fs = [eigenfunction(F, i, b) for i in indices]
    params = {"indices": indices, "b": b}
    return _finish_planar(recipe, params, sys, degrees, fs, (r**e_p, r**e_q), notes)


# -- constructors ------------------------------------------------------------


def hermite_pair(indices: Sequence[int], b) -> EquilibriumCertificate:
    """Wronskian pair from the constant-field eigenfunctions (P = 1,
    U = b z); with b = -2 the eigenfunctions are the physicists'
    Hermite polynomials."""
    return _classical_pair("hermite_wronskian", indices, b)


def laguerre_pair(indices: Sequence[int], b) -> EquilibriumCertificate:
    """Wronskian pair from the Laguerre-class eigenfunctions of
    z f'' + b z f' (eigenfunctions L_i^(-1)(-b z)); k must be 0 mod 4.

    The pair

        p = z**(k^2/4) W[Q_{i_1} .. Q_{i_{k+1}}],
        q = z**(k(k-2)/4) W[Q_{i_1} .. Q_{i_k}]

    satisfies the bilinear equation with P = z and U = b z - 1/2 exactly;
    the -1/2 offset comes from the square-root change of variables that
    relates this field to the self-adjoint chain form.
    """
    return _classical_pair("laguerre_wronskian", indices, b, notes={"field_offset": "U = b z - 1/2"})


def monomial_pair(indices: Sequence[int], b) -> EquilibriumCertificate:
    """Wronskian pair from monomial eigenfunctions of the -z^2 field.

    The half-integer powers of P = -z^2 in the prefactors resolve to the
    integer z-power k(k+1)/2 times a Gaussian unit i**(k(k+1)/2); the unit
    is tracked exactly and cancels from the (bilinear) residual.
    """
    return _classical_pair("monomial_wronskian", indices, b)


def adler_moser(k: int, ts: Sequence = ()) -> EquilibriumCertificate:
    """Consecutive pair (theta_{k+1}, theta_k) of the polynomial chain
    built from psi_0 = 1, psi_1 = z, psi_j'' = psi_{j-1}.

    Each double integration fixes both new constants to zero and then adds
    ts[j-2] times the kernel monomial (1 for even j, z for odd j).  At odd
    k every parameter moves the pair.  At even k the last one adds a
    multiple of psi_1 = z to psi_{k+1}, which no Wronskian sees, so the
    pair depends on the first k - 1 only.
    """
    if k < 0:
        raise ValidationError("k must be >= 0")
    ts = [Fraction(t) for t in ts]
    if len(ts) != k:
        raise ValidationError(f"need exactly {k} chain parameters, got {len(ts)}")
    psis = [Polynomial([1]), Polynomial([0, 1])]
    for j in range(2, k + 2):
        prev = psis[j - 1]  # real: the ts are rational
        psi = Polynomial([0, 0] + [Fraction(r, prev.den * (m + 1) * (m + 2)) for m, r in enumerate(prev.re)])
        t = ts[j - 2]
        kernel = Polynomial([t]) if j % 2 == 0 else Polynomial([0, t])
        psis.append(psi + kernel)
    sys = SystemCoefficients.bilinear([1], [0], Lambda=1)
    degrees = ((k + 1) * (k + 2) // 2, k * (k + 1) // 2)  # deg theta_j = j(j + 1)/2
    return _finish_planar("adler_moser", {"k": k, "ts": ts}, sys, degrees, psis[1 : k + 2])


def cylinder_pair(indices: Sequence[int], ts: Sequence[float]) -> EquilibriumCertificate:
    """Trigonometric Wronskian pair on the cylinder.

    Builds the sin(i_j phi + t_j) Wronskians in closed form (``_trig``);
    with the radial powers r**n, r**m (n, m the index sums) they are
    homogeneous (X, Y) polynomials, and the pair solves
    q Lap p - 2 (grad q, grad p) + p Lap q = 0.  The stored pair is the
    Wronskians' exact polynomials in w = exp(2 i phi), with each
    exp(+-i t_j) read exactly from its double (``_trig.substitute``); in w
    that equation is 4/w times ``polylinear_H`` under the monomial field
    P = -w**2, U = (n - m) w, lambda = 0, which is checked on the pair as
    for every recipe.  The (X, Y) coefficients, each rounded once, go into
    ``bivariate``.
    """
    indices = _check_index_set(indices)
    ts = [float(t) for t in ts]
    kp1 = len(indices)
    if len(ts) != kp1:
        raise ValidationError(f"need {kp1} phases, got {len(ts)}")
    k = kp1 - 1
    n, m = sum(indices), sum(indices[:k])
    p_w = _trig.substitute(_trig.trig_wronskian(indices, kp1), indices, n, ts)
    q_w = _trig.substitute(_trig.trig_wronskian(indices[:k], kp1), indices, m, ts)
    p_xy, q_xy = _trig.xy_coeffs(p_w, n), _trig.xy_coeffs(q_w, m)
    if max(map(abs, p_xy)) < 1e-14 or max(map(abs, q_xy)) < 1e-14:
        raise DegenerateWronskian("chosen phases collapse the Wronskian")
    sys = SystemCoefficients.bilinear([0, 0, -1], [0, n - m], Lambda=1)
    lam = lambda_poly((n, m), sys)
    xy = {"degree_p": n, "degree_q": m, "p_xy": [[c.real, c.imag] for c in p_xy],
          "q_xy": [[c.real, c.imag] for c in q_xy]}
    params = {"indices": indices, "ts": ts}
    return _certificate("cylinder_wronskian", params, sys, lam, (n, m), p_w, q_w, bivariate=xy)


# each recipe's constructor, which ``certify`` calls with the stored params
_RECIPES = {
    "hermite_wronskian": hermite_pair,
    "laguerre_wronskian": laguerre_pair,
    "monomial_wronskian": monomial_pair,
    "adler_moser": adler_moser,
    "cylinder_wronskian": cylinder_pair,
}


# -- certification ------------------------------------------------------------


def certify(cert: EquilibriumCertificate) -> EquilibriumCertificate:
    """Rebuild the certificate from its recipe params and redo the float
    gradient cross-check; raises CertificationFailure if the rebuilt
    residual is not exactly zero, if the gradient is too large, or if the
    stored document differs from the rebuild's (``_same_field``).  Returns
    ``cert`` with the recomputed ``notes["gradient_max"]``."""
    try:
        fresh = check_built(_RECIPES[cert.recipe](**cert.params))
    except CertificationFailure:
        raise
    except _MALFORMED as exc:
        raise CertificationFailure(f"no {cert.recipe!r} system for its params: {exc!r}") from exc
    # a pair that differs from the rebuild: name the offending coefficient
    # when it is no equilibrium at all
    if (cert.p, cert.q) != (fresh.p, fresh.q):
        exact_zero, norm, idx = _exact_residual(cert.sys, cert.p, cert.q, cert.lam)
        if not exact_zero:
            raise CertificationFailure(
                f"bilinear residual nonzero (norm {norm:.3e})", coefficient_index=idx
            )
    stored, rebuilt = cert.to_json(), fresh.to_json()
    for doc in (stored, rebuilt):
        doc["notes"].pop("gradient_max", None)  # recomputed, not stored
    for key in dict.fromkeys([*_DOCUMENT, *stored, *rebuilt]):
        if not _same_field(key, stored.get(key), rebuilt.get(key)):
            raise CertificationFailure(f"stored {key!r} does not match the recipe params")
    cert.notes["gradient_max"] = fresh.notes["gradient_max"]
    return cert


def _same_field(key, stored, fresh) -> bool:
    """Whether a field of the stored document equals the rebuild's.
    Each inventory position may lie within POSITION_TOL of the largest
    fresh modulus (the charges must be equal).
    ``params`` and ``notes``, which ``from_json`` stores as given, are
    compared as JSON text, so that a value must also keep its JSON type
    (1, 1.0 and true, which == equates, differ)."""
    if key in ("params", "notes"):
        return json.dumps(stored, sort_keys=True) == json.dumps(fresh, sort_keys=True)
    if key == "inventory":
        charges = [[e["net_charge"] for e in doc] for doc in (stored, fresh)]
        old, new = ([complex(*e["position"]) for e in doc] for doc in (stored, fresh))
        tol = POSITION_TOL * max(map(abs, new), default=0.0)
        return charges[0] == charges[1] and all(abs(s - f) <= tol for s, f in zip(old, new))
    return stored == fresh


def check_built(cert: EquilibriumCertificate) -> EquilibriumCertificate:
    """The checks a certificate fresh from its constructor must pass: an
    exactly zero residual and the float gradient cross-check at its
    inventory, whose largest value goes into ``notes["gradient_max"]``.
    Raises CertificationFailure, or ValidationError when the field has no
    float form (``Polynomial.to_float``); returns ``cert``.

    The balance rule at a site of net charge c, where p has an a-fold and
    q a b-fold root (c = a - b): with P != 0 there, a zero residual forces
    (a - b)**2 = a + b (a and b consecutive triangular numbers), and the
    next order of the residual is the gradient with the self coefficient
    c - (a + b)/(2c) = c/2 on P'.  So c stands in for the species charge
    in ``_site_gradient``'s c - Q/2."""
    if not cert.residual_exact_zero:
        raise CertificationFailure(
            f"bilinear residual nonzero (norm {cert.residual_norm:.3e})",
            coefficient_index=cert.notes.get("first_nonzero_residual_index"),
        )
    # positive sites go first, as a configuration lists its +1 species,
    # which fixes the order of the row sums
    sites = sorted(cert.inventory, key=lambda site: site[1] < 0)
    z = np.array([z for z, _ in sites], dtype=complex)
    c = np.array([c for _, c in sites], dtype=complex)
    grad, size, Pz = _site_gradient(z, c, c, cert.sys)
    # Sites where P vanishes are pinned by the field's zero, not by the
    # free-charge balance; the velocity-form criterion applies elsewhere.
    # Elsewhere the gradient must cancel to GRADIENT_TOL of its terms'
    # size, which scales with the pair as the rounding floor does.
    free = _distance(Pz) > 1e-10 * max(1.0, float(_scale(z)))
    grad, size = _distance(grad[free]), size[free]
    over = np.flatnonzero(grad > GRADIENT_TOL * size)
    if over.size:
        g, s = grad[over[0]], size[over[0]]
        raise CertificationFailure(
            f"equilibrium gradient {g:.3e} exceeds {GRADIENT_TOL:g} of its terms' size {s:.3e}"
        )
    cert.notes["gradient_max"] = float(np.max(grad, initial=0.0))
    return cert
