"""Construction and exact certification of equilibrium polynomial pairs.

Every planar constructor returns a pair (p, q) of exact polynomials
together with a governing system (P, U, charge ratio 1, eigenconstant
lambda) for which the two-argument operator annihilates the pair
bit-exactly.  The cylinder constructor certifies the rotationally
homogeneous analog on the Fourier coefficients of its trigonometric
Wronskians, which is equivalent to the bivariate (X, Y) form; the phases
stay formal, which makes the residual exact for every phase choice at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import _trig
from .errors import (
    BadK,
    CertificationFailure,
    DegenerateWronskian,
    NonIntegerPower,
    ValidationError,
)
from .operators import (
    ChargeConfiguration,
    Species,
    SystemCoefficients,
    eigenpoly,
    equilibrium_gradient,
    lambda_poly,
    polylinear_H,
)
from .polynomials import CLUSTER_TOL, Polynomial, _ratio, _ratio_json, laguerre
from .polynomials import pair_matrix, reduce_pair, wronskian
from .scalars import GaussianRational, exactify

__all__ = [
    "EquilibriumCertificate",
    "hermite_pair",
    "laguerre_pair",
    "monomial_pair",
    "adler_moser",
    "cylinder_pair",
    "certify",
    "GRADIENT_TOL",
]

GRADIENT_TOL = 1e-8


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
        p = Polynomial.from_json(doc["p"])
        q = Polynomial.from_json(doc["q"])
        P = Polynomial.from_json(doc["P"])
        U = Polynomial.from_json(doc["U"])
        sys = SystemCoefficients.bilinear(P, U, Lambda=1)
        lam = _scalar_from_json(doc["lambda"])
        cert = EquilibriumCertificate(
            recipe=doc["recipe"],
            params=doc["params"],
            p=p,
            q=q,
            degrees=tuple(doc["degrees"]),
            sys=sys,
            lam=lam,
            residual_exact_zero=doc["residual_exact_zero"],
            residual_norm=doc["residual_norm"],
            bivariate=doc.get("bivariate"),
            notes=doc.get("notes", {}),
        )
        if "reduced" in doc:
            cert.reduced = (
                Polynomial.from_json(doc["reduced"][0]),
                Polynomial.from_json(doc["reduced"][1]),
            )
        cert.inventory = [
            (complex(e["position"][0], e["position"][1]), e["net_charge"])
            for e in doc.get("inventory", [])
        ]
        return cert


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, GaussianRational):
        return _scalar_json(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _scalar_json(value):
    if isinstance(value, (Fraction, GaussianRational)):
        value = exactify(value)
        return {"re": _ratio_json(value.re), "im": _ratio_json(value.im)}
    value = complex(value)
    return {"float": [value.real, value.imag]}


def _scalar_from_json(doc):
    if "float" in doc:
        return complex(*doc["float"])
    return GaussianRational(_ratio(*doc["re"]), _ratio(*doc["im"]))


# -- shared assembly ---------------------------------------------------------


def _exact_residual(sys, p, q, lam):
    resid = polylinear_H(sys, [p, q], lam=lam)
    if resid.is_zero:
        return True, 0.0, None
    # first offending coefficient index and a float norm for reporting
    idx = next(k for k, c in enumerate(resid.coeffs) if not c.is_zero)
    denom = max((abs(c) for c in (p * q).to_float().coeffs), default=1.0)
    norm = max(abs(c) for c in resid.to_float().coeffs) / denom
    return False, norm, idx


def _finish_planar(recipe, params, p, q, sys, lam, notes=None):
    exact_zero, norm, idx = _exact_residual(sys, p, q, lam)
    pbar, qbar, inventory = reduce_pair(p, q)
    cert = EquilibriumCertificate(
        recipe=recipe,
        params=params,
        p=p,
        q=q,
        degrees=(p.degree, q.degree),
        sys=sys,
        lam=lam,
        reduced=(pbar, qbar),
        inventory=inventory,
        residual_exact_zero=exact_zero,
        residual_norm=0.0 if exact_zero else norm,
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


# -- constructors ------------------------------------------------------------


def hermite_pair(indices: Sequence[int], b) -> EquilibriumCertificate:
    """Wronskian pair from the constant-field eigenfunctions (P = 1,
    U = b z); with b = -2 the eigenfunctions are the physicists'
    Hermite polynomials."""
    indices = _check_index_set(indices)
    b = Fraction(b)
    if b == 0:
        raise ValidationError("b must be nonzero")
    k = len(indices) - 1
    sys = SystemCoefficients.bilinear([1], [0, b], Lambda=1)
    eig_sys = sys  # same P, U drive the eigenfunctions
    Qs = [eigenpoly(eig_sys, i, leading=(-b) ** i) for i in indices]
    p = wronskian(Qs)
    q = wronskian(Qs[:k])
    if p.is_zero or q.is_zero:
        raise DegenerateWronskian("hermite-class Wronskian vanished")
    n_expect = sum(indices) - k * (k + 1) // 2
    m_expect = sum(indices[:k]) - k * (k - 1) // 2
    if (p.degree, q.degree) != (n_expect, m_expect):
        raise DegenerateWronskian(
            f"degree drop: got {(p.degree, q.degree)}, "
            f"expected {(n_expect, m_expect)}"
        )
    lam = lambda_poly([p.degree, q.degree], sys)
    return _finish_planar(
        "hermite_wronskian", {"indices": indices, "b": b}, p, q, sys, lam
    )


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
    indices = _check_index_set(indices)
    b = Fraction(b)
    if b == 0:
        raise ValidationError("b must be nonzero")
    k = len(indices) - 1
    if k % 4 != 0:
        raise BadK(f"index-set length {k + 1} requires k = {k} divisible by 4")
    ep = k * k // 4
    eq = k * (k - 2) // 4
    Qs = []
    for i in indices:
        base = laguerre(i, -1)
        # substitute z -> -b z
        Qs.append(
            Polynomial([c * exactify((-b) ** j) for j, c in enumerate(base.coeffs)])
        )
    wp = wronskian(Qs)
    wq = wronskian(Qs[:k])
    if wp.is_zero or wq.is_zero:
        raise DegenerateWronskian("laguerre-class Wronskian vanished")
    p = wp.shift(ep)
    q = wq.shift(eq)
    sys = SystemCoefficients.bilinear([0, 1], [Fraction(-1, 2), b], Lambda=1)
    lam = lambda_poly([p.degree, q.degree], sys)
    return _finish_planar(
        "laguerre_wronskian", {"indices": indices, "b": b}, p, q, sys, lam,
        notes={"field_offset": "U = b z - 1/2"},
    )


_I_POWERS = [
    GaussianRational(1),
    GaussianRational(0, 1),
    GaussianRational(-1),
    GaussianRational(0, -1),
]


def monomial_pair(indices: Sequence[int], b) -> EquilibriumCertificate:
    """Wronskian pair from monomial eigenfunctions of the -z^2 field.

    The half-integer powers of P = -z^2 in the prefactors resolve to the
    integer z-power k(k+1)/2 times a Gaussian unit i**(k(k+1)/2); the unit
    is tracked exactly and cancels from the (bilinear) residual.
    """
    indices = _check_index_set(indices)
    b = Fraction(b)
    if b == 0:
        raise ValidationError("b must be nonzero")
    k = len(indices) - 1
    Qs = [Polynomial([0] * i + [1]) for i in indices]
    wp = wronskian(Qs)
    wq = wronskian(Qs[:k])
    if wp.is_zero or wq.is_zero:
        raise DegenerateWronskian("monomial Wronskian vanished")
    tp = k * (k + 1) // 2
    tq = (k - 1) * k // 2
    if (k * (k + 1)) % 2 or ((k - 1) * k) % 2:
        raise NonIntegerPower("prefactor z-power is not an integer")
    p = wp.shift(tp).scale(_I_POWERS[tp % 4])
    q = wq.shift(tq).scale(_I_POWERS[tq % 4])
    sys = SystemCoefficients.bilinear([0, 0, -1], [0, b], Lambda=1)
    lam = lambda_poly([p.degree, q.degree], sys)
    n_expect, m_expect = sum(indices), sum(indices[:k])
    if (p.degree, q.degree) != (n_expect, m_expect):
        raise DegenerateWronskian("monomial pair degree mismatch")
    return _finish_planar(
        "monomial_wronskian", {"indices": indices, "b": b}, p, q, sys, lam
    )


def adler_moser(k: int, ts: Sequence = ()) -> EquilibriumCertificate:
    """Consecutive pair (theta_{k+1}, theta_k) of the polynomial chain
    built from psi_0 = 1, psi_1 = z, psi_j'' = psi_{j-1}.

    Each double integration fixes both new constants to zero and then adds
    ts[j-2] times the kernel monomial (1 for even j, z for odd j), so the
    chain carries exactly k free parameters for the pair (the z-shift
    symmetry is not a separate parameter).
    """
    if k < 0:
        raise ValidationError("k must be >= 0")
    ts = [Fraction(t) for t in ts]
    if len(ts) != k:
        raise ValidationError(f"need exactly {k} chain parameters, got {len(ts)}")
    psis = [Polynomial([1]), Polynomial([0, 1])]
    for j in range(2, k + 2):
        prev = psis[j - 1]
        coeffs = [GaussianRational(0), GaussianRational(0)] + [
            c / exactify((m + 1) * (m + 2)) for m, c in enumerate(prev.coeffs)
        ]
        psi = Polynomial(coeffs)
        t = ts[j - 2]
        kernel = Polynomial([t]) if j % 2 == 0 else Polynomial([0, t])
        psis.append(psi + kernel)
    theta_k1 = wronskian(psis[1 : k + 2])
    theta_k = wronskian(psis[1 : k + 1])
    if theta_k1.is_zero or theta_k.is_zero:
        raise DegenerateWronskian("chain Wronskian vanished")
    sys = SystemCoefficients.bilinear([1], [0], Lambda=1)
    lam = GaussianRational(0)
    return _finish_planar(
        "adler_moser", {"k": k, "ts": ts}, theta_k1, theta_k, sys, lam
    )


def cylinder_pair(indices: Sequence[int], ts: Sequence[float]) -> EquilibriumCertificate:
    """Trigonometric Wronskian pair on the cylinder.

    Builds sin(i_j phi + t_j) Wronskians; with the radial powers r**n,
    r**m (n, m the index sums) they are homogeneous (X, Y) polynomials p,
    q, and the pair certifies q Lap p - 2 (grad q, grad p) + p Lap q = 0.
    The residual is checked, with formal phases, on the Fourier amplitudes
    of the Wronskians, which is equivalent to the (X, Y) form, so the zero
    is exact for every ts; the stored float pair and (X, Y) coefficients
    materialize the requested phases.
    """
    indices = _check_index_set(indices)
    ts = [float(t) for t in ts]
    kp1 = len(indices)
    if len(ts) != kp1:
        raise ValidationError(f"need {kp1} phases, got {len(ts)}")
    k = kp1 - 1
    modes = [
        _trig.TrigPoly.sin_mode(freq, j, kp1) for j, freq in enumerate(indices)
    ]
    wp = _trig.trig_wronskian(modes)
    wq = _trig.trig_wronskian(modes[:k]) if k else _trig.TrigPoly.one(kp1)
    if wp.is_zero or wq.is_zero:
        raise DegenerateWronskian("trigonometric Wronskian vanished identically")
    n, m = sum(indices), sum(indices[:k])
    resid = _trig.laplace_residual(wp, wq, n, m)
    exact_zero = resid.is_zero

    # materialize requested phases
    p_num = [c.substitute(ts) for c in _trig.xy_coeffs(wp, n)]
    q_num = [c.substitute(ts) for c in _trig.xy_coeffs(wq, m)]
    if max(abs(c) for c in p_num) < 1e-14 or max(abs(c) for c in q_num) < 1e-14:
        raise DegenerateWronskian("chosen phases collapse the Wronskian")
    resid_num = resid.substitute(ts).values()
    denom = max(abs(c) for c in p_num) * max(abs(c) for c in q_num)
    norm = max((abs(c) for c in resid_num), default=0.0) / max(denom, 1e-300)

    # univariate shadow in w = exp(2 i phi) for inventory and replays
    p_w = _angles_polynomial(wp.substitute(ts), n)
    q_w = _angles_polynomial(wq.substitute(ts), m)
    pbar, qbar, inventory = reduce_pair(p_w, q_w)

    cert = EquilibriumCertificate(
        recipe="cylinder_wronskian",
        params={"indices": indices, "ts": ts},
        p=p_w,
        q=q_w,
        degrees=(n, m),
        sys=SystemCoefficients.bilinear([0.0, 0.0, -1.0], [0.0, 0.0], Lambda=1.0),
        lam=float((n - m) ** 2),
        reduced=(pbar, qbar),
        inventory=inventory,
        residual_exact_zero=exact_zero,
        residual_norm=0.0 if exact_zero else norm,
        bivariate={
            "degree_p": n,
            "degree_q": m,
            "p_xy": [[c.real, c.imag] for c in p_num],
            "q_xy": [[c.real, c.imag] for c in q_num],
            "residual_norm_at_ts": norm,
        },
    )
    return cert


def _angles_polynomial(freq_map: dict, total: int) -> Polynomial:
    """Fourier sum at fixed phases -> polynomial in w = exp(2 i phi).

    Frequencies share the parity of ``total`` so exponents (f + total)/2
    are integers in 0..total.
    """
    coeffs = [0j] * (total + 1)
    for f, amp in freq_map.items():
        idx2 = f + total
        if idx2 % 2:
            raise ValueError("frequency parity broken")
        coeffs[idx2 // 2] += amp
    return Polynomial(coeffs)


# -- certification ------------------------------------------------------------


def certify(cert: EquilibriumCertificate, sys: Optional[SystemCoefficients] = None) -> EquilibriumCertificate:
    """Recompute the certificate's residual, reduced pair, inventory, and
    the float gradient cross-check; raises CertificationFailure if any of
    them breaks or if a stored field differs from its recomputed value."""
    if sys is None:
        sys = cert.sys
    if cert.recipe == "cylinder_wronskian":
        return _certify_cylinder(cert)
    exact_zero, norm, idx = _exact_residual(sys, cert.p, cert.q, cert.lam)
    if not exact_zero:
        raise CertificationFailure(
            f"bilinear residual nonzero (norm {norm:.3e})", coefficient_index=idx
        )
    pbar, qbar, inventory = reduce_pair(cert.p, cert.q)
    recomputed = {
        "degrees": (cert.p.degree, cert.q.degree),
        "reduced": (pbar, qbar),
        "residual_exact_zero": True,
        "residual_norm": 0.0,
    }
    _check_stored(cert, recomputed, "recomputed certificate")
    if not _same_inventory(cert.inventory, inventory):
        raise CertificationFailure("stored 'inventory' does not match the recomputed certificate")
    grad = _inventory_gradient(inventory, sys)
    scale = max((abs(z) for z, _ in inventory), default=1.0) or 1.0
    # Sites where P vanishes are pinned by the field's zero, not by the
    # free-charge balance; the velocity-form criterion applies elsewhere.
    Pf = sys.P.to_float()
    worst = 0.0
    for (z, _), g in zip(inventory, grad):
        if abs(Pf(z)) > 1e-10 * max(1.0, scale):
            worst = max(worst, abs(g))
    if worst > GRADIENT_TOL * max(1.0, scale):
        raise CertificationFailure(
            f"equilibrium gradient {worst:.3e} exceeds {GRADIENT_TOL:g}"
        )
    cert.notes["gradient_max"] = worst
    return cert


def _check_stored(cert: EquilibriumCertificate, recomputed: dict, what: str):
    """Raise CertificationFailure naming the first stored field that
    differs from its recomputed value."""
    for name, value in recomputed.items():
        if getattr(cert, name) != value:
            raise CertificationFailure(f"stored {name!r} does not match the {what}")


def _same_inventory(stored, fresh) -> bool:
    """Equal charges, and positions within reduce_pair's cluster tolerance
    (numeric roots may differ in the last bits between numpy builds)."""
    tol = CLUSTER_TOL * max(max((abs(z) for z, _ in fresh), default=0.0), 1e-30)
    close = (c == cf and abs(z - zf) <= tol for (z, c), (zf, cf) in zip(stored, fresh))
    return len(stored) == len(fresh) and all(close)


def _inventory_gradient(inventory, sys):
    plus = [(z, c) for z, c in inventory if c > 0]
    minus = [(z, -c) for z, c in inventory if c < 0]
    species = (
        Species(1.0, tuple(z for z, _ in plus), tuple(c for _, c in plus) or None),
        Species(-1.0, tuple(z for z, _ in minus), tuple(c for _, c in minus) or None),
    )
    cfg = ChargeConfiguration(species)
    return equilibrium_gradient(cfg, sys)


def _certify_cylinder(cert: EquilibriumCertificate) -> EquilibriumCertificate:
    """Rebuild the pair from its recorded indices and phases; the stored
    pair, degrees and (X, Y) payload must match the rebuild."""
    fresh = cylinder_pair(list(cert.params["indices"]), list(cert.params["ts"]))
    fields = {name: getattr(fresh, name) for name in ("p", "q", "degrees", "bivariate")}
    _check_stored(cert, fields, "rebuilt cylinder certificate")
    if not fresh.residual_exact_zero:
        raise CertificationFailure("cylinder residual not exactly zero")
    # gradient cross-check in angle variables via w = exp(2 i phi)
    worst = _cylinder_gradient_max(fresh)
    if worst > 1e-7:
        raise CertificationFailure(f"cylinder gradient {worst:.3e} too large")
    fresh.notes["gradient_max"] = worst
    return fresh


def _cylinder_gradient_max(cert: EquilibriumCertificate) -> float:
    """Max cotangent-sum gradient over the reduced root angles."""
    z = np.array([zi for zi, _ in cert.inventory], dtype=complex)
    c = np.array([ci for _, ci in cert.inventory], dtype=float)
    # cot(phi_i - phi_j) = i (w_i + w_j) / (w_i - w_j)
    cot = 1j * (z[:, None] + z[None, :]) * pair_matrix(z)
    return float(np.max(np.abs((cot * c).sum(axis=1)), initial=0.0))
