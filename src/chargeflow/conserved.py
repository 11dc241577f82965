"""Hamiltonians, Lax matrices, rational integrals of motion, and period
detection for the two-species flows."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import CoincidentPositions, NoReturnFound, PZero, ValidationError
from .operators import ChargeConfiguration, SystemCoefficients
from .dynamics import FlowSpec, Trajectory, rhs_flat, _flatten
from .polynomials import _distance, pair_matrix

__all__ = [
    "LaxPair",
    "IntegralSet",
    "HamiltonianValues",
    "hamiltonians",
    "split_potential",
    "linear_potential",
    "lax",
    "integrals",
    "detect_period",
    "multiset_distance",
]


@dataclass(frozen=True)
class LaxPair:
    """Coordinate-only Lax blocks for the two species."""

    Lx: np.ndarray
    Ly: np.ndarray

    def block(self):
        n, m = len(self.Lx), len(self.Ly)
        L = np.zeros((n + m, n + m), dtype=complex)
        if n:
            L[:n, :n] = self.Lx
        if m:
            L[n:, n:] = self.Ly
        return L


@dataclass(frozen=True)
class IntegralSet:
    """|Tr L^k|^2 for k = 1 .. 2(n+m)-1; all nonnegative reals."""

    values: Tuple[float, ...]


@dataclass(frozen=True)
class HamiltonianValues:
    h_plus: Optional[complex]
    h_minus: Optional[complex]
    h_total: complex


def _species_arrays(state: ChargeConfiguration):
    xs = np.array(state.species[0].positions, dtype=complex)
    ys = (
        np.array(state.species[1].positions, dtype=complex)
        if len(state.species) > 1
        else np.zeros(0, dtype=complex)
    )
    return xs, ys


def _pairwise_check(z: np.ndarray, scale: float):
    if np.any(pair_matrix(z, _distance, diagonal=np.inf) < 1e-13 * scale):
        raise CoincidentPositions("coincident positions")


def _field_pairs(z: np.ndarray, pz: np.ndarray) -> np.ndarray:
    """(P_i + P_j) / (z_i - z_j)^2 on the pairs i < j, zero elsewhere."""
    return np.triu((pz[:, None] + pz[None, :]) * pair_matrix(z, _inverse_square), 1)


def _inverse_square(d):
    return 1.0 / (d * d)


def hamiltonians(
    state: ChargeConfiguration,
    sys: SystemCoefficients,
    velocities: Sequence[complex],
) -> HamiltonianValues:
    """Split and total Hamiltonians evaluated at one phase-space point.

    For charge ratio 1 the cross-species coupling amplitude vanishes and
    the value splits into independently conserved (h_plus, h_minus) with

        V_pm = 2 sum_{i<j} (P(z_i)+P(z_j))/(z_i-z_j)^2
               + 1/2 sum_i U_pm(z_i)^2 / P(z_i),   U_pm = U +- P'/2.

    The total is the multi-species form

        H = sum_j Q_j/(2P) v_j^2 - sum_j Q_j U_{Q_j}^2/(2P)
            - sum_{k<j} Q_k Q_j (Q_k+Q_j) (P_k+P_j)/(z_k-z_j)^2

    reported times i for the harmonic-trap system (P = i, U = i*omega*z)
    so that it reads kinetic-plus-potential with real coefficients.
    """
    if sys.charges is None:
        raise ValidationError("hamiltonians needs a charged (two-species+) system")
    P, U = sys.P.to_float(), sys.U.to_float()
    dP = P.derivative()

    z = np.array(state.all_positions(), dtype=complex)
    q = np.array([site[1] for site in state.flat()], dtype=complex)
    v = np.array(velocities, dtype=complex)
    _pairwise_check(z, state.scale())
    pz = P(z)
    zero = np.abs(pz) < 1e-14
    if zero.any():
        raise PZero(f"P vanishes at {z[np.argmax(zero)]}")
    uq = U(z) + q * dP(z) / 2.0
    total = np.sum(q / (2.0 * pz) * v * v - q * uq * uq / (2.0 * pz))
    total -= np.sum(np.outer(q, q) * (q[:, None] + q[None, :]) * _field_pairs(z, pz))

    is_trap = sys.omega is not None
    h_total = complex(1j * total if is_trap else total)

    h_plus = h_minus = None
    if len(sys.charges) == 2 and len(state.species) == 2:
        lam_val = -complex(sys.charges[1]) / complex(sys.charges[0])
        if abs(lam_val - 1.0) < 1e-12:
            n = len(state.species[0].positions)

            def split_part(part, sign):
                zz, vv, pp = z[part], v[part], pz[part]
                upm = U(zz) + sign * dP(zz) / 2.0
                kin = np.sum(vv * vv / (2.0 * pp))
                pot = np.sum(0.5 * upm * upm / pp) + 2.0 * np.sum(_field_pairs(zz, pp))
                return complex(kin), complex(pot)

            kx, vx = split_part(slice(None, n), +1.0)
            ky, vy = split_part(slice(n, None), -1.0)
            h_plus = kx - vx
            h_minus = -ky + vy
    return HamiltonianValues(h_plus, h_minus, h_total)


def split_potential(positions: Sequence[complex], sys: SystemCoefficients, sign: float) -> complex:
    """V_pm for one species: 2 sum_{i<j} (P_i+P_j)/(z_i-z_j)^2
    + 1/2 sum U_pm^2 / P with U_pm = U + sign * P'/2."""
    P, U = sys.P.to_float(), sys.U.to_float()
    z = np.array(positions, dtype=complex)
    pz = P(z)
    upm = U(z) + sign * P.derivative()(z) / 2.0
    return complex(np.sum(0.5 * upm * upm / pz) + 2.0 * np.sum(_field_pairs(z, pz)))


def linear_potential(positions: Sequence[complex], sys: SystemCoefficients) -> complex:
    """Single-species potential for the quartic-P linear flow:

        V = 2 sum_{i<j} [ (P_i+P_j)/dz^2 + (n-2)(E(z_i+z_j)^2 + D(z_i+z_j))
                          + (U_i-U_j)/dz ] + 1/2 sum U^2/P

    The Newton form it closes is  d2z/dt2 / P - P' (dz/dt)^2 / (2 P^2)
    = dV/dz (note the single power of P on the acceleration term).
    """
    P, U = sys.P.to_float(), sys.U.to_float()
    D = complex(P.coeff(3))
    E = complex(P.coeff(4))
    z = np.array(positions, dtype=complex)
    n = len(z)
    pz, uz = P(z), U(z)
    zsum = z[:, None] + z[None, :]
    pair = (
        _field_pairs(z, pz)
        + (n - 2) * (E * zsum * zsum + D * zsum)
        + (uz[:, None] - uz[None, :]) * pair_matrix(z)
    )
    return complex(np.sum(0.5 * uz * uz / pz) + 2.0 * np.sum(np.triu(pair, 1)))


def lax(state: ChargeConfiguration, flow: FlowSpec) -> LaxPair:
    """Lax blocks with velocities eliminated through the flow, so entries
    are rational in the coordinates only: diagonal (i v_j + omega z_j)/2,
    off-diagonal 1/(z_j - z_k) within each species."""
    if flow.sys is None or flow.sys.omega is None:
        raise ValidationError("lax applies to the harmonic-trap flow")
    Lam = -complex(flow.charges[1]).real
    if abs(Lam - 1.0) > 1e-12:
        raise ValidationError("lax requires charge ratio 1")
    omega = flow.sys.omega
    xs, ys = _species_arrays(state)
    scale = state.scale()
    _pairwise_check(np.concatenate([xs, ys]), scale)
    vel = rhs_flat(flow, _flatten(state))
    n = len(xs)
    vx, vy = vel[:n], vel[n:]

    def build(zz, vv):
        return pair_matrix(zz, diagonal=0.5 * (1j * vv + omega * zz))

    return LaxPair(build(xs, vx), build(ys, vy))


def integrals(state: ChargeConfiguration, flow: FlowSpec) -> IntegralSet:
    """|Tr L^k|^2, k = 1 .. 2(n+m)-1, from the block Lax matrix."""
    pair = lax(state, flow)
    L = pair.block()
    size = L.shape[0]
    kmax = 2 * size - 1
    vals = []
    M = np.eye(size, dtype=complex)
    for _ in range(kmax):
        M = M @ L
        tr = np.trace(M)
        vals.append(float(abs(tr) ** 2))
    return IntegralSet(tuple(vals))


def multiset_distance(a: Sequence[complex], b: Sequence[complex]) -> float:
    """Optimal-assignment distance: max matched |difference| under the
    total-|difference|-minimizing pairing (Hungarian algorithm)."""
    if len(a) != len(b):
        raise ValidationError("multisets must have equal size")
    if not a:
        return 0.0
    A = np.array(a, dtype=complex)
    B = np.array(b, dtype=complex)
    cost = np.abs(A[:, None] - B[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def detect_period(
    traj: Trajectory, base_period: float, tol: float = 1e-5
) -> Tuple[int, float]:
    """Smallest integer j such that the configuration at t = j*base_period
    returns to the initial root multiset (per species) within tol*scale.

    Raises NoReturnFound if no multiple inside the trajectory span matches.
    """
    times = traj.times
    t_end = float(times[-1])
    init = traj.states[0]
    scale = init.scale()
    j_max = int(math.floor(t_end / base_period + 1e-9))
    if j_max < 1:
        raise NoReturnFound("trajectory shorter than one base period")
    best_mismatch = math.inf
    for j in range(1, j_max + 1):
        target = j * base_period
        idx = int(np.argmin(np.abs(times - target)))
        state = traj.states[idx]
        mismatch = 0.0
        for sp0, sp1 in zip(init.species, state.species):
            if len(sp0.positions) != len(sp1.positions):
                raise ValidationError("species sizes changed along trajectory")
            if sp0.positions:
                mismatch = max(
                    mismatch, multiset_distance(sp0.positions, sp1.positions)
                )
        best_mismatch = min(best_mismatch, mismatch)
        if mismatch < tol * scale:
            return j, mismatch
    raise NoReturnFound(
        f"no return within {j_max} periods; best mismatch {best_mismatch:.3e}"
    )
