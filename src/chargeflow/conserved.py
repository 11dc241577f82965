"""Hamiltonians, Lax matrices, rational integrals of motion, and period
detection for the two-species flows."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import NoReturnFound, ValidationError
from .operators import ChargeConfiguration, SystemCoefficients, _check_sites, _scale
from .dynamics import FlowSpec, Trajectory, rhs_flat
from .polynomials import _distance, pair_matrix

__all__ = [
    "HamiltonianValues",
    "hamiltonians",
    "split_potential",
    "linear_potential",
    "has_lax_pair",
    "lax",
    "integrals",
    "detect_period",
    "period_multiples",
    "multiset_distance",
]


@dataclass(frozen=True)
class HamiltonianValues:
    h_plus: Optional[complex]
    h_minus: Optional[complex]
    h_total: complex


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

    z, q, _ = state.sites()
    v = np.array(velocities, dtype=complex)
    pz = P(z)
    _check_sites(z, 1e-13, pz)
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
            (vx, vy), (px, py) = np.split(v, [n]), np.split(pz, [n])
            h_plus = complex(np.sum(vx * vx / (2.0 * px))) - split_potential(z[:n], sys, +1.0)
            h_minus = -complex(np.sum(vy * vy / (2.0 * py))) + split_potential(z[n:], sys, -1.0)
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


def has_lax_pair(flow: FlowSpec) -> bool:
    """The coordinate-only Lax pair exists for the harmonic trap at
    charge ratio 1."""
    return flow.omega is not None and abs(flow.sys.Lambda - 1.0) < 1e-12


def lax(z: np.ndarray, flow: FlowSpec) -> np.ndarray:
    """Block-diagonal Lax matrix, (N, N) for one flattened state (N,) or
    (S, N, N) for a stack (S, N), with velocities eliminated through the
    flow, so entries are rational in the coordinates only: diagonal
    (i v_j + omega z_j)/2, off-diagonal 1/(z_j - z_k) within each species
    and zero across species."""
    if not has_lax_pair(flow):
        raise ValidationError("lax applies to the harmonic-trap flow at charge ratio 1")
    _check_sites(z, 1e-13)
    diagonal = 0.5 * (1j * rhs_flat(flow, z) + flow.omega * z)
    species = np.repeat(np.arange(len(flow.sizes)), flow.sizes)
    same = species[:, None] == species[None, :]
    return np.where(same, pair_matrix(z, diagonal=diagonal), 0.0)


def integrals(z: np.ndarray, flow: FlowSpec) -> np.ndarray:
    """|Tr L^k|^2, k = 1 .. 2N-1, of the block Lax matrix: a float array
    (K,) for one flattened state (N,), (S, K) for a stack (S, N)."""
    L = lax(z, flow)
    traces = np.empty(L.shape[:-2] + (max(2 * L.shape[-1] - 1, 0),), dtype=complex)
    power = L
    for k in range(traces.shape[-1]):
        if k:
            power = power @ L
        traces[..., k] = np.trace(power, axis1=-2, axis2=-1)
    return _distance(traces) ** 2


def multiset_distance(a: Sequence[complex], b: Sequence[complex]) -> float:
    """Optimal-assignment distance: max matched |difference| under the
    total-|difference|-minimizing pairing (Hungarian algorithm)."""
    if len(a) != len(b):
        raise ValidationError("multisets must have equal size")
    if len(a) == 0:
        return 0.0
    A = np.array(a, dtype=complex)
    B = np.array(b, dtype=complex)
    cost = np.abs(A[:, None] - B[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def period_multiples(base_period: float, t_end: float) -> Iterator[float]:
    """The times j*base_period, j = 1, 2, ..., that ``detect_period`` reads
    on a trajectory ending at t_end, in order: every multiple up to t_end,
    and one past it by less than 1e-9 base periods."""
    j_max = int(math.floor(t_end / base_period + 1e-9))
    return (j * base_period for j in range(1, j_max + 1))


def detect_period(
    traj: Trajectory, base_period: float, tol: float = 1e-5
) -> Tuple[int, float]:
    """Smallest integer j such that the configuration at t = j*base_period
    returns to the initial root multiset (per species) within tol*scale.
    Each j*base_period (``period_multiples``) is read at the output time
    nearest to it.

    Raises NoReturnFound if no multiple inside the trajectory span matches.
    """
    times = traj.times
    split = np.cumsum(traj.flow.sizes)[:-1]
    init = np.split(traj.positions[0], split)
    scale = _scale(traj.positions[0])
    best_mismatch, j = math.inf, 0
    for j, target in enumerate(period_multiples(base_period, float(times[-1])), start=1):
        idx = int(np.argmin(np.abs(times - target)))
        mismatch = 0.0
        for sp0, sp1 in zip(init, np.split(traj.positions[idx], split)):
            if len(sp0):
                mismatch = max(mismatch, multiset_distance(sp0, sp1))
        best_mismatch = min(best_mismatch, mismatch)
        if mismatch < tol * scale:
            return j, mismatch
    if not j:
        raise NoReturnFound("trajectory shorter than one base period")
    raise NoReturnFound(
        f"no return within {j} periods; best mismatch {best_mismatch:.3e}"
    )
