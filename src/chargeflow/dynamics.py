"""Root-dynamics right-hand side and the adaptive integrator.

All flows evolve labeled complex positions grouped by species, and all
share one right-hand side

    v_i = -2 P(z_i) sum_{j != i} q_j K(z_i - z_j) - U(z_i) - w_i P'(z_i)

with K = 1/dz for the planar flows and cot dz for the angular flow, q the
per-particle charges and w_i = q_i/2 for charged flows (0 otherwise).
The float data it needs is derived once per ``FlowSpec``.  The
integrator is an embedded Dormand-Prince 5(4) pair with step control,
fourth-order dense output on a fixed sample grid and collision
detection with event localization.  A trajectory is a times vector and
an (S, N) position array; its per-sample monitors (bilinear consistency
residual, minimum separation, conserved traces) are computed as columns
in a separate step, ``monitors``, by the callers that read them.  The
residual column is one computation on the whole stack: the polynomials
of all samples are batched along their coefficients (numpy (S,) arrays).

The holomorphic equations are integrated exactly as written: velocities,
not conjugated velocities, appear on the left-hand side.  Off the real
line the trajectories therefore do not describe physical vortex motion,
although fixed points and real-line dynamics coincide with the physical
system's.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import Collision, NonConvergence, SymmetryViolation, ValidationError
from .operators import ChargeConfiguration, SystemCoefficients, _product, polylinear_H
from .polynomials import Polynomial, _distance, _inverse, from_roots, pair_matrix
from .scalars import to_complex

__all__ = [
    "FlowKind",
    "FlowSpec",
    "Trajectory",
    "rhs",
    "integrate",
    "monitors",
    "bilinear_residual",
    "symmetric_reduce",
    "reduced_velocity_residual",
    "phi_identity_i1",
    "phi_identity_i2",
]


class FlowKind(enum.Enum):
    LINEAR = "linear"
    CHARGED = "charged"
    ANGULAR = "angular"


def _cot(d):
    return 1.0 / np.tan(d)


@dataclass(frozen=True)
class FlowSpec:
    """Which evolution to integrate, its coefficients, and species sizes.

    The remaining fields are derived once from these three: the species
    charges, the per-particle charge vector ``q``, the float polynomials
    ``P``, ``U``, ``dP`` (angular: P = 1, U = 0), the P' weight ``w``
    (q/2 for charged flows, 0 otherwise) and the pair ``kernel``.
    """

    kind: FlowKind
    sys: Optional[SystemCoefficients]
    sizes: Tuple[int, ...]
    charges: Tuple[float, ...] = field(init=False, compare=False, repr=False)
    q: np.ndarray = field(init=False, compare=False, repr=False)
    P: Polynomial = field(init=False, compare=False, repr=False)
    U: Polynomial = field(init=False, compare=False, repr=False)
    dP: Polynomial = field(init=False, compare=False, repr=False)
    w: np.ndarray = field(init=False, compare=False, repr=False)
    kernel: Callable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind is FlowKind.ANGULAR:
            charges = (1.0, -1.0)
            P, U = Polynomial([1.0]), Polynomial.zero()
        else:
            charges = (
                (1.0,)
                if self.kind is FlowKind.LINEAR
                else tuple(to_complex(q).real for q in self.sys.charges)
            )
            P, U = self.sys.P.to_float(), self.sys.U.to_float()
        if len(charges) != len(self.sizes):
            raise ValidationError(
                f"{len(self.sizes)} species sizes for {len(charges)} charges"
            )
        q = np.repeat(np.array(charges, dtype=complex), self.sizes)
        derived = {
            "charges": charges,
            "q": q,
            "P": P,
            "U": U,
            "dP": P.derivative(),
            "w": 0.5 * q if self.kind is FlowKind.CHARGED else np.zeros_like(q),
            "kernel": _cot if self.kind is FlowKind.ANGULAR else _inverse,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @staticmethod
    def linear(sys: SystemCoefficients, n: int):
        return FlowSpec(FlowKind.LINEAR, sys, (n,))

    @staticmethod
    def bilinear(sys: SystemCoefficients, n: int, m: int):
        return FlowSpec(FlowKind.CHARGED, sys, (n, m))

    @staticmethod
    def polylinear(sys: SystemCoefficients, sizes: Sequence[int]):
        return FlowSpec(FlowKind.CHARGED, sys, tuple(sizes))

    @staticmethod
    def rational_omega(omega: float, Lambda: float, n: int, m: int):
        sys = SystemCoefficients.rational_omega(omega, Lambda)
        return FlowSpec(FlowKind.CHARGED, sys, (n, m))

    @staticmethod
    def angular(n: int, m: int):
        return FlowSpec(FlowKind.ANGULAR, None, (n, m))


@dataclass
class Trajectory:
    """Sampled solution: strictly increasing ``times`` (S,) and the complex
    ``positions`` (S, N) at those times, species concatenated in
    ``flow.sizes`` order."""

    times: np.ndarray
    positions: np.ndarray
    flow: FlowSpec


# -- right-hand sides ----------------------------------------------------------


def _flatten(config: ChargeConfiguration):
    return np.array(config.all_positions(), dtype=complex)


def rhs_flat(flow: FlowSpec, z: np.ndarray) -> np.ndarray:
    """Velocities for the flattened position vector, by the shared formula
    in the module docstring."""
    pairs = pair_matrix(z, flow.kernel) @ flow.q
    return -2.0 * flow.P(z) * pairs - flow.U(z) - flow.w * flow.dP(z)


def rhs(flow: FlowSpec, state: ChargeConfiguration):
    """Velocities per species for a configuration (list of complex)."""
    z = _flatten(state)
    return list(rhs_flat(flow, z))


# -- separation measure ---------------------------------------------------------


def _sine_distance(d):
    return np.abs(np.sin(d.real))


def _min_separation(flow: FlowSpec, z: np.ndarray) -> float:
    """Smallest pair distance: |sin(Re dz)| for angles, |dz| otherwise."""
    metric = _sine_distance if flow.kind is FlowKind.ANGULAR else _distance
    return float(pair_matrix(z, metric, diagonal=np.inf).min(initial=np.inf))


# -- Dormand-Prince 5(4) ----------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# 4th-order dense-output weights of the 5(4) pair: quartic Hermite-Birkhoff
# interpolant built from the seven stages, continuous with O(h^5) error.
_DP_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_MAX_STEPS = 10_000_000
_COLLISION_REL = 1e-7  # delta = 1e-7 * configuration scale


class _StepInterpolant:
    """Dense output over one accepted step."""

    __slots__ = ("t0", "h", "y0", "Q")

    def __init__(self, t0, h, y0, K):
        self.t0 = t0
        self.h = h
        self.y0 = y0
        self.Q = K.T @ _DP_P  # (n_dim, 4)

    def __call__(self, t):
        s = (t - self.t0) / self.h
        sv = np.array([s, s * s, s**3, s**4])
        return self.y0 + self.h * (self.Q @ sv)


def integrate(
    flow: FlowSpec,
    init: ChargeConfiguration,
    t_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    n_samples: int = 257,
    collision_delta: Optional[float] = None,
    max_step: Optional[float] = None,
    fixed_step: Optional[float] = None,
) -> Trajectory:
    """Integrate a flow and sample it on a uniform output grid.

    Local error per step is held below ``rtol * |y| + atol`` component-wise
    (weighted rms).  ``fixed_step`` disables adaptivity (used by the
    convergence-order tests).  Collisions raise ``Collision`` with the event
    time localized to 1e-3 of the step by bisection on the interpolant;
    a step size underflow (below 1e-13 * t_end) or exceeding the step cap
    raises ``NonConvergence``.
    """
    z = _flatten(init)
    if t_end < 0:
        raise ValidationError("t_end must be >= 0")
    delta = collision_delta
    if delta is None:
        scale = max(1.0, float(np.max(np.abs(z))) if len(z) else 1.0)
        delta = _COLLISION_REL * scale
    if _min_separation(flow, z) <= delta:
        raise Collision("initial configuration violates separation", time=0.0)

    t_grid = np.linspace(0.0, t_end, max(2, n_samples)) if t_end > 0 else np.array([0.0])
    samples = [z.copy()]
    if t_end == 0:
        return Trajectory(t_grid, np.array(samples), flow)

    t = 0.0
    f = rhs_flat(flow, z)
    h = fixed_step if fixed_step else min(1e-3, t_end / 10)
    if max_step is None:
        max_step = t_end
    next_idx = 1
    steps = 0
    k = np.empty((7, len(z)), dtype=complex)

    while t < t_end:
        if steps > _MAX_STEPS:
            raise NonConvergence("step cap exceeded")
        if not fixed_step and h < 1e-13 * t_end:
            sep = _min_separation(flow, z)
            if sep <= 1e-3 * max(1.0, float(np.max(np.abs(z))) if len(z) else 1.0):
                # the underflow is driven by an imminent coincidence
                raise Collision(
                    f"charges approaching coincidence (separation {sep:.3g}) "
                    f"stalled the stepper at t={t:.6g}",
                    time=t,
                )
            raise NonConvergence("step size underflow")
        h = min(h, t_end - t, max_step)
        k[0] = f
        for stage in range(1, 7):
            acc = np.zeros_like(z)
            for j, a in enumerate(_DP_A[stage]):
                if a:
                    acc += a * k[j]
            k[stage] = rhs_flat(flow, z + h * acc)
        y1 = z + h * (_DP_B5 @ k)
        err_vec = h * (_DP_E @ k)
        sc = atol + rtol * np.maximum(np.abs(z), np.abs(y1))
        err = float(np.sqrt(np.mean(np.abs(err_vec / sc) ** 2))) if len(z) else 0.0

        if fixed_step or err <= 1.0:
            t1 = t + h
            f1 = k[6]  # FSAL: last stage is the rhs at (t1, y1)
            interp = _StepInterpolant(t, h, z.copy(), k.copy())
            sep = _min_separation(flow, y1)
            if sep <= delta:
                t_ev = _localize_collision(flow, interp, t, t1, delta)
                raise Collision(
                    f"charges within {delta:g} at t={t_ev:.6g}", time=t_ev
                )
            while next_idx < len(t_grid) and t_grid[next_idx] <= t1 + 1e-15 * t_end:
                ts = t_grid[next_idx]
                if abs(ts - t1) < 1e-15 * max(1.0, t_end):
                    samples.append(y1.copy())
                else:
                    samples.append(interp(ts))
                next_idx += 1
            z, t, f = y1, t1, f1
        if not fixed_step:
            factor = 0.9 * err ** (-0.2) if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
        steps += 1

    while next_idx < len(t_grid):  # numerical tail guard
        samples.append(z.copy())
        next_idx += 1

    return Trajectory(t_grid, np.array(samples), flow)


def _localize_collision(flow, interp, t0, t1, delta):
    """Bisect the step interpolant for the first sub-delta separation."""
    lo, hi = t0, t1
    target = 1e-3 * (t1 - t0)
    while hi - lo > target:
        mid = 0.5 * (lo + hi)
        if _min_separation(flow, interp(mid)) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


# -- monitors -------------------------------------------------------------------


def monitors(traj: Trajectory) -> dict:
    """Per-sample monitor columns: ``min_separation`` (S,), and where the
    flow defines them ``bilinear_residual`` (S,), ``charge_moment`` (S,)
    and the Lax traces ``conserved`` (S, K).  The residual column comes
    from one stacked ``state_residual`` call; the others row by row."""
    rows = [_sample_monitors(traj.flow, z) for z in traj.positions]
    mon = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    if traj.flow.kind is FlowKind.CHARGED:
        mon["bilinear_residual"] = state_residual(traj.flow, traj.positions)
    return mon


def _sample_monitors(flow: FlowSpec, z: np.ndarray) -> dict:
    """One row of ``monitors``, without the stacked residual column."""
    from . import conserved as _conserved  # local import to avoid a cycle

    mon = {"min_separation": _min_separation(flow, z)}
    if flow.kind is not FlowKind.LINEAR:
        mon["charge_moment"] = complex(flow.q @ z)
    if _conserved.has_lax_pair(flow):
        mon["conserved"] = _conserved.integrals(z, flow).values
    return mon


def _coeff_velocity(roots, velocities):
    """d/dt of the monic polynomial with the given moving roots.

    dp/dt = -sum_i v_i * p / (z - root_i); each division is a synthetic
    deflation, so the result is exact in coefficients.  Roots and
    velocities may be (S,) arrays, giving a batch of S polynomials.
    """
    p = from_roots(roots)
    total = Polynomial.zero()
    for r, v in zip(roots, velocities):
        quotient, _ = _deflate(p, r)
        total = total - quotient.scale(v)
    return p, total


def _deflate(p: Polynomial, root):
    """Synthetic division of a float polynomial by (z - root)."""
    coeffs = p.coeffs
    n = len(coeffs) - 1
    out = [0] * n
    acc = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = coeffs[k] + acc * root
    return Polynomial(out), acc


def _coeff_norm(p: Polynomial, samples: int) -> np.ndarray:
    """max |c| over the coefficients of a batched polynomial, per sample."""
    out = np.zeros(samples)
    for c in p.coeffs:
        out = np.maximum(out, _distance(np.asarray(c)))
    return out


def state_residual(flow: FlowSpec, Z: np.ndarray):
    """Normalized coefficient residual of the evolution identity

        sum_i Q_i (dq_i/dt) prod_{n != i} q_n = H[q_1, .., q_l]

    with the polynomials reconstructed from the roots and their
    coefficient velocities from the flow.  ``Z`` is one flattened state
    (N,), giving a float, or a stack of S states (S, N), giving an (S,)
    array: the polynomials of all states are batched along their
    coefficients, so one ``polylinear_H`` call covers the stack.  A
    single state is the same computation on a (1, N) stack."""
    Z = np.asarray(Z)
    if Z.ndim == 1:
        return float(state_residual(flow, Z[None, :])[0])
    vel = np.array([rhs_flat(flow, z) for z in Z])
    split = np.cumsum(flow.sizes)[:-1]
    polys, dpolys = [], []
    for zs, vs in zip(np.split(Z, split, axis=1), np.split(vel, split, axis=1)):
        p, dp = _coeff_velocity(zs.T, vs.T)  # one (S,) column per root
        polys.append(p)
        dpolys.append(dp)
    charges = flow.charges
    H = polylinear_H(SystemCoefficients.polylinear(flow.P, flow.U, charges), polys)
    lhs = Polynomial.zero()
    for i, dq in enumerate(dpolys):
        lhs = lhs + _product([dq.scale(charges[i])] + polys[:i] + polys[i + 1 :])
    return _coeff_norm(lhs - H, len(Z)) / _coeff_norm(_product(polys), len(Z))


def bilinear_residual(flow: FlowSpec, traj: Trajectory, k: int) -> float:
    """Residual monitor at sample k of a trajectory."""
    return state_residual(flow, traj.positions[k])


# -- symmetric reduction ----------------------------------------------------------


def symmetric_reduce(z: np.ndarray, flow: FlowSpec, rtol: float = 1e-10):
    """Fold a negation-symmetric two-species state into squared coordinates.

    Requires n = 2l first-species positions forming +-pairs (within the
    relative tolerance) and a single second-species charge at the origin.
    Returns the l squared pair positions z_j = x_j**2.
    """
    if len(flow.sizes) != 2:
        raise SymmetryViolation("need exactly two species")
    n = flow.sizes[0]
    xs = z[:n].tolist()
    ys = z[n:].tolist()
    if len(ys) != 1 or abs(ys[0]) > rtol * max(1.0, max(abs(x) for x in xs)):
        raise SymmetryViolation("second species must be a single charge at 0")
    if len(xs) % 2:
        raise SymmetryViolation("first species size must be even")
    scale = max(abs(x) for x in xs)
    remaining = xs[:]
    pairs = []
    while remaining:
        x = remaining.pop()
        best_i, best_d = None, math.inf
        for i, y in enumerate(remaining):
            d = abs(x + y)
            if d < best_d:
                best_i, best_d = i, d
        if best_i is None or best_d > rtol * scale:
            raise SymmetryViolation(f"no negation partner for {x}")
        remaining.pop(best_i)
        pairs.append(x)
    return [x * x for x in pairs]


def reduced_velocity_residual(flow: FlowSpec, z: np.ndarray) -> float:
    """Check that the squared pair coordinates obey the folded rational flow

        i dz_j/dt = 2(1 - 2 Lambda) + 8 sum_{k != j} z_j/(z_j - z_k)
                    + 2 omega z_j

    along a symmetric harmonic-trap trajectory; returns the max deviation.
    """
    if flow.sys is None or flow.sys.omega is None:
        raise ValidationError("reduction applies to the harmonic-trap flow")
    Lambda = -flow.charges[1]
    omega = flow.sys.omega
    xs = z[: flow.sizes[0]]
    zs = np.array(symmetric_reduce(z, flow))
    vel = rhs_flat(flow, z)[: len(xs)]
    # representative root per pair coordinate: the x with x^2 closest to it
    idx = np.argmin(np.abs((xs * xs)[None, :] - zs[:, None]), axis=1)
    dz_dt = 2.0 * xs[idx] * vel[idx]
    expected = (
        2.0 * (1.0 - 2.0 * Lambda)
        + 8.0 * zs * pair_matrix(zs).sum(axis=1)
        + 2.0 * omega * zs
    )
    return float(np.max(np.abs(1j * dz_dt - expected), initial=0.0))


# -- functional-identity sums -------------------------------------------------


def phi_identity_i1(xs: Sequence[float], phi: Callable[[float], float]) -> Tuple[float, float]:
    """Triple sum sum_n sum_{i != n} sum_{j != n} phi(x_n - x_i) phi(x_n - x_j)
    and the pair comparison 2 sum_{i<j} phi(x_i - x_j)^2."""
    n = len(xs)
    total = 0.0
    for c in range(n):
        acc = 0.0
        for i in range(n):
            if i != c:
                acc += phi(xs[c] - xs[i])
        total += acc * acc  # (sum phi)^2 = sum_i sum_j phi phi including i=j
    pair = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            pair += phi(xs[i] - xs[j]) ** 2
    return total, 2.0 * pair


def phi_identity_i2(
    xs: Sequence[float], ys: Sequence[float], phi: Callable[[float], float]
) -> float:
    """The mixed two-species triple-sum combination that the pairwise
    functional equation forces to vanish."""
    N, M = len(xs), len(ys)
    t1 = 0.0
    for m in range(M):
        for i in range(N):
            for j in range(N):
                if j != i:
                    t1 += phi(xs[j] - ys[m]) * phi(xs[i] - xs[j])
    t2 = 0.0
    for m in range(N):
        for i in range(M):
            for j in range(M):
                if j != i:
                    t2 += phi(ys[j] - xs[m]) * phi(ys[i] - ys[j])
    t3 = 0.0
    for m in range(N):
        for i in range(N):
            for j in range(M):
                t3 += phi(ys[j] - xs[m]) * phi(xs[i] - ys[j])
    t4 = 0.0
    for m in range(M):
        for i in range(M):
            for j in range(N):
                t4 += phi(xs[j] - ys[m]) * phi(ys[i] - xs[j])
    return 2.0 * t1 - 2.0 * t2 + t3 - t4
