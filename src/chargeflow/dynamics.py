"""Root-dynamics right-hand side and the adaptive integrator.

All flows evolve labeled complex positions grouped by species, and all
share one right-hand side

    v_i = -2 P(z_i) sum_{j != i} q_j K(z_i - z_j) - U(z_i) - w_i P'(z_i)

with K = 1/dz for the planar flows and cot dz for the angular flow, q the
per-particle charges and w_i = q_i/2 for charged flows (0 otherwise).
The float data it needs is derived once per ``FlowSpec``.  The
integrator is an embedded Dormand-Prince 5(4) pair with step control,
fourth-order dense output at the times its caller asks for and
collision detection with event localization.  It steps a stack of B
starts (B, N) as lanes: each lane has its own time, step size, step
control, collision check and output cursor, and each stage is one
stacked right-hand side call over the lanes still running.  A lane is
bit-identical to its start integrated alone, so a seed sweep is one
``integrate_lanes`` call and a single run (``integrate``) is the
one-lane case.  A step is cheap in numpy calls, not in arithmetic: each
stage's state sum is one ordered ``np.add.reduce`` that rounds as the
term-by-term sum does, and each lane carries a rigorous lower bound on
its separation, so the exact O(N^2) check runs only when that bound
reaches the collision distance.  Each result carries the lane's step
statistics.  A trajectory is a times vector and an (S, N) position
array; its per-sample monitors are computed as columns in a separate
step, ``monitors``, by the callers that read them.  Each column is one
computation on a block of states (S, N): the right-hand side and the
separation measure take one state or a stack through the same code.

The holomorphic equations are integrated exactly as written: velocities,
not conjugated velocities, appear on the left-hand side.  Off the real
line the trajectories therefore do not describe physical vortex motion,
although fixed points and real-line dynamics coincide with the physical
system's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ChargeflowError,
    Collision,
    NonConvergence,
    SymmetryViolation,
    ValidationError,
)
from .operators import ChargeConfiguration, SystemCoefficients, _product, polylinear_H
from .polynomials import Polynomial, _distance, _inverse, from_roots, pair_matrix

__all__ = [
    "FlowSpec",
    "Trajectory",
    "rhs",
    "integrate",
    "uniform_grid",
    "integrate_lanes",
    "monitors",
    "over_samples",
    "symmetric_reduce",
    "reduced_velocity_residual",
    "phi_identity_i1",
    "phi_identity_i2",
]


def _cot(d):
    return 1.0 / np.tan(d)


def _sine_distance(d):
    return np.abs(np.sin(d.real))


@dataclass(frozen=True)
class FlowSpec:
    """A flow is its system and species sizes.  ``sys`` None is the
    angular flow (P = 1, U = 0, charges +1 and -1, kernel cot dz, metric
    |sin(Re dz)|); a system without charges is the linear flow (charge 1,
    w = 0); any other system is a charged flow (w = q/2).  The remaining
    fields are derived once from these two: the species ``charges``,
    per-particle charges ``q``, float ``P``, ``U``, ``dP``, the P' weight
    ``w``, the pair ``kernel``, the separation ``metric`` and the trap
    frequency ``omega`` (None without a trap)."""

    sys: Optional[SystemCoefficients]
    sizes: Tuple[int, ...]
    charges: Tuple[float, ...] = field(init=False, compare=False, repr=False)
    q: np.ndarray = field(init=False, compare=False, repr=False)
    P: Polynomial = field(init=False, compare=False, repr=False)
    U: Polynomial = field(init=False, compare=False, repr=False)
    dP: Polynomial = field(init=False, compare=False, repr=False)
    w: np.ndarray = field(init=False, compare=False, repr=False)
    kernel: Callable = field(init=False, compare=False, repr=False)
    metric: Callable = field(init=False, compare=False, repr=False)
    omega: Optional[float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        sys = self.sys
        if sys is None:
            charges = (1.0, -1.0)
            P, U = Polynomial([1.0]), Polynomial.zero()
        else:
            charges = tuple(complex(q).real for q in sys.charges or (1.0,))
            P, U = sys.P.to_float(), sys.U.to_float()
        if len(charges) != len(self.sizes):
            raise ValidationError(
                f"{len(self.sizes)} species sizes for {len(charges)} charges"
            )
        q = np.repeat(np.array(charges, dtype=complex), self.sizes)
        charged = sys is not None and sys.charges is not None
        derived = {
            "charges": charges,
            "q": q,
            "P": P,
            "U": U,
            "dP": P.derivative(),
            "w": 0.5 * q if charged else np.zeros_like(q),
            "kernel": _cot if sys is None else _inverse,
            "metric": _sine_distance if sys is None else _distance,
            "omega": None if sys is None else sys.omega,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @staticmethod
    def linear(sys: SystemCoefficients, n: int):
        return FlowSpec(sys, (n,))

    @staticmethod
    def bilinear(sys: SystemCoefficients, n: int, m: int):
        return FlowSpec(sys, (n, m))

    @staticmethod
    def polylinear(sys: SystemCoefficients, sizes: Sequence[int]):
        return FlowSpec(sys, tuple(sizes))

    @staticmethod
    def rational_omega(omega: float, Lambda: float, n: int, m: int):
        return FlowSpec(SystemCoefficients.rational_omega(omega, Lambda), (n, m))

    @staticmethod
    def angular(n: int, m: int):
        return FlowSpec(None, (n, m))


@dataclass
class Trajectory:
    """Sampled solution: strictly increasing ``times`` (S,) and the complex
    ``positions`` (S, N) at those times, species concatenated in
    ``flow.sizes`` order, and the integrator's ``stats`` (see
    ``integrate_lanes``)."""

    times: np.ndarray
    positions: np.ndarray
    flow: FlowSpec
    stats: dict = field(default_factory=dict)


# -- right-hand sides ----------------------------------------------------------


def _flatten(config: ChargeConfiguration):
    return np.array(config.all_positions(), dtype=complex)


def _horner(p: Polynomial, z: np.ndarray):
    """A float polynomial at the points ``z``, rounded as ``Polynomial.__call__``
    rounds it, without its ring test (the integrator's hot path).  It
    starts from the leading coefficient, so a constant comes back as a
    Python complex."""
    coeffs = p.floats or (0j,)
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def rhs_flat(flow: FlowSpec, z: np.ndarray) -> np.ndarray:
    """Velocities for the flattened positions (N,) or a stack (S, N), by
    the shared formula in the module docstring.

    The pair sum is one product of the kernel matrix with the charges.
    Each polynomial is a Horner loop from its leading coefficient.  A term
    whose polynomial is zero is left out: U = 0 (angular flows) and
    P' = 0 (constant P, every harmonic-trap flow) would subtract zeros."""
    v = -2.0 * _horner(flow.P, z) * (pair_matrix(z, flow.kernel) @ flow.q)
    if flow.U.floats:
        v = v - _horner(flow.U, z)
    if flow.dP.floats:
        v = v - flow.w * _horner(flow.dP, z)
    return v


def rhs(flow: FlowSpec, state: ChargeConfiguration):
    """Velocities per species for a configuration (list of complex)."""
    z = _flatten(state)
    return list(rhs_flat(flow, z))


# -- separation measure ---------------------------------------------------------


def _min_separation(flow: FlowSpec, z: np.ndarray):
    """Smallest pair distance of each state in the flow's ``metric``."""
    return pair_matrix(z, flow.metric, diagonal=np.inf).min(axis=(-2, -1), initial=np.inf)[()]


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

# Stage s's state sum over its _DP_A row: the weights a_sj as a complex
# (s, 1) column, so that each product a_sj * k_j is the complex product
# the Python float a_sj makes, and the j whose a_sj = 0 (left out of the sum)
_DP_SUMS = [
    (np.array(row, dtype=complex)[:, None], [j for j, a in enumerate(row) if not a])
    for row in _DP_A[1:]
]

_MAX_STEPS = 10_000_000
_COLLISION_REL = 1e-7  # delta = 1e-7 * configuration scale
# Relative slack of the carried separation bound, far above the few ulps
# by which a computed |dz| or |y1 - z| can differ from the exact one
_SEP_SLACK = 1e-12


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


def _scale(z):
    """max(1, max |z_i|) of each state in ``z`` (..., N)."""
    return np.maximum(1.0, np.max(np.abs(z), axis=-1, initial=0.0))[()]


def integrate(
    flow: FlowSpec,
    init: ChargeConfiguration,
    t_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    n_samples: int = 257,
    fixed_step: Optional[float] = None,
) -> Trajectory:
    """Integrate a flow and sample it on a uniform output grid.

    Local error per step is held below ``rtol * |y| + atol`` component-wise
    (weighted rms).  ``fixed_step`` disables adaptivity (used by the
    convergence-order tests).  Collisions raise ``Collision`` with the event
    time localized to 1e-3 of the step by bisection on the interpolant;
    a step size underflow (below 1e-13 * t_end) or exceeding the step cap
    raises ``NonConvergence``.  The trajectory, or the error raised, has
    the run's step statistics in ``stats``.  This is the one-lane case of
    ``integrate_lanes`` on ``uniform_grid(t_end, n_samples)``.
    """
    times = uniform_grid(t_end, n_samples)
    (out,) = integrate_lanes(flow, _flatten(init)[None, :], times, rtol, atol, fixed_step)
    if isinstance(out, ChargeflowError):
        raise out
    return out


def uniform_grid(t_end: float, n_samples: int) -> np.ndarray:
    """The output grid of ``integrate``: ``linspace(0, t_end, max(2,
    n_samples))``, or only t = 0 when ``t_end`` is 0."""
    return np.linspace(0.0, t_end, max(2, n_samples)) if t_end else np.zeros(1)


def integrate_lanes(
    flow: FlowSpec,
    Z0: np.ndarray,
    times: Sequence[float],
    rtol: float = 1e-10,
    atol: float = 1e-12,
    fixed_step: Optional[float] = None,
) -> list:
    """Integrate B starts ``Z0`` (B, N) of one flow as lanes of one stepper
    from t = 0 to t_end = ``times[-1]``, with output at the strictly
    increasing ``times`` (S,), which start at 0.

    Each lane keeps its own time, step size and step control, error norm,
    collision check and localization, step cap and output cursor; each
    stage is one stacked ``rhs_flat`` call over the lanes still running.
    The steps depend on ``times`` only through t_end, and each output is
    a step's endpoint or its dense output, so a lane's state at a time
    does not depend on the other times asked for.  Entry b of the returned
    list is the ``Trajectory`` of ``Z0[b]`` at ``times``, or the
    ``Collision`` / ``NonConvergence`` that ends it, and is bit-identical
    to what a run of that start alone on the same times gives: every
    operation acts on each lane's own rows, and the step factor is a
    Python float power per lane.  The other settings are those of
    ``integrate``.

    A stage state z + h * sum_j a_j k_j takes its sum in one multiply and
    one ``np.add.reduce`` over the stage axis of the products.  That axis
    is not the innermost (the reduce runs on the float view, whose last
    axis holds 2N reals), so the reduce adds in index order, starting from
    -0.0, which leaves every term unchanged: it rounds exactly as the fold
    acc = a_0 k_0; acc += a_j k_j over the nonzero a_j.

    Each lane carries a lower bound on its separation.  After an accepted
    step from z to y1, sep(y1) >= sep(z) - 2 max_i |y1_i - z_i|, by the
    triangle inequality for |dz| and since |sin| is 1-Lipschitz for the
    angular |sin(Re dz)|.  The bound takes both terms with a relative slack
    of ``_SEP_SLACK`` and subtracts that slack times a carried bound on
    max |z| as well, which covers the rounding of the computed |dz| and
    of Re dz.  The exact O(N^2) ``_min_separation`` runs only when the
    bound is not above delta, and then replaces it, so every collision
    decision is the one that checking each accepted state would make.

    Every result carries a ``stats`` dict of the lane's Python counters:
    ``accepted`` and ``rejected`` step attempts (an accepted attempt passed
    error control; the one that ends in a collision counts), ``rhs_evals``
    (lane evaluations of ``rhs_flat``), ``h_min`` / ``h_max`` over the
    accepted steps (None without one) and ``sep_checks`` (exact separation
    checks, the start's included).
    """
    Z = np.array(Z0, dtype=complex)
    t_out = np.array(times, dtype=float)
    grid = t_out.tolist()
    t_end = grid[-1]
    if t_end < 0:
        raise ValidationError("t_end must be >= 0")
    if grid[0] != 0.0 or not all(a < b for a, b in zip(grid, grid[1:])):
        raise ValidationError("output times must increase strictly from 0")
    B, N = Z.shape
    reach = _scale(Z).tolist()  # bounds on max(1, max |z|) of each lane
    deltas = [_COLLISION_REL * r for r in reach]
    samples = np.empty((B, len(grid), N), dtype=complex)
    samples[:, 0] = Z
    bounds = _min_separation(flow, Z).tolist()  # separation lower bound per lane
    results = [
        Collision("initial configuration violates separation", time=0.0) if sep <= delta else None
        for sep, delta in zip(bounds, deltas)
    ]
    active = [b for b in range(B) if results[b] is None and t_end > 0]

    t = [0.0] * B
    h = [fixed_step if fixed_step else min(1e-3, t_end / 10)] * B
    nxt = [1] * B
    steps = [0] * B
    accepted = [0] * B
    checks = [1] * B
    h_lo = [math.inf] * B
    h_hi = [0.0] * B
    F = np.empty_like(Z)
    if active:
        F[active] = rhs_flat(flow, Z[active])
    stages = np.empty((B, 7, N), dtype=complex)  # (lane, stage, particle)

    while active:
        for b in active:
            if steps[b] > _MAX_STEPS:
                results[b] = NonConvergence("step cap exceeded")
            elif not fixed_step and h[b] < 1e-13 * t_end:
                sep = _min_separation(flow, Z[b])
                # an underflow driven by an imminent coincidence is a collision
                results[b] = (
                    Collision(
                        f"charges approaching coincidence (separation {sep:.3g}) "
                        f"stalled the stepper at t={t[b]:.6g}",
                        time=t[b],
                    )
                    if sep <= 1e-3 * _scale(Z[b])
                    else NonConvergence("step size underflow")
                )
        active = [b for b in active if results[b] is None]
        if not active:
            break
        # with every lane running, the full arrays stand in for the subset
        full = len(active) == B
        z = Z if full else Z[active]
        k = stages[: len(active)]
        k[:, 0] = F if full else F[active]
        for b in active:
            h[b] = min(h[b], t_end - t[b])
        # complex, as the float step column is cast in every product with it
        hs = np.array([h[b] for b in active], dtype=complex)[:, None]
        for stage, (weights, skipped) in enumerate(_DP_SUMS, start=1):
            terms = (weights * k[:, :stage]).view(float)
            if skipped:
                terms[:, skipped] = -0.0  # adds nothing, as a skipped term
            acc = np.add.reduce(terms, axis=1, initial=-0.0).view(complex)
            np.multiply(hs, acc, out=acc)
            np.add(z, acc, out=acc)
            k[:, stage] = rhs_flat(flow, acc)
        dy = hs * (_DP_B5 @ k)
        y1 = z + dy
        err_vec = hs * (_DP_E @ k)
        sc = atol + rtol * np.maximum(np.abs(z), np.abs(y1))
        errs = [0.0] * len(active)
        if N:
            # the sum and divide of np.mean, then an IEEE square root
            sums = np.add.reduce(np.abs(err_vec / sc) ** 2, axis=1).tolist()
            errs = [math.sqrt(s / N) for s in sums]
        ok = [i for i, err in enumerate(errs) if fixed_step or err <= 1.0]
        lanes = [active[i] for i in ok]
        rows = slice(None) if len(ok) == len(active) else ok
        values, checked = _separations(flow, y1[rows], dy[rows], lanes, bounds, reach, deltas)
        seps = dict(zip(ok, values))
        for j in checked:
            checks[lanes[j]] += 1

        for i, b in enumerate(active):
            if i in seps:
                accepted[b] += 1
                h_lo[b] = min(h_lo[b], h[b])
                h_hi[b] = max(h_hi[b], h[b])
                t0, t1 = t[b], t[b] + h[b]
                interp = None
                if seps[i] <= deltas[b]:
                    interp = _StepInterpolant(t0, h[b], z[i], k[i])
                    t_ev = _localize_collision(flow, interp, t0, t1, deltas[b])
                    results[b] = Collision(
                        f"charges within {deltas[b]:g} at t={t_ev:.6g}", time=t_ev
                    )
                    continue
                bounds[b] = seps[i]
                while nxt[b] < len(grid) and grid[nxt[b]] <= t1 + 1e-15 * t_end:
                    ts = grid[nxt[b]]
                    if abs(ts - t1) < 1e-15 * max(1.0, t_end):
                        samples[b, nxt[b]] = y1[i]
                    else:
                        interp = interp or _StepInterpolant(t0, h[b], z[i], k[i])
                        samples[b, nxt[b]] = interp(ts)
                    nxt[b] += 1
                t[b] = t1
            if not fixed_step:
                err = errs[i]
                factor = 0.9 * err ** (-0.2) if err > 0 else 5.0
                h[b] *= min(5.0, max(0.2, factor))
            steps[b] += 1

        # FSAL: the last stage is the rhs at the accepted endpoint; copied
        # out of the stage buffer, which the next attempt overwrites
        moved = [i for i in seps if results[active[i]] is None]
        if full and len(moved) == B:
            Z, F = y1, k[:, 6].copy()
        elif moved:
            lanes = [active[i] for i in moved]
            Z[lanes] = y1[moved]
            F[lanes] = k[moved, 6]
        for b in active:
            if results[b] is None and t[b] >= t_end:
                samples[b, nxt[b] :] = Z[b]  # numerical tail guard
        active = [b for b in active if results[b] is None and t[b] < t_end]

    out = []
    for b, result in enumerate(results):
        stats = {
            "accepted": accepted[b],
            "rejected": steps[b] - accepted[b],
            "rhs_evals": 1 + 6 * steps[b] if steps[b] else 0,  # F at the start, 6 per attempt
            "h_min": h_lo[b] if accepted[b] else None,
            "h_max": h_hi[b] if accepted[b] else None,
            "sep_checks": checks[b],
        }
        if result is None:
            result = Trajectory(t_out, samples[b], flow, stats)
        else:
            result.stats = stats
        out.append(result)
    return out


def _separations(flow, y1, dy, lanes, bounds, reach, deltas):
    """Separation values of the accepted step results ``y1`` (R, N), row j
    of lane ``lanes[j]``, each ``dy`` from the lane's state: the bound
    carried from ``bounds`` (see ``integrate_lanes``), or the exact value
    where that bound is not above the lane's delta.  ``reach`` grows in
    place.  |dy| stands for |y1 - z|; they differ by the rounding of
    z + dy, which the slack times ``reach`` covers.  Returns the values
    by row and the rows checked exactly."""
    moves = np.maximum.reduce(np.abs(dy), axis=1, initial=0.0).tolist()
    values = []
    for b, move in zip(lanes, moves):
        move *= 1 + _SEP_SLACK
        reach[b] += move
        values.append(bounds[b] * (1 - _SEP_SLACK) - 2 * move - _SEP_SLACK * reach[b])
    checked = [j for j, b in enumerate(lanes) if not values[j] > deltas[b]]
    if checked:
        exact = _min_separation(flow, y1 if len(checked) == len(lanes) else y1[checked])
        for j, sep in zip(checked, exact.tolist()):
            values[j] = sep
    return values, checked


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


_SAMPLE_BLOCK = 64  # bounds the (block, N, N) arrays, so memory does not grow with S


def over_samples(fn: Callable, Z: np.ndarray) -> np.ndarray:
    """``fn`` of the stack ``Z`` (S, N), called on blocks of at most
    ``_SAMPLE_BLOCK`` samples, its results joined along the sample axis."""
    blocks = range(0, len(Z), _SAMPLE_BLOCK)
    return np.concatenate([fn(Z[i : i + _SAMPLE_BLOCK]) for i in blocks])


def monitors(traj: Trajectory) -> dict:
    """Per-sample monitor columns: ``min_separation`` (S,), and where the
    flow defines them ``charge_moment`` (S,), ``bilinear_residual`` (S,)
    and the Lax traces ``conserved`` (S, K), each from stacked calls."""
    from .conserved import has_lax_pair, integrals  # conserved imports dynamics

    flow = traj.flow
    columns = {"min_separation": lambda Z: _min_separation(flow, Z)}
    charged = flow.sys is not None and flow.sys.charges is not None
    if charged or flow.sys is None:  # every flow but the linear one
        columns["charge_moment"] = lambda Z: Z @ flow.q
    if charged:
        columns["bilinear_residual"] = lambda Z: state_residual(flow, Z)
    if has_lax_pair(flow):
        columns["conserved"] = lambda Z: integrals(Z, flow)
    return {key: over_samples(fn, traj.positions) for key, fn in columns.items()}


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
    single state is the same computation on a (1, N) stack.

    The value measures floating-point cancellation in the coefficients,
    not integration error: about 1e-13 at N <= 7 but 1e-6 at N = 30 on
    trap trajectories, so no fixed alarm level fits every N."""
    Z = np.asarray(Z)
    if Z.ndim == 1:
        return float(state_residual(flow, Z[None, :])[0])
    vel = rhs_flat(flow, Z)
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
    if flow.omega is None:
        raise ValidationError("reduction applies to the harmonic-trap flow")
    Lambda = -flow.charges[1]
    omega = flow.omega
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


def phi_identity_i1(xs: Sequence[float], phi: Callable[[np.ndarray], np.ndarray]) -> Tuple[float, float]:
    """Triple sum sum_n sum_{i != n} sum_{j != n} phi(x_n - x_i) phi(x_n - x_j)
    and the pair comparison 2 sum_{i<j} phi(x_i - x_j)^2, from the pair
    matrix M_ij = phi(x_i - x_j); phi acts elementwise on a float array."""
    M = pair_matrix(xs, lambda d: phi(d.real))
    return float(np.sum(M.sum(axis=1) ** 2)), float(2.0 * np.sum(np.triu(M * M, 1)))


def phi_identity_i2(
    xs: Sequence[float], ys: Sequence[float], phi: Callable[[np.ndarray], np.ndarray]
) -> float:
    """The mixed two-species triple-sum combination 2 T1 - 2 T2 + T3 - T4
    that the pairwise functional equation forces to vanish, with
    T1 = sum_m sum_{i != j} phi(x_j - y_m) phi(x_i - x_j) and T3 =
    sum_{m, i, j} phi(y_j - x_m) phi(x_i - y_j), and T2, T4 the same with
    the species swapped.  Each term is the row sums of one block of the
    pair matrix of the joined points dotted with the column sums of
    another."""
    n = len(xs)
    M = pair_matrix(np.concatenate([xs, ys]), lambda d: phi(d.real))
    XX, XY, YX, YY = M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:]
    a, b = XY.sum(axis=1), YX.sum(axis=1)
    t1, t2 = a @ XX.sum(axis=0), b @ YY.sum(axis=0)
    t3, t4 = b @ XY.sum(axis=0), a @ YX.sum(axis=0)
    return float(2.0 * t1 - 2.0 * t2 + t3 - t4)
