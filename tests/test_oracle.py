"""A plain one-lane Dormand-Prince 5(4) stepper, kept as the reference for
the lane integrator.

Each step is written out term by term: a stage state is z + h * acc with
acc = a_0 k_0; acc += a_j k_j over the nonzero a_j, the polynomials are
Horner loops from 0j with the P' term always subtracted, the error norm
goes through ``np.mean``, the output cursor reads numpy times, and
the separation of every accepted state is computed exactly.  The arrays
keep the lane stepper's shapes (a lane axis of length 1), so that every
matrix product rounds as it does there.  ``integrate`` and
``integrate_lanes`` must reproduce this stepper bit for bit.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeflow import cli, dynamics
from chargeflow.dynamics import FlowSpec, integrate, integrate_lanes
from chargeflow.errors import ChargeflowError, Collision, NonConvergence
from chargeflow.operators import SystemCoefficients
from chargeflow.polynomials import _distance, pair_matrix


def _horner(p, z):
    acc = 0j
    for c in reversed(p.floats):
        acc = acc * z + c
    return acc


def _rhs(flow, z):
    pairs = pair_matrix(z, flow.kernel) @ flow.q
    return -2.0 * _horner(flow.P, z) * pairs - _horner(flow.U, z) - flow.w * _horner(flow.dP, z)


class _Interpolant:
    def __init__(self, t0, h, y0, K):
        self.t0, self.h, self.y0 = t0, h, y0
        self.Q = K.T @ dynamics._DP_P

    def __call__(self, t):
        s = (t - self.t0) / self.h
        return self.y0 + self.h * (self.Q @ np.array([s, s * s, s**3, s**4]))


def _localize(flow, interp, t0, t1, delta):
    lo, hi = t0, t1
    while hi - lo > 1e-3 * (t1 - t0):
        mid = 0.5 * (lo + hi)
        if dynamics._min_separation(flow, interp(mid)) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def _grid(t_end, n_samples=257):
    """The output times ``integrate`` asks for."""
    return np.linspace(0.0, t_end, max(2, n_samples)) if t_end else np.zeros(1)


def _on_grid(t_end, settings):
    """The output times and the other settings of ``integrate`` settings."""
    settings = dict(settings)
    return _grid(t_end, settings.pop("n_samples", 257)), settings


def oracle(flow, z0, times, rtol=1e-10, atol=1e-12, fixed_step=None):
    """(times, positions) of one start at the output ``times``, which
    run from 0 to t_end, or the Collision / NonConvergence."""
    sep_of = dynamics._min_separation
    z = np.array(z0, dtype=complex)[None, :]
    N = z.shape[1]
    delta = (dynamics._COLLISION_REL * dynamics._scale(z)).tolist()[0]
    t_grid = np.asarray(times, dtype=float)
    t_end = float(t_grid[-1])
    samples = np.empty((len(t_grid), N), dtype=complex)
    samples[0] = z[0]
    if sep_of(flow, z).tolist()[0] <= delta:
        return Collision("initial configuration violates separation", time=0.0)
    t, h, nxt, steps = 0.0, fixed_step if fixed_step else min(1e-3, t_end / 10), 1, 0
    F = _rhs(flow, z) if t_end > 0 else None
    k = np.empty((1, 7, N), dtype=complex)
    while t < t_end:
        if steps > dynamics._MAX_STEPS:
            return NonConvergence("step cap exceeded")
        if not fixed_step and h < 1e-13 * t_end:
            sep = sep_of(flow, z[0])
            if sep <= 1e-3 * dynamics._scale(z[0]):
                return Collision(
                    f"charges approaching coincidence (separation {sep:.3g}) "
                    f"stalled the stepper at t={t:.6g}",
                    time=t,
                )
            return NonConvergence("step size underflow")
        k[:, 0] = F
        h = min(h, t_end - t)
        hs = np.array([h])[:, None]
        for stage in range(1, 7):
            row = dynamics._DP_A[stage]
            acc = row[0] * k[:, 0]
            for j in range(1, stage):
                if row[j]:
                    acc += row[j] * k[:, j]
            k[:, stage] = _rhs(flow, z + hs * acc)
        y1 = z + hs * (dynamics._DP_B5 @ k)
        err_vec = hs * (dynamics._DP_E @ k)
        sc = atol + rtol * np.maximum(np.abs(z), np.abs(y1))
        err = np.sqrt(np.mean(np.abs(err_vec / sc) ** 2, axis=1)).tolist()[0] if N else 0.0
        if fixed_step or err <= 1.0:
            t0, t1 = t, t + h
            interp = None
            if sep_of(flow, y1).tolist()[0] <= delta:
                t_ev = _localize(flow, _Interpolant(t0, h, z[0], k[0]), t0, t1, delta)
                return Collision(f"charges within {delta:g} at t={t_ev:.6g}", time=t_ev)
            while nxt < len(t_grid) and t_grid[nxt] <= t1 + 1e-15 * t_end:
                ts = t_grid[nxt]
                if abs(ts - t1) < 1e-15 * max(1.0, t_end):
                    samples[nxt] = y1[0]
                else:
                    interp = interp or _Interpolant(t0, h, z[0], k[0])
                    samples[nxt] = interp(ts)
                nxt += 1
            t = t1
            z, F = y1, k[:, 6].copy()
        if not fixed_step:
            factor = 0.9 * err ** (-0.2) if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
        steps += 1
    samples[nxt:] = z[0]
    return t_grid, samples


def _assert_matches(expected, got):
    if isinstance(expected, ChargeflowError):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        assert got.time == expected.time
        return
    assert not isinstance(got, ChargeflowError), got
    times, positions = expected
    assert got.times.tobytes() == times.tobytes()
    assert got.positions.tobytes() == positions.tobytes()


def _solo(flow, z, t_end, **settings):
    try:
        return integrate(flow, z, t_end, **settings)
    except ChargeflowError as exc:
        return exc


def _separated(rng, count, n, scale, min_sep):
    out = []
    while len(out) < count:
        z = rng.normal(size=n) * scale + 1j * rng.normal(size=n) * scale
        if np.all(pair_matrix(z, _distance, diagonal=np.inf) > min_sep * scale):
            out.append(z)
    return np.array(out)


def _sweep_starts(seeds):
    flow = FlowSpec.rational_omega(1.0, 1.213579, 6, 1)
    options = {"scale": 1.8, "min_separation": 0.8889}
    return flow, np.array([cli._random_initial(flow, {**options, "seed": s}) for s in seeds])


def _three_species():
    sys = SystemCoefficients.polylinear([1.0, 0.0, 0.3], [0.0, -1.0], [1.0, -0.5, 2.0])
    flow = FlowSpec.polylinear(sys, (3, 2, 2))
    return flow, _separated(np.random.default_rng(4), 3, 7, 1.5, 0.3)


def _collisions():
    # the angular start collides within delta; the linear flow's real
    # roots meet and stall the stepper (a collision by underflow)
    angular = FlowSpec.angular(3, 2)
    linear = FlowSpec.linear(SystemCoefficients.linear([1.0], [0.0, -0.5]), 4)
    return [
        (angular, np.array([[0.2, 0.9, 1.6, 2.6, 3.9]], dtype=complex), 0.5,
         {"rtol": 1e-11, "atol": 1e-13, "n_samples": 11}),
        (linear, np.array([[-1.0, 0.0, 0.3, 1.2], [-1.0 + 0.5j, 0.4j, 0.3 - 0.6j, 1.2 + 0.2j]]),
         0.05, {"n_samples": 11}),
    ]


CASES = {
    "trap_n7": lambda: [(*_sweep_starts([11, 5, 23]), 2 * math.pi, {"n_samples": 129})],
    "trap_n30": lambda: [(FlowSpec.rational_omega(1.0, 1.0, 20, 10),
                          _separated(np.random.default_rng(7), 2, 30, 1.8, 0.2),
                          math.pi / 8, {"n_samples": 17})],
    "three_species": lambda: [(*_three_species(), 0.2, {"n_samples": 17})],
    "angular": lambda: [(FlowSpec.angular(3, 2),
                         _separated(np.random.default_rng(8), 3, 5, 0.5, 0.1), 1.0,
                         {"rtol": 1e-11, "atol": 1e-13, "n_samples": 21})],
    "linear": lambda: [(FlowSpec.linear(SystemCoefficients.linear([1.0, 0.0, 0.5], [0.0, -2.0]), 6),
                        _separated(np.random.default_rng(9), 3, 6, 1.0, 0.3), 0.3,
                        {"n_samples": 17})],
    "fixed_step": lambda: [(FlowSpec.rational_omega(1.0, 1.0, 3, 1),
                            _separated(np.random.default_rng(5), 3, 4, 1.0, 0.3), 1.0,
                            {"fixed_step": 0.01, "n_samples": 9})],
    "collision": _collisions,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_integrators_match_the_oracle_bit_for_bit(case):
    for flow, starts, t_end, settings in CASES[case]():
        times, lane_settings = _on_grid(t_end, settings)
        lanes = integrate_lanes(flow, starts, times, **lane_settings)
        assert isinstance(lanes[0], Collision) == (case == "collision")
        for z, lane in zip(starts, lanes):
            expected = oracle(flow, z, times, **lane_settings)
            _assert_matches(expected, lane)
            _assert_matches(expected, _solo(flow, z, t_end, **settings))


def test_requested_times_match_the_oracle_bit_for_bit():
    # times off any uniform grid: inside steps, and one period's end
    flow, starts = _sweep_starts([11, 5])
    times = [0.0, 1e-9, 0.3, 1.0, math.pi, 2 * math.pi - 1e-6, 2 * math.pi]
    for z, lane in zip(starts, integrate_lanes(flow, starts, times)):
        _assert_matches(oracle(flow, z, np.array(times)), lane)


# -- the carried separation bound -------------------------------------------------


@contextlib.contextmanager
def _recording_separations():
    """Wrap ``dynamics._separations``: every call's values, with the exact
    separation of each row and whether the row was checked."""
    calls = []
    real = dynamics._separations

    def recording(flow, y1, dy, lanes, bounds, reach, deltas):
        values, checked = real(flow, y1, dy, lanes, bounds, reach, deltas)
        exact = np.atleast_1d(dynamics._min_separation(flow, y1)).tolist()
        calls.append([(v, e, j in checked, deltas[b]) for j, (v, e, b)
                      in enumerate(zip(values, exact, lanes))])
        return values, checked

    dynamics._separations = recording
    try:
        yield calls
    finally:
        dynamics._separations = real


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    lanes=st.integers(1, 3),
    sizes=st.sampled_from([(6, 1), (4, 2), (3, 3)]),
    Lambda=st.floats(0.5, 1.5),
)
def test_carried_bound_never_exceeds_the_exact_separation(seed, lanes, sizes, Lambda):
    flow = FlowSpec.rational_omega(1.0, Lambda, *sizes)
    starts = _separated(np.random.default_rng(seed), lanes, sum(sizes), 1.5, 0.15)
    with _recording_separations() as calls:
        integrate_lanes(flow, starts, _grid(1.0, 9))
    rows = [row for call in calls for row in call]
    assert rows
    for value, exact, checked, delta in rows:
        assert value == exact if checked else delta < value <= exact


def test_bound_crosses_delta_and_is_recomputed():
    flow, starts = _sweep_starts([11])
    with _recording_separations() as calls:
        (traj,) = integrate_lanes(flow, starts, _grid(2 * math.pi, 129))
    checked = [row[2] for call in calls for row in call]
    assert checked.count(False) > 0 and checked.count(True) > 0
    # the start's check, and one for each time the bound fell to delta
    assert traj.stats["sep_checks"] == 1 + checked.count(True)
    assert traj.stats["sep_checks"] < traj.stats["accepted"]


def test_lane_driven_within_delta_reports_the_oracles_collision(monkeypatch):
    # with delta at 2% of the scale the linear flow's real roots come within
    # delta before they stall the stepper, and the bound decides every step
    # of the other lanes
    monkeypatch.setattr(dynamics, "_COLLISION_REL", 0.02)
    flow, starts, t_end, settings = _collisions()[1]
    starts = np.vstack([starts, _separated(np.random.default_rng(2), 2, 4, 1.0, 0.3)])
    times, settings = _on_grid(t_end, settings)
    lanes = integrate_lanes(flow, starts, times, **settings)
    assert isinstance(lanes[0], Collision) and str(lanes[0]).startswith("charges within")
    for z, lane in zip(starts, lanes):
        _assert_matches(oracle(flow, z, times, **settings), lane)


# -- integrator statistics ---------------------------------------------------------


def test_stats_count_the_lanes_work():
    flow, starts = _sweep_starts([11, 5])
    trajs = integrate_lanes(flow, starts, _grid(2 * math.pi, 129))
    for traj in trajs:
        s = traj.stats
        assert s["accepted"] > 0 and s["rejected"] >= 0
        assert s["rhs_evals"] == 1 + 6 * (s["accepted"] + s["rejected"])
        assert 0 < s["h_min"] <= s["h_max"]
        assert 1 <= s["sep_checks"] <= s["accepted"] + 1
    fixed = integrate(flow, starts[0], 0.1, fixed_step=0.01, n_samples=3)
    assert fixed.stats["rejected"] == 0 and fixed.stats["h_max"] == 0.01
    assert fixed.stats["accepted"] >= 10


def test_stats_ride_on_the_errors_that_end_lanes():
    flow, starts, t_end, settings = _collisions()[0]
    with pytest.raises(Collision) as err:
        integrate(flow, starts[0], t_end, **settings)
    assert err.value.stats["accepted"] > 0
    touching = np.array([[0.2, 0.2 + 1e-9, 1.6, 2.6, 3.9]], dtype=complex)
    (initial,) = integrate_lanes(flow, touching, *_on_grid(t_end, settings))
    assert initial.stats == {"accepted": 0, "rejected": 0, "rhs_evals": 0,
                             "h_min": None, "h_max": None, "sep_checks": 1}
