"""Seed sweeps as lanes of one integrator: every lane is bit-identical to
its start integrated alone, whatever else shares the stack."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from chargeflow import cli, dynamics
from chargeflow.dynamics import FlowSpec, integrate, integrate_lanes
from chargeflow.errors import ChargeflowError, Collision, ValidationError


def _solo(flow, z, t_end, **settings):
    try:
        return integrate(flow, z, t_end, **settings)
    except ChargeflowError as exc:
        return exc


def _same(a, b):
    if isinstance(a, ChargeflowError):
        return type(a) is type(b) and str(a) == str(b) and a.__dict__ == b.__dict__
    return (
        not isinstance(b, ChargeflowError)
        and a.times.tobytes() == b.times.tobytes()
        and a.positions.tobytes() == b.positions.tobytes()
    )


def _grid(t_end, n_samples=257, **settings):
    """The output times ``integrate`` asks for, and its other settings."""
    return np.linspace(0.0, t_end, max(2, n_samples)) if t_end else np.zeros(1), settings


def _lanes(flow, starts, t_end, **settings):
    """``integrate_lanes`` on the uniform grid of ``integrate``."""
    times, settings = _grid(t_end, **settings)
    return integrate_lanes(flow, starts, times, **settings)


def _random_starts(n_total, count, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    shape = (count, n_total)
    return rng.normal(size=shape) * scale + 1j * rng.normal(size=shape) * scale


def test_integrate_equals_lane_zero_of_stack():
    flow = FlowSpec.rational_omega(1.0, 1.213579, 6, 1)
    starts = _random_starts(7, 4, seed=3, scale=1.8)
    settings = {"rtol": 1e-10, "atol": 1e-12, "n_samples": 65}
    lanes = _lanes(flow, starts, 2 * math.pi, **settings)
    for z, lane in zip(starts, lanes):
        assert _same(_solo(flow, z, 2 * math.pi, **settings), lane)
    for order in ([2, 0, 3, 1], [3], [1, 3]):
        for b, lane in zip(order, _lanes(flow, starts[order], 2 * math.pi, **settings)):
            assert _same(lanes[b], lane)


def test_colliding_lane_leaves_the_others_unchanged():
    # the first start collides (two same-sign angular charges attract);
    # the second starts inside the collision distance
    flow = FlowSpec.angular(3, 2)
    colliding = np.array([0.2, 0.9, 1.6, 2.6, 3.9], dtype=complex)
    touching = np.array([0.2, 0.2 + 1e-9, 1.6, 2.6, 3.9], dtype=complex)
    starts = np.vstack([colliding, _random_starts(5, 3, seed=8, scale=0.5), touching])
    settings = {"rtol": 1e-11, "atol": 1e-13, "n_samples": 11}
    lanes = _lanes(flow, starts, 0.5, **settings)
    assert isinstance(lanes[0], Collision) and 0.0 < lanes[0].time < 0.5
    assert isinstance(lanes[-1], Collision) and lanes[-1].time == 0.0
    assert not any(isinstance(lane, ChargeflowError) for lane in lanes[1:-1])
    for z, lane in zip(starts, lanes):
        assert _same(_solo(flow, z, 0.5, **settings), lane)


def test_fixed_step_and_zero_time_lanes_match_solo():
    flow = FlowSpec.rational_omega(1.0, 1.0, 3, 1)
    starts = _random_starts(4, 3, seed=5)
    for t_end, settings in ((1.0, {"fixed_step": 0.01, "n_samples": 9}), (0.0, {})):
        for z, lane in zip(starts, _lanes(flow, starts, t_end, **settings)):
            assert _same(_solo(flow, z, t_end, **settings), lane)


def test_states_at_requested_times_equal_the_grid_runs_where_they_share_a_time():
    flow = FlowSpec.rational_omega(1.0, 1.213579, 6, 1)
    starts = _random_starts(7, 3, seed=3, scale=1.8)
    grid, _ = _grid(2 * math.pi, 17)
    # every fourth grid time, and times between grid times
    times = np.union1d(grid[::4], [0.1, 1.0, 2.0, 3.0, 0.9 * 2 * math.pi])
    shared = np.isin(times, grid)
    for on_grid, lane in zip(integrate_lanes(flow, starts, grid), integrate_lanes(flow, starts, times)):
        assert lane.times.tobytes() == times.tobytes()
        assert lane.positions[shared].tobytes() == on_grid.positions[np.isin(grid, times)].tobytes()
        assert lane.stats == on_grid.stats


@pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.5, 1.0], [0.0, 2.0, 1.0], [0.0, -1.0]])
def test_output_times_must_increase_strictly_from_zero(times):
    flow = FlowSpec.rational_omega(1.0, 1.0, 3, 1)
    with pytest.raises(ValidationError):
        integrate_lanes(flow, _random_starts(4, 2, seed=5), times)


def _sweep_start(seed):
    """The start the ``trap_sweep`` benchmark config draws for ``seed``."""
    doc = cli.validate_config({
        "mode": "period",
        "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.213579, "n": 6, "m": 1},
        "initial": {"random": {"seed": seed, "scale": 1.8, "min_separation": 0.8889}},
    })
    flow = cli._build_flow(doc["system"])
    return flow, cli._build_initial(flow, doc["initial"])


def test_rejected_step_restarts_from_the_accepted_state():
    # A rejected step used to retry from the right-hand side at its own
    # rejected endpoint (the FSAL stage was a view into the stage buffer):
    # this start's error against DOP853 over one period was 4.2e-6.
    flow, init = _sweep_start(1632209575)
    traj = integrate(flow, init, 2 * math.pi, n_samples=129)
    q = flow.q

    def rhs(t, z):
        d = z[:, None] - z[None, :]
        np.fill_diagonal(d, np.inf)
        return -2j * (q[None, :] / d).sum(axis=1) - 1j * z

    ref = solve_ivp(rhs, (0.0, 2 * math.pi), traj.positions[0], method="DOP853",
                    t_eval=traj.times, rtol=1e-13, atol=1e-15)
    assert np.max(np.abs(ref.y.T - traj.positions)) < 1e-7


# -- seed sweeps through the CLI -----------------------------------------------------


def _sweep_config(tmp_path, min_separation=0.25, period=None):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "system": {"kind": "rational_omega", "omega": 1.0, "Lambda": 1.0, "n": 3, "m": 1},
        "initial": {"random": {"scale": 1.0, "min_separation": min_separation}},
        # samples_per_period sets the 17 samples of a trap run; "samples"
        # is not used then, but must fit under a lowered MAX_SAMPLES
        "integration": {"periods": 1, "samples_per_period": 16, "samples": 17},
        "period": period or {},
    }))
    return str(path)


def _sweep(cfg, out, seeds, capsys):
    rc = cli.main(["period", "--config", cfg, "--out", str(out), "--seeds",
                   ",".join(map(str, seeds)), "--jobs", "2"])
    lines = capsys.readouterr().out.splitlines()
    codes = [int(line.rsplit(" ", 1)[1]) for line in lines if line.startswith("seed ")]
    assert lines[-len(seeds):] == [f"seed {s}: exit {c}" for s, c in zip(seeds, codes)]
    assert rc == max(codes)
    return codes


def _solo_run(cfg, out, seed, capsys):
    with open(cfg) as fh:
        doc = json.load(fh)
    doc.update(mode="period", output={"dir": str(out)})
    rc = cli.run(cli._seed_doc(doc, seed))
    capsys.readouterr()
    return rc


def _artifact(out, seed):
    path = out / f"seed{seed}_period.json"
    return path.read_bytes() if path.exists() else None


def test_sweep_lane_equals_solo_and_permuted_runs(tmp_path, capsys):
    cfg = _sweep_config(tmp_path)
    seeds = [11, 5, 23, 8]
    assert _sweep(cfg, tmp_path / "sweep", seeds, capsys) == [0, 0, 0, 0]
    assert _sweep(cfg, tmp_path / "perm", seeds[::-1], capsys) == [0, 0, 0, 0]
    for seed in seeds:
        assert _solo_run(cfg, tmp_path / "solo", seed, capsys) == cli.EXIT_OK
        expected = _artifact(tmp_path / "solo", seed)
        assert expected is not None
        assert _artifact(tmp_path / "sweep", seed) == expected
        assert _artifact(tmp_path / "perm", seed) == expected


def test_failing_lanes_leave_other_seeds_unchanged(tmp_path, capsys, monkeypatch):
    # A wide separation makes some draws fail (exit 3); a wide collision
    # distance and a low step cap make one lane collide (exit 2) and one
    # exceed the cap (exit 4) on this config.
    monkeypatch.setattr(dynamics, "_COLLISION_REL", 0.45)
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 235)
    cfg = _sweep_config(tmp_path, min_separation=2.2)
    seeds = [0, 1, 3, 7, 10]
    codes = _sweep(cfg, tmp_path / "sweep", seeds, capsys)
    assert codes == [0, 2, 3, 4, 0]
    for seed, code in zip(seeds, codes):
        assert _solo_run(cfg, tmp_path / "solo", seed, capsys) == code
        assert _artifact(tmp_path / "sweep", seed) == _artifact(tmp_path / "solo", seed)
    clean = _sweep(cfg, tmp_path / "clean", [0, 10], capsys)
    assert clean == [0, 0]
    for seed in (0, 10):
        assert _artifact(tmp_path / "clean", seed) == _artifact(tmp_path / "sweep", seed)


@pytest.mark.parametrize("cap,chunks", [(2 * 17 + 1, [2, 2, 1]), (17, [1] * 5)])
def test_chunked_sweep_equals_unchunked(tmp_path, capsys, monkeypatch, cap, chunks):
    # a period run reads t = 0 and each multiple of the base period: a
    # sixteenth of the trap period gives each lane 17 output times
    cfg = _sweep_config(tmp_path, period={"base_period": 2 * math.pi / 16})
    seeds = [4, 9, 2, 17, 6]
    assert _sweep(cfg, tmp_path / "whole", seeds, capsys) == [0] * 5
    sizes = []

    def recording(flow, starts, times, **settings):
        sizes.append(len(starts))
        return integrate_lanes(flow, starts, times, **settings)

    monkeypatch.setattr(cli, "integrate_lanes", recording)
    monkeypatch.setattr(cli, "MAX_SAMPLES", cap)
    assert _sweep(cfg, tmp_path / "chunked", seeds, capsys) == [0] * 5
    assert sizes == chunks
    for seed in seeds:
        assert _artifact(tmp_path / "chunked", seed) == _artifact(tmp_path / "whole", seed)
